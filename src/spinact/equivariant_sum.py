"""Declarative equivariant connected sums and their induced cohomology data.

A scenario lists summands (with their intersection forms) and one or two
commuting generator actions, each an involutive permutation of summands
plus local involution labels on the summands it fixes. From this the
module derives, per group element, the sign-twisted cohomology operator
(minus the pullback), the fixed-set data, and total manifold invariants.

Connected-sum points and ball removals are not modelled; only their
cohomological and fixed-set consequences are.

Public functions validate their scenario first. The underscore-prefixed
cores behind them assume a validated scenario; the checkers and the CLI
use them so that one command validates once.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Optional, Union

from ._mat import identity, mat_neg
from .lattice import (
    IntegerLattice,
    direct_sum_all,
    is_even,
    make_standard,
    signature_profile,
)
from .isometry import LatticeIsometry

SCHEMA_VERSION = 1

Z2 = "Z2"
Z2XZ2 = "Z2xZ2"

S2XS2 = "s2xs2"
MINUS_E8 = "minus_e8"
K3 = "k3"
CUSTOM = "custom"
KINDS = (S2XS2, MINUS_E8, K3, CUSTOM)

# Local involutions on an S2 x S2 summand, named by what they rotate.
# rotate_first / rotate_second are half-turns of one sphere factor (fixed
# set: two 2-spheres); rotate_both turns both factors (fixed set: four
# isolated points). All four act trivially on second cohomology because
# each is connected to the identity through rotations.
IDENTITY_LABEL = "identity"
ROTATE_FIRST = "rotate_first"
ROTATE_SECOND = "rotate_second"
ROTATE_BOTH = "rotate_both"
LABELS = (IDENTITY_LABEL, ROTATE_FIRST, ROTATE_SECOND, ROTATE_BOTH)

_LABEL_BITS = {
    IDENTITY_LABEL: (0, 0),
    ROTATE_FIRST: (1, 0),
    ROTATE_SECOND: (0, 1),
    ROTATE_BOTH: (1, 1),
}
_BITS_LABEL = {v: k for k, v in _LABEL_BITS.items()}

GEN1 = "gen1"
GEN2 = "gen2"
COMPOSITION = "composition"
IDENTITY_ELEMENT = "identity"


class ScenarioFormatError(ValueError):
    """Scenario document does not parse; `field_name` points at the bad part."""

    def __init__(self, message: str, field_name: str):
        super().__init__(f"{field_name}: {message}")
        self.field_name = field_name


class InvalidScenarioError(ValueError):
    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__(
            "invalid scenario: " + "; ".join(v.message for v in self.violations)
        )


@dataclass(frozen=True)
class Violation:
    code: str
    message: str
    subject: Optional[str] = None


@dataclass(frozen=True)
class Summand:
    id: str
    kind: str
    custom_form: Optional[IntegerLattice] = None

    def form(self) -> IntegerLattice:
        if self.kind == CUSTOM:
            if self.custom_form is None:
                raise ScenarioFormatError("custom summand needs a gram matrix", self.id)
            return self.custom_form
        return make_standard(self.kind)

    def kind_key(self):
        return (self.kind, self.custom_form.gram if self.custom_form else None)


@dataclass(frozen=True)
class GeneratorAction:
    """Involutive permutation of summand ids plus local labels on fixed ones."""

    permutation: tuple[tuple[str, str], ...] = ()
    local: dict[str, str] = field(default_factory=dict)
    overrides: dict[str, tuple[int, int]] = field(default_factory=dict)

    def __post_init__(self):
        # canonical pair order so serialization round-trips exactly
        pairs = tuple(sorted(tuple(sorted(p)) for p in self.permutation))
        object.__setattr__(self, "permutation", pairs)

    def perm_map(self, ids) -> dict[str, str]:
        mapping = {i: i for i in ids}
        for a, b in self.permutation:
            mapping[a] = b
            mapping[b] = a
        return mapping


@dataclass(frozen=True)
class ActionScenario:
    group: str
    summands: tuple[Summand, ...]
    gen1: GeneratorAction
    gen2: Optional[GeneratorAction] = None


@dataclass(frozen=True)
class FixedSetData:
    """Aggregated fixed-set contributions of one group element.

    components holds (dimension, count) pairs, dimensions 0 and 2 only;
    counts are raw per-summand contributions (fixed-point connected sums
    may merge 2-dimensional components, never isolated points). n_plus
    and n_minus are present exactly when every component is isolated.
    """

    element: str
    components: tuple[tuple[int, int], ...]
    n_plus: Optional[int] = None
    n_minus: Optional[int] = None


@dataclass(frozen=True)
class TotalInvariants:
    b2: int
    signature: int
    even: bool


def compose_labels(a: str, b: str) -> str:
    x1, y1 = _LABEL_BITS[a]
    x2, y2 = _LABEL_BITS[b]
    return _BITS_LABEL[((x1 + x2) % 2, (y1 + y2) % 2)]


def elements_of(group: str) -> tuple[str, ...]:
    if group == Z2:
        return (GEN1,)
    return (GEN1, GEN2, COMPOSITION)


def _ids(s: ActionScenario) -> list[str]:
    return [sm.id for sm in s.summands]


def element_action(
    s: ActionScenario, element: str
) -> tuple[dict[str, str], dict[str, str]]:
    """Effective (permutation map, local labels on fixed summands) of an element.

    For the composition of a Klein four-group scenario the permutation is
    the product of the generator permutations and labels on jointly fixed
    summands compose through the label group. (Validation rejects a
    summand that both generators swap along the same pair, so the
    composition fixes exactly the jointly fixed summands.)
    """
    ids = _ids(s)
    if element == IDENTITY_ELEMENT:
        return {i: i for i in ids}, {}
    if element == GEN1:
        return s.gen1.perm_map(ids), dict(s.gen1.local)
    if element == GEN2:
        if s.gen2 is None:
            raise ValueError("scenario has no second generator")
        return s.gen2.perm_map(ids), dict(s.gen2.local)
    if element == COMPOSITION:
        if s.gen2 is None:
            raise ValueError("scenario has no second generator")
        p1 = s.gen1.perm_map(ids)
        p2 = s.gen2.perm_map(ids)
        comp = {i: p1[p2[i]] for i in ids}
        local = {
            i: compose_labels(
                s.gen1.local.get(i, IDENTITY_LABEL),
                s.gen2.local.get(i, IDENTITY_LABEL),
            )
            for i in ids
            if p1[i] == i and p2[i] == i
        }
        return comp, local
    raise ValueError(f"unknown group element {element!r}")


def _merged_overrides(s: ActionScenario) -> dict[str, tuple[int, int]]:
    merged = dict(s.gen1.overrides)
    if s.gen2 is not None:
        merged.update(s.gen2.overrides)
    return merged


def validate_scenario(s: ActionScenario) -> list[Violation]:
    """Check scenario invariants; an empty list means the scenario is valid."""
    v: list[Violation] = []
    ids = _ids(s)
    by_id = {}
    for sm in s.summands:
        if sm.id in by_id:
            v.append(Violation("duplicate_id", f"duplicate summand id {sm.id!r}", sm.id))
        by_id[sm.id] = sm
        if sm.kind not in KINDS:
            v.append(Violation("unknown_kind", f"unknown kind {sm.kind!r}", sm.id))
        if sm.kind == CUSTOM and sm.custom_form is None:
            v.append(
                Violation("missing_gram", f"custom summand {sm.id!r} has no form", sm.id)
            )
    if v:
        return v

    if s.group not in (Z2, Z2XZ2):
        return [Violation("unknown_group", f"unknown group {s.group!r}")]
    if s.group == Z2 and s.gen2 is not None:
        v.append(Violation("unexpected_gen2", "Z2 scenario must not have generator2"))
    if s.group == Z2XZ2 and s.gen2 is None:
        v.append(Violation("missing_gen2", "Z2xZ2 scenario needs generator2"))
    if v:
        return v

    gens = [(GEN1, s.gen1)] + ([(GEN2, s.gen2)] if s.gen2 is not None else [])
    for name, gen in gens:
        seen: set[str] = set()
        for pair in gen.permutation:
            if len(pair) != 2 or pair[0] == pair[1]:
                v.append(
                    Violation(
                        "bad_pair", f"{name}: permutation pair {pair!r} is degenerate"
                    )
                )
                continue
            for x in pair:
                if x not in by_id:
                    v.append(
                        Violation("unknown_id", f"{name}: unknown summand id {x!r}", x)
                    )
                elif x in seen:
                    v.append(
                        Violation(
                            "overlapping_pairs",
                            f"{name}: summand {x!r} appears in two pairs",
                            x,
                        )
                    )
                seen.add(x)
            if (
                pair[0] in by_id
                and pair[1] in by_id
                and by_id[pair[0]].kind_key() != by_id[pair[1]].kind_key()
            ):
                v.append(
                    Violation(
                        "kind_mismatch",
                        f"{name}: swapped summands {pair[0]!r}, {pair[1]!r} differ in kind",
                    )
                )
        pmap = gen.perm_map(ids)
        for i, label in gen.local.items():
            if i not in by_id:
                v.append(Violation("unknown_id", f"{name}: label on unknown id {i!r}", i))
            elif label not in LABELS:
                v.append(
                    Violation("unknown_label", f"{name}: unknown label {label!r}", i)
                )
            elif pmap[i] != i:
                v.append(
                    Violation(
                        "label_on_moved",
                        f"{name}: label on summand {i!r} that the permutation moves",
                        i,
                    )
                )
            elif by_id[i].kind != S2XS2:
                v.append(
                    Violation(
                        "label_on_non_sphere",
                        f"{name}: local involution labels attach only to s2xs2 "
                        f"summands, not {by_id[i].kind}",
                        i,
                    )
                )
            elif label == IDENTITY_LABEL:
                v.append(
                    Violation(
                        "trivial_generator_label",
                        f"{name}: identity label on {i!r} would fix a 4-dimensional "
                        f"piece, which the fixed-set model cannot represent",
                        i,
                    )
                )
        for i in ids:
            if pmap[i] == i and by_id[i].kind == S2XS2 and i not in gen.local:
                v.append(
                    Violation(
                        "missing_label",
                        f"{name}: fixed s2xs2 summand {i!r} has no local label",
                        i,
                    )
                )
    if v:
        return v

    if s.group == Z2XZ2:
        p1 = s.gen1.perm_map(ids)
        p2 = s.gen2.perm_map(ids)
        if any(p1[p2[i]] != p2[p1[i]] for i in ids):
            v.append(
                Violation("noncommuting", "generator permutations do not commute")
            )
        else:
            for i in ids:
                if p1[i] == i and p2[i] == i and i in s.gen1.local:
                    if s.gen1.local[i] == s.gen2.local.get(i):
                        v.append(
                            Violation(
                                "identical_local_actions",
                                f"generators act identically on jointly fixed "
                                f"summand {i!r}; their composition would fix it "
                                f"pointwise",
                                i,
                            )
                        )
                if p1[i] == p2[i] and p1[i] != i:
                    v.append(
                        Violation(
                            "identical_swap",
                            f"generators swap {i!r} along the same pair; their "
                            f"composition would fix it pointwise",
                            i,
                        )
                    )
    if v:
        return v

    # every non-spherical summand must sit in a free orbit of every
    # non-identity element (no local involution data exists for them)
    for element in elements_of(s.group):
        pmap, _ = element_action(s, element)
        for i in ids:
            if pmap[i] == i and by_id[i].kind != S2XS2:
                v.append(
                    Violation(
                        "fixed_non_sphere",
                        f"{by_id[i].kind} summand {i!r} is fixed by {element}; "
                        f"these pieces must lie in free orbits",
                        i,
                    )
                )

    merged = _merged_overrides(s)
    if s.gen2 is not None:
        for i in set(s.gen1.overrides) & set(s.gen2.overrides):
            if s.gen1.overrides[i] != s.gen2.overrides[i]:
                v.append(
                    Violation(
                        "conflicting_override",
                        f"generators give conflicting sign overrides for {i!r}",
                        i,
                    )
                )
    for i, (np_, nm) in merged.items():
        if i not in by_id:
            v.append(Violation("unknown_id", f"override on unknown id {i!r}", i))
            continue
        if np_ < 0 or nm < 0 or np_ + nm != 4:
            v.append(
                Violation(
                    "bad_override",
                    f"override for {i!r} must split the 4 isolated points, got "
                    f"({np_}, {nm})",
                    i,
                )
            )
        targeted = any(
            element_action(s, e)[1].get(i) == ROTATE_BOTH for e in elements_of(s.group)
        )
        if not targeted:
            v.append(
                Violation(
                    "stale_override",
                    f"override for {i!r} but no element has isolated fixed points "
                    f"there",
                    i,
                )
            )
    return v


def require_valid(s: ActionScenario) -> None:
    violations = validate_scenario(s)
    if violations:
        raise InvalidScenarioError(violations)


def scenario_lattice(s: ActionScenario) -> IntegerLattice:
    return direct_sum_all(sm.form() for sm in s.summands)


def induced_cohomology_action(s: ActionScenario, element: str) -> LatticeIsometry:
    """Sign-twisted operator (minus the pullback) of a group element on H2.

    Every local label acts trivially on the cohomology of its summand, so
    the pullback is the block permutation matrix; the attached operator is
    its negation. The identity element gets the identity operator, since
    invariance computations only quantify over non-identity elements.
    """
    require_valid(s)
    total = scenario_lattice(s)
    n = total.rank
    if element == IDENTITY_ELEMENT:
        return LatticeIsometry(total, identity(n))
    pmap, _ = element_action(s, element)
    offsets = {}
    pos = 0
    for sm in s.summands:
        offsets[sm.id] = pos
        pos += sm.form().rank
    rows = [[0] * n for _ in range(n)]
    for sm in s.summands:
        src = offsets[sm.id]
        dst = offsets[pmap[sm.id]]
        for t in range(sm.form().rank):
            rows[dst + t][src + t] = 1
    return LatticeIsometry(total, mat_neg(rows))


def fixed_set_data(s: ActionScenario, element: str) -> FixedSetData:
    """Fixed-set contributions of a non-identity element, per local label.

    rotate_first / rotate_second contribute two 2-dimensional components
    each; rotate_both contributes four isolated points split evenly into
    positive and negative unless the scenario overrides the split.
    """
    require_valid(s)
    return _fixed_set_data(s, element)


def _fixed_set_data(s: ActionScenario, element: str) -> FixedSetData:
    if element == IDENTITY_ELEMENT:
        raise ValueError("the identity element fixes everything")
    _, local = element_action(s, element)
    overrides = _merged_overrides(s)
    two_dim = 0
    points = 0
    n_plus = n_minus = 0
    for i, label in sorted(local.items()):
        if label in (ROTATE_FIRST, ROTATE_SECOND):
            two_dim += 2
        elif label == ROTATE_BOTH:
            points += 4
            np_, nm = overrides.get(i, (2, 2))
            n_plus += np_
            n_minus += nm
    components = []
    if points:
        components.append((0, points))
    if two_dim:
        components.append((2, two_dim))
    if points and not two_dim:
        return FixedSetData(element, tuple(components), n_plus, n_minus)
    return FixedSetData(element, tuple(components))


def total_invariants(s: ActionScenario) -> TotalInvariants:
    """Rank, signature and evenness of the connected sum.

    All three add over the orthogonal summands, so each distinct summand
    form is diagonalised once and the assembled lattice is never built.
    """
    require_valid(s)
    return _total_invariants(s, _summand_profiles(s))


def _total_invariants(s: ActionScenario, profiles: dict) -> TotalInvariants:
    keys = [sm.kind_key() for sm in s.summands]
    return TotalInvariants(
        sum(profiles[key][1].rank for key in keys),
        sum(profiles[key][1].signature for key in keys),
        all(is_even(form) for form, _ in profiles.values()),
    )


def _summand_profiles(s: ActionScenario) -> dict:
    """kind_key -> (form, signature profile), one entry per distinct form."""
    profiles = {}
    for sm in s.summands:
        key = sm.kind_key()
        if key not in profiles:
            form = sm.form()
            profiles[key] = (form, signature_profile(form))
    return profiles


def twisted_b_plus(s: ActionScenario, elements) -> int:
    """Positive index of the form on the joint fixed sublattice of the
    sign-twisted operators of the non-identity `elements`, read from the
    summand orbits of the subgroup H they generate.

    Each twisted operator is minus a block permutation, so a jointly fixed
    vector transforms under H by a sign character that is -1 on every given
    element. None exists for all three non-identity elements of Z2 x Z2,
    whose product is the identity, and then the sublattice is zero.
    Otherwise the elements of sign -1 are exactly the given ones, and an
    orbit of H carries one copy of its summand form (scaled by the orbit
    size) when none of them fixes its summands, and nothing otherwise.
    Equals b_plus_invariant of the induced_cohomology_action operators,
    without building them.
    """
    require_valid(s)
    return _twisted_b_plus(s, elements, _summand_profiles(s))


def _twisted_b_plus(s: ActionScenario, elements, profiles: dict) -> int:
    elements = set(elements)
    if not elements or IDENTITY_ELEMENT in elements:
        raise ValueError("need one or more non-identity group elements")
    perms = [element_action(s, e)[0] for e in elements]
    if len(perms) == 3:
        return 0
    seen: set[str] = set()
    b = 0
    for sm in s.summands:
        if sm.id in seen:
            continue
        orbit = {sm.id}
        for p in perms:
            orbit |= {p[i] for i in orbit}
        seen |= orbit
        if all(p[sm.id] != sm.id for p in perms):
            b += profiles[sm.kind_key()][1].b_plus
    return b


def _invariants_of(x: Union[ActionScenario, IntegerLattice]) -> TotalInvariants:
    if isinstance(x, IntegerLattice):
        p = signature_profile(x)
        return TotalInvariants(x.rank, p.signature, is_even(x))
    return total_invariants(x)


def homeo_invariants_equal(
    a: Union[ActionScenario, IntegerLattice], b: Union[ActionScenario, IntegerLattice]
) -> bool:
    """Compare (b2, signature, evenness): the classifying data for simply
    connected spin sums."""
    return _invariants_of(a) == _invariants_of(b)


# ---------------------------------------------------------------------------
# scenario document format (JSON with a schema version field)
# ---------------------------------------------------------------------------


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _parse_generator(doc, field_name: str) -> GeneratorAction:
    if not isinstance(doc, dict):
        raise ScenarioFormatError("generator must be an object", field_name)
    pairs = doc.get("permutation", [])
    if not isinstance(pairs, list):
        raise ScenarioFormatError("permutation must be a list of id pairs", field_name)
    perm = []
    for pair in pairs:
        if not (
            isinstance(pair, list)
            and len(pair) == 2
            and all(isinstance(x, str) for x in pair)
        ):
            raise ScenarioFormatError(
                f"permutation entry {pair!r} is not an id pair", field_name
            )
        perm.append(tuple(pair))
    local_doc = doc.get("local", {})
    if not isinstance(local_doc, dict):
        raise ScenarioFormatError("local must map ids to labels", field_name)
    for k, lbl in local_doc.items():
        if not isinstance(lbl, str):
            raise ScenarioFormatError(f"label for {k!r} must be a string", field_name)
    overrides_doc = doc.get("overrides", {})
    if not isinstance(overrides_doc, dict):
        raise ScenarioFormatError("overrides must map ids to sign counts", field_name)
    overrides = {}
    for k, ov in overrides_doc.items():
        if not (
            isinstance(ov, dict)
            and _is_int(ov.get("n_plus"))
            and _is_int(ov.get("n_minus"))
        ):
            raise ScenarioFormatError(
                f"override for {k!r} needs integer n_plus and n_minus", field_name
            )
        overrides[k] = (ov["n_plus"], ov["n_minus"])
    return GeneratorAction(tuple(perm), dict(local_doc), overrides)


def parse_scenario(text: str) -> ActionScenario:
    """Parse the JSON scenario document; raises ScenarioFormatError on bad shape."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(f"not valid JSON ({exc.msg})", "document") from exc
    except RecursionError as exc:
        raise ScenarioFormatError("JSON nested too deeply", "document") from exc
    if not isinstance(doc, dict):
        raise ScenarioFormatError("document must be an object", "document")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ScenarioFormatError(
            f"unsupported schema_version {version!r}", "schema_version"
        )
    group = doc.get("group")
    if group not in (Z2, Z2XZ2):
        raise ScenarioFormatError(f"group must be Z2 or Z2xZ2, got {group!r}", "group")
    summands_doc = doc.get("summands")
    if not isinstance(summands_doc, list):
        raise ScenarioFormatError("summands must be a list", "summands")
    summands = []
    for entry in summands_doc:
        if not (
            isinstance(entry, dict)
            and isinstance(entry.get("id"), str)
            and "kind" in entry
        ):
            raise ScenarioFormatError(
                f"summand entry {entry!r} needs a string id and a kind", "summands"
            )
        kind = entry["kind"]
        if kind not in KINDS:
            raise ScenarioFormatError(f"unknown summand kind {kind!r}", "summands")
        custom = None
        if kind == CUSTOM:
            gram = entry.get("gram")
            if not (
                isinstance(gram, list)
                and all(isinstance(row, list) for row in gram)
                and all(_is_int(x) for row in gram for x in row)
            ):
                raise ScenarioFormatError(
                    f"custom summand {entry['id']!r} needs a gram matrix of integers",
                    "summands",
                )
            custom = IntegerLattice(tuple(tuple(row) for row in gram))
        summands.append(Summand(entry["id"], kind, custom))
    if "generator1" not in doc:
        raise ScenarioFormatError("missing generator1", "generator1")
    gen1 = _parse_generator(doc["generator1"], "generator1")
    gen2 = None
    if group == Z2XZ2:
        if "generator2" not in doc:
            raise ScenarioFormatError("missing generator2", "generator2")
        gen2 = _parse_generator(doc["generator2"], "generator2")
    elif "generator2" in doc:
        raise ScenarioFormatError("Z2 scenario must not have generator2", "generator2")
    return ActionScenario(group, tuple(summands), gen1, gen2)


def _generator_doc(gen: GeneratorAction) -> dict:
    doc: dict = {
        "permutation": sorted([sorted(pair) for pair in gen.permutation]),
        "local": {k: gen.local[k] for k in sorted(gen.local)},
    }
    if gen.overrides:
        doc["overrides"] = {
            k: {"n_plus": gen.overrides[k][0], "n_minus": gen.overrides[k][1]}
            for k in sorted(gen.overrides)
        }
    return doc


def serialize_scenario(s: ActionScenario) -> str:
    """Canonical JSON text; parse(serialize(s)) equals s up to pair ordering."""
    doc: dict = {
        "schema_version": SCHEMA_VERSION,
        "group": s.group,
        "summands": [
            {"id": sm.id, "kind": sm.kind}
            | ({"gram": [list(r) for r in sm.custom_form.gram]} if sm.custom_form else {})
            for sm in s.summands
        ],
        "generator1": _generator_doc(s.gen1),
    }
    if s.gen2 is not None:
        doc["generator2"] = _generator_doc(s.gen2)
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def scenario_digest(s: ActionScenario) -> str:
    return hashlib.sha256(serialize_scenario(s).encode("utf-8")).hexdigest()
