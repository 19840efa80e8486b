"""Declarative equivariant connected sums and their induced cohomology data.

A scenario lists summands (with their intersection forms) and one or two
commuting generator actions, each an involutive permutation of summands
plus local involution labels on the summands it fixes. From this the
module derives, per group element, the sign-twisted cohomology operator
(minus the pullback), the fixed-set data, and total manifold invariants.

Connected-sum points and ball removals are not modelled; only their
cohomological and fixed-set consequences are.

require_valid validates a scenario once and returns a ValidScenario,
whose methods read each derived fact (totals, an element's fixed set and
parity, the twisted b_plus) from the multiset of orbit types that one
pass found. The checkers and the CLI call it once per scenario.
"""

from __future__ import annotations

import hashlib
import json
import sys
from itertools import accumulate, chain
from json.encoder import encode_basestring_ascii as _enc
from typing import Optional

from ._mat import identity, mat_neg
from ._record import frozen, set_field
from .lattice import (
    IntegerLattice,
    MalformedLatticeError,
    direct_sum_all,
    is_even,
    make_standard,
    signature_profile,
    standard_facts,
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

# the parities of an involution, read from its fixed set (FixedSetData)
ODD = "odd"
EVEN = "even"

GEN1 = "gen1"
GEN2 = "gen2"
COMPOSITION = "composition"
IDENTITY_ELEMENT = "identity"

# an element's place in group order, and so in the labels of an orbit type
_SLOT = {GEN1: 0, GEN2: 1, COMPOSITION: 2}
# what an orbit type holds for an element that moves its ids; a string, so
# the labels of two types compare
MOVED = "moved"


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


@frozen
class Violation:
    def __init__(self, code: str, message: str, subject: Optional[str] = None):
        set_field(self, "code", code)
        set_field(self, "message", message)
        set_field(self, "subject", subject)


@frozen
class Summand:
    def __init__(
        self, id: str, kind: str, custom_form: Optional[IntegerLattice] = None
    ):
        set_field(self, "id", id)
        set_field(self, "kind", kind)
        set_field(self, "custom_form", custom_form)

    def form(self) -> IntegerLattice:
        if self.kind == CUSTOM:
            if self.custom_form is None:
                raise ScenarioFormatError("custom summand needs a gram matrix", self.id)
            return self.custom_form
        return make_standard(self.kind)


@frozen
class GeneratorAction:
    """Involutive permutation of summand ids plus local labels on fixed ones."""

    def __init__(
        self,
        permutation: tuple[tuple[str, str], ...] = (),
        local: Optional[dict[str, str]] = None,
        overrides: Optional[dict[str, tuple[int, int]]] = None,
    ):
        # canonical pair order so serialization round-trips exactly; a
        # pair already given as an ordered tuple of two ids is kept as is
        pairs = [
            p
            if type(p) is tuple and len(p) == 2 and p[0] <= p[1]
            else tuple(sorted(p))
            for p in permutation
        ]
        pairs.sort()
        set_field(self, "permutation", tuple(pairs))
        set_field(self, "local", {} if local is None else local)
        set_field(self, "overrides", {} if overrides is None else overrides)


@frozen
class ActionScenario:
    def __init__(
        self,
        group: str,
        summands: tuple[Summand, ...],
        gen1: GeneratorAction,
        gen2: Optional[GeneratorAction] = None,
    ):
        set_field(self, "group", group)
        set_field(self, "summands", summands)
        set_field(self, "gen1", gen1)
        set_field(self, "gen2", gen2)


@frozen
class FixedSetData:
    """Aggregated fixed-set contributions of one group element.

    components holds (dimension, count) pairs, dimensions 0 and 2 only,
    each count positive. The counts are summed over the pieces the element
    fixes; they are not the fixed set of the connected sum, whose necks at
    fixed points merge fixed spheres or remove isolated points (ROADMAP
    item 15(a)). parity is ODD when a 2-dimensional component is present,
    EVEN when only isolated points are, and None for an empty fixed set,
    whose parity the dimensions cannot decide. n_plus and n_minus are
    present exactly when every component is isolated.
    """

    def __init__(
        self,
        element: str,
        components: tuple[tuple[int, int], ...],
        parity: Optional[str],
        n_plus: Optional[int] = None,
        n_minus: Optional[int] = None,
    ):
        set_field(self, "element", element)
        set_field(self, "components", components)
        set_field(self, "parity", parity)
        set_field(self, "n_plus", n_plus)
        set_field(self, "n_minus", n_minus)


@frozen
class TotalInvariants:
    def __init__(self, b2: int, signature: int, even: bool):
        set_field(self, "b2", b2)
        set_field(self, "signature", signature)
        set_field(self, "even", even)


def compose_labels(a: str, b: str) -> str:
    x1, y1 = _LABEL_BITS[a]
    x2, y2 = _LABEL_BITS[b]
    return _BITS_LABEL[((x1 + x2) % 2, (y1 + y2) % 2)]


def _type_key(item):
    """The total order of (orbit type, count) pairs: labels, then a standard
    form by kind before a custom one by gram, then the split, none first.
    It never compares None with a tuple, or one lattice with another."""
    labels, form, split = item[0]
    if isinstance(form, IntegerLattice):
        return labels, 1, form.gram, split or ()
    return labels, 0, form, split or ()


@frozen
class ValidScenario:
    """A scenario that passed validation, with what that one pass derived;
    only require_valid builds it. `table` maps each non-identity element,
    in group order, to its (images, local labels): `images` maps each id
    the element moves to its image, and an id it fixes is absent, so
    `images.get(i, i)` is the image of any id. `orbit_types` is the
    multiset of the ids' orbit types, (type, count) pairs in _type_key
    order, equal for scenarios that differ only in their ids and their
    order. The type of an id is (labels, form, split): its label under each
    non-identity element in group order, MOVED where the element moves it
    (its stabiliser is the identity and the elements that label it); the
    kind of a standard summand or the lattice of a custom one; and its
    merged sign override (n_plus, n_minus), or None. `forms` maps each
    distinct form to (signature profile, evenness)."""

    def __init__(self, scenario, table, orbit_types, forms):
        set_field(self, "scenario", scenario)
        set_field(self, "table", table)
        set_field(self, "orbit_types", orbit_types)
        set_field(self, "forms", forms)

    def action(self, element: str) -> tuple[dict[str, str], dict[str, str]]:
        """The table entry of a non-identity element of the scenario's group."""
        try:
            return self.table[element]
        except KeyError:
            raise ValueError(
                f"{element!r} is not a non-identity element of this "
                f"{self.scenario.group} scenario"
            ) from None

    def totals(self) -> TotalInvariants:
        """Rank, signature and evenness of the connected sum, which add over
        its orthogonal summands."""
        b2 = signature = 0
        even = True
        for (_, form, _), n in self.orbit_types:
            p, form_even = self.forms[form]
            b2 += n * p.rank
            signature += n * p.signature
            even = even and form_even
        return TotalInvariants(b2, signature, even)

    def fixed_set(self, element: str) -> FixedSetData:
        """Fixed-set contributions and parity of a non-identity element,
        per local label.

        rotate_first / rotate_second contribute two 2-dimensional components
        each; rotate_both contributes four isolated points split evenly into
        positive and negative unless the id's orbit type carries a split.
        """
        self.action(element)  # raises ValueError for an element outside the table
        slot = _SLOT[element]
        two_dim = points = n_plus = n_minus = 0
        for (labels, _, split), n in self.orbit_types:
            label = labels[slot]
            if label == ROTATE_BOTH:
                points += 4 * n
                np_, nm = split or (2, 2)
                n_plus += n * np_
                n_minus += n * nm
            elif label != MOVED:
                two_dim += 2 * n
        if points:
            components = ((0, points), (2, two_dim)) if two_dim else ((0, points),)
        else:
            components = ((2, two_dim),) if two_dim else ()
        parity = ODD if two_dim else EVEN if points else None
        if points and not two_dim:
            return FixedSetData(element, components, parity, n_plus, n_minus)
        return FixedSetData(element, components, parity)

    def b_plus(self, elements) -> int:
        """Positive index of the form on the joint fixed sublattice of the
        sign-twisted operators of the non-identity `elements`, read from the
        orbit types and the subgroup H they generate.

        Each twisted operator is minus a block permutation, so a jointly fixed
        vector transforms under H by a sign character that is -1 on every given
        element. None exists for all three non-identity elements of Z2 x Z2,
        whose product is the identity, and then the sublattice is zero.
        Otherwise the elements of sign -1 are exactly the given ones, and an
        orbit of H carries one copy of its summand form (scaled by the orbit
        size) when none of them fixes its summands, and nothing otherwise; so
        each id of a type that no given element labels adds b_plus of its form
        over the size of its orbit under H. Equals b_plus_invariant of the
        induced_cohomology_action operators, without building them.
        """
        elements = set(elements)
        if not elements:
            raise ValueError("need one or more non-identity group elements")
        for e in elements - self.table.keys():
            self.action(e)  # raises ValueError naming the element
        slots = [_SLOT[e] for e in elements]
        if len(slots) == 3:
            return 0  # no sign character is -1 on all three
        # one element or two, which generate the group
        j, k = slots[0], slots[-1]
        quarters = 0
        for (labels, form, _), n in self.orbit_types:
            if labels[j] == labels[k] == MOVED:
                # 4 over the id's orbit size under H, |H| over its stabiliser
                # in H: 2 over 1 for one element; for two, H is the group and
                # the stabiliser the identity and the elements labelling it
                weight = 2 if j == k else 4 - labels.count(MOVED)
                quarters += n * self.forms[form][0].b_plus * weight
        return quarters // 4


def validate_scenario(s: ActionScenario, parts=None) -> list[Violation]:
    """Check scenario invariants; an empty list means the scenario is valid.

    A stage with violations ends the pass. A `parts` dict passed in
    receives the other ValidScenario fields when the list is empty.
    """
    v: list[Violation] = []
    by_id = {}
    counts: dict = {}
    # the ids of the summands with no local involution data, in order
    others = []
    for sm in s.summands:
        if sm.id in by_id:
            v.append(Violation("duplicate_id", f"duplicate summand id {sm.id!r}", sm.id))
        by_id[sm.id] = sm
        kind = sm.kind
        if kind != S2XS2:
            others.append(sm.id)
        if kind == CUSTOM:
            if sm.custom_form is None:
                v.append(
                    Violation("missing_gram", f"custom summand {sm.id!r} has no form", sm.id)
                )
            kind = sm.custom_form
        elif kind not in KINDS:
            v.append(Violation("unknown_kind", f"unknown kind {kind!r}", sm.id))
            continue
        counts[kind] = counts.get(kind, 0) + 1
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

    table = {}
    spheres = counts.get(S2XS2, 0)
    gens = [(GEN1, s.gen1)] + ([(GEN2, s.gen2)] if s.gen2 is not None else [])
    for name, gen in gens:
        found = len(v)
        # only a well-formed pair moves ids: a degenerate one maps nothing
        images: dict[str, str] = {}
        sphere_pairs = 0
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
                elif x in images:
                    v.append(
                        Violation(
                            "overlapping_pairs",
                            f"{name}: summand {x!r} appears in two pairs",
                            x,
                        )
                    )
            x, y = pair
            images[x] = y
            images[y] = x
            a, b = by_id.get(x), by_id.get(y)
            if a is None or b is None:
                continue
            # lattices compare their grams; parse_scenario gives equal grams
            # one lattice, which compares by identity first
            if a.kind != b.kind or a.custom_form != b.custom_form:
                v.append(
                    Violation(
                        "kind_mismatch",
                        f"{name}: swapped summands {x!r}, {y!r} differ in kind",
                    )
                )
            if a.kind == S2XS2:
                sphere_pairs += 1
        local = gen.local
        table[name] = images, local
        for i, label in local.items():
            if i not in by_id:
                v.append(Violation("unknown_id", f"{name}: label on unknown id {i!r}", i))
            elif label not in LABELS:
                v.append(
                    Violation("unknown_label", f"{name}: unknown label {label!r}", i)
                )
            elif i in images:
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
        # without a violation so far, every label sits on a distinct fixed
        # sphere and the pairs move 2 * sphere_pairs spheres, so as many
        # labels as fixed spheres leave none without one
        if len(v) > found or len(local) != spheres - 2 * sphere_pairs:
            v += [
                Violation(
                    "missing_label",
                    f"{name}: fixed s2xs2 summand {i!r} has no local label",
                    i,
                )
                for i in by_id
                if i not in images and i not in local and by_id[i].kind == S2XS2
            ]
    if v:
        return v

    # the labels of each jointly fixed id
    joint = []
    if s.group == Z2XZ2:
        # one pass: commutation, the jointly fixed and the identically
        # swapped summands, and the composition's action and labels
        (m1, local1), (m2, local2) = table[GEN1], table[GEN2]
        comp, comp_local = {}, {}
        for i in by_id:
            a, b = m1.get(i, i), m2.get(i, i)
            if a != b:
                # the images differ, so the composition moves i
                c = comp[i] = m1.get(b, b)
                if c != m2.get(a, a):
                    return [
                        Violation(
                            "noncommuting", "generator permutations do not commute"
                        )
                    ]
                continue
            if a != i:
                v.append(
                    Violation(
                        "identical_swap",
                        f"generators swap {i!r} along the same pair; their "
                        f"composition would fix it pointwise",
                        i,
                    )
                )
                continue
            label1, label2 = local1.get(i, IDENTITY_LABEL), local2.get(i, IDENTITY_LABEL)
            if i in local1 and label1 == label2:
                v.append(
                    Violation(
                        "identical_local_actions",
                        f"generators act identically on jointly fixed "
                        f"summand {i!r}; their composition would fix it "
                        f"pointwise",
                        i,
                    )
                )
            label = comp_local[i] = compose_labels(label1, label2)
            joint.append((label1, label2, label))
        if v:
            return v
        table[COMPOSITION] = comp, comp_local

    # every non-spherical summand must sit in a free orbit of every
    # non-identity element (no local involution data exists for them)
    if others:
        for element, (images, _) in table.items():
            v += [
                Violation(
                    "fixed_non_sphere",
                    f"{by_id[i].kind} summand {i!r} is fixed by {element}; "
                    f"these pieces must lie in free orbits",
                    i,
                )
                for i in others
                if i not in images
            ]

    # labels sit on exactly the fixed spheres by now: the jointly fixed
    # ones, and per label those one generator alone fixes, which its labels
    # less theirs count; every element moves every other id
    types: dict = {}
    for labels in joint:
        key = labels, S2XS2, None
        types[key] = types.get(key, 0) + 1
    columns = tuple(zip(*joint)) or ((), ())
    moved = (MOVED,) * len(table)
    for slot, (_, gen) in enumerate(gens):
        gen_labels, column = list(gen.local.values()), columns[slot]
        for label in set(gen_labels):
            alone = moved[:slot] + (label,) + moved[slot + 1 :]
            types[alone, S2XS2, None] = gen_labels.count(label) - column.count(label)
    fixed = sum(types.values())
    for form, n in counts.items():
        types[moved, form, None] = n - fixed if form == S2XS2 else n

    # gen2's split wins; a different one from gen1 is reported in gen2's order
    merged = dict(s.gen1.overrides)
    if s.gen2 is not None:
        for i, split in s.gen2.overrides.items():
            if merged.get(i, split) != split:
                v.append(
                    Violation(
                        "conflicting_override",
                        f"generators give conflicting sign overrides for {i!r}",
                        i,
                    )
                )
            merged[i] = split
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
        labels = tuple(local.get(i, MOVED) for _, local in table.values())
        if ROTATE_BOTH not in labels:
            v.append(
                Violation(
                    "stale_override",
                    f"override for {i!r} but no element has isolated fixed points "
                    f"there",
                    i,
                )
            )
        # an overridden id, a fixed sphere, moves to its split's type
        key = labels, S2XS2, None
        types[key] = types.get(key, 0) - 1
        key = labels, S2XS2, (np_, nm)
        types[key] = types.get(key, 0) + 1
    if parts is not None and not v:
        orbit_types = tuple(sorted((t for t in types.items() if t[1]), key=_type_key))
        parts.update(table=table, orbit_types=orbit_types, forms=counts)
    return v


def require_valid(s: ActionScenario) -> ValidScenario:
    """Validate once; return the scenario with what validation derived. A
    custom form is diagonalised and its evenness read here, a standard
    one's once per process."""
    parts: dict = {}
    violations = validate_scenario(s, parts=parts)
    if violations:
        raise InvalidScenarioError(violations)
    parts["forms"] = {
        key: (signature_profile(key), is_even(key))
        if isinstance(key, IntegerLattice)
        else standard_facts(key)[1:]
        for key in parts["forms"]
    }
    return ValidScenario(s, **parts)


def scenario_lattice(s: ActionScenario) -> IntegerLattice:
    return direct_sum_all(sm.form() for sm in s.summands)


def induced_cohomology_action(s: ActionScenario, element: str) -> LatticeIsometry:
    """Sign-twisted operator (minus the pullback) of a group element on H2.

    Every local label acts trivially on the cohomology of its summand, so
    the pullback is the block permutation matrix; the attached operator is
    its negation. The identity element gets the identity operator, since
    invariance computations only quantify over non-identity elements.
    """
    v = require_valid(s)
    total = scenario_lattice(s)
    n = total.rank
    if element == IDENTITY_ELEMENT:
        return LatticeIsometry(total, identity(n))
    images, _ = v.action(element)
    ranks = [sm.form().rank for sm in s.summands]
    offsets = dict(zip((sm.id for sm in s.summands), accumulate(ranks, initial=0)))
    rows = [[0] * n for _ in range(n)]
    for sm, rank in zip(s.summands, ranks):
        src, dst = offsets[sm.id], offsets[images.get(sm.id, sm.id)]
        for t in range(rank):
            rows[dst + t][src + t] = 1
    return LatticeIsometry(total, mat_neg(rows))


# ---------------------------------------------------------------------------
# scenario document format (JSON with a schema version field)
# ---------------------------------------------------------------------------


_DOCUMENT_FIELDS = frozenset(
    ("schema_version", "group", "summands", "generator1", "generator2")
)
_GENERATOR_FIELDS = frozenset(("permutation", "local", "overrides"))


def _unknown_field(doc: dict, fields) -> str:
    """The error text naming the first key of `doc` outside `fields`."""
    return f"unknown field {next(key for key in doc if key not in fields)!r}"


def _parse_generator(doc, field_name: str) -> GeneratorAction:
    if not isinstance(doc, dict):
        raise ScenarioFormatError("generator must be an object", field_name)
    if not doc.keys() <= _GENERATOR_FIELDS:
        raise ScenarioFormatError(_unknown_field(doc, _GENERATOR_FIELDS), field_name)
    pairs = doc.get("permutation", [])
    if not isinstance(pairs, list):
        raise ScenarioFormatError("permutation must be a list of id pairs", field_name)
    perm = []
    for pair in pairs:
        if not (
            isinstance(pair, list)
            and len(pair) == 2
            and isinstance(pair[0], str)
            and isinstance(pair[1], str)
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
            and len(ov) == 2
            and type(ov.get("n_plus")) is int
            and type(ov.get("n_minus")) is int
        ):
            raise ScenarioFormatError(
                f"override for {k!r} needs integer n_plus and n_minus, nothing else",
                field_name,
            )
        overrides[k] = (ov["n_plus"], ov["n_minus"])
    return GeneratorAction(tuple(perm), dict(local_doc), overrides)


class _RepeatedKey(Exception):
    """A JSON object gives a key twice; `args[0]` is the key."""


def _object(pairs: list) -> dict:
    """A JSON object as a dict; a key given twice is a format error, since
    json.loads would keep its last value and drop the rest unseen."""
    doc = dict(pairs)
    if len(doc) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise _RepeatedKey(key)
            seen.add(key)
    return doc


def _repeat_path(node, path=()):
    """The path to the first object that repeats a key, in the order
    json.loads closes them (a child before its parent); objects are
    tuples of pairs and arrays are lists."""
    if type(node) is not tuple and type(node) is not list:
        return None
    for step, value in enumerate(node) if type(node) is list else node:
        found = _repeat_path(value, path + (step,))
        if found is not None:
            return found
    if type(node) is tuple and len(dict(node)) != len(node):
        return path
    return None


def _repeated_key_error(text: str, key: str) -> ScenarioFormatError:
    """The format error for a key given twice, naming the object that holds
    it. The object is found by a second parse that keeps every object as
    its pairs and every integer as its text, made only once the first
    parse has failed; when the text after the repeat is not JSON, the
    error names the document alone."""
    try:
        doc = json.loads(text, object_pairs_hook=tuple, parse_int=str)
        path = _repeat_path(doc) or ()
    except (ValueError, RecursionError):
        path = ()
    field, where = "document", path
    if path and path[0] in ("summands", "generator1", "generator2"):
        field, where = path[0], path[1:]
    generator = field != "summands" and field != "document"
    if not where:
        place = ""
    elif field == "summands" and len(where) == 1 and type(where[0]) is int:
        place = f" in summand {where[0]}"
    elif generator and where in (("local",), ("overrides",)):
        place = f" in {where[0]}"
    elif generator and len(where) == 2 and where[0] == "overrides":
        place = f" in the override for {where[1]!r}"
    else:
        place = " at " + "".join(f"[{step!r}]" for step in path)
    return ScenarioFormatError(f"repeated key {key!r}{place}", field)


def parse_scenario(text: str) -> ActionScenario:
    """Parse the JSON scenario document; raises ScenarioFormatError on bad shape."""
    try:
        doc = json.loads(text, object_pairs_hook=_object)
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(f"not valid JSON ({exc.msg})", "document") from exc
    except RecursionError as exc:
        raise ScenarioFormatError("JSON nested too deeply", "document") from exc
    except _RepeatedKey as exc:
        raise _repeated_key_error(text, exc.args[0]) from None
    except ValueError as exc:
        # the interpreter's cap on the digits of an integer literal
        raise ScenarioFormatError(
            f"an integer has more than {sys.get_int_max_str_digits()} digits",
            "document",
        ) from exc
    if not isinstance(doc, dict):
        raise ScenarioFormatError("document must be an object", "document")
    version = doc.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ScenarioFormatError(
            f"unsupported schema_version {version!r}", "schema_version"
        )
    if not doc.keys() <= _DOCUMENT_FIELDS:
        raise ScenarioFormatError(_unknown_field(doc, _DOCUMENT_FIELDS), "document")
    group = doc.get("group")
    if group not in (Z2, Z2XZ2):
        raise ScenarioFormatError(f"group must be Z2 or Z2xZ2, got {group!r}", "group")
    summands_doc = doc.get("summands")
    if not isinstance(summands_doc, list):
        raise ScenarioFormatError("summands must be a list", "summands")
    summands = []
    # equal grams share one lattice, checked for symmetry and frozen once
    lattices: dict = {}
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
            # exact types, so bool and float entries are rejected; each copy
            # is checked before the lookup, since 1.0 and True equal 1
            if not (
                type(gram) is list
                and {list}.issuperset(map(type, gram))
                and {int}.issuperset(map(type, chain.from_iterable(gram)))
            ):
                raise ScenarioFormatError(
                    f"custom summand {entry['id']!r} needs a gram matrix of integers",
                    "summands",
                )
            key = tuple(map(tuple, gram))
            custom = lattices.get(key)
            if custom is None:
                try:
                    custom = lattices[key] = IntegerLattice(key)
                except MalformedLatticeError as exc:
                    raise ScenarioFormatError(
                        f"custom summand {entry['id']!r}: {exc}", "summands"
                    ) from exc
        # id and kind are present, and gram is on a custom summand
        if len(entry) != 2 + (custom is not None):
            known = ("id", "kind", "gram") if custom is not None else ("id", "kind")
            raise ScenarioFormatError(
                f"summand {entry['id']!r} has {_unknown_field(entry, known)}", "summands"
            )
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


# The canonical text is json.dumps(doc, sort_keys=True, indent=2) + "\n" of
# the document parse_scenario reads. The writer below produces it straight
# from the records, in the schema's fixed sorted-key order: top level
# generator1, generator2, group, schema_version, summands; a summand gram,
# id, kind; a generator local, overrides (present when nonempty),
# permutation; an override n_minus, n_plus. Each separator is a comma, a
# newline and the indent of the level it separates.
_SEP4 = ",\n    "
_SEP6 = ",\n      "
_SEP8 = ",\n        "
_SEP10 = ",\n          "


def _gram_text(gram) -> str:
    if not gram:
        return "[]"
    rows = _SEP8.join(
        f"[\n          {_SEP10.join(map(int.__repr__, row))}\n        ]" for row in gram
    )
    return f"[\n        {rows}\n      ]"


def _generator_text(gen: GeneratorAction) -> str:
    local = _SEP6.join(f"{_enc(k)}: {_enc(v)}" for k, v in sorted(gen.local.items()))
    local = f"{{\n      {local}\n    }}" if local else "{}"
    overrides = _SEP6.join(
        f'{_enc(k)}: {{\n        "n_minus": {nm!r},\n        "n_plus": {np_!r}\n      }}'
        for k, (np_, nm) in sorted(gen.overrides.items())
    )
    if overrides:
        overrides = f'    "overrides": {{\n      {overrides}\n    }},\n'
    pairs = _SEP6.join(
        f"[\n        {_enc(a)},\n        {_enc(b)}\n      ]" for a, b in gen.permutation
    )
    pairs = f"[\n      {pairs}\n    ]" if pairs else "[]"
    return f'{{\n    "local": {local},\n{overrides}    "permutation": {pairs}\n  }}'


def serialize_scenario(s: ActionScenario) -> str:
    """Canonical JSON text; parse(serialize(s)) equals s up to pair ordering.

    Each gram object is rendered once per call, keyed by identity (hashing
    a gram costs a third of rendering it); parse_scenario gives equal grams
    one object."""
    grams: dict = {}
    summands = []
    for sm in s.summands:
        if sm.custom_form is None:
            summands.append(
                f'{{\n      "id": {_enc(sm.id)},\n      "kind": {_enc(sm.kind)}\n    }}'
            )
            continue
        gram = sm.custom_form.gram
        text = grams.get(id(gram))
        if text is None:
            text = grams[id(gram)] = _gram_text(gram)
        summands.append(
            f'{{\n      "gram": {text},\n      "id": {_enc(sm.id)},'
            f'\n      "kind": {_enc(sm.kind)}\n    }}'
        )
    summands = f"[\n    {_SEP4.join(summands)}\n  ]" if summands else "[]"
    gen2 = ""
    if s.gen2 is not None:
        gen2 = f'  "generator2": {_generator_text(s.gen2)},\n'
    return (
        f'{{\n  "generator1": {_generator_text(s.gen1)},\n{gen2}'
        f'  "group": {_enc(s.group)},\n  "schema_version": {SCHEMA_VERSION},\n'
        f'  "summands": {summands}\n}}\n'
    )


def scenario_digest(s: ActionScenario) -> str:
    return hashlib.sha256(serialize_scenario(s).encode("utf-8")).hexdigest()
