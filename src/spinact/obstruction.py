"""Nonsmoothability checkers producing structured obstruction certificates.

A certificate compares the positive index b of the restricted form on the
fixed sublattice against the index-theoretic lower bound k; b < k under
the stated hypotheses contradicts the existence of any smooth structure
making the action smooth. Every number in it is read from the group's
orbits on the summands, after a single validation of the scenario.
Hypothesis failures are reported as data, not exceptions, so a user
exploring scenarios can see which hypothesis broke.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .equivariant_sum import (
    GEN1,
    GEN2,
    ActionScenario,
    FixedSetData,
    Z2,
    Z2XZ2,
    _fixed_set_data,
    _summand_profiles,
    _total_invariants,
    _twisted_b_plus,
    elements_of,
    require_valid,
)
from .index_parity import (
    EVEN,
    ODD,
    IndeterminateParityError,
    IndexData,
    ParityClass,
    classify_parity,
    k_klein,
    k_odd,
    lefschetz_index,
    real_index_from_signature,
)
from .templates import recognize_klein_template

Z2_THEOREM = "z2_odd_involution"
KLEIN_THEOREM = "z2xz2_odd_pair"

NONSMOOTHABLE = "nonsmoothable"
NO_OBSTRUCTION = "no_obstruction"

SMOOTHABLE_BY_CONSTRUCTION = "smoothable_by_construction"
UNKNOWN = "unknown"
SUBGROUPS = (GEN1, GEN2, "diagonal")


@dataclass(frozen=True)
class Hypothesis:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ElementReport:
    element: str
    fixed_set: FixedSetData
    parity: Optional[ParityClass]


@dataclass(frozen=True)
class ObstructionReport:
    theorem: str
    hypotheses: tuple[Hypothesis, ...]
    b: int
    k: Fraction
    trace_value: Optional[Fraction]
    trace_is_algebraic_integer: Optional[bool]
    verdict: str
    elements: tuple[ElementReport, ...]
    index_data: Optional[IndexData]
    b2: int
    signature: int
    # (subgroup, hint) for each proper subgroup of a Klein scenario
    subgroup_hints: tuple[tuple[str, str], ...]

    @property
    def all_hypotheses_pass(self) -> bool:
        return all(h.passed for h in self.hypotheses)


def _parity_report(s: ActionScenario, element: str) -> ElementReport:
    fs = _fixed_set_data(s, element)
    try:
        parity = classify_parity(fs)
    except IndeterminateParityError:
        parity = None
    return ElementReport(element, fs, parity)


def _parity_hypothesis(name: str, report: ElementReport, want: str) -> Hypothesis:
    if report.parity is None:
        return Hypothesis(
            name, False, f"{report.element} acts freely; parity indeterminate"
        )
    detail = f"{report.element} is {report.parity.value}"
    if report.parity.mixed:
        detail += " (mixed fixed-set dimensions; 2-dimensional clause applied)"
    return Hypothesis(name, report.parity.value == want, detail)


def _trace(b: int, k: Fraction) -> tuple[Optional[Fraction], Optional[bool]]:
    if k.denominator != 1:
        return None, None
    value = Fraction(2) ** (b - int(k))
    return value, value.denominator == 1


def _check(s: ActionScenario) -> ObstructionReport:
    """Certificate of a validated scenario, decided from its orbit structure."""
    profiles = _summand_profiles(s)
    inv = _total_invariants(s, profiles)
    reports = tuple(_parity_report(s, e) for e in elements_of(s.group))
    # the total form is the orthogonal sum of the summand forms
    unimodular = all(abs(p.determinant) == 1 for _, p in profiles.values())
    hypotheses = [
        Hypothesis("intersection_form_even", inv.even, "total form is even (spin)"),
        Hypothesis(
            "intersection_form_unimodular",
            unimodular,
            "every summand form has determinant 1 or -1",
        ),
        Hypothesis(
            "signature_nonpositive", inv.signature <= 0, f"signature {inv.signature}"
        ),
        Hypothesis("b1_zero", True, "summands are simply connected by construction"),
    ]
    index_twisted = None
    if s.group == Z2:
        theorem = Z2_THEOREM
        hypotheses.append(_parity_hypothesis("generator_odd", reports[0], ODD))
        b = _twisted_b_plus(s, (GEN1,), profiles)
        k = k_odd(inv.signature)
        hints = ()
    else:
        theorem = KLEIN_THEOREM
        hypotheses += [
            _parity_hypothesis("generator1_odd", reports[0], ODD),
            _parity_hypothesis("generator2_odd", reports[1], ODD),
            _parity_hypothesis("composition_even", reports[2], EVEN),
            # minus block permutations; validation rejects noncommuting ones
            Hypothesis("operators_commute", True, "induced operators commute"),
        ]
        b = _twisted_b_plus(s, (GEN1, GEN2), profiles)
        comp_fs = reports[2].fixed_set
        if comp_fs.n_plus is not None:
            index_twisted = lefschetz_index(comp_fs.n_plus, comp_fs.n_minus)
        # both lift signs are admissible, so the larger bound applies
        effective_index = index_twisted if index_twisted is not None else Fraction(0)
        k = max(
            k_klein(inv.signature, effective_index),
            k_klein(inv.signature, -effective_index),
        )
        hint = _subgroup_hint(s)
        hints = tuple((sub, hint) for sub in SUBGROUPS)
    trace, integral = _trace(b, k)
    verdict = (
        NONSMOOTHABLE
        if all(h.passed for h in hypotheses) and b < k
        else NO_OBSTRUCTION
    )
    index = (
        IndexData(real_index_from_signature(inv.signature), index_twisted)
        if inv.signature <= 0
        else None
    )
    return ObstructionReport(
        theorem=theorem,
        hypotheses=tuple(hypotheses),
        b=b,
        k=k,
        trace_value=trace,
        trace_is_algebraic_integer=integral,
        verdict=verdict,
        elements=reports,
        index_data=index,
        b2=inv.b2,
        signature=inv.signature,
        subgroup_hints=hints,
    )


def _check_group(s: ActionScenario, group: str, name: str) -> ObstructionReport:
    require_valid(s)
    if s.group != group:
        raise ValueError(f"{name} expects a {group} scenario")
    return _check(s)


def check_z2(s: ActionScenario) -> ObstructionReport:
    """Certificate for the single-involution inequality b >= -signature/16."""
    return _check_group(s, Z2, "check_z2")


def check_z2xz2(s: ActionScenario) -> ObstructionReport:
    """Certificate for the Klein four-group inequality
    b >= -signature/32 + |twisted index|/8."""
    return _check_group(s, Z2XZ2, "check_z2xz2")


def check(s: ActionScenario) -> ObstructionReport:
    """Certificate for either group: one validation, then one pass."""
    require_valid(s)
    return _check(s)


def subgroup_smoothability_hint(s: ActionScenario, subgroup: str) -> str:
    """One-sided smoothability hint for a proper subgroup of a Klein scenario.

    Answers smoothable_by_construction only for scenarios matching the
    Klein family shape with enough sphere summands to absorb the E8
    content (both chains at least three times the cluster size);
    everything else is unknown, never a claim.
    """
    require_valid(s)
    if s.group != Z2XZ2:
        raise ValueError("subgroup hints apply to Z2xZ2 scenarios")
    if subgroup not in SUBGROUPS:
        raise ValueError(f"unknown subgroup {subgroup!r}")
    return _subgroup_hint(s)


def _subgroup_hint(s: ActionScenario) -> str:
    """The hint of a validated Klein scenario; it is the same for every
    proper subgroup."""
    shape = recognize_klein_template(s)
    if shape is None:
        return UNKNOWN
    if shape.l1 >= 3 * shape.k and shape.l2 >= 3 * shape.k:
        return SMOOTHABLE_BY_CONSTRUCTION
    return UNKNOWN
