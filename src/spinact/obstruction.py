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

from fractions import Fraction
from typing import Optional

from ._record import frozen, set_field
from .equivariant_sum import (
    COMPOSITION,
    GEN1,
    GEN2,
    ActionScenario,
    FixedSetData,
    Z2,
    require_valid,
)
from .index_parity import (
    EVEN,
    ODD,
    ParityClass,
    classify_parity,
    k_klein,
    k_odd,
    lefschetz_index,
)
from .templates import (
    SMOOTHABLE_BY_CONSTRUCTION,
    UNKNOWN,
    klein_admits,
    recognize_klein_template,
    smooth_structure,
)

Z2_THEOREM = "z2_odd_involution"
KLEIN_THEOREM = "z2xz2_odd_pair"

NONSMOOTHABLE = "nonsmoothable"
NO_OBSTRUCTION = "no_obstruction"

SUBGROUPS = (GEN1, GEN2, "diagonal")


@frozen
class Hypothesis:
    def __init__(self, name: str, passed: bool, detail: str = ""):
        set_field(self, "name", name)
        set_field(self, "passed", passed)
        set_field(self, "detail", detail)


@frozen
class ObstructionReport:
    def __init__(
        self,
        theorem: str,
        hypotheses: tuple[Hypothesis, ...],
        b: int,
        k: Fraction,
        verdict: str,
        # fixed set and parity of each non-identity element, in group order
        elements: tuple[FixedSetData, ...],
        # the composition's twisted index on a Klein scenario whose
        # composition has isolated fixed points; None otherwise
        index_twisted: Optional[Fraction],
        b2: int,
        signature: int,
        # (subgroup, hint) for each proper subgroup of a Klein scenario
        subgroup_hints: tuple[tuple[str, str], ...],
        # (answer, reason) of templates.smooth_structure for the total form
        smooth_structure: tuple[str, str],
    ):
        set_field(self, "theorem", theorem)
        set_field(self, "hypotheses", hypotheses)
        set_field(self, "b", b)
        set_field(self, "k", k)
        set_field(self, "verdict", verdict)
        set_field(self, "elements", elements)
        set_field(self, "index_twisted", index_twisted)
        set_field(self, "b2", b2)
        set_field(self, "signature", signature)
        set_field(self, "subgroup_hints", subgroup_hints)
        set_field(self, "smooth_structure", smooth_structure)

    @property
    def all_hypotheses_pass(self) -> bool:
        return all(h.passed for h in self.hypotheses)


def _parity_hypothesis(
    name: str, element: str, parity: Optional[ParityClass], want: str
) -> Hypothesis:
    if parity is None:
        return Hypothesis(name, False, f"{element} acts freely; parity indeterminate")
    detail = f"{element} is {parity.value}"
    if parity.mixed:
        detail += " (mixed fixed-set dimensions; 2-dimensional clause applied)"
    return Hypothesis(name, parity.value == want, detail)


# Records are immutable, so reports share each hypothesis and hint whose
# text holds no number of the scenario: one per truth value, per parity
# class (built once by _parity_hypothesis) or per admitted flag.
_EVEN_FORM = tuple(
    Hypothesis("intersection_form_even", passed, "total form is even (spin)")
    for passed in (False, True)
)
_UNIMODULAR_FORM = tuple(
    Hypothesis(
        "intersection_form_unimodular",
        passed,
        "every summand form has determinant 1 or -1",
    )
    for passed in (False, True)
)
_B1_ZERO = Hypothesis("b1_zero", True, "summands are simply connected by construction")
# minus block permutations; validation rejects noncommuting ones
_OPERATORS_COMMUTE = Hypothesis("operators_commute", True, "induced operators commute")
# None and the three classes classify_parity returns: free, odd, odd
# with isolated points too, even
_PARITY_CLASSES = tuple(
    map(classify_parity, ((), ((2, 2),), ((0, 4), (2, 2)), ((0, 4),)))
)
_PARITY_HYPOTHESES = {
    (name, parity): _parity_hypothesis(name, element, parity, want)
    for name, element, want in (
        ("generator_odd", GEN1, ODD),
        ("generator1_odd", GEN1, ODD),
        ("generator2_odd", GEN2, ODD),
        ("composition_even", COMPOSITION, EVEN),
    )
    for parity in _PARITY_CLASSES
}
# the same one-sided hint for every proper subgroup, by klein_admits
_SUBGROUP_HINTS = tuple(
    tuple((sub, hint) for sub in SUBGROUPS)
    for hint in (UNKNOWN, SMOOTHABLE_BY_CONSTRUCTION)
)


def check(s: ActionScenario) -> ObstructionReport:
    """Certificate for either group: one validation, then a read of the
    orbit structure it derived. The inequality is b >= -signature/16 for
    an odd involution, and b >= -signature/32 + |twisted index|/8 for a
    Klein four-group action."""
    v = require_valid(s)
    inv = v.totals()
    fixed_sets = tuple(map(v.fixed_set, v.table))
    # the total form is the orthogonal sum of the summand forms
    unimodular = all(abs(p.determinant) == 1 for _, p, _ in v.forms.values())
    hypotheses = (
        _EVEN_FORM[inv.even],
        _UNIMODULAR_FORM[unimodular],
        Hypothesis(
            "signature_nonpositive", inv.signature <= 0, f"signature {inv.signature}"
        ),
        _B1_ZERO,
    )
    index_twisted = None
    if s.group == Z2:
        theorem = Z2_THEOREM
        hypotheses += (_PARITY_HYPOTHESES["generator_odd", fixed_sets[0].parity],)
        b = v.b_plus([GEN1])
        k = k_odd(inv.signature)
        hints = ()
    else:
        theorem = KLEIN_THEOREM
        hypotheses += (
            _PARITY_HYPOTHESES["generator1_odd", fixed_sets[0].parity],
            _PARITY_HYPOTHESES["generator2_odd", fixed_sets[1].parity],
            _PARITY_HYPOTHESES["composition_even", fixed_sets[2].parity],
            _OPERATORS_COMMUTE,
        )
        b = v.b_plus([GEN1, GEN2])
        comp_fs = fixed_sets[2]
        if comp_fs.n_plus is not None:
            index_twisted = lefschetz_index(comp_fs.n_plus, comp_fs.n_minus)
        # both lift signs are admissible, so the larger bound applies
        k = k_klein(inv.signature, 0 if index_twisted is None else abs(index_twisted))
        shape = recognize_klein_template(v)
        hints = _SUBGROUP_HINTS[
            shape is not None and klein_admits(shape.l1, shape.l2, shape.k)
        ]
    # the inequality first: it is one comparison, the hypotheses a scan
    verdict = (
        NONSMOOTHABLE
        if b < k and all(h.passed for h in hypotheses)
        else NO_OBSTRUCTION
    )
    return ObstructionReport(
        theorem=theorem,
        hypotheses=hypotheses,
        b=b,
        k=k,
        verdict=verdict,
        elements=fixed_sets,
        index_twisted=index_twisted,
        b2=inv.b2,
        signature=inv.signature,
        subgroup_hints=hints,
        smooth_structure=smooth_structure(inv.b2, inv.signature, inv.even and unimodular),
    )
