"""Nonsmoothability checkers producing structured obstruction certificates.

A certificate compares the positive index b of the restricted form on the
fixed sublattice against the index-theoretic lower bound k; b < k under
the stated hypotheses contradicts the existence of any smooth structure
making the action smooth. Every number in it is read from the scenario's
orbit types, after a single validation of the scenario.
Hypothesis failures are reported as data, not exceptions, so a user
exploring scenarios can see which hypothesis broke.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Optional

from ._record import frozen, set_field
from .equivariant_sum import (
    EVEN,
    GEN1,
    GEN2,
    ODD,
    ActionScenario,
    FixedSetData,
    Z2,
    require_valid,
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


def lefschetz_index(n_plus: int, n_minus: int) -> Fraction:
    """Twisted Dirac index of an even involution with isolated fixed points."""
    return Fraction(n_plus - n_minus, 2)


def k_odd(signature: int) -> Fraction:
    """Lower bound -signature/16 that a smooth odd involution forces on b_plus."""
    return Fraction(-signature, 16)


def k_klein(signature: int, index_twisted: Fraction | int) -> Fraction:
    """Lower bound -signature/32 + index/8 in the Klein four-group inequality.

    The twisted index is taken for chosen lifts of the generators to the
    spin structure. Negating one generator's lift negates the
    composition's lift, and with it the index; both choices are lifts of
    the same action, so a smooth action satisfies both inequalities. The
    bound grows with the index, so callers pass its absolute value.
    """
    # one normalisation: (4n/d - signature)/32 with index n/d
    n, d = index_twisted.numerator, index_twisted.denominator
    return Fraction(4 * n - signature * d, 32 * d)


# Records are immutable, so reports share each hypothesis whose text holds
# no number of the scenario: one per name and truth value, and one per
# parity hypothesis, parity and mixed flag
_shared = functools.cache(Hypothesis)


# keyed on these few values, never on a FixedSetData: fixed sets differ
# per scenario, and the cache would grow with every scenario checked
@functools.cache
def _parity_hypothesis(
    name: str, element: str, parity: Optional[str], mixed: bool, want: str
) -> Hypothesis:
    """Whether `element` has parity `want`; `mixed` when its fixed set has
    both 2-dimensional components and isolated points."""
    if parity is None:
        return Hypothesis(name, False, f"{element} acts freely; parity indeterminate")
    detail = f"{element} is {parity}"
    if mixed:
        detail += " (mixed fixed-set dimensions; 2-dimensional clause applied)"
    return Hypothesis(name, parity == want, detail)


_Z2_PARITIES = (("generator_odd", ODD),)
_KLEIN_PARITIES = (
    ("generator1_odd", ODD),
    ("generator2_odd", ODD),
    ("composition_even", EVEN),
)


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
    unimodular = all(abs(p.determinant) == 1 for p, _ in v.forms.values())
    hypotheses = (
        _shared("intersection_form_even", inv.even, "total form is even (spin)"),
        _shared(
            "intersection_form_unimodular",
            unimodular,
            "every summand form has determinant 1 or -1",
        ),
        Hypothesis(
            "signature_nonpositive", inv.signature <= 0, f"signature {inv.signature}"
        ),
        _shared("b1_zero", True, "summands are simply connected by construction"),
    )
    z2 = s.group == Z2
    hypotheses += tuple(
        # a fixed set has two components exactly when both dimensions occur
        _parity_hypothesis(name, fs.element, fs.parity, len(fs.components) == 2, want)
        for (name, want), fs in zip(_Z2_PARITIES if z2 else _KLEIN_PARITIES, fixed_sets)
    )
    index_twisted = None
    if z2:
        theorem = Z2_THEOREM
        b = v.b_plus([GEN1])
        k = k_odd(inv.signature)
        hints = ()
    else:
        theorem = KLEIN_THEOREM
        # minus block permutations; validation rejects noncommuting ones
        hypotheses += (_shared("operators_commute", True, "induced operators commute"),)
        b = v.b_plus([GEN1, GEN2])
        comp_fs = fixed_sets[2]
        if comp_fs.n_plus is not None:
            index_twisted = lefschetz_index(comp_fs.n_plus, comp_fs.n_minus)
        # both lift signs are admissible, so the larger bound applies
        k = k_klein(inv.signature, 0 if index_twisted is None else abs(index_twisted))
        shape = recognize_klein_template(v)
        hints = _SUBGROUP_HINTS[shape is not None and klein_admits(*shape)]
    # the inequality first: b < k in integers, the hypotheses a scan
    verdict = (
        NONSMOOTHABLE
        if b * k.denominator < k.numerator and all(h.passed for h in hypotheses)
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
