"""Nonsmoothability checkers producing structured obstruction certificates.

A certificate compares the positive index b of the restricted form on the
fixed sublattice against the index-theoretic lower bound k; b < k under
the stated hypotheses contradicts the existence of any smooth structure
making the action smooth. Every number in it is read from the facts that
a single validation of the scenario derived (ValidScenario).
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
    ValidScenario,
    Z2,
    require_valid,
)
from .templates import SMOOTHABLE_BY_CONSTRUCTION, UNKNOWN, smooth_structure

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
        # (subgroup, answer) for each proper subgroup of a Klein scenario
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


def k_odd(signature: int) -> Fraction:
    """Lower bound -signature/16 that a smooth odd involution forces on b_plus."""
    return Fraction(-signature, 16)


def k_klein(signature: int, index_twisted: Fraction | int) -> Fraction:
    """Lower bound -signature/32 + index/8 in the Klein four-group inequality
    of the source paper, a 10/8-type bound after Furuta (Kato, arXiv
    1708.08030).

    The twisted index is taken for chosen lifts of the generators to the
    spin structure. Negating one generator's lift negates the
    composition's lift, and with it the index; both choices are lifts of
    the same action, so a smooth action satisfies both inequalities.
    check passes 0: the index is the sum of the Atiyah-Bott spin numbers
    at the composition's isolated fixed points (Atiyah-Bott II, section
    8), +1/4 twice and -1/4 twice on each rotate_both piece by
    Lichnerowicz, and the necks cancel in pairs of opposite sign
    (ValidScenario gives the argument and its sources).
    """
    # one normalisation: (4n/d - signature)/32 with index n/d
    n, d = index_twisted.numerator, index_twisted.denominator
    return Fraction(4 * n - signature * d, 32 * d)


# Records are immutable, so reports share each hypothesis whose text holds
# no number of the scenario: one per name and truth value, and one per
# parity hypothesis, parity and mixed flag
_shared = functools.cache(Hypothesis)

# the lift of a spin involution squares to -1 at each fixed surface and to
# +1 at each isolated fixed point, and that square is one global sign
_MIXED = (
    "fixes surfaces and isolated points; a spin involution's fixed components "
    "are all surfaces or all points (Atiyah-Bott II, section 8; Bryan 1998, section 2)"
)


# keyed on these few values, never on a FixedSetData: fixed sets differ
# per scenario, and the cache would grow with every scenario checked
@functools.cache
def _parity_hypothesis(
    name: str, element: str, parity: Optional[str], mixed: bool, want: str
) -> Hypothesis:
    """Whether `element` has parity `want`; `mixed` when its fixed set has
    both 2-dimensional components and isolated points, which fails."""
    if parity is None:
        detail = f"{element} fixes no summand; its fixed set in the necks is not modelled"
        return Hypothesis(name, False, detail)
    if mixed:
        return Hypothesis(name, False, f"{element} {_MIXED}")
    return Hypothesis(name, parity == want, f"{element} is {parity}")


_ZERO = Fraction(0)

_Z2_PARITIES = (("generator_odd", ODD),)
_KLEIN_PARITIES = (
    ("generator1_odd", ODD),
    ("generator2_odd", ODD),
    ("composition_even", EVEN),
)


def _below(b: int, k: Fraction) -> bool:
    """b < k, in integers."""
    return b * k.denominator < k.numerator


def _subgroup_answers(v: ValidScenario, signature: int, forms_pass: bool, fixed_sets):
    """(subgroup, answer) for each proper subgroup <e> of a Klein scenario,
    read from X_e, one piece of each pair that e swaps. nonsmoothable: the
    Z2 certificate of <e> holds (the form hypotheses, e odd, and b_plus(X_e)
    = b_plus([e]) < k_odd). smoothable_by_construction: e fixes points only
    or surfaces only, and smooth_structure constructs X_e from standard
    forms. <e> then acts on the rotated S2 x S2 pieces it fixes # X_e # X_e,
    whose copies a rotation of S^4 swaps at a free orbit (Kato, arXiv
    1708.08030); by Freedman that is the scenario's manifold. Else unknown.
    """
    # custom pieces, never constructed, lie in free orbits: every element moves them
    standard = all(isinstance(form, str) for form in v.forms)
    k = k_odd(signature)
    name, want = _Z2_PARITIES[0]
    answers = []
    for sub, fs in zip(SUBGROUPS, fixed_sets):
        b, sig = v.half(fs.element)
        mixed = len(fs.components) == 2
        if (
            forms_pass
            and _below(b, k)
            and _parity_hypothesis(name, fs.element, fs.parity, mixed, want).passed
        ):
            answer = NONSMOOTHABLE
        # a standard form is nondegenerate, of rank 2 b_plus - signature
        elif fs.parity and not mixed and smooth_structure(
            2 * b - sig, sig, standard
        )[0] == SMOOTHABLE_BY_CONSTRUCTION:
            answer = SMOOTHABLE_BY_CONSTRUCTION
        else:
            answer = UNKNOWN
        answers.append((sub, answer))
    return tuple(answers)


def check(s: ActionScenario) -> ObstructionReport:
    """Certificate for either group: one validation, then a read of the
    orbit structure it derived. The inequality is b >= -signature/16 for
    an odd involution, and b >= -signature/32 + |twisted index|/8 for a
    Klein four-group action, whose index is 0 (k_klein)."""
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
        # defined when the composition fixes isolated points only
        if fixed_sets[2].n_plus is not None:
            index_twisted = _ZERO
        k = k_klein(inv.signature, 0)
        forms_pass = all(h.passed for h in hypotheses[:4])
        hints = _subgroup_answers(v, inv.signature, forms_pass, fixed_sets)
    passed = all(h.passed for h in hypotheses)
    verdict = NONSMOOTHABLE if passed and _below(b, k) else NO_OBSTRUCTION
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
