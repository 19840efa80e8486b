"""Parity of an involution, as ValidScenario.fixed_set reads it from the
fixed set, and the Dirac index bounds of the obstruction checker."""

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from spinact import (
    ActionScenario,
    GeneratorAction,
    Summand,
    check,
    k_klein,
    k_odd,
    lefschetz_index,
    require_valid,
)
from spinact.equivariant_sum import (
    EVEN,
    GEN1,
    ODD,
    ROTATE_BOTH,
    ROTATE_FIRST,
    ROTATE_SECOND,
    S2XS2,
    Z2,
    Z2XZ2,
)


def _involution(*labels) -> ActionScenario:
    """A Z2 scenario fixing one sphere product per label and swapping one
    more pair."""
    ids = [f"s{i}" for i in range(len(labels) + 2)]
    return ActionScenario(
        Z2,
        tuple(Summand(i, S2XS2) for i in ids),
        GeneratorAction(((ids[-2], ids[-1]),), dict(zip(ids, labels))),
    )


def _fixed_set(*labels):
    return require_valid(_involution(*labels)).fixed_set(GEN1)


def test_two_dimensional_component_means_odd():
    fs = _fixed_set(ROTATE_FIRST)
    assert (fs.components, fs.parity) == (((2, 2),), ODD)


def test_isolated_points_mean_even():
    fs = _fixed_set(ROTATE_BOTH)
    assert (fs.components, fs.parity) == (((0, 4),), EVEN)


def test_empty_fixed_set_is_indeterminate():
    assert _fixed_set().parity is None
    # one free orbit of four: no element of the group fixes a point
    spheres = tuple(Summand(f"s{i}", S2XS2) for i in range(4))
    s = ActionScenario(
        Z2XZ2,
        spheres,
        GeneratorAction((("s0", "s1"), ("s2", "s3"))),
        GeneratorAction((("s0", "s2"), ("s1", "s3"))),
    )
    valid = require_valid(s)
    assert [valid.fixed_set(e).parity for e in valid.table] == [None, None, None]


def test_mixed_dimensions_warns_but_reports_odd():
    fs = _fixed_set(ROTATE_FIRST, ROTATE_BOTH)
    assert (fs.components, fs.parity) == (((0, 4), (2, 2)), ODD)
    (hypothesis,) = (
        h for h in check(_involution(ROTATE_FIRST, ROTATE_BOTH)).hypotheses
        if h.name == "generator_odd"
    )
    assert hypothesis.passed
    assert hypothesis.detail == (
        "gen1 is odd (mixed fixed-set dimensions; 2-dimensional clause applied)"
    )


@given(st.permutations([ROTATE_SECOND, ROTATE_BOTH, ROTATE_FIRST, ROTATE_FIRST]))
def test_parity_ignores_component_order(labels):
    fs = _fixed_set(*labels)
    assert (fs.components, fs.parity) == (((0, 4), (2, 6)), ODD)


def test_lefschetz_examples():
    assert lefschetz_index(2, 2) == 0
    assert lefschetz_index(3, 1) == 1
    assert lefschetz_index(1, 2) == Fraction(-1, 2)


@given(st.integers(0, 50), st.integers(0, 50))
def test_lefschetz_antisymmetric(n_plus, n_minus):
    assert lefschetz_index(n_plus, n_minus) == -lefschetz_index(n_minus, n_plus)
    assert lefschetz_index(n_plus, n_plus) == 0


def test_k_odd_examples():
    assert k_odd(-16) == 1
    assert k_odd(0) == 0
    assert k_odd(-48) == 3
    assert k_odd(-8) == Fraction(1, 2)  # non-integral values pass through


def test_k_klein_examples():
    assert k_klein(-32, 0) == 1
    assert k_klein(0, 0) == 0
    assert k_klein(-32, 2) == Fraction(5, 4)


@given(st.integers(-320, 0))
def test_k_klein_is_half_k_odd_at_zero_index(sig):
    assert k_klein(sig, 0) == k_odd(sig) / 2
