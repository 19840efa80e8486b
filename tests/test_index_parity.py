from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from spinact.index_parity import (
    EVEN,
    ODD,
    classify_parity,
    k_klein,
    k_odd,
    lefschetz_index,
)


def test_two_dimensional_component_means_odd():
    assert classify_parity(((2, 2),)).value == ODD


def test_isolated_points_mean_even():
    assert classify_parity(((0, 4),)).value == EVEN


def test_empty_fixed_set_is_indeterminate():
    assert classify_parity(()) is None
    assert classify_parity(((2, 0),)) is None


def test_mixed_dimensions_warns_but_reports_odd():
    p = classify_parity(((0, 4), (2, 2)))
    assert p.value == ODD and p.mixed


@given(st.permutations([(2, 2), (0, 4), (2, 6)]))
def test_parity_ignores_component_order(components):
    p = classify_parity(components)
    assert p.value == ODD and p.mixed


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
