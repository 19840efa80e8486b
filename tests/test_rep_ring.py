"""The representation ring of the order-4 cyclic group, as the test oracle
in `tests/oracles.py` implements it: characters, alternating
exterior-power and tom Dieck traces in exact Gaussian rationals."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    FixedVectorError,
    TRIVIAL,
    VirtualRepZ4,
    ZERO_REP,
    bk_trace_and_integrality,
    character_value,
    gaussian,
    lambda_minus_one_trace,
    line,
    rep_spaces_from_data,
    tomdieck_trace,
)

reps = st.builds(
    VirtualRepZ4,
    st.tuples(*(st.integers(-5, 5) for _ in range(4))),
)
actual_reps = st.builds(
    VirtualRepZ4,
    st.tuples(*(st.integers(0, 4) for _ in range(4))),
)
elements = st.integers(0, 3)


def test_character_of_lines():
    assert character_value(line(1), 1) == gaussian(0, 1)
    assert character_value(line(2), 1) == gaussian(-1)
    assert character_value(line(1) + line(3), 1) == gaussian(0)
    assert character_value(line(1), 0) == gaussian(1)


@given(reps, reps, elements)
def test_character_is_additive_and_multiplicative(r, s, a):
    assert character_value(r + s, a) == character_value(r, a) + character_value(s, a)
    assert character_value(r * s, a) == character_value(r, a) * character_value(s, a)


@given(reps, reps, reps)
def test_ring_axioms(r, s, t):
    assert r + s == s + r
    assert r * s == s * r
    assert (r * s) * t == r * (s * t)
    assert r * (s + t) == r * s + r * t
    assert r * TRIVIAL == r
    assert r + ZERO_REP == r


def test_lambda_examples():
    assert lambda_minus_one_trace(line(2), 1) == gaussian(2)
    assert lambda_minus_one_trace(line(1) + line(3), 1) == gaussian(2)
    assert lambda_minus_one_trace(line(2) - line(2), 1) == gaussian(1)


def test_lambda_fixed_vector_error():
    # the subtracted part may not contain a line the element leaves fixed
    with pytest.raises(FixedVectorError):
        lambda_minus_one_trace(ZERO_REP - TRIVIAL, 1)
    with pytest.raises(FixedVectorError):
        lambda_minus_one_trace(ZERO_REP - line(2), 2)
    with pytest.raises(FixedVectorError):
        lambda_minus_one_trace(ZERO_REP - line(1), 0)


@given(actual_reps, actual_reps, elements)
def test_lambda_multiplicative_over_sums(r, s, a):
    assert lambda_minus_one_trace(r + s, a) == lambda_minus_one_trace(
        r, a
    ) * lambda_minus_one_trace(s, a)


def test_tomdieck_examples():
    b3 = VirtualRepZ4((0, 0, 3, 0))
    k1 = line(1) + line(3)
    assert tomdieck_trace(1, b3, k1, 1) == gaussian(4)
    assert tomdieck_trace(0, b3, k1, 1) == gaussian(0)
    assert tomdieck_trace(1, b3, b3, 1) == gaussian(1)


def test_tomdieck_closed_form_exhaustive():
    for b in range(9):
        for k in range(9):
            w = VirtualRepZ4((0, 0, b, 0))
            v = VirtualRepZ4((0, k, 0, k))
            value = tomdieck_trace(1, w, v, 1)
            assert value.is_rational
            expected, integral = bk_trace_and_integrality(b, k)
            assert value.re == expected
            assert integral == (b >= k)
            assert value.is_gaussian_integer == integral


def test_bk_examples():
    assert bk_trace_and_integrality(1, 1) == (1, True)
    assert bk_trace_and_integrality(0, 1) == (Fraction(1, 2), False)
    assert bk_trace_and_integrality(3, 1) == (4, True)


def test_rep_spaces_quoted_decomposition():
    v, w = rep_spaces_from_data(0, 0, 1, 1)
    assert v == line(1) + line(3)
    assert w == line(2)
    v, w = rep_spaces_from_data(1, 0, 0, 0)
    assert v == w == line(2)


def test_rep_spaces_common_factors_cancel():
    for m in range(5):
        for n in range(5):
            for b in range(3):
                for k in range(3):
                    v, w = rep_spaces_from_data(m, n, b, k)
                    assert (w - v) == rep_spaces_from_data(0, 0, b, k)[1] - \
                        rep_spaces_from_data(0, 0, b, k)[0]
                    value = tomdieck_trace(1, w, v, 1)
                    assert value.re == Fraction(2) ** (b - k) and value.im == 0


def test_gaussian_value_arithmetic():
    i = gaussian(0, 1)
    assert i * i == gaussian(-1)
    assert (gaussian(1) - i) * (gaussian(1) + i) == gaussian(2)
    assert gaussian(1, 1) / gaussian(1, 1) == gaussian(1)
    assert str(gaussian(Fraction(1, 2))) == "1/2"
    assert str(gaussian(2, -1)) == "2-i"
    assert -gaussian(1, -2) == gaussian(-1, 2)
    with pytest.raises(ZeroDivisionError):
        gaussian(1) / gaussian(0)

