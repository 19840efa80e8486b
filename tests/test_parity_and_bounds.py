"""Parity of an involution, as ValidScenario.fixed_set reads it from the
fixed set, the parity hypotheses that check reads from it, and the Dirac
index bounds of the obstruction checker."""

import io
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
    require_valid,
    serialize_scenario,
)
from spinact import cli
from spinact.equivariant_sum import (
    EVEN,
    GEN1,
    MINUS_E8,
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


def test_mixed_dimensions_report_odd_but_fail_the_parity_hypothesis():
    fs = _fixed_set(ROTATE_FIRST, ROTATE_BOTH)
    assert (fs.components, fs.parity) == (((0, 4), (2, 2)), ODD)
    (hypothesis,) = (
        h for h in check(_involution(ROTATE_FIRST, ROTATE_BOTH)).hypotheses
        if h.name == "generator_odd"
    )
    assert not hypothesis.passed
    assert hypothesis.detail == (
        "gen1 fixes surfaces and isolated points; a spin involution's fixed "
        "components are all surfaces or all points (Atiyah-Bott II, section 8; "
        "Bryan 1998, section 2)"
    )


def test_a_mixed_fixed_set_gives_no_obstruction_and_exit_two(tmp_path):
    # one sphere rotated in a factor, one in both, and a swapped -E8 pair:
    # b = 0 < k = 1 would certify it, but no spin involution fixes both
    # surfaces and points
    s = ActionScenario(
        Z2,
        (Summand("a", S2XS2), Summand("b", S2XS2))
        + (Summand("w0", MINUS_E8), Summand("w1", MINUS_E8)),
        GeneratorAction((("w0", "w1"),), {"a": ROTATE_FIRST, "b": ROTATE_BOTH}),
    )
    report = check(s)
    assert (report.b, report.k) == (0, 1)
    assert [h.name for h in report.hypotheses if not h.passed] == ["generator_odd"]
    assert report.verdict == "no_obstruction"
    path = tmp_path / "mixed.json"
    path.write_text(serialize_scenario(s))
    out = io.StringIO()
    assert cli.main(["check", "--input", str(path)], out=out) == 2
    assert "verdict: no_obstruction\n" in out.getvalue()
    assert "[FAIL] generator_odd  (gen1 fixes surfaces and isolated points;" in out.getvalue()


@given(st.permutations([ROTATE_SECOND, ROTATE_BOTH, ROTATE_FIRST, ROTATE_FIRST]))
def test_parity_ignores_component_order(labels):
    fs = _fixed_set(*labels)
    assert (fs.components, fs.parity) == (((0, 4), (2, 6)), ODD)


def test_k_odd_examples():
    assert k_odd(-16) == 1
    assert k_odd(0) == 0
    assert k_odd(-48) == 3
    assert k_odd(-8) == Fraction(1, 2)  # non-integral values pass through


def test_k_klein_examples():
    assert k_klein(-32, 0) == 1
    assert k_klein(0, 0) == 0
    assert k_klein(-32, 2) == Fraction(5, 4)
    # the two lifts of one action: index -2 and 2 bracket b = 1
    assert k_klein(-32, -2) == Fraction(3, 4)


@given(st.integers(-320, 0))
def test_k_klein_is_half_k_odd_at_zero_index(sig):
    assert k_klein(sig, 0) == k_odd(sig) / 2
