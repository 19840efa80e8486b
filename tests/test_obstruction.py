import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinact.equivariant_sum import (
    S2XS2,
    Z2XZ2,
    ActionScenario,
    GeneratorAction,
    InvalidScenarioError,
    ROTATE_BOTH,
    ROTATE_FIRST,
    ROTATE_SECOND,
    Summand,
    scenario_lattice,
    validate_scenario,
)
from spinact import k_klein
from spinact.lattice import IntegerLattice, is_even, signature_profile
from spinact import obstruction
from spinact.obstruction import (
    NONSMOOTHABLE,
    NO_OBSTRUCTION,
    SMOOTHABLE_BY_CONSTRUCTION,
    UNKNOWN,
    Hypothesis,
    check,
)
from spinact.templates import (
    NO_SMOOTH_STRUCTURE,
    klein_admits,
    klein_grid,
    klein_template,
    smooth_structure,
    z2_template,
)

from oracles import bk_trace_and_integrality, klein_subgroup_reference


def test_z2_headline_example():
    report = check(z2_template(3, 1))
    assert report.b == 0
    assert report.k == 1
    assert report.verdict == NONSMOOTHABLE
    assert report.all_hypotheses_pass
    assert bk_trace_and_integrality(report.b, int(report.k)) == (Fraction(1, 2), False)
    assert (report.b2, report.signature) == (22, -16)


def test_z2_no_e8_content_gives_no_obstruction():
    report = check(z2_template(3, 0))
    assert report.b == 0 and report.k == 0
    assert report.verdict == NO_OBSTRUCTION
    assert report.all_hypotheses_pass
    assert bk_trace_and_integrality(report.b, int(report.k)) == (1, True)


def test_z2_free_generator_is_a_hypothesis_failure():
    # everything swapped in pairs: empty fixed set, zero signature
    s = ActionScenario(
        "Z2",
        (Summand("s0", "s2xs2"), Summand("s1", "s2xs2")),
        GeneratorAction((("s0", "s1"),), {}),
    )
    report = check(s)
    assert not report.all_hypotheses_pass
    failed = {h.name for h in report.hypotheses if not h.passed}
    assert failed == {"generator_odd"}
    assert report.verdict == NO_OBSTRUCTION


def test_z2_even_generator_is_a_hypothesis_failure():
    s = ActionScenario(
        "Z2",
        (Summand("s0", "s2xs2"),),
        GeneratorAction((), {"s0": ROTATE_BOTH}),
    )
    report = check(s)
    failed = {h.name for h in report.hypotheses if not h.passed}
    assert failed == {"generator_odd"}
    assert report.verdict == NO_OBSTRUCTION


def test_z2_odd_form_fails_spin_hypothesis():
    odd = IntegerLattice(((1,),))
    s = ActionScenario(
        "Z2",
        (
            Summand("s0", "s2xs2"),
            Summand("c0", "custom", odd),
            Summand("c1", "custom", odd),
        ),
        GeneratorAction((("c0", "c1"),), {"s0": ROTATE_FIRST}),
    )
    report = check(s)
    failed = {h.name for h in report.hypotheses if not h.passed}
    assert "intersection_form_even" in failed
    assert report.verdict == NO_OBSTRUCTION


def test_z2_invalid_scenario_raises():
    s = ActionScenario("Z2", (Summand("w", "minus_e8"),), GeneratorAction())
    with pytest.raises(InvalidScenarioError):
        check(s)


@pytest.mark.parametrize(
    "l,k",
    [(l, k) for k in range(1, 5) for l in range(3 * k, 3 * k + 4)],
)
def test_z2_family_sweep_nonsmoothable(l, k):
    report = check(z2_template(l, k))
    assert report.verdict == NONSMOOTHABLE
    assert report.b == 0 and report.k == k


@pytest.mark.parametrize("l", [0, 2, 5])
def test_z2_family_k_zero_never_obstructs(l):
    if l == 0:
        # no fixed set at all: hypothesis failure rather than certificate
        report = check(z2_template(0, 0))
        assert report.verdict == NO_OBSTRUCTION
    else:
        report = check(z2_template(l, 0))
        assert report.verdict == NO_OBSTRUCTION
        assert report.all_hypotheses_pass


def test_klein_headline_example():
    report = check(klein_template(3, 3, 1))
    assert report.b == 0
    assert report.k == 1
    assert report.verdict == NONSMOOTHABLE
    assert report.all_hypotheses_pass
    assert report.index_twisted == 0
    parities = {fs.element: fs.parity for fs in report.elements}
    assert parities == {"gen1": "odd", "gen2": "odd", "composition": "even"}


def test_klein_no_e8_content():
    report = check(klein_template(3, 3, 0))
    assert report.b == 0 and report.k == 0
    assert report.verdict == NO_OBSTRUCTION
    assert report.all_hypotheses_pass


@pytest.mark.parametrize(
    "l1,l2,k",
    [
        (l1, l2, k)
        for k in range(1, 4)
        for l1 in (3 * k, 3 * k + 1)
        for l2 in (3 * k, 3 * k + 1)
    ],
)
def test_klein_family_sweep_nonsmoothable(l1, l2, k):
    report = check(klein_template(l1, l2, k))
    assert report.verdict == NONSMOOTHABLE
    assert report.b == 0 and report.k == k
    assert report.index_twisted == 0


def test_klein_verdict_invariant_under_relabelling():
    s = klein_template(3, 3, 1)
    renamed = ActionScenario(
        s.group,
        tuple(reversed([Summand("q" + sm.id, sm.kind) for sm in s.summands])),
        GeneratorAction(
            tuple(("q" + a, "q" + b) for a, b in s.gen1.permutation),
            {"q" + i: lbl for i, lbl in s.gen1.local.items()},
        ),
        GeneratorAction(
            tuple(("q" + a, "q" + b) for a, b in s.gen2.permutation),
            {"q" + i: lbl for i, lbl in s.gen2.local.items()},
        ),
    )
    a = check(s)
    b = check(renamed)
    assert (a.b, a.k, a.verdict) == (b.b, b.k, b.verdict)


def test_trace_integral_exactly_when_no_obstruction():
    for l, k in [(3, 0), (3, 1), (6, 2), (9, 3)]:
        report = check(z2_template(l, k))
        if report.all_hypotheses_pass and report.k.denominator == 1:
            _, integral = bk_trace_and_integrality(report.b, int(report.k))
            assert integral == (report.b >= report.k)
            assert integral == (report.verdict == NO_OBSTRUCTION)


def test_check_dispatches_on_group():
    assert check(z2_template(3, 1)).theorem == "z2_odd_involution"
    assert check(klein_template(3, 3, 1)).theorem == "z2xz2_odd_pair"


_SUBGROUPS = ("gen1", "gen2", "diagonal")
_BUILT = tuple((sub, SMOOTHABLE_BY_CONSTRUCTION) for sub in _SUBGROUPS)


def test_subgroup_hints_on_template():
    assert check(klein_template(3, 3, 1)).subgroup_hints == _BUILT
    # gen1 restricts to l2 = 2 swapped sphere pairs and 2k = 2 swapped -E8
    # pairs: b = 2 reaches k = 2, but a K3 pair needs three sphere pairs
    assert dict(check(klein_template(3, 2, 1)).subgroup_hints) == {
        "gen1": UNKNOWN,
        "gen2": SMOOTHABLE_BY_CONSTRUCTION,
        "diagonal": SMOOTHABLE_BY_CONSTRUCTION,
    }
    # b = 1 < 2 for gen1
    assert dict(check(klein_template(3, 1, 1)).subgroup_hints) == {
        "gen1": NONSMOOTHABLE,
        "gen2": SMOOTHABLE_BY_CONSTRUCTION,
        "diagonal": SMOOTHABLE_BY_CONSTRUCTION,
    }
    # both generators obstructed; the diagonal's 2 sphere pairs build no K3 pair
    assert dict(check(klein_template(1, 1, 1)).subgroup_hints) == {
        "gen1": NONSMOOTHABLE,
        "gen2": NONSMOOTHABLE,
        "diagonal": UNKNOWN,
    }


def test_subgroup_answers_off_the_template_follow_the_rule():
    # two jointly rotated cores: nothing moves, so each subgroup is the sum
    # of the pieces it fixes
    summands = (Summand("c1", "s2xs2"), Summand("c2", "s2xs2"))
    gen1 = GeneratorAction((), {"c1": ROTATE_FIRST, "c2": ROTATE_FIRST})
    gen2 = GeneratorAction((), {"c1": ROTATE_SECOND, "c2": ROTATE_SECOND})
    s = ActionScenario("Z2xZ2", summands, gen1, gen2)
    assert check(s).subgroup_hints == _BUILT
    # the template with its core doubly rotated by gen2: gen2 fixes
    # surfaces and points, which no construction joins, and the composition
    # rotates the core's second factor
    t = klein_template(3, 3, 1)
    local2 = {**t.gen2.local, "core": ROTATE_BOTH}
    s = ActionScenario(t.group, t.summands, t.gen1, GeneratorAction(t.gen2.permutation, local2))
    assert validate_scenario(s) == []
    assert check(s).subgroup_hints == (
        ("gen1", SMOOTHABLE_BY_CONSTRUCTION),
        ("gen2", UNKNOWN),
        ("diagonal", SMOOTHABLE_BY_CONSTRUCTION),
    )


def _with_free_orbit(s: ActionScenario, kind: str) -> ActionScenario:
    """`s` with one more free orbit of four `kind` summands."""
    summands = s.summands + tuple(Summand(f"f{i}", kind) for i in range(4))
    return ActionScenario(
        s.group,
        summands,
        GeneratorAction(s.gen1.permutation + (("f0", "f1"), ("f2", "f3")), s.gen1.local),
        GeneratorAction(s.gen2.permutation + (("f0", "f2"), ("f1", "f3")), s.gen2.local),
    )


def _chain1_rotating_second(s: ActionScenario) -> ActionScenario:
    """`s` with gen1 rotating the second factor on its chain, not the first."""
    local1 = {i: ROTATE_SECOND for i in s.gen1.local} | {"core": ROTATE_FIRST}
    return ActionScenario(
        s.group, s.summands, GeneratorAction(s.gen1.permutation, local1), s.gen2
    )


@pytest.mark.parametrize(
    "s",
    [
        _with_free_orbit(klein_template(3, 3, 1), S2XS2),
        _with_free_orbit(klein_template(3, 3, 1), "k3"),
        _chain1_rotating_second(klein_template(3, 3, 1)),
    ],
    ids=["free-s2xs2-orbit", "free-k3-orbit", "chain1-rotates-second"],
)
def test_recognizer_rejects_a_valid_near_miss(s):
    """Valid near misses of the template shape, which an exact match of the
    template rejected: the rule reads them from their orbit types and
    builds every subgroup, as it builds the template's."""
    assert validate_scenario(s) == []
    assert check(s).subgroup_hints == _BUILT


def _assert_closed_forms(s, l1, l2, k):
    answers = dict(check(s).subgroup_hints)
    assert answers == klein_subgroup_reference(l1, l2, k)
    # the sweep keeps exactly the points whose subgroups are all built
    built = set(answers.values()) == {SMOOTHABLE_BY_CONSTRUCTION}
    assert klein_admits(l1, l2, k) == built


def test_subgroup_answers_follow_their_closed_forms_on_a_small_grid():
    point = klein_grid(6, 6, 3)
    for l1, l2, k in itertools.product(range(7), range(7), range(4)):
        _assert_closed_forms(point(l1, l2, k), l1, l2, k)


def _near_the_thresholds(k: int):
    """A chain length anywhere up to 400, or next to 2k or 3k, where the
    answers change."""
    edges = [max(0, 2 * k + d) for d in (-1, 0)] + [max(0, 3 * k + d) for d in (-1, 0)]
    return st.one_of(st.integers(0, 400), st.sampled_from(edges))


@given(
    st.integers(0, 100).flatmap(
        lambda k: st.tuples(_near_the_thresholds(k), _near_the_thresholds(k), st.just(k))
    )
)
@example((400, 400, 100))
@example((199, 300, 100))
@settings(max_examples=25, deadline=None)
def test_subgroup_answers_follow_their_closed_forms_far_past_the_goldens(point):
    _assert_closed_forms(klein_template(*point), *point)


def test_k3_swap_scenario_obstruction_does_not_fire():
    # swapped K3 pair: the fixed sublattice carries twice the K3 form, so
    # b = 3 beats the bound k = 2 (values cross-checked against the float
    # eigenvalue and rational nullspace oracles)
    s = ActionScenario(
        "Z2",
        (Summand("s0", "s2xs2"), Summand("k0", "k3"), Summand("k1", "k3")),
        GeneratorAction((("k0", "k1"),), {"s0": ROTATE_FIRST}),
    )
    report = check(s)
    assert report.all_hypotheses_pass
    assert (report.b2, report.signature) == (46, -32)
    assert report.b == 3
    assert report.k == 2
    assert report.verdict == NO_OBSTRUCTION
    assert bk_trace_and_integrality(report.b, int(report.k)) == (2, True)


def _custom_pair(gram) -> ActionScenario:
    """A rotated sphere product and a swapped pair of custom summands."""
    form = IntegerLattice(gram)
    return ActionScenario(
        "Z2",
        (
            Summand("s0", "s2xs2"),
            Summand("c0", "custom", form),
            Summand("c1", "custom", form),
        ),
        GeneratorAction((("c0", "c1"),), {"s0": ROTATE_FIRST}),
    )


def test_smooth_structure_matches_the_dense_assembly():
    # the templates reach all three answers (none by Donaldson and by
    # Furuta); the custom pairs are odd, and even but not unimodular
    scenarios = [z2_template(l, k) for l in range(5) for k in range(3)]
    scenarios += [
        klein_template(l1, l2, k) for l1 in range(4) for l2 in range(4) for k in range(2)
    ]
    scenarios += [_custom_pair(((1,),)), _custom_pair(((-2,),))]
    answers = set()
    for s in scenarios:
        lat = scenario_lattice(s)
        p = signature_profile(lat)
        unimodular = abs(p.determinant) == 1
        expected = smooth_structure(lat.rank, p.signature, is_even(lat) and unimodular)
        assert check(s).smooth_structure == expected
        answers.add(expected[0])
    assert answers == {SMOOTHABLE_BY_CONSTRUCTION, NO_SMOOTH_STRUCTURE, UNKNOWN}


FURUTA = (NO_SMOOTH_STRUCTURE, "Furuta: b2 < 10/8 |signature| + 2")


@pytest.mark.parametrize(
    "scenario,b2,expected",
    [
        (z2_template(1, 1), 18, FURUTA),
        (z2_template(2, 1), 20, FURUTA),
        (klein_template(1, 1, 1), 42, (UNKNOWN, "between the 10/8 and 11/8 bounds")),
        (z2_template(3, 1), 22, (SMOOTHABLE_BY_CONSTRUCTION, "#1 K3 # 0 S2xS2")),
        (klein_template(3, 3, 1), 58, (SMOOTHABLE_BY_CONSTRUCTION, "#2 K3 # 7 S2xS2")),
    ],
    ids=["z2-1-1", "z2-2-1", "klein-1-1-1", "z2-3-1", "klein-3-3-1"],
)
def test_smooth_structure_of_named_templates(scenario, b2, expected):
    report = check(scenario)
    assert report.b2 == b2
    assert report.smooth_structure == expected
    # report only: the verdict does not read the answer
    assert report.verdict == NONSMOOTHABLE


def test_klein_verdict_resting_on_the_larger_lift_sign_bound():
    # klein_template(3, 3, 1) plus one free orbit of four sphere products:
    # b = 1 lies between the bounds of index -2 and 2, one per choice of
    # lifts, which the larger one would obstruct; but the core's isolated
    # points split two and two, so the index is 0 and b = k
    base = klein_template(3, 3, 1)
    orbit = tuple(Summand(f"f{i}", S2XS2) for i in range(4))
    gen1 = GeneratorAction(
        base.gen1.permutation + (("f0", "f1"), ("f2", "f3")), base.gen1.local
    )
    gen2 = GeneratorAction(
        base.gen2.permutation + (("f0", "f2"), ("f1", "f3")), base.gen2.local
    )
    report = check(ActionScenario(Z2XZ2, base.summands + orbit, gen1, gen2))
    assert report.all_hypotheses_pass
    assert (report.b2, report.signature) == (66, -32)
    assert report.b == 1 and report.index_twisted == 0
    assert k_klein(report.signature, -2) == Fraction(3, 4) <= report.b
    assert k_klein(report.signature, 2) == Fraction(5, 4) > report.b
    assert report.k == k_klein(report.signature, 0) == 1 == report.b
    assert report.verdict == NO_OBSTRUCTION


def _rotated_spheres(*labels) -> ActionScenario:
    """An involution that fixes one sphere product per label."""
    ids = [f"s{i}" for i in range(len(labels))]
    return ActionScenario(
        "Z2",
        tuple(Summand(i, S2XS2) for i in ids),
        GeneratorAction((), dict(zip(ids, labels))),
    )


def _jointly_fixed(*label_pairs) -> ActionScenario:
    """A Klein action fixing one sphere product per (gen1, gen2) label
    pair; the composition rotates it by the composed label."""
    ids = [f"s{i}" for i in range(len(label_pairs))]
    return ActionScenario(
        Z2XZ2,
        tuple(Summand(i, S2XS2) for i in ids),
        GeneratorAction((), {i: pair[0] for i, pair in zip(ids, label_pairs)}),
        GeneratorAction((), {i: pair[1] for i, pair in zip(ids, label_pairs)}),
    )


_SPHERES = tuple(Summand(f"s{i}", S2XS2) for i in range(4))
# the parity classes None, odd, odd with isolated points too, and even,
# reached by each element that a parity hypothesis reads
HYPOTHESIS_SCENARIOS = {
    "z2-free": ActionScenario("Z2", _SPHERES[:2], GeneratorAction((("s0", "s1"),))),
    "z2-first": _rotated_spheres(ROTATE_FIRST),
    "z2-mixed-labels": _rotated_spheres(ROTATE_FIRST, ROTATE_BOTH),
    "z2-both": _rotated_spheres(ROTATE_BOTH),
    # one free orbit of four: every element acts freely
    "klein-free": ActionScenario(
        Z2XZ2,
        _SPHERES,
        GeneratorAction((("s0", "s1"), ("s2", "s3"))),
        GeneratorAction((("s0", "s2"), ("s1", "s3"))),
    ),
    # the composition is rotate_both on the core and moves the chains
    "klein-template": klein_template(1, 1, 0),
    "klein-first-both": _jointly_fixed((ROTATE_FIRST, ROTATE_BOTH)),
    "klein-both-first": _jointly_fixed((ROTATE_BOTH, ROTATE_FIRST)),
    "klein-mixed-labels-1": _jointly_fixed(
        (ROTATE_FIRST, ROTATE_SECOND), (ROTATE_BOTH, ROTATE_FIRST)
    ),
    "klein-mixed-labels-2": _jointly_fixed(
        (ROTATE_FIRST, ROTATE_BOTH), (ROTATE_SECOND, ROTATE_FIRST)
    ),
    "z2-odd-form": _custom_pair(((1,),)),
    "z2-determinant-2": _custom_pair(((-2,),)),
}
HYPOTHESIS_ORDER = {
    "Z2": (
        "intersection_form_even",
        "intersection_form_unimodular",
        "signature_nonpositive",
        "b1_zero",
        "generator_odd",
    ),
    Z2XZ2: (
        "intersection_form_even",
        "intersection_form_unimodular",
        "signature_nonpositive",
        "b1_zero",
        "generator1_odd",
        "generator2_odd",
        "composition_even",
        "operators_commute",
    ),
}


# a fixed set with surfaces and isolated points fails the parity hypothesis
_MIXED = (
    "fixes surfaces and isolated points; a spin involution's fixed components are "
    "all surfaces or all points (Atiyah-Bott II, section 8; Bryan 1998, section 2)"
)
# (scenario, hypothesis, passed, detail)
SHARED_HYPOTHESES = [
    ("z2-free", "generator_odd", False, "gen1 acts freely; parity indeterminate"),
    ("z2-first", "generator_odd", True, "gen1 is odd"),
    (
        "z2-mixed-labels",
        "generator_odd",
        False,
        f"gen1 {_MIXED}",
    ),
    ("z2-both", "generator_odd", False, "gen1 is even"),
    ("klein-free", "generator1_odd", False, "gen1 acts freely; parity indeterminate"),
    ("klein-template", "generator1_odd", True, "gen1 is odd"),
    (
        "klein-mixed-labels-1",
        "generator1_odd",
        False,
        f"gen1 {_MIXED}",
    ),
    ("klein-both-first", "generator1_odd", False, "gen1 is even"),
    ("klein-free", "generator2_odd", False, "gen2 acts freely; parity indeterminate"),
    ("klein-template", "generator2_odd", True, "gen2 is odd"),
    (
        "klein-mixed-labels-2",
        "generator2_odd",
        False,
        f"gen2 {_MIXED}",
    ),
    ("klein-first-both", "generator2_odd", False, "gen2 is even"),
    (
        "klein-free",
        "composition_even",
        False,
        "composition acts freely; parity indeterminate",
    ),
    ("klein-first-both", "composition_even", False, "composition is odd"),
    (
        "klein-mixed-labels-1",
        "composition_even",
        False,
        f"composition {_MIXED}",
    ),
    ("klein-template", "composition_even", True, "composition is even"),
    ("z2-odd-form", "intersection_form_even", False, "total form is even (spin)"),
    ("z2-first", "intersection_form_even", True, "total form is even (spin)"),
    (
        "z2-determinant-2",
        "intersection_form_unimodular",
        False,
        "every summand form has determinant 1 or -1",
    ),
    (
        "z2-first",
        "intersection_form_unimodular",
        True,
        "every summand form has determinant 1 or -1",
    ),
    (
        "klein-free",
        "b1_zero",
        True,
        "summands are simply connected by construction",
    ),
    (
        "klein-template",
        "operators_commute",
        True,
        "induced operators commute",
    ),
]


@pytest.mark.parametrize(
    "scenario,name,passed,detail",
    SHARED_HYPOTHESES,
    ids=[f"{scenario}-{name}" for scenario, name, _, _ in SHARED_HYPOTHESES],
)
def test_shared_hypotheses_keep_their_wording(scenario, name, passed, detail):
    s = HYPOTHESIS_SCENARIOS[scenario]
    report = check(s)
    assert tuple(h.name for h in report.hypotheses) == HYPOTHESIS_ORDER[s.group]
    assert {h.name: h for h in report.hypotheses}[name] == Hypothesis(name, passed, detail)


def test_shared_hypotheses_are_cached_per_value_not_per_scenario():
    obstruction._shared.cache_clear()
    obstruction._parity_hypothesis.cache_clear()
    # signatures 0, -16, ..., -80 and every parity class of every element
    scenarios = [z2_template(3 * k, k) for k in range(6)]
    scenarios += [klein_template(1, 2, k) for k in range(3)]
    scenarios += HYPOTHESIS_SCENARIOS.values()
    reports = [check(s) for s in scenarios]
    # even and unimodular per truth value, b1_zero, operators_commute
    assert obstruction._shared.cache_info().currsize <= 6
    # four parity hypotheses, and generator_odd at gen2 and the composition
    # for their subgroups: six, each per parity class or None
    assert obstruction._parity_hypothesis.cache_info().currsize <= 24
    b1_zero = [h for r in reports for h in r.hypotheses if h.name == "b1_zero"]
    assert b1_zero[0] is b1_zero[-1]
