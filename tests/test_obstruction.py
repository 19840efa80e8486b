from fractions import Fraction

import pytest

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
    require_valid,
    scenario_lattice,
    validate_scenario,
)
from spinact.index_parity import k_klein
from spinact.lattice import IntegerLattice, is_even, signature_profile
from spinact.obstruction import (
    NONSMOOTHABLE,
    NO_OBSTRUCTION,
    SMOOTHABLE_BY_CONSTRUCTION,
    UNKNOWN,
    Hypothesis,
    check,
)
from spinact.rep_ring import bk_trace_and_integrality
from spinact.templates import (
    NO_SMOOTH_STRUCTURE,
    klein_template,
    recognize_klein_template,
    smooth_structure,
    z2_template,
)


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
    parities = {fs.element: fs.parity.value for fs in report.elements}
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


def test_klein_asymmetric_points_shift_the_bound():
    # overriding the sign split makes the twisted index nonzero and the
    # bound larger in absolute value via the sign maximum
    s = klein_template(3, 3, 1)
    gen1 = GeneratorAction(s.gen1.permutation, dict(s.gen1.local), {"core": (4, 0)})
    s2 = ActionScenario(s.group, s.summands, gen1, s.gen2)
    report = check(s2)
    assert report.index_twisted == 2
    assert report.k == Fraction(5, 4)
    assert report.verdict == NONSMOOTHABLE


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


def test_subgroup_hints_on_template():
    s = klein_template(3, 3, 1)
    hints = dict(check(s).subgroup_hints)
    for sub in ("gen1", "gen2", "diagonal"):
        assert hints[sub] == SMOOTHABLE_BY_CONSTRUCTION
    hints = dict(check(klein_template(3, 2, 1)).subgroup_hints)
    for sub in ("gen1", "gen2", "diagonal"):
        assert hints[sub] == UNKNOWN


def test_subgroup_hint_never_claims_off_template():
    # a hand-built commuting action that is not the template shape: two
    # jointly rotated cores
    summands = (Summand("c1", "s2xs2"), Summand("c2", "s2xs2"))
    gen1 = GeneratorAction((), {"c1": ROTATE_FIRST, "c2": ROTATE_FIRST})
    gen2 = GeneratorAction((), {"c1": ROTATE_SECOND, "c2": ROTATE_SECOND})
    s = ActionScenario("Z2xZ2", summands, gen1, gen2)
    assert dict(check(s).subgroup_hints)["gen1"] == UNKNOWN
    # the template with its core doubly rotated by gen2 is valid but off shape
    t = klein_template(3, 3, 1)
    local2 = {**t.gen2.local, "core": ROTATE_BOTH}
    s = ActionScenario(t.group, t.summands, t.gen1, GeneratorAction(t.gen2.permutation, local2))
    assert validate_scenario(s) == []
    assert recognize_klein_template(require_valid(s)) is None
    assert check(s).subgroup_hints == tuple((sub, UNKNOWN) for sub in ("gen1", "gen2", "diagonal"))


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
    # klein_template(3, 3, 1) plus one free orbit of four sphere products,
    # with the core's four isolated points all positive: the index is 2 for
    # one choice of lifts and -2 for the other, and b = 1 lies between the
    # two bounds
    base = klein_template(3, 3, 1)
    orbit = tuple(Summand(f"f{i}", S2XS2) for i in range(4))
    gen1 = GeneratorAction(
        base.gen1.permutation + (("f0", "f1"), ("f2", "f3")),
        base.gen1.local,
        {"core": (4, 0)},
    )
    gen2 = GeneratorAction(
        base.gen2.permutation + (("f0", "f2"), ("f1", "f3")), base.gen2.local
    )
    report = check(ActionScenario(Z2XZ2, base.summands + orbit, gen1, gen2))
    assert report.all_hypotheses_pass
    assert (report.b2, report.signature) == (66, -32)
    assert report.b == 1 and report.index_twisted == 2
    assert k_klein(report.signature, -2) == Fraction(3, 4) <= report.b
    assert report.k == k_klein(report.signature, 2) == Fraction(5, 4) > report.b
    assert report.verdict == NONSMOOTHABLE


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


# (scenario, hypothesis, passed, detail)
SHARED_HYPOTHESES = [
    ("z2-free", "generator_odd", False, "gen1 acts freely; parity indeterminate"),
    ("z2-first", "generator_odd", True, "gen1 is odd"),
    (
        "z2-mixed-labels",
        "generator_odd",
        True,
        "gen1 is odd (mixed fixed-set dimensions; 2-dimensional clause applied)",
    ),
    ("z2-both", "generator_odd", False, "gen1 is even"),
    ("klein-free", "generator1_odd", False, "gen1 acts freely; parity indeterminate"),
    ("klein-template", "generator1_odd", True, "gen1 is odd"),
    (
        "klein-mixed-labels-1",
        "generator1_odd",
        True,
        "gen1 is odd (mixed fixed-set dimensions; 2-dimensional clause applied)",
    ),
    ("klein-both-first", "generator1_odd", False, "gen1 is even"),
    ("klein-free", "generator2_odd", False, "gen2 acts freely; parity indeterminate"),
    ("klein-template", "generator2_odd", True, "gen2 is odd"),
    (
        "klein-mixed-labels-2",
        "generator2_odd",
        True,
        "gen2 is odd (mixed fixed-set dimensions; 2-dimensional clause applied)",
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
        "composition is odd (mixed fixed-set dimensions; 2-dimensional clause applied)",
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
