import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinact._mat import identity, mat_mul, mat_neg
from spinact.equivariant_sum import (
    COMPOSITION,
    GEN1,
    GEN2,
    IDENTITY_ELEMENT,
    IDENTITY_LABEL,
    ROTATE_BOTH,
    ROTATE_FIRST,
    ROTATE_SECOND,
    ActionScenario,
    GeneratorAction,
    InvalidScenarioError,
    ScenarioFormatError,
    Summand,
    compose_labels,
    element_action,
    elements_of,
    fixed_set_data,
    homeo_invariants_equal,
    induced_cohomology_action,
    parse_scenario,
    scenario_digest,
    serialize_scenario,
    total_invariants,
    twisted_b_plus,
    validate_scenario,
)
from spinact.isometry import b_plus_invariant, commute, verify_isometry
from spinact.lattice import IntegerLattice, direct_sum_all, make_standard
from spinact.obstruction import check
from spinact.templates import klein_template, z2_template


def single_sphere(label) -> ActionScenario:
    return ActionScenario(
        "Z2", (Summand("s0", "s2xs2"),), GeneratorAction((), {"s0": label})
    )


def test_label_composition_is_the_klein_group():
    assert compose_labels(ROTATE_FIRST, ROTATE_SECOND) == ROTATE_BOTH
    assert compose_labels(ROTATE_FIRST, ROTATE_FIRST) == "identity"
    assert compose_labels(ROTATE_BOTH, ROTATE_FIRST) == ROTATE_SECOND


def test_templates_validate():
    assert validate_scenario(z2_template(3, 1)) == []
    assert validate_scenario(klein_template(3, 3, 1)) == []
    assert validate_scenario(z2_template(0, 0)) == []


def test_fixed_e8_summand_is_a_violation():
    s = ActionScenario(
        "Z2",
        (Summand("w0", "minus_e8"),),
        GeneratorAction((), {}),
    )
    codes = [v.code for v in validate_scenario(s)]
    assert "fixed_non_sphere" in codes


def test_noncommuting_permutations_are_a_violation():
    summands = tuple(Summand(f"s{i}", "s2xs2") for i in range(3))
    gen1 = GeneratorAction((("s0", "s1"),), {"s2": ROTATE_FIRST})
    gen2 = GeneratorAction((("s0", "s2"),), {"s1": ROTATE_SECOND})
    s = ActionScenario("Z2xZ2", summands, gen1, gen2)
    codes = [v.code for v in validate_scenario(s)]
    assert "noncommuting" in codes


def test_equal_generators_rejected():
    summands = (Summand("s0", "s2xs2"), Summand("s1", "s2xs2"), Summand("s2", "s2xs2"))
    gen = GeneratorAction((("s1", "s2"),), {"s0": ROTATE_FIRST})
    s = ActionScenario("Z2xZ2", summands, gen, gen)
    codes = {v.code for v in validate_scenario(s)}
    assert "identical_local_actions" in codes or "identical_swap" in codes


def test_identity_label_on_generator_rejected():
    s = single_sphere("identity")
    codes = [v.code for v in validate_scenario(s)]
    assert "trivial_generator_label" in codes


def test_missing_label_rejected():
    s = ActionScenario("Z2", (Summand("s0", "s2xs2"),), GeneratorAction((), {}))
    assert [v.code for v in validate_scenario(s)] == ["missing_label"]


def test_kind_mismatch_in_swap_rejected():
    s = ActionScenario(
        "Z2",
        (Summand("a", "s2xs2"), Summand("b", "minus_e8")),
        GeneratorAction((("a", "b"),), {}),
    )
    codes = [v.code for v in validate_scenario(s)]
    assert "kind_mismatch" in codes


def test_overlapping_pairs_rejected():
    summands = tuple(Summand(f"s{i}", "s2xs2") for i in range(3))
    gen = GeneratorAction((("s0", "s1"), ("s0", "s2")), {})
    codes = [v.code for v in validate_scenario(ActionScenario("Z2", summands, gen))]
    assert "overlapping_pairs" in codes


def test_degenerate_pair_rejected():
    s = ActionScenario(
        "Z2", (Summand("s0", "s2xs2"),), GeneratorAction((("s0", "s0"),), {})
    )
    assert "bad_pair" in [v.code for v in validate_scenario(s)]


def test_label_on_moved_summand_rejected():
    s = ActionScenario(
        "Z2",
        (Summand("s0", "s2xs2"), Summand("s1", "s2xs2")),
        GeneratorAction((("s0", "s1"),), {"s0": ROTATE_FIRST}),
    )
    assert "label_on_moved" in [v.code for v in validate_scenario(s)]


def test_unknown_ids_rejected():
    s = ActionScenario(
        "Z2",
        (Summand("s0", "s2xs2"),),
        GeneratorAction((("s0", "ghost"),), {"s0": ROTATE_FIRST}),
    )
    assert "unknown_id" in [v.code for v in validate_scenario(s)]


def test_induced_action_of_single_rotation_is_minus_identity():
    op = induced_cohomology_action(single_sphere(ROTATE_FIRST), GEN1)
    assert op.matrix == ((-1, 0), (0, -1))


def test_induced_action_of_identity_element_is_plus_identity():
    op = induced_cohomology_action(single_sphere(ROTATE_FIRST), IDENTITY_ELEMENT)
    assert op.matrix == identity(2)


def test_induced_action_of_e8_swap_is_negated_block_swap():
    s = z2_template(0, 1)
    op = induced_cohomology_action(s, GEN1)
    e8 = make_standard("minus_e8")
    assert op.lattice == direct_sum_all([e8, e8])
    for i in range(8):
        assert op.matrix[i][8 + i] == -1
        assert op.matrix[8 + i][i] == -1
    assert verify_isometry(op)


@pytest.mark.parametrize("l,k", [(0, 1), (1, 0), (3, 1), (4, 2)])
def test_induced_actions_are_involutive_isometries(l, k):
    s = z2_template(l, k)
    op = induced_cohomology_action(s, GEN1)
    assert verify_isometry(op)
    assert mat_mul(op.matrix, op.matrix) == identity(op.lattice.rank)


@pytest.mark.parametrize("l1,l2,k", [(1, 1, 1), (2, 1, 0), (3, 3, 1)])
def test_klein_generators_commute_and_are_involutive(l1, l2, k):
    s = klein_template(l1, l2, k)
    op1 = induced_cohomology_action(s, GEN1)
    op2 = induced_cohomology_action(s, GEN2)
    opc = induced_cohomology_action(s, COMPOSITION)
    assert commute(op1, op2)
    # the sign twist is per element: the product of the twisted generator
    # operators is minus the twisted operator of the composed involution
    assert mat_mul(op1.matrix, op2.matrix) == mat_neg(opc.matrix)
    for op in (op1, op2, opc):
        assert verify_isometry(op)
        assert mat_mul(op.matrix, op.matrix) == identity(op.lattice.rank)


def test_fixed_set_of_factor_rotation():
    assert fixed_set_data(single_sphere(ROTATE_FIRST), GEN1).components == ((2, 2),)


def test_fixed_set_of_double_rotation():
    fs = fixed_set_data(single_sphere(ROTATE_BOTH), GEN1)
    assert fs.components == ((0, 4),)
    assert (fs.n_plus, fs.n_minus) == (2, 2)


def test_fixed_set_override():
    s = ActionScenario(
        "Z2",
        (Summand("s0", "s2xs2"),),
        GeneratorAction((), {"s0": ROTATE_BOTH}, {"s0": (4, 0)}),
    )
    assert validate_scenario(s) == []
    fs = fixed_set_data(s, GEN1)
    assert (fs.n_plus, fs.n_minus) == (4, 0)


def test_override_must_split_four_points():
    s = ActionScenario(
        "Z2",
        (Summand("s0", "s2xs2"),),
        GeneratorAction((), {"s0": ROTATE_BOTH}, {"s0": (3, 0)}),
    )
    assert "bad_override" in [v.code for v in validate_scenario(s)]


def test_stale_override_rejected():
    s = ActionScenario(
        "Z2",
        (Summand("s0", "s2xs2"),),
        GeneratorAction((), {"s0": ROTATE_FIRST}, {"s0": (2, 2)}),
    )
    assert "stale_override" in [v.code for v in validate_scenario(s)]


def test_fixed_set_of_free_element_is_empty():
    s = z2_template(0, 2)
    fs = fixed_set_data(s, GEN1)
    assert fs.components == ()
    assert fs.n_plus is None


def test_fixed_set_of_identity_element_errors():
    with pytest.raises(ValueError):
        fixed_set_data(z2_template(1, 0), IDENTITY_ELEMENT)


def test_klein_composition_fixed_set_is_four_points_on_core():
    s = klein_template(2, 3, 1)
    fs = fixed_set_data(s, COMPOSITION)
    assert fs.components == ((0, 4),)
    assert (fs.n_plus, fs.n_minus) == (2, 2)


def test_fixed_sets_invariant_under_relabelling():
    s = klein_template(2, 2, 1)
    renamed = ActionScenario(
        s.group,
        tuple(Summand("x" + sm.id, sm.kind, sm.custom_form) for sm in s.summands),
        GeneratorAction(
            tuple(("x" + a, "x" + b) for a, b in s.gen1.permutation),
            {"x" + i: lbl for i, lbl in s.gen1.local.items()},
        ),
        GeneratorAction(
            tuple(("x" + a, "x" + b) for a, b in s.gen2.permutation),
            {"x" + i: lbl for i, lbl in s.gen2.local.items()},
        ),
    )
    for element in (GEN1, GEN2, COMPOSITION):
        a = fixed_set_data(s, element)
        b = fixed_set_data(renamed, element)
        assert a.components == b.components
        assert (a.n_plus, a.n_minus) == (b.n_plus, b.n_minus)


def test_total_invariants_examples():
    assert total_invariants(z2_template(3, 1)) == total_invariants(z2_template(3, 1))
    inv = total_invariants(z2_template(3, 1))
    assert (inv.b2, inv.signature, inv.even) == (22, -16, True)
    inv2 = total_invariants(klein_template(3, 3, 1))
    assert (inv2.b2, inv2.signature, inv2.even) == (58, -32, True)
    empty = ActionScenario("Z2", (), GeneratorAction())
    assert total_invariants(empty) == total_invariants(empty)
    assert (total_invariants(empty).b2, total_invariants(empty).signature) == (0, 0)
    assert total_invariants(empty).even


def test_homeo_invariants_k3_versus_spheres_and_e8():
    k3 = make_standard("k3")
    h = make_standard("s2xs2")
    e8 = make_standard("minus_e8")
    for k in range(1, 5):
        left = direct_sum_all([k3] * k)
        right = direct_sum_all([h] * (3 * k) + [e8] * (2 * k))
        assert homeo_invariants_equal(left, right)
    assert not homeo_invariants_equal(h, e8)


def test_homeo_invariants_scenario_versus_lattice():
    s = z2_template(3, 1)
    assert homeo_invariants_equal(s, make_standard("k3"))


@pytest.mark.parametrize("l,k", [(l, k) for l in range(1, 5) for k in range(1, 5)])
def test_z2_family_b_plus_invariant_vanishes(l, k):
    s = z2_template(l, k)
    assert b_plus_invariant([induced_cohomology_action(s, GEN1)]) == 0


@pytest.mark.parametrize(
    "l1,l2,k", [(l1, l2, k) for l1 in (1, 4) for l2 in (1, 4) for k in (1, 4)]
)
def test_klein_family_b_plus_invariant_vanishes(l1, l2, k):
    s = klein_template(l1, l2, k)
    ops = [
        induced_cohomology_action(s, GEN1),
        induced_cohomology_action(s, GEN2),
    ]
    assert b_plus_invariant(ops) == 0


@given(st.integers(0, 3), st.integers(0, 3))
def test_z2_serialization_round_trip(l, k):
    s = z2_template(l, k)
    text = serialize_scenario(s)
    again = parse_scenario(text)
    assert again == s
    assert serialize_scenario(again) == text
    assert scenario_digest(again) == scenario_digest(s)


@given(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
def test_klein_serialization_round_trip(l1, l2, k):
    s = klein_template(l1, l2, k)
    assert parse_scenario(serialize_scenario(s)) == s


def test_custom_summand_round_trip():
    from spinact.lattice import IntegerLattice

    custom = IntegerLattice(((0, 1), (1, 0)))
    s = ActionScenario(
        "Z2",
        (
            Summand("c0", "custom", custom),
            Summand("c1", "custom", custom),
            Summand("s", "s2xs2"),
        ),
        GeneratorAction((("c0", "c1"),), {"s": ROTATE_FIRST}),
    )
    assert validate_scenario(s) == []
    assert parse_scenario(serialize_scenario(s)) == s


def test_parse_errors_name_the_field():
    with pytest.raises(ScenarioFormatError) as err:
        parse_scenario("{not json")
    assert err.value.field_name == "document"
    with pytest.raises(ScenarioFormatError) as err:
        parse_scenario('{"schema_version": 99}')
    assert err.value.field_name == "schema_version"
    with pytest.raises(ScenarioFormatError) as err:
        parse_scenario('{"schema_version": 1, "group": "Z5"}')
    assert err.value.field_name == "group"
    with pytest.raises(ScenarioFormatError) as err:
        parse_scenario(
            '{"schema_version": 1, "group": "Z2", "summands": [{"id": "a", "kind": "nope"}]}'
        )
    assert err.value.field_name == "summands"


def test_invalid_scenario_error_lists_violations():
    s = ActionScenario("Z2", (Summand("s0", "s2xs2"),), GeneratorAction((), {}))
    with pytest.raises(InvalidScenarioError) as err:
        induced_cohomology_action(s, GEN1)
    assert err.value.violations


@st.composite
def z2_scenarios(draw):
    """Random valid single-involution scenarios: labelled spheres plus
    swapped pairs of arbitrary kinds."""
    labels = draw(
        st.lists(
            st.sampled_from([ROTATE_FIRST, ROTATE_SECOND, ROTATE_BOTH]), max_size=4
        )
    )
    pair_kinds = draw(
        st.lists(st.sampled_from(["s2xs2", "minus_e8", "k3"]), max_size=3)
    )
    summands, perm, local, overrides = [], [], {}, {}
    for i, lbl in enumerate(labels):
        sid = f"f{i}"
        summands.append(Summand(sid, "s2xs2"))
        local[sid] = lbl
        if lbl == ROTATE_BOTH and draw(st.booleans()):
            n_plus = draw(st.integers(0, 4))
            overrides[sid] = (n_plus, 4 - n_plus)
    for i, kind in enumerate(pair_kinds):
        a, b = f"p{i}a", f"p{i}b"
        summands += [Summand(a, kind), Summand(b, kind)]
        perm.append((a, b))
    return ActionScenario(
        "Z2", tuple(summands), GeneratorAction(tuple(perm), local, overrides)
    )


def assert_checker_premises(s):
    """What the checker reads off a valid scenario without re-deriving it:
    no element carries the identity label, the generator permutations
    commute, and an even form whose summand determinants are all 1 or -1
    has signature divisible by 8 (Serre, A Course in Arithmetic, ch. V)."""
    for element in elements_of(s.group):
        assert IDENTITY_LABEL not in element_action(s, element)[1].values()
    if s.gen2 is not None:
        p1, p2 = element_action(s, GEN1)[0], element_action(s, GEN2)[0]
        assert all(p1[p2[i]] == p2[p1[i]] for i in p1)
    report = check(s)
    passed = {h.name: h.passed for h in report.hypotheses}
    if passed["intersection_form_even"] and passed["intersection_form_unimodular"]:
        assert report.signature % 8 == 0


@given(z2_scenarios())
@settings(max_examples=40, deadline=None)
def test_random_scenarios_validate_round_trip_and_induce_isometries(s):
    assert validate_scenario(s) == []
    assert_checker_premises(s)
    assert parse_scenario(serialize_scenario(s)) == s
    op = induced_cohomology_action(s, GEN1)
    assert verify_isometry(op)
    assert mat_mul(op.matrix, op.matrix) == identity(op.lattice.rank)
    if s.gen1.local:
        fst = fixed_set_data(s, GEN1)
        total_points = sum(c for d, c in fst.components if d == 0)
        if fst.n_plus is not None:
            assert fst.n_plus + fst.n_minus == total_points


def with_free_orbits(s, kinds):
    """A Klein scenario plus one free orbit of four summands per kind, each
    "k3" or "hyperbolic" (a custom hyperbolic plane)."""
    summands, perm1, perm2 = list(s.summands), list(s.gen1.permutation), list(s.gen2.permutation)
    for n, kind in enumerate(kinds):
        ids = [f"o{n}_{j}" for j in range(4)]
        if kind == "hyperbolic":
            summands += [Summand(i, "custom", IntegerLattice(((0, 1), (1, 0)))) for i in ids]
        else:
            summands += [Summand(i, kind) for i in ids]
        perm1 += [(ids[0], ids[1]), (ids[2], ids[3])]
        perm2 += [(ids[0], ids[2]), (ids[1], ids[3])]
    return ActionScenario(
        s.group,
        tuple(summands),
        GeneratorAction(tuple(perm1), dict(s.gen1.local)),
        GeneratorAction(tuple(perm2), dict(s.gen2.local)),
    )


@st.composite
def klein_scenarios(draw):
    """Random valid Klein scenarios: a relabelled, reordered template plus
    free orbits of custom hyperbolic summands."""
    base = klein_template(
        draw(st.integers(0, 2)), draw(st.integers(0, 2)), draw(st.integers(0, 1))
    )
    s = with_free_orbits(base, draw(st.lists(st.just("hyperbolic"), max_size=2)))
    name = {sm.id: f"x{i}" for i, sm in enumerate(draw(st.permutations(s.summands)))}
    gens = [
        GeneratorAction(
            tuple((name[a], name[b]) for a, b in gen.permutation),
            {name[i]: lbl for i, lbl in gen.local.items()},
        )
        for gen in (s.gen1, s.gen2)
    ]
    summands = sorted(
        (Summand(name[sm.id], sm.kind, sm.custom_form) for sm in s.summands),
        key=lambda sm: sm.id,
    )
    return ActionScenario(s.group, tuple(summands), *gens)


def _dense_b_plus(s, elements):
    return b_plus_invariant([induced_cohomology_action(s, e) for e in elements])


@given(z2_scenarios())
@settings(max_examples=15, deadline=None)
def test_twisted_b_plus_matches_dense_engine_z2(s):
    assert twisted_b_plus(s, [GEN1]) == _dense_b_plus(s, [GEN1])


@given(klein_scenarios())
@example(with_free_orbits(klein_template(0, 0, 0), ["k3"]))
@settings(max_examples=10, deadline=None)
def test_twisted_b_plus_matches_dense_engine_klein(s):
    assert validate_scenario(s) == []
    assert_checker_premises(s)
    # every subset the checker and the invariants report read
    for elements in ([GEN1], [GEN2], [COMPOSITION], [GEN1, GEN2], [GEN1, GEN2, COMPOSITION]):
        assert twisted_b_plus(s, elements) == _dense_b_plus(s, elements)


def test_twisted_b_plus_rejects_identity_and_empty_sets():
    s = klein_template(1, 1, 0)
    for elements in ([], [IDENTITY_ELEMENT], [GEN1, IDENTITY_ELEMENT]):
        with pytest.raises(ValueError):
            twisted_b_plus(s, elements)
    with pytest.raises(ValueError):
        twisted_b_plus(z2_template(1, 0), [GEN2])
