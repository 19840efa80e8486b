import io
import itertools
import json
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinact import cli
from spinact._mat import identity, mat_mul, mat_neg
from spinact.equivariant_sum import (
    CUSTOM,
    COMPOSITION,
    GEN1,
    GEN2,
    IDENTITY_ELEMENT,
    IDENTITY_LABEL,
    MOVED,
    ROTATE_BOTH,
    ROTATE_FIRST,
    ROTATE_SECOND,
    ActionScenario,
    GeneratorAction,
    KINDS,
    LABELS,
    InvalidScenarioError,
    ScenarioFormatError,
    Summand,
    TotalInvariants,
    ValidScenario,
    Violation,
    _type_key,
    compose_labels,
    induced_cohomology_action,
    parse_scenario,
    require_valid,
    scenario_digest,
    scenario_lattice,
    serialize_scenario,
    validate_scenario,
)
from spinact.isometry import b_plus_invariant, commute, verify_isometry
from spinact.lattice import (
    IntegerLattice,
    direct_sum_all,
    is_even,
    make_standard,
    signature_profile,
)
from spinact.obstruction import (
    NO_OBSTRUCTION,
    NONSMOOTHABLE,
    SMOOTHABLE_BY_CONSTRUCTION,
    check,
)
from spinact.templates import klein_template, z2_template

from oracles import (
    element_action,
    elements_of,
    fixed_set_reference,
    restricted_scenario,
    subgroup_answer_reference,
    validate_scenario_reference,
)


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


def test_templates_reject_negative_parameters():
    for build, params in ((z2_template, (-1, 0)), (klein_template, (0, 0, -1))):
        with pytest.raises(ValueError, match="^template parameters must be nonnegative$"):
            build(*params)


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


def test_a_klein_scenario_without_generator2_is_missing_gen2():
    s = ActionScenario("Z2xZ2", (Summand("s0", "s2xs2"),), single_sphere(ROTATE_FIRST).gen1)
    expected = [Violation("missing_gen2", "Z2xZ2 scenario needs generator2")]
    assert validate_scenario(s) == expected == validate_scenario_reference(s)[0]


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


@pytest.mark.parametrize("pair", [("a", "b", "c"), ("a",)], ids=["three-ids", "one-id"])
def test_a_pair_of_other_than_two_ids_is_a_bad_pair(pair):
    # the parser admits only id pairs; a generator built in code may hold others
    s = ActionScenario(
        "Z2",
        tuple(Summand(i, "s2xs2") for i in "abc"),
        GeneratorAction((pair,), {i: ROTATE_FIRST for i in "abc"}),
    )
    expected = [Violation("bad_pair", f"gen1: permutation pair {pair!r} is degenerate")]
    assert validate_scenario(s) == expected == validate_scenario_reference(s)[0]
    with pytest.raises(InvalidScenarioError) as err:
        require_valid(s)
    assert list(err.value.violations) == expected


def test_the_element_table_holds_the_images_of_moved_ids_only():
    # klein_template(3, 3, 1): each generator swaps the other's chain pairs
    # (6 ids) and two pairs of E8 summands; the composition moves both
    # chains and all four E8 summands; every element fixes the core
    s = klein_template(3, 3, 1)
    table = require_valid(s).table
    assert [len(images) for images, _ in table.values()] == [10, 10, 16]
    assert not any("core" in images for images, _ in table.values())
    assert table == {e: element_action(s, e) for e in elements_of(s.group)}


def test_an_action_is_read_only_from_the_element_table():
    v = require_valid(z2_template(3, 1))
    assert v.action(GEN1) is v.table[GEN1]
    for element in (GEN2, COMPOSITION, IDENTITY_ELEMENT, "gen3"):
        with pytest.raises(ValueError, match="not a non-identity element of this Z2"):
            v.action(element)


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
    fs = require_valid(single_sphere(ROTATE_FIRST)).fixed_set(GEN1)
    assert fs.components == ((2, 2),)


def test_fixed_set_of_double_rotation():
    fs = require_valid(single_sphere(ROTATE_BOTH)).fixed_set(GEN1)
    assert fs.components == ((0, 4),)
    assert (fs.n_plus, fs.n_minus) == (2, 2)


def _jointly_fixed_spheres(ids) -> ActionScenario:
    """A Klein scenario of spheres that both generators fix, gen1 rotating
    the first factor and gen2 the second, so the composition rotates both."""
    return ActionScenario(
        "Z2xZ2",
        tuple(Summand(i, "s2xs2") for i in ids),
        GeneratorAction((), dict.fromkeys(ids, ROTATE_FIRST)),
        GeneratorAction((), dict.fromkeys(ids, ROTATE_SECOND)),
    )


def test_fixed_set_of_free_element_is_empty():
    s = z2_template(0, 2)
    fs = require_valid(s).fixed_set(GEN1)
    assert fs.components == ()
    assert fs.n_plus is None


def test_fixed_set_of_identity_element_errors():
    valid = require_valid(z2_template(1, 0))
    with pytest.raises(ValueError):
        valid.fixed_set(IDENTITY_ELEMENT)


def test_labels_edited_after_validation_move_no_derived_fact():
    s = z2_template(2, 1)
    v = require_valid(s)
    s.gen1.local["s0"] = ROTATE_BOTH
    assert v.action(GEN1)[1] == {"s0": ROTATE_FIRST, "s1": ROTATE_FIRST}
    assert v.fixed_set(GEN1) == require_valid(z2_template(2, 1)).fixed_set(GEN1)
    assert v.fixed_set(GEN1).components == ((2, 3),)


def test_klein_composition_fixed_set_is_four_points_on_core():
    s = klein_template(2, 3, 1)
    fs = require_valid(s).fixed_set(COMPOSITION)
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
    valid, valid_renamed = require_valid(s), require_valid(renamed)
    for element in (GEN1, GEN2, COMPOSITION):
        a = valid.fixed_set(element)
        b = valid_renamed.fixed_set(element)
        assert a.components == b.components
        assert (a.n_plus, a.n_minus) == (b.n_plus, b.n_minus)


def test_total_invariants_examples():
    inv = require_valid(z2_template(3, 1)).totals()
    assert inv == require_valid(z2_template(3, 1)).totals()
    assert (inv.b2, inv.signature, inv.even) == (22, -16, True)
    inv2 = require_valid(klein_template(3, 3, 1)).totals()
    assert (inv2.b2, inv2.signature, inv2.even) == (58, -32, True)
    empty = ActionScenario("Z2", (), GeneratorAction())
    inv0 = require_valid(empty).totals()
    assert inv0 == require_valid(empty).totals()
    assert (inv0.b2, inv0.signature, inv0.even) == (0, 0, True)


def _lattice_totals(lat) -> TotalInvariants:
    return TotalInvariants(lat.rank, signature_profile(lat).signature, is_even(lat))


def test_homeo_invariants_k3_versus_spheres_and_e8():
    k3 = make_standard("k3")
    h = make_standard("s2xs2")
    e8 = make_standard("minus_e8")
    for k in range(1, 5):
        left = _lattice_totals(direct_sum_all([k3] * k))
        right = _lattice_totals(direct_sum_all([h] * (3 * k) + [e8] * (2 * k)))
        assert left == right == TotalInvariants(22 * k, -16 * k, True)
    assert _lattice_totals(h) != _lattice_totals(e8)


def test_homeo_invariants_scenario_versus_lattice():
    totals = require_valid(z2_template(3, 1)).totals()
    assert totals == _lattice_totals(make_standard("k3"))


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


def test_the_lattice_of_a_custom_summand_without_a_form_names_it():
    s = ActionScenario("Z2", (Summand("c", CUSTOM),), GeneratorAction())
    with pytest.raises(ScenarioFormatError) as err:
        scenario_lattice(s)
    assert str(err.value) == "c: custom summand needs a gram matrix"
    assert err.value.field_name == "c"


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
    summands, perm, local = [], [], {}
    for i, lbl in enumerate(labels):
        sid = f"f{i}"
        summands.append(Summand(sid, "s2xs2"))
        local[sid] = lbl
    for i, kind in enumerate(pair_kinds):
        a, b = f"p{i}a", f"p{i}b"
        summands += [Summand(a, kind), Summand(b, kind)]
        perm.append((a, b))
    return ActionScenario("Z2", tuple(summands), GeneratorAction(tuple(perm), local))


def assert_checker_premises(s):
    """What the checker reads off a valid scenario without re-deriving it:
    no element carries the identity label, the generator permutations
    commute, and an even form whose summand determinants are all 1 or -1
    has signature divisible by 8 (Serre, A Course in Arithmetic, ch. V)."""
    for element in elements_of(s.group):
        assert IDENTITY_LABEL not in element_action(s, element)[1].values()
    if s.gen2 is not None:
        ids = [sm.id for sm in s.summands]
        p1, p2 = (
            {i: element_action(s, g)[0].get(i, i) for i in ids} for g in (GEN1, GEN2)
        )
        assert all(p1[p2[i]] == p2[p1[i]] for i in ids)
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
        fst = require_valid(s).fixed_set(GEN1)
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


@given(st.one_of(z2_scenarios(), klein_scenarios()))
@example(_jointly_fixed_spheres(("s0", "s1")))
@settings(max_examples=60, deadline=None)
def test_the_verdict_is_the_fraction_comparison_of_b_and_k(s):
    report = check(s)
    below = report.b < report.k  # an int against a Fraction
    assert report.verdict == (
        NONSMOOTHABLE if below and report.all_hypotheses_pass else NO_OBSTRUCTION
    )


@given(st.one_of(z2_scenarios(), klein_scenarios()))
@example(_jointly_fixed_spheres(("s0", "s1")))
@settings(max_examples=40, deadline=None)
def test_isolated_points_split_evenly_and_the_index_is_zero(s):
    """Every rotate_both piece splits its four points two and two, so each
    element's points do, and the twisted index is 0 when the composition
    has isolated fixed points only, None otherwise (obstruction.k_klein)."""
    report = check(s)
    for fs in report.elements:
        assert fs.n_plus == fs.n_minus
        if fs.n_plus is not None:
            assert fs.components == ((0, 2 * fs.n_plus),)
    composition = report.elements[2:]
    points_only = composition and composition[0].n_plus is not None
    assert report.index_twisted == (0 if points_only else None)


def _core_doubly_rotated_by_gen2(s: ActionScenario) -> ActionScenario:
    """Klein template `s` with gen2 rotating both factors of the core, so
    gen2 fixes surfaces and points and the composition rotates the core's
    second factor."""
    local2 = {**s.gen2.local, "core": ROTATE_BOTH}
    return ActionScenario(s.group, s.summands, s.gen1, GeneratorAction(s.gen2.permutation, local2))


@given(st.one_of(z2_scenarios(), klein_scenarios()))
@example(_jointly_fixed_spheres(("s0", "s1")))
@example(with_free_orbits(klein_template(2, 1, 1), ["hyperbolic", "k3"]))
@example(_core_doubly_rotated_by_gen2(klein_template(1, 2, 1)))
@settings(max_examples=40, deadline=None)
def test_a_fixed_set_of_one_kind_has_the_lefschetz_number_as_euler_characteristic(s):
    """chi(Fix g) = L(g) = 2 + tr(g*) on H2, the pullback g* being minus
    the twisted operator, for every element whose fixed set is nonempty and
    of one kind. A mixed set belongs to no spin involution, and an empty one
    leaves the kind of the fixed set that a flipped neck carries open."""
    v = require_valid(s)
    for element in v.table:
        fs = v.fixed_set(element)
        if len(fs.components) != 1:
            continue
        ((dim, count),) = fs.components
        op = induced_cohomology_action(s, element).matrix
        trace = -sum(op[i][i] for i in range(len(op)))
        assert (2 * count if dim == 2 else count) == 2 + trace


@given(klein_scenarios())
@example(_core_doubly_rotated_by_gen2(klein_template(3, 3, 1)))
@example(_core_doubly_rotated_by_gen2(klein_template(0, 0, 1)))
@example(with_free_orbits(klein_template(1, 0, 1), ["k3", "hyperbolic"]))
@example(with_free_orbits(klein_template(3, 3, 1), ["k3"]))
@settings(max_examples=30, deadline=None)
def test_subgroup_answers_match_restricted_scenarios_and_dense_halves(s):
    """Each proper subgroup's answer against its restricted Z2 scenario,
    which validates and whose b is b_plus of the generator, and against the
    half X_e of what the generator swaps, summed id by id into a dense form."""
    v = require_valid(s)
    answers = check(s).subgroup_hints
    assert [sub for sub, _ in answers] == ["gen1", "gen2", "diagonal"]
    for (_, answer), element in zip(answers, v.table):
        restricted = restricted_scenario(s, element)
        assert validate_scenario(restricted) == []
        assert check(restricted).b == v.b_plus([element])
        assert answer == subgroup_answer_reference(s, element)


def _dense_b_plus(s, elements):
    return b_plus_invariant([induced_cohomology_action(s, e) for e in elements])


@given(z2_scenarios())
@settings(max_examples=15, deadline=None)
def test_twisted_b_plus_matches_dense_engine_z2(s):
    assert require_valid(s).b_plus([GEN1]) == _dense_b_plus(s, [GEN1])


@given(klein_scenarios())
@example(with_free_orbits(klein_template(0, 0, 0), ["k3"]))
@settings(max_examples=10, deadline=None)
def test_twisted_b_plus_matches_dense_engine_klein(s):
    assert validate_scenario(s) == []
    assert_checker_premises(s)
    # every subset the checker and the invariants report read
    for elements in ([GEN1], [GEN2], [COMPOSITION], [GEN1, GEN2], [GEN1, GEN2, COMPOSITION]):
        assert require_valid(s).b_plus(elements) == _dense_b_plus(s, elements)


@given(st.one_of(z2_scenarios(), klein_scenarios()))
@example(with_free_orbits(klein_template(1, 0, 1), ["k3", "hyperbolic"]))
@settings(max_examples=20, deadline=None)
def test_element_table_matches_element_action_and_the_dense_oracle(s):
    valid = require_valid(s)
    table = valid.table
    assert list(table) == list(elements_of(s.group))
    for element in elements_of(s.group):
        assert table[element] == element_action(s, element)
    report = check(s)
    generators = [GEN1] if s.gen2 is None else [GEN1, GEN2]
    assert report.b == _dense_b_plus(s, generators)
    if s.gen2 is not None:
        # pairs whose product may fix an orbit, which then has two ids
        for elements in ([GEN1, COMPOSITION], [GEN2, COMPOSITION]):
            assert valid.b_plus(elements) == _dense_b_plus(s, elements)
    assert [fs.element for fs in report.elements] == list(table)
    assert report.elements == tuple(map(valid.fixed_set, table))


_KLEIN_GENS = (klein_template(1, 1, 1).gen1, klein_template(1, 1, 1).gen2)
# klein_template(1, 1, 0) with two E8 pairs between its spheres: gen2
# swaps x0, x1 and gen1 fixes them, gen1 swaps y0, y1 and gen2 fixes
# them, so fixed_non_sphere names x0, x1 for gen1, then y1, y0 for gen2
_KLEIN_110 = klein_template(1, 1, 0)
_FIXED_E8_PAIRS = ActionScenario(
    "Z2xZ2",
    tuple(
        Summand(i, "minus_e8" if i[0] in "xy" else "s2xs2")
        for i in ("x0", "core", "y1", "a0", "x1", "a1", "y0", "b0", "b1")
    ),
    GeneratorAction(
        _KLEIN_110.gen1.permutation + (("y0", "y1"),), _KLEIN_110.gen1.local
    ),
    GeneratorAction(
        _KLEIN_110.gen2.permutation + (("x0", "x1"),), _KLEIN_110.gen2.local
    ),
)


def _mutated(draw, s):
    """`s` with up to three edits, each aimed at one violation code."""
    summands = list(s.summands)
    gens = [
        [list(g.permutation), dict(g.local)]
        for g in (s.gen1, s.gen2)
        if g is not None
    ]
    group = s.group
    for _ in range(draw(st.sampled_from([1, 1, 1, 2, 3, 0]))):
        ids = [sm.id for sm in summands]
        some_id = st.sampled_from(ids) if ids else st.just("s0")
        perm, local = draw(st.sampled_from(gens))
        fresh = f"m{len(summands)}"
        edit = draw(
            st.sampled_from(
                [
                    "duplicate_id", "unknown_id", "degenerate_pair", "overlapping_pairs",
                    "kind_mismatch", "label_on_moved", "label_on_non_sphere",
                    "missing_label", "unknown_label", "identity_label", "identical_swap",
                    "identical_labels", "noncommuting", "fixed_non_sphere",
                    "unknown_kind", "missing_gram", "group",
                ]
            )
        )
        if edit == "duplicate_id" and summands:
            summands.append(draw(st.sampled_from(summands)))
        elif edit == "unknown_id":
            if draw(st.booleans()):
                perm.append((draw(some_id), "ghost"))
            else:
                local["ghost"] = ROTATE_FIRST
        elif edit == "degenerate_pair":
            x = draw(some_id)
            perm.append((x, x))
        elif edit == "overlapping_pairs" and perm:
            perm.append((draw(st.sampled_from(perm))[0], draw(some_id)))
        elif edit == "kind_mismatch":
            summands += [Summand(fresh, "s2xs2"), Summand(fresh + "e", "minus_e8")]
            perm.append((fresh, fresh + "e"))
        elif edit == "label_on_moved" and perm:
            local[draw(st.sampled_from(perm))[1]] = draw(st.sampled_from(LABELS))
        elif edit == "label_on_non_sphere":
            summands.append(Summand(fresh, draw(st.sampled_from(["minus_e8", "k3"]))))
            local[fresh] = ROTATE_BOTH
        elif edit == "missing_label" and local:
            del local[draw(st.sampled_from(sorted(local)))]
        elif edit == "unknown_label" and ids:
            local[draw(some_id)] = "rotate_sideways"
        elif edit == "identity_label" and local:
            local[draw(st.sampled_from(sorted(local)))] = IDENTITY_LABEL
        elif edit == "identical_swap" and len(gens) == 2:
            summands += [Summand(fresh, "s2xs2"), Summand(fresh + "b", "s2xs2")]
            for g in gens:
                g[0].append((fresh, fresh + "b"))
        elif edit == "identical_labels" and len(gens) == 2:
            shared = sorted(gens[0][1].keys() & gens[1][1].keys())
            if shared:
                i = draw(st.sampled_from(shared))
                gens[1][1][i] = gens[0][1][i]
        elif edit == "noncommuting" and len(gens) == 2:
            a, b, c = fresh + "a", fresh + "b", fresh + "c"
            summands += [Summand(x, "s2xs2") for x in (a, b, c)]
            gens[0][0].append((a, b))
            gens[0][1][c] = ROTATE_FIRST
            gens[1][0].append((b, c))
            gens[1][1][a] = ROTATE_SECOND
        elif edit == "fixed_non_sphere":
            summands.append(Summand(fresh, "minus_e8"))
        elif edit == "unknown_kind" and summands:
            n = draw(st.integers(0, len(summands) - 1))
            summands[n] = Summand(summands[n].id, "torus")
        elif edit == "missing_gram" and summands:
            n = draw(st.integers(0, len(summands) - 1))
            summands[n] = Summand(summands[n].id, CUSTOM)
        elif edit == "group":
            group = draw(st.sampled_from(["Z2", "Z2xZ2", "Z3"]))
    generators = [GeneratorAction(tuple(p), l) for p, l in gens]
    return ActionScenario(group, tuple(summands), *generators)


@st.composite
def mutated_scenarios(draw):
    return _mutated(draw, draw(st.one_of(z2_scenarios(), klein_scenarios())))


def _spheres_and(extra, permutation, local) -> ActionScenario:
    """A Z2 scenario of spheres s0, s1, s2 then `extra` (id, kind) summands."""
    summands = [Summand(i, "s2xs2") for i in ("s0", "s1", "s2")]
    summands += [Summand(i, kind) for i, kind in extra]
    return ActionScenario("Z2", tuple(summands), GeneratorAction(permutation, local))


# scenarios with a violation in which the labels still number the fixed
# spheres (spheres minus twice the pairs whose first id is a sphere), so
# only the violation found first sends validation on to the missing-label
# scan that names s2
_COUNTS_MATCH_BESIDE_A_VIOLATION = (
    # s0 is moved and labelled, s2 is fixed and unlabelled: 3 - 2 = 1 label
    _spheres_and((), (("s0", "s1"),), {"s0": ROTATE_FIRST}),
    # s1 pairs with a minus_e8, which counts as a pair of spheres: 3 - 2 = 1
    _spheres_and((("w0", "minus_e8"),), (("s1", "w0"),), {"s0": ROTATE_FIRST}),
    # a label on an unknown id stands in for s2's: 3 - 0 = 3 labels
    _spheres_and((), (), {"s0": ROTATE_FIRST, "s1": ROTATE_FIRST, "ghost": ROTATE_FIRST}),
)


@given(mutated_scenarios())
@example(ActionScenario("Z2", klein_template(1, 1, 1).summands, *_KLEIN_GENS))
@example(ActionScenario("Z3", (), GeneratorAction()))
@example(_FIXED_E8_PAIRS)
@example(_COUNTS_MATCH_BESIDE_A_VIOLATION[0])
@example(_COUNTS_MATCH_BESIDE_A_VIOLATION[1])
@example(_COUNTS_MATCH_BESIDE_A_VIOLATION[2])
@settings(max_examples=300, deadline=None)
def test_validation_matches_the_reference_validator(s):
    violations, table = validate_scenario_reference(s)
    assert validate_scenario(s) == violations
    if violations:
        return
    assert require_valid(s).table == table


@pytest.mark.parametrize(
    "elements,expected",
    [([GEN1, COMPOSITION], 1 + 1), ([GEN2, COMPOSITION], 2 + 1)],
    ids=["gen1-composition", "gen2-composition"],
)
def test_twisted_b_plus_counts_an_orbit_of_two_once(elements, expected):
    # klein_template(2, 1, 1) plus a free orbit of hyperbolic planes: the
    # element outside `elements` fixes each chain pair it does not swap
    # (l2 = 1 pair for gen1, l1 = 2 for gen2), an orbit of two ids, and
    # moves the E8 and hyperbolic orbits of four ids
    s = with_free_orbits(klein_template(2, 1, 1), ["hyperbolic"])
    assert require_valid(s).b_plus(elements) == expected == _dense_b_plus(s, elements)


def test_twisted_b_plus_rejects_identity_and_empty_sets():
    valid = require_valid(klein_template(1, 1, 0))
    for elements in ([], [IDENTITY_ELEMENT], [GEN1, IDENTITY_ELEMENT]):
        with pytest.raises(ValueError):
            valid.b_plus(elements)
    valid = require_valid(z2_template(1, 0))
    with pytest.raises(ValueError):
        valid.b_plus([GEN2])


# ids and labels that exercise every escape of the canonical text: quotes,
# backslashes, control characters, non-ASCII and astral-plane characters
_ODD_TEXT = st.text(
    st.characters() | st.sampled_from('"\\\x00\x1f\x7f\u00e9\u2028\U0001f600'), max_size=6
)
_BIG = st.integers(-(10**40), 10**6)


@st.composite
def custom_forms(draw):
    n = draw(st.integers(0, 3))
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = draw(_BIG)
    return IntegerLattice(tuple(map(tuple, g)))


@st.composite
def odd_generators(draw, ids):
    any_id = st.sampled_from(ids) | _ODD_TEXT if ids else _ODD_TEXT
    return GeneratorAction(
        tuple(draw(st.lists(st.tuples(any_id, any_id), max_size=3))),
        draw(st.dictionaries(any_id, st.sampled_from(LABELS) | _ODD_TEXT, max_size=3)),
    )


@st.composite
def odd_scenarios(draw):
    """Scenarios that need not validate: any ids, kinds, custom grams with
    large negative entries, and empty maps and pair lists."""
    ids = draw(st.lists(_ODD_TEXT, unique=True, max_size=5))
    summands = []
    for sid in ids:
        kind = draw(st.sampled_from(KINDS))
        summands.append(Summand(sid, kind, draw(custom_forms()) if kind == CUSTOM else None))
    group = draw(st.sampled_from(("Z2", "Z2xZ2")))
    gen2 = draw(odd_generators(ids)) if group == "Z2xZ2" else None
    return ActionScenario(group, tuple(summands), draw(odd_generators(ids)), gen2)


def _canonical_doc(s):
    def generator_doc(gen):
        return {"permutation": [list(pair) for pair in gen.permutation], "local": gen.local}

    doc = {
        "schema_version": 1,
        "group": s.group,
        "summands": [
            {"id": sm.id, "kind": sm.kind}
            | ({"gram": [list(row) for row in sm.custom_form.gram]} if sm.custom_form else {})
            for sm in s.summands
        ],
        "generator1": generator_doc(s.gen1),
    }
    if s.gen2 is not None:
        doc["generator2"] = generator_doc(s.gen2)
    return doc


@given(st.one_of(z2_scenarios(), klein_scenarios(), odd_scenarios()))
@settings(max_examples=150, deadline=None)
def test_serialization_is_json_dumps_text(s):
    text = serialize_scenario(s)
    assert text == json.dumps(_canonical_doc(s), sort_keys=True, indent=2) + "\n"
    assert parse_scenario(text) == s


_SHARED = IntegerLattice(((0, 1), (1, 0)))


@pytest.mark.parametrize(
    "s",
    [
        ActionScenario(
            "Z2", (Summand("c", CUSTOM, IntegerLattice(())),), GeneratorAction()
        ),
        ActionScenario("Z2", (), GeneratorAction()),
        ActionScenario(
            "Z2",
            (
                Summand("a", CUSTOM, _SHARED),
                Summand("b", CUSTOM, _SHARED),
                Summand("c", CUSTOM, IntegerLattice(((-2, 1), (1, -2)))),
                Summand("d", CUSTOM, IntegerLattice(((-2, 1), (1, -2)))),
            ),
            GeneratorAction((("b", "a"), ("d", "c"))),
        ),
        ActionScenario(
            "Z2xZ2",
            (Summand("s", "s2xs2"), Summand("t", "s2xs2")),
            GeneratorAction((), {"s": ROTATE_BOTH}),
            GeneratorAction((), {"s": ROTATE_FIRST, "t": ROTATE_BOTH}),
        ),
    ],
    ids=["rank-0-gram", "no-summands", "shared-and-equal-grams", "labels-on-both"],
)
def test_serialization_examples_are_json_dumps_text(s):
    text = serialize_scenario(s)
    assert text == json.dumps(_canonical_doc(s), sort_keys=True, indent=2) + "\n"
    assert parse_scenario(text) == s


def test_equal_grams_in_a_document_share_one_lattice():
    def doc(last_entry):
        grams = [[[2, 1, 0], [1, 2, 1], [0, 1, 2]] for _ in range(4)]
        grams[3][0][1] = grams[3][1][0] = last_entry
        return json.dumps({
            "schema_version": 1,
            "group": "Z2",
            "summands": [
                {"id": f"c{i}", "kind": "custom", "gram": g} for i, g in enumerate(grams)
            ],
            "generator1": {"permutation": [["c0", "c1"], ["c2", "c3"]], "local": {}},
        })

    s = parse_scenario(doc(1))
    assert len({id(sm.custom_form) for sm in s.summands}) == 1
    assert s.summands[0].custom_form.gram == ((2, 1, 0), (1, 2, 1), (0, 1, 2))
    # a last copy that equals the others only through 1.0 == 1 or True == 1
    # is rejected, not matched to their lattice
    for entry in (1.0, True):
        with pytest.raises(ScenarioFormatError):
            parse_scenario(doc(entry))


# ---------------------------------------------------------------------------
# the multiset of orbit types
# ---------------------------------------------------------------------------


@st.composite
def relabelled(draw, scenarios):
    """A draw of `scenarios` and a copy with fresh ids, its summands, pairs,
    pair members and labels each in a shuffled order."""
    s = draw(scenarios)
    name = {sm.id: f"r{n}" for n, sm in enumerate(draw(st.permutations(s.summands)))}

    def renamed(gen):
        if gen is None:
            return None
        pairs = [
            (name[b], name[a]) if draw(st.booleans()) else (name[a], name[b])
            for a, b in draw(st.permutations(gen.permutation))
        ]
        local = draw(st.permutations(list(gen.local.items())))
        return GeneratorAction(tuple(pairs), {name[i]: lbl for i, lbl in local})

    summands = tuple(
        Summand(name[sm.id], sm.kind, sm.custom_form)
        for sm in draw(st.permutations(s.summands))
    )
    return s, ActionScenario(s.group, summands, renamed(s.gen1), renamed(s.gen2))


def _invariants_reports(s) -> tuple[dict, str]:
    """`invariants` in both formats, the scenario digest left out."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(serialize_scenario(s))
        reports = []
        for fmt in ("structured", "text"):
            out = io.StringIO()
            assert cli.main(["invariants", "--input", str(path), "--format", fmt], out=out) == 0
            reports.append(out.getvalue())
    doc = json.loads(reports[0])
    del doc["scenario_digest"]
    return doc, reports[1].split("\n", 1)[1]


_ANY_VALID = st.one_of(z2_scenarios(), klein_scenarios())


@given(relabelled(_ANY_VALID))
@settings(max_examples=40, deadline=None)
def test_equal_orbit_types_give_equal_reports(pair):
    s, renamed = pair
    types, renamed_types = require_valid(s).orbit_types, require_valid(renamed).orbit_types
    assert types == renamed_types == tuple(sorted(types, key=_type_key))
    assert hash(types) == hash(renamed_types)
    assert check(renamed) == check(s)
    assert _invariants_reports(renamed) == _invariants_reports(s)


@given(_ANY_VALID)
@example(with_free_orbits(klein_template(2, 1, 1), ["hyperbolic", "k3"]))
@example(_jointly_fixed_spheres(("s0", "s1")))
@settings(max_examples=6, deadline=None)
def test_the_orbit_types_alone_give_totals_fixed_sets_and_b(s):
    """The readers of a ValidScenario that keeps only the orbit types and
    the forms, with no summand, pair or label behind them, against the
    dense form, the dense twisted operators and the fixed sets read id by
    id: b2, signature and evenness, and b for every set of elements."""
    v = require_valid(s)
    bare = ActionScenario(s.group, (), GeneratorAction())
    alone = ValidScenario(bare, dict.fromkeys(v.table, ({}, {})), v.orbit_types, v.forms)
    lattice = scenario_lattice(s)
    assert alone.totals() == _lattice_totals(lattice)
    elements = list(v.table)
    for r in range(1, len(elements) + 1):
        for subset in itertools.combinations(elements, r):
            assert alone.b_plus(subset) == _dense_b_plus(s, subset)
    for element in elements:
        assert alone.fixed_set(element) == fixed_set_reference(s, element)


def test_custom_summands_with_equal_grams_share_one_orbit_type():
    first, second = IntegerLattice(((0, 1), (1, 0))), IntegerLattice(((0, 1), (1, 0)))
    assert first is not second
    s = ActionScenario(
        "Z2",
        (
            Summand("c0", CUSTOM, first),
            Summand("c1", CUSTOM, first),
            Summand("d0", CUSTOM, second),
            Summand("d1", CUSTOM, second),
        ),
        GeneratorAction((("c0", "c1"), ("d0", "d1"))),
    )
    assert require_valid(s).orbit_types == ((((MOVED,), first), 4),)


def _chain_labelled(labels) -> ActionScenario:
    """klein_template(len(labels) // 2, 0, 0), whose first chain gen2 swaps
    in pairs (a0, a1), (a2, a3), ..., with gen1 giving a_i labels[i]."""
    t = klein_template(len(labels) // 2, 0, 0)
    local = {"core": ROTATE_FIRST} | {f"a{i}": lbl for i, lbl in enumerate(labels)}
    return ActionScenario(t.group, t.summands, GeneratorAction(t.gen1.permutation, local), t.gen2)


def test_a_pair_with_two_labels_gives_two_types_and_keeps_its_answers():
    s = _chain_labelled([ROTATE_FIRST, ROTATE_SECOND])
    v = require_valid(s)
    assert v.orbit_types == (
        (((ROTATE_FIRST, MOVED, MOVED), "s2xs2"), 1),
        (((ROTATE_FIRST, ROTATE_SECOND, ROTATE_BOTH), "s2xs2"), 1),
        (((ROTATE_SECOND, MOVED, MOVED), "s2xs2"), 1),
    )
    report = check(s)
    assert report.verdict == NO_OBSTRUCTION
    # three surface pieces of gen1 joined by two necks
    assert report.elements[0].components == ((2, 4),)
    # off the template shape, yet every subgroup is built as the rule says
    assert report.subgroup_hints == tuple(
        (sub, SMOOTHABLE_BY_CONSTRUCTION) for sub in ("gen1", "gen2", "diagonal")
    )
    # the same labels regrouped over two pairs: not a relabelling, since
    # each pair of one carries two labels and each of the other one, yet
    # the orbit types and so every answer agree
    paired = _chain_labelled([ROTATE_FIRST, ROTATE_SECOND] * 2)
    regrouped = _chain_labelled([ROTATE_FIRST] * 2 + [ROTATE_SECOND] * 2)
    assert require_valid(paired).orbit_types == require_valid(regrouped).orbit_types
    assert check(paired) == check(regrouped)
    assert _invariants_reports(paired) == _invariants_reports(regrouped)


def _best_seconds(f) -> float:
    times = []
    for _ in range(3):
        start = time.perf_counter()
        f()
        times.append(time.perf_counter() - start)
    return min(times)


def test_the_orbit_types_build_in_linear_time():
    """n spheres that both generators fix, and 2n that only gen1 fixes,
    whose rotate_both labels come first in gen1's labels, against a Z2
    scenario of as many labelled spheres. Both validate in linear time, so
    the first takes about three times as long as the second; a build that
    removed each jointly fixed label from a list of gen1's labels took
    about 70 times as long at n = 5000, and 45 times at n = 3000."""
    n = 3000
    alone = [f"a{i}" for i in range(2 * n)]
    joint = [f"j{i}" for i in range(n)]
    local1 = dict.fromkeys(alone, ROTATE_BOTH) | dict.fromkeys(joint, ROTATE_FIRST)
    klein = ActionScenario(
        "Z2xZ2",
        tuple(Summand(i, "s2xs2") for i in joint + alone),
        GeneratorAction((), local1),
        GeneratorAction(tuple(zip(alone[::2], alone[1::2])), dict.fromkeys(joint, ROTATE_SECOND)),
    )
    ids = [f"z{i}" for i in range(3 * n)]
    z2 = ActionScenario(
        "Z2",
        tuple(Summand(i, "s2xs2") for i in ids),
        GeneratorAction((), dict.fromkeys(ids, ROTATE_FIRST)),
    )
    alone_type = (ROTATE_BOTH, MOVED, MOVED), "s2xs2"
    assert dict(require_valid(klein).orbit_types)[alone_type] == 2 * n
    klein_s = _best_seconds(lambda: require_valid(klein))
    assert klein_s < 10 * _best_seconds(lambda: require_valid(z2))
