import random

import pytest

from spinact._mat import identity, mat_neg
from spinact.isometry import (
    InvariantSublattice,
    LatticeIsometry,
    MalformedOperatorError,
    b_plus_invariant,
    commute,
    invariant_sublattice,
    smith_invariant_factors,
    verify_isometry,
)
from spinact.lattice import (
    IntegerLattice,
    direct_sum,
    direct_sum_all,
    make_standard,
    signature_profile,
)

from oracles import random_involutive_isometry, rational_nullspace, spans_equal


def block_swap(lat: IntegerLattice) -> LatticeIsometry:
    """Swap of the two halves of L (+) L."""
    double = direct_sum(lat, lat)
    n = lat.rank
    m = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        m[i][n + i] = 1
        m[n + i][i] = 1
    return LatticeIsometry(double, tuple(tuple(r) for r in m))


def test_identity_and_negation_are_isometries():
    k3 = make_standard("k3")
    assert verify_isometry(LatticeIsometry(k3, identity(22)))
    assert verify_isometry(LatticeIsometry(k3, mat_neg(identity(22))))


def test_block_swap_is_isometry():
    sw = block_swap(make_standard("minus_e8"))
    assert verify_isometry(sw)


def test_non_isometry_detected():
    h = make_standard("hyperbolic")
    assert not verify_isometry(LatticeIsometry(h, ((1, 1), (0, 1))))


def test_dimension_mismatch_rejected():
    with pytest.raises(MalformedOperatorError):
        LatticeIsometry(make_standard("hyperbolic"), identity(3))


def test_commute_examples():
    h = make_standard("hyperbolic")
    triple = direct_sum_all([h, h, h])

    def swap(i, j):
        m = [[1 if a == b else 0 for b in range(6)] for a in range(6)]
        for t in range(2):
            m[2 * i + t][2 * i + t] = 0
            m[2 * j + t][2 * j + t] = 0
            m[2 * i + t][2 * j + t] = 1
            m[2 * j + t][2 * i + t] = 1
        return LatticeIsometry(triple, tuple(tuple(r) for r in m))

    ident = LatticeIsometry(triple, identity(6))
    assert commute(swap(0, 1), ident)
    assert not commute(swap(0, 1), swap(0, 2))
    with pytest.raises(MalformedOperatorError):
        commute(ident, LatticeIsometry(h, identity(2)))


def test_invariant_of_negation_is_zero():
    h = make_standard("hyperbolic")
    sub = invariant_sublattice([LatticeIsometry(h, mat_neg(identity(2)))])
    assert sub.rank == 0
    assert sub.restricted_gram.rank == 0


def test_invariant_of_identity_is_everything():
    k3 = make_standard("k3")
    sub = invariant_sublattice([LatticeIsometry(k3, identity(22))])
    assert sub.rank == 22
    assert b_plus_invariant([LatticeIsometry(k3, identity(22))]) == 3


def test_minus_swap_on_double_e8():
    # fixed vectors are (x, -x); the form restricts to twice the block
    e8 = make_standard("minus_e8")
    sw = block_swap(e8)
    op = LatticeIsometry(sw.lattice, mat_neg(sw.matrix))
    sub = invariant_sublattice([op])
    assert sub.rank == 8
    expected = tuple(tuple(2 * x for x in row) for row in e8.gram)
    assert sub.restricted_gram.gram == expected
    assert b_plus_invariant([op]) == 0
    # oracle: same rational span as the dense nullspace of (M - I)
    n = 16
    rows = [
        [op.matrix[i][j] - (1 if i == j else 0) for j in range(n)] for i in range(n)
    ]
    assert spans_equal(sub.basis, rational_nullspace(rows))


def test_klein_quadruple_on_four_e8():
    e8 = make_standard("minus_e8")
    amb = direct_sum_all([e8] * 4)

    def perm_op(pairs):
        m = [[0] * 32 for _ in range(32)]
        mapping = {}
        for a, b in pairs:
            mapping[a] = b
            mapping[b] = a
        for blk in range(4):
            for i in range(8):
                m[mapping[blk] * 8 + i][blk * 8 + i] = 1
        return LatticeIsometry(amb, mat_neg(tuple(tuple(r) for r in m)))

    op1 = perm_op([(0, 1), (2, 3)])
    op2 = perm_op([(0, 2), (1, 3)])
    assert commute(op1, op2)
    sub = invariant_sublattice([op1, op2])
    assert sub.rank == 8
    expected = tuple(tuple(4 * x for x in row) for row in e8.gram)
    assert sub.restricted_gram.gram == expected
    p = signature_profile(sub.restricted_gram)
    assert (p.b_plus, p.b_zero) == (0, 0)


def test_empty_operator_list_rejected():
    with pytest.raises(MalformedOperatorError):
        invariant_sublattice([])


def test_non_isometry_input_rejected():
    h = make_standard("hyperbolic")
    with pytest.raises(MalformedOperatorError):
        invariant_sublattice([LatticeIsometry(h, ((1, 1), (0, 1)))])
    e8 = make_standard("minus_e8")
    ops = [LatticeIsometry(h, identity(2)), LatticeIsometry(e8, identity(8))]
    with pytest.raises(MalformedOperatorError, match="^operators act on different lattices$"):
        invariant_sublattice(ops)


def test_random_involutions_match_nullspace_oracle():
    rng = random.Random(90125)
    for _ in range(120):
        gram, op_m = random_involutive_isometry(rng, max_rank=10)
        n = len(gram)
        lat = IntegerLattice(tuple(tuple(r) for r in gram))
        op = LatticeIsometry(lat, tuple(tuple(r) for r in op_m))
        assert verify_isometry(op)
        sub = invariant_sublattice([op])
        rows = [
            [op_m[i][j] - (1 if i == j else 0) for j in range(n)] for i in range(n)
        ]
        assert spans_equal(sub.basis, rational_nullspace(rows))
        if sub.rank:
            assert smith_invariant_factors(sub.basis) == [1] * sub.rank


def test_involution_eigenspaces_fill_ambient():
    rng = random.Random(555)
    for _ in range(60):
        gram, op_m = random_involutive_isometry(rng, max_rank=9)
        lat = IntegerLattice(tuple(tuple(r) for r in gram))
        plus = LatticeIsometry(lat, tuple(tuple(r) for r in op_m))
        minus = LatticeIsometry(lat, mat_neg(plus.matrix))
        total = invariant_sublattice([plus]).rank + invariant_sublattice([minus]).rank
        assert total == lat.rank


def test_b_plus_invariant_monotone_under_more_operators():
    rng = random.Random(31337)
    for _ in range(30):
        gram, op_m = random_involutive_isometry(rng, max_rank=8)
        lat = IntegerLattice(tuple(tuple(r) for r in gram))
        one = LatticeIsometry(lat, tuple(tuple(r) for r in op_m))
        ident = LatticeIsometry(lat, identity(lat.rank))
        neg = LatticeIsometry(lat, mat_neg(identity(lat.rank)))
        base = b_plus_invariant([one])
        # the identity adds no constraint; negation cuts to the zero sublattice
        assert b_plus_invariant([one, ident]) == base
        assert b_plus_invariant([one, neg]) <= base


def test_b_plus_invariant_monotone_on_commuting_pair():
    from spinact.equivariant_sum import GEN1, GEN2, induced_cohomology_action
    from spinact.templates import klein_template

    s = klein_template(2, 1, 1)
    op1 = induced_cohomology_action(s, GEN1)
    op2 = induced_cohomology_action(s, GEN2)
    joint = b_plus_invariant([op1, op2])
    assert joint <= b_plus_invariant([op1])
    assert joint <= b_plus_invariant([op2])


def test_smith_factors_of_unimodular_basis():
    assert smith_invariant_factors([(1, 0), (0, 1)]) == [1, 1]
    assert smith_invariant_factors([(2, 0), (0, 3)]) == [1, 6]
    assert smith_invariant_factors([(2, 0), (0, 4)]) == [2, 4]
    assert smith_invariant_factors([]) == []
    assert smith_invariant_factors([(1, 2), (2, 4)]) == [1]
    assert smith_invariant_factors([(0, 0), (0, 0)]) == []


def test_sublattice_rank_property():
    h = make_standard("hyperbolic")
    sub = invariant_sublattice([LatticeIsometry(h, identity(2))])
    assert isinstance(sub, InvariantSublattice)
    assert sub.rank == len(sub.basis) == 2


def apply_matrix(m, v):
    return tuple(sum(m[i][j] * v[j] for j in range(len(v))) for i in range(len(v)))


def test_every_operator_fixes_every_basis_vector():
    rng = random.Random(777)
    for _ in range(40):
        gram, op_m = random_involutive_isometry(rng, max_rank=9)
        lat = IntegerLattice(tuple(tuple(r) for r in gram))
        op = LatticeIsometry(lat, tuple(tuple(r) for r in op_m))
        for v in invariant_sublattice([op]).basis:
            assert apply_matrix(op.matrix, v) == v


def test_joint_sublattice_fixed_by_both_operators():
    from spinact.equivariant_sum import GEN1, GEN2, induced_cohomology_action
    from spinact.templates import klein_template

    s = klein_template(1, 2, 1)
    op1 = induced_cohomology_action(s, GEN1)
    op2 = induced_cohomology_action(s, GEN2)
    sub = invariant_sublattice([op1, op2])
    for v in sub.basis:
        assert apply_matrix(op1.matrix, v) == v
        assert apply_matrix(op2.matrix, v) == v
