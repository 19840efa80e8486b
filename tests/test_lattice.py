import random
from itertools import permutations
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinact.lattice import (
    IntegerLattice,
    MalformedLatticeError,
    direct_sum,
    direct_sum_all,
    empty_lattice,
    is_even,
    make_standard,
    signature_profile,
)

from oracles import eigen_sign_profile, matmul, random_unimodular


def diag(*entries):
    n = len(entries)
    return IntegerLattice(
        tuple(tuple(entries[i] if i == j else 0 for j in range(n)) for i in range(n))
    )


@st.composite
def symmetric_lattices(draw, max_rank=6, bound=6):
    n = draw(st.integers(0, max_rank))
    entries = draw(
        st.lists(st.integers(-bound, bound), min_size=n * (n + 1) // 2,
                 max_size=n * (n + 1) // 2)
    )
    a = [[0] * n for _ in range(n)]
    it = iter(entries)
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = next(it)
    return IntegerLattice(tuple(tuple(row) for row in a))


def test_standard_kinds():
    h = make_standard("hyperbolic")
    assert h.rank == 2 and h.gram == ((0, 1), (1, 0))
    assert make_standard("s2xs2") == h
    e8 = make_standard("minus_e8")
    assert e8.rank == 8
    assert all(e8.gram[i][i] == -2 for i in range(8))
    k3 = make_standard("k3")
    assert k3.rank == 22
    with pytest.raises(ValueError):
        make_standard("nope")


def test_hyperbolic_signature():
    assert signature_profile(make_standard("hyperbolic")) .b_plus == 1
    p = signature_profile(make_standard("hyperbolic"))
    assert (p.b_plus, p.b_minus, p.b_zero, p.determinant) == (1, 1, 0, -1)


def test_minus_e8_signature():
    # frozen from the float eigenvalue oracle on the standard Gram matrix
    p = signature_profile(make_standard("minus_e8"))
    assert (p.b_plus, p.b_minus, p.b_zero, p.determinant) == (0, 8, 0, 1)
    assert p.signature == -8


def test_k3_profile():
    # additivity over 3 hyperbolic and 2 negative-E8 blocks
    p = signature_profile(make_standard("k3"))
    assert (p.b_plus, p.b_minus, p.b_zero, p.determinant) == (3, 19, 0, -1)
    assert p.signature == -16


def test_is_even():
    assert is_even(make_standard("hyperbolic"))
    assert is_even(make_standard("minus_e8"))
    assert is_even(make_standard("k3"))
    assert not is_even(diag(1))
    assert is_even(empty_lattice())


def test_direct_sum_examples():
    h = make_standard("hyperbolic")
    hh = direct_sum(h, h)
    assert hh.rank == 4 and signature_profile(hh).signature == 0
    e16 = direct_sum(make_standard("minus_e8"), make_standard("minus_e8"))
    assert signature_profile(e16).signature == -16
    assert direct_sum(h, empty_lattice()) == h
    assert direct_sum(empty_lattice(), h) == h


def test_signature_profile_examples():
    p = signature_profile(diag(2, -3, 0))
    assert (p.b_plus, p.b_minus, p.b_zero) == (1, 1, 1)


def test_malformed_gram_rejected():
    with pytest.raises(MalformedLatticeError):
        IntegerLattice(((0, 1), (2, 0)))
    with pytest.raises(MalformedLatticeError):
        IntegerLattice(((0, 1),))


def test_zero_diagonal_block_pivot_terminates():
    # pure hyperbolic pivots must be repaired, not looped on
    for k in range(1, 4):
        lat = direct_sum_all(make_standard("hyperbolic") for _ in range(k))
        p = signature_profile(lat)
        assert (p.b_plus, p.b_minus, p.b_zero) == (k, k, 0)


def test_profile_against_float_oracle_bulk():
    rng = random.Random(20260808)
    for _ in range(400):
        n = rng.randint(0, 8)
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                a[i][j] = a[j][i] = rng.randint(-5, 5)
        lat = IntegerLattice(tuple(tuple(row) for row in a))
        p = signature_profile(lat)
        assert (p.b_plus, p.b_minus, p.b_zero) == eigen_sign_profile(a)


@given(symmetric_lattices(), symmetric_lattices())
@settings(max_examples=60)
def test_profile_additive_over_direct_sum(a, b):
    pa, pb = signature_profile(a), signature_profile(b)
    p = signature_profile(direct_sum(a, b))
    assert p.b_plus == pa.b_plus + pb.b_plus
    assert p.b_minus == pa.b_minus + pb.b_minus
    assert p.b_zero == pa.b_zero + pb.b_zero


@given(symmetric_lattices(max_rank=5), st.integers(0, 2**30))
@settings(max_examples=60)
def test_profile_invariant_under_unimodular_change(lat, seed):
    n = lat.rank
    if n == 0:
        return
    u, _ = random_unimodular(random.Random(seed), n)
    ut = [list(col) for col in zip(*u)]
    g2 = matmul(ut, matmul([list(r) for r in lat.gram], u))
    assert signature_profile(IntegerLattice(tuple(tuple(r) for r in g2))) == \
        signature_profile(lat)


def leibniz_determinant(gram) -> int:
    n = len(gram)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * prod(gram[i][perm[i]] for i in range(n))
    return total


@given(symmetric_lattices(max_rank=5))
@settings(max_examples=60)
def test_profile_determinant_matches_leibniz_formula(lat):
    assert signature_profile(lat).determinant == leibniz_determinant(lat.gram)


@given(st.lists(st.integers(1, 9), min_size=1, max_size=6))
def test_negative_definite_has_no_plus_or_zero(entries):
    lat = diag(*[-e for e in entries])
    p = signature_profile(lat)
    assert p.b_plus == 0 and p.b_zero == 0 and p.b_minus == len(entries)


def test_rank_bookkeeping():
    p = signature_profile(diag(1, -1, 0, 5))
    assert p.rank == 4
    assert p.b_plus + p.b_minus + p.b_zero == 4
