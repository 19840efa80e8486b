import random
from itertools import permutations
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinact._mat import freeze, is_square, is_symmetric, mat_mul
from spinact.lattice import (
    IntegerLattice,
    MalformedLatticeError,
    direct_sum,
    direct_sum_all,
    empty_lattice,
    is_even,
    make_standard,
    signature_profile,
    standard_facts,
)

from oracles import (
    eigen_sign_profile,
    freeze_per_entry,
    is_symmetric_per_entry,
    mat_mul_dense,
    random_unimodular,
    signature_profile_full,
)


def diag(*entries):
    n = len(entries)
    return IntegerLattice(
        tuple(tuple(entries[i] if i == j else 0 for j in range(n)) for i in range(n))
    )


@st.composite
def symmetric_lattices(draw, max_rank=6, bound=6):
    """Random symmetric forms; half of them have a zero diagonal, which
    forces the elimination's row-and-column pivot repair."""
    n = draw(st.integers(0, max_rank))
    entries = draw(
        st.lists(st.integers(-bound, bound), min_size=n * (n + 1) // 2,
                 max_size=n * (n + 1) // 2)
    )
    zero_diagonal = draw(st.booleans())
    a = [[0] * n for _ in range(n)]
    it = iter(entries)
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = next(it)
        if zero_diagonal:
            a[i][i] = 0
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


def test_standard_forms_are_built_once():
    for kind in ("hyperbolic", "minus_e8", "k3"):
        assert make_standard(kind) is make_standard(kind)
    assert make_standard("s2xs2") is make_standard("hyperbolic")
    # a failed build caches nothing
    for _ in range(2):
        with pytest.raises(ValueError):
            make_standard("nope")


def test_standard_profiles_are_computed_once():
    for kind in ("hyperbolic", "s2xs2", "minus_e8", "k3"):
        lat = make_standard(kind)
        assert standard_facts(kind) == (lat, signature_profile(lat), is_even(lat))
        assert standard_facts(kind)[0] is lat
        assert standard_facts(kind) is standard_facts(kind)
    cached = standard_facts.cache_info().currsize
    assert cached <= 4
    # a failed computation caches nothing
    for _ in range(2):
        with pytest.raises(ValueError):
            standard_facts("nope")
    assert standard_facts.cache_info().currsize == cached


@given(symmetric_lattices(), symmetric_lattices())
@settings(max_examples=50, deadline=None)
def test_a_lattice_keeps_the_record_hash_of_its_gram(a, b):
    # the field-tuple hash every other record computes on each call
    assert hash(a) == hash((a.gram,))
    # an equal gram given as lists is a different object, equal and
    # hashed alike
    twin = IntegerLattice([list(row) for row in a.gram])
    assert twin is not a and twin == a and hash(twin) == hash(a)
    assert len({a, twin}) == 1
    assert (a == b) == (a.gram == b.gram)


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
    h = make_standard("hyperbolic")
    cases = [
        ([diag(2, -3, 0)], (1, 1, 1, 0)),
        # a non-unit pivot, then zero-diagonal repair on the rescaled block
        ([diag(2), h], (2, 1, 0, -2)),
        ([diag(-3), h, h], (2, 3, 0, -3)),
        # zero-diagonal repair below zero rows (pivot row p > 0)
        ([IntegerLattice(((0, 0, 0), (0, 0, 1), (0, 1, 0)))], (1, 1, 1, 0)),
        ([diag(0, 0), h], (1, 1, 2, 0)),
    ]
    for blocks, expected in cases:
        p = signature_profile(direct_sum_all(blocks))
        assert (p.b_plus, p.b_minus, p.b_zero, p.determinant) == expected


def test_malformed_gram_rejected():
    with pytest.raises(MalformedLatticeError):
        IntegerLattice(((0, 1), (2, 0)))
    with pytest.raises(MalformedLatticeError):
        IntegerLattice(((0, 1),))


_ENTRIES = st.integers(-3, 3) | st.booleans()


@st.composite
def row_lists(draw):
    """Row lists of int and bool entries: ragged, empty, square, or square
    and symmetric, the last with an entry changed half of the time."""
    shape = draw(st.sampled_from(("ragged", "square", "symmetric")))
    if shape == "ragged":
        return draw(st.lists(st.lists(_ENTRIES, max_size=4), max_size=4))
    n = draw(st.integers(0, 4))
    rows = [draw(st.lists(_ENTRIES, min_size=n, max_size=n)) for _ in range(n)]
    if shape == "symmetric":
        for i in range(n):
            for j in range(i):
                rows[i][j] = rows[j][i]
        if n > 1 and draw(st.booleans()):
            rows[0][n - 1] = draw(st.integers(-3, 3))
    return rows


@given(row_lists())
@settings(max_examples=300, deadline=None)
def test_bulk_freeze_and_symmetry_match_the_per_entry_oracles(rows):
    frozen = freeze(rows)
    assert frozen == freeze_per_entry(rows)
    assert all(type(x) is int for row in frozen for x in row)
    assert is_square(frozen) == all(len(row) == len(rows) for row in rows)
    assert is_symmetric(frozen) == is_symmetric_per_entry(frozen)


@st.composite
def product_pairs(draw, max_dim=6):
    """Integer matrices a (m x n) and b (n x p), any of m, n, p possibly
    zero, with small and multi-word entries and whole zero rows."""
    m, n, p = draw(st.tuples(*[st.integers(0, max_dim)] * 3))
    entries = st.integers(-3, 3) | st.integers(-(2**70), 2**70)

    def matrix(rows, cols):
        zero_rows = draw(st.sets(st.integers(0, max(rows - 1, 0))))
        return tuple(
            (0,) * cols
            if i in zero_rows
            else tuple(draw(st.lists(entries, min_size=cols, max_size=cols)))
            for i in range(rows)
        )

    return matrix(m, n), matrix(n, p)


@given(product_pairs())
@example(((), ()))
@example((((), ()), ()))
@example((((1, 0, 2),), ((0,), (0,), (3,))))
@example((((0, 0), (5, -1)), ((2, 0, 0), (0, 0, 7))))
@settings(max_examples=200, deadline=None)
def test_sparse_product_matches_the_dense_oracle(pair):
    a, b = pair
    product = mat_mul(a, b)
    assert product == mat_mul_dense(a, b)
    assert len(product) == len(a)
    assert all(type(x) is int for row in product for x in row)


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
    g2 = mat_mul_dense(ut, mat_mul_dense(lat.gram, u))
    assert signature_profile(IntegerLattice(tuple(tuple(r) for r in g2))) == \
        signature_profile(lat)


@pytest.mark.parametrize("a,h,seed", [(2, 1, 1), (1, 5, 2), (0, 9, 3), (2, 3, 4),
                                      (3, 0, 5), (3, 1, 6)])
def test_profile_of_scrambled_unimodular_forms(a, h, seed):
    # a copies of -E8 and h hyperbolic planes in a dense basis with entries
    # of absolute value 100 and more, as in custom scenario summands
    blocks = [make_standard("minus_e8")] * a + [make_standard("hyperbolic")] * h
    gram = [list(row) for row in direct_sum_all(blocks).gram]
    n = len(gram)
    u, _ = random_unimodular(random.Random(seed), n, steps=4 * n)
    g = mat_mul_dense(tuple(zip(*u)), mat_mul_dense(gram, u))
    assert 18 <= n <= 26 and max(abs(x) for row in g for x in row) >= 100
    p = signature_profile(IntegerLattice(tuple(map(tuple, g))))
    assert (p.b_plus, p.b_minus, p.b_zero, p.determinant) == (
        h, 8 * a + h, 0, (-1) ** h
    )


@st.composite
def singular_or_repaired_forms(draw):
    """Symmetric forms with small or 40-bit entries, half with a zero
    diagonal (pivot repairs), some made singular by repeating a row and
    column or appending a zero one (the elimination then stops at a zero
    block)."""
    bound = draw(st.sampled_from((3, 2**40)))
    g = [list(row) for row in draw(symmetric_lattices(max_rank=7, bound=bound)).gram]
    for _ in range(draw(st.integers(0, 2))):
        n = len(g)
        i = draw(st.integers(0, n - 1)) if n and draw(st.booleans()) else None
        for row in g:
            row.append(0 if i is None else row[i])
        g.append([0] * (n + 1) if i is None else list(g[i]))
    return IntegerLattice(tuple(map(tuple, g)))


@given(singular_or_repaired_forms())
@settings(max_examples=200, deadline=None)
def test_upper_triangle_elimination_matches_the_full_matrix(lat):
    assert signature_profile(lat) == signature_profile_full(lat)


def test_upper_triangle_elimination_matches_the_full_matrix_on_dense_forms():
    rng = random.Random(5)
    for n in (12, 25):
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                g[i][j] = g[j][i] = rng.getrandbits(62) - 2**61
        lat = IntegerLattice(g)
        assert signature_profile(lat) == signature_profile_full(lat)


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
