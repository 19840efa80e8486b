"""Integer lattices modelling intersection forms of simply connected 4-manifolds.

A lattice is a symmetric integer Gram matrix. Signatures are computed by
exact symmetric congruence diagonalization in integer arithmetic
(fraction-free elimination), so every verdict downstream of this module
is decided without floating point.
"""

from __future__ import annotations

from functools import cache, reduce

from ._mat import IntMatrix, freeze, is_symmetric
from ._record import frozen, set_field

# Dynkin graph of E8: a chain 1-3-4-5-6-7-8 with node 2 hanging off node 4.
_E8_EDGES = ((0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 3))


class MalformedLatticeError(ValueError):
    pass


@frozen
class IntegerLattice:
    """Symmetric integer Gram matrix; rank is the matrix dimension.

    The record hash of the gram is kept from construction: a lattice is a
    dict key at every scenario lookup of its form, and a tuple does not
    cache its hash."""

    def __init__(self, gram: IntMatrix):
        gram = freeze(gram)
        if not is_symmetric(gram):
            raise MalformedLatticeError("gram matrix must be square and symmetric")
        set_field(self, "gram", gram)
        set_field(self, "_gram_hash", hash((gram,)))

    @property
    def rank(self) -> int:
        return len(self.gram)


# after `frozen`, which sets the record hash of the field tuple
IntegerLattice.__hash__ = lambda self: self._gram_hash


@frozen
class SignatureProfile:
    """Counts of positive, negative and zero entries of any congruent diagonal
    form, and the Gram determinant."""

    def __init__(self, b_plus: int, b_minus: int, b_zero: int, determinant: int):
        set_field(self, "b_plus", b_plus)
        set_field(self, "b_minus", b_minus)
        set_field(self, "b_zero", b_zero)
        set_field(self, "determinant", determinant)

    @property
    def signature(self) -> int:
        return self.b_plus - self.b_minus

    @property
    def rank(self) -> int:
        return self.b_plus + self.b_minus + self.b_zero


def empty_lattice() -> IntegerLattice:
    return IntegerLattice(())


def _minus_e8_gram() -> IntMatrix:
    g = [[0] * 8 for _ in range(8)]
    for i in range(8):
        g[i][i] = -2
    for a, b in _E8_EDGES:
        g[a][b] = g[b][a] = 1
    return freeze(g)


def make_standard(kind: str) -> IntegerLattice:
    """One of the standard forms: hyperbolic/s2xs2, minus_e8, or k3, as
    `standard_facts` keeps it."""
    return standard_facts(kind)[0]


@cache
def standard_facts(kind: str) -> tuple[IntegerLattice, SignatureProfile, bool]:
    """(lattice, signature_profile, is_even) of a standard form, computed
    once per process and shared; lattices are immutable.

    k3 is the rank-22 direct sum of three hyperbolic planes and two copies
    of the negative E8 form, and s2xs2 is the hyperbolic entry itself. The
    key is a kind name, never a gram, so at most four entries are kept;
    an unknown kind raises and caches nothing.
    """
    if kind == "s2xs2":
        return standard_facts("hyperbolic")
    if kind == "hyperbolic":
        lat = IntegerLattice(((0, 1), (1, 0)))
    elif kind == "minus_e8":
        lat = IntegerLattice(_minus_e8_gram())
    elif kind == "k3":
        h, e = make_standard("hyperbolic"), make_standard("minus_e8")
        lat = direct_sum_all([h, h, h, e, e])
    else:
        raise ValueError(f"unknown standard lattice kind: {kind!r}")
    return lat, signature_profile(lat), is_even(lat)


def direct_sum(a: IntegerLattice, b: IntegerLattice) -> IntegerLattice:
    """Block-diagonal sum; ranks and signatures add."""
    n, m = a.rank, b.rank
    rows = []
    for i in range(n):
        rows.append(a.gram[i] + (0,) * m)
    for j in range(m):
        rows.append((0,) * n + b.gram[j])
    return IntegerLattice(tuple(rows))


def direct_sum_all(lattices) -> IntegerLattice:
    return reduce(direct_sum, lattices, empty_lattice())


def signature_profile(lat: IntegerLattice) -> SignatureProfile:
    """Diagonalize gram by symmetric fraction-free elimination and count signs.

    Each step picks an index p of the trailing integer block with a nonzero
    diagonal entry and replaces the block by
    (pivot * a[j][t] - a[j][p] * a[p][t]) // prev over j, t != p (Bareiss).
    The entries are minors bordered by the eliminated indices, so every
    division is exact, and pivot / prev is the step's rational diagonal
    entry. A zero diagonal is repaired by adding row and column q into p
    for some a[p][q] != 0 (hyperbolic-block pivots), a congruence that
    makes the pivot 2 * a[p][q] and acts on the bordered minors alike.
    The block stays symmetric, so only its upper triangle is kept: row j
    from column j on, with a[j][p] read from the pivot row.

    Sylvester's law of inertia makes the counts independent of the
    elimination choices. Every step is a congruence by a matrix of
    determinant +-1, so the last pivot is the Gram determinant.
    """
    a = [list(row[j:]) for j, row in enumerate(lat.gram)]
    prev, b_plus, b_minus = 1, 0, 0
    while a:
        p = next((j for j, row in enumerate(a) if row[0]), None)
        if p is None:
            pq = next(
                ((j, j + t) for j, row in enumerate(a) for t, x in enumerate(row) if x),
                None,
            )
            if pq is None:
                break  # remaining block is identically zero
            p, q = pq
            rq = _full_row(a, q)
            # p is the first row with a nonzero entry and the block is
            # symmetric, so every row above p is zero, rq[j] for j < p among
            # them: adding row and column q into p changes only row p
            a[p] = [x + y for x, y in zip(a[p], rq[p:])]
            a[p][0] *= 2  # a[p][p] + 2 a[p][q] + a[q][q], a zero diagonal
        prow = _full_row(a, p)
        pivot = prow.pop(p)
        if (pivot > 0) == (prev > 0):
            b_plus += 1
        else:
            b_minus += 1
        del a[p]
        for j, row in enumerate(a):
            if j < p:
                del row[p - j]
            f = prow[j]
            a[j] = [(pivot * x - f * y) // prev for x, y in zip(row, prow[j:])]
        prev = pivot
    return SignatureProfile(
        b_plus, b_minus, lat.rank - b_plus - b_minus, 0 if a else prev
    )


def _full_row(a: list, p: int) -> list:
    """Row p of the symmetric block whose upper triangle `a` holds."""
    return [a[j][p - j] for j in range(p)] + a[p]


def is_even(lat: IntegerLattice) -> bool:
    """True iff every diagonal Gram entry is even (spin condition)."""
    return all(lat.gram[i][i] % 2 == 0 for i in range(lat.rank))
