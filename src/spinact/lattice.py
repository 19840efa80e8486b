"""Integer lattices modelling intersection forms of simply connected 4-manifolds.

A lattice is a symmetric integer Gram matrix. Signatures are computed by
exact symmetric congruence diagonalization over the rationals, so every
verdict downstream of this module is decided without floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import prod

from ._mat import IntMatrix, freeze, is_symmetric

# Dynkin graph of E8: a chain 1-3-4-5-6-7-8 with node 2 hanging off node 4.
_E8_EDGES = ((0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 3))


class MalformedLatticeError(ValueError):
    pass


@dataclass(frozen=True)
class IntegerLattice:
    """Symmetric integer Gram matrix; rank is the matrix dimension."""

    gram: IntMatrix

    def __post_init__(self):
        object.__setattr__(self, "gram", freeze(self.gram))
        if not is_symmetric(self.gram):
            raise MalformedLatticeError("gram matrix must be square and symmetric")

    @property
    def rank(self) -> int:
        return len(self.gram)


@dataclass(frozen=True)
class SignatureProfile:
    """Counts of positive, negative and zero entries of any congruent diagonal
    form, and the Gram determinant."""

    b_plus: int
    b_minus: int
    b_zero: int
    determinant: int

    @property
    def signature(self) -> int:
        return self.b_plus - self.b_minus

    @property
    def rank(self) -> int:
        return self.b_plus + self.b_minus + self.b_zero


def empty_lattice() -> IntegerLattice:
    return IntegerLattice(())


def _hyperbolic_gram() -> IntMatrix:
    return ((0, 1), (1, 0))


def _minus_e8_gram() -> IntMatrix:
    g = [[0] * 8 for _ in range(8)]
    for i in range(8):
        g[i][i] = -2
    for a, b in _E8_EDGES:
        g[a][b] = g[b][a] = 1
    return freeze(g)


def make_standard(kind: str) -> IntegerLattice:
    """Build one of the standard forms: hyperbolic/s2xs2, minus_e8, or k3.

    k3 is the rank-22 direct sum of three hyperbolic planes and two copies
    of the negative E8 form.
    """
    if kind in ("hyperbolic", "s2xs2"):
        return IntegerLattice(_hyperbolic_gram())
    if kind == "minus_e8":
        return IntegerLattice(_minus_e8_gram())
    if kind == "k3":
        h = IntegerLattice(_hyperbolic_gram())
        e = IntegerLattice(_minus_e8_gram())
        return direct_sum_all([h, h, h, e, e])
    raise ValueError(f"unknown standard lattice kind: {kind!r}")


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
    """Diagonalize gram by symmetric congruence over Q and count diagonal signs.

    Sylvester's law of inertia makes the counts independent of the
    elimination choices. When every remaining diagonal entry is zero but
    some off-diagonal entry is not (hyperbolic-block pivots), one row and
    column is added into another to manufacture a nonzero pivot. Every
    step is a congruence by a matrix of determinant +-1, so the product of
    the final diagonal is the Gram determinant.
    """
    n = lat.rank
    a = [[Fraction(x) for x in row] for row in lat.gram]

    def swap(i, j):
        a[i], a[j] = a[j], a[i]
        for row in a:
            row[i], row[j] = row[j], row[i]

    for i in range(n):
        if a[i][i] == 0:
            j = next((j for j in range(i + 1, n) if a[j][j] != 0), None)
            if j is not None:
                swap(i, j)
            else:
                pq = next(
                    (
                        (p, q)
                        for p in range(i, n)
                        for q in range(p + 1, n)
                        if a[p][q] != 0
                    ),
                    None,
                )
                if pq is None:
                    break  # remaining block is identically zero
                p, q = pq
                for t in range(n):
                    a[p][t] += a[q][t]
                for t in range(n):
                    a[t][p] += a[t][q]
                if p != i:
                    swap(i, p)
        pivot = a[i][i]
        for j in range(i + 1, n):
            if a[j][i] != 0:
                f = a[j][i] / pivot
                for t in range(n):
                    a[j][t] -= f * a[i][t]
                for t in range(n):
                    a[t][j] -= f * a[t][i]

    diag = [a[i][i] for i in range(n)]
    b_plus = sum(1 for d in diag if d > 0)
    b_minus = sum(1 for d in diag if d < 0)
    return SignatureProfile(b_plus, b_minus, n - b_plus - b_minus, int(prod(diag)))


def is_even(lat: IntegerLattice) -> bool:
    """True iff every diagonal Gram entry is even (spin condition)."""
    return all(lat.gram[i][i] % 2 == 0 for i in range(lat.rank))
