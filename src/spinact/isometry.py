"""Integer isometries of lattices and their joint fixed sublattices.

The fixed sublattice of a set of operators is the integer kernel of the
stacked matrices (M - Id), which is saturated: the restricted form's
determinant and parity need that, while its positive index is the same
on any full-rank sublattice of the fixed space (Sylvester's law).
"""

from __future__ import annotations

from math import gcd

from ._mat import IntMatrix, freeze, identity, is_square, mat_mul, transpose, xgcd
from ._record import frozen, set_field
from .lattice import IntegerLattice, SignatureProfile, signature_profile


class MalformedOperatorError(ValueError):
    pass


@frozen
class LatticeIsometry:
    """Integer matrix acting on a lattice; expected to preserve its Gram form."""

    def __init__(self, lattice: IntegerLattice, matrix: IntMatrix):
        matrix = freeze(matrix)
        if not is_square(matrix) or len(matrix) != lattice.rank:
            raise MalformedOperatorError(
                "operator matrix must be square of the lattice rank"
            )
        set_field(self, "lattice", lattice)
        set_field(self, "matrix", matrix)


@frozen
class InvariantSublattice:
    """Primitive basis of a joint fixed sublattice plus the restricted form.

    `basis[i]` is the i-th basis vector in ambient coordinates.
    """

    def __init__(
        self, basis: tuple[tuple[int, ...], ...], restricted_gram: IntegerLattice
    ):
        set_field(self, "basis", basis)
        set_field(self, "restricted_gram", restricted_gram)

    @property
    def rank(self) -> int:
        return len(self.basis)


def verify_isometry(op: LatticeIsometry) -> bool:
    g = op.lattice.gram
    return mat_mul(mat_mul(transpose(op.matrix), g), op.matrix) == g


def commute(a: LatticeIsometry, b: LatticeIsometry) -> bool:
    if a.lattice != b.lattice:
        raise MalformedOperatorError("operators act on different lattices")
    return mat_mul(a.matrix, b.matrix) == mat_mul(b.matrix, a.matrix)


def _integer_kernel(rows: list[tuple[int, ...]], n: int) -> list[tuple[int, ...]]:
    """Basis of {x in Z^n : A x = 0} for the matrix A with the given rows.

    Column reduction by unimodular two-column gcd steps; the surviving
    zero columns of A carry a basis of the kernel. Because the whole
    transformation is unimodular the basis extends to a basis of Z^n,
    i.e. the kernel basis is automatically saturated.
    """
    m = len(rows)
    acols = [[rows[r][j] for r in range(m)] for j in range(n)]
    vcols = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    pinned = [False] * n
    for r in range(m):
        live = [j for j in range(n) if not pinned[j] and acols[j][r] != 0]
        if not live:
            continue
        j0 = live[0]
        for j in live[1:]:
            a, b = acols[j0][r], acols[j][r]
            g, x, y = xgcd(a, b)
            u, v = a // g, b // g
            for vec in (acols, vcols):
                c0, c1 = vec[j0], vec[j]
                vec[j0] = [x * p + y * q for p, q in zip(c0, c1)]
                vec[j] = [-v * p + u * q for p, q in zip(c0, c1)]
        pinned[j0] = True
    return [tuple(vcols[j]) for j in range(n) if not pinned[j]]


def invariant_sublattice(ops) -> InvariantSublattice:
    """Joint fixed sublattice of the operators and the restriction of the form."""
    ops = list(ops)
    if not ops:
        raise MalformedOperatorError("need at least one operator")
    ambient = ops[0].lattice
    for op in ops:
        if op.lattice != ambient:
            raise MalformedOperatorError("operators act on different lattices")
        if not verify_isometry(op):
            raise MalformedOperatorError("operator does not preserve the form")
    n = ambient.rank
    ident = identity(n)
    stacked: list[tuple[int, ...]] = []
    for op in ops:
        for i in range(n):
            stacked.append(
                tuple(op.matrix[i][j] - ident[i][j] for j in range(n))
            )
    basis = _integer_kernel(stacked, n)
    # G v once per basis vector keeps the restricted form at O(r n^2)
    gram_v = [
        [sum(g * x for g, x in zip(row, v)) for row in ambient.gram] for v in basis
    ]
    restricted = tuple(
        tuple(sum(x * y for x, y in zip(u, gv)) for gv in gram_v) for u in basis
    )
    return InvariantSublattice(tuple(basis), IntegerLattice(restricted))


def b_plus_invariant(ops) -> int:
    return restricted_profile(ops).b_plus


def restricted_profile(ops) -> SignatureProfile:
    return signature_profile(invariant_sublattice(ops).restricted_gram)


def smith_invariant_factors(vectors) -> list[int]:
    """Nonzero Smith invariant factors of the matrix whose rows are `vectors`.

    A sublattice basis is saturated in its ambient lattice exactly when all
    factors are 1.
    """
    a = [list(v) for v in vectors]
    if not a:
        return []
    m, n = len(a), len(a[0])
    factors = []
    top = 0
    while top < min(m, n):
        pivot = next(
            (
                (i, j)
                for i in range(top, m)
                for j in range(top, n)
                if a[i][j] != 0
            ),
            None,
        )
        if pivot is None:
            break
        i, j = pivot
        a[top], a[i] = a[i], a[top]
        for row in a:
            row[top], row[j] = row[j], row[top]
        while True:
            # clear column `top` with row steps; pure shears when the pivot
            # divides (they leave row `top` untouched, guaranteeing progress)
            for i in range(top + 1, m):
                if a[i][top] != 0:
                    if a[i][top] % a[top][top] == 0:
                        f = a[i][top] // a[top][top]
                        a[i] = [q - f * p for p, q in zip(a[top], a[i])]
                    else:
                        g, x, y = xgcd(a[top][top], a[i][top])
                        u, v = a[top][top] // g, a[i][top] // g
                        r0, r1 = a[top], a[i]
                        a[top] = [x * p + y * q for p, q in zip(r0, r1)]
                        a[i] = [-v * p + u * q for p, q in zip(r0, r1)]
            # clear row `top` with column steps, same divisibility shortcut
            for j in range(top + 1, n):
                if a[top][j] != 0:
                    if a[top][j] % a[top][top] == 0:
                        f = a[top][j] // a[top][top]
                        for row in a:
                            row[j] -= f * row[top]
                    else:
                        g, x, y = xgcd(a[top][top], a[top][j])
                        u, v = a[top][top] // g, a[top][j] // g
                        for row in a:
                            p, q = row[top], row[j]
                            row[top] = x * p + y * q
                            row[j] = -v * p + u * q
            if all(a[i][top] == 0 for i in range(top + 1, m)) and all(
                a[top][j] == 0 for j in range(top + 1, n)
            ):
                break
        factors.append(abs(a[top][top]))
        top += 1
    # enforce the divisibility chain
    changed = True
    while changed:
        changed = False
        for i in range(len(factors) - 1):
            if factors[i + 1] % factors[i] != 0:
                g = gcd(factors[i], factors[i + 1])
                factors[i], factors[i + 1] = g, factors[i] * factors[i + 1] // g
                changed = True
    return factors
