"""Small exact integer-matrix helpers shared across modules.

Matrices are tuples of tuples of ints, row-major. Nothing here touches
floating point.
"""

from __future__ import annotations

IntMatrix = tuple[tuple[int, ...], ...]


def freeze(rows) -> IntMatrix:
    return tuple(tuple(map(int, row)) for row in rows)


def identity(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(a: IntMatrix) -> IntMatrix:
    if not a:
        return ()
    return tuple(tuple(row[j] for row in a) for j in range(len(a[0])))


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Row by row, over the nonzero entries of both factors only: the
    operators multiplied here are mostly signed block permutations."""
    if a and b:
        assert len(a[0]) == len(b)
    width = len(b[0]) if b else 0
    b_rows = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for row in a:
        acc = [0] * width
        for x, entries in zip(row, b_rows):
            if x:
                for j, y in entries:
                    acc[j] += x * y
        out.append(tuple(acc))
    return tuple(out)


def mat_neg(a: IntMatrix) -> IntMatrix:
    return tuple(tuple(-x for x in row) for row in a)


def is_square(a: IntMatrix) -> bool:
    return {len(a)}.issuperset(map(len, a))


def is_symmetric(a: IntMatrix) -> bool:
    return is_square(a) and a == tuple(zip(*a))


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        g, x, y = -g, -x, -y
    return g, x, y
