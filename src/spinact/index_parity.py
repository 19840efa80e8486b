"""Parity of spin involutions from fixed-set data, and Dirac index arithmetic.

Parity rule: a nonempty fixed set with a 2-dimensional component makes the
involution odd; an all-0-dimensional fixed set makes it even. A free
involution gets no parity (None) rather than a guess. All index
quantities are exact rationals because half-integers must survive
untouched.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from ._record import frozen, set_field

ODD = "odd"
EVEN = "even"


@frozen
class ParityClass:
    # mixed: both dimensions present; the dimension-2 clause wins
    def __init__(self, value: str, mixed: bool = False):
        set_field(self, "value", value)
        set_field(self, "mixed", mixed)


# records are immutable, so every classification shares these three
_ODD_CLASS = ParityClass(ODD)
_ODD_MIXED_CLASS = ParityClass(ODD, mixed=True)
_EVEN_CLASS = ParityClass(EVEN)


def classify_parity(components) -> Optional[ParityClass]:
    """Odd or even from (dimension, count) fixed-set components; None for
    an empty fixed set, whose parity the dimensions cannot decide."""
    dims = {dim for dim, count in components if count > 0}
    if not dims:
        return None
    if 2 in dims:
        return _ODD_MIXED_CLASS if 0 in dims else _ODD_CLASS
    return _EVEN_CLASS


def lefschetz_index(n_plus: int, n_minus: int) -> Fraction:
    """Twisted Dirac index of an even involution with isolated fixed points."""
    return Fraction(n_plus - n_minus, 2)


def k_odd(signature: int) -> Fraction:
    """Lower bound -signature/16 that a smooth odd involution forces on b_plus."""
    return Fraction(-signature, 16)


def k_klein(signature: int, index_twisted: Fraction | int) -> Fraction:
    """Lower bound -signature/32 + index/8 in the Klein four-group inequality.

    The twisted index is taken for chosen lifts of the generators to the
    spin structure. Negating one generator's lift negates the
    composition's lift, and with it the index; both choices are lifts of
    the same action, so a smooth action satisfies both inequalities. The
    bound grows with the index, so callers pass its absolute value.
    """
    # one normalisation: (4n/d - signature)/32 with index n/d
    n, d = index_twisted.numerator, index_twisted.denominator
    return Fraction(4 * n - signature * d, 32 * d)
