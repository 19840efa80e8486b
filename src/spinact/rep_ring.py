"""Exact character arithmetic in the representation ring of the cyclic group Z4.

Virtual representations are integer multiplicity 4-vectors over the
irreducible characters t^a (the distinguished generator acts by i^a).
Character and alternating-exterior-power traces land in Gaussian
rationals, kept exact so the power-of-two integrality test is a real
decision and not a tolerance.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import frozen, set_field


class FixedVectorError(ValueError):
    """The subtracted representation has a vector fixed by the chosen element."""


# i^k for k = 0..3 as (re, im)
_I_POW = ((1, 0), (0, 1), (-1, 0), (0, -1))
# digits per chunk of decimal_text: below 640, the lowest int-to-str digit
# limit the interpreter accepts (PYTHONINTMAXSTRDIGITS, -X int_max_str_digits)
_CHUNK_DIGITS = 600
_CHUNK = 10**_CHUNK_DIGITS


def decimal_text(n: int) -> str:
    """`str(n)`, converted in chunks so that it prints under any digit limit."""
    if -_CHUNK < n < _CHUNK:
        return str(n)
    if n < 0:
        return "-" + decimal_text(-n)
    chunks = []
    while n >= _CHUNK:
        n, low = divmod(n, _CHUNK)
        chunks.append(f"{low:0{_CHUNK_DIGITS}d}")
    chunks.append(str(n))
    return "".join(reversed(chunks))


def fraction_text(x: Fraction) -> str:
    """`str(x)` with both terms rendered by `decimal_text`."""
    if x.denominator == 1:
        return decimal_text(x.numerator)
    return f"{decimal_text(x.numerator)}/{decimal_text(x.denominator)}"


@frozen
class GaussianValue:
    """Gaussian rational re + im*i with exact Fraction components."""

    def __init__(self, re: Fraction, im: Fraction = Fraction(0)):
        set_field(self, "re", Fraction(re))
        set_field(self, "im", Fraction(im))

    def __add__(self, other: "GaussianValue") -> "GaussianValue":
        return GaussianValue(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianValue") -> "GaussianValue":
        return GaussianValue(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "GaussianValue") -> "GaussianValue":
        return GaussianValue(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other: "GaussianValue") -> "GaussianValue":
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian value")
        return GaussianValue(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def __neg__(self) -> "GaussianValue":
        return GaussianValue(-self.re, -self.im)

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    @property
    def is_rational(self) -> bool:
        return self.im == 0

    @property
    def is_gaussian_integer(self) -> bool:
        return self.re.denominator == 1 and self.im.denominator == 1

    def __str__(self) -> str:
        re = fraction_text(self.re)
        if self.im == 0:
            return re
        if abs(self.im) != 1:
            im = f"{fraction_text(self.im)}i"
        else:
            im = "i" if self.im > 0 else "-i"
        if self.re == 0:
            return im
        sign = "+" if self.im > 0 else ""
        return f"{re}{sign}{im}"


def gaussian(re, im=0) -> GaussianValue:
    return GaussianValue(Fraction(re), Fraction(im))


@frozen
class VirtualRepZ4:
    """Multiplicity vector (m0, m1, m2, m3); negative entries are virtual."""

    def __init__(self, mult: tuple[int, int, int, int]):
        m = tuple(int(x) for x in mult)
        if len(m) != 4:
            raise ValueError("multiplicity vector must have length 4")
        set_field(self, "mult", m)

    def __add__(self, other: "VirtualRepZ4") -> "VirtualRepZ4":
        return VirtualRepZ4(tuple(a + b for a, b in zip(self.mult, other.mult)))

    def __sub__(self, other: "VirtualRepZ4") -> "VirtualRepZ4":
        return VirtualRepZ4(tuple(a - b for a, b in zip(self.mult, other.mult)))

    def __mul__(self, other: "VirtualRepZ4") -> "VirtualRepZ4":
        out = [0, 0, 0, 0]
        for i, a in enumerate(self.mult):
            if a == 0:
                continue
            for j, b in enumerate(other.mult):
                out[(i + j) % 4] += a * b
        return VirtualRepZ4(tuple(out))

    def __rmul__(self, scalar: int) -> "VirtualRepZ4":
        return VirtualRepZ4(tuple(scalar * a for a in self.mult))


ZERO_REP = VirtualRepZ4((0, 0, 0, 0))
TRIVIAL = VirtualRepZ4((1, 0, 0, 0))


def line(a: int) -> VirtualRepZ4:
    """Irreducible character sending the generator to i^a."""
    m = [0, 0, 0, 0]
    m[a % 4] = 1
    return VirtualRepZ4(tuple(m))


def character_value(r: VirtualRepZ4, a: int) -> GaussianValue:
    """Sum over lines of mult * i^(a*c), exactly in Gaussian integers."""
    re = im = 0
    for c, m in enumerate(r.mult):
        pr, pi = _I_POW[(a * c) % 4]
        re += m * pr
        im += m * pi
    return gaussian(re, im)


def lambda_minus_one_trace(r: VirtualRepZ4, a: int) -> GaussianValue:
    """Trace at element a of the alternating sum of exterior powers of r.

    For r = A - B this is the product of (1 - i^(a*c)) over the lines of A
    divided by the same product over the lines of B. A line of B fixed by
    a makes the denominator vanish, which violates the formula's
    hypothesis and raises FixedVectorError.
    """
    num = gaussian(1)
    den = gaussian(1)
    for c, m in enumerate(r.mult):
        if m == 0:
            continue
        pr, pi = _I_POW[(a * c) % 4]
        factor = gaussian(1 - pr, -pi)
        if m < 0 and factor.is_zero:
            raise FixedVectorError(
                f"element {a} fixes a vector of the subtracted representation"
            )
        power = gaussian(1)
        for _ in range(abs(m)):
            power = power * factor
        if m > 0:
            num = num * power
        else:
            den = den * power
    return num / den


def tomdieck_trace(
    d_fixed: int, w_perp: VirtualRepZ4, v_perp: VirtualRepZ4, a: int
) -> GaussianValue:
    """Degree-on-fixed-part times the lambda_-1 trace of w_perp - v_perp."""
    value = lambda_minus_one_trace(w_perp - v_perp, a)
    return gaussian(d_fixed) * value


def bk_trace_and_integrality(b: int, k: int) -> tuple[Fraction, bool]:
    """Closed form 2^(b-k) and whether it is an algebraic integer.

    A rational algebraic integer is an integer, so the test is b >= k.
    """
    return Fraction(2) ** (b - k), b >= k


def rep_spaces_from_data(
    m: int, n: int, b: int, k: int
) -> tuple[VirtualRepZ4, VirtualRepZ4]:
    """Complexified domain and target representations of the approximated map.

    Domain:  C2^m + (C1 + C-1)^(n+k);  target:  C2^(m+b) + (C1 + C-1)^n.
    """
    c2 = line(2)
    pair = line(1) + line(3)
    v_c = m * c2 + (n + k) * pair
    w_c = (m + b) * c2 + n * pair
    return v_c, w_c
