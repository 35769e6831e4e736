"""Exact arithmetic in real quadratic extensions Q(sqrt(D)).

Rotation angles 2*pi*a/d with d in {5, 8, 10, 12} have 2*cos values in a
real quadratic field; everything the geometry module decides about them
(kernels, cone feasibility, sign tests) stays exact when computed here.
Angles needing higher-degree fields fall back to floats elsewhere.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Union

Rational = Union[int, Fraction]


class QuadExt:
    """a + b*sqrt(D) with Fraction parts; D a fixed squarefree integer > 1."""

    __slots__ = ("a", "b", "D")

    def __init__(self, a, b, D: int):
        self.a = Fraction(a)
        self.b = Fraction(b)
        self.D = D

    def _coerce(self, other) -> Optional["QuadExt"]:
        if isinstance(other, QuadExt):
            if other.D != self.D and other.b != 0 and self.b != 0:
                raise ValueError("mixing different quadratic fields")
            D = self.D if self.b != 0 or other.b == 0 else other.D
            return QuadExt(other.a, other.b, D)
        if isinstance(other, (int, Fraction)):
            return QuadExt(other, 0, self.D)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(self.a + o.a, self.b + o.b, self.D)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.D)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(self.a - o.a, self.b - o.b, self.D)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(o.a - self.a, o.b - self.b, self.D)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(
            self.a * o.a + self.b * o.b * self.D,
            self.a * o.b + self.b * o.a,
            self.D,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        denom = self.a * self.a - self.b * self.b * self.D
        if denom == 0:
            raise ZeroDivisionError("zero element of Q(sqrt(D))")
        return QuadExt(self.a / denom, -self.b / denom, self.D)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if isinstance(other, QuadExt):
            if self.b == 0 and other.b == 0:
                return self.a == other.a
            return self.D == other.D and self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.D))

    def sign(self) -> int:
        return quad_sign(self.a, self.b, self.D)

    def __lt__(self, other):
        o = self._coerce(other)
        return (self - o).sign() < 0

    def __le__(self, other):
        o = self._coerce(other)
        return (self - o).sign() <= 0

    def __gt__(self, other):
        o = self._coerce(other)
        return (self - o).sign() > 0

    def __ge__(self, other):
        o = self._coerce(other)
        return (self - o).sign() >= 0

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(self.D)

    def __repr__(self):
        if self.b == 0:
            return f"{self.a}"
        return f"({self.a}+{self.b}*sqrt{self.D})"


def quad_sign(a, b, D: int) -> int:
    """Exact sign of a + b*sqrt(D) for rational (int or Fraction) a and b.

    D is a positive integer; when it is not a square the sign is decided
    by comparing a^2 with D b^2, with no square root taken.
    """
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0 or (a > 0) == (b > 0):
        return 1 if b > 0 else -1
    lhs = a * a
    rhs = b * b * D
    if lhs == rhs:
        return 0
    return (1 if a > 0 else -1) if lhs > rhs else (1 if b > 0 else -1)


def sign_of(x) -> int:
    """Exact sign of a Fraction, int or QuadExt."""
    if isinstance(x, QuadExt):
        return x.sign()
    return quad_sign(x, 0, 1)


# 2*cos(2*pi*a/d) for the exactly representable rotation orders.
# Keys are (a, d) with gcd(a, d) = 1 and 0 < a/d <= 1/2.
_SQRT5 = 5
_TWO_COS = {
    (1, 1): Fraction(2),
    (1, 2): Fraction(-2),
    (1, 3): Fraction(-1),
    (1, 4): Fraction(0),
    (1, 6): Fraction(1),
    (1, 5): QuadExt(Fraction(-1, 2), Fraction(1, 2), _SQRT5),
    (2, 5): QuadExt(Fraction(-1, 2), Fraction(-1, 2), _SQRT5),
    (1, 8): QuadExt(0, 1, 2),
    (3, 8): QuadExt(0, -1, 2),
    (1, 10): QuadExt(Fraction(1, 2), Fraction(1, 2), _SQRT5),
    (3, 10): QuadExt(Fraction(1, 2), Fraction(-1, 2), _SQRT5),
    (1, 12): QuadExt(0, 1, 3),
    (5, 12): QuadExt(0, -1, 3),
}


def two_cos_exact(angle: Fraction):
    """2*cos(pi*angle) for angle = theta/pi in (0, 1], or None.

    None means the value lives in a field of degree > 2 over Q and the
    caller must use the float path.
    """
    half = Fraction(angle, 2)  # theta / (2*pi)
    key = (half.numerator, half.denominator)
    return _TWO_COS.get(key)


def field_disc(angle: Fraction) -> Optional[int]:
    """The D for which 2cos(pi*angle) lies in Q(sqrt(D)); 1 for rational."""
    val = two_cos_exact(angle)
    if val is None:
        return None
    if isinstance(val, QuadExt):
        return val.D
    return 1


def lift(x, D: Optional[int]):
    """Embed a rational scalar into Q(sqrt(D)) when a common field is needed."""
    if D is None or D == 1 or isinstance(x, QuadExt):
        return x
    return QuadExt(x, 0, D)
