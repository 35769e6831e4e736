"""Exact arithmetic in the real cyclotomic fields K_L = Q(c), c = 2cos(2pi/L).

A rotation by 2*pi*a/d has 2cos in K_d, and K_d lies in K_L whenever d
divides L.  A sequence of angles is computed in K_L with L the lcm of the
orders d whose 2cos(2pi/d) is irrational: rational sequences stay in Q
(L = 1), and orders 5 and 3 share Q(sqrt 5) = K_5.

An element is a vector of integer coefficients in powers of c over one
positive denominator, reduced by the monic integer minimal polynomial of
c.  That polynomial comes from the cyclotomic polynomial Phi_L through
t + 1/t (Watkins and Zeitlin, Amer. Math. Monthly 1993).  Reduced
coefficients are unique, so zero tests are exact.  Signs are exact too:
degree 1 reads the numerator; degree 2 writes a0 + a1 c as
(u + v sqrt D) / 2 and compares u^2 with v^2 D in integers; every higher
degree evaluates by interval Horner on a rational interval around c,
bisected until the sign is decided.  The interval is certified once per
field: the minimal polynomial alternates in sign across separation points
between its real roots, so each gap holds exactly one root.  Floats only
place those separation points.

The quadratic fields K_5, K_8, K_10 and K_12, which hold 2cos of every
rotation order of degree 2, take closed forms in `mul`, `mul_matrix`,
`norm_adj`, `sign`, `scale` and `dot`, as Q does: with c^2 = -p1 c - p0,
a product is four integer terms and the norm adjoint of a0 + a1 c is its
conjugate a0 - p1 a1 - a1 c.

Eigenspace bases and the cone tests run on integer vectors over Z[c].
Such a vector (an "array") is stored coefficient-major, as `degree` int
tuples of equal length, so its pairing with an integer root row is one
integer dot product per power of c.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import cos, gcd, isqrt, lcm, pi
from operator import add, mul, sub
from typing import List, Optional, Sequence, Tuple

from .errors import InconsistencyError
from .linalg import cyclotomic

Coeffs = Tuple[int, ...]
Array = Tuple[Coeffs, ...]

# 2cos(2pi/d) for the rotation orders d where it is rational; 2cos(2pi a/d)
# has the same value for every a prime to d.
_RATIONAL_TWO_COS = {1: 2, 2: -2, 3: -1, 4: 0, 6: 1}


def two_cos_min_poly(L: int) -> List[int]:
    """Monic integer minimal polynomial of 2cos(2pi/L), constant term first."""
    if L <= 2:
        return [-_RATIONAL_TWO_COS[L], 1]
    phi = cyclotomic(L)  # palindromic, of degree 2m
    m = (len(phi) - 1) // 2
    # t^-m Phi_L(t) = b_m + sum_k b_(m+k) V_k(t + 1/t), where V_k is the
    # integer polynomial with V_k(t + 1/t) = t^k + t^-k:
    # V_0 = 2, V_1 = s, V_(k+1) = s V_k - V_(k-1).
    out = [phi[m]] + [0] * m
    prev, cur = [2], [0, 1]
    for k in range(1, m + 1):
        for i, v in enumerate(cur):
            out[i] += phi[m + k] * v
        nxt = [0] + cur
        for i, v in enumerate(prev):
            nxt[i] -= v
        prev, cur = cur, nxt
    return out


class CosField:
    """K_L = Q(c) with c = 2cos(2pi/L); `cos_field(L)` shares one per L.

    Methods on bare coefficient tuples (`mul`, `sign`, `norm_adj`) and on
    arrays (`scale`, `dot`) serve the eigenspace kernels and the integer
    cone tests; `vector` turns an array over a denominator into `CosNum`
    scalars, the values a good-position certificate reports.
    """

    def __init__(self, L: int):
        self.L = L
        self.poly = two_cos_min_poly(L)
        n = self.degree = len(self.poly) - 1
        # c^j reduced, for every j a product of two reduced elements reaches.
        powers, cur = [], [1] + [0] * (n - 1)
        for _ in range(max(2 * n - 1, 2)):
            powers.append(tuple(cur))
            top = cur[-1]
            cur = [0] + cur[:-1]
            cur = [v - top * p for v, p in zip(cur, self.poly)]
        self._powers = tuple(powers)
        self.zero = self.number(0)
        self.one = self.number(1)
        if n == 2:  # c = (-p1 + root sqrt(sqfree)) / 2, the larger root
            self._p0, self._p1 = self.poly[0], self.poly[1]
            disc = self._p1 ** 2 - 4 * self._p0  # = root^2 sqfree
            self._root = max(f for f in range(1, isqrt(disc) + 1) if disc % (f * f) == 0)
            self._sqfree = disc // self._root ** 2
        # The automorphisms c -> 2cos(2pi j/L) for j prime to L, 1 < j <= L/2,
        # as matrices whose column i is the image of c^i (degree 3 and up:
        # `norm_adj` conjugates a quadratic element in closed form).
        self._galois = []
        if n > 2:
            for j in range(2, L // 2 + 1):
                if gcd(j, L) == 1:
                    image, cols = self.two_cos(j), [powers[0]]
                    for _ in range(n - 1):
                        cols.append(self.mul(cols[-1], image))
                    self._galois.append(tuple(zip(*cols)))
        if n > 1:
            self._isolate()

    # -- elements ---------------------------------------------------------

    def make(self, nums: Sequence[int], den: int) -> "CosNum":
        """sum(nums[i] c^i) / den in lowest terms; den is a nonzero int."""
        g = gcd(*nums, den)
        if den < 0:
            g = -g
        if g != 1:
            nums = [v // g for v in nums]
            den //= g
        return CosNum(self, tuple(nums), den)

    def number(self, q) -> "CosNum":
        """The rational q (int or Fraction) as an element."""
        return CosNum(self, *self.parts(Fraction(q)))

    def parts(self, v) -> Optional[Tuple[Coeffs, int]]:
        """(nums, den) of an element or rational, or None for other types."""
        if isinstance(v, CosNum):
            if v.field is not self:
                raise ValueError(f"mixing elements of K_{v.field.L} and K_{self.L}")
            return v.nums, v.den
        if isinstance(v, (int, Fraction)):
            return (v.numerator,) + (0,) * (self.degree - 1), v.denominator
        return None

    # -- integer coefficient tuples ---------------------------------------

    def two_cos(self, m: int) -> Coeffs:
        """2cos(2pi m/L) = V_m(c) for m >= 1, where 2cos(m x) = V_m(2cos x):
        V_0 = 2, V_1 = c, V_(k+1) = c V_k - V_(k-1)."""
        c = self._powers[1]
        prev, cur = (2,) + (0,) * (self.degree - 1), c
        for _ in range(m - 1):
            prev, cur = cur, tuple(map(sub, self.mul(c, cur), prev))
        return cur

    def mul(self, a: Coeffs, b: Coeffs) -> Coeffs:
        """The product of two elements of Z[c], reduced."""
        n = self.degree
        if n == 1:
            return (a[0] * b[0],)
        if n == 2:
            a0, a1 = a
            b0, b1 = b
            t = a1 * b1
            return (a0 * b0 - self._p0 * t, a0 * b1 + a1 * b0 - self._p1 * t)
        prod = [0] * (2 * n - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        return self._reduce(prod)

    def _reduce(self, prod: List[int]) -> Coeffs:
        """sum(prod[j] c^j) for j < 2 * degree - 1, reduced."""
        out = prod[:self.degree]
        for j in range(self.degree, len(prod)):
            if prod[j]:
                out = [u + prod[j] * p for u, p in zip(out, self._powers[j])]
        return tuple(out)

    def mul_matrix(self, a: Coeffs) -> Array:
        """Rows of the matrix of multiplication by a: column j is a c^j."""
        if self.degree == 1:
            return (a,)
        if self.degree == 2:  # a c = -p0 a1 + (a0 - p1 a1) c
            a0, a1 = a
            return ((a0, -self._p0 * a1), (a1, a0 - self._p1 * a1))
        cols, col = [], list(a)
        for _ in range(self.degree):
            cols.append(col)
            top = col[-1]  # col * c, with c^n = -sum(poly[i] c^i)
            col = [v - top * p for v, p in zip([0] + col[:-1], self.poly)]
        return tuple(zip(*cols))

    def norm_adj(self, a: Coeffs) -> Tuple[int, Coeffs]:
        """(N, b) with a * b = N a nonzero int and b in Z[c], for a != 0.

        b is the product of the other Galois conjugates of a, so N is the
        norm of a; in degree 2, b is the conjugate a0 + a1 (-p1 - c).
        """
        if self.degree == 2:
            b = (a[0] - self._p1 * a[1], -a[1])
        else:
            b = self._powers[0]
            for G in self._galois:
                b = self.mul(b, tuple(sum(map(mul, row, a)) for row in G))
        N, *rest = self.mul(a, b)
        if any(rest) or not N:
            raise InconsistencyError(f"norm of {a} in K_{self.L} is not a nonzero integer")
        return N, b

    def sign(self, a: Coeffs) -> int:
        """Exact sign of sum(a[i] c^i).

        Degree 1 reads the numerator.  Degree 2 reads the sign of
        u + v sqrt D = 2 a(c), u = 2 a0 - p1 a1 and v = root a1: where u and v
        differ in sign, |u| > |v| sqrt D exactly when u^2 > v^2 D, and the
        two are never equal, D being squarefree and not 1.  Higher degrees
        run interval Horner, bisecting the shared interval until it decides.
        """
        n = self.degree
        if n == 1:
            return (a[0] > 0) - (a[0] < 0)
        if n == 2:
            u = 2 * a[0] - self._p1 * a[1]
            v = self._root * a[1]
            su = (u > 0) - (u < 0)
            sv = (v > 0) - (v < 0)
            if su == sv or not sv:
                return su
            if not su:
                return sv
            return su if u * u > v * v * self._sqfree else sv
        if not any(a):
            return 0
        while True:
            s = self._interval_sign(a)
            if s:
                return s
            self._bisect(32)

    # -- the isolating interval of c (degree >= 2) -------------------------

    def _poly_sign(self, num: int, k: int) -> int:
        """Sign of the minimal polynomial at num / 2^k, by Horner on ints."""
        n = self.degree
        acc = 1
        for i in range(n - 1, -1, -1):
            acc = acc * num + (self.poly[i] << (k * (n - i)))
        return (acc > 0) - (acc < 0)

    def _isolate(self) -> None:
        """Certify a dyadic interval (lo, hi) / 2^k holding c and no other root."""
        L, n = self.L, self.degree
        roots = sorted(
            (2 * cos(2 * pi * j / L) for j in range(1, (L + 1) // 2) if gcd(j, L) == 1),
            reverse=True,
        )
        cuts = [Fraction(2)] + [Fraction((u + v) / 2) for u, v in zip(roots, roots[1:])]
        cuts.append(Fraction(-2))
        k = max(q.denominator for q in cuts).bit_length() - 1
        nums = [q.numerator * ((1 << k) // q.denominator) for q in cuts]
        signs = [self._poly_sign(v, k) for v in nums]
        if len(roots) != n or any(s * t >= 0 for s, t in zip(signs, signs[1:])):
            raise InconsistencyError(f"separation points do not isolate the roots of K_{L}")
        self._lo, self._hi, self._k, self._lo_sign = nums[1], nums[0], k, signs[1]
        self._bisect(64)
        if self._lo <= 0:
            raise InconsistencyError(f"2cos(2pi/{L}) is not isolated from zero")

    def _bisect(self, steps: int) -> None:
        lo, hi, k = self._lo, self._hi, self._k
        for _ in range(steps):
            lo, hi, k = 2 * lo, 2 * hi, k + 1
            mid = (lo + hi) // 2
            s = self._poly_sign(mid, k)
            if s == 0:
                raise InconsistencyError(f"rational root of the minimal polynomial of K_{self.L}")
            if s == self._lo_sign:
                lo = mid
            else:
                hi = mid
        self._lo, self._hi, self._k = lo, hi, k

    def _interval_sign(self, a: Coeffs) -> int:
        """Sign of a(c) if interval Horner on the current interval decides it, else 0."""
        lo, hi, k = self._lo, self._hi, self._k  # 0 < lo < hi
        n = len(a)
        low = high = a[-1]
        for i in range(n - 2, -1, -1):
            shift = a[i] << (k * (n - 1 - i))
            low = (low * lo if low >= 0 else low * hi) + shift
            high = (high * hi if high >= 0 else high * lo) + shift
        return 1 if low > 0 else (-1 if high < 0 else 0)

    # -- arrays: integer vectors over Z[c] ----------------------------------

    def scale(self, M: Array, P: Array) -> Array:
        """a * P for the mul_matrix M of a scalar a of Z[c]."""
        if self.degree == 1:
            f = M[0][0]
            return (tuple(f * v for v in P[0]),)
        if self.degree == 2:
            (m00, m01), (m10, m11) = M
            P0, P1 = P
            return (
                tuple([m00 * x + m01 * y for x, y in zip(P0, P1)]),
                tuple([m10 * x + m11 * y for x, y in zip(P0, P1)]),
            )
        entries = list(zip(*P))
        return tuple(tuple(sum(map(mul, row, e)) for e in entries) for row in M)

    def dot(self, P: Array, S: Array) -> Coeffs:
        """sum_t P_t S_t over Z[c]."""
        n = self.degree
        if n == 2:
            P0, P1 = P
            S0, S1 = S
            t = sum(map(mul, P1, S1))
            return (
                sum(map(mul, P0, S0)) - self._p0 * t,
                sum(map(mul, P0, S1)) + sum(map(mul, P1, S0)) - self._p1 * t,
            )
        prod = [0] * (2 * n - 1)
        for i, p in enumerate(P):
            for j, s in enumerate(S):
                prod[i + j] += sum(map(mul, p, s))
        return self._reduce(prod)

    def vector(self, P: Array, den: int) -> List["CosNum"]:
        """The entries of P / den."""
        return [self.make(nums, den) for nums in zip(*P)]


def array_dot(P: Array, row: Sequence[int]) -> Coeffs:
    """The Z[c] coefficients of the dot product of an array with an integer row."""
    return tuple(sum(map(mul, p, row)) for p in P)


def array_combination(coefs: Sequence[int], arrays: Sequence[Array]) -> Array:
    """sum(coefs[j] * arrays[j]) for integer coefficients."""
    return tuple(
        tuple(sum(map(mul, coefs, column)) for column in zip(*parts))
        for parts in zip(*arrays)
    )


def array_add(P: Array, Q: Array) -> Array:
    return tuple(tuple(map(add, p, q)) for p, q in zip(P, Q))


class CosNum:
    """The element sum(nums[i] c^i) / den of a CosField; den > 0, lowest terms.

    Elements mix freely with ints and Fractions, and are false exactly
    when zero.  Degree 1 and 2 elements print as Fractions and as
    (a+b*sqrtD) with D squarefree; higher degrees print as a polynomial
    in c_L, written cL with the number L, e.g. (1+2*c7^2).
    """

    __slots__ = ("field", "nums", "den")

    def __init__(self, field: CosField, nums: Coeffs, den: int):
        self.field = field
        self.nums = nums
        self.den = den

    def __add__(self, other):
        p = self.field.parts(other)
        if p is None:
            return NotImplemented
        nums, den = p
        if den == self.den:
            return self.field.make(list(map(add, self.nums, nums)), den)
        return self.field.make(
            [a * den + b * self.den for a, b in zip(self.nums, nums)], den * self.den
        )

    __radd__ = __add__

    def __neg__(self):
        return CosNum(self.field, tuple(-v for v in self.nums), self.den)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        p = self.field.parts(other)
        if p is None:
            return NotImplemented
        return self.field.make(self.field.mul(self.nums, p[0]), self.den * p[1])

    __rmul__ = __mul__

    def inverse(self) -> "CosNum":
        if not self:
            raise ZeroDivisionError(f"zero element of K_{self.field.L}")
        N, adj = self.field.norm_adj(self.nums)
        return self.field.make([v * self.den for v in adj], N)

    def __truediv__(self, other):
        p = self.field.parts(other)
        if p is None:
            return NotImplemented
        return self * CosNum(self.field, *p).inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def _rational(self) -> Optional[Fraction]:
        return None if any(self.nums[1:]) else Fraction(self.nums[0], self.den)

    def __eq__(self, other):
        if isinstance(other, CosNum) and other.field is not self.field:
            q = self._rational()
            return q is not None and q == other._rational()
        p = self.field.parts(other)
        if p is None:
            return NotImplemented
        return self.nums == p[0] and self.den == p[1]

    def __hash__(self):
        q = self._rational()
        return hash(q) if q is not None else hash((self.field.L, self.nums, self.den))

    def __bool__(self):
        return any(self.nums)

    def sign(self) -> int:
        return self.field.sign(self.nums)

    def __repr__(self):
        q = self._rational()
        if q is not None:
            return f"{q}"
        f = self.field
        if f.degree == 2:  # (p + q c) / den with c = (-m1 + r sqrt(D)) / 2
            a = Fraction(2 * self.nums[0] - f.poly[1] * self.nums[1], 2 * self.den)
            b = Fraction(self.nums[1] * f._root, 2 * self.den)
            return f"({a}+{b}*sqrt{f._sqfree})"
        terms = []
        for i, v in enumerate(self.nums):
            if v:
                power = "" if i == 0 else f"*c{f.L}" + (f"^{i}" if i > 1 else "")
                terms.append(f"{Fraction(v, self.den)}{power}")
        return "(" + "+".join(terms).replace("+-", "-") + ")"


@lru_cache(maxsize=None)
def cos_field(L: int) -> CosField:
    return CosField(L)


def rotation_order(angle) -> int:
    """The order d of a rotation by theta = pi * p/q, p/q = angle in lowest
    terms: theta / (2 pi) = p / (2q) reduces to (p/2) / q for p even, and
    is already in lowest terms for p odd."""
    q = angle.denominator
    return q if angle.numerator % 2 == 0 else 2 * q


def field_for(angles) -> CosField:
    """K_L for L the lcm of the orders d with 2cos(2pi/d) irrational.

    Angles are theta/pi; the rotation order of theta is the denominator
    of theta / (2 pi).
    """
    L = 1
    for a in angles:
        d = rotation_order(a)
        if d not in _RATIONAL_TWO_COS:
            L = lcm(L, d)
    return cos_field(L)


def two_cos_in(angle: Fraction, field: CosField) -> CosNum:
    """2cos(pi*angle) in a field that holds it."""
    d = rotation_order(angle)  # theta / (2*pi) = a / d in lowest terms
    if d in _RATIONAL_TWO_COS:
        return field.number(_RATIONAL_TWO_COS[d])
    if field.L % d:
        raise ValueError(f"2cos(pi*{angle}) does not lie in K_{field.L}")
    a = angle.numerator * d // (2 * angle.denominator)
    return CosNum(field, field.two_cos(a * field.L // d), 1)


def two_cos_exact(angle: Fraction):
    """2*cos(pi*angle) for angle = theta/pi in (0, 1], or None.

    None means the value has degree > 2 over Q; otherwise it is an element
    of Q or of a real quadratic field.
    """
    field = field_for([angle])
    return two_cos_in(angle, field) if field.degree <= 2 else None
