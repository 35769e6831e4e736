"""The real cyclotomic fields K_L = Q(c_L), c_L = 2cos(2pi/L).

Signs are checked against a stdlib `decimal` evaluation at 60 digits,
independent of the floats that place the field's separation points.
"""

import random
from decimal import Decimal, localcontext
from fractions import Fraction
from math import gcd

import pytest

from weylconvex.quadfield import (
    cos_field,
    field_for,
    two_cos_exact,
    two_cos_in,
    two_cos_min_poly,
)

DIGITS = 60


def _pi() -> Decimal:
    """pi to the current precision (the recipe of the decimal docs)."""
    with localcontext() as ctx:
        ctx.prec += 2
        three = Decimal(3)
        lasts, t, s, n, na, d, da = 0, three, 3, 1, 0, 0, 24
        while s != lasts:
            lasts = s
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            t = (t * n) / d
            s += t
    return +s


def _cos(x: Decimal) -> Decimal:
    """cos(x) by its Taylor series (the recipe of the decimal docs)."""
    with localcontext() as ctx:
        ctx.prec += 2
        i, lasts, s, fact, num, sign = 0, 0, 1, 1, 1, 1
        while s != lasts:
            lasts = s
            i += 2
            fact *= i * (i - 1)
            num *= x * x
            sign *= -1
            s += num / fact * sign
    return +s


def two_cos_decimal(j: int, L: int) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = DIGITS
        return 2 * _cos(2 * _pi() * j / L)


def decimal_value(nums, den, c: Decimal) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = DIGITS
        return sum(Decimal(v) * c**i for i, v in enumerate(nums)) / den


def decimal_sign(x: Decimal) -> int:
    return (x > 0) - (x < 0)


def totient(L: int) -> int:
    return sum(1 for j in range(1, L + 1) if gcd(j, L) == 1)


@pytest.mark.parametrize("L", range(1, 61))
def test_min_poly_degree_and_roots(L):
    poly = two_cos_min_poly(L)
    assert poly[-1] == 1 and all(isinstance(v, int) for v in poly)
    assert len(poly) - 1 == max(1, totient(L) // 2)
    # 2cos(2pi j/L) for j prime to L and j <= L/2 are distinct (j = 1 when L = 1).
    roots = {j for j in range(1, L + 1) if gcd(j, L) == 1 and 2 * j <= max(L, 2)}
    assert len(roots) == len(poly) - 1
    for j in roots:
        # The coefficients reach 10^8 at L = 60, so allow for cancellation.
        value = decimal_value(poly, 1, two_cos_decimal(j, L))
        assert abs(value) < Decimal(10) ** (25 - DIGITS), (L, j)


@pytest.mark.parametrize("L", [5, 7, 8, 9, 10, 12, 15, 16, 24, 30])
def test_signs_match_decimal_on_random_elements(L):
    field = cos_field(L)
    c = two_cos_decimal(1, L)
    rng = random.Random(L)
    for _ in range(300):
        nums = tuple(rng.randint(-10**6, 10**6) for _ in range(field.degree))
        x = field.make(nums, rng.randint(1, 50))
        assert x.sign() == decimal_sign(decimal_value(x.nums, x.den, c))


@pytest.mark.parametrize("L", [5, 7, 8, 9, 10, 12, 15, 16, 24, 30])
def test_signs_match_decimal_near_cancellation(L):
    # q c - p for the continued-fraction convergents p/q of c is tiny but
    # never zero; so are its products with small elements.
    field = cos_field(L)
    c = two_cos_decimal(1, L)
    with localcontext() as ctx:
        ctx.prec = DIGITS
        convergents = []
        p0, q0, p1, q1 = 1, 0, int(c // 1), 1
        rest = c - int(c // 1)
        while q1 < 10**15:
            convergents.append((p1, q1))
            rest = 1 / rest
            a = int(rest // 1)
            rest -= a
            p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
    assert len(convergents) >= 10
    pad = (0,) * (field.degree - 2)
    for p, q in convergents:
        for other in ((1,) + (0,) * (field.degree - 1), (0, 1) + pad, (2, -1) + pad):
            x = field.make(field.mul((-p, q) + pad, other), 1)
            assert x
            assert x.sign() == decimal_sign(decimal_value(x.nums, 1, c))


@pytest.mark.parametrize("L", [5, 7, 9, 12, 15, 30])
def test_zero_test_and_field_laws(L):
    field = cos_field(L)
    rng = random.Random(100 + L)
    # Every conjugate 2cos(2pi j/L) is a root of the minimal polynomial.
    for j in range(1, L // 2 + 1):
        if gcd(j, L) == 1:
            root = two_cos_in(Fraction(2 * j, L), field)
            assert root
            value = field.zero
            for i, coef in enumerate(two_cos_min_poly(L)):
                term = field.one
                for _ in range(i):
                    term = term * root
                value = value + coef * term
            assert value == 0 and not value and value.sign() == 0
    for _ in range(50):
        x = field.make([rng.randint(-9, 9) for _ in range(field.degree)], rng.randint(1, 9))
        y = field.make([rng.randint(-9, 9) for _ in range(field.degree)], rng.randint(1, 9))
        assert x - x == 0 and (x + y) - y == x
        if y:
            assert (x / y) * y == x and y * (1 / y) == 1
            assert (y / y).sign() == 1


def test_field_choice():
    # L is the lcm of the orders with irrational 2cos: rational angles stay
    # in Q, and orders 5 and 3 share Q(sqrt 5).
    assert field_for([Fraction(1, 2), Fraction(1), Fraction(1, 3)]).L == 1
    assert field_for([Fraction(2, 5), Fraction(2, 3)]).L == 5
    assert field_for([Fraction(1, 15), Fraction(7, 15)]).L == 30
    assert field_for([Fraction(1, 4), Fraction(2, 5)]).L == 40


def test_two_cos_exact_contract():
    for d in range(1, 61):
        for a in range(1, d // 2 + 1):
            if gcd(a, d) != 1:
                continue
            angle = Fraction(2 * a, d)
            value = two_cos_exact(angle)
            assert (value is None) == (max(1, totient(d) // 2) > 2), angle
            if value is not None:
                field = field_for([angle])
                assert value == two_cos_in(angle, field)
                c = two_cos_decimal(1, field.L)
                diff = decimal_value(value.nums, value.den, c) - two_cos_decimal(a, d)
                assert abs(diff) < Decimal(10) ** -50, angle
    # The quadratic values print as they always have.
    assert repr(two_cos_exact(Fraction(2, 5))) == "(-1/2+1/2*sqrt5)"
    assert repr(two_cos_exact(Fraction(1, 4))) == "(0+1*sqrt2)"
    assert repr(two_cos_exact(Fraction(5, 6))) == "(0+-1*sqrt3)"
    assert repr(two_cos_exact(Fraction(2, 3))) == "-1"


def test_degree3_elements_print_as_polynomials():
    field = cos_field(7)
    assert repr(field.make((1, 0, 2), 1)) == "(1+2*c7^2)"
    assert repr(field.make((0, -3, 1), 2)) == "(-3/2*c7+1/2*c7^2)"
    assert repr(field.make((5, 0, 0), 3)) == "5/3"
