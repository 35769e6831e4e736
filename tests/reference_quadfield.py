"""Reference arithmetic in K_L = Q(c) the quadfield tests compare against.

None of it runs in the engine.  A product is the full polynomial product
of the coefficient lists, reduced by long division by the minimal
polynomial `two_cos_min_poly(L)`; the conjugate of a quadratic element
substitutes the other root -p1 - c for c and reduces the same way.  The
multiplication matrix, the array pairing and scaling, and the norm are
built from those two operations entry by entry.
"""

from typing import List, Sequence, Tuple

from weylconvex.quadfield import two_cos_min_poly


def reduce_poly(prod: Sequence[int], L: int) -> Tuple[int, ...]:
    """sum(prod[j] c^j) reduced by long division by the minimal polynomial."""
    poly = two_cos_min_poly(L)
    n = len(poly) - 1
    rem = list(prod) + [0] * max(0, n - len(prod))
    for top in range(len(rem) - 1, n - 1, -1):
        q = rem[top]  # the minimal polynomial is monic
        if q:
            for i, p in enumerate(poly):
                rem[top - n + i] -= q * p
    return tuple(rem[:n])


def poly_mul(a: Sequence[int], b: Sequence[int]) -> List[int]:
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return prod


def mul(a: Sequence[int], b: Sequence[int], L: int) -> Tuple[int, ...]:
    return reduce_poly(poly_mul(a, b), L)


def conjugate(a: Sequence[int], L: int) -> Tuple[int, ...]:
    """a(-p1 - c) for a quadratic field: Horner in the substituted root."""
    poly = two_cos_min_poly(L)
    if len(poly) != 3:
        raise ValueError(f"K_{L} is not quadratic")
    root = [-poly[1], -1]
    acc = [0]
    for v in reversed(a):
        acc = poly_mul(acc, root)
        acc[0] += v
    return reduce_poly(acc, L)


def norm(a: Sequence[int], L: int) -> int:
    """a times its conjugate, which the tests check is an integer."""
    N, *rest = mul(a, conjugate(a, L), L)
    if any(rest):
        raise ValueError(f"norm of {a} in K_{L} is not rational")
    return N


def mul_matrix(a: Sequence[int], L: int) -> Tuple[Tuple[int, ...], ...]:
    """Rows of the matrix whose column j is a c^j."""
    n = len(two_cos_min_poly(L)) - 1
    cols = [mul(a, [0] * j + [1], L) for j in range(n)]
    return tuple(zip(*cols))


def entries(P) -> List[Tuple[int, ...]]:
    """The Z[c] entries of a coefficient-major array."""
    return [tuple(e) for e in zip(*P)]


def array(es: Sequence[Sequence[int]], n: int) -> Tuple[Tuple[int, ...], ...]:
    """A coefficient-major array from its Z[c] entries."""
    return tuple(tuple(e[i] for e in es) for i in range(n))


def scale(a: Sequence[int], P, L: int):
    """a times each entry of an array."""
    return array([mul(a, e, L) for e in entries(P)], len(P))


def dot(P, S, L: int) -> Tuple[int, ...]:
    """sum_t P_t S_t over Z[c], entry by entry."""
    acc = (0,) * len(P)
    for p, s in zip(entries(P), entries(S)):
        acc = tuple(map(int.__add__, acc, mul(p, s, L)))
    return acc
