"""Root and group helpers that only the tests use.

None of it runs in the engine: the ambient vectors of the roots, rebuilt
from the simple roots and the integer coefficients, and their dot product,
the identity element, quasi-convexity as a bare Boolean, the common order
of the twisted Coxeter elements, the reflection ordering that the
half-turn word of a Coxeter element gives, and the orbit search under
simple conjugation that applies every pair but the one that reached a
member (the reference for the pruned `perm.sandwich_orbit`).
"""

from fractions import Fraction
from typing import List, Tuple

from weylconvex import perm
from weylconvex.convexity import analyze
from weylconvex.coxeter import check_w0_condition, coxeter_elements, reflection_ordering
from weylconvex.errors import InconsistencyError, InputError
from weylconvex.roots import _simple_roots
from weylconvex.weyl import from_word


def ambient(rs, coeffs) -> Tuple:
    """sum_j coeffs[j] alpha_j in ambient coordinates, for the simple roots
    alpha_j of the standard orthonormal-basis layout."""
    simples = _simple_roots(rs.cartan_type)
    return tuple(
        sum((c * a[k] for c, a in zip(coeffs, simples) if c), Fraction(0))
        for k in range(len(simples[0]))
    )


def ambient_roots(rs) -> List[Tuple[Fraction, ...]]:
    """The ambient rational vector of every root, by root index; the engine
    keeps only the simple-root coefficients."""
    return [ambient(rs, c) for c in rs.coeffs]


def dot(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def identity_element(rs, delta=None):
    return from_word(rs, delta, [])


def is_quasi_convex(x) -> bool:
    return analyze(x).quasi_convex


def coxeter_order(rs, delta=None) -> int:
    """h: the common order of c*delta over all delta-Coxeter elements."""
    orders = {c.order() for c in coxeter_elements(rs, delta)}
    if len(orders) != 1:
        raise InconsistencyError(f"Coxeter element orders differ: {orders}")
    return orders.pop()


def half_turn_ordering(x):
    """The reflection ordering from w0 = c delta(c) ... delta^(h/2-1)(c).

    Only valid under the half-turn condition, where the concatenated word
    is automatically reduced; both facts are re-verified.
    """
    rs = x.rs
    h = x.order()
    if not check_w0_condition(x):
        raise InputError("half-turn condition does not hold for this element")
    word_c = list(x.word())
    # Concatenate the twist-iterates of the Coxeter word.  Starting the
    # iteration at delta(c) rather than c makes the suffix bijection of the
    # resulting w0 word line up with the level blocks of c*delta under the
    # rightmost-first composition convention used throughout; the two words
    # differ by a global application of delta and describe the same w0.
    big: List[int] = []
    for t in range(1, h // 2 + 1):
        mapped = list(word_c)
        for _ in range(t * x.twist_power):
            mapped = [x.twist.simple_perm[lab] for lab in mapped]
        big.extend(mapped)
    try:
        return reflection_ordering(rs, big)
    except InputError as exc:
        raise InconsistencyError(
            f"half-turn word failed to be a reduced w0 expression: {exc}"
        )


def sandwich_orbit(start, pairs, value_of):
    """The orbit of start under w -> s*w*t for (s, t) in pairs, as a dict
    member -> value_of(member); every pair but the one that reached a member
    is applied to it."""
    if isinstance(start, bytes):
        tail = perm.PAD[len(start):]
        tables = [(s + tail, t) for s, t in pairs]

        def prepare(group):
            return [w + tail for w in group]

        def images(k, group):
            st, t = tables[k]
            return [t.translate(wt).translate(st) for wt in group]

    else:

        def prepare(group):
            return group

        def images(k, group):
            s, t = pairs[k]
            return [tuple([s[w[x]] for x in t]) for w in group]

    n = len(pairs)
    orbit = {start: value_of(start)}
    frontier = [[] for _ in range(n)] + [[start]]
    while any(frontier):
        reached = [[] for _ in range(n)]
        for j, group in enumerate(frontier):
            if not group:
                continue
            group = prepare(group)
            for k in range(n):
                if k != j:
                    found = reached[k]
                    for y in images(k, group):
                        if y not in orbit:
                            orbit[y] = value_of(y)
                            found.append(y)
        frontier = reached + [[]]
    return orbit
