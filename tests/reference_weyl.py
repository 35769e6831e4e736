"""Root and group helpers that only the tests use.

None of it runs in the engine: the ambient vectors of the roots, rebuilt
from the simple roots and the integer coefficients, and their dot product,
the integer matrix of an element on a stable parabolic span (the engine
reads every fact it needs off root orbits instead), the identity element,
quasi-convexity as a bare Boolean, the level filtration of a quasi-convex
element, the common order of the twisted Coxeter elements, the half-turn
condition compared as whole permutations (the reference for the engine's
check on the simple roots), reflection
orderings with their betweenness check and the one that the half-turn word
of a Coxeter element gives, a convex minimal-length element of an elliptic
class found by downward cyclic shifts, and the orbit search under simple
conjugation that applies every pair but the one that reached a member (the
reference for the pruned `perm.sandwich_orbit`), and the root-system build
that closes all roots under the simple reflections and looks up a + b for
every pair of roots (the reference for the positive-triple build).
"""

from fractions import Fraction
from operator import add, mul
from typing import Dict, FrozenSet, List, Sequence, Tuple

from weylconvex import convexity, perm, roots
from weylconvex.convexity import analyze
from weylconvex.coxeter import _suffix_betas, coxeter_elements
from weylconvex.errors import InconsistencyError, InputError
from weylconvex.roots import (
    MAX_ROOTS,
    RootSystem,
    _CLASSICAL_COUNTS,
    _cartan_matrix,
    _over_common_denominator,
    _simple_roots,
)
from weylconvex.weyl import _shift_reachable_set, from_word, is_elliptic, longest_element


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


def matrix(x, labels=None) -> List[List[int]]:
    """Integer matrix of the action of x on span(alpha_j : j in labels)."""
    rs = x.rs
    labels = list(range(rs.rank)) if labels is None else list(labels)
    pos = {lab: t for t, lab in enumerate(labels)}
    cols = []
    for lab in labels:
        col = [0] * len(labels)
        for j, v in enumerate(rs.coeffs[x.perm[rs.simple_indices[lab]]]):
            if v != 0:
                if j not in pos:
                    raise InputError("element does not stabilize the parabolic subspace")
                col[pos[j]] = v
        cols.append(col)
    return [[cols[j][i] for j in range(len(labels))] for i in range(len(labels))]


def identity_element(rs, delta=None):
    return from_word(rs, delta, [])


def is_quasi_convex(x) -> bool:
    return analyze(x).quasi_convex


def level_filtration(x) -> List[FrozenSet[int]]:
    """Nested closed sets Phi_{x,<=1}+ through Phi_{x,<=N}+.

    Only defined for quasi-convex x; the descent of the levels under x
    (the engine's `_check_descent`, which the cross-section rests on) and
    the closedness of the cumulative level sets are consequences of
    quasi-convexity and are re-verified here, loudly, on every call.
    """
    rs = x.rs
    rep = analyze(x)
    if not rep.quasi_convex:
        raise InputError("level filtration requires a quasi-convex element")
    grouped = convexity._levels(rep)
    convexity._check_descent(x, grouped)
    out: List[FrozenSet[int]] = []
    acc: set = set()
    for lev in range(1, max(grouped, default=0) + 1):
        acc.update(grouped.get(lev, ()))
        if not roots.is_closed(rs, acc):
            raise InconsistencyError(
                f"cumulative level set <= {lev} is not closed for {rs.cartan_type}"
            )
        out.append(frozenset(acc))
    return out


def coxeter_order(rs, delta=None) -> int:
    """h: the common order of c*delta over all delta-Coxeter elements."""
    orders = {c.order() for c in coxeter_elements(rs, delta)}
    if len(orders) != 1:
        raise InconsistencyError(f"Coxeter element orders differ: {orders}")
    return orders.pop()


def check_w0_condition(x) -> bool:
    """h = order(x) even and x^(h/2) = w0*delta^(k*h/2), compared as whole
    permutations."""
    h = x.order()
    if h % 2:
        return False
    twist = perm.power(x.twist.root_perm, x.twist_power * (h // 2))
    target = perm.compose(longest_element(x.rs).root_perm, twist)
    return perm.power(x.perm, h // 2) == target


def check_betweenness(rs, ordered: Sequence[int]) -> bool:
    """Every root sum sits strictly between its summands."""
    pos = {g: t for t, g in enumerate(ordered)}
    for a, pairs in enumerate(rs.positive_sums):
        for b, s in pairs:
            if b <= a:
                continue
            lo, hi = sorted((pos[a], pos[b]))
            if not (lo < pos[s] < hi):
                return False
    return True


def reflection_ordering(rs, w0_word: Sequence[int]) -> Tuple[int, ...]:
    """The ordering beta_N < ... < beta_1 of the positive roots attached to
    a reduced word for w0, ascending."""
    word = list(w0_word)
    x = from_word(rs, None, word)
    if x.length() != len(word):
        raise InputError("word is not reduced")
    if x != longest_element(rs):
        raise InputError("word is not an expression of the longest element")
    ordered = tuple(reversed(_suffix_betas(rs, word)))  # beta_N first (smallest)
    if sorted(ordered) != list(range(rs.positive_count)):
        raise InconsistencyError("betas do not enumerate the positive roots")
    if not check_betweenness(rs, ordered):
        raise InconsistencyError("constructed ordering violates betweenness")
    return ordered


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


def elliptic_min_convex(cls):
    """A convex minimal-length element reachable by downward cyclic shifts
    from the representative of an elliptic class: the least by word."""
    if not is_elliptic(cls.representative):
        raise InputError("class is not elliptic")
    candidates = [
        y
        for y in _shift_reachable_set(cls.representative)
        if y.length() == cls.min_length and analyze(y).convex
    ]
    if not candidates:
        raise InconsistencyError(
            "no convex element in the reachable minimal-length set of an "
            "elliptic class; this contradicts the minimal-length theorem"
        )
    return min(candidates, key=lambda e: (e.word(), e.root_perm))


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


def _reflect_all(c, j, cartan):
    """s_j(c) = c - <c, alpha_j^vee> e_j on simple-root coefficients."""
    d = sum(ct * cartan[t][j] for t, ct in enumerate(c) if ct)
    if d == 0:
        return c
    out = list(c)
    out[j] -= d
    return tuple(out)


def build_root_system_all_pairs(cartan_type) -> RootSystem:
    """The root system by closing every root under the simple reflections,
    with each reflection applied again to every root and a + b looked up
    for every pair of roots."""
    simples = _simple_roots(cartan_type)
    n = cartan_type.rank
    dim = len(simples[0])
    den, scaled = _over_common_denominator(simples)
    int_gram = [[sum(map(mul, a, b)) for b in scaled] for a in scaled]
    cartan = _cartan_matrix(cartan_type, int_gram)
    expected = _CLASSICAL_COUNTS[cartan_type.family](n)
    if expected > MAX_ROOTS:
        raise InputError(f"{cartan_type} has {expected} roots; the limit is {MAX_ROOTS}")
    units = [tuple(1 if t == i else 0 for t in range(n)) for i in range(n)]
    found = set(units)
    frontier = list(units)
    while frontier and len(found) <= expected:
        c = frontier.pop()
        for j in range(n):
            w = _reflect_all(c, j, cartan)
            if w not in found:
                found.add(w)
                frontier.append(w)
    if len(found) != expected:
        raise InconsistencyError(f"{cartan_type}: generated {len(found)} roots, expected {expected}")

    positives = []
    for c in found:
        pos = all(t >= 0 for t in c)
        if not (pos or all(t <= 0 for t in c)):
            raise InconsistencyError(f"{cartan_type}: root with mixed-sign coefficients {c}")
        if pos:
            amb = tuple(sum(ct * a[k] for ct, a in zip(c, scaled) if ct) for k in range(dim))
            positives.append((sum(c), amb, c))
    positives.sort()
    pc = len(positives)
    coeffs = [c for _, _, c in positives]
    coeffs += [tuple(-t for t in c) for c in coeffs]
    coeff_index = {c: i for i, c in enumerate(coeffs)}

    sum_table: Dict[Tuple[int, int], int] = {}
    for i, ci in enumerate(coeffs):
        for j in range(i, len(coeffs)):
            k = coeff_index.get(tuple(map(add, ci, coeffs[j])))
            if k is not None:
                sum_table[(i, j)] = k
                sum_table[(j, i)] = k
    positive_sums: List[List[Tuple[int, int]]] = [[] for _ in range(pc)]
    for (a, b), s in sum_table.items():
        if a < pc and b < pc:
            positive_sums[a].append((b, s))

    return RootSystem(
        cartan_type=cartan_type,
        coeffs=tuple(coeffs),
        coeff_index=coeff_index,
        positive_count=pc,
        simple_indices=tuple(coeff_index[u] for u in units),
        sum_table=sum_table,
        positive_sums=tuple(tuple(sorted(pairs)) for pairs in positive_sums),
        cartan=cartan,
        int_pairing_rows=tuple(
            tuple(sum(g[b] * cb for b, cb in enumerate(c) if cb) for g in int_gram)
            for c in coeffs
        ),
        reflections=tuple(
            perm.of([coeff_index[_reflect_all(c, j, cartan)] for c in coeffs])
            for j in range(n)
        ),
        support_masks=tuple(sum(1 << j for j, t in enumerate(c) if t) for c in coeffs),
    )
