"""Root permutations: the one format every Weyl element is stored in.

A permutation p of range(n) lists images: p[i] is the index root i goes
to.  Products act rightmost first, (p*q)(i) = p(q(i)).

Root systems with at most 256 roots (every exceptional type and the small
classical ones) store p as ``bytes``, so a product is a single
``bytes.translate`` call and an element costs n bytes.  Larger systems
(A_n for n >= 16, B_n, C_n and D_n for n >= 12) store tuples of ints.
The format follows from the size alone; every function here accepts
either, and bytes permutations sort in the same order as their tuples.
A prefix p[:k] that tells a set of permutations apart keys them
(`sandwich_orbits`) and sorts them as the whole permutations do.
"""

from __future__ import annotations

from itertools import repeat
from math import lcm
from operator import itemgetter
from typing import Callable, Dict, Iterable, Iterator, List, Sequence, Tuple, TypeVar, Union

Perm = Union[bytes, Tuple[int, ...]]
V = TypeVar("V")

PAD = bytes(range(256))


def of(images: Sequence[int]) -> Perm:
    """The permutation with the given images, in the format for its size."""
    return bytes(images) if len(images) <= len(PAD) else tuple(images)


def identity(n: int) -> Perm:
    return PAD[:n] if n <= len(PAD) else tuple(range(n))


def compose(p: Perm, q: Perm) -> Perm:
    """p*q: i -> p(q(i))."""
    if isinstance(q, bytes):
        return q.translate(p + PAD[len(p):])
    # A tuple permutation has over 256 images, so itemgetter returns a tuple.
    return itemgetter(*q)(p)


def table(p: Perm) -> Perm:
    """p as `word_product` reads it: bytes padded to the 256 entries of a
    `bytes.translate` table, tuples as they are."""
    return p + PAD[len(p):] if isinstance(p, bytes) else p


def word_product(n: int, tables: Sequence[Perm], labels: Sequence[int]) -> Perm:
    """g_(l_1) * g_(l_2) * ... * g_(l_k) on range(n), for labels l_1 .. l_k
    that index the generators' `table`s.

    On bytes the letters are taken right to left, each one translate of
    the product so far through its generator's table: g_l * w is w
    translated through table(g_l).
    """
    w = identity(n)
    if isinstance(w, bytes):
        for lab in reversed(labels):
            w = w.translate(tables[lab])
        return w
    for lab in labels:
        w = compose(w, tables[lab])
    return w


def left_products(x: Perm, vs: Iterable[Perm]) -> Iterator[Perm]:
    """x*v for each v in vs, lazily and in order."""
    if isinstance(x, bytes):
        return map(bytes.translate, vs, repeat(table(x)))
    return (tuple([x[i] for i in v]) for v in vs)


def sandwich_orbits(
    pairs: Sequence[Tuple[Perm, Perm]], prefix: int
) -> Callable[[Perm, Callable[[Perm], V]], Dict[Perm, V]]:
    """The orbit search under g_k: w -> s_k*w*t_k for (s_k, t_k) in pairs,
    set up once for many starts.

    The search returned, called as search(start, value_of), keys each member
    w of the orbit of start by w[:prefix], which must identify it, and maps
    the key to value_of(key), called once, when the search reaches it.  The
    key of each image is read off t[:prefix] alone, and only images not
    reached before are built in full.

    Every s_k and t_k must be an involution: then g_k undoes itself, so the
    search never applies to a member the pair j that reached it, whose image
    is the member it came from.  Nor does it apply a pair k < j whose halves
    both commute with pair j's, since then g_k and g_j commute.  Which pairs
    commute is read off the pairs themselves.

    The search still reaches every member, layer by layer in the distance d
    from start.  Take an unreached z at distance d, and among the pairs
    (v, k) with z = g_k(v) and v at distance d - 1 take one with k maximal.
    Say v skipped k, and j is the pair that reached v from its parent u,
    at distance d - 2.  Then k != j, since g_j(v) = u, so k < j and
    z = g_k(g_j(u)) = g_j(g_k(u)).  So g_k(u), at distance at most d - 1
    from u and at least d - 1 from z, is a member at distance d - 1 that
    g_j sends to z, against the maximality of k.
    """
    n = len(pairs)

    def commute(j: int, k: int) -> bool:
        return all(compose(a, b) == compose(b, a) for a, b in zip(pairs[j], pairs[k]))

    # applied[j]: the pairs applied to a member reached by pair j; the
    # start, reached by none, sits at index n and takes every pair.
    applied = [
        [k for k in range(n) if k > j or (k < j and not commute(j, k))] for j in range(n)
    ] + [list(range(n))]
    if isinstance(pairs[0][0], bytes):
        tail = PAD[len(pairs[0][0]):]
        # (s as a translate table, t[:prefix], t): the key of s*w*t is
        # t[:prefix] translated through w's table and then through s's.
        tables = [(s + tail, t[:prefix], t) for s, t in pairs]

        def prepare(group: List[Perm]) -> List[Perm]:
            return [w + tail for w in group]

        def reach(k: int, group: List[Perm], orbit: Dict[Perm, V], value_of, found) -> None:
            st, head, t = tables[k]
            for wt in group:
                y = head.translate(wt).translate(st)
                if y not in orbit:
                    orbit[y] = value_of(y)
                    found.append(t.translate(wt).translate(st))

    else:
        tables = [(s, t[:prefix], t) for s, t in pairs]

        def prepare(group: List[Perm]) -> List[Perm]:
            return group

        def reach(k: int, group: List[Perm], orbit: Dict[Perm, V], value_of, found) -> None:
            s, head, t = tables[k]
            for w in group:
                y = tuple([s[w[x]] for x in head])
                if y not in orbit:
                    orbit[y] = value_of(y)
                    found.append(tuple([s[w[x]] for x in t]))

    def search(start: Perm, value_of: Callable[[Perm], V]) -> Dict[Perm, V]:
        key = start[:prefix]
        orbit = {key: value_of(key)}
        # frontier[j] holds the members last reached by pair j, in full.
        # Each group is prepared (for bytes, turned into translate tables)
        # only while its images are taken.
        frontier: List[List[Perm]] = [[] for _ in range(n)] + [[start]]
        while any(frontier):
            reached: List[List[Perm]] = [[] for _ in range(n)]
            for j, group in enumerate(frontier):
                if not group:
                    continue
                group = prepare(group)
                for k in applied[j]:
                    reach(k, group, orbit, value_of, reached[k])
            frontier = reached + [[]]
        return orbit

    return search


def inverse(p: Perm) -> Perm:
    if isinstance(p, bytes):
        n = len(p)
        return bytes.maketrans(p, PAD[:n])[:n]
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def power(p: Perm, k: int) -> Perm:
    """p^k for any integer k; p^0 is the identity."""
    if k < 0:
        p, k = inverse(p), -k
    out = identity(len(p))
    while k:
        if k & 1:
            out = compose(p, out)
        k >>= 1
        if k:
            p = compose(p, p)
    return out


def cycles(p: Sequence[int]) -> List[List[int]]:
    """The cycles of any permutation sequence, in order of least index.

    Each cycle starts at its least index i and lists i, p(i), p(p(i)), ...
    Cycles are lists: most callers drop them at once, and freed short
    tuples would stay on the interpreter's free lists.
    """
    seen = [False] * len(p)
    out = []
    for i in range(len(p)):
        if seen[i]:
            continue
        cyc = []
        j = i
        while not seen[j]:
            seen[j] = True
            cyc.append(j)
            j = p[j]
        out.append(cyc)
    return out


def order(p: Sequence[int]) -> int:
    """The lcm of the cycle lengths of any permutation sequence."""
    return lcm(*map(len, cycles(p)))


def length(p: Perm, pc: int) -> int:
    """How many of the first pc indices p sends to pc or beyond.

    With positives indexed below pc this is the inversion count, the
    Coxeter length of a Weyl element.
    """
    head = p[:pc]
    if isinstance(head, bytes):
        return pc - len(head.translate(None, PAD[pc:]))
    return sum(1 for x in head if x >= pc)
