"""Root permutations: the one format every Weyl element is stored in.

A permutation p of range(n) lists images: p[i] is the index root i goes
to.  Products act rightmost first, (p*q)(i) = p(q(i)).

Root systems with at most 256 roots (every exceptional type and the small
classical ones) store p as ``bytes``, so a product is a single
``bytes.translate`` call and an element costs n bytes.  Larger systems
(A_n for n >= 16, B_n, C_n and D_n for n >= 12) store tuples of ints.
The format follows from the size alone; every function here accepts
either, and bytes permutations sort in the same order as their tuples.
"""

from __future__ import annotations

from math import lcm
from typing import Callable, List, Sequence, Tuple, Union

Perm = Union[bytes, Tuple[int, ...]]

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
    return tuple([p[x] for x in q])


def compose_each(p: Perm, qs: Sequence[Perm]) -> List[Perm]:
    """[p*q for q in qs], with the translate table of p built once."""
    if isinstance(p, bytes):
        table = p + PAD[len(p):]
        return [q.translate(table) for q in qs]
    return [tuple([p[x] for x in q]) for q in qs]


def sandwiches(pairs: Sequence[Tuple[Perm, Perm]]) -> Callable[[Perm], List[Perm]]:
    """The map w -> [s*w*t for (s, t) in pairs], every table built once.

    The tables of the s are built here; each call builds the one of w.
    """
    if pairs and isinstance(pairs[0][0], bytes):
        tail = PAD[len(pairs[0][0]):]
        tables = [(s + tail, t) for s, t in pairs]

        def images(w: Perm) -> List[Perm]:
            wt = w + tail
            return [t.translate(wt).translate(st) for st, t in tables]

        return images

    def images(w: Perm) -> List[Perm]:
        return [tuple([s[w[x]] for x in t]) for s, t in pairs]

    return images


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
        p = compose(p, p)
        k >>= 1
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
