"""Weyl group elements, twisted elements and their conjugacy combinatorics.

Elements are stored as permutations of root indices in the format of the
`perm` module; composing two elements costs O(|Phi|), and the length
function is the inversion count.
Reduced words are derived on demand and canonicalized to the
lexicographically least reduced word, which keeps every report and class
representative reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from . import perm
from .errors import BudgetExceeded, InconsistencyError, InputError
from .perm import Perm
from .roots import DiagramAutomorphism, RootSystem, identity_automorphism

DEFAULT_ENUMERATION_BUDGET = 60_000


@dataclass(frozen=True, eq=False)
class WeylElement:
    """An element of W as a permutation of root indices."""

    rs: RootSystem
    root_perm: Perm

    def __eq__(self, other):
        return isinstance(other, WeylElement) and self.root_perm == other.root_perm

    def __hash__(self):
        return hash(self.root_perm)

    def length(self) -> int:
        return perm.length(self.root_perm, self.rs.positive_count)

    def word(self) -> Tuple[int, ...]:
        """Lexicographically least reduced word (0-based simple labels)."""
        cached = getattr(self, "_word", None)
        if cached is not None:
            return cached
        rs = self.rs
        pc = rs.positive_count
        letters: List[int] = []
        # Greedy: the least i with l(s_i w) < l(w), i.e. w^{-1}(alpha_i) < 0.
        # Replacing w by s_i w replaces w^{-1} by w^{-1} s_i.
        inv = perm.inverse(self.root_perm)
        while True:
            for lab in range(rs.rank):
                if inv[rs.simple_indices[lab]] >= pc:
                    break
            else:
                break
            inv = perm.compose(inv, rs.simple_reflection_perm(lab))
            letters.append(lab)
        word = tuple(letters)
        object.__setattr__(self, "_word", word)
        return word


@dataclass(frozen=True, eq=False)
class TwistedElement:
    """x = w * delta^k acting on roots as w composed with delta^k."""

    rs: RootSystem
    weyl: WeylElement
    twist: DiagramAutomorphism
    twist_power: int

    def __post_init__(self):
        object.__setattr__(self, "twist_power", self.twist_power % self.twist.order)

    def __eq__(self, other):
        return (
            isinstance(other, TwistedElement)
            and self.weyl.root_perm == other.weyl.root_perm
            and self.twist_power == other.twist_power
        )

    def __hash__(self):
        return hash((self.weyl.root_perm, self.twist_power))

    def key(self) -> Tuple:
        return (self.length(), self.weyl.root_perm, self.twist_power)

    @property
    def perm(self) -> Perm:
        """Composite root permutation of w * delta^k."""
        cached = getattr(self, "_perm", None)
        if cached is None:
            cached = perm.compose(
                self.weyl.root_perm, perm.power(self.twist.root_perm, self.twist_power)
            )
            object.__setattr__(self, "_perm", cached)
        return cached

    @property
    def perm_inv(self) -> Perm:
        cached = getattr(self, "_perm_inv", None)
        if cached is None:
            cached = perm.inverse(self.perm)
            object.__setattr__(self, "_perm_inv", cached)
        return cached

    def length(self) -> int:
        return self.weyl.length()

    def word(self) -> Tuple[int, ...]:
        return self.weyl.word()

    def order(self) -> int:
        return perm.order(self.perm)

    def is_identity(self) -> bool:
        return self.twist_power == 0 and self.weyl.root_perm == perm.identity(
            self.rs.count
        )

    def inverse(self) -> "TwistedElement":
        # (w d^k)^{-1} = d^{-k} w^{-1} = (d^{-k}(w^{-1})) d^{-k}.
        k = self.twist_power
        dk = perm.power(self.twist.root_perm, -k)
        winv = perm.inverse(self.weyl.root_perm)
        wpart = perm.compose(perm.compose(dk, winv), perm.inverse(dk))
        return TwistedElement(self.rs, WeylElement(self.rs, wpart), self.twist, -k)

    def mul(self, other: "TwistedElement") -> "TwistedElement":
        """Group product (w d^a)(v d^b) = w d^a(v) d^(a+b)."""
        a = self.twist_power
        da = perm.power(self.twist.root_perm, a)
        tv = perm.compose(perm.compose(da, other.weyl.root_perm), perm.inverse(da))
        wpart = perm.compose(self.weyl.root_perm, tv)
        return TwistedElement(
            self.rs, WeylElement(self.rs, wpart), self.twist, a + other.twist_power
        )

    def conj_by_simple(self, lab: int) -> "TwistedElement":
        """s_lab * x * s_lab."""
        rs = self.rs
        s, s2 = _conjugating_pair(rs, self.twist, self.twist_power, lab)
        wpart = perm.compose(perm.compose(s, self.weyl.root_perm), s2)
        return TwistedElement(rs, WeylElement(rs, wpart), self.twist, self.twist_power)

    def matrix(self, labels: Optional[Sequence[int]] = None) -> List[List[int]]:
        """Integer matrix of the action on span(alpha_j : j in labels)."""
        rs = self.rs
        if labels is None:
            labels = list(range(rs.rank))
        labels = list(labels)
        pos = {lab: t for t, lab in enumerate(labels)}
        cols = []
        for lab in labels:
            img = self.perm[rs.simple_indices[lab]]
            c = rs.coeffs[img]
            col = [0] * len(labels)
            for j, v in enumerate(c):
                if v != 0:
                    if j not in pos:
                        raise InputError(
                            "element does not stabilize the parabolic subspace"
                        )
                    col[pos[j]] = v
            cols.append(col)
        return [[cols[j][i] for j in range(len(labels))] for i in range(len(labels))]


def _conjugating_pair(
    rs: RootSystem, twist: DiagramAutomorphism, twist_power: int, lab: int
) -> Tuple[Perm, Perm]:
    """(s, s') with s * (w delta^k) * s = (s w s') delta^k for s = s_lab."""
    twisted_lab = lab
    for _ in range(twist_power % twist.order):
        twisted_lab = twist.simple_perm[twisted_lab]
    return rs.simple_reflection_perm(lab), rs.simple_reflection_perm(twisted_lab)


def identity_element(rs: RootSystem, delta: Optional[DiagramAutomorphism] = None) -> TwistedElement:
    if delta is None:
        delta = identity_automorphism(rs)
    return TwistedElement(rs, WeylElement(rs, perm.identity(rs.count)), delta, 0)


def from_word(
    rs: RootSystem,
    delta: Optional[DiagramAutomorphism],
    word: Iterable[int],
    twist_power: int = 0,
) -> TwistedElement:
    """Element with W-part s_{i1}...s_{iL} (0-based labels) times delta^k."""
    if delta is None:
        delta = identity_automorphism(rs)
    w = perm.identity(rs.count)
    for lab in word:
        if not (0 <= lab < rs.rank):
            raise InputError(f"simple-reflection index out of range: {lab}")
        w = perm.compose(w, rs.simple_reflection_perm(lab))
    return TwistedElement(rs, WeylElement(rs, w), delta, twist_power)


def from_one_line(rs: RootSystem, one_line: Sequence[int]) -> TwistedElement:
    """Type-A element from a one-line permutation of {1..n} (e_i -> e_{p(i)})."""
    if rs.cartan_type.family != "A":
        raise InputError("one-line permutations only describe type A elements")
    n = rs.rank + 1
    if sorted(one_line) != list(range(1, n + 1)):
        raise InputError(f"not a permutation of 1..{n}: {one_line}")
    p = [x - 1 for x in one_line]
    word: List[int] = []
    while True:
        for i in range(n - 1):
            if p[i] > p[i + 1]:
                p[i], p[i + 1] = p[i + 1], p[i]
                word.append(i)
                break
        else:
            break
    word.reverse()
    return from_word(rs, None, word)


def act(x: TwistedElement, i: int, power: int = 1) -> int:
    """Index of x^power applied to roots[i]."""
    p = x.perm if power >= 0 else x.perm_inv
    out = i
    for _ in range(abs(power)):
        out = p[out]
    return out


def longest_element(rs: RootSystem) -> WeylElement:
    """The unique element of maximal length; w0 maps all positives negative."""
    # The permutation is cached on rs, not the element: an element refers
    # back to rs, and the cycle would keep rs alive until garbage collection.
    cached = getattr(rs, "_w0_perm", None)
    if cached is not None:
        return WeylElement(rs, cached)
    pc = rs.positive_count
    p = perm.identity(rs.count)
    # Greedy ascent: w -> w*s_lab whenever w(alpha_lab) is still positive.
    while True:
        for lab in range(rs.rank):
            if p[rs.simple_indices[lab]] < pc:
                p = perm.compose(p, rs.simple_reflection_perm(lab))
                break
        else:
            break
    w = WeylElement(rs, p)
    if w.length() != pc:
        raise InconsistencyError(
            f"{rs.cartan_type}: greedy ascent stopped at length {w.length()}, not {pc}"
        )
    object.__setattr__(rs, "_w0_perm", p)
    return w


def fixed_roots(x: TwistedElement) -> FrozenSet[int]:
    """Roots gamma with x(gamma) = gamma."""
    return frozenset(i for i, p in enumerate(x.perm) if p == i)


def is_elliptic(x: TwistedElement) -> bool:
    """True when x fixes no nonzero vector of the span of the roots."""
    from .linalg import rank

    M = x.matrix()
    n = len(M)
    for i in range(n):
        M[i][i] -= 1
    return rank(M) == n


def enumerate_weyl_group(rs: RootSystem, budget: Optional[int] = DEFAULT_ENUMERATION_BUDGET) -> List[Perm]:
    """All root permutations of W, BFS from the identity."""
    order = rs.cartan_type.weyl_order()
    if budget is not None and order > budget:
        raise BudgetExceeded(
            f"|W({rs.cartan_type})| = {order} exceeds the enumeration budget {budget}",
            budget,
        )
    gens = [rs.simple_reflection_perm(lab) for lab in range(rs.rank)]
    start = perm.identity(rs.count)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = perm.compose(p, g)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    if len(seen) != order:
        raise InconsistencyError(
            f"enumerated {len(seen)} elements of W({rs.cartan_type}), expected {order}"
        )
    return sorted(seen)


@dataclass(frozen=True, eq=False)
class ConjugacyClass:
    """A W-conjugacy orbit inside the coset W * delta^k."""

    rs: RootSystem
    twist: DiagramAutomorphism
    twist_power: int
    representative: TwistedElement
    elements: Tuple[TwistedElement, ...]
    min_length: int

    def __len__(self):
        return len(self.elements)

    def min_length_set(self) -> Tuple[TwistedElement, ...]:
        return tuple(x for x in self.elements if x.length() == self.min_length)


def conjugacy_classes(
    rs: RootSystem,
    delta: Optional[DiagramAutomorphism] = None,
    twist_power: int = 0,
    budget: Optional[int] = DEFAULT_ENUMERATION_BUDGET,
) -> List[ConjugacyClass]:
    """Partition of the coset {w * delta^k} under W-conjugation.

    Class representatives are the minimal-length members with the
    lexicographically least reduced word; classes are sorted by
    (min_length, representative word).
    """
    if delta is None:
        delta = identity_automorphism(rs)
    twist_power %= delta.order
    perms = enumerate_weyl_group(rs, budget)
    pc = rs.positive_count
    pairs = [
        _conjugating_pair(rs, delta, twist_power, lab) for lab in range(rs.rank)
    ]

    unassigned = set(perms)
    classes: List[ConjugacyClass] = []
    for start in perms:
        if start not in unassigned:
            continue
        # Orbit of the W-part under w -> s w s', as raw permutations.
        orbit = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for w in frontier:
                for s, s2 in pairs:
                    y = perm.compose(perm.compose(s, w), s2)
                    if y not in orbit:
                        orbit.add(y)
                        nxt.append(y)
            frontier = nxt
        unassigned -= orbit
        elems = [
            TwistedElement(rs, WeylElement(rs, w), delta, twist_power)
            for w in sorted(orbit, key=lambda w: (perm.length(w, pc), w))
        ]
        min_len = elems[0].length()
        rep = min(
            (e for e in elems if e.length() == min_len),
            key=lambda e: (e.word(), e.weyl.root_perm),
        )
        classes.append(
            ConjugacyClass(
                rs=rs,
                twist=delta,
                twist_power=twist_power,
                representative=rep,
                elements=tuple(elems),
                min_length=min_len,
            )
        )
    classes.sort(key=lambda c: (c.min_length, c.representative.word()))
    total = sum(len(c) for c in classes)
    if total != len(perms):
        raise InconsistencyError(
            f"classes cover {total} elements of W({rs.cartan_type}), expected {len(perms)}"
        )
    return classes


def class_of(x: TwistedElement, budget: Optional[int] = DEFAULT_ENUMERATION_BUDGET) -> ConjugacyClass:
    """The conjugacy class containing x."""
    for cls in conjugacy_classes(x.rs, x.twist, x.twist_power, budget):
        if any(y == x for y in cls.elements):
            return cls
    raise InputError("element not found in its own coset; inconsistent twist data")


def _shift_reachable_set(x: TwistedElement) -> Dict[TwistedElement, Optional[TwistedElement]]:
    """All y with x -> y via length-nonincreasing simple conjugations."""
    seen: Dict[TwistedElement, Optional[TwistedElement]] = {x: None}
    frontier = [x]
    while frontier:
        nxt = []
        for z in frontier:
            lz = z.length()
            for lab in range(z.rs.rank):
                y = z.conj_by_simple(lab)
                if y.length() <= lz and y not in seen:
                    seen[y] = z
                    nxt.append(y)
        frontier = nxt
    return seen


def cyclic_shift_reachable(x: TwistedElement, y: TwistedElement) -> bool:
    """Whether x -> y through conjugations that never increase length."""
    return y in _shift_reachable_set(x)


def cyclic_shift_class(x: TwistedElement) -> List[TwistedElement]:
    """All y with x -> y and y -> x, sorted deterministically."""
    down = _shift_reachable_set(x)
    out = [y for y in down if y.length() == x.length() and cyclic_shift_reachable(y, x)]
    return sorted(out, key=lambda e: e.key())


def min_length_set(cls: ConjugacyClass) -> Tuple[TwistedElement, ...]:
    """O_min of the class."""
    return cls.min_length_set()
