"""Elements of the twisted Weyl group W x <delta> and their conjugacy
combinatorics.

One object, `TwistedElement`, stands for every element x = w * delta^k:
it holds the root permutation of w, in the format of the `perm` module,
the twist delta and the power k; an element of W is the case k = 0.
Composing two elements costs O(|Phi|), and the length of w is the
inversion count.
Reduced words are derived on demand and canonicalized to the
lexicographically least reduced word, which keeps every report and class
representative reproducible.

Class tables key each element w of W by w[:rank], the images of the
simple roots, which are the root indices 0, ..., rank - 1: the key fixes w,
sorts as the full permutation does, and `expand` rebuilds the rest by
height, one root sum per positive root.  The table starts from an
enumeration of W that builds each key once, as a product x*v up the
parabolic chain <s_0> < <s_0, s_1> < ..., with x a minimal coset
representative and v in the previous subgroup.  Each class is then one
orbit search under simple conjugation, set up once per coset, which
neither undoes the step that reached a member nor follows a conjugation
by s_j with one by a commuting s_k, k < j (`perm.sandwich_orbits`).  A
`ConjugacyClass` holds the keys of its members in search order with an
array of their lengths, its representative and its minimal length; the
representative is chosen on the expanded minimal-length members by one
walk down their least left descents, and twisted elements are built only
for it and for the members a caller visits through `elements` or
`min_length_set`.  The (length, key) order of the members is built when a
caller first reads `keys` or `elements`, and replaces the search order, so
a class table that only reads sizes, minimal lengths and representatives
sorts nothing.  `class_of` runs the same orbit search from one element,
with lengths from `perm.length` on the expanded members, so it enumerates
neither W nor any other class.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from math import lcm
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from . import perm
from .errors import BudgetExceeded, InconsistencyError, InputError
from .linalg import cyclotomic
from .perm import Perm
from .roots import DiagramAutomorphism, RootSystem, identity_automorphism

DEFAULT_ENUMERATION_BUDGET = 60_000

# search(start, length_of) -> {key: length} over the class of start.
OrbitSearch = Callable[[Perm, Callable[[Perm], int]], Dict[Perm, int]]


@dataclass(frozen=True, eq=False)
class TwistedElement:
    """x = w * delta^k acting on roots as w composed with delta^k."""

    rs: RootSystem
    root_perm: Perm
    twist: DiagramAutomorphism
    twist_power: int

    def __post_init__(self):
        object.__setattr__(self, "twist_power", self.twist_power % self.twist.order)

    def __eq__(self, other):
        # The same type, the same w and the same automorphism delta^k.  Two
        # twists can share a power (D4's order-3 trialities are each other's
        # squares), so delta^k is compared by its simple-label permutation.
        return (
            isinstance(other, TwistedElement)
            and self.root_perm == other.root_perm
            and self.rs.cartan_type == other.rs.cartan_type
            and self._twist_labels() == other._twist_labels()
        )

    def __hash__(self):
        # Equal elements can hold delta^k as different (twist, power) pairs.
        return hash(self.root_perm)

    def _twist_labels(self) -> Perm:
        """delta^k as a permutation of the simple labels."""
        return perm.power(perm.of(self.twist.simple_perm), self.twist_power)

    def key(self) -> Tuple:
        return (self.length(), self.root_perm, self.twist_power)

    @property
    def perm(self) -> Perm:
        """Composite root permutation of w * delta^k."""
        if not self.twist_power:
            return self.root_perm
        cached = getattr(self, "_perm", None)
        if cached is None:
            cached = perm.compose(
                self.root_perm, perm.power(self.twist.root_perm, self.twist_power)
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
        """Length of the W-part w."""
        return perm.length(self.root_perm, self.rs.positive_count)

    def word(self) -> Tuple[int, ...]:
        """Lexicographically least reduced word of w (0-based simple labels)."""
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

    def order(self) -> int:
        """The lcm of the orbit lengths of the simple roots: x^m = 1 exactly
        when x^m fixes every simple root."""
        return lcm(*(len(self._orbit(g)) for g in self.rs.simple_indices))

    def _orbit(self, start: int) -> List[int]:
        """The root indices start, x(start), x^2(start), ... before the return."""
        p, orbit, g = self.perm, [start], self.perm[start]
        while g != start:
            orbit.append(g)
            g = p[g]
        return orbit

    def is_identity(self) -> bool:
        return self.twist_power == 0 and self.root_perm == perm.identity(
            self.rs.count
        )

    def inverse(self) -> "TwistedElement":
        # (w d^k)^{-1} = d^{-k} w^{-1} = (d^{-k}(w^{-1})) d^{-k}.
        k = self.twist_power
        dk = perm.power(self.twist.root_perm, -k)
        winv = perm.inverse(self.root_perm)
        wpart = perm.compose(perm.compose(dk, winv), perm.inverse(dk))
        return TwistedElement(self.rs, wpart, self.twist, -k)

    def mul(self, other: "TwistedElement") -> "TwistedElement":
        """Group product (w d^a)(v d^b) = w d^a(v) d^(a+b)."""
        a = self.twist_power
        da = perm.power(self.twist.root_perm, a)
        tv = perm.compose(perm.compose(da, other.root_perm), perm.inverse(da))
        wpart = perm.compose(self.root_perm, tv)
        return TwistedElement(
            self.rs, wpart, self.twist, a + other.twist_power
        )

    def conj_by_simple(self, lab: int) -> "TwistedElement":
        """s_lab * x * s_lab."""
        rs = self.rs
        s, s2 = _conjugating_pair(rs, self.twist, self.twist_power, lab)
        wpart = perm.compose(perm.compose(s, self.root_perm), s2)
        return TwistedElement(rs, wpart, self.twist, self.twist_power)


def _conjugating_pair(
    rs: RootSystem, twist: DiagramAutomorphism, twist_power: int, lab: int
) -> Tuple[Perm, Perm]:
    """(s, s') with s * (w delta^k) * s = (s w s') delta^k for s = s_lab."""
    twisted_lab = lab
    for _ in range(twist_power % twist.order):
        twisted_lab = twist.simple_perm[twisted_lab]
    return rs.simple_reflection_perm(lab), rs.simple_reflection_perm(twisted_lab)


def from_word(
    rs: RootSystem,
    delta: Optional[DiagramAutomorphism],
    word: Iterable[int],
    twist_power: int = 0,
) -> TwistedElement:
    """Element with W-part s_{i1}...s_{iL} (0-based labels) times delta^k."""
    if delta is None:
        delta = identity_automorphism(rs)
    labels = list(word)
    rank = rs.rank
    for lab in labels:
        if not (0 <= lab < rank):
            raise InputError(f"simple-reflection index out of range: {lab}")
    w = perm.word_product(rs.count, rs.reflections, labels)
    return TwistedElement(rs, w, delta, twist_power)


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


def longest_element(rs: RootSystem) -> TwistedElement:
    """The unique element of maximal length; w0 maps all positives negative."""
    # The permutation is cached on rs, not the element: an element refers
    # back to rs, and the cycle would keep rs alive until garbage collection.
    cached = getattr(rs, "_w0_perm", None)
    if cached is not None:
        return TwistedElement(rs, cached, identity_automorphism(rs), 0)
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
    w = TwistedElement(rs, p, identity_automorphism(rs), 0)
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
    """True when x fixes no nonzero vector of the span of the roots: Phi_1
    does not divide its characteristic polynomial."""
    return 1 not in rotation_spectrum(x)


def rotation_spectrum(x: TwistedElement, labels=None) -> Dict[int, int]:
    """{d: multiplicity of Phi_d in the characteristic polynomial of x} on
    span(alpha_l : l in labels), all simple roots by default.

    No matrix is formed.  The trace of x^m on the span is the sum over l of
    the coefficient of alpha_l in x^m(alpha_l), read off the orbit of
    alpha_l, and the order h of x on the span is the lcm of the orbit
    lengths.  As x^h = 1, dim ker(x^e - 1) is the mean of tr(x^(ek)) over
    k < h/e (Serre, Linear Representations of Finite Groups 2.3), and it
    is the sum of phi(d) m_d over d | e, so the multiplicities m_d follow
    by inclusion-exclusion over the divisors of h.  Cached on x per labels.
    """
    labels = tuple(range(x.rs.rank)) if labels is None else tuple(labels)
    cache = getattr(x, "_spectrum_cache", None)
    if cache is None:
        cache = {}
        object.__setattr__(x, "_spectrum_cache", cache)
    if labels in cache:
        return cache[labels]
    rs, p = x.rs, x.perm
    outside = ~sum(1 << lab for lab in labels)
    orbits = []
    for lab in labels:
        start = rs.simple_indices[lab]
        if rs.support_masks[p[start]] & outside:
            raise InputError("element does not stabilize the parabolic subspace")
        orbits.append([rs.coeffs[g][lab] for g in x._orbit(start)])
    h = lcm(*map(len, orbits))
    traces = [sum(t) for t in zip(*(orbit * (h // len(orbit)) for orbit in orbits))]
    dims: Dict[int, int] = {}  # d: phi(d) m_d, the dimension of ker Phi_d(x)
    mults: Dict[int, int] = {}
    for e in (d for d in range(1, h + 1) if h % d == 0):
        fixed, rem = divmod(sum(traces[::e]), h // e)
        rest = fixed - sum(v for d, v in dims.items() if e % d == 0)
        mult, rem_phi = divmod(rest, len(cyclotomic(e)) - 1) if rest else (0, 0)
        if rem or rem_phi or mult < 0:
            raise InconsistencyError(
                f"the simple-root orbits give Phi_{e} a non-integral or negative multiplicity"
            )
        if mult:
            dims[e], mults[e] = rest, mult
    if sum(dims.values()) != len(labels):
        raise InconsistencyError(
            f"the cyclotomic factors span {sum(dims.values())} dimensions, not {len(labels)}"
        )
    cache[labels] = mults
    return mults


def _weyl_order_within(rs: RootSystem, budget: Optional[int]) -> int:
    """|W|, refused with BudgetExceeded when it exceeds the budget."""
    order = rs.cartan_type.weyl_order()
    if budget is not None and order > budget:
        raise BudgetExceeded(
            f"|W({rs.cartan_type})| = {order} exceeds the enumeration budget {budget}"
        )
    return order


def _coset_representatives(rs: RootSystem, k: int) -> List[Tuple[Perm, int]]:
    """The minimal representatives x of W_k / W_(k-1), with their lengths.

    W_k = <s_0, ..., s_k>, and x in W_k is minimal in x*W_(k-1) exactly when
    x(alpha_i) > 0 for every i < k.  Deleting the first letter of a reduced
    word of such an x leaves another, so a search from 1 that multiplies on
    the left by s_0, ..., s_k and keeps the minimal products reaches all of
    them, layer by layer in length.
    """
    pc = rs.positive_count
    below = rs.simple_indices[:k]
    gens = [rs.simple_reflection_perm(i) for i in range(k + 1)]
    start = perm.identity(rs.count)
    reps = {start: 0}
    frontier = [start]
    layer = 0
    while frontier:
        layer += 1
        nxt = []
        for x in frontier:
            for s in gens:
                y = perm.compose(s, x)
                if y not in reps and all(y[i] < pc for i in below):
                    reps[y] = layer
                    nxt.append(y)
        frontier = nxt
    return list(reps.items())


def enumerate_weyl_group(
    rs: RootSystem, budget: Optional[int] = DEFAULT_ENUMERATION_BUDGET
) -> Dict[Perm, int]:
    """Every element of W, keyed by the images w[:rank] of the simple
    roots, with its length; one product each.

    The simple roots are the root indices 0, ..., rank - 1, so the key is
    a prefix of the root permutation; `expand` rebuilds the rest, and keys
    sort as their permutations do.  With W_k = <s_0, ..., s_k>, every w in
    W_k is x*v for exactly one minimal representative x of W_k / W_(k-1)
    and one v in W_(k-1), and l(x*v) = l(x) + l(v) (Bjorner-Brenti,
    Combinatorics of Coxeter Groups, 2.4).  So W is built up the chain
    W_0 < W_1 < ... < W = W_(r-1), each level as the products of the
    previous one with the representatives.  The key of x*v is x applied to
    the key of v, so only the representatives are held in full.
    """
    order = _weyl_order_within(rs, budget)
    level = [perm.identity(rs.count)[: rs.rank]]
    level_lengths = [0]
    for k in range(rs.rank - 1):
        grown: List[Perm] = []
        grown_lengths: List[int] = []
        for x, lx in _coset_representatives(rs, k):
            grown += perm.left_products(x, level)
            grown_lengths += map(lx.__add__, level_lengths)
        level, level_lengths = grown, grown_lengths
    # The last level goes straight into the table.
    lengths: Dict[Perm, int] = {}
    generated = 0
    for x, lx in _coset_representatives(rs, rs.rank - 1):
        lengths.update(zip(perm.left_products(x, level), map(lx.__add__, level_lengths)))
        generated += len(level)
    # A wrong representative table builds some element twice or misses
    # one; the counts catch it where the dict would overwrite a duplicate.
    if generated != order or len(lengths) != order:
        raise InconsistencyError(
            f"enumerated {generated} elements of W({rs.cartan_type}), "
            f"{len(lengths)} distinct, expected {order}"
        )
    return lengths


def _height_steps(rs: RootSystem) -> Tuple[Tuple[int, int], ...]:
    """For each positive root beta of height above 1, in index order, a pair
    (gamma, a) with beta = gamma + alpha_a, gamma positive and a a simple
    root index.  Cached on rs.

    Each such beta has one: <beta, alpha_a^vee> > 0 for some a, and then
    beta - alpha_a is a positive root.  Positive roots are indexed by
    height, so gamma comes before beta.
    """
    cached = getattr(rs, "_height_steps", None)
    if cached is not None:
        return cached
    steps: Dict[int, Tuple[int, int]] = {}
    for a in range(rs.rank):
        for gamma, beta in rs.positive_sums[a]:
            steps.setdefault(beta, (gamma, a))
    if sorted(steps) != list(range(rs.rank, rs.positive_count)):
        raise InconsistencyError(
            f"{rs.cartan_type}: a positive root of height above 1 is no simple root plus another"
        )
    out = tuple(steps[beta] for beta in range(rs.rank, rs.positive_count))
    object.__setattr__(rs, "_height_steps", out)
    return out


def expand(rs: RootSystem, key: Perm) -> Perm:
    """The root permutation of the element w of W with w[:rank] == key.

    w is linear, so w(gamma + alpha_a) = w(gamma) + w(alpha_a): the
    positive roots follow by height, one `sum_table` lookup each, and
    w(-beta) = -w(beta) gives the negative ones.
    """
    pc, sums = rs.positive_count, rs.sum_table
    images = list(key)
    for gamma, a in _height_steps(rs):
        images.append(sums[images[gamma], images[a]])
    images += [i - pc if i >= pc else i + pc for i in images]
    return perm.of(images)


@dataclass(frozen=True, eq=False)
class ConjugacyClass:
    """A W-conjugacy orbit inside the coset W * delta^k.

    The members are held as the keys w[:rank] of their W-parts (see
    `enumerate_weyl_group`), with an array of their lengths in the same
    order.  `keys` reads them sorted by (length, key), which is (length,
    permutation) order, and `elements` expands them and builds the twisted
    elements on each access, in that order.  The order is built when a
    caller first reads `keys` and then replaces the search order the class
    was made with, so the class holds one tuple of keys throughout; its
    size, its minimal length and `min_length_set` never build it.
    """

    rs: RootSystem
    twist: DiagramAutomorphism
    twist_power: int
    representative: TwistedElement
    min_length: int
    # The member keys and their lengths, in search order until `keys` is read.
    _keys: Tuple[Perm, ...]
    _lengths: array
    _ordered: bool = False

    def __len__(self):
        return len(self._keys)

    @property
    def keys(self) -> Tuple[Perm, ...]:
        """The member keys in (length, key) order, sorted on the first read."""
        if not self._ordered:
            # Keys are distinct, so no pair compares past its key.
            pairs = sorted(zip(self._lengths, self._keys))
            object.__setattr__(self, "_keys", tuple(key for _, key in pairs))
            object.__setattr__(self, "_lengths", array("H", (length for length, _ in pairs)))
            object.__setattr__(self, "_ordered", True)
        return self._keys

    def _member(self, key: Perm) -> TwistedElement:
        return TwistedElement(self.rs, expand(self.rs, key), self.twist, self.twist_power)

    @property
    def elements(self) -> Iterator[TwistedElement]:
        """The members in (length, permutation) order, each built when reached."""
        return map(self._member, self.keys)

    def min_length_set(self) -> Tuple[TwistedElement, ...]:
        """The members of minimal length in permutation order, the head of
        `elements`, read without ordering the rest."""
        lead = (key for key, length in zip(self._keys, self._lengths) if length == self.min_length)
        return tuple(map(self._member, sorted(lead)))


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
    # Each orbit search moves its members out of this one dict.
    unassigned = enumerate_weyl_group(rs, budget)
    order = len(unassigned)
    search = _orbit_search(rs, delta, twist_power)
    classes: List[ConjugacyClass] = []
    while unassigned:
        # The last member listed; the orbit search pops it first.
        start = expand(rs, next(reversed(unassigned)))
        classes.append(_orbit_class(rs, delta, twist_power, search, start, unassigned.pop))
    classes.sort(key=lambda c: (c.min_length, c.representative.word()))
    total = sum(len(c) for c in classes)
    if total != order:
        raise InconsistencyError(
            f"classes cover {total} elements of W({rs.cartan_type}), expected {order}"
        )
    return classes


def _orbit_search(rs: RootSystem, delta: DiagramAutomorphism, twist_power: int) -> OrbitSearch:
    """The orbit search of the coset W * delta^k under w -> s w s', keyed
    by w[:rank], set up once for all of its classes."""
    # Both halves of each pair are simple reflections, as sandwich_orbits
    # requires.  The twisted pairs (s_i, s_delta^k(i)) commute whenever
    # s_i and s_j do, since delta preserves the Cartan matrix, so the
    # search skips as much in a twisted coset as in W.
    pairs = [_conjugating_pair(rs, delta, twist_power, lab) for lab in range(rs.rank)]
    return perm.sandwich_orbits(pairs, rs.rank)


def _orbit_class(
    rs: RootSystem,
    delta: DiagramAutomorphism,
    twist_power: int,
    search: OrbitSearch,
    start: Perm,
    length_of: Callable[[Perm], int],
) -> ConjugacyClass:
    """The class of start * delta^k, by one run of the coset's orbit
    search from the root permutation start.

    `length_of` gives each member's length from its key once, when the
    search reaches it, and raises KeyError for a member that is not where
    the caller's table expects it.
    """
    try:
        orbit = search(start, length_of)
    except KeyError:
        raise InconsistencyError(
            f"a conjugate in W({rs.cartan_type}) lies outside "
            "the enumeration or in another class"
        ) from None
    # Search order: the class sorts its keys only when a caller reads them.
    lengths = array("H", orbit.values())
    min_length = min(lengths)
    lead = [key for key, length in orbit.items() if length == min_length]
    return ConjugacyClass(
        rs=rs,
        twist=delta,
        twist_power=twist_power,
        representative=TwistedElement(rs, _least_word_member(rs, lead), delta, twist_power),
        min_length=min_length,
        _keys=tuple(orbit),
        _lengths=lengths,
    )


def _least_word_member(rs: RootSystem, keys: Iterable[Perm]) -> Perm:
    """The root permutation of the member whose least reduced word is
    least, for the keys of distinct members of one length.

    A least reduced word starts with the least left descent, so the least
    of these words starts with the least letter that is a left descent of
    some member; the members it keeps are those with that descent, and
    stepping each w to s w leaves the rest of their words.  One walk over
    all members, until one is left; the order of the keys does not matter.
    """
    pc = rs.positive_count
    # (w^-1, w): s is a left descent of w when w^-1(alpha_s) < 0, and
    # stepping w to s w turns w^-1 into w^-1 s.
    live = [(perm.inverse(w), w) for w in (expand(rs, key) for key in keys)]
    while len(live) > 1:
        for lab in range(rs.rank):
            i = rs.simple_indices[lab]
            kept = [(inv, w) for inv, w in live if inv[i] >= pc]
            if kept:
                break
        else:
            raise InconsistencyError("distinct class members share a reduced word")
        s = rs.simple_reflection_perm(lab)
        live = [(perm.compose(inv, s), w) for inv, w in kept]
    return live[0][1]


def class_of(x: TwistedElement, budget: Optional[int] = DEFAULT_ENUMERATION_BUDGET) -> ConjugacyClass:
    """The conjugacy class containing x, by one orbit search from x.

    The budget on |W| applies as in `conjugacy_classes`, so a command
    refuses the same inputs whether it needs one class or all of them.
    """
    rs = x.rs
    _weyl_order_within(rs, budget)
    pc = rs.positive_count

    def length_of(key: Perm) -> int:
        return perm.length(expand(rs, key), pc)

    search = _orbit_search(rs, x.twist, x.twist_power)
    return _orbit_class(rs, x.twist, x.twist_power, search, x.root_perm, length_of)


def _shift_reachable_set(x: TwistedElement) -> Set[TwistedElement]:
    """All y with x -> y via length-nonincreasing simple conjugations."""
    seen = {x}
    frontier = [x]
    while frontier:
        nxt = []
        for z in frontier:
            lz = z.length()
            for lab in range(z.rs.rank):
                y = z.conj_by_simple(lab)
                if y.length() <= lz and y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def cyclic_shift_class(x: TwistedElement) -> List[TwistedElement]:
    """All y with x -> y and y -> x, sorted deterministically.

    A length-nonincreasing path from x that ends at the length of x
    changes no length, and each of its steps s z s is undone by the same
    s, so y -> x holds for every such y.
    """
    out = [y for y in _shift_reachable_set(x) if y.length() == x.length()]
    return sorted(out, key=lambda e: e.key())
