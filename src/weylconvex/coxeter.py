"""Twisted Coxeter elements and the convexity conjecture harness.

A delta-Coxeter element is a product of simple reflections, one from each
delta-orbit, in any order.  Two words that use each of their letters once
give the same element exactly when they differ by commutations, so the
elements for one choice of labels correspond to the acyclic orientations
of the Coxeter graph restricted to those labels (Shi, "The enumeration of
Coxeter elements", J. Algebraic Combin. 1997).  That graph is a forest, so
each of its 2^(edges) orientations is built once, and no two of them give
the same element.  The reduced words of such an element are exactly the
linear extensions of its orientation, so the extension that always takes
the least available label is its lexicographically least reduced word,
the word every report prints.

The sweep is one pass: each element is built, analysed, checked and
dropped in turn, so it holds one element at a time however many there
are.  Its entries are keyed by w(alpha) for the simple roots alpha, which
sit at root indices 0 .. rank-1, and sorted by that prefix of the root
permutation after the pass.  That is the (length, root permutation) order
of the elements: all of them have one length, one letter per delta-orbit,
and the count of distinct prefixes is checked against the count of
orientations, so two elements first differ inside the prefix.  A failure
inside the sweep is raised after the pass, for the least failing element
in that order.  Every element must have the order h of the first, the
Coxeter number; each order is read from the element's `analyze` report,
whose cycle walk yields it.

When the half-turn condition (c*delta)^(h/2) = w0*delta^(h/2) holds,
convexity of c*delta is a theorem and a failure here is treated as an
engine bug; outside that scope the harness only reports, because the
general question is open.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, TypeVar

from . import perm
from .convexity import ConvexityReport, analyze, condition2_full_pairs
from .errors import InconsistencyError
from .perm import Perm
from .roots import DiagramAutomorphism, RootSystem, identity_automorphism
from .weyl import TwistedElement, from_word, longest_element

V = TypeVar("V")


def delta_orbits(rs: RootSystem, delta: DiagramAutomorphism) -> List[Tuple[int, ...]]:
    """Orbits of delta on the simple labels, each sorted, in label order."""
    return [tuple(sorted(orb)) for orb in perm.cycles(delta.simple_perm)]


def _label_choices(orbits: Sequence[Tuple[int, ...]]) -> List[Tuple[int, ...]]:
    """Every way to pick one label from each orbit, in orbit order."""
    choices: List[Tuple[int, ...]] = [()]
    for orb in orbits:
        choices = [base + (lab,) for base in choices for lab in orb]
    return choices


def _edges(rs: RootSystem, labels: Sequence[int]) -> List[Tuple[int, int]]:
    """Edges of the Coxeter graph restricted to the given labels."""
    return [
        (a, b)
        for t, a in enumerate(labels)
        for b in labels[t + 1 :]
        if rs.cartan[a][b] != 0
    ]


def coxeter_element_count(
    rs: RootSystem, delta: Optional[DiagramAutomorphism] = None
) -> int:
    """Number of delta-Coxeter elements: the sum of 2^(edges) over label choices."""
    if delta is None:
        delta = identity_automorphism(rs)
    return sum(
        1 << len(_edges(rs, chosen))
        for chosen in _label_choices(delta_orbits(rs, delta))
    )


def _coxeter_stream(
    rs: RootSystem, delta: DiagramAutomorphism
) -> Iterator[Tuple[Perm, Tuple[int, ...], TwistedElement]]:
    """(w(alpha) for the simple roots alpha, least reduced word, element) for
    each delta-Coxeter element w*delta, built when reached.

    One word per label choice and orientation of its induced forest: the
    linear extension that always takes the least label with no edge into
    it.  The simple roots sit at root indices 0 .. rank-1.
    """
    twist_power = 0 if delta.is_identity else 1
    for chosen in _label_choices(delta_orbits(rs, delta)):
        edges = _edges(rs, chosen)
        for bits in range(1 << len(edges)):
            # Bit e of bits reverses edge e.
            after: List[List[int]] = [[] for _ in range(rs.rank)]
            into = [0] * rs.rank
            for e, (a, b) in enumerate(edges):
                if bits >> e & 1:
                    a, b = b, a
                after[a].append(b)
                into[b] += 1
            ready = [lab for lab in chosen if not into[lab]]
            heapify(ready)
            word = []
            while ready:
                lab = heappop(ready)
                word.append(lab)
                for b in after[lab]:
                    into[b] -= 1
                    if not into[b]:
                        heappush(ready, b)
            x = from_word(rs, delta, word, twist_power)
            yield x.root_perm[: rs.rank], tuple(word), x


def _in_key_order(
    rs: RootSystem, delta: DiagramAutomorphism, by_prefix: Dict[Perm, V]
) -> List[V]:
    """The values, one per element keyed by its `_coxeter_stream` prefix,
    in the (length, root permutation) order of the elements.

    All the elements have one length, one letter per delta-orbit.  Two
    with one prefix would leave fewer keys than elements; with distinct
    prefixes, sorting by prefix sorts by root permutation.
    """
    expected = coxeter_element_count(rs, delta)
    if len(by_prefix) != expected:
        raise InconsistencyError(
            f"{len(by_prefix)} distinct delta-Coxeter elements, expected {expected}"
        )
    return [by_prefix[key] for key in sorted(by_prefix)]


def coxeter_elements(
    rs: RootSystem, delta: Optional[DiagramAutomorphism] = None
) -> List[TwistedElement]:
    """All c*delta with c one simple reflection per delta-orbit, any order,
    sorted by (length, root permutation)."""
    if delta is None:
        delta = identity_automorphism(rs)
    by_prefix = {key: x for key, _, x in _coxeter_stream(rs, delta)}
    return _in_key_order(rs, delta, by_prefix)


def _suffix_betas(rs: RootSystem, word: Sequence[int]) -> List[int]:
    """beta_i = s_N s_{N-1} ... s_{i+1} (alpha_i) for a word s_1 ... s_N.

    Each alpha_i is walked through the reflections after it, one index
    lookup per letter, in place of a product of whole permutations.
    """
    refl = [rs.simple_reflection_perm(lab) for lab in word]
    betas = []
    for t, lab in enumerate(word):
        g = rs.simple_indices[lab]
        for s in refl[t + 1 :]:
            g = s[g]
        betas.append(g)
    return betas


def twisted_betas(x: TwistedElement, word: Sequence[int]) -> List[int]:
    """The level-1 roots of x = c*delta in beta order.

    These are the inversion roots of the untwisted part pulled back through
    the twist: gamma has x(gamma) negative iff delta(gamma) is an inversion
    of c.  `word` is a reduced word of c; the betas follow its letters.
    """
    betas = _suffix_betas(x.rs, word)
    # delta^-k is delta^(order - k), one lookup per power.
    d = x.twist.root_perm
    for _ in range(-x.twist_power % x.twist.order):
        betas = [d[b] for b in betas]
    return betas


def _half_turn_target(x: TwistedElement, h: int) -> Optional[List[int]]:
    """w0*delta^(k*h/2) on the simple roots, for x = w*delta^k of order h.

    None when h is odd.  The target depends on x only through its coset,
    so a sweep computes it once.
    """
    if h % 2:
        return None
    twist = perm.power(x.twist.root_perm, x.twist_power * (h // 2))
    w0 = longest_element(x.rs).root_perm
    return [w0[twist[i]] for i in x.rs.simple_indices]


def _w0_condition(x: TwistedElement, h: int, target: Optional[List[int]]) -> bool:
    """Whether x of order h meets the half-turn condition x^(h/2) =
    w0*delta^(k*h/2), given its `_half_turn_target`.

    Both sides act linearly, so they agree once they agree on the simple
    roots, a basis; each simple root is walked h/2 steps along x.
    """
    if target is None:
        return False
    p = x.perm
    for g, image in zip(x.rs.simple_indices, target):
        for _ in range(h // 2):
            g = p[g]
        if g != image:
            return False
    return True


def _block_levels(rep: ConvexityReport, h: int, betas: Sequence[int]) -> None:
    """Check the block level of each positive root, from the betas of x,
    against the level tables of the report; raise on a disagreement."""
    x = rep.x
    rs = x.rs
    pc = rs.positive_count
    perm_inv = x.perm_inv
    n_table, inverse_n_table = rep.n_table, rep.inverse_n_table
    half = h // 2
    levels = [0] * rs.count
    wrong = None  # the least root whose block level is not n
    inverse_wrong = False
    # Each beta has level 1 for x; pulling back through x shifts the level
    # up by one, so block i is x^(1-i) of the betas.  Mirrored for the
    # inverse: block i is x^(i - h/2) of the betas, so the root of block i
    # for x lies in block h/2 + 1 - i for x^-1.  One walk per beta.
    for g in betas:
        for i in range(1, half + 1):
            if levels[g]:
                raise InconsistencyError("block formula hit a root twice")
            levels[g] = i
            if n_table[g] != i and (wrong is None or g < wrong):
                wrong = g
            if inverse_n_table[g] != half + 1 - i:
                inverse_wrong = True
            g = perm_inv[g]
    if len(betas) * half != pc or any(levels[pc:]):
        raise InconsistencyError("blocks do not partition the positive roots")
    if wrong is not None:
        raise InconsistencyError(
            f"block level {levels[wrong]} disagrees with n = {n_table[wrong]} at {rs.root_str(wrong)}"
        )
    if inverse_wrong:
        raise InconsistencyError("inverse block level disagrees with n")


@dataclass(frozen=True, slots=True)
class CoxeterEntry:
    word: Tuple[int, ...]
    twist_power: int
    convex: bool
    quasi_convex: bool
    w0_condition: bool
    phi_empty: bool


@dataclass(frozen=True)
class CoxeterReport:
    cartan: str
    delta_label: str
    coxeter_number: int
    entries: Tuple[CoxeterEntry, ...]
    conjecture_status: str  # "pass" or "counterexample"
    counterexamples: Tuple[Tuple[int, ...], ...]


def _check_entry(
    rep: ConvexityReport, word: Tuple[int, ...], h: int, target: Optional[List[int]]
) -> CoxeterEntry:
    """Check the analysis of one delta-Coxeter element of order h; raise on
    an engine bug."""
    x = rep.x
    cond = _w0_condition(x, h, target)
    if not rep.convex:
        confirmed = (
            bool(condition2_full_pairs(x))
            or bool(condition2_full_pairs(x.inverse()))
            or not rep.condition1_ok
        )
        if not confirmed:
            raise InconsistencyError("convexity verdict and full-pair oracle disagree")
        if cond:
            raise InconsistencyError(
                f"half-turn Coxeter element {','.join(str(lab + 1) for lab in word)} "
                "failed convexity; this contradicts a proven statement"
            )
    if cond:
        _block_levels(rep, h, twisted_betas(x, word))  # block levels must match the level tables
    return CoxeterEntry(
        word=word,
        twist_power=x.twist_power,
        convex=rep.convex,
        quasi_convex=rep.quasi_convex,
        w0_condition=cond,
        phi_empty=not rep.phi_x,
    )


def verify_conjecture(
    rs: RootSystem, delta: Optional[DiagramAutomorphism] = None
) -> CoxeterReport:
    """Run the convexity check over every delta-Coxeter element, in one pass.

    A failure under the half-turn condition is a proven-impossible event
    and raises; a failure outside it is triple-checked (production path,
    full-pair oracle, and the inverse) and reported as a counterexample
    candidate, never asserted away.  Every element must have the same
    order h, the Coxeter number.
    """
    if delta is None:
        delta = identity_automorphism(rs)
    h = target = failure = None
    by_prefix: Dict[Perm, CoxeterEntry] = {}
    for key, word, x in _coxeter_stream(rs, delta):
        rep = analyze(x)
        if h is None:
            h, target = rep.order, _half_turn_target(x, rep.order)
        elif rep.order != h:
            low, high = sorted((h, rep.order))
            raise InconsistencyError(f"Coxeter element orders differ: {low} and {high}")
        try:
            by_prefix[key] = _check_entry(rep, word, h, target)
        except InconsistencyError as exc:
            if failure is None or key < failure[0]:
                failure = (key, exc)
    if failure is not None:
        raise failure[1]
    entries = tuple(_in_key_order(rs, delta, by_prefix))
    counterexamples = tuple(e.word for e in entries if not e.convex)
    return CoxeterReport(
        cartan=str(rs.cartan_type),
        delta_label=delta.label(),
        coxeter_number=h,
        entries=entries,
        conjecture_status="pass" if not counterexamples else "counterexample",
        counterexamples=counterexamples,
    )
