"""Twisted Coxeter elements and the convexity conjecture harness.

A delta-Coxeter element is a product of simple reflections, one from each
delta-orbit, in any order.  Two words that use each of their letters once
give the same element exactly when they differ by commutations, so the
elements for one choice of labels correspond to the acyclic orientations
of the Coxeter graph restricted to those labels (Shi, "The enumeration of
Coxeter elements", J. Algebraic Combin. 1997).  That graph is a forest, so
each of its 2^(edges) orientations is built once, from one topological
order, and no two of them give the same element.

When the half-turn condition (c*delta)^(h/2) = w0*delta^(h/2) holds,
convexity of c*delta is a theorem and a failure here is treated as an
engine bug; outside that scope the harness only reports, because the
general question is open.
"""

from __future__ import annotations

from dataclasses import dataclass
from graphlib import TopologicalSorter
from typing import Dict, List, Optional, Sequence, Tuple

from . import perm
from .convexity import ConvexityReport, analyze, condition2_full_pairs
from .errors import InconsistencyError, InputError
from .roots import DiagramAutomorphism, RootSystem, identity_automorphism
from .weyl import TwistedElement, from_word, longest_element


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


def coxeter_elements(
    rs: RootSystem, delta: Optional[DiagramAutomorphism] = None
) -> List[TwistedElement]:
    """All c*delta with c one simple reflection per delta-orbit, any order.

    One word per label choice and orientation of its induced forest.
    """
    if delta is None:
        delta = identity_automorphism(rs)
    twist_power = 0 if delta.is_identity else 1
    out = set()
    for chosen in _label_choices(delta_orbits(rs, delta)):
        edges = _edges(rs, chosen)
        for bits in range(1 << len(edges)):
            # Bit e of bits reverses edge e; any topological order of the
            # orientation is a word for its element.
            before: Dict[int, List[int]] = {lab: [] for lab in chosen}
            for e, (a, b) in enumerate(edges):
                if bits >> e & 1:
                    a, b = b, a
                before[b].append(a)
            word = list(TopologicalSorter(before).static_order())
            out.add(from_word(rs, delta, word, twist_power))
    expected = coxeter_element_count(rs, delta)
    if len(out) != expected:
        raise InconsistencyError(
            f"{len(out)} distinct delta-Coxeter elements, expected {expected}"
        )
    return sorted(out, key=lambda e: e.key())


@dataclass(frozen=True)
class ReflectionOrdering:
    """A total order on the positive roots induced by a reduced w0 word."""

    ordered_roots: Tuple[int, ...]  # ascending


def _suffix_betas(rs: RootSystem, word: Sequence[int]) -> List[int]:
    """beta_i = s_N s_{N-1} ... s_{i+1} (alpha_i) for a word s_1 ... s_N."""
    n = len(word)
    betas = [0] * n
    suffix = perm.identity(rs.count)  # permutation of E_i = s_N ... s_{i+1}
    for t in range(n - 1, -1, -1):
        lab = word[t]
        betas[t] = suffix[rs.simple_indices[lab]]
        suffix = perm.compose(suffix, rs.simple_reflection_perm(lab))
    return betas


def twisted_betas(x: TwistedElement) -> List[int]:
    """The level-1 roots of x = c*delta in beta order.

    These are the inversion roots of the untwisted part pulled back through
    the twist: gamma has x(gamma) negative iff delta(gamma) is an inversion
    of c.
    """
    betas = _suffix_betas(x.rs, list(x.word()))
    dinv = perm.power(x.twist.root_perm, -x.twist_power)
    return [dinv[b] for b in betas]


def check_betweenness(rs: RootSystem, ordered: Sequence[int]) -> bool:
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


def reflection_ordering(rs: RootSystem, w0_word: Sequence[int]) -> ReflectionOrdering:
    """The ordering beta_N < ... < beta_1 attached to a reduced word for w0."""
    word = list(w0_word)
    x = from_word(rs, None, word)
    if x.length() != len(word):
        raise InputError("word is not reduced")
    if x != longest_element(rs):
        raise InputError("word is not an expression of the longest element")
    betas = _suffix_betas(rs, word)
    ordered = tuple(reversed(betas))  # beta_N first (smallest)
    if sorted(ordered) != list(range(rs.positive_count)):
        raise InconsistencyError("betas do not enumerate the positive roots")
    if not check_betweenness(rs, ordered):
        raise InconsistencyError("constructed ordering violates betweenness")
    return ReflectionOrdering(ordered_roots=ordered)


def _common_order(elems: Sequence[TwistedElement]) -> int:
    orders = {e.order() for e in elems}
    if len(orders) != 1:
        raise InconsistencyError(f"Coxeter element orders differ: {orders}")
    return orders.pop()


def check_w0_condition(x: TwistedElement) -> bool:
    """Whether h is even and (c*delta)^(h/2) equals w0*delta^(h/2)."""
    return _w0_condition(x, x.order())


def _w0_condition(x: TwistedElement, h: int) -> bool:
    """check_w0_condition for x of order h."""
    if h % 2:
        return False
    # A diagram automorphism other than 1 is never in W, so two twisted
    # elements are equal exactly when their root permutations are.
    twist = perm.power(x.twist.root_perm, x.twist_power * (h // 2))
    target = perm.compose(longest_element(x.rs).root_perm, twist)
    return perm.power(x.perm, h // 2) == target


def coxeter_levels(rep: ConvexityReport) -> Dict[int, int]:
    """Level of every positive root from the half-turn block formula.

    Block i consists of (c*delta)^(h/2 - i) applied to the betas of the
    Coxeter word; the result must agree with the level table of x and,
    mirrored, with that of its inverse.  Any disagreement is an engine bug.
    """
    h = rep.x.order()
    if not _w0_condition(rep.x, h):
        raise InputError("block levels require the half-turn condition")
    return _block_levels(rep, h)


def _block_levels(rep: ConvexityReport, h: int) -> Dict[int, int]:
    x = rep.x
    rs = x.rs
    betas = twisted_betas(x)
    perm_inv = x.perm_inv
    half = h // 2
    levels: Dict[int, int] = {}
    inv_levels: Dict[int, int] = {}
    # Each beta has level 1 for x; pulling back through x shifts the level
    # up by one, so block i is x^(1-i) of the betas.  Mirrored for the
    # inverse: block i is x^(i - h/2) of the betas, so the root of block i
    # for x lies in block h/2 + 1 - i for x^-1.  One walk per beta.
    for b in betas:
        g = b
        for i in range(1, half + 1):
            if g in levels:
                raise InconsistencyError("block formula hit a root twice")
            levels[g] = i
            inv_levels[g] = half + 1 - i
            g = perm_inv[g]
    if sorted(levels) != list(range(rs.positive_count)):
        raise InconsistencyError("blocks do not partition the positive roots")
    for g, lev in levels.items():
        if rep.n_table[g] != lev:
            raise InconsistencyError(
                f"block level {lev} disagrees with n = {rep.n_table[g]} at {rs.root_str(g)}"
            )
    for g, lev in inv_levels.items():
        if rep.inverse_n_table[g] != lev:
            raise InconsistencyError("inverse block level disagrees with n")
    return levels


@dataclass(frozen=True)
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


def verify_conjecture(
    rs: RootSystem, delta: Optional[DiagramAutomorphism] = None
) -> CoxeterReport:
    """Run the convexity check over every delta-Coxeter element.

    A failure under the half-turn condition is a proven-impossible event
    and raises; a failure outside it is triple-checked (production path,
    full-pair oracle, and the inverse) and reported as a counterexample
    candidate, never asserted away.
    """
    if delta is None:
        delta = identity_automorphism(rs)
    elems = coxeter_elements(rs, delta)
    h = _common_order(elems)
    entries = []
    counterexamples = []
    for x in elems:
        rep = analyze(x)
        cond = _w0_condition(x, h)
        entry = CoxeterEntry(
            word=x.word(),
            twist_power=x.twist_power,
            convex=rep.convex,
            quasi_convex=rep.quasi_convex,
            w0_condition=cond,
            phi_empty=not rep.phi_x,
        )
        entries.append(entry)
        if not rep.convex:
            confirmed = (
                bool(condition2_full_pairs(x))
                or bool(condition2_full_pairs(x.inverse()))
                or not rep.condition1_ok
            )
            if not confirmed:
                raise InconsistencyError(
                    "convexity verdict and full-pair oracle disagree"
                )
            if cond:
                raise InconsistencyError(
                    f"half-turn Coxeter element {x.word()} failed convexity; "
                    "this contradicts a proven statement"
                )
            counterexamples.append(x.word())
        if cond:
            _block_levels(rep, h)  # block levels must match the level tables
    return CoxeterReport(
        cartan=str(rs.cartan_type),
        delta_label=delta.label(),
        coxeter_number=h,
        entries=tuple(entries),
        conjecture_status="pass" if not counterexamples else "counterexample",
        counterexamples=tuple(counterexamples),
    )
