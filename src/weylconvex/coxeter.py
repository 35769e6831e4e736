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
from .convexity import analyze, condition2_full_pairs, n_of, phi_of
from .errors import InconsistencyError, InputError
from .roots import DiagramAutomorphism, RootSystem, identity_automorphism
from .weyl import TwistedElement, from_word, longest_element


def delta_orbits(rs: RootSystem, delta: DiagramAutomorphism) -> List[Tuple[int, ...]]:
    """Orbits of delta on the simple labels, each sorted, in label order."""
    seen = set()
    orbits = []
    for lab in range(rs.rank):
        if lab in seen:
            continue
        orb = []
        j = lab
        while j not in seen:
            seen.add(j)
            orb.append(j)
            j = delta.simple_perm[j]
        orbits.append(tuple(sorted(orb)))
    return orbits


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
    source_word: Tuple[int, ...]

    def position(self, idx: int) -> int:
        cache = getattr(self, "_pos", None)
        if cache is None:
            cache = {g: t for t, g in enumerate(self.ordered_roots)}
            object.__setattr__(self, "_pos", cache)
        return cache[idx]


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
    pc = rs.positive_count
    for a in range(pc):
        for b in range(a + 1, pc):
            s = rs.sum_table.get((a, b))
            if s is None or s >= pc:
                continue
            lo, hi = sorted((pos[a], pos[b]))
            if not (lo < pos[s] < hi):
                return False
    return True


def reflection_ordering(rs: RootSystem, w0_word: Sequence[int]) -> ReflectionOrdering:
    """The ordering beta_N < ... < beta_1 attached to a reduced word for w0."""
    word = tuple(w0_word)
    x = from_word(rs, None, list(word))
    if x.length() != len(word):
        raise InputError("word is not reduced")
    if x.weyl != longest_element(rs):
        raise InputError("word is not an expression of the longest element")
    betas = _suffix_betas(rs, word)
    ordered = tuple(reversed(betas))  # beta_N first (smallest)
    if sorted(ordered) != list(range(rs.positive_count)):
        raise InconsistencyError("betas do not enumerate the positive roots")
    if not check_betweenness(rs, ordered):
        raise InconsistencyError("constructed ordering violates betweenness")
    return ReflectionOrdering(ordered_roots=ordered, source_word=word)


def coxeter_order(rs: RootSystem, delta: Optional[DiagramAutomorphism] = None) -> int:
    """h: the common order of c*delta over all delta-Coxeter elements."""
    return _common_order(coxeter_elements(rs, delta))


def _common_order(elems: Sequence[TwistedElement]) -> int:
    orders = {e.order() for e in elems}
    if len(orders) != 1:
        raise InconsistencyError(f"Coxeter element orders differ: {orders}")
    return orders.pop()


def check_w0_condition(x: TwistedElement) -> bool:
    """Whether h is even and (c*delta)^(h/2) equals w0*delta^(h/2)."""
    h = x.order()
    if h % 2:
        return False
    power = x
    for _ in range(h // 2 - 1):
        power = power.mul(x)
    w0 = longest_element(x.rs)
    target = TwistedElement(x.rs, w0, x.twist, x.twist_power * (h // 2))
    return power == target


def half_turn_ordering(x: TwistedElement) -> ReflectionOrdering:
    """The reflection ordering from w0 = c delta(c) ... delta^(h/2-1)(c).

    Only valid under the half-turn condition, where the concatenated word
    is automatically reduced; both facts are re-verified.
    """
    rs = x.rs
    if not check_w0_condition(x):
        raise InputError("half-turn condition does not hold for this element")
    h = x.order()
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


def coxeter_levels(x: TwistedElement) -> Dict[int, int]:
    """Level of every positive root from the half-turn block formula.

    Block i consists of (c*delta)^(h/2 - i) applied to the betas of the
    Coxeter word; the result must agree with the level function for x and,
    mirrored, for its inverse.  Any disagreement is an engine bug.
    """
    rs = x.rs
    if not check_w0_condition(x):
        raise InputError("block levels require the half-turn condition")
    h = x.order()
    word_c = list(x.word())
    betas = twisted_betas(x)
    perm_inv = x.perm_inv
    levels: Dict[int, int] = {}
    inv_levels: Dict[int, int] = {}
    # Each beta has level 1 for x; pulling back through x shifts the level
    # up by one, so block i is x^(1-i) of the betas.  Mirrored for the
    # inverse: block i is x^(i - h/2) of the betas.
    for i in range(1, h // 2 + 1):
        for b in betas:
            g = b
            for _ in range(i - 1):
                g = perm_inv[g]
            if g in levels:
                raise InconsistencyError("block formula hit a root twice")
            levels[g] = i
            gi = b
            for _ in range(h // 2 - i):
                gi = perm_inv[gi]
            inv_levels[gi] = i
    if sorted(levels) != list(range(rs.positive_count)):
        raise InconsistencyError("blocks do not partition the positive roots")
    xinv = x.inverse()
    for g, lev in levels.items():
        if n_of(x, g) != lev:
            raise InconsistencyError(
                f"block level {lev} disagrees with n = {n_of(x, g)} at {rs.root_str(g)}"
            )
    for g, lev in inv_levels.items():
        if n_of(xinv, g) != lev:
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
        cond = check_w0_condition(x)
        entry = CoxeterEntry(
            word=x.word(),
            twist_power=x.twist_power,
            convex=rep.convex,
            quasi_convex=rep.quasi_convex,
            w0_condition=cond,
            phi_empty=not phi_of(x),
        )
        entries.append(entry)
        if not rep.convex:
            confirmed = (
                bool(condition2_full_pairs(x))
                or bool(condition2_full_pairs(x.inverse()))
                or not rep.condition1_ok
                or not analyze(x.inverse()).condition1_ok
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
            coxeter_levels(x)  # block levels must match the level function
    return CoxeterReport(
        cartan=str(rs.cartan_type),
        delta_label=delta.label(),
        coxeter_number=h,
        entries=tuple(entries),
        conjecture_status="pass" if not counterexamples else "counterexample",
        counterexamples=tuple(counterexamples),
    )
