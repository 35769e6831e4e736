"""Sign-stability analysis of twisted Weyl elements.

For x in W x <delta> and a root gamma, either the whole x-orbit of gamma
keeps its sign (gamma lies in phi_x) or there is a first power of x that
flips it (the level n_x(gamma)).  Both are read off one walk over the
cycles of x.  A cycle of one sign lies in phi_x.  Any other cycle, followed
as g -> x(g) -> ..., splits into maximal runs of one sign: n_x(g) is the
distance from g to the end of its run, and n_{x^-1}(g) is the distance
from the start of its run, both counting g itself.  Levels are thus
sign-run lengths on cycles, and phi_{x^-1} = phi_x.  The same walk yields
the positive roots at level 1, which end (for x) or start (for x^-1) a
positive run, and the order of x, the lcm of its cycle lengths.

Quasi-convexity asks that phi_x be a standard parabolic subsystem and that
levels be subadditive under root addition; convexity asks the same of the
inverse, so condition (1) is decided once and condition (2) once on each
level table.  Condition (2) visits only the pairs (alpha, beta) with alpha
in the walk's level-1 list and alpha + beta a positive root, as listed in
`RootSystem.positive_sums`; `condition2_full_pairs` stays an independent
scan over every positive pair of `sum_table`, to check it against.

Levels on phi_x are represented by the distinct marker INFINITY, never by a
sentinel integer, so every comparison against an infinite level is explicit.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Dict, FrozenSet, List, Optional, Tuple, Union

from .errors import InconsistencyError, InputError
from .weyl import TwistedElement

INFINITY = float("inf")

Level = Union[int, float]


def _sign_runs(
    x: TwistedElement,
) -> Tuple[
    FrozenSet[int], Tuple[Level, ...], Tuple[Level, ...], int, List[int], List[int], int
]:
    """phi_x, the level tables of x and x^-1 indexed by root, the largest
    finite level, the positive roots at level 1 for x and for x^-1 (each
    ascending), and the order of x.

    Each cycle is walked from a run start, a root whose sign differs from
    the one before it, so every run is read whole: backward levels as the
    walk counts them, forward levels by a second pass over the run once its
    length is known.  The largest level is the longest run.  A positive
    run ends at its forward level 1 and starts at its backward level 1.
    The order is the lcm of the cycle lengths.
    """
    rs = x.rs
    pc = rs.positive_count
    p = x.perm
    forward: List[Level] = [INFINITY] * rs.count
    backward: List[Level] = [INFINITY] * rs.count
    forward_ones: List[int] = []
    backward_ones: List[int] = []
    stable: List[int] = []
    seen = [False] * rs.count
    cycle_lengths = set()
    longest = 0
    for i in range(rs.count):
        if seen[i]:
            continue
        sign = i < pc
        j = p[i]
        while j != i and (j < pc) == sign:
            j = p[j]
        if j == i:
            # One sign all around: the cycle lies in phi_x.
            before = len(stable)
            while True:
                seen[j] = True
                stable.append(j)
                j = p[j]
                if j == i:
                    break
            cycle_lengths.add(len(stable) - before)
            continue
        start = j
        cycle = 0
        while True:
            first = head = j
            sign, size = j < pc, 0
            while (j < pc) == sign:
                seen[j] = True
                size += 1
                backward[j] = size
                j = p[j]
            for level in range(size, 1, -1):
                forward[head] = level
                head = p[head]
            forward[head] = 1
            if sign:
                forward_ones.append(head)
                backward_ones.append(first)
            cycle += size
            if size > longest:
                longest = size
            if j == start:
                break
        cycle_lengths.add(cycle)
    forward_ones.sort()
    backward_ones.sort()
    return (
        frozenset(stable),
        tuple(forward),
        tuple(backward),
        longest,
        forward_ones,
        backward_ones,
        lcm(*cycle_lengths),
    )


def phi_of(x: TwistedElement) -> FrozenSet[int]:
    """Roots whose entire x-orbit stays positive or stays negative."""
    return _sign_runs(x)[0]


def n_of(x: TwistedElement, index: int) -> int:
    """The least i >= 1 with x^i flipping the sign of roots[index]."""
    rs = x.rs
    pc = rs.positive_count
    perm = x.perm
    positive = index < pc
    j = perm[index]
    for i in range(1, rs.count + 1):
        if (j < pc) != positive:
            return i
        j = perm[j]
    raise InputError(
        f"level is infinite: root {rs.root_str(index)} lies in phi_x"
    )


def _witness_key(rs, a: int, b: int):
    return (rs.height(a), rs.coeffs[a], rs.height(b), rs.coeffs[b])


def _condition2_prime(rs, table, ones, strict: bool):
    """Production path: only pairs with n(alpha) = 1 and alpha+beta a
    positive root need checking; `ones` lists the positive roots at level 1
    of `table`, ascending."""
    violations = []
    audit = []
    for a in ones:
        for b, s in rs.positive_sums[a]:
            ns = table[s]
            if ns is INFINITY:
                # alpha+beta lies in phi_x.  With condition (1) this cannot
                # happen for a outside phi_x: supports of positive roots add,
                # so alpha+beta in phi_x would force alpha in phi_x,
                # contradicting n(alpha) = 1.  Strict mode records the triple
                # anyway for auditing.
                if strict:
                    audit.append((a, b, 1, table[b], ns))
                continue
            if ns > table[b]:
                violations.append((a, b, 1, table[b], ns))
    violations.sort(key=lambda v: _witness_key(rs, v[0], v[1]))
    return violations, audit


def condition2_full_pairs(x: TwistedElement) -> List[Tuple]:
    """Oracle form of condition (2): scan every positive pair.

    Returns the violating triples; empty means condition (2) holds.  Kept
    separate from the production path so the two can be compared.
    """
    rs = x.rs
    pc = rs.positive_count
    phi, table = _sign_runs(x)[:2]
    out = []
    for a in range(pc):
        for b in range(pc):
            s = rs.sum_table.get((a, b))
            if s is None or s >= pc or s in phi:
                continue
            bound = max(table[a], table[b])
            if table[s] > bound:
                out.append((a, b, table[a], table[b], table[s]))
    out.sort(key=lambda v: _witness_key(rs, v[0], v[1]))
    return out


@dataclass(frozen=True, eq=False)
class ConvexityReport:
    """Everything the sign-stability analysis of one element produces."""

    x: TwistedElement
    phi_x: FrozenSet[int]
    parabolic_J: Optional[FrozenSet[int]]
    n_table: Tuple[Level, ...]
    inverse_n_table: Tuple[Level, ...]
    max_level: int
    order: int
    condition1_ok: bool
    condition2_ok: bool
    quasi_convex: bool
    inverse_quasi_convex: bool
    convex: bool
    violations: Tuple[Tuple, ...]
    inverse_violations: Tuple[Tuple, ...]
    audit_flags: Tuple[Tuple, ...]


def analyze(x: TwistedElement, strict: bool = False) -> ConvexityReport:
    """Full quasi-convexity / convexity report for x."""
    rs = x.rs
    phi, table, inverse_table, max_level, ones, inverse_ones, order = _sign_runs(x)
    labels = frozenset(
        lab for lab in range(rs.rank) if rs.simple_indices[lab] in phi
    )
    # phi_{x^-1} = phi_x, so condition (1) holds for both or for neither.
    # An empty phi_x is the closure of no labels, with nothing to scan.
    cond1 = not phi or phi == rs.parabolic_closure(labels)
    violations, audit = _condition2_prime(rs, table, ones, strict)
    iviolations, _ = _condition2_prime(rs, inverse_table, inverse_ones, False)
    quasi = cond1 and not violations
    inverse_quasi = cond1 and not iviolations
    return ConvexityReport(
        x=x,
        phi_x=phi,
        parabolic_J=labels if cond1 else None,
        n_table=table,
        inverse_n_table=inverse_table,
        max_level=max_level,
        order=order,
        condition1_ok=cond1,
        condition2_ok=not violations,
        quasi_convex=quasi,
        inverse_quasi_convex=inverse_quasi,
        convex=quasi and inverse_quasi,
        violations=tuple(violations),
        inverse_violations=tuple(iviolations),
        audit_flags=tuple(audit),
    )


def _levels(rep: ConvexityReport) -> Dict[int, List[int]]:
    """The positive roots outside phi_x by level, each in index order."""
    grouped: Dict[int, List[int]] = {}
    for i, lev in enumerate(rep.n_table[: rep.x.rs.positive_count]):
        if lev is not INFINITY:
            grouped.setdefault(int(lev), []).append(i)
    return grouped


def _check_descent(x: TwistedElement, grouped: Dict[int, List[int]]) -> None:
    """Check that x sends each level k >= 2 of positive roots (`grouped`)
    into level k - 1, and level 1 to negative roots.  The levels are
    sign-run lengths, so the table is built this way; this re-verifies it,
    loudly, for the callers whose proofs rest on it."""
    for lev in range(2, max(grouped, default=0) + 1):
        if not {x.perm[i] for i in grouped.get(lev, ())} <= set(grouped.get(lev - 1, ())):
            raise InconsistencyError(f"level {lev} does not descend into level {lev - 1}")
    if any(x.rs.is_positive(x.perm[i]) for i in grouped.get(1, ())):
        raise InconsistencyError("level 1 is not sent to negative roots")
