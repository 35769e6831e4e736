"""Concrete GL_n realization of the type-A cross-section machinery.

Root alpha = e_a - e_b corresponds to the matrix position (a, b); the root
subgroup element u_ab(t) is I + t*E_ab and lifts of Weyl elements are plain
0/1 permutation matrices.  Everything runs over a prime field or over the
rationals; matrices are tuples of tuples of field scalars, which over F_p
are plain ints in range(p) and over Q are ints when integral, Fractions
only when not.  All scalar arithmetic goes through the context's field
object (`zero`, `one`, `add`, `sub`, `mul`, `neg`, `div`), so no code
here knows which field it runs over.  xi and sigma form no dense
product: a root-subgroup factor is one row or column operation, skipped
when its coordinate is zero (a scalar is false exactly when it is zero),
a lift permutes rows, and a unipotent with known coordinates is inverted
by reversing its word and negating the coordinates.  ell starts from its
diagonal and takes its two unipotent words as row and column operations,
so no matrix is scaled.

The conjugation map xi and its section sigma follow the level filtration:
sigma first splits g = y * (lift u ell) by one linear solve per row of the
unipotent factor, then walks the filtration down one level at a time,
conjugating the level-i part through the lift.  Each unipotent it meets
is read once along an order fixed at build time; what it reads is neither
multiplied back nor scanned for support (see `_read_coordinates` and
`build_cross_section`), and sigma ends by checking xi(sigma(g)) = g.

The tangent-span rank at a point g is taken on g times the span, which
has the same rank: every column is then built from entries of g by
additions and negations, so no inverse is formed.  The transversality
check first builds the columns on g mod a fixed prime, where rank n^2
proves rank n^2 over Q; only when that fails does the exact rank run.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from . import perm, roots
from .convexity import ConvexityReport, _check_descent, _levels, analyze
from .errors import InconsistencyError, InputError, NotInCellError
from .linalg import rank, rank_mod_p, solve
from .roots import CartanType, RootSystem, build_root_system
from .weyl import TwistedElement

Matrix = Tuple[Tuple[object, ...], ...]
Position = Tuple[int, int]


# Miller-Rabin with the first 13 prime bases decides primality exactly
# below this bound (Sorenson and Webster, Math. Comp. 2017).
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(p: int) -> bool:
    """Deterministic primality for p below MILLER_RABIN_LIMIT."""
    if p >= MILLER_RABIN_LIMIT:
        raise InputError(
            f"primality of {p} is only decided below {MILLER_RABIN_LIMIT}"
        )
    if p < 2:
        return False
    for q in MILLER_RABIN_BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in MILLER_RABIN_BASES:
        y = pow(a, d, p)
        if y == 1 or y == p - 1:
            continue
        for _ in range(s - 1):
            y = y * y % p
            if y == p - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """F_p on plain ints in range(p); every operation reduces mod p."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise InputError(f"{p} is not prime")
        self.p = p
        self.zero = 0
        self.one = 1

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def neg(self, a: int) -> int:
        return -a % self.p

    def div(self, a: int, b: int) -> int:
        return a * pow(b, -1, self.p) % self.p

    def of(self, v: int) -> int:
        return v % self.p

    def random(self, rng: random.Random) -> int:
        return rng.randrange(self.p)

    def random_unit(self, rng: random.Random) -> int:
        return rng.randrange(1, self.p)

    def elements(self) -> List[int]:
        return list(range(self.p))

    def units(self) -> List[int]:
        return list(range(1, self.p))


QScalar = Union[int, Fraction]


def _canonical(v: QScalar) -> QScalar:
    """v as an int if it is integral; a Fraction keeps denominator > 1."""
    return v if type(v) is int or v.denominator != 1 else v.numerator


class RationalField:
    """Q on canonical scalars: an int when the value is integral, otherwise
    a reduced Fraction with denominator > 1.

    Sampled coordinates and units are integers, and only torus and pivot
    divisions leave Z, so most arithmetic stays on ints.  The form is
    canonical, so equal values have equal reprs and `mat_key` stays sound.
    """

    zero = 0
    one = 1
    neg = staticmethod(operator.neg)

    @staticmethod
    def add(a: QScalar, b: QScalar) -> QScalar:
        v = a + b
        return v if type(v) is int or v.denominator != 1 else v.numerator

    @staticmethod
    def sub(a: QScalar, b: QScalar) -> QScalar:
        v = a - b
        return v if type(v) is int or v.denominator != 1 else v.numerator

    @staticmethod
    def mul(a: QScalar, b: QScalar) -> QScalar:
        v = a * b
        return v if type(v) is int or v.denominator != 1 else v.numerator

    @staticmethod
    def div(a: QScalar, b: QScalar) -> QScalar:
        if type(a) is int and type(b) is int:
            q, r = divmod(a, b)
            return Fraction(a, b) if r else q
        return _canonical(a / b)

    def of(self, v: int) -> int:
        return v

    def random(self, rng: random.Random) -> int:
        return rng.randint(-5, 5)

    def random_unit(self, rng: random.Random) -> int:
        v = 0
        while v == 0:
            v = rng.randint(-5, 5)
        return v


def make_field(spec):
    """'rational'/None -> Q, a prime integer -> F_p."""
    if spec in (None, "rational", "Q", "q"):
        return RationalField()
    try:
        p = int(spec)
    except (TypeError, ValueError):
        raise InputError(f"field {spec!r} is neither 'rational' nor a prime") from None
    return PrimeField(p)


# ---------------------------------------------------------------------------
# Matrices over a field.


def mat_key(A: Matrix) -> Tuple:
    return tuple(tuple(repr(v) for v in row) for row in A)


# ---------------------------------------------------------------------------
# Structured products on mutable row lists.  A word is a sequence of
# (position, coordinate) pairs standing for the product u_pos(t) in order;
# multiplying by I + t*E_ab is one row or column operation, and products
# with lifts and diagonal matrices permute or scale rows and columns.


Word = Sequence[Tuple[Position, object]]


def _rows(A: Matrix) -> List[List]:
    return [list(r) for r in A]


def _freeze(m: List[List]) -> Matrix:
    return tuple(tuple(r) for r in m)


def _mul_word(field, m: List[List], word: Iterable[Tuple[Position, object]]) -> List[List]:
    """m <- m * word: u_ab(t) on the right adds t * column a to column b."""
    add, mul = field.add, field.mul
    for (a, b), t in word:
        if not t:
            continue
        for row in m:
            v = row[a]
            if v:
                row[b] = add(row[b], mul(t, v))
    return m


def _row_ops(field, factors: Iterable[Tuple[Position, object]], m: List[List]) -> List[List]:
    """m <- u_1(t_1) * m, then u_2(t_2) * m, ... for the factors in order:
    u_ab(t) on the left adds t * row b to row a."""
    add, mul = field.add, field.mul
    for (a, b), t in factors:
        if not t:
            continue
        ra, rb = m[a], m[b]
        for j, v in enumerate(rb):
            if v:
                ra[j] = add(ra[j], mul(t, v))
    return m


def _word_mul(field, word: Word, m: List[List]) -> List[List]:
    """m <- word * m: the factors act on the rows last one first."""
    return _row_ops(field, reversed(word), m)


def _inverse_word(field, word: Word) -> List[Tuple[Position, object]]:
    """(u_1(t_1) ... u_k(t_k))^-1 = u_k(-t_k) ... u_1(-t_1)."""
    return [(pos, field.neg(t)) for pos, t in reversed(word)]


def _conjugate(field, m: List[List], word: Word) -> List[List]:
    """m <- word^-1 * m * word.

    word^-1 is word reversed with its coordinates negated, and its row
    operations run last factor first: that is word in order, negated, so
    no inverse word is built.
    """
    neg = field.neg
    _row_ops(field, ((pos, neg(t)) for pos, t in word), m)
    return _mul_word(field, m, word)


def _diag_rows(field, d: Sequence) -> List[List]:
    """diag(d), as rows."""
    m = [[field.zero] * len(d) for _ in d]
    for i, v in enumerate(d):
        m[i][i] = v
    return m


def _identity_rows(field, n: int) -> List[List]:
    return _diag_rows(field, [field.one] * n)


def _word_matrix(field, n: int, word: Word) -> Matrix:
    return _freeze(_mul_word(field, _identity_rows(field, n), word))


def _conjugate_diag(field, m: List[List], d: Sequence) -> List[List]:
    """m <- diag(d)^-1 * m * diag(d), touching only the nonzero entries."""
    mul, div = field.mul, field.div
    for row, v in zip(m, d):
        for j, x in enumerate(row):
            if x:
                row[j] = div(mul(x, d[j]), v)
    return m


def _lift_rows(data: CrossSectionData, m: List[List]) -> List[List]:
    """lift * m: row i of m becomes row pi(i)."""
    out: List[List] = [[]] * len(m)
    for i, p in enumerate(data.pi):
        out[p] = m[i]
    return out


def _unlift_rows(data: CrossSectionData, m: List[List]) -> List[List]:
    """lift^-1 * m: row pi(i) of m becomes row i."""
    return [m[p] for p in data.pi]


def _lift_word(data: CrossSectionData, word: Word) -> List[Tuple[Position, object]]:
    """lift * word * lift^-1, since lift * u_ab(t) * lift^-1 = u_pi(a)pi(b)(t)."""
    pi = data.pi
    return [((pi[a], pi[b]), t) for (a, b), t in word]


@dataclass(frozen=True, eq=False)
class MatrixGroupContext:
    """GL_n over a chosen scalar field, wired to the A_(n-1) root system."""

    n: int
    field: object
    rs: RootSystem
    pos_of_root: Dict[int, Position]


def matrix_context(n: int, field_spec="rational") -> MatrixGroupContext:
    if n < 2:
        raise InputError("matrix realization needs n >= 2")
    rs = build_root_system(CartanType("A", n - 1))
    # A root of type A has coefficients 1 (or -1) on the labels a..b-1: it
    # is e_a - e_b (or e_b - e_a).
    pos_of_root = {}
    for i, c in enumerate(rs.coeffs):
        support = [t for t, ct in enumerate(c) if ct]
        a, b = support[0], support[-1] + 1
        pos_of_root[i] = (a, b) if c[a] > 0 else (b, a)
    return MatrixGroupContext(
        n=n,
        field=make_field(field_spec),
        rs=rs,
        pos_of_root=pos_of_root,
    )


def underlying_permutation(x: TwistedElement) -> Tuple[int, ...]:
    """pi with x(e_a - e_b) = e_pi(a) - e_pi(b), from the reduced word."""
    pi = list(range(x.rs.rank + 1))
    for lab in x.word():  # pi <- pi * (lab, lab + 1)
        pi[lab], pi[lab + 1] = pi[lab + 1], pi[lab]
    return tuple(pi)


def _check_liftable(ctx: MatrixGroupContext, x: TwistedElement) -> None:
    """Refuse the elements that have no lift in this context."""
    if x.twist_power % x.twist.order != 0:
        raise InputError("matrix lifts are only defined for untwisted elements")
    if x.rs.cartan_type != ctx.rs.cartan_type:
        raise InputError("element does not belong to this context's root system")


# ---------------------------------------------------------------------------
# Unipotent coordinates.


def _closed_positions(positions: Sequence[Position]) -> bool:
    """Whether (a, b) and (b, d) in the set put (a, d) in it, for positions
    on one side of the diagonal (so a != d)."""
    pset = set(positions)
    return all((a, d) in pset for (a, b) in pset for (c, d) in pset if b == c)


Step = Tuple[int, int, Tuple[Tuple[int, int, int], ...]]


@dataclass(frozen=True, eq=False)
class CoordinateOrder:
    """An order of unipotent positions, checked once, and how to read it.

    The positions are distinct, all strictly upper or all strictly lower,
    and span a closed set.  In the product of the u_pos(t) in this order,
    entry (a, b) is t_ab plus one term per longer chain a -> c -> ... -> b
    of factors in word order: t_ac for a position of row a at a smaller
    height, times coordinates of rows on the far side of a (below it for
    upper positions, above it for lower ones).  So `rows` runs from the far
    side in, and each row by height, as (a, steps); a step (k, b, tail)
    reads order[k] = (a, b), and `tail` lists as (j, c, d) the factors after
    k that can carry its term on to an entry the row still reads: c is b
    or lies beyond it, and d lies no farther out than the row's last
    column.  `checks[i]` holds the columns j with (i, j) outside the
    support: the diagonal, which must hold 1, and the entries that must
    vanish; past them, reading is exact (see `_read_coordinates`).
    """

    order: Tuple[Position, ...]
    checks: Tuple[Tuple[int, ...], ...]
    rows: Tuple[Tuple[int, Tuple[Step, ...]], ...]


def coordinate_order(n: int, order: Sequence[Position]) -> CoordinateOrder:
    """Validate an order of positions in GL_n and fix its reading."""
    order = tuple(map(tuple, order))
    for a, b in order:
        if not (0 <= a < n and 0 <= b < n):
            raise InputError(f"position {(a, b)} lies outside {n}x{n} matrices")
        if a == b:
            raise InputError(f"position {(a, b)} is on the diagonal")
    support = frozenset(order)
    if len(support) != len(order):
        raise InputError("an order cannot repeat a position")
    if len({a < b for (a, b) in order}) > 1:
        raise InputError("cannot mix upper and lower positions in one order")
    if not _closed_positions(order):
        raise InputError("positions do not span a closed set")
    upper = all(a < b for (a, b) in order)
    by_row: Dict[int, List[Tuple[int, int]]] = {}
    for k, (a, b) in enumerate(order):
        by_row.setdefault(a, []).append((abs(a - b), k))
    rows = []
    for a in sorted(by_row, reverse=upper):
        ks = [k for _, k in sorted(by_row[a])]
        last = order[ks[-1]][1]
        steps = []
        for k in ks:
            b = order[k][1]
            tail = tuple(
                (j, c, d)
                for j, (c, d) in enumerate(order[k + 1:], k + 1)
                if ((b <= c and d <= last) if upper else (b >= c and d >= last))
            )
            steps.append((k, b, tail))
        rows.append((a, tuple(steps)))
    checks = tuple(
        tuple(j for j in range(n) if (i, j) not in support) for i in range(n)
    )
    return CoordinateOrder(order, checks, tuple(rows))


def _read_coordinates(ctx, reading: CoordinateOrder, mat: Matrix) -> List:
    """Coordinates along a checked order, each read once (see CoordinateOrder).

    The order spans a closed set Psi, so n_Psi is closed under products and
    I + n_Psi = U_Psi, the product of its root subgroups in any order
    (Humphreys, Linear Algebraic Groups, 28.1).  So the product P of the
    coordinates read equals mat past the checks, and is not formed: both
    lie in U_Psi, and on Psi, P's entry (a, b) is t_ab plus terms in earlier
    coordinates, which were taken off mat's entry to read t_ab.
    """
    f = ctx.field
    add, sub, mul, one = f.add, f.sub, f.mul, f.one
    for i, cols in enumerate(reading.checks):
        row = mat[i]
        for j in cols:
            if i == j:
                if row[j] != one:
                    raise NotInCellError("matrix is not unipotent")
            elif row[j]:
                raise NotInCellError(
                    f"support outside the closed set at position {(i, j)}"
                )
    coords = [f.zero] * len(reading.order)
    for a, steps in reading.rows:
        target = mat[a]
        known: Dict[int, object] = {}  # row a's entries from coordinates read
        for k, b, tail in steps:
            t = sub(target[b], known[b]) if b in known else target[b]
            if not t:
                continue
            coords[k] = t
            term = {b: t}
            for j, c, d in tail:
                s = coords[j]
                if s and c in term:
                    v = mul(s, term[c])
                    term[d] = add(term[d], v) if d in term else v
            for d, v in term.items():
                known[d] = add(known[d], v) if d in known else v
    return coords


# ---------------------------------------------------------------------------
# Cross-section data.


# One linear system of the initial split: (row a, banned columns, unknowns).
RowSystem = Tuple[int, Tuple[int, ...], Tuple[int, ...]]
# A level-descent step: its reading order, and how many coordinates are its own.
LevelDescent = Tuple[CoordinateOrder, int]


@dataclass(frozen=True, eq=False)
class CrossSectionData:
    """The element, its analysis, its level filtration, and what sigma
    reads by.

    The orders sigma reads coordinates along, and the row systems of its
    initial split, are fixed and checked here once; they are None or empty
    when x is not quasi-convex, for which sigma is not defined.
    """

    ctx: MatrixGroupContext
    x: TwistedElement
    pi: Tuple[int, ...]
    blk: Tuple[int, ...]
    phi_pos: Tuple[Position, ...]
    phi_neg: Tuple[Position, ...]
    rn: Tuple[Position, ...]
    report: ConvexityReport
    levels: Dict[int, Tuple[Position, ...]]
    cycles: Tuple[Tuple[int, ...], ...]
    initial_rows: Tuple[RowSystem, ...]
    descent: Tuple[LevelDescent, ...]
    final_order: Optional[CoordinateOrder]
    u_order: Optional[CoordinateOrder]
    y_order: Optional[CoordinateOrder]
    minus_order: Optional[CoordinateOrder]

    @property
    def level_one(self) -> Tuple[Position, ...]:
        return self.levels.get(1, ())

    def dims(self) -> Dict[str, int]:
        return {
            "domain_unipotent": len(self.rn),
            "level_one": len(self.level_one),
            "levi_plus": len(self.phi_pos),
            "levi_minus": len(self.phi_neg),
            "torus_cycles": len(self.cycles),
        }


def _initial_rows(
    n: int,
    pi: Sequence[int],
    blk: Sequence[int],
    rn: Sequence[Position],
    sprime: FrozenSet[Position],
) -> Tuple[RowSystem, ...]:
    """Per row a of y^-1, the columns of g its entries must clear.

    lift^-1 y^-1 g must vanish above the diagonal outside level one and
    the Levi, and below it between Levi blocks; that pattern, moved
    through the lift, bans columns of each row of y^-1 g.
    """
    bans: Dict[int, List[int]] = {}
    for i in range(n):
        for j in range(n):
            if (i < j and (i, j) not in sprime) or (i > j and blk[i] != blk[j]):
                bans.setdefault(pi[i], []).append(j)
    unknowns: Dict[int, List[int]] = {}
    for (a, k) in rn:
        unknowns.setdefault(a, []).append(k)
    return tuple(
        (a, tuple(bans[a]), tuple(unknowns.get(a, ())))
        for a in range(n)
        if a in bans
    )


def _level_descent(
    n: int, levels: Dict[int, Tuple[Position, ...]], phi_pos
) -> Tuple[LevelDescent, ...]:
    """For lev = max level .. 2: level lev first, then the lower levels and
    the Levi, so the level's own coordinates lead the reading order."""
    steps = []
    for lev in range(max(levels, default=0), 1, -1):
        own = levels.get(lev, ())
        lower = tuple(p for l in range(1, lev) for p in levels.get(l, ()))
        steps.append((coordinate_order(n, own + lower + phi_pos), len(own)))
    return tuple(steps)


def build_cross_section(ctx: MatrixGroupContext, x: TwistedElement) -> CrossSectionData:
    _check_liftable(ctx, x)
    rs = ctx.rs
    n = ctx.n
    report = analyze(x)
    pi = underlying_permutation(x)
    J = frozenset(
        lab for lab in range(rs.rank) if rs.simple_indices[lab] in report.phi_x
    )
    blk = [0] * n
    b = 0
    for t in range(1, n):
        if (t - 1) not in J:
            b += 1
        blk[t] = b
    phi_pos = tuple(
        ctx.pos_of_root[i]
        for i in range(rs.positive_count)
        if i in report.phi_x
    )
    phi_neg = tuple((b_, a_) for (a_, b_) in phi_pos)
    rn = tuple(
        ctx.pos_of_root[i]
        for i in range(rs.positive_count)
        if i not in report.phi_x
    )
    grouped = _levels(report)
    levels = {k: tuple(map(ctx.pos_of_root.get, v)) for k, v in grouped.items()}
    level_one = levels.get(1, ())
    quasi_convex = report.quasi_convex
    if quasi_convex:
        # Quasi-convex x sends each level k >= 2 into a closed level k - 1:
        # roots of level k sum to level >= k, as x^i keeps both positive for
        # i < k, and <= k by condition (2).  So the lift of a level-k word in
        # sigma is a word in a closed set, and its product has no support
        # outside it.
        _check_descent(x, grouped)
        for lev in range(2, max(grouped, default=0) + 1):
            if not roots.is_closed(rs, grouped[lev - 1]):
                raise InconsistencyError(
                    f"level {lev} does not descend into a closed level {lev - 1}"
                )

    def reading(order) -> Optional[CoordinateOrder]:
        return coordinate_order(n, order) if quasi_convex else None

    return CrossSectionData(
        ctx=ctx,
        x=x,
        pi=pi,
        blk=tuple(blk),
        phi_pos=phi_pos,
        phi_neg=phi_neg,
        rn=rn,
        report=report,
        levels=levels,
        cycles=tuple(map(tuple, perm.cycles(pi))),
        initial_rows=_initial_rows(n, pi, blk, rn, frozenset(level_one + phi_pos)),
        descent=_level_descent(n, levels, phi_pos) if quasi_convex else (),
        final_order=reading(level_one + phi_pos),
        u_order=reading(level_one),
        y_order=reading(rn),
        minus_order=reading(phi_neg),
    )


@dataclass(frozen=True)
class CellPoint:
    """Coordinates of a point of the conjugation-map domain."""

    y_coords: Tuple
    u_coords: Tuple
    ell_plus: Tuple
    ell_diag: Tuple
    ell_minus: Tuple


def _ell_rows(data: CrossSectionData, p: CellPoint) -> List[List]:
    """ell = (Levi plus part) * diag * (Levi minus part), as rows: diag
    with the plus word applied to its rows and the minus word to its
    columns."""
    f = data.ctx.field
    m = _word_mul(f, list(zip(data.phi_pos, p.ell_plus)), _diag_rows(f, p.ell_diag))
    return _mul_word(f, m, zip(data.phi_neg, p.ell_minus))


def _section_rows(data: CrossSectionData, p: CellPoint) -> List[List]:
    """lift * ell * u, as rows."""
    m = _mul_word(data.ctx.field, _ell_rows(data, p), zip(data.level_one, p.u_coords))
    return _lift_rows(data, m)


def xi(data: CrossSectionData, p: CellPoint) -> Matrix:
    """The conjugation map: (y, lift*ell*u) -> y (lift ell u) y^-1."""
    f = data.ctx.field
    y = list(zip(data.rn, p.y_coords))
    m = _word_mul(f, y, _section_rows(data, p))
    return _freeze(_mul_word(f, m, _inverse_word(f, y)))


def _solve_initial_unipotent(
    data: CrossSectionData, g: Matrix
) -> List[Tuple[Position, object]]:
    """The v = y^-1 with lift^-1 v g matching the U_1 L pattern, by row.

    Returned as the word of v: with its rows taken bottom-up, v is the
    product of the factors u_ak(v_ak), since row a's part of v - 1 times
    row b's part vanishes for a > b.
    """
    f = data.ctx.field
    word: List[Tuple[Position, object]] = []
    for a, bans, unknowns in data.initial_rows:
        if not unknowns:
            for j in bans:
                if g[a][j]:
                    raise NotInCellError(
                        f"row {a} cannot be cleared: no unipotent freedom"
                    )
            continue
        A = [[g[k][j] for k in unknowns] for j in bans]
        b = [f.neg(g[a][j]) for j in bans]
        sol = solve(A, b, f)
        if sol is None:
            raise NotInCellError(f"row {a} of the unipotent factor is unsolvable")
        word = [((a, k), val) for k, val in zip(unknowns, sol)] + word
    return word


def _factor_ul(data: CrossSectionData, w: List[List]):
    """w = A * D * B with A unipotent upper, D diagonal, B unipotent lower
    supported on the Levi blocks; B^-1 comes as the word of the column
    operations that clear w below the diagonal.  The support of A is
    checked where its coordinates are read."""
    ctx = data.ctx
    f = ctx.field
    n = ctx.n
    m = [list(r) for r in w]
    ops: List[Tuple[Position, object]] = []
    for i in range(n - 1, -1, -1):
        for j in range(i):
            if not m[i][j]:
                continue
            if data.blk[i] != data.blk[j]:
                raise NotInCellError(f"off-block lower entry at {(i, j)}")
            if not m[i][i]:
                raise NotInCellError(f"zero pivot at row {i} during Levi split")
            t = f.neg(f.div(m[i][j], m[i][i]))
            _mul_word(f, m, [((i, j), t)])
            ops.append(((i, j), t))
    d = [m[i][i] for i in range(n)]
    if not all(d):
        raise NotInCellError("singular diagonal in the Levi factorization")
    A = tuple(tuple(f.div(v, dj) if v else v for v, dj in zip(row, d)) for row in m)
    return A, tuple(d), ops


def sigma(data: CrossSectionData, g: Matrix) -> CellPoint:
    """Section of xi: recover the unique cell point with xi(point) = g.

    Walks the level filtration top-down; every factorization failure is
    reported as the matrix not lying in the cell.
    """
    ctx = data.ctx
    f = ctx.field
    if not data.report.quasi_convex:
        raise InputError("the section is only defined for quasi-convex elements")
    y_word = _inverse_word(f, _solve_initial_unipotent(data, g))
    y = _mul_word(f, _identity_rows(f, ctx.n), y_word)
    # z = y^-1 g, then phi: (y, z) -> (y, z y); afterwards g = y z y^-1 stays invariant.
    z = _conjugate(f, _rows(g), y_word)
    for reading, cut in data.descent:
        w = _unlift_rows(data, z)  # lift^-1 * z
        A, _, _ = _factor_ul(data, w)
        coords = _read_coordinates(ctx, reading, A)
        udd_word = _lift_word(data, list(zip(reading.order[:cut], coords[:cut])))
        y = _mul_word(f, y, udd_word)
        z = _conjugate(f, z, udd_word)
    w = _unlift_rows(data, z)  # lift^-1 * z
    reading = data.final_order
    A, d, b_inv = _factor_ul(data, w)
    b_word = _inverse_word(f, b_inv)
    coords = _read_coordinates(ctx, reading, A)
    cut = len(data.level_one)
    aplus_coords = coords[cut:]
    # Convert from z = lift * u1 * ell to the published order z = lift * ell * u:
    # u = ell^-1 * u1 * ell with ell = aplus * diag(d) * B.
    u_final = _mul_word(f, _identity_rows(f, ctx.n), zip(reading.order[:cut], coords[:cut]))
    _conjugate(f, u_final, list(zip(data.phi_pos, aplus_coords)))
    _conjugate(f, _conjugate_diag(f, u_final, d), b_word)
    u_coords = _read_coordinates(ctx, data.u_order, u_final)
    y_coords = _read_coordinates(ctx, data.y_order, y)
    b_coords = _read_coordinates(ctx, data.minus_order, _word_matrix(f, ctx.n, b_word))
    point = CellPoint(
        y_coords=tuple(y_coords),
        u_coords=tuple(u_coords),
        ell_plus=tuple(aplus_coords),
        ell_diag=tuple(d),
        ell_minus=tuple(b_coords),
    )
    if xi(data, point) != g:
        raise NotInCellError("factorization did not reproduce the input matrix")
    return point


# ---------------------------------------------------------------------------
# Torus of the Levi and random sampling.


def torus_element(data: CrossSectionData, cycle_values: Sequence, coroot_values: Sequence) -> Tuple:
    """diag entries from one unit per permutation cycle and one per Levi root."""
    f = data.ctx.field
    diag = [f.one] * data.ctx.n
    for cyc, t in zip(data.cycles, cycle_values):
        for i in cyc:
            diag[i] = f.mul(diag[i], t)
    for (a, b), t in zip(data.phi_pos, coroot_values):
        diag[a] = f.mul(diag[a], t)
        diag[b] = f.div(diag[b], t)
    return tuple(diag)


def random_cell_point(data: CrossSectionData, rng: random.Random) -> CellPoint:
    f = data.ctx.field
    return CellPoint(
        y_coords=tuple(f.random(rng) for _ in data.rn),
        u_coords=tuple(f.random(rng) for _ in data.level_one),
        ell_plus=tuple(f.random(rng) for _ in data.phi_pos),
        ell_diag=torus_element(
            data,
            [f.random_unit(rng) for _ in data.cycles],
            [f.random_unit(rng) for _ in data.phi_pos],
        ),
        ell_minus=tuple(f.random(rng) for _ in data.phi_neg),
    )


def random_section_point(data: CrossSectionData, rng: random.Random) -> Matrix:
    """A random matrix of the cross-section itself (no conjugation)."""
    return _freeze(_section_rows(data, random_cell_point(data, rng)))


def enumerate_torus(data: CrossSectionData) -> List[Tuple]:
    """All diagonal parts of the Levi torus over a finite field, sorted.

    The torus is the image of `torus_element`, a homomorphism from one
    unit per cycle and per Levi root.  It is built one such coordinate at
    a time: the image so far times the images of that coordinate's units,
    a set, so duplicates go as they arise.
    """
    f = data.ctx.field
    nc = len(data.cycles)
    ones = [f.one] * (nc + len(data.phi_pos))
    out = {(f.one,) * data.ctx.n}
    for i in range(len(ones)):
        factors = []
        for t in f.units():
            vals = ones[:i] + [t] + ones[i + 1:]
            factors.append(torus_element(data, vals[:nc], vals[nc:]))
        out = {tuple(map(f.mul, d, g)) for d in out for g in factors}
    return sorted(out)


def enumerate_cell_points(data: CrossSectionData) -> Iterator[CellPoint]:
    """Every cell point over a finite field, in deterministic order."""
    f = data.ctx.field
    elems = f.elements()
    torus = enumerate_torus(data)
    for yc in product(elems, repeat=len(data.rn)):
        for uc in product(elems, repeat=len(data.level_one)):
            for ap in product(elems, repeat=len(data.phi_pos)):
                for dg in torus:
                    for am in product(elems, repeat=len(data.phi_neg)):
                        yield CellPoint(yc, uc, ap, dg, am)


# ---------------------------------------------------------------------------
# Tangent-space transversality.


# The fixed prime of the rank certificate in `transversality_check`: the
# largest below 2^15, so a product of two residues fits one 30-bit digit
# of a Python int and the entries `rank_mod_p` leaves unreduced fit a
# machine word.  A smaller prime makes a false shortfall likelier; each
# costs one exact Bareiss rank of the n^2-row span, never a verdict.
RANK_PRIME = 32749


def _span_columns(data: CrossSectionData, g: Matrix) -> List[List]:
    """The columns whose rank `adjoint_span_rank` takes, built on the
    entries of g by sums and negations only."""
    n = data.ctx.n

    def g_times(terms) -> List:
        """g * sum(s E_ab) over (a, b, s) in terms, flattened by rows."""
        col = [0] * (n * n)
        for a, b, s in terms:
            for i in range(n):
                col[i * n + b] += s * g[i][a]
        return col

    cols: List[List] = []
    for a in range(n):
        for b in range(n):
            col = g_times([(a, b, -1)])
            for j, v in enumerate(g[b]):
                col[a * n + j] += v
            cols.append(col)
    spans = (
        [[(a, b, 1)] for (a, b) in data.phi_pos + data.phi_neg + data.level_one]
        + [[(i, i, 1) for i in cyc] for cyc in data.cycles]
        + [[(a, a, 1), (b, b, -1)] for (a, b) in data.phi_pos]
    )
    cols += map(g_times, spans)
    return cols


def adjoint_span_rank(data: CrossSectionData, g: Matrix) -> int:
    """Rank of (Ad(g^-1) - 1)(gl_n) + levi algebra + level-one nilpotent.

    Taken on g times that span, which has the same rank since g is
    invertible: the columns are E_ab g - g E_ab for every (a, b), and g Y
    for each Levi, torus and level-one column Y.  Their entries are sums
    and negations of entries of g, so no inverse is formed.
    """
    return rank(_span_columns(data, g))


def transversality_check(data: CrossSectionData, g: Matrix) -> bool:
    """Whether the tangent spaces span gl_n at a cross-section point.

    First mod RANK_PRIME: each entry a/b of g goes to a * b^-1, and the
    columns built on those ints are the reduction of the columns over Q,
    which are integer combinations of g's entries.  A minor that is
    nonzero mod p is nonzero over Q, so rank n^2 mod p proves rank n^2.
    The exact rank over Q decides only when the rank mod p falls short or
    p divides a denominator of g.
    """
    if not isinstance(data.ctx.field, RationalField):
        raise InputError("the tangent-space check runs over the rationals")
    full = data.ctx.n * data.ctx.n
    p = RANK_PRIME
    try:
        g_mod = [[v.numerator * pow(v.denominator, -1, p) % p for v in row] for row in g]
    except ValueError:  # p divides a denominator
        g_mod = None
    # One row per position of gl_n, so the elimination stops at rank n^2.
    if g_mod is not None and rank_mod_p(zip(*_span_columns(data, g_mod)), p) == full:
        return True
    return adjoint_span_rank(data, g) == full
