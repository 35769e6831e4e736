"""Finite crystallographic root systems as integer root data.

A root is a tuple of integer simple-root coefficients.  The root set is
the closure of the simple roots under s_j(c) = c - <c, alpha_j^vee> e_j,
computed with the integer Cartan matrix; root sums and simple reflections
are coefficient arithmetic looked up in a coefficient index.  The Cartan
matrix and the Gram matrix come from the simple roots of the requested
type, laid out in the standard orthonormal-basis conventions (type A lives
in Z^(n+1), F4 and the E series use half-integer coordinates).  Each root
also keeps its ambient `fractions.Fraction` coordinates, for display and
tests; no floating point enters this module.

Roots are indexed deterministically: positive roots first, sorted by
(height, lexicographic coordinates), and the negative of roots[i] is
roots[positive_count + i].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import add, mul
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from . import perm
from .errors import InconsistencyError, InputError

Vector = Tuple[Fraction, ...]

_CLASSICAL_COUNTS = {
    "A": lambda n: n * (n + 1),
    "B": lambda n: 2 * n * n,
    "C": lambda n: 2 * n * n,
    "D": lambda n: 2 * n * (n - 1),
    "E": lambda n: {6: 72, 7: 126, 8: 240}[n],
    "F": lambda n: 48,
    "G": lambda n: 12,
}

# Largest root system any command builds.  Single runs of convex-check
# --word 1 (2-core machine, Python 3.11): B20 (800 roots) 0.8 s and 29 MB,
# A28 (812) 1.1 s, D24 (1,104) 1.6 s and 35 MB, A60 (3,660) 30 s.
MAX_ROOTS = 800

_WEYL_ORDERS = {
    "E": {6: 51840, 7: 2903040, 8: 696729600},
    "F": {4: 1152},
    "G": {2: 12},
}


@dataclass(frozen=True)
class CartanType:
    """A family letter plus a rank, e.g. A4 or F4."""

    family: str
    rank: int

    def __post_init__(self):
        fam, n = self.family, self.rank
        ok = (
            (fam == "A" and n >= 1)
            or (fam in ("B", "C") and n >= 2)
            or (fam == "D" and n >= 3)
            or (fam == "E" and n in (6, 7, 8))
            or (fam == "F" and n == 4)
            or (fam == "G" and n == 2)
        )
        if not ok:
            raise InputError(f"inadmissible Cartan type {fam}{n}")

    @classmethod
    def parse(cls, text: str) -> "CartanType":
        text = text.strip()
        if len(text) < 2 or text[0].upper() not in "ABCDEFG" or not text[1:].isdigit():
            raise InputError(f"cannot parse Cartan type {text!r}")
        return cls(text[0].upper(), int(text[1:]))

    def weyl_order(self) -> int:
        n = self.rank
        if self.family == "A":
            return _factorial(n + 1)
        if self.family in ("B", "C"):
            return (1 << n) * _factorial(n)
        if self.family == "D":
            return (1 << (n - 1)) * _factorial(n)
        return _WEYL_ORDERS[self.family][n]

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def _factorial(n: int) -> int:
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


def _unit(dim: int, i: int, c=1) -> Vector:
    return tuple(Fraction(c) if j == i else Fraction(0) for j in range(dim))


def _vadd(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def _vneg(u: Vector) -> Vector:
    return tuple(-a for a in u)


def dot(u: Vector, v: Vector) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def _simple_roots(ct: CartanType) -> List[Vector]:
    n = ct.rank
    fam = ct.family
    if fam == "A":
        dim = n + 1
        return [_vadd(_unit(dim, i), _vneg(_unit(dim, i + 1))) for i in range(n)]
    if fam in ("B", "C", "D"):
        dim = n
        simples = [
            _vadd(_unit(dim, i), _vneg(_unit(dim, i + 1))) for i in range(n - 1)
        ]
        if fam == "B":
            simples.append(_unit(dim, n - 1))
        elif fam == "C":
            simples.append(_unit(dim, n - 1, 2))
        else:
            simples.append(_vadd(_unit(dim, n - 2), _unit(dim, n - 1)))
        return simples
    if fam == "G":
        dim = 3
        a1 = _vadd(_unit(dim, 0), _vneg(_unit(dim, 1)))
        a2 = tuple(Fraction(c) for c in (-2, 1, 1))
        return [a1, a2]
    if fam == "F":
        dim = 4
        return [
            _vadd(_unit(dim, 1), _vneg(_unit(dim, 2))),
            _vadd(_unit(dim, 2), _vneg(_unit(dim, 3))),
            _unit(dim, 3),
            tuple(Fraction(c, 2) for c in (1, -1, -1, -1)),
        ]
    # E6/E7/E8 share the E8 simple roots, truncated to the first `rank`.
    dim = 8
    half = Fraction(1, 2)
    e8 = [
        (half, -half, -half, -half, -half, -half, -half, half),
        (Fraction(1), Fraction(1), Fraction(0), Fraction(0), Fraction(0), Fraction(0), Fraction(0), Fraction(0)),
        (Fraction(-1), Fraction(1), Fraction(0), Fraction(0), Fraction(0), Fraction(0), Fraction(0), Fraction(0)),
    ]
    for i in range(1, 6):
        e8.append(_vadd(_vneg(_unit(dim, i)), _unit(dim, i + 1)))
    return [tuple(v) for v in e8[: ct.rank]]


@dataclass(frozen=True, eq=False)
class RootSystem:
    """The integer root datum of one Cartan type.

    Every root is a tuple of integer simple-root coefficients (`coeffs`,
    found again through `coeff_index`); sums, reflections and the Cartan
    matrix are integer data on those tuples.  `pairing_rows[i]` is
    Gram * coeffs[i], so pairing a vector in simple-root coordinates with a
    root is one dot product; `int_pairing_rows` is the same row scaled by
    one positive integer, for exact zero tests.  Bit j of `support_masks[i]`
    is set when alpha_j occurs in root i.  The ambient rational
    vectors `roots` and `index_of` serve display, tests and the root order.
    """

    cartan_type: CartanType
    ambient_dim: int
    roots: Tuple[Vector, ...]
    coeffs: Tuple[Tuple[int, ...], ...]
    coeff_index: Dict[Tuple[int, ...], int]
    positive_count: int
    simple_indices: Tuple[int, ...]
    sum_table: Dict[Tuple[int, int], int]
    index_of: Dict[Vector, int]
    cartan: Tuple[Tuple[int, ...], ...]
    simple_gram: Tuple[Tuple[Fraction, ...], ...]
    pairing_rows: Tuple[Tuple[Fraction, ...], ...]
    int_pairing_rows: Tuple[Tuple[int, ...], ...]
    reflections: Tuple[perm.Perm, ...]
    support_masks: Tuple[int, ...]

    @property
    def rank(self) -> int:
        return self.cartan_type.rank

    @property
    def count(self) -> int:
        return len(self.roots)

    def is_positive(self, i: int) -> bool:
        return i < self.positive_count

    def neg(self, i: int) -> int:
        n = self.positive_count
        return i + n if i < n else i - n

    def height(self, i: int) -> int:
        return sum(self.coeffs[i])

    def pair_with_root(self, v: Sequence, i: int):
        """Pairing of a vector in simple-root coordinates with roots[i]."""
        out = 0
        for va, r in zip(v, self.pairing_rows[i]):
            if va != 0:
                out = out + va * r
        return out

    def gram(self) -> Tuple[Tuple[Fraction, ...], ...]:
        """Gram matrix of the simple roots."""
        return self.simple_gram

    def cartan_entry(self, i: int, j: int) -> int:
        """<alpha_i, alpha_j^vee> for simple labels i, j (0-based)."""
        return self.cartan[i][j]

    def simple_reflection_perm(self, label: int) -> perm.Perm:
        """Permutation of root indices induced by the simple reflection s_label."""
        return self.reflections[label]

    def parabolic_closure(self, labels) -> FrozenSet[int]:
        """All root indices lying in the integer span of the given simples."""
        outside = ~sum(1 << lab for lab in set(labels))
        return frozenset(
            i for i, mask in enumerate(self.support_masks) if not mask & outside
        )

    def root_str(self, i: int) -> str:
        """Readable rendering of a root as a combination of simple roots."""
        parts = []
        for j, c in enumerate(self.coeffs[i]):
            if c == 0:
                continue
            if c == 1:
                parts.append(f"a{j + 1}")
            elif c == -1:
                parts.append(f"-a{j + 1}")
            else:
                parts.append(f"{c}a{j + 1}")
        return "+".join(parts).replace("+-", "-") if parts else "0"


def _cartan_matrix(cartan_type: CartanType, gram) -> Tuple[Tuple[int, ...], ...]:
    """<alpha_i, alpha_j^vee> = 2 (alpha_i, alpha_j) / (alpha_j, alpha_j)."""
    n = len(gram)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            val, rem = divmod(2 * gram[i][j], gram[j][j])
            if rem:
                raise InconsistencyError(
                    f"{cartan_type}: non-crystallographic reflection"
                )
            row.append(val)
        rows.append(tuple(row))
    return tuple(rows)


def _reflect_coeffs(c: Tuple[int, ...], j: int, cartan) -> Tuple[int, ...]:
    """s_j(c) = c - <c, alpha_j^vee> e_j on simple-root coefficients."""
    d = sum(ct * cartan[t][j] for t, ct in enumerate(c) if ct)
    if d == 0:
        return c
    out = list(c)
    out[j] -= d
    return tuple(out)


def _over_common_denominator(rows) -> Tuple[int, List[List[int]]]:
    """(den, integer rows) with rows == integer rows / den."""
    den = 1
    for row in rows:
        for x in row:
            den = den * x.denominator // gcd(den, x.denominator)
    return den, [[x.numerator * (den // x.denominator) for x in row] for row in rows]


def _as_fractions(int_rows, den: int) -> Tuple[Tuple[Fraction, ...], ...]:
    """The rows int_rows / den; equal entries share one Fraction."""
    frac = {x: Fraction(x, den) for x in {x for row in int_rows for x in row}}
    return tuple(tuple(map(frac.__getitem__, row)) for row in int_rows)


def build_root_system(cartan_type: CartanType) -> RootSystem:
    """Construct the root system of the given type by reflection closure."""
    simples = _simple_roots(cartan_type)
    n = cartan_type.rank
    dim = len(simples[0])
    # Simple roots as integers over a common denominator den; int_gram is
    # den^2 times the Gram matrix.
    den, scaled = _over_common_denominator(simples)
    int_gram = [[sum(map(mul, a, b)) for b in scaled] for a in scaled]
    cartan = _cartan_matrix(cartan_type, int_gram)

    # Closure under simple reflections, on simple-root coefficients; a set
    # that outgrows the known root count stops the loop.
    expected = _CLASSICAL_COUNTS[cartan_type.family](n)
    if expected > MAX_ROOTS:
        raise InputError(f"{cartan_type} has {expected} roots; the limit is {MAX_ROOTS}")
    units = [tuple(1 if t == i else 0 for t in range(n)) for i in range(n)]
    found = set(units)
    frontier = list(units)
    while frontier and len(found) <= expected:
        c = frontier.pop()
        for j in range(n):
            w = _reflect_coeffs(c, j, cartan)
            if w not in found:
                found.add(w)
                frontier.append(w)

    if len(found) != expected:
        raise InconsistencyError(
            f"{cartan_type}: generated {len(found)} roots, expected {expected}"
        )

    # Ambient coordinates over den; scaling by a positive integer keeps the
    # (height, coordinates) order.
    positives = []
    for c in found:
        pos = all(t >= 0 for t in c)
        if not (pos or all(t <= 0 for t in c)):
            raise InconsistencyError(
                f"{cartan_type}: root with mixed-sign coefficients {c}"
            )
        if pos:
            amb = tuple(
                sum(ct * a[k] for ct, a in zip(c, scaled) if ct) for k in range(dim)
            )
            positives.append((sum(c), amb, c))
    positives.sort()

    coeffs = [c for _, _, c in positives]
    coeffs += [tuple(-t for t in c) for c in coeffs]
    ambient = [amb for _, amb, _ in positives]
    ambient += [tuple(-x for x in amb) for amb in ambient]
    roots = _as_fractions(ambient, den)
    index_of = {v: i for i, v in enumerate(roots)}
    coeff_index = {c: i for i, c in enumerate(coeffs)}

    sum_table: Dict[Tuple[int, int], int] = {}
    for i, ci in enumerate(coeffs):
        for j in range(i, len(coeffs)):
            k = coeff_index.get(tuple(map(add, ci, coeffs[j])))
            if k is not None:
                sum_table[(i, j)] = k
                sum_table[(j, i)] = k

    reflections = tuple(
        perm.of([coeff_index[_reflect_coeffs(c, j, cartan)] for c in coeffs])
        for j in range(n)
    )

    # Pairing rows Gram * c, as integers over den^2.
    int_pairing_rows = tuple(
        tuple(sum(g[b] * cb for b, cb in enumerate(c) if cb) for g in int_gram)
        for c in coeffs
    )

    return RootSystem(
        cartan_type=cartan_type,
        ambient_dim=dim,
        roots=roots,
        coeffs=tuple(coeffs),
        coeff_index=coeff_index,
        positive_count=len(positives),
        simple_indices=tuple(coeff_index[u] for u in units),
        sum_table=sum_table,
        index_of=index_of,
        cartan=cartan,
        simple_gram=_as_fractions(int_gram, den * den),
        pairing_rows=_as_fractions(int_pairing_rows, den * den),
        int_pairing_rows=int_pairing_rows,
        reflections=reflections,
        support_masks=tuple(
            sum(1 << j for j, t in enumerate(c) if t) for c in coeffs
        ),
    )


def root_sum(rs: RootSystem, i: int, j: int) -> Optional[int]:
    """Index of roots[i] + roots[j] if that vector is a root, else None."""
    if not (0 <= i < rs.count and 0 <= j < rs.count):
        raise InputError(f"root index out of range: {(i, j)}")
    return rs.sum_table.get((i, j))


def is_closed(rs: RootSystem, indices) -> bool:
    """Whether the set is closed under taking root sums.

    The set must not meet its own negative; that precondition is checked.
    """
    R = frozenset(indices)
    if any(rs.neg(i) in R for i in R):
        raise InputError("closedness is only defined for sets with R & -R empty")
    for i in R:
        for j in R:
            k = rs.sum_table.get((i, j))
            if k is not None and k not in R:
                return False
    return True


@dataclass(frozen=True)
class DiagramAutomorphism:
    """A Cartan-matrix-preserving permutation of the simple roots."""

    simple_perm: Tuple[int, ...]
    order: int
    root_perm: perm.Perm

    @property
    def is_identity(self) -> bool:
        return all(p == i for i, p in enumerate(self.simple_perm))

    def label(self) -> str:
        if self.is_identity:
            return "id"
        return ",".join(str(p + 1) for p in self.simple_perm)


def diagram_automorphisms(rs: RootSystem) -> List[DiagramAutomorphism]:
    """All simple-root permutations preserving the Cartan matrix.

    The identity comes first; the rest are sorted by their permutation
    tuple, so D4 lists its full order-6 group deterministically.
    """
    n = rs.rank
    cartan = [[rs.cartan_entry(i, j) for j in range(n)] for i in range(n)]

    found: List[Tuple[int, ...]] = []

    def extend(partial: List[int], used: set) -> None:
        i = len(partial)
        if i == n:
            found.append(tuple(partial))
            return
        for cand in range(n):
            if cand in used:
                continue
            ok = all(
                cartan[i][j] == cartan[cand][partial[j]]
                and cartan[j][i] == cartan[partial[j]][cand]
                for j in range(i)
            )
            if ok and cartan[i][i] == cartan[cand][cand]:
                partial.append(cand)
                used.add(cand)
                extend(partial, used)
                partial.pop()
                used.discard(cand)

    extend([], set())
    found.sort(key=lambda p: (not all(x == i for i, x in enumerate(p)), p))

    autos = []
    for simple_perm in found:
        images = []
        for c in rs.coeffs:
            nc = [0] * n
            for i, t in enumerate(c):
                nc[simple_perm[i]] = t
            images.append(rs.coeff_index[tuple(nc)])
        autos.append(
            DiagramAutomorphism(
                simple_perm=simple_perm,
                order=perm.order(simple_perm),
                root_perm=perm.of(images),
            )
        )
    return autos


def identity_automorphism(rs: RootSystem) -> DiagramAutomorphism:
    return DiagramAutomorphism(
        simple_perm=tuple(range(rs.rank)),
        order=1,
        root_perm=perm.identity(rs.count),
    )
