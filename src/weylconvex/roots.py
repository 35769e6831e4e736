"""Finite crystallographic root systems as integer root data.

A root is a tuple of integer simple-root coefficients.  The positive
roots are the closure of the simple roots under s_j(c) = c - <c,
alpha_j^vee> e_j, computed with the integer Cartan matrix: s_j sends
alpha_j to -alpha_j and permutes the other positive roots (Bourbaki, Lie
Groups and Lie Algebras VI 1.6), so the closure never leaves them, and
the negative roots are their negatives.  The closure's images give the
simple reflections.  Root sums come from the positive triples a_i + a_j =
a_k alone: each gives k = i + j, i = k - j, j = k - i, -k = -i - j,
-j = -k + i and -i = -k + j, and every sum of two roots is one of these,
since a sum of two positive (or two negative) roots has their sign and a
mixed sum a + (-b) = c rearranges to c + b = a or a + (-c) = b.  The Cartan
matrix and the Gram matrix come from the simple roots of the requested
type, laid out in the standard orthonormal-basis conventions (type A lives
in Z^(n+1), F4 and the E series use half-integer coordinates) and scaled
to integers over one common denominator.  Those integer ambient
coordinates fix the root order; nothing else keeps them.  No floating
point enters this module.

Roots are indexed deterministically: positive roots first, sorted by
(height, ambient coordinates), and the negative of root i is root
positive_count + i.  So the simple roots are the indices 0 to rank - 1,
which `build_root_system` checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd
from operator import mul
from typing import Dict, FrozenSet, List, Tuple

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
# --word 1 with the limit lifted (2-core machine, Python 3.11): B20 (800
# roots) 0.15 s and 30 MB, A28 (812) 0.22 s, D24 (1,104) 0.24 s and 37 MB,
# A60 (3,660) 1.7 s and 91 MB.
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
            return factorial(n + 1)
        if self.family in ("B", "C"):
            return (1 << n) * factorial(n)
        if self.family == "D":
            return (1 << (n - 1)) * factorial(n)
        return _WEYL_ORDERS[self.family][n]

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def _unit(dim: int, i: int, c=1) -> Vector:
    return tuple(Fraction(c) if j == i else Fraction(0) for j in range(dim))


def _vadd(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def _vneg(u: Vector) -> Vector:
    return tuple(-a for a in u)


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
    matrix are integer data on those tuples.  `int_pairing_rows[i]` is
    den^2 Gram * coeffs[i], den the common denominator of the ambient
    simple roots, so the pairing of a vector in simple-root coordinates
    with root i is one integer dot product, a positive multiple of the true
    pairing: its zero test and its sign are exact.  Bit j of `support_masks[i]`
    is set when alpha_j occurs in root i.  `positive_sums[a]` lists, for a
    positive root a, the pairs (b, a+b) with b and a+b both positive, by
    ascending b: the only pairs a subadditivity test on levels must visit.

    `build_root_system` closes only the positive roots under the simple
    reflections and fills `sum_table` (both orders of every pair) and
    `positive_sums` from the positive triples, six sums a triple; the
    negative rows of `int_pairing_rows` are the negated positive ones.
    """

    cartan_type: CartanType
    coeffs: Tuple[Tuple[int, ...], ...]
    coeff_index: Dict[Tuple[int, ...], int]
    positive_count: int
    simple_indices: Tuple[int, ...]
    sum_table: Dict[Tuple[int, int], int]
    positive_sums: Tuple[Tuple[Tuple[int, int], ...], ...]
    cartan: Tuple[Tuple[int, ...], ...]
    int_pairing_rows: Tuple[Tuple[int, ...], ...]
    reflections: Tuple[perm.Perm, ...]
    support_masks: Tuple[int, ...]

    @property
    def rank(self) -> int:
        return self.cartan_type.rank

    @property
    def count(self) -> int:
        return len(self.coeffs)

    def is_positive(self, i: int) -> bool:
        return i < self.positive_count

    def neg(self, i: int) -> int:
        n = self.positive_count
        return i + n if i < n else i - n

    def height(self, i: int) -> int:
        return sum(self.coeffs[i])

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


def _reflect_coeffs(c: Tuple[int, ...], j: int, column) -> Tuple[int, ...]:
    """s_j(c) = c - <c, alpha_j^vee> e_j on simple-root coefficients.

    `column` is column j of the Cartan matrix, the pairings
    <alpha_t, alpha_j^vee>.
    """
    d = sum(map(mul, c, column))
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


def build_root_system(cartan_type: CartanType) -> RootSystem:
    """Construct the root system of the given type from its positive roots."""
    simples = _simple_roots(cartan_type)
    n = cartan_type.rank
    # Simple roots as integers over a common denominator den; int_gram is
    # den^2 times the Gram matrix.
    den, scaled = _over_common_denominator(simples)
    int_gram = [[sum(map(mul, a, b)) for b in scaled] for a in scaled]
    cartan = _cartan_matrix(cartan_type, int_gram)
    columns = list(zip(*cartan))

    # Closure of the simple roots under s_j, which sends alpha_j to
    # -alpha_j and permutes the other positive roots; images[c] keeps the
    # s_j(c).  A set that outgrows the known count stops the loop.
    expected = _CLASSICAL_COUNTS[cartan_type.family](n)
    if expected > MAX_ROOTS:
        raise InputError(f"{cartan_type} has {expected} roots; the limit is {MAX_ROOTS}")
    units = [tuple(1 if t == i else 0 for t in range(n)) for i in range(n)]
    images: Dict[Tuple[int, ...], List[Tuple[int, ...]]] = {}
    found = set(units)
    frontier = list(units)
    while frontier and 2 * len(found) <= expected:
        c = frontier.pop()
        images[c] = row = [_reflect_coeffs(c, j, col) for j, col in enumerate(columns)]
        for j, w in enumerate(row):
            if w in found or c == units[j]:
                continue
            if min(w) < 0:
                raise InconsistencyError(
                    f"{cartan_type}: s_{j + 1} sends the positive root {c} to {w}"
                )
            found.add(w)
            frontier.append(w)

    if 2 * len(found) != expected:
        raise InconsistencyError(
            f"{cartan_type}: generated {2 * len(found)} roots, expected {expected}"
        )

    # Positive roots sorted by height, then by ambient coordinates over den;
    # scaling by a positive integer keeps that order.
    ambient = list(zip(*scaled))
    positives = [
        c for *_, c in sorted(
            (sum(c), tuple(sum(map(mul, c, a)) for a in ambient), c) for c in found
        )
    ]
    pc = len(positives)
    coeffs = positives + [tuple(-t for t in c) for c in positives]
    coeff_index = {c: i for i, c in enumerate(coeffs)}

    # s_j(-c) = -s_j(c).
    reflections = []
    for j in range(n):
        img = [coeff_index[images[c][j]] for c in positives]
        reflections.append(perm.of(img + [k - pc if k >= pc else k + pc for k in img]))

    # Each positive triple a_i + a_j = a_k, i < j, gives six sums, and every
    # root sum is one of them.  A sum of positive roots has coefficients
    # below `base`, so packing coefficients in base `base` turns the sum of
    # two roots into the sum of their codes.
    base = 2 * max(map(max, positives)) + 1
    weights = [base**t for t in range(n)]
    code = [sum(map(mul, c, weights)) for c in positives]
    index_of = {v: i for i, v in enumerate(code)}
    sum_table: Dict[Tuple[int, int], int] = {}
    positive_sums: List[List[Tuple[int, int]]] = [[] for _ in range(pc)]
    for i in range(pc):
        ci, ni = code[i], i + pc
        for j in range(i + 1, pc):
            k = index_of.get(ci + code[j])
            if k is None:
                continue
            nj, nk = j + pc, k + pc
            sum_table[i, j] = sum_table[j, i] = k
            sum_table[k, nj] = sum_table[nj, k] = i
            sum_table[k, ni] = sum_table[ni, k] = j
            sum_table[ni, nj] = sum_table[nj, ni] = nk
            sum_table[nk, i] = sum_table[i, nk] = nj
            sum_table[nk, j] = sum_table[j, nk] = ni
            positive_sums[i].append((j, k))
            positive_sums[j].append((i, k))

    # Pairing rows Gram * c, as integers over den^2.
    rows = [tuple(sum(map(mul, g, c)) for g in int_gram) for c in positives]
    masks = [sum(1 << j for j, t in enumerate(c) if t) for c in positives]

    # Class tables key an element of W by its images of root indices
    # 0, ..., n - 1 (`weyl.enumerate_weyl_group`), so those must be the
    # simple roots; height 1 sorts them first.
    simple_indices = tuple(coeff_index[u] for u in units)
    if sorted(simple_indices) != list(range(n)):
        raise InconsistencyError(
            f"{cartan_type}: the simple roots have indices {simple_indices}, "
            f"not 0 to {n - 1}"
        )

    return RootSystem(
        cartan_type=cartan_type,
        coeffs=tuple(coeffs),
        coeff_index=coeff_index,
        positive_count=pc,
        simple_indices=simple_indices,
        sum_table=sum_table,
        positive_sums=tuple(map(tuple, positive_sums)),
        cartan=cartan,
        int_pairing_rows=tuple(rows + [tuple(-v for v in r) for r in rows]),
        reflections=tuple(reflections),
        support_masks=tuple(masks + masks),
    )


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
    cartan = rs.cartan

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
