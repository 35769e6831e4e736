"""Finite crystallographic root systems with exact rational coordinates.

A root system is generated by reflection closure from the simple roots of
the requested Cartan type, laid out in the standard orthonormal-basis
conventions (type A lives in Z^(n+1), F4 and the E series use half-integer
coordinates).  All coordinates are `fractions.Fraction`; no floating point
enters this module.

Roots are indexed deterministically: positive roots first, sorted by
(height, lexicographic coordinates), and the negative of roots[i] is
roots[positive_count + i].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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


def _vscale(u: Vector, c: Fraction) -> Vector:
    return tuple(c * a for a in u)


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
    """The full root datum: exact roots, positivity, sums and the pairing."""

    cartan_type: CartanType
    ambient_dim: int
    roots: Tuple[Vector, ...]
    coeffs: Tuple[Tuple[int, ...], ...]
    positive_count: int
    simple_indices: Tuple[int, ...]
    sum_table: Dict[Tuple[int, int], int]
    index_of: Dict[Vector, int]

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

    def support(self, i: int) -> FrozenSet[int]:
        return frozenset(j for j, c in enumerate(self.coeffs[i]) if c != 0)

    def pair_with_root(self, v: Sequence, i: int):
        """Pairing of a vector in simple-root coordinates with roots[i]."""
        gram = self.gram()
        c = self.coeffs[i]
        out = 0
        for a, va in enumerate(v):
            if va == 0:
                continue
            s = sum(gram[a][b] * c[b] for b in range(self.rank) if c[b] != 0)
            out = out + va * s
        return out

    def gram(self) -> Tuple[Tuple[Fraction, ...], ...]:
        """Gram matrix of the simple roots."""
        if not hasattr(self, "_gram"):
            simples = [self.roots[i] for i in self.simple_indices]
            g = tuple(
                tuple(dot(a, b) for b in simples) for a in simples
            )
            object.__setattr__(self, "_gram", g)
        return self._gram

    def cartan_entry(self, i: int, j: int) -> int:
        """<alpha_i, alpha_j^vee> for simple labels i, j (0-based)."""
        ai = self.roots[self.simple_indices[i]]
        aj = self.roots[self.simple_indices[j]]
        val = 2 * dot(ai, aj) / dot(aj, aj)
        if val.denominator != 1:
            raise InconsistencyError(f"non-integral Cartan entry at ({i}, {j})")
        return int(val)

    def simple_reflection_perm(self, label: int) -> perm.Perm:
        """Permutation of root indices induced by the simple reflection s_label."""
        cache = getattr(self, "_refl_cache", None)
        if cache is None:
            cache = {}
            object.__setattr__(self, "_refl_cache", cache)
        if label not in cache:
            j = self.simple_indices[label]
            alpha = self.roots[j]
            norm = dot(alpha, alpha)
            images = []
            for v in self.roots:
                c = 2 * dot(v, alpha) / norm
                images.append(self.index_of[_vadd(v, _vscale(alpha, -c))])
            cache[label] = perm.of(images)
        return cache[label]

    def parabolic_closure(self, labels) -> FrozenSet[int]:
        """All root indices lying in the integer span of the given simples."""
        labels = frozenset(labels)
        return frozenset(
            i for i in range(self.count) if self.support(i) <= labels
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


def build_root_system(cartan_type: CartanType) -> RootSystem:
    """Construct the root system of the given type by reflection closure."""
    simples = _simple_roots(cartan_type)
    n = cartan_type.rank
    dim = len(simples[0])
    norms = [dot(a, a) for a in simples]

    # Closure under simple reflections, tracking simple-root coefficients.
    coeff_of: Dict[Vector, Tuple[int, ...]] = {}
    frontier: List[Vector] = []
    for i, a in enumerate(simples):
        coeff_of[a] = tuple(1 if j == i else 0 for j in range(n))
        frontier.append(a)
    while frontier:
        v = frontier.pop()
        cv = coeff_of[v]
        for j, a in enumerate(simples):
            c = 2 * dot(v, a) / norms[j]
            if c.denominator != 1:
                raise InconsistencyError(
                    f"{cartan_type}: non-crystallographic reflection"
                )
            w = _vadd(v, _vscale(a, -c))
            if w not in coeff_of:
                cw = tuple(
                    cv[t] - (int(c) if t == j else 0) for t in range(n)
                )
                coeff_of[w] = cw
                frontier.append(w)

    expected = _CLASSICAL_COUNTS[cartan_type.family](n)
    if len(coeff_of) != expected:
        raise InconsistencyError(
            f"{cartan_type}: generated {len(coeff_of)} roots, expected {expected}"
        )

    positives = []
    for v, c in coeff_of.items():
        pos = all(t >= 0 for t in c)
        neg = all(t <= 0 for t in c)
        if not (pos or neg):
            raise InconsistencyError(
                f"{cartan_type}: root with mixed-sign coefficients {c}"
            )
        if pos:
            positives.append((sum(c), v, c))
    positives.sort(key=lambda rec: (rec[0], rec[1]))

    roots: List[Vector] = [v for _, v, _ in positives]
    coeffs: List[Tuple[int, ...]] = [c for _, _, c in positives]
    for _, v, c in positives:
        roots.append(_vneg(v))
        coeffs.append(tuple(-t for t in c))

    index_of = {v: i for i, v in enumerate(roots)}
    simple_indices = tuple(index_of[a] for a in simples)

    sum_table: Dict[Tuple[int, int], int] = {}
    for i, u in enumerate(roots):
        for j in range(i, len(roots)):
            s = _vadd(u, roots[j])
            k = index_of.get(s)
            if k is not None:
                sum_table[(i, j)] = k
                sum_table[(j, i)] = k

    return RootSystem(
        cartan_type=cartan_type,
        ambient_dim=dim,
        roots=tuple(roots),
        coeffs=tuple(coeffs),
        positive_count=len(positives),
        simple_indices=simple_indices,
        sum_table=sum_table,
        index_of=index_of,
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

    coeff_index = {rs.coeffs[i]: i for i in range(rs.count)}
    autos = []
    for simple_perm in found:
        images = []
        for c in rs.coeffs:
            nc = [0] * n
            for i, t in enumerate(c):
                nc[simple_perm[i]] = t
            images.append(coeff_index[tuple(nc)])
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
