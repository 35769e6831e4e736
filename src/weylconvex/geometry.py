"""Rotation eigenspaces, regular points and good-position testing.

Everything here lives in simple-root coordinates with the exact Gram
matrix.  The guiding principle: floats may steer a search, but every
Boolean that feeds a theorem check is decided exactly.

Three layers of exactness:

* Orthogonality of a (rational) root to a rotation eigenspace V_x^theta is
  decided over Q, for every angle: a root is orthogonal to V_x^theta iff it
  is orthogonal to the rational kernel of Phi_d(M), the d-th cyclotomic
  polynomial evaluated at the integer matrix of x, because the Galois group
  permutes the conjugate eigenspaces while fixing the root.
* Eigenspace bases and cone feasibility are exact over Q or Q(sqrt(D))
  whenever 2cos(theta) lies there (rotation orders 1-6, 8, 10, 12,
  which covers every desk-scale case exercised by the test battery).
* Other rotation orders fall back to floats with a safety margin; the
  resulting certificate is tagged inexact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import cos, gcd, pi
from operator import mul
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .errors import InconsistencyError, InputError
from .linalg import (
    cyclotomic,
    cyclotomic_multiplicities,
    charpoly_int,
    kernel_basis,
    mat_inv,
    poly_eval_matrix,
)
from .quadfield import QuadExt, lift, sign_of, two_cos_exact
from .weyl import TwistedElement

TOL = 1e-9
FLOAT_MARGIN = 1e-6
REGULAR_POINT_RETRIES = 64


# ---------------------------------------------------------------------------
# Restricted matrices, orders and exact angle bookkeeping.


def _labels_or_all(x: TwistedElement, labels) -> Tuple[int, ...]:
    return tuple(range(x.rs.rank)) if labels is None else tuple(labels)


def restricted_order(x: TwistedElement, labels=None) -> int:
    """Order of x acting on the parabolic subsystem spanned by `labels`."""
    labels = _labels_or_all(x, labels)
    sub = x.rs.parabolic_closure(labels)
    perm = x.perm
    out = 1
    seen = set()
    for i in sub:
        if i in seen:
            continue
        ln, j = 0, i
        while j not in seen:
            seen.add(j)
            j = perm[j]
            ln += 1
        out = out * ln // gcd(out, ln)
    return max(out, 1)


def _cyclo_mults(x: TwistedElement, labels=None) -> Dict[int, int]:
    labels = _labels_or_all(x, labels)
    cache = getattr(x, "_cyclo_cache", None)
    if cache is None:
        cache = {}
        object.__setattr__(x, "_cyclo_cache", cache)
    if labels not in cache:
        M = x.matrix(labels)
        order = restricted_order(x, labels)
        cache[labels] = cyclotomic_multiplicities(charpoly_int(M), order)
    return cache[labels]


def angle_list(x: TwistedElement, labels=None) -> List[Tuple[Fraction, int]]:
    """All rotation angles theta/pi in (0, 1] with their real dimensions."""
    mults = _cyclo_mults(x, labels)
    out = []
    for d, m in sorted(mults.items()):
        if d == 1:
            continue
        for a in range(1, d // 2 + 1):
            if gcd(a, d) != 1:
                continue
            dim = m if d <= 2 else 2 * m
            out.append((Fraction(2 * a, d), dim))
    out.sort()
    return out


def fixed_space_dim(x: TwistedElement, labels=None) -> int:
    return _cyclo_mults(x, labels).get(1, 0)


def _rotation_denominator(angle: Fraction) -> int:
    return Fraction(angle, 2).denominator


def rational_angle_block(x: TwistedElement, angle: Fraction, labels=None) -> List[List[Fraction]]:
    """Rational basis of the sum of all V_x^theta' conjugate to V_x^theta.

    This is the kernel of Phi_d(M) and is exactly what root-orthogonality
    questions about V_x^theta reduce to.
    """
    labels = _labels_or_all(x, labels)
    d = _rotation_denominator(angle)
    cache = getattr(x, "_block_cache", None)
    if cache is None:
        cache = {}
        object.__setattr__(x, "_block_cache", cache)
    key = (d, labels)
    if key not in cache:
        P = poly_eval_matrix(cyclotomic(d), x.matrix(labels), 1, 0)
        cache[key] = kernel_basis(
            [[Fraction(v) for v in row] for row in P], Fraction(1), Fraction(0)
        )
    return cache[key]


def _pad_to_full(vec: Sequence, labels: Tuple[int, ...], rank: int) -> List:
    if len(labels) == rank:
        return list(vec)
    out = [Fraction(0)] * rank
    for t, lab in enumerate(labels):
        out[lab] = vec[t]
    return out


def _cleared(vec: Sequence) -> List[int]:
    """The rational vector times the lcm of its denominators: same zero set."""
    den = 1
    for v in vec:
        den = den * v.denominator // gcd(den, v.denominator)
    return [v.numerator * (den // v.denominator) for v in vec]


def _perp_roots(rs, vectors: Sequence[Sequence], root_subset) -> FrozenSet[int]:
    """{gamma in subset : (v, gamma) = 0 for every rational v}, on integers."""
    cleared = [_cleared(v) for v in vectors]
    rows = rs.int_pairing_rows
    return frozenset(
        g
        for g in root_subset
        if all(not sum(map(mul, v, rows[g])) for v in cleared)
    )


def angle_perp_roots(
    x: TwistedElement, angle: Fraction, root_subset=None, labels=None
) -> FrozenSet[int]:
    """{gamma in subset : V_x^theta <= H_gamma}, decided exactly over Q."""
    rs = x.rs
    labels = _labels_or_all(x, labels)
    block = rational_angle_block(x, angle, labels)
    padded = [_pad_to_full(b, labels, rs.rank) for b in block]
    if root_subset is None:
        root_subset = range(rs.count)
    return _perp_roots(rs, padded, root_subset)


def moved_space_perp_roots(x: TwistedElement, root_subset=None) -> FrozenSet[int]:
    """Roots orthogonal to the whole moved space (V^x)-perp."""
    rs = x.rs
    if root_subset is None:
        root_subset = range(rs.count)
    out = frozenset(root_subset)
    for angle, _ in angle_list(x):
        out = out & angle_perp_roots(x, angle, out)
        if not out:
            break
    return out


# ---------------------------------------------------------------------------
# Exact and float eigenspace bases.


def exact_angle_basis(x: TwistedElement, angle: Fraction, labels=None) -> Optional[List[List]]:
    """Basis of V_x^theta over Q or Q(sqrt(D)), or None if out of reach."""
    c2 = two_cos_exact(angle)
    if c2 is None:
        return None
    labels = _labels_or_all(x, labels)
    M = [[Fraction(v) for v in row] for row in x.matrix(labels)]
    Minv = mat_inv(M, Fraction(1), Fraction(0))
    n = len(M)
    if isinstance(c2, QuadExt):
        D = c2.D
        one, zero = QuadExt(1, 0, D), QuadExt(0, 0, D)
        rows = [
            [lift(M[i][j] + Minv[i][j], D) - (c2 if i == j else zero) for j in range(n)]
            for i in range(n)
        ]
    else:
        one, zero = Fraction(1), Fraction(0)
        rows = [
            [M[i][j] + Minv[i][j] - (c2 if i == j else zero) for j in range(n)]
            for i in range(n)
        ]
    return kernel_basis(rows, one, zero)


def float_angle_basis(x: TwistedElement, angle: Fraction, labels=None) -> List[List[float]]:
    """Float basis of V_x^theta for rotation orders outside the exact fields.

    Start from the rational cyclotomic block and annihilate the Galois
    conjugate angles with float projectors; the dimension is known exactly
    beforehand and is enforced.
    """
    labels = _labels_or_all(x, labels)
    d = _rotation_denominator(angle)
    block = rational_angle_block(x, angle, labels)
    if not block:
        return []
    mults = _cyclo_mults(x, labels)
    dim = mults[d] * (1 if d <= 2 else 2)
    M = x.matrix(labels)
    Minv = mat_inv([[Fraction(v) for v in row] for row in M], Fraction(1), Fraction(0))
    n = len(M)
    C = [[float(M[i][j] + Minv[i][j]) for j in range(n)] for i in range(n)]
    vecs = [[float(v) for v in b] for b in block]
    for a in range(1, d // 2 + 1):
        if gcd(a, d) != 1 or Fraction(2 * a, d) == angle:
            continue
        shift = 2.0 * cos(2.0 * pi * a / d)
        vecs = [
            [
                sum(C[i][j] * v[j] for j in range(n)) - shift * v[i]
                for i in range(n)
            ]
            for v in vecs
        ]
    picked: List[List[float]] = []
    for v in vecs:
        w = list(v)
        for b in picked:
            c = sum(a * bb for a, bb in zip(w, b))
            w = [a - c * bb for a, bb in zip(w, b)]
        norm = sum(a * a for a in w) ** 0.5
        if norm > TOL:
            picked.append([a / norm for a in w])
    if len(picked) != dim:
        raise InconsistencyError(
            f"float eigenspace dimension {len(picked)} != exact dimension {dim}"
        )
    return picked


@dataclass(frozen=True)
class AngleComponent:
    """One rotation angle theta = pi * angle with a float basis of V_x^theta."""

    angle: Fraction
    basis: Tuple[Tuple[float, ...], ...]
    dim: int


def eigen_angles(x: TwistedElement) -> List[AngleComponent]:
    """All components with theta in (0, pi], ascending by angle.

    Basis vectors are floats; the dimension of every component is
    cross-checked against the exact cyclotomic multiplicities.
    """
    out = []
    for angle, dim in angle_list(x):
        exact = exact_angle_basis(x, angle)
        if exact is not None:
            basis = [tuple(float(v) for v in b) for b in exact]
        else:
            basis = [tuple(b) for b in float_angle_basis(x, angle)]
        if len(basis) != dim:
            raise InconsistencyError(
                f"eigenspace dim mismatch at angle {angle}: {len(basis)} != {dim}"
            )
        out.append(AngleComponent(angle=angle, basis=tuple(basis), dim=dim))
    return out


# ---------------------------------------------------------------------------
# Exact cone feasibility (Fourier-Motzkin with witness extraction).


def _sdot(row, vec, zero):
    acc = zero
    for a, b in zip(row, vec):
        acc = acc + a * b
    return acc


def _unique_rows(constraints):
    out = []
    index = {}
    for c, strict in constraints:
        key = tuple(repr(v) for v in c)
        if key in index:
            i = index[key]
            out[i] = (out[i][0], out[i][1] or strict)
        else:
            index[key] = len(out)
            out.append((list(c), strict))
    return out


def _feasible_homogeneous(constraints, nvars: int, zero, one) -> Optional[List]:
    """Witness for {c : every (row, strict) satisfied, homogeneous}, or None."""
    if nvars == 0:
        for _, strict in constraints:
            if strict:
                return None
        return []
    k = nvars - 1
    pos, neg, rest = [], [], []
    for row, strict in constraints:
        sg = sign_of(row[k])
        if sg > 0:
            pos.append((row, strict))
        elif sg < 0:
            neg.append((row, strict))
        else:
            rest.append((row[:k], strict))
    for prow, ps in pos:
        for nrow, ns in neg:
            comb = [
                (zero - nrow[k]) * prow[t] + prow[k] * nrow[t] for t in range(k)
            ]
            rest.append((comb, ps or ns))
    rest = _unique_rows(rest)
    sub = _feasible_homogeneous(rest, k, zero, one)
    if sub is None:
        return None
    lowers, uppers = [], []
    for row, strict in pos:
        val = (zero - _sdot(row[:k], sub, zero)) / row[k]
        lowers.append((val, strict))
    for row, strict in neg:
        val = (zero - _sdot(row[:k], sub, zero)) / row[k]
        uppers.append((val, strict))
    if not lowers and not uppers:
        value = zero
    elif not uppers:
        value = _max_bound(lowers) + one
    elif not lowers:
        value = _min_bound(uppers) - one
    else:
        lo = _max_bound(lowers)
        hi = _min_bound(uppers)
        dsg = sign_of(hi - lo)
        if dsg > 0:
            value = (lo + hi) / 2
        else:
            value = lo
    return sub + [value]


def _max_bound(bounds):
    best = bounds[0][0]
    for v, _ in bounds[1:]:
        if sign_of(v - best) > 0:
            best = v
    return best


def _min_bound(bounds):
    best = bounds[0][0]
    for v, _ in bounds[1:]:
        if sign_of(v - best) < 0:
            best = v
    return best


def cone_point_with_sign(nonneg_rows, target_row, zero, one) -> Optional[Tuple[List, int]]:
    """A point of {A c >= 0} with target.c nonzero, trying + then -.

    Returns (coefficients, sign) or None when the cone lies inside the
    target hyperplane.
    """
    for sgn in (1, -1):
        grow = list(target_row) if sgn > 0 else [zero - v for v in target_row]
        cons = [(list(r), False) for r in nonneg_rows] + [(grow, True)]
        w = _feasible_homogeneous(cons, len(target_row), zero, one)
        if w is not None:
            return w, sgn
    return None


# ---------------------------------------------------------------------------
# Regular points.


def regular_point(
    basis: Sequence[Sequence],
    rs,
    root_subset=None,
    rng: Optional[random.Random] = None,
):
    """A point of span(basis) off every root hyperplane not containing it.

    The basis vectors are rational (Fraction or int entries).  Returns
    (point, perp_set) with perp_set = {gamma : span <= H_gamma}; None when
    the basis is empty.  The point is found by random small-integer
    combinations with exact rejection.
    """
    if not basis:
        return None
    rng = rng or random.Random(7)
    if root_subset is None:
        root_subset = range(rs.count)
    root_subset = list(root_subset)
    perp = _perp_roots(rs, basis, root_subset)
    off = [g for g in root_subset if g not in perp and rs.is_positive(g)]
    n = len(basis[0])
    for _ in range(REGULAR_POINT_RETRIES):
        coefs = [rng.randint(-9, 9) for _ in basis]
        if all(c == 0 for c in coefs):
            continue
        point = [
            _sdot([b[t] for b in basis], coefs, 0 * basis[0][0])
            for t in range(n)
        ]
        if all(sign_of(rs.pair_with_root(point, g)) != 0 for g in off):
            return point, perp
    raise InconsistencyError(
        "no regular point found in 64 random draws; the failure set has "
        "measure zero, so this indicates a tolerance or basis bug"
    )


# ---------------------------------------------------------------------------
# Admissible sequences and good position.


def is_admissible(x: TwistedElement, sequence: Sequence[Fraction]) -> bool:
    """Whether the partial angle sum contains a regular point of the moved space.

    The empty sequence is admissible exactly when x acts trivially on the
    span of the roots.
    """
    angles = {a for a, _ in angle_list(x)}
    for a in sequence:
        if Fraction(a) not in angles:
            raise InputError(f"{a} is not a rotation angle of this element")
    psi0 = moved_space_perp_roots(x)
    psi = frozenset(range(x.rs.count))
    for a in sequence:
        psi = psi & angle_perp_roots(x, Fraction(a), psi)
    return psi == psi0


def admissible_enumerations(x: TwistedElement) -> List[Tuple[Fraction, ...]]:
    """All admissible orderings of the full nonzero angle set of x."""
    from itertools import permutations

    angles = [a for a, _ in angle_list(x)]
    out = []
    for perm in sorted(set(permutations(angles))):
        if is_admissible(x, perm):
            out.append(perm)
    return out


@dataclass(frozen=True)
class GoodPositionCertificate:
    """Witness data for a good-position verdict.

    stage_points[i] is a regular point of V_x^{theta_i} dominant for the
    stage-i parabolic; regular_points[i] is the cumulative point of
    V^{theta_1} + ... + V^{theta_i} dominant for the whole system.
    parabolic_chain runs Phi_0 through Phi_r as root-index sets.
    """

    sequence: Tuple[Fraction, ...]
    stage_points: Tuple[Tuple, ...]
    regular_points: Tuple[Tuple, ...]
    parabolic_chain: Tuple[FrozenSet[int], ...]
    h_values: Tuple[int, ...]
    exact: bool


def _common_disc(angles) -> Optional[int]:
    """The single sqrt(D) needed by a sequence, 1 if rational, None if mixed
    or out of the quadratic range."""
    from .quadfield import field_disc

    D = 1
    for a in angles:
        d = field_disc(a)
        if d is None:
            return None
        if d != 1:
            if D not in (1, d):
                return None
            D = d
    return D


def is_good_position(
    x: TwistedElement,
    sequence: Sequence[Fraction],
    labels=None,
    rng: Optional[random.Random] = None,
) -> Optional[GoodPositionCertificate]:
    """Recursive good-position test for x with respect to the sequence.

    Stage i needs a regular point of V_x^{theta_i}, within the current
    parabolic subsystem, lying in the current closed dominant chamber.
    Existence is linear feasibility: the cone K meets the chamber off every
    hyperplane H_gamma iff it is not contained in any single one.
    """
    rs = x.rs
    sequence = tuple(Fraction(a) for a in sequence)
    top_level = labels is None
    if top_level and not is_admissible(x, sequence):
        raise InputError("sequence is not admissible for this element")
    rng = rng or random.Random(11)

    D = _common_disc(sequence)
    cur_labels = _labels_or_all(x, labels)
    cur_roots = rs.parabolic_closure(cur_labels)
    chain = [cur_roots]
    h_values = [sum(1 for g in cur_roots if rs.is_positive(g))]
    stage_points: List[Tuple] = []

    for angle in sequence:
        psi = angle_perp_roots(x, angle, cur_roots)
        off_pos = [g for g in cur_roots if rs.is_positive(g) and g not in psi]
        if D is not None:
            basis = exact_angle_basis(x, angle)
            zero: object = Fraction(0) if D == 1 else QuadExt(0, 0, D)
            one: object = Fraction(1) if D == 1 else QuadExt(1, 0, D)
        else:
            basis = [list(b) for b in float_angle_basis(x, angle)]
            zero, one = 0.0, 1.0
        point = _stage_point(rs, basis, cur_labels, off_pos, zero, one, rng)
        if point is None:
            return None
        stage_points.append(tuple(point))
        next_labels = tuple(
            lab for lab in cur_labels if rs.simple_indices[lab] in psi
        )
        if rs.parabolic_closure(next_labels) != psi:
            raise InconsistencyError(
                "stage perp set is not the standard parabolic of its simples"
            )
        cur_labels = next_labels
        cur_roots = psi
        chain.append(cur_roots)
        h_values.append(sum(1 for g in cur_roots if rs.is_positive(g)))

    top_labels = _labels_or_all(x, labels)
    regular = _cumulative_points(rs, stage_points, chain, D, rng, top_labels)
    return GoodPositionCertificate(
        sequence=sequence,
        stage_points=tuple(stage_points),
        regular_points=tuple(regular),
        parabolic_chain=tuple(chain),
        h_values=tuple(h_values),
        exact=D is not None,
    )


def _stage_point(rs, basis, cur_labels, off_pos, zero, one, rng):
    """A dominant regular point of span(basis) in the current chamber."""
    if not basis:
        return None
    k = len(basis)
    if not off_pos:
        return [zero] * rs.rank  # every current root hyperplane contains K
    chamber_rows = []
    for lab in cur_labels:
        g = rs.simple_indices[lab]
        chamber_rows.append([rs.pair_with_root(b, g) for b in basis])
    witnesses = []
    for g in off_pos:
        target = [rs.pair_with_root(b, g) for b in basis]
        found = cone_point_with_sign(chamber_rows, target, zero, one)
        if found is None:
            return None
        witnesses.append(found[0])
    exact = not isinstance(zero, float)
    for _ in range(REGULAR_POINT_RETRIES):
        lam = [rng.randint(1, 9) for _ in witnesses]
        coefs = [
            _sdot([w[t] for w in witnesses], lam, zero) for t in range(k)
        ]
        point = [
            _sdot([b[t] for b in basis], coefs, zero) for t in range(rs.rank)
        ]
        ok = True
        for lab in cur_labels:
            g = rs.simple_indices[lab]
            v = rs.pair_with_root(point, g)
            if (sign_of(v) < 0) if exact else (v < -FLOAT_MARGIN):
                ok = False
                break
        if ok:
            for g in off_pos:
                v = rs.pair_with_root(point, g)
                if (sign_of(v) == 0) if exact else (abs(v) < FLOAT_MARGIN):
                    ok = False
                    break
        if ok:
            return point
    raise InconsistencyError("stage witness combination kept hitting hyperplanes")


def _cumulative_points(rs, stage_points, chain, D, rng, top_labels):
    """Rebuild dominant regular points of the partial sums from stage points."""
    out = []
    if not stage_points:
        return out
    exact = D is not None
    for i in range(len(stage_points)):
        eps = Fraction(1, 2) if exact else 0.5
        for _ in range(REGULAR_POINT_RETRIES):
            point = list(stage_points[0])
            scale = eps
            for j in range(1, i + 1):
                point = [
                    p + scale * q for p, q in zip(point, stage_points[j])
                ]
                scale = scale * eps
            if _cumulative_ok(rs, point, chain[0], chain[i + 1], exact, top_labels):
                out.append(tuple(point))
                break
            eps = eps / 2
        else:
            raise InconsistencyError("cumulative regular point rebuild failed")
    return out


def _cumulative_ok(rs, point, ambient_roots, perp_roots, exact, top_labels):
    for lab in top_labels:
        g = rs.simple_indices[lab]
        v = rs.pair_with_root(point, g)
        if (sign_of(v) < 0) if exact else (v < -FLOAT_MARGIN):
            return False
    for g in ambient_roots:
        if not rs.is_positive(g):
            continue
        v = rs.pair_with_root(point, g)
        zero_now = (sign_of(v) == 0) if exact else (abs(v) < FLOAT_MARGIN)
        if zero_now != (g in perp_roots):
            return False
    return True


def good_position_length(cert: GoodPositionCertificate) -> int:
    """Length predicted by the angle/parabolic data; always an integer."""
    total = Fraction(0)
    for i, angle in enumerate(cert.sequence):
        total += Fraction(angle) * (cert.h_values[i] - cert.h_values[i + 1])
    if total.denominator != 1:
        raise InconsistencyError(f"length formula gave non-integer {total}")
    return int(total)


def separation_witness(x: TwistedElement, e: Sequence, gamma: int) -> int:
    """First i >= 1 with (x^-i e, gamma) < 0; contracts to equal n_x(gamma)."""
    rs = x.rs
    if sign_of(rs.pair_with_root(e, gamma)) <= 0:
        raise InputError("witness point must pair strictly positively with gamma")
    Minv = x.inverse().matrix()
    n = rs.rank
    v = list(e)
    for i in range(1, x.order() + 1):
        v = [
            _sdot(Minv[t], v, 0 * v[0]) for t in range(n)
        ]
        if sign_of(rs.pair_with_root(v, gamma)) < 0:
            return i
    raise InconsistencyError(
        "no separation within the order of x; inconsistent with the level theory"
    )
