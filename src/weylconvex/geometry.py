"""Rotation eigenspaces, regular points and good-position testing.

Everything here lives in simple-root coordinates with the exact Gram
matrix, and every Boolean that feeds a theorem check is decided exactly.

* The rotation spectrum, the multiplicity m_d of each cyclotomic factor
  Phi_d of the characteristic polynomial, is read off the orbits of the
  simple roots (`weyl.rotation_spectrum`): tr(x^m) on span(alpha_l : l in
  labels) is sum_l (coefficient of alpha_l in x^m(alpha_l)), dim
  ker(x^e - 1) = (e/h) sum_(k < h/e) tr(x^(ek)) for h the order of x on
  that span, and dim ker(x^e - 1) = sum_(d | e) phi(d) m_d.
* Which roots are orthogonal to a rotation eigenspace V_x^theta is read
  off the root permutation: the kernels of Phi_e(x) are pairwise
  orthogonal, so a root is orthogonal to ker Phi_d(x) exactly when the
  product of the other cyclotomic factors of the characteristic
  polynomial, evaluated at x, kills it.  That is an integer combination of
  the roots on its orbit.
* Eigenspace bases and cone feasibility are exact over the real cyclotomic
  field K_L = Q(c_L), c_L = 2cos 2pi/L, of the angle sequence (see
  `quadfield`), for every rotation order.  An eigenspace basis is read off
  root orbits through the projection sum_k 2cos(k theta) x^k, reduced
  fraction-free over Z[c_L] to integer arrays over one denominator, and
  stays in that form: regular points, the dominance walk, Fourier-Motzkin
  and every sign test run on integer rows (Schrijver, Theory of Linear and
  Integer Programming, 1986).  Only a certificate's stage points become
  K_L values.
* A stage eliminates its chamber rows once, and the point that
  elimination picks decides the stage.  The point lies in the relative
  interior of the chamber cone K (Rockafellar, Convex Analysis, 1970,
  Theorem 6.8), and every target root pairs >= 0 with all of K, so a
  target pairs > 0 somewhere on K exactly when it pairs > 0 with that
  point.  No target needs a cone query of its own (see `_stage_point`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import permutations
from math import gcd, lcm
from operator import mul, sub
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .errors import InconsistencyError, InputError
from .linalg import cyclotomic, poly_mul
from .quadfield import (
    Array,
    Coeffs,
    CosField,
    array_add,
    array_combination,
    array_dot,
    field_for,
    two_cos_in,
)
from .weyl import TwistedElement, fixed_roots, rotation_spectrum

REGULAR_POINT_RETRIES = 64


# ---------------------------------------------------------------------------
# Exact angle bookkeeping.


def angle_list(x: TwistedElement, labels=None) -> List[Tuple[Fraction, int]]:
    """All rotation angles theta/pi in (0, 1] with their real dimensions."""
    return _angles(rotation_spectrum(x, labels))


def _angles(mults: Dict[int, int]) -> List[Tuple[Fraction, int]]:
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


def _rotation_denominator(angle: Fraction) -> int:
    return Fraction(angle, 2).denominator


def _perp_orders(
    x: TwistedElement, orders, root_subset, mults: Dict[int, int]
) -> FrozenSet[int]:
    """{gamma in subset : gamma is orthogonal to ker Phi_d(x) for all d in orders}.

    x is an isometry of finite order, so V is the orthogonal sum of the
    kernels of Phi_e(x) over the cyclotomic factors Phi_e of its
    characteristic polynomial.  A root is orthogonal to the kernels with e
    in `orders` exactly when P(x) kills it, P the product of the other
    Phi_e; P(x)gamma is an integer combination of the roots on the orbit
    of gamma, read off the root permutation.  P(x) commutes with x, so
    P(x)gamma = 0 exactly when P(x)(x gamma) = 0: the answer is decided once
    per x-orbit.  `mults` are the cyclotomic multiplicities of x on the
    whole span.
    """
    poly = [1]
    for e in mults:
        if e not in orders:
            poly = poly_mul(poly, cyclotomic(e))
    perm, coeffs = x.perm, x.rs.coeffs

    def killed(g) -> bool:
        acc = (0,) * x.rs.rank
        for c in poly:
            if c:
                acc = [a + c * v for a, v in zip(acc, coeffs[g])]
            g = perm[g]
        return not any(acc)

    verdict: List[Optional[bool]] = [None] * x.rs.count
    for g in root_subset:
        if verdict[g] is None:
            answer = killed(g)
            j = g
            while verdict[j] is None:
                verdict[j] = answer
                j = perm[j]
    return frozenset(g for g in root_subset if verdict[g])


# ---------------------------------------------------------------------------
# Exact eigenspace bases.


@lru_cache(maxsize=None)
def _two_cos_multiples(angle: Fraction, field: CosField) -> Tuple[Coeffs, ...]:
    """2cos(r theta) in Z[c] for r < d, d the rotation order of theta:
    2cos((r + 1) theta) = 2cos theta 2cos(r theta) - 2cos((r - 1) theta)."""
    d = _rotation_denominator(angle)
    t = field.parts(two_cos_in(angle, field))[0]
    out = [(2,) + (0,) * (field.degree - 1), t]
    while len(out) < d:
        out.append(tuple(map(sub, field.mul(t, out[-1]), out[-2])))
    return tuple(out[:d])


def exact_angle_basis(
    x: TwistedElement, angle: Fraction, labels=None, field: Optional[CosField] = None
) -> Tuple[int, List[Array]]:
    """Basis of V_x^theta on span(alpha_l : l in labels), read off root orbits.

    The field defaults to the smallest K_L holding 2cos theta; a sequence
    passes its own field so that all its stage points share one.  With h
    the order of x on the span, P = sum_(k < h) 2cos(k theta) x^k is h
    times the projection onto V_x^theta, 2h times at theta = pi (Serre,
    Linear Representations of Finite Groups, 2.6).  For a root beta with
    an orbit of length n, P beta is zero unless the rotation order d of
    theta divides n, and is then h/n sum_(j < n) 2cos(j theta) x^j beta:
    the orbit's coefficient vectors summed by j mod d, weighted by
    2cos(j theta).  x^2 - 2cos theta x + 1 kills V_x^theta, so an orbit
    through simple roots of `labels` adds no more than P beta and
    P x beta = x P beta (P beta alone at theta = pi).

    Those columns are reduced fraction-free over Z[c] (`_echelon_insert`),
    pivots from the last label down, orbit by orbit until they span
    dim V_x^theta as `rotation_spectrum` gives it (2 m_d, or m_d at
    theta = pi); orbits that run out first raise InconsistencyError.  Each
    row over its pivot entry gives the one basis with 1 at one pivot and 0
    at the others: the kernel basis of the reduced echelon form of
    M + M^-1 - 2cos theta, whose free columns are these pivots.

    The basis is one primitive pair (den, arrays): vector j is
    arrays[j] / den, an integer array over Z[c] (see `quadfield`) on all
    simple-root coordinates, zero off `labels`; den > 0, and no integer
    > 1 divides den and every entry.  The vectors come by pivot.
    """
    field = field or field_for([angle])
    rs = x.rs
    labels = tuple(range(rs.rank)) if labels is None else tuple(labels)
    d = _rotation_denominator(angle)
    dim = rotation_spectrum(x, labels).get(d, 0) * (1 if d <= 2 else 2)
    t = _two_cos_multiples(angle, field)
    # The weights of P beta, per power of c, and of P x beta off theta = pi.
    weights = [tuple(zip(*t))]
    if d > 2:
        weights.append(tuple(zip(*t[-1:], *t[:-1])))
    rows: List[Tuple[int, Array]] = []
    seen: set = set()
    for lab in labels:
        if len(rows) == dim:
            break
        start = rs.simple_indices[lab]
        if start in seen:
            continue
        orbit = x._orbit(start)
        seen.update(orbit)
        if len(orbit) % d == 0:
            sums = [tuple(map(sum, zip(*(rs.coeffs[g] for g in orbit[r::d])))) for r in range(d)]
            for ws in weights:
                column = tuple(tuple(sum(map(mul, w, v)) for v in zip(*sums)) for w in ws)
                _echelon_insert(rows, column, labels[::-1], field)
    if len(rows) != dim:
        raise InconsistencyError(
            f"the orbit columns of angle {angle} span {len(rows)} dimensions, "
            f"not the {dim} of its eigenspace"
        )
    # R / R_c = R b / N with R_c b = N a nonzero int; every N divides den.
    norms = [(R, field.norm_adj(tuple(p[c] for p in R))) for c, R in sorted(rows)]
    den = lcm(*(abs(N) for _, (N, _) in norms))
    basis = [
        tuple(tuple(den // N * u for u in p) for p in field.scale(field.mul_matrix(b), R))
        for R, (N, b) in norms
    ]
    g = gcd(den, *(u for B in basis for p in B for u in p))
    return den // g, [tuple(tuple(u // g for u in p) for p in B) for B in basis]


def _echelon_insert(rows: List[Tuple[int, Array]], v: Array, pivot_order, field: CosField) -> None:
    """Add v to the reduced echelon rows (c, R) unless it lies in their span.

    Row R has R_c != 0, is zero at the other rows' pivots, and c is its
    first nonzero coordinate in `pivot_order`.  v is cleared at each pivot,
    takes the first coordinate q where it is nonzero as its own, and is
    cleared from every row at q.  So the rows stay in reduced echelon form
    in whatever order they come, and their span fixes them up to scalars.
    """
    for c, R in rows:
        if any(p[c] for p in v):
            v = _eliminate(v, R, c, field)
    q = next((c for c in pivot_order if any(p[c] for p in v)), None)
    if q is not None:
        rows[:] = [(c, _eliminate(R, v, q, field) if any(p[q] for p in R) else R) for c, R in rows]
        rows.append((q, v))


def _eliminate(A: Array, B: Array, c: int, field: CosField) -> Array:
    """B_c A - A_c B, made primitive: A cleared at c, fraction-free over Z[c]
    as `linalg.rank` clears on integers."""
    A_c, B_c = (tuple(p[c] for p in P) for P in (A, B))
    return _primitive(array_add(
        field.scale(field.mul_matrix(B_c), A),
        field.scale(field.mul_matrix(tuple(-u for u in A_c)), B),
    ))


# ---------------------------------------------------------------------------
# Exact cone feasibility on integer rows over Z[c], c = c_L = 2cos 2pi/L.
#
# A row is an array of `quadfield`: its Z[c] entries stored coefficient-major.
# Fourier-Motzkin eliminates the last variable w_k of rows r . w >= 0 (or
# > 0) by keeping the rows with r_k = 0 and adding (-n_k) p + p_k n for
# every pair with p_k > 0 > n_k; the combination is strict when either
# half is.  A witness for the rest extends by a value between the largest
# lower bound -(p . w)/p_k and the smallest upper bound -(n . w)/n_k.
# Scaling a row by a positive number changes no bound, and a row that is a
# positive multiple of another changes no max or min bound, so making rows
# primitive and deduping them changes no witness: the witness depends only
# on the set of rows and their strictness.  A bound is a pair (nums, q):
# the element sum(nums[i] c^i) / q, q > 0.


def _primitive(P):
    """Row P divided by its content."""
    g = gcd(*sum(P, ()))
    if g > 1:
        return tuple(tuple(v // g for v in p) for p in P)
    return P


def _split(rows, k: int, field: CosField):
    """The rows by the sign of entry k: (pos, neg, zero heads).

    pos and neg hold (head, a, M) for the row head + a w_k, with M the
    mul_matrix of |a|; the heads of the rows with a = 0 come back
    primitive, as the keys of a dict.
    """
    pos, neg, rest = [], [], {}
    for P in rows:
        head = tuple(p[:k] for p in P)
        a = tuple(p[k] for p in P)
        sg = field.sign(a)
        if sg > 0:
            pos.append((head, a, field.mul_matrix(a)))
        elif sg < 0:
            neg.append((head, a, field.mul_matrix(tuple(-v for v in a))))
        else:
            rest[_primitive(head)] = None
    return pos, neg, rest


def _combine(rest: Dict, pos, neg, field: CosField) -> None:
    """Add (-n_k) p + p_k n, made primitive, for every p in pos, n in neg."""
    for pH, _, pM in pos:
        for nH, _, nM in neg:
            rest[_primitive(array_add(field.scale(nM, pH), field.scale(pM, nH)))] = None


def _bounds(rows, S, den: int, field: CosField):
    """The bounds -(r . s) / r_k of the rows at s = S / den."""
    out = []
    for H, a, _ in rows:
        # -(r . s) / r_k = -(r . S) b / (den N) with r_k b = N.
        N, b = field.norm_adj(a)
        num = field.mul(field.dot(H, S), b)
        out.append((num, -den * N) if N < 0 else (tuple(-v for v in num), den * N))
    return out


def _compare(u, v, field: CosField) -> int:
    """Sign of u - v for bounds u and v."""
    return field.sign(tuple(a * v[1] - b * u[1] for a, b in zip(u[0], v[0])))


def _extreme(bounds, field: CosField, want: int):
    """The largest (want = 1) or smallest (want = -1) bound, or None."""
    best = None
    for v in bounds:
        if best is None or _compare(v, best, field) == want:
            best = v
    return best


def _extend(S, den: int, lo, hi, field: CosField):
    """The witness S / den with a value for the next variable appended.

    The value lies between the largest lower bound lo and the smallest
    upper bound hi, either of which may be None: their midpoint, or lo
    when they meet, lo + 1 or hi - 1 when one is missing, and 0 when both
    are.  The result is gcd-normalised.
    """
    n = field.degree
    if lo is None and hi is None:
        value = (0,) * n, 1
    elif hi is None:
        (v0, *vs), q = lo
        value = (v0 + q, *vs), q
    elif lo is None:
        (v0, *vs), q = hi
        value = (v0 - q, *vs), q
    elif _compare(hi, lo, field) > 0:
        value = (
            tuple(a * hi[1] + b * lo[1] for a, b in zip(lo[0], hi[0])),
            2 * lo[1] * hi[1],
        )
    else:
        value = lo
    vnums, vq = value
    q = lcm(den, vq)
    s, t = q // den, q // vq
    W = [tuple(x * s for x in S[i]) + (vnums[i] * t,) for i in range(n)]
    g = gcd(q, *(v for w in W for v in w))
    return tuple(tuple(v // g for v in w) for w in W), q // g


def _chamber_point(rows, nvars: int, field: CosField):
    """A point of the relative interior of the cone {w : r . w >= 0 for r in rows}.

    Fourier-Motzkin eliminates w_{nvars-1}, ..., w_0 in turn; on the way
    back up each value is `_extend`'s pick from the slice the eliminated
    rows leave.  Returns (W, den) with w = W / den, W an array and den > 0.
    """
    steps = []
    cur = dict.fromkeys(map(_primitive, rows))
    for k in range(nvars - 1, -1, -1):
        pos, neg, rest = _split(cur, k, field)
        _combine(rest, pos, neg, field)
        steps.append((pos, neg))
        cur = rest
    S, den = ((),) * field.degree, 1
    for pos, neg in reversed(steps):
        lo = _extreme(_bounds(pos, S, den, field), field, 1)
        hi = _extreme(_bounds(neg, S, den, field), field, -1)
        S, den = _extend(S, den, lo, hi, field)
    return S, den


# ---------------------------------------------------------------------------
# Regular points.


def regular_point(
    basis: Sequence[Array],
    rs,
    root_subset=None,
    rng: Optional[random.Random] = None,
):
    """A point of span(basis) off every root hyperplane not containing it.

    The basis vectors are integer arrays over Z[c] in simple-root
    coordinates, as `exact_angle_basis` gives them; a common positive
    denominator changes no answer here, so none is passed.  Returns
    (point, perp_set), the point an integer combination of the basis
    arrays and perp_set = {gamma : span <= H_gamma}; None when the basis is
    empty.  The point is first sought by random small-integer combinations
    with exact rejection, at most REGULAR_POINT_RETRIES draws: the draws
    pick the point and, through the dominance walk, the representative
    `reps` reports, so they cannot give way to a fixed point.  A grid of
    small integers can miss every regular point, though, so when the draws
    run out the point comes from `_moment_curve_point`, which always finds
    one.
    """
    if not basis:
        return None
    rng = rng or random.Random(7)
    if root_subset is None:
        root_subset = range(rs.count)
    rows = rs.int_pairing_rows
    pc = rs.positive_count
    # Root g + pc is -(root g), whose row is the negation of g's: each +/-
    # pair takes one zero test, made on its positive root.
    moved = {
        p: any(any(array_dot(B, rows[p])) for B in basis)
        for p in {g % pc for g in root_subset}
    }
    perp = frozenset(g for g in root_subset if not moved[g % pc])
    off = [rows[g] for g in root_subset if g < pc and moved[g]]
    for _ in range(REGULAR_POINT_RETRIES):
        coefs = [rng.randint(-9, 9) for _ in basis]
        if all(c == 0 for c in coefs):
            continue
        point = array_combination(coefs, basis)
        if all(any(array_dot(point, r)) for r in off):
            return point, perp
    return _moment_curve_point(basis, off), perp


def _moment_curve_point(basis: Sequence[Array], off: Sequence[Sequence[int]]) -> Array:
    """The first point p(t) = sum_i t^i basis[i], t = 1, 2, ..., that pairs
    to nonzero with every row of off.

    A row that pairs to nonzero with some basis vector pairs with p(t) as a
    nonzero polynomial in t of degree below d = len(basis), with
    coefficients in the field K_L, so it vanishes at fewer than d values of
    t.  Among |off| * (d - 1) + 1 values, one is therefore a root of none of
    them; running past that bound means some row of off is orthogonal to
    the whole basis.
    """
    bound = len(off) * (len(basis) - 1) + 1
    for t in range(1, bound + 1):
        point = array_combination([t**i for i in range(len(basis))], basis)
        if all(any(array_dot(point, r)) for r in off):
            return point
    raise InconsistencyError(
        f"no regular point on the moment curve in {bound} values of t; a root "
        "counted as moved is orthogonal to the eigenspace basis"
    )


# ---------------------------------------------------------------------------
# Admissible sequences and good position.


def is_admissible(x: TwistedElement, sequence: Sequence[Fraction]) -> bool:
    """Whether the partial angle sum contains a regular point of the moved space.

    The empty sequence is admissible exactly when x acts trivially on the
    span of the roots.
    """
    return _admissible(x, sequence, rotation_spectrum(x))


def _admissible(
    x: TwistedElement, sequence: Sequence[Fraction], mults: Dict[int, int]
) -> bool:
    """`is_admissible` with the cyclotomic multiplicities of x given."""
    angles = {a for a, _ in _angles(mults)}
    for a in sequence:
        if Fraction(a) not in angles:
            raise InputError(f"{a} is not a rotation angle of this element")
    orders = {_rotation_denominator(Fraction(a)) for a in sequence}
    # The roots orthogonal to the whole moved space are the fixed roots.
    return _perp_orders(x, orders, range(x.rs.count), mults) == fixed_roots(x)


def admissible_enumerations(x: TwistedElement) -> List[Tuple[Fraction, ...]]:
    """All admissible orderings of the full nonzero angle set of x."""
    angles = [a for a, _ in angle_list(x)]
    return [seq for seq in sorted(set(permutations(angles))) if is_admissible(x, seq)]


@dataclass(frozen=True)
class GoodPositionCertificate:
    """Witness data for a good-position verdict.

    stage_points[i] is a regular point p_i of V_x^{theta_i} dominant for
    the stage-i parabolic Phi_i.  parabolic_chain runs Phi_0 through Phi_r
    as root-index sets.  Every verdict is decided exactly, so `exact` is
    always True; the reports keep the flag.

    The stage points also give the cumulative points of the partial sums
    V^{theta_0} + ... + V^{theta_i}: for every small enough eps > 0,
    q = sum_{j <= i} eps^j p_j is dominant for the whole system, and its
    zero set among the positive roots is exactly Phi_{i+1}.  Proof: each
    stage checks exactly that p_j is zero on Phi_{j+1}, the roots of Phi_j
    orthogonal to V^{theta_j}, that p_j is nonzero on the other positive
    roots of Phi_j, and that p_j pairs >= 0 with the simple roots
    labels_j of Phi_j; the chain check makes Phi_{j+1} = closure(labels_{j+1})
    with labels_{j+1} a subset of labels_j, so the chain decreases.  A
    positive root in Phi_{i+1} lies in every Phi_{j+1}, j <= i, so q is
    zero on it.  A positive root outside Phi_{i+1} first leaves the chain
    at some stage j <= i: it lies in Phi_j but not in Phi_{j+1}, so
    (p_j, root) != 0 while (p_k, root) = 0 for k < j, and the pairing of q
    with it is eps^j (p_j, root) plus terms of higher order in eps, nonzero
    for small eps.  For a simple root that leading term is positive: as
    Phi_j = closure(labels_j), a simple root in Phi_j is one of labels_j,
    with which p_j pairs >= 0.  So nothing needs the cumulative points
    themselves; `tests/reference_geometry.py` rebuilds them as the test
    oracle for this lemma.
    """

    sequence: Tuple[Fraction, ...]
    stage_points: Tuple[Tuple, ...]
    parabolic_chain: Tuple[FrozenSet[int], ...]
    h_values: Tuple[int, ...]
    exact: bool = True


def _admissible_mults(x: TwistedElement, sequence: Sequence[Fraction]) -> Dict[int, int]:
    """The cyclotomic multiplicities of x, once the sequence is checked
    admissible for it."""
    mults = rotation_spectrum(x)
    if not _admissible(x, sequence, mults):
        raise InputError("sequence is not admissible for this element")
    return mults


def is_good_position(
    x: TwistedElement, sequence: Sequence[Fraction]
) -> Optional[GoodPositionCertificate]:
    """Good-position test for x with respect to an admissible sequence.

    Stage i needs a regular point of V_x^{theta_i}, within the current
    parabolic subsystem, lying in the current closed dominant chamber.
    Existence is linear feasibility: the cone K meets the chamber off every
    hyperplane H_gamma iff it is not contained in any single one.
    """
    return _good_position(x, sequence, _admissible_mults(x, sequence))


def _good_position(
    x: TwistedElement, sequence: Sequence[Fraction], mults: Dict[int, int]
) -> Optional[GoodPositionCertificate]:
    """`is_good_position` for a sequence already checked admissible, with
    the cyclotomic multiplicities of x given.

    Both are class invariants, so a scan over a class decides them once.
    """
    rs = x.rs
    sequence = tuple(Fraction(a) for a in sequence)
    rng = random.Random(11)

    field = field_for(sequence)
    cur_labels = tuple(range(rs.rank))
    cur_roots = rs.parabolic_closure(cur_labels)
    chain = [cur_roots]
    h_values = [sum(1 for g in cur_roots if rs.is_positive(g))]
    stage_points: List[Tuple] = []

    for angle in sequence:
        psi = _perp_orders(x, {_rotation_denominator(angle)}, cur_roots, mults)
        pos = [g for g in cur_roots if rs.is_positive(g)]
        off_pos = [g for g in pos if g not in psi]
        perp_pos = [g for g in pos if g in psi]
        den, basis = exact_angle_basis(x, angle, field=field)
        point = _stage_point(rs, den, basis, cur_labels, off_pos, perp_pos, field, rng)
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
        h_values.append(len(perp_pos))

    return GoodPositionCertificate(
        sequence=sequence,
        stage_points=tuple(stage_points),
        parabolic_chain=tuple(chain),
        h_values=tuple(h_values),
    )


def _stage_point(rs, den, basis, cur_labels, off_pos, perp_pos, field: CosField, rng):
    """A dominant regular point of span(basis) in the current chamber.

    The basis is the pair (den, basis) of `exact_angle_basis`: integer
    Z[c] arrays over one denominator.  Every chamber row is the integer
    dot products of the arrays with a row of `int_pairing_rows` (a
    positive multiple of the true pairing), the point is an integer array
    over Z[c], and every sign test pairs it with those rows, so the cone
    test and the sign tests run on ints.  First every basis array must
    pair to zero with every root of `perp_pos`, the positive roots the
    root permutation says are orthogonal to the eigenspace; the lemma of
    `GoodPositionCertificate` rests on it.  The point comes back as a list
    of K_L values, the one place an eigenspace vector leaves the integer
    arrays.

    Each target is a positive root of the current parabolic, so its row is
    a nonnegative integer combination of the chamber rows (`int_pairing_rows`
    is linear in the root coefficients) and R >= 0 on the whole cone K.
    `_chamber_point` gives a point p of the relative interior of K: each
    `_extend` value lies in the relative interior of the slice it is chosen
    from, and the slices are the fibres of the projections that
    Fourier-Motzkin elimination computes (Schrijver, section 12.2), so p is
    in ri K by induction on the variables (Rockafellar, Convex Analysis,
    1970, Theorem 6.8).  A linear function >= 0 on K that vanishes at a
    point of ri K vanishes on all of K.  So a point of K with R > 0 exists
    exactly when R(p) > 0, and p is then one point for every target at
    once: the stage has a point iff no target pairs to zero with p.  A
    strict Fourier-Motzkin query per target would return p itself or None.
    """
    if not basis:
        return None
    int_rows = rs.int_pairing_rows
    if any(any(array_dot(B, int_rows[g])) for g in perp_pos for B in basis):
        raise InconsistencyError("the eigenspace is not orthogonal to its perp roots")
    if not off_pos:
        return [field.zero] * rs.rank  # every current root hyperplane contains K

    simples = [int_rows[rs.simple_indices[lab]] for lab in cur_labels]
    chamber = [tuple(zip(*(array_dot(B, r) for B in basis))) for r in simples]
    W, q = _chamber_point(chamber, len(basis), field)
    # The point is sum_j w_j basis_j / den with w = W / q, and a root pairs
    # with it as its row does with W.
    P = reduce(
        array_add, (field.scale(field.mul_matrix(w), B) for w, B in zip(zip(*W), basis))
    )
    if not all(field.sign(array_dot(P, r)) >= 0 for r in simples):
        raise InconsistencyError("the chamber point of a stage left the cone")
    if not all(any(array_dot(P, int_rows[g])) for g in off_pos):
        return None
    # The draws only scale the point: one weight per target, and the point
    # times their sum.  They keep the printed stage points, and so the
    # reports, byte-identical across engine versions until the next report
    # schema change (ROADMAP item 1) drops them.
    scale = sum(rng.randint(1, 9) for _ in off_pos)
    return field.vector(tuple(tuple(scale * v for v in p) for p in P), q * den)


def good_position_length(cert: GoodPositionCertificate) -> int:
    """Length predicted by the angle/parabolic data; always an integer."""
    total = Fraction(0)
    for i, angle in enumerate(cert.sequence):
        total += Fraction(angle) * (cert.h_values[i] - cert.h_values[i + 1])
    if total.denominator != 1:
        raise InconsistencyError(f"length formula gave non-integer {total}")
    return int(total)
