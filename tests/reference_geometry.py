"""Reference code the geometry tests compare the engine against.

None of it runs in the engine: the generic Fourier-Motzkin elimination on
field scalars (the reference for the integer chamber point), a stage point
built from one such elimination per target root (the reference for the
chamber-point lemma of `geometry._stage_point`), the generic kernel
basis by `rref`, and the fraction-free kernel of den (M + M^-1) - 2cos
theta over Z[c] that the engine used before it read eigenspace bases off
root orbits (the references for those bases),
two eigenspace bookkeeping helpers the tests use as oracles, the
rebuild of a good-position certificate's cumulative points (the oracle for
the lemma in the `GoodPositionCertificate` docstring), exact signs of
scalars of any field the engine uses, and the separation witness, which
walks a point through powers of x^-1 to recover the level n_x(gamma)
without the sign-run walk.  The rotation spectrum's oracle is the
characteristic polynomial by the Faddeev-LeVerrier recursion, factored
into cyclotomics by polynomial division (`spectrum_by_charpoly`).
"""

from fractions import Fraction
from typing import List, Optional, Sequence

from math import gcd, lcm

from weylconvex.errors import InconsistencyError, InputError
from weylconvex.geometry import _perp_orders, _primitive, _rotation_denominator
from weylconvex.linalg import cyclotomic, poly_divmod
from weylconvex.quadfield import CosNum, array_add, field_for, two_cos_in
from weylconvex.weyl import rotation_spectrum

from reference_matrix import rref
from reference_weyl import matrix


def sign_of(x) -> int:
    """Exact sign of an int, Fraction or CosNum."""
    if isinstance(x, CosNum):
        return x.sign()
    return (x > 0) - (x < 0)


def _sdot(row, vec, zero):
    acc = zero
    for a, b in zip(row, vec):
        acc = acc + a * b
    return acc


def separation_witness(x, e: Sequence, gamma: int) -> int:
    """First i >= 1 with (x^-i e, gamma) < 0; contracts to equal n_x(gamma).

    The signs are read off `int_pairing_rows`, a positive multiple of the
    pairing.
    """
    rs = x.rs
    row = rs.int_pairing_rows[gamma]
    if sign_of(_sdot(row, e, 0)) <= 0:
        raise InputError("witness point must pair strictly positively with gamma")
    Minv = matrix(x.inverse())
    n = rs.rank
    v = list(e)
    for i in range(1, x.order() + 1):
        v = [_sdot(Minv[t], v, 0 * v[0]) for t in range(n)]
        if sign_of(_sdot(row, v, 0)) < 0:
            return i
    raise InconsistencyError(
        "no separation within the order of x; inconsistent with the level theory"
    )


def fixed_space_dim(x, labels=None) -> int:
    """Dimension of the fixed space of x on the span of `labels`."""
    return rotation_spectrum(x, labels).get(1, 0)


def angle_perp_roots(x, angle: Fraction, root_subset=None):
    """{gamma in subset : V_x^theta <= H_gamma}, decided exactly.

    A root is fixed by the Galois group, which permutes V_x^theta with its
    conjugate eigenspaces, so this is orthogonality to ker Phi_d(x), d the
    order of the rotation.
    """
    if root_subset is None:
        root_subset = range(x.rs.count)
    orders = {_rotation_denominator(angle)}
    return _perp_orders(x, orders, root_subset, rotation_spectrum(x))


def cumulative_points(rs, cert, retries: int = 64) -> Optional[List[List]]:
    """The cumulative points of a good-position certificate, rebuilt.

    Point i is q = p_0 + eps p_1 + ... + eps^i p_i for the stage points p_j,
    with eps = 1/2, 1/4, ...: the first q that pairs >= 0 with every simple
    root and whose zero set among the positive roots is exactly
    parabolic_chain[i + 1].  None when some point needs more than
    `retries` halvings.
    """
    out = []
    for i, zeros in enumerate(cert.parabolic_chain[1:]):
        eps = Fraction(1, 2)
        for _ in range(retries):
            point = list(cert.stage_points[0])
            for j in range(1, i + 1):
                point = [p + eps**j * q for p, q in zip(point, cert.stage_points[j])]
            signs = [
                sign_of(_sdot(rs.int_pairing_rows[g], point, 0))
                for g in range(rs.positive_count)
            ]
            if all(signs[g] >= 0 for g in rs.simple_indices) and all(
                (signs[g] == 0) == (g in zeros) for g in range(rs.positive_count)
            ):
                out.append(point)
                break
            eps /= 2
        else:
            return None
    return out


def kernel_basis(A, field) -> List[List]:
    """Basis of the right kernel {v : Av = 0} from the reduced echelon form."""
    if not A:
        return []
    cols = len(A[0])
    R, pivots = rref(A, field)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [field.zero] * cols
        v[fc] = field.one
        for r, pc in enumerate(pivots):
            v[pc] = field.neg(R[r][fc])
        basis.append(v)
    return basis


def feasible_homogeneous(constraints, nvars: int, zero, one) -> Optional[List]:
    """Witness for {c : every (row, strict) satisfied, homogeneous}, or None.

    Fourier-Motzkin with witness extraction on any ordered field.  Rows
    are deduped on their repr; each bound keeps its first extreme.
    """
    if nvars == 0:
        return None if any(strict for _, strict in constraints) else []
    k = nvars - 1
    pos, neg, rest = [], [], {}

    def keep(row, strict):
        key = tuple(repr(v) for v in row)
        rest[key] = (row, rest.get(key, (row, False))[1] or strict)

    for row, strict in constraints:
        sg = sign_of(row[k])
        if sg > 0:
            pos.append((row, strict))
        elif sg < 0:
            neg.append((row, strict))
        else:
            keep(row[:k], strict)
    for prow, ps in pos:
        for nrow, ns in neg:
            keep([(zero - nrow[k]) * prow[t] + prow[k] * nrow[t] for t in range(k)], ps or ns)
    sub = feasible_homogeneous(list(rest.values()), k, zero, one)
    if sub is None:
        return None

    def extreme(rows, want):
        best = None
        for row, _ in rows:
            v = (zero - _sdot(row[:k], sub, zero)) / row[k]
            if best is None or sign_of(v - best) == want:
                best = v
        return best

    lo, hi = extreme(pos, 1), extreme(neg, -1)
    if lo is None and hi is None:
        value = zero
    elif hi is None:
        value = lo + one
    elif lo is None:
        value = hi - one
    else:
        value = (lo + hi) / 2 if sign_of(hi - lo) > 0 else lo
    return sub + [value]


def reference_stage_point(rs, den, basis, cur_labels, off_pos, perp_pos, field):
    """`geometry._stage_point` with one cone query per target root.

    Same arguments and result.  Each target gets its own generic
    Fourier-Motzkin witness on K_L scalars, for its row > 0 and the
    chamber rows >= 0; the point is the mean of the witnesses.  None when
    some query is infeasible.
    """
    if not basis:
        return None
    vectors = [field.vector(B, den) for B in basis]
    rows = rs.int_pairing_rows
    if any(_sdot(rows[g], v, field.zero) for g in perp_pos for v in vectors):
        raise InconsistencyError("the eigenspace is not orthogonal to its perp roots")
    if not off_pos:
        return [field.zero] * rs.rank

    def row(g):
        return [_sdot(rows[g], v, field.zero) for v in vectors]

    cone = [(row(rs.simple_indices[lab]), False) for lab in cur_labels]
    witnesses = []
    for g in off_pos:
        w = feasible_homogeneous(cone + [(row(g), True)], len(basis), field.zero, field.one)
        if w is None:
            return None
        witnesses.append(w)
    coefs = [sum(column, field.zero) / len(witnesses) for column in zip(*witnesses)]
    return [_sdot(coefs, column, field.zero) for column in zip(*vectors)]


def mat_mul(A, B):
    n, k, m = len(A), len(B), len(B[0])
    if len(A[0]) != k:
        raise InconsistencyError(f"mat_mul shapes: {n}x{len(A[0])} times {k}x{m}")
    out = []
    for i in range(n):
        row = []
        Ai = A[i]
        for j in range(m):
            acc = Ai[0] * B[0][j]
            for t in range(1, k):
                acc = acc + Ai[t] * B[t][j]
            row.append(acc)
        out.append(row)
    return out


def mat_identity(n: int, one, zero):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def charpoly_int(M: Sequence[Sequence[int]]) -> List[int]:
    """Characteristic polynomial det(tI - M) of an integer matrix.

    Returned as integer coefficients, constant term first.  Uses the
    Faddeev-LeVerrier recursion on integers: every power-sum matrix stays
    integral, so each division by k must be exact, and that is checked.
    """
    n = len(M)
    cur = mat_identity(n, 1, 0)
    cs: List[int] = []
    for k in range(1, n + 1):
        cur = mat_mul(M, cur)
        tr = sum(cur[i][i] for i in range(n))
        if tr % k:
            raise InconsistencyError(f"Faddeev-LeVerrier trace {tr} not divisible by {k}")
        ck = -tr // k
        cs.append(ck)
        for i in range(n):
            cur[i][i] += ck
    return [*reversed(cs), 1]  # det(tI - M) = t^n + c1 t^(n-1) + ... + cn


def cyclotomic_multiplicities(char: Sequence[int], order: int):
    """Factor a char polynomial into cyclotomics Phi_d for d | order.

    Returns {d: multiplicity}.  Raises InconsistencyError if a
    non-cyclotomic factor remains, which cannot happen for finite-order
    integer matrices.
    """
    rem = list(char)
    mult = {}
    divisors = [d for d in range(1, order + 1) if order % d == 0]
    for d in divisors:
        phi = cyclotomic(d)
        m = 0
        while True:
            q, r = poly_divmod(rem, phi)
            if q is None or r != []:
                break
            rem = q
            m += 1
        if m:
            mult[d] = m
    while rem and rem[-1] == 0:
        rem.pop()
    if rem != [1]:
        raise InconsistencyError(
            "characteristic polynomial is not a product of cyclotomics"
        )
    return mult


def spectrum_by_charpoly(x, labels=None):
    """The rotation spectrum of x on span(alpha_l : l in labels), from the
    characteristic polynomial of its matrix."""
    return cyclotomic_multiplicities(charpoly_int(matrix(x, labels)), x.order())


def int_kernel_basis(x, angle, labels=None, field=None):
    """V_x^theta as the kernel of den (M + M^-1) - nums over Z[c], with
    2cos theta = nums / den: the pair (den, arrays) that
    `geometry.exact_angle_basis` must return, from the matrices of x and
    of x^-1."""
    field = field or field_for([angle])
    nums, den = field.parts(two_cos_in(angle, field))
    labels = tuple(range(x.rs.rank)) if labels is None else tuple(labels)
    M = matrix(x, labels)
    Minv = matrix(x.inverse(), labels)
    n = len(M)
    rows = []
    for i in range(n):
        row = [[den * (M[i][j] + Minv[i][j]) for j in range(n)]]
        row += [[0] * n for _ in nums[1:]]
        for d, v in enumerate(nums):
            row[d][i] -= v
        rows.append(tuple(map(tuple, row)))
    return int_kernel(rows, labels, x.rs.rank, field)


def int_kernel(rows, labels, rank: int, field):
    """Basis of the kernel of the matrix with these array rows over Z[c].

    Fraction-free Gauss-Jordan, as `linalg.rank` eliminates on integers:
    a pivot step at column c replaces every other row r by p r - r_c top,
    p = top_c the pivot, and divides out the row's integer content, so the
    entries stay in Z[c].  Then each pivot row is the row of the reduced
    echelon form times its pivot, and the kernel vector of a free column f
    is 1 at f and -R_f / R_c at the pivot column c of each row R.  That is
    the basis the generic `rref` gives, entry for entry, returned as one
    primitive pair (den, arrays): column j is coordinate labels[j] of the
    `rank` coordinates.
    """
    cols = len(labels)
    R = list(rows)
    pivots: List[int] = []
    for c in range(cols):
        r = len(pivots)
        piv = next((i for i in range(r, len(R)) if any(p[c] for p in R[i])), None)
        if piv is None:
            continue
        R[r], R[piv] = R[piv], R[r]
        top = R[r]
        pM = field.mul_matrix(tuple(p[c] for p in top))
        for i, row in enumerate(R):
            a = tuple(-p[c] for p in row)
            if i != r and any(a):
                comb = array_add(field.scale(pM, row), field.scale(field.mul_matrix(a), top))
                R[i] = _primitive(comb)
        pivots.append(c)
        if len(pivots) == len(R):
            break
    # R_c b = N with N a nonzero int, so -R_f / R_c = -R_f b / N; every N
    # divides den.
    norms = [field.norm_adj(tuple(p[c] for p in row)) for row, c in zip(R, pivots)]
    den = lcm(*(abs(N) for N, _ in norms))
    one = (den,) + (0,) * (field.degree - 1)
    basis = []
    for f in range(cols):
        if f in pivots:
            continue
        v = [(0,) * field.degree] * rank
        v[labels[f]] = one
        for row, c, (N, b) in zip(R, pivots, norms):
            s = -den // N
            v[labels[c]] = tuple(s * u for u in field.mul(tuple(p[f] for p in row), b))
        basis.append(tuple(zip(*v)))
    g = gcd(den, *(u for B in basis for p in B for u in p))
    return den // g, [tuple(tuple(u // g for u in p) for p in B) for B in basis]
