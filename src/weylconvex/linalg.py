"""Exact dense linear algebra over any ordered or plain field.

Matrices are lists (or tuples) of rows; scalars only need the arithmetic
operators and equality against 0 to work (Fraction, QuadExt and the mod-p
wrapper in the matrix-group module all qualify).  Sizes here are tiny, so
plain Gaussian elimination is used throughout.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .errors import InconsistencyError


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


def mat_inv(A, one, zero):
    """Inverse via Gauss-Jordan; raises ValueError if singular."""
    n = len(A)
    M = [list(A[i]) + [one if i == j else zero for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if M[r][col] != zero:
                piv = r
                break
        if piv is None:
            raise ValueError("singular matrix")
        M[col], M[piv] = M[piv], M[col]
        inv = one / M[col][col]
        M[col] = [x * inv for x in M[col]]
        for r in range(n):
            if r != col and M[r][col] != zero:
                f = M[r][col]
                M[r] = [a - f * b for a, b in zip(M[r], M[col])]
    return [row[n:] for row in M]


def rref(A, zero) -> Tuple[List[List], List[int]]:
    """Reduced row echelon form plus the pivot column list."""
    M = [list(row) for row in A]
    rows = len(M)
    cols = len(M[0]) if rows else 0
    pivots: List[int] = []
    r = 0
    for c in range(cols):
        piv = None
        for rr in range(r, rows):
            if M[rr][c] != zero:
                piv = rr
                break
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = M[r][c]
        M[r] = [x / inv for x in M[r]]
        for rr in range(rows):
            if rr != r and M[rr][c] != zero:
                f = M[rr][c]
                M[rr] = [a - f * b for a, b in zip(M[rr], M[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return M, pivots


def rank(A, zero) -> int:
    if not A:
        return 0
    return len(rref(A, zero)[1])


def kernel_basis(A, one, zero) -> List[List]:
    """Basis of the right kernel {v : Av = 0}."""
    if not A:
        return []
    cols = len(A[0])
    R, pivots = rref(A, zero)
    pivset = set(pivots)
    free = [c for c in range(cols) if c not in pivset]
    basis = []
    for fc in free:
        v = [zero] * cols
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = zero - R[r][fc]
        basis.append(v)
    return basis


def solve(A, b, one, zero) -> Optional[List]:
    """One particular solution of Av = b, or None if inconsistent.

    Free variables are set to zero, which keeps results deterministic.
    """
    if not A:
        return []
    cols = len(A[0])
    aug = [list(row) + [bb] for row, bb in zip(A, b)]
    R, pivots = rref(aug, zero)
    for r in range(len(R)):
        if all(R[r][c] == zero for c in range(cols)) and R[r][cols] != zero:
            return None
    v = [zero] * cols
    for r, pc in enumerate(pivots):
        if pc == cols:
            return None
        v[pc] = R[r][cols]
    return v


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


def poly_divmod(num: Sequence[int], den: Sequence[int]):
    """Divide integer polynomials (coefficients constant-first)."""
    num = list(num)
    den = list(den)
    while den and den[-1] == 0:
        den.pop()
    if not den:
        raise ZeroDivisionError
    q = [0] * max(0, len(num) - len(den) + 1)
    r = num[:]
    while len(r) >= len(den) and any(r):
        if r[-1] == 0:
            r.pop()
            continue
        shift = len(r) - len(den)
        if r[-1] % den[-1] != 0:
            return None, None  # not divisible over Z at this step
        f = r[-1] // den[-1]
        q[shift] = f
        for i, d in enumerate(den):
            r[shift + i] -= f * d
        r.pop()
    while r and r[-1] == 0:
        r.pop()
    return q, r


_CYCLO_CACHE = {1: [-1, 1]}


def cyclotomic(d: int) -> List[int]:
    """The d-th cyclotomic polynomial, constant term first."""
    if d in _CYCLO_CACHE:
        return _CYCLO_CACHE[d]
    num = [0] * (d + 1)
    num[0] = -1
    num[d] = 1
    for e in range(1, d):
        if d % e == 0:
            q, r = poly_divmod(num, cyclotomic(e))
            if q is None or r != []:
                raise InconsistencyError(f"Phi_{e} does not divide t^{d} - 1")
            num = q
    _CYCLO_CACHE[d] = num
    return num


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


def poly_eval_matrix(poly: Sequence[int], M, one, zero):
    """Evaluate an integer polynomial at a square matrix."""
    n = len(M)
    out = [[zero for _ in range(n)] for _ in range(n)]
    power = mat_identity(n, one, zero)
    for k, c in enumerate(poly):
        if c != 0:
            cf = one * c
            for i in range(n):
                for j in range(n):
                    out[i][j] = out[i][j] + cf * power[i][j]
        if k + 1 < len(poly):
            power = mat_mul(M, power)
    return out
