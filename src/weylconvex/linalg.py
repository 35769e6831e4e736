"""Exact dense linear algebra over any field.

Matrices are lists (or tuples) of rows.  The eliminations take a field
object that does all scalar arithmetic: it has `zero`, `one`, `add`, `sub`,
`mul`, `neg` and `div`, and its scalars compare with `==` and are false
exactly when zero.  The engine passes only the matrix-group fields:
F_p on plain ints mod p and Q on ints when integral, Fractions only when
not.  No engine caller passes K_L; `geometry` finds its kernels on
integers over Z[c_L].  Sizes here are tiny, so plain Gaussian elimination
is used, except that `rank` takes a matrix of ints and Fractions and
eliminates on integers (Bareiss), and `rank_mod_p` eliminates an integer
matrix mod a prime.  The rank mod p is a lower bound for the rank over Q,
so full rank mod p certifies full rank exactly; `rank` is the exact
answer when it does not.  Integer polynomials, constant term first, are
multiplied and divided here, and the cyclotomic polynomials are built and
cached.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm
from typing import List, Optional, Sequence, Tuple

from .errors import InconsistencyError


def rref(A, field) -> Tuple[List[List], List[int]]:
    """Reduced row echelon form plus the pivot column list.

    Where the pivot row holds a zero, scaling it and clearing the other
    rows with it take no product.
    """
    zero, sub, mul = field.zero, field.sub, field.mul
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
        inv = field.div(field.one, M[r][c])
        top = M[r] = [mul(x, inv) if x else x for x in M[r]]
        for rr in range(rows):
            if rr != r and M[rr][c] != zero:
                f = M[rr][c]
                M[rr] = [sub(a, mul(f, b)) if b else a for a, b in zip(M[rr], top)]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return M, pivots


def rank(A) -> int:
    """Exact rank over Q of a matrix of ints or Fractions.

    Each row is scaled by the lcm of its denominators, which keeps the
    rank, and the integer rows go through fraction-free (Bareiss)
    elimination with row pivoting.  After k pivots every entry below them
    is a (k+1)-minor, so each division by the previous pivot is exact;
    that is checked.
    """
    M = []
    for row in A:
        den = lcm(*(v.denominator for v in row))
        scaled = [v.numerator * (den // v.denominator) for v in row]
        if any(scaled):
            M.append(scaled)
    rows = len(M)
    cols = len(M[0]) if rows else 0
    r = 0
    prev = 1
    for c in range(cols):
        piv = next((i for i in range(r, rows) if M[i][c]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        top = M[r]
        p = top[c]
        for i in range(r + 1, rows):
            row = M[i]
            a = row[c]
            new = [0] * cols
            for j in range(c + 1, cols):
                q, rem = divmod(p * row[j] - a * top[j], prev)
                if rem:
                    raise InconsistencyError(
                        f"Bareiss step at column {c}: pivot {prev} does not divide"
                    )
                new[j] = q
            M[i] = new
        prev = p
        r += 1
        if r == rows:
            break
    return r


def rank_mod_p(A, p: int) -> int:
    """Rank over F_p of a matrix of ints, by elimination mod p.

    For an integer matrix this is at most the rank over Q, so rank mod p
    equal to the row count proves full row rank over Q.  An entry is
    reduced only where a pivot is sought: a row with a zero there is left
    as it is, and any other row becomes v - a * t with a and t reduced,
    so its entries grow by at most p^2 a step.  The elimination stops
    once every row has given a pivot.
    """
    rows = [list(row) for row in A]
    cols = len(rows[0]) if rows else 0
    r = 0
    for c in range(cols):
        piv = next((i for i, row in enumerate(rows) if row[c] % p), None)
        if piv is None:
            continue
        top = rows.pop(piv)
        inv = pow(top[c], -1, p)
        top = [v * inv % p for v in top[c + 1:]]
        for row in rows:
            a = row[c] % p
            if a:
                row[c + 1:] = [v - a * t for v, t in zip(row[c + 1:], top)]
        r += 1
        if not rows:
            break
    return r


def solve(A, b, field) -> Optional[List]:
    """One particular solution of Av = b, or None if inconsistent.

    Free variables are set to zero, which keeps results deterministic.
    """
    if not A:
        return []
    zero = field.zero
    cols = len(A[0])
    aug = [list(row) + [bb] for row, bb in zip(A, b)]
    R, pivots = rref(aug, field)
    for r in range(len(R)):
        if all(R[r][c] == zero for c in range(cols)) and R[r][cols] != zero:
            return None
    v = [zero] * cols
    for r, pc in enumerate(pivots):
        if pc == cols:
            return None
        v[pc] = R[r][cols]
    return v


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


def poly_mul(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """Multiply integer polynomials (coefficients constant-first)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return out


@lru_cache(maxsize=None)
def cyclotomic(d: int) -> List[int]:
    """The d-th cyclotomic polynomial, constant term first."""
    num = [0] * (d + 1)
    num[0] = -1
    num[d] = 1
    for e in range(1, d):
        if d % e == 0:
            q, r = poly_divmod(num, cyclotomic(e))
            if q is None or r != []:
                raise InconsistencyError(f"Phi_{e} does not divide t^{d} - 1")
            num = q
    return num
