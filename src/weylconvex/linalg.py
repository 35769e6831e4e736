"""Exact dense linear algebra over any field.

Matrices are lists (or tuples) of rows.  `solve` takes a field object
that does all scalar arithmetic: it has `zero`, `one`, `add`, `sub`,
`mul`, `neg` and `div`, and its scalars compare with `==` and are false
exactly when zero.  The engine passes only the matrix-group fields:
F_p on plain ints mod p and Q on ints when integral, Fractions only when
not.  No engine caller passes K_L; `geometry` finds its kernels on
integers over Z[c_L].  Sizes here are tiny, so `solve` is plain Gaussian
elimination: it clears below each pivot only and reads the solution by
back substitution.  The reduced echelon form, which clears above the
pivots too, is the tests' reference (`tests/reference_matrix.py`).
`rank` takes a matrix of ints and Fractions and eliminates on integers
(Bareiss), and `rank_mod_p` eliminates an integer matrix mod a prime.
The rank mod p is a lower bound for the rank over Q, so full rank mod p
certifies full rank exactly; `rank` is the exact answer when it does
not.  Integer polynomials, constant term first, are multiplied and
divided here, and the cyclotomic polynomials are built and cached.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm
from typing import List, Optional, Sequence

from .errors import InconsistencyError


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

    Forward elimination takes the first row with a nonzero entry as each
    column's pivot and clears only below it, leaving the pivot rows
    unscaled; back substitution then reads the pivot variables, dividing
    by each pivot once, with every free variable 0.  That is the solution
    the reduced echelon form gives, so results stay deterministic.
    """
    if not A:
        return []
    sub, mul, div = field.sub, field.mul, field.div
    cols = len(A[0])
    M = [list(row) + [bb] for row, bb in zip(A, b)]
    rows = len(M)
    pivots: List[int] = []
    for c in range(cols + 1):
        r = len(pivots)
        piv = next((i for i in range(r, rows) if M[i][c]), None)
        if piv is None:
            continue
        if c == cols:
            return None
        M[r], M[piv] = M[piv], M[r]
        top = M[r]
        for i in range(r + 1, rows):
            f = M[i][c]
            if f:
                f = div(f, top[c])
                M[i] = [sub(a, mul(f, t)) if t else a for a, t in zip(M[i], top)]
        pivots.append(c)
        if r + 1 == rows:
            break
    v = [field.zero] * cols
    for r in range(len(pivots) - 1, -1, -1):
        row = M[r]
        acc = row[cols]
        for j in pivots[r + 1:]:
            if row[j] and v[j]:
                acc = sub(acc, mul(row[j], v[j]))
        c = pivots[r]
        v[c] = div(acc, row[c]) if acc else acc
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
