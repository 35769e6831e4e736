"""Dense matrix references the tests compare the engine against.

None of it runs in the engine: a field that computes through the
scalars' own operators, the reduced row echelon form (the reference for
`linalg.solve`, and the generic elimination the rank and geometry tests
check against), dense products, the Gauss-Jordan inverse,
root-subgroup and diagonal matrices formed entry by entry, the Levi factor
and the identity point of a cell, the 0/1 permutation-matrix lift of an
untwisted element, the tangent-span rank taken with g^-1 (the reference
for the inverse-free rank of `adjoint_span_rank`), unipotent coordinates
read in one pass by the engine's reader and multiplied back, and the same
coordinates read height by height, rebuilding the product at each height
(the reference for the one-pass reader), and a search for two cell points
with one image under xi over a finite field.
"""

import operator
from typing import Dict, List, Tuple

from weylconvex.errors import InputError, NotInCellError
from weylconvex.linalg import rank
from weylconvex.matrixgroup import (
    CellPoint,
    _check_liftable,
    _ell_rows,
    _freeze,
    _identity_rows,
    _read_coordinates,
    _word_matrix,
    coordinate_order,
    enumerate_cell_points,
    mat_key,
    underlying_permutation,
    xi,
)


class OperatorField:
    """K_L, or Q as Fractions, computing with the scalars' own operators.

    `one` is the one of a `quadfield.CosField` or Fraction(1) and fixes the
    scalar type: `div` multiplies by it first, so two ints divide to a
    field element or a Fraction.
    """

    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    mul = staticmethod(operator.mul)
    neg = staticmethod(operator.neg)

    def __init__(self, one):
        self.one = one
        self.zero = one - one

    def div(self, a, b):
        return self.one * a / b


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


def mat_inv(A, field):
    """Inverse via Gauss-Jordan; raises ValueError if singular."""
    n = len(A)
    zero, sub, mul = field.zero, field.sub, field.mul
    M = [list(A[i]) + [field.one if i == j else zero for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if M[r][col] != zero:
                piv = r
                break
        if piv is None:
            raise ValueError("singular matrix")
        M[col], M[piv] = M[piv], M[col]
        inv = field.div(field.one, M[col][col])
        M[col] = [mul(x, inv) for x in M[col]]
        for r in range(n):
            if r != col and M[r][col] != zero:
                f = M[r][col]
                M[r] = [sub(a, mul(f, b)) for a, b in zip(M[r], M[col])]
    return [row[n:] for row in M]


def identity_matrix(field, n):
    return _freeze(_identity_rows(field, n))


def mmul(field, A, B):
    n = len(A)
    m = len(B[0])
    k = len(B)
    return tuple(
        tuple(
            _dotsum(field, A[i], B, j, k)
            for j in range(m)
        )
        for i in range(n)
    )


def _dotsum(field, row, B, j, k):
    acc = field.mul(row[0], B[0][j])
    for t in range(1, k):
        acc = field.add(acc, field.mul(row[t], B[t][j]))
    return acc


def minv(field, A):
    return tuple(tuple(r) for r in mat_inv([list(r) for r in A], field))


def u(ctx, pos, t):
    """The root-subgroup matrix u_pos(t) = I + t E_pos."""
    a, b = pos
    rows = _identity_rows(ctx.field, ctx.n)
    rows[a][b] = t
    return _freeze(rows)


def diag(ctx, entries):
    return tuple(
        tuple(entries[i] if i == j else ctx.field.zero for j in range(ctx.n))
        for i in range(ctx.n)
    )


def ell_matrix(data, p):
    """The Levi factor ell of the cell point p."""
    return _freeze(_ell_rows(data, p))


def lift(ctx, x):
    """The canonical 0/1 permutation-matrix lift of an untwisted element."""
    _check_liftable(ctx, x)
    pi = underlying_permutation(x)
    rows = [[ctx.field.zero] * ctx.n for _ in range(ctx.n)]
    for i in range(ctx.n):
        rows[pi[i]][i] = ctx.field.one
    return _freeze(rows)


def identity_cell_point(data):
    f = data.ctx.field
    return CellPoint(
        y_coords=tuple(f.zero for _ in data.rn),
        u_coords=tuple(f.zero for _ in data.level_one),
        ell_plus=tuple(f.zero for _ in data.phi_pos),
        ell_diag=tuple(f.one for _ in range(data.ctx.n)),
        ell_minus=tuple(f.zero for _ in data.phi_neg),
    )


def adjoint_span_rank_by_inverse(data, g):
    """Rank of (Ad(g^-1) - 1)(gl_n) + levi algebra + level-one nilpotent.

    Formed as written, with g^-1 E_ab g - E_ab for the first summand.
    """
    ctx = data.ctx
    f = ctx.field
    n = ctx.n
    ginv = minv(f, g)
    cols = []
    for a in range(n):
        for b in range(n):
            # g^-1 E_ab g is column a of g^-1 times row b of g.
            col = [ginv[i][a] * gj for i in range(n) for gj in g[b]]
            col[a * n + b] = col[a * n + b] - f.one
            cols.append(col)
    for (a, b) in data.phi_pos + data.phi_neg:
        col = [f.zero] * (n * n)
        col[a * n + b] = f.one
        cols.append(col)
    for cyc in data.cycles:
        col = [f.zero] * (n * n)
        for i in cyc:
            col[i * n + i] = f.one
        cols.append(col)
    for (a, b) in data.phi_pos:
        col = [f.zero] * (n * n)
        col[a * n + a] = f.one
        col[b * n + b] = f.zero - f.one
        cols.append(col)
    for (a, b) in data.level_one:
        col = [f.zero] * (n * n)
        col[a * n + b] = f.one
        cols.append(col)
    rows = [[cols[c][r] for c in range(len(cols))] for r in range(n * n)]
    return rank(rows)


def _closed_roots(positions) -> bool:
    """Whether the roots e_a - e_b of the positions contain every root that
    is a sum of two of them, the sum taken as vectors in Z^n."""
    pset = set(positions)
    for (a, b) in pset:
        for (c, d) in pset:
            total = {}
            for i, v in ((a, 1), (b, -1), (c, 1), (d, -1)):
                total[i] = total.get(i, 0) + v
            support = {v: i for i, v in total.items() if v}
            if sorted(support) == [-1, 1] and (support[1], support[-1]) not in pset:
                return False
    return True


def unipotent_coordinates(ctx, mat, order):
    """Coordinates t with mat = product of u_pos(t) in the given order.

    The positions must be distinct, all strictly upper or all strictly
    lower, and span a closed set; entries of `mat` outside that set must
    vanish.  The engine's reader takes each coordinate once: its entry
    minus what the coordinates read before it contribute there.  Their
    product must give `mat` back, which catches an entry that is no field
    scalar here.
    """
    coords = _read_coordinates(ctx, coordinate_order(ctx.n, order), mat)
    if _word_matrix(ctx.field, ctx.n, list(zip(order, coords))) != mat:
        raise NotInCellError("coordinate extraction failed to reproduce the matrix")
    return coords


def unipotent_coordinates_by_height(ctx, mat, order):
    """Coordinates t with mat = product of u_pos(t) in the given order.

    Solved height by height: a coordinate at height h enters its own
    matrix entry linearly and every other entry only at height > h, so
    each height is its entry minus the product of the lower heights.
    """
    uppers = {a < b for (a, b) in order}
    if len(uppers) > 1:
        raise InputError("cannot mix upper and lower positions in one order")
    if not _closed_roots(order):
        raise InputError("positions do not span a closed set")
    pset = set(order)
    f = ctx.field
    zero = f.zero
    for i in range(ctx.n):
        for j in range(ctx.n):
            if i == j:
                if mat[i][j] != f.one:
                    raise NotInCellError("matrix is not unipotent")
            elif (i, j) not in pset and mat[i][j] != zero:
                raise NotInCellError(
                    f"support outside the closed set at position {(i, j)}"
                )
    coords = [zero] * len(order)
    heights = [abs(a - b) for (a, b) in order]
    for h in range(1, ctx.n):
        if h not in heights:
            continue
        built = _word_matrix(ctx.field, ctx.n, list(zip(order, coords)))
        for k, (a, b) in enumerate(order):
            if heights[k] == h:
                coords[k] = f.add(coords[k], f.sub(mat[a][b], built[a][b]))
    if _word_matrix(ctx.field, ctx.n, list(zip(order, coords))) != mat:
        raise NotInCellError("coordinate extraction failed to reproduce the matrix")
    return coords


def collision_search(data, budget: int = 200_000):
    """Search for two distinct cell points with the same image under xi.

    Returns None when the budget runs out (or, for convex x, when the full
    finite domain was exhausted without a collision, which is the theorem).
    """
    seen: Dict[tuple, CellPoint] = {}
    count = 0
    for p in enumerate_cell_points(data):
        if count >= budget:
            return None
        count += 1
        key = mat_key(xi(data, p))
        if key in seen and seen[key] != p:
            return seen[key], p
        seen[key] = p
    return None
