"""The structured row/column operations of the cross-section against dense
products: every structured result must equal the same product formed with
`mmul`, `minv`, `u`, `diag` and the lift matrices of `reference_matrix`."""

import random
from dataclasses import astuple, replace
from fractions import Fraction

import pytest

from weylconvex.matrixgroup import (
    PrimeField,
    _closed_positions,
    _conjugate,
    _conjugate_diag,
    _freeze,
    _inverse_word,
    _lift_rows,
    _lift_word,
    _mul_word,
    _rows,
    _unlift_rows,
    _word_matrix,
    _word_mul,
    build_cross_section,
    mat_key,
    matrix_context,
    random_cell_point,
    random_section_point,
    sigma,
    xi,
)
from weylconvex.errors import NotInCellError
from weylconvex.weyl import from_word

from reference_matrix import (
    _closed_roots,
    diag,
    ell_matrix,
    identity_matrix,
    lift,
    minv,
    mmul,
    u,
    unipotent_coordinates,
    unipotent_coordinates_by_height,
)

CASES = [(n, field) for n in (3, 4, 5, 6) for field in (101, "rational")]
TRIALS = 15


def _ids(case):
    n, field = case
    return f"n{n}-{'F101' if field == 101 else 'Q'}"


def _scalar(f, rng):
    """A random scalar; over Q with small numerators and denominators."""
    return f.div(f.random(rng), f.random_unit(rng))


def _matrix(ctx, rng):
    n = ctx.n
    return tuple(tuple(_scalar(ctx.field, rng) for _ in range(n)) for _ in range(n))


def _closed_order(n, rng):
    """A random closed set of upper or lower positions, in random order."""
    pos = {(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.35}
    grew = True
    while grew:
        grew = False
        for (a, b) in list(pos):
            for (c, d) in list(pos):
                if b == c and (a, d) not in pos:
                    pos.add((a, d))
                    grew = True
    order = sorted(pos)
    if rng.random() < 0.5:
        order = [(b, a) for (a, b) in order]
    rng.shuffle(order)
    return order


def _dense_word(ctx, order, coords):
    out = identity_matrix(ctx.field, ctx.n)
    for pos, t in zip(order, coords):
        out = mmul(ctx.field, out, u(ctx, pos, t))
    return out


def _random_word(ctx, rng):
    order = _closed_order(ctx.n, rng)
    return order, [ctx.field.random(rng) for _ in order]


def _random_section(ctx, rng):
    word = [rng.randrange(ctx.n - 1) for _ in range(rng.randrange(2 * ctx.n))]
    return build_cross_section(ctx, from_word(ctx.rs, None, word))


@pytest.fixture(params=CASES, ids=_ids)
def case(request):
    n, field = request.param
    return matrix_context(n, field), random.Random(f"{n}-{field}")


def test_unipotent_from_coords_matches_dense_product(case):
    ctx, rng = case
    for _ in range(TRIALS):
        order, coords = _random_word(ctx, rng)
        dense = _dense_word(ctx, order, coords)
        assert _word_matrix(ctx.field, ctx.n, list(zip(order, coords))) == dense


def test_unipotent_inverse_matches_minv(case):
    ctx, rng = case
    for _ in range(TRIALS):
        order, coords = _random_word(ctx, rng)
        inv = _word_matrix(ctx.field, ctx.n, _inverse_word(ctx.field, list(zip(order, coords))))
        assert inv == minv(ctx.field, _dense_word(ctx, order, coords))


def _zero_some(f, coords, rng):
    """coords with each one set to zero with probability 1/2, so that the
    factors the structured products skip turn up over every field."""
    return tuple(f.zero if rng.random() < 0.5 else t for t in coords)


def test_row_and_column_operations_match_dense_products(case):
    ctx, rng = case
    f = ctx.field
    for _ in range(TRIALS):
        order, coords = _random_word(ctx, rng)
        M = _matrix(ctx, rng)
        for cs in (coords, _zero_some(f, coords, rng)):
            word = list(zip(order, cs))
            U = _dense_word(ctx, order, cs)
            assert _freeze(_mul_word(f, _rows(M), word)) == mmul(f, M, U)
            assert _freeze(_word_mul(f, word, _rows(M))) == mmul(f, U, M)
            assert _freeze(_conjugate(f, _rows(M), word)) == mmul(
                f, mmul(f, minv(f, U), M), U
            )


def test_diagonal_products_match_dense_products(case):
    ctx, rng = case
    f = ctx.field
    for _ in range(TRIALS):
        d = [f.random_unit(rng) for _ in range(ctx.n)]
        D = diag(ctx, d)
        M = _matrix(ctx, rng)
        assert _freeze(_conjugate_diag(f, _rows(M), d)) == mmul(
            f, mmul(f, minv(f, D), M), D
        )


def test_lift_products_match_dense_products(case):
    ctx, rng = case
    f = ctx.field
    for _ in range(TRIALS):
        data = _random_section(ctx, rng)
        P = lift(ctx, data.x)
        P_inv = tuple(zip(*P))  # a permutation matrix's transpose
        assert P_inv == minv(f, P)
        M = _matrix(ctx, rng)
        assert _freeze(_lift_rows(data, _rows(M))) == mmul(f, P, M)
        assert _freeze(_unlift_rows(data, _rows(M))) == mmul(f, P_inv, M)
        order, coords = _random_word(ctx, rng)
        word = list(zip(order, coords))
        lifted = _word_matrix(f, ctx.n, _lift_word(data, word))
        assert lifted == mmul(
            f, mmul(f, P, _dense_word(ctx, order, coords)), P_inv
        )


def test_bottom_up_row_word_reads_off_its_entries(case):
    # The section solves for the unipotent v entry by entry and uses those
    # entries as the coordinates of a word whose rows run bottom-up.
    ctx, rng = case
    n = ctx.n
    for _ in range(TRIALS):
        order = [(a, b) for a in reversed(range(n)) for b in range(a + 1, n)
                 if rng.random() < 0.6]
        coords = [ctx.field.random(rng) for _ in order]
        U = _word_matrix(ctx.field, ctx.n, list(zip(order, coords)))
        assert U == _dense_word(ctx, order, coords)
        for (a, b), t in zip(order, coords):
            assert U[a][b] == t


def test_reference_closedness_matches_the_engine():
    # The height-by-height reference tests closedness by summing roots; the
    # engine chains positions.  They must agree, on closed sets and not.
    rng = random.Random(21)
    outcomes = {True: 0, False: 0}
    for _ in range(300):
        n = rng.randint(2, 6)
        pos = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.4]
        if rng.random() < 0.5:
            pos = [(b, a) for (a, b) in pos]
        closed = _closed_positions(pos)
        assert _closed_roots(pos) == closed, pos
        outcomes[closed] += 1
    for _ in range(50):
        order = _closed_order(rng.randint(2, 6), rng)
        assert _closed_roots(order) and _closed_positions(order)
    assert min(outcomes.values()) >= 50, outcomes


@pytest.mark.parametrize("field", [2, 101, "rational"], ids=["F2", "F101", "Q"])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_one_pass_coordinates_match_height_by_height_reference(n, field):
    # Products taken in the reading order and in a shuffled order of the
    # same closed set, then the same matrices with one entry outside the
    # set or off the unit diagonal, which both readers must refuse alike.
    ctx = matrix_context(n, field)
    f = ctx.field
    rng = random.Random(f"reader-{n}-{field}")
    for _ in range(2 * TRIALS):
        order = _closed_order(n, rng)
        outside = [(i, j) for i in range(n) for j in range(n) if (i, j) not in order]
        for word_order in (order, rng.sample(order, len(order))):
            coords = [f.random(rng) for _ in word_order]
            mat = _word_matrix(f, n, list(zip(word_order, coords)))
            got = unipotent_coordinates(ctx, mat, order)
            assert got == unipotent_coordinates_by_height(ctx, mat, order)
            if word_order is order:
                assert got == coords
            i, j = rng.choice(outside)
            rows = _rows(mat)
            rows[i][j] = f.add(rows[i][j], f.random_unit(rng))
            bad = _freeze(rows)
            with pytest.raises(NotInCellError) as expected:
                unipotent_coordinates_by_height(ctx, bad, order)
            with pytest.raises(expected.type):
                unipotent_coordinates(ctx, bad, order)


def _dense_xi(data, p):
    ctx = data.ctx
    f = ctx.field
    y = _dense_word(ctx, data.rn, p.y_coords)
    ell = mmul(
        f,
        mmul(f, _dense_word(ctx, data.phi_pos, p.ell_plus), diag(ctx, p.ell_diag)),
        _dense_word(ctx, data.phi_neg, p.ell_minus),
    )
    u_mat = _dense_word(ctx, data.level_one, p.u_coords)
    z = mmul(f, mmul(f, lift(ctx, data.x), ell), u_mat)
    return ell, z, mmul(f, mmul(f, y, z), minv(f, y))


def test_xi_matches_dense_formula(case):
    # Each point is also taken with some of its y, level-one, Levi plus and
    # Levi minus coordinates set to zero; every part has zeros somewhere.
    ctx, rng = case
    f = ctx.field
    parts = ("y_coords", "u_coords", "ell_plus", "ell_minus")
    zeros = dict.fromkeys(parts, 0)
    for _ in range(TRIALS):
        data = _random_section(ctx, rng)
        seed = rng.randrange(10**6)
        p = random_cell_point(data, random.Random(seed))
        zeroed = replace(p, **{k: _zero_some(f, getattr(p, k), rng) for k in parts})
        for k in parts:
            zeros[k] += getattr(zeroed, k).count(f.zero)
        for q in (p, zeroed):
            ell, z, g = _dense_xi(data, q)
            assert ell_matrix(data, q) == ell
            assert xi(data, q) == g
        assert random_section_point(data, random.Random(seed)) == _dense_xi(data, p)[1]
    assert all(zeros.values()), zeros


def _scalar_ok(f, v):
    """Over F_p a plain int in range(p); over Q the canonical form: an int
    when integral, otherwise a Fraction with denominator > 1."""
    if isinstance(f, PrimeField):
        return type(v) is int and 0 <= v < f.p
    return type(v) is int or (type(v) is Fraction and v.denominator > 1)


def test_results_keep_the_field_scalar_type(case):
    # Equality cannot tell Fraction(3) from 3, but mat_key's repr can, so
    # every value a field operation leaves must be in its canonical form.
    ctx, rng = case
    f = ctx.field
    data = _random_section(ctx, rng)
    g = xi(data, random_cell_point(data, rng))
    assert all(_scalar_ok(f, v) for row in g for v in row)
    coxeter = build_cross_section(ctx, from_word(ctx.rs, None, list(range(ctx.n - 1))))
    g = xi(coxeter, random_cell_point(coxeter, rng))
    point = sigma(coxeter, g)
    values = [v for row in g for v in row] + [v for part in astuple(point) for v in part]
    assert all(_scalar_ok(f, v) for v in values)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_mat_key_is_canonical_over_q(n):
    # xi forms g by row and column operations; the dense reference forms it
    # by full products with y^-1 taken by Gauss-Jordan, whose intermediate
    # values leave Z and come back.  Equal matrices must give equal keys.
    ctx = matrix_context(n, "rational")
    rng = random.Random(f"mat-key-{n}")
    non_integral = 0
    for _ in range(TRIALS):
        data = _random_section(ctx, rng)
        p = random_cell_point(data, rng)
        _, _, dense = _dense_xi(data, p)
        g = xi(data, p)
        assert mat_key(g) == mat_key(dense)
        non_integral += sum(type(v) is Fraction for row in g for v in row)
    assert non_integral
