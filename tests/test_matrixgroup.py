import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylconvex.construction import find_convex_representative
from weylconvex.convexity import analyze
from weylconvex.errors import InconsistencyError, InputError, NotInCellError
from weylconvex import matrixgroup
from weylconvex.linalg import rank, rank_mod_p
from weylconvex.matrixgroup import (
    MILLER_RABIN_LIMIT,
    RANK_PRIME,
    PrimeField,
    RationalField,
    adjoint_span_rank,
    _word_matrix,
    build_cross_section,
    enumerate_cell_points,
    enumerate_torus,
    is_prime,
    mat_key,
    matrix_context,
    random_cell_point,
    random_section_point,
    sigma,
    torus_element,
    transversality_check,
    underlying_permutation,
    xi,
)
from weylconvex.roots import diagram_automorphisms
from weylconvex.weyl import (
    TwistedElement,
    conjugacy_classes,
    enumerate_weyl_group,
    expand,
    from_one_line,
    from_word,
)

from reference_matrix import (
    adjoint_span_rank_by_inverse,
    collision_search,
    diag,
    identity_cell_point,
    lift,
    minv,
    mmul,
    u,
    unipotent_coordinates,
)
from reference_weyl import ambient_roots, identity_element, is_quasi_convex


def ctx_of(n, field="rational"):
    return matrix_context(n, field)


def convex_reps(n):
    rs = matrix_context(n, 2).rs
    return [find_convex_representative(c).representative for c in conjugacy_classes(rs)]


def test_lift_identity_and_s1():
    ctx = ctx_of(2)
    ident = identity_element(ctx.rs)
    assert lift(ctx, ident) == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    s1 = from_word(ctx.rs, None, [0])
    assert lift(ctx, s1) == ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))


def test_lift_matches_root_action():
    ctx = ctx_of(5)
    x = from_word(ctx.rs, None, [1, 2, 3, 0, 1, 2])
    pi = underlying_permutation(x)
    for i in range(ctx.rs.count):
        a, b = ctx.pos_of_root[i]
        assert ctx.pos_of_root[x.perm[i]] == (pi[a], pi[b])


def test_lift_conjugates_root_subgroups():
    ctx = ctx_of(4, 101)
    x = from_word(ctx.rs, None, [0, 2, 1])
    P = lift(ctx, x)
    Pinv = minv(ctx.field, P)
    pi = underlying_permutation(x)
    t = ctx.field.of(37)
    for i in range(ctx.rs.count):
        a, b = ctx.pos_of_root[i]
        got = mmul(ctx.field, mmul(ctx.field, P, u(ctx, (a, b), t)), Pinv)
        assert got == u(ctx, (pi[a], pi[b]), t)


def test_chevalley_relations():
    # u(s)u(t) = u(s+t) on one root; [u_ij(s), u_jk(t)] = u_ik(st).
    for p in (101, 2):
        for n in range(3, 7):
            ctx = ctx_of(n, p)
            f = ctx.field
            rng = random.Random(5 * n + p)
            for _ in range(10):
                i, j, k = rng.sample(range(n), 3)
                s, t = f.random(rng), f.random(rng)
                assert mmul(f, u(ctx, (i, j), s), u(ctx, (i, j), t)) == u(
                    ctx, (i, j), f.add(s, t)
                )
                a = u(ctx, (i, j), s)
                b = u(ctx, (j, k), t)
                comm = mmul(
                    f, mmul(f, a, b), mmul(f, minv(f, a), minv(f, b))
                )
                assert comm == u(ctx, (i, k), f.mul(s, t))


def test_unipotent_coordinates_readoff():
    ctx = ctx_of(3)
    f = ctx.field
    v = mmul(f, u(ctx, (0, 1), f.of(4)), u(ctx, (0, 2), f.of(7)))
    coords = unipotent_coordinates(ctx, v, [(0, 1), (0, 2)])
    assert coords == [f.of(4), f.of(7)]
    ident = tuple(tuple(f.one if i == j else f.zero for j in range(3)) for i in range(3))
    assert unipotent_coordinates(ctx, ident, [(0, 1), (0, 2), (1, 2)]) == [f.zero] * 3


def test_unipotent_coordinates_reorder_with_commutator():
    # u12(a) u23(c) rewritten in the order (u23, u12, u13) picks up a
    # commutator correction at u13; direct matrix expansion fixes its value
    # as +ac: u12(a) u23(c) = u23(c) u12(a) u13(ac).
    ctx = ctx_of(3)
    f = ctx.field
    a, c = f.of(3), f.of(5)
    v = mmul(f, u(ctx, (0, 1), a), u(ctx, (1, 2), c))
    expanded = mmul(f, mmul(f, u(ctx, (1, 2), c), u(ctx, (0, 1), a)), u(ctx, (0, 2), a * c))
    assert expanded == v
    coords = unipotent_coordinates(ctx, v, [(1, 2), (0, 1), (0, 2)])
    assert coords == [c, a, a * c]
    back = _word_matrix(f, 3, list(zip([(1, 2), (0, 1), (0, 2)], coords)))
    assert back == v


def test_unipotent_coordinates_rejects_outside_support():
    ctx = ctx_of(3)
    f = ctx.field
    v = u(ctx, (0, 2), f.of(1))
    with pytest.raises(NotInCellError):
        unipotent_coordinates(ctx, v, [(0, 1)])


@pytest.mark.parametrize(
    "order, t, reason",
    [
        ([(0, 0)], 0, "diagonal"),
        ([(0, 1), (0, 1)], 0, "repeat"),
        ([(0, 1), (0, 1)], 5, "repeat"),
        ([(0, 3)], 0, "outside"),
        ([(0, 1), (1, 0)], 0, "mix upper and lower"),
        ([(0, 1), (1, 2)], 0, "closed set"),
    ],
    ids=["diagonal", "repeated-identity", "repeated-u01", "out-of-range",
         "mixed-sides", "not-closed"],
)
def test_unipotent_coordinates_rejects_malformed_orders(order, t, reason):
    ctx = ctx_of(3)
    with pytest.raises(InputError, match=reason):
        unipotent_coordinates(ctx, u(ctx, (0, 1), ctx.field.of(t)), order)


def test_xi_identity_point_returns_z():
    ctx = ctx_of(4, 101)
    x = from_word(ctx.rs, None, [1, 2, 0])
    data = build_cross_section(ctx, x)
    p = identity_cell_point(data)
    assert xi(data, p) == lift(ctx, x)


def test_sigma_on_lift_gives_identity_point():
    ctx = ctx_of(4, 101)
    for rep in convex_reps(4):
        x = from_word(ctx.rs, None, list(rep.word()))
        data = build_cross_section(ctx, x)
        p = sigma(data, lift(ctx, x))
        assert p == identity_cell_point(data)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_roundtrips_over_f101(n):
    ctx = ctx_of(n, 101)
    rng = random.Random(42)
    for rep in convex_reps(n):
        x = from_word(ctx.rs, None, list(rep.word()))
        data = build_cross_section(ctx, x)
        for _ in range(40):
            p = random_cell_point(data, rng)
            g = xi(data, p)
            q = sigma(data, g)
            assert q == p
            assert xi(data, q) == g


@pytest.mark.parametrize("n", [4, 5])
def test_roundtrips_over_mersenne_61(n):
    # At p = 2^61 - 1 a stray float division or an unreduced int shows.
    p = 2 ** 61 - 1
    ctx = ctx_of(n, p)
    rng = random.Random(61)
    for rep in convex_reps(n):
        data = build_cross_section(ctx, from_word(ctx.rs, None, list(rep.word())))
        for _ in range(10):
            point = random_cell_point(data, rng)
            g = xi(data, point)
            assert all(type(v) is int and 0 <= v < p for row in g for v in row)
            q = sigma(data, g)
            assert q == point
            assert xi(data, q) == g


def test_roundtrips_over_rationals():
    ctx = ctx_of(4, "rational")
    rng = random.Random(7)
    for rep in convex_reps(4):
        x = from_word(ctx.rs, None, list(rep.word()))
        data = build_cross_section(ctx, x)
        for _ in range(5):
            p = random_cell_point(data, rng)
            assert sigma(data, xi(data, p)) == p


def test_sigma_rejects_non_quasi_convex():
    ctx = ctx_of(3, 101)
    s1 = from_word(ctx.rs, None, [0])
    data = build_cross_section(ctx, s1)
    with pytest.raises(InputError):
        sigma(data, lift(ctx, s1))


def test_sigma_not_in_cell_reports():
    # A generic diagonal matrix is not in the cell of a Coxeter element.
    ctx = ctx_of(3, 101)
    x = from_word(ctx.rs, None, [0, 1])
    data = build_cross_section(ctx, x)
    f = ctx.field
    g = diag(ctx, [f.of(1), f.of(2), f.of(3)])
    with pytest.raises(NotInCellError):
        sigma(data, g)


_SIGMA_REFUSALS = {
    "cannot be cleared": ([0, 1], ((0, 0, 0), (1, 0, 0), (1, 1, 0))),
    "zero pivot": ([], ((0, 0, 1), (1, 0, 0), (1, 1, 0))),
    "singular diagonal": ([], ((0, 0, 0), (1, 0, 1), (1, 1, 1))),
    "unsolvable": ([1, 0], ((1, 1, 1), (0, 1, 1), (0, 1, 1))),
}


@pytest.mark.parametrize("reason", list(_SIGMA_REFUSALS))
def test_sigma_refusal_over_f2(reason):
    word, g = _SIGMA_REFUSALS[reason]
    ctx = ctx_of(3, 2)
    data = build_cross_section(ctx, from_word(ctx.rs, None, word))
    with pytest.raises(NotInCellError, match=reason):
        sigma(data, g)


def test_sigma_raises_only_not_in_cell_on_random_matrices():
    # Any matrix over F_2 or F_3: sigma returns a point that xi maps back to
    # it, or raises NotInCellError.  Any other exception fails the test.
    rng = random.Random(3)
    reasons = set()
    for n in (3, 4, 5):
        xs, _ = quasi_convex_elements(n)
        for p in (2, 3):
            ctx = ctx_of(n, p)
            for x in xs:
                data = build_cross_section(ctx, x)
                for _ in range(10):
                    g = tuple(tuple(rng.randrange(p) for _ in range(n)) for _ in range(n))
                    try:
                        assert xi(data, sigma(data, g)) == g
                    except NotInCellError as exc:
                        reasons.update(r for r in _SIGMA_REFUSALS if r in str(exc))
    assert reasons == set(_SIGMA_REFUSALS)


def test_exhaustive_injectivity_f2_sl3():
    ctx = ctx_of(3, 2)
    for rep in convex_reps(3):
        x = from_word(ctx.rs, None, list(rep.word()))
        data = build_cross_section(ctx, x)
        images = set()
        total = 0
        for p in enumerate_cell_points(data):
            total += 1
            images.add(mat_key(xi(data, p)))
        assert len(images) == total


def test_sigma_inverts_xi_on_every_f2_point_of_a3_cells():
    # The cells of all five convex representatives that `reps --type A3`
    # prints: 4,096 + 4,096 + 1,024 + 4,096 + 512 points.  Over F_2 half
    # of all coordinates are zero, so every path that skips a zero factor
    # or entry is taken.
    ctx = ctx_of(4, 2)
    total = 0
    for rep in convex_reps(4):
        data = build_cross_section(ctx, from_word(ctx.rs, None, list(rep.word())))
        for p in enumerate_cell_points(data):
            total += 1
            assert sigma(data, xi(data, p)) == p
    assert total == 13824


@pytest.mark.parametrize("n, p", [(3, 3), (3, 5), (4, 3)])
def test_enumerate_torus_is_the_image_of_torus_element(n, p):
    # The reference maps every tuple of units, one per cycle and one per
    # Levi root, through torus_element.
    ctx = ctx_of(n, p)
    units = ctx.field.units()
    for one_line in itertools.permutations(range(1, n + 1)):
        data = build_cross_section(ctx, from_one_line(ctx.rs, one_line))
        nc = len(data.cycles)
        image = {
            torus_element(data, vals[:nc], vals[nc:])
            for vals in itertools.product(units, repeat=nc + len(data.phi_pos))
        }
        assert enumerate_torus(data) == sorted(image)


def test_collision_search_negative_control():
    ctx = ctx_of(3, 2)
    x = from_word(ctx.rs, None, [0, 1])
    data = build_cross_section(ctx, x)
    assert collision_search(data, budget=10_000) is None


def test_collision_search_non_quasi_convex_s1():
    # s1 in GL_3 is not quasi-convex, yet exhausting the tiny F_2 and F_3
    # domains finds no collision: small-field injectivity can survive the
    # loss of quasi-convexity, so the search must report, never assume.
    for p in (2, 3):
        ctx = ctx_of(3, p)
        s1 = from_word(ctx.rs, None, [0])
        data = build_cross_section(ctx, s1)
        assert collision_search(data, budget=10**7) is None


def test_collision_exists_for_gl6_cycle_over_f2_budgeted():
    # The budgeted search over the 6-cycle with levels (1,2,3); a witness,
    # if found within budget, must be genuine.
    ctx = ctx_of(6, 2)
    x = from_one_line(ctx.rs, [6, 3, 1, 5, 2, 4])
    assert not is_quasi_convex(x)
    data = build_cross_section(ctx, x)
    found = collision_search(data, budget=3_000)
    if found is not None:
        p1, p2 = found
        assert p1 != p2
        assert xi(data, p1) == xi(data, p2)


def test_transversality_w0_gl2():
    ctx = ctx_of(2, "rational")
    w0 = from_word(ctx.rs, None, [0])
    data = build_cross_section(ctx, w0)
    rng = random.Random(3)
    for _ in range(5):
        g = random_section_point(data, rng)
        assert transversality_check(data, g)


def test_transversality_identity_degenerate():
    ctx = ctx_of(3, "rational")
    data = build_cross_section(ctx, identity_element(ctx.rs))
    rng = random.Random(4)
    g = random_section_point(data, rng)
    assert transversality_check(data, g)


def test_transversality_convex_battery_gl5():
    ctx = ctx_of(5, "rational")
    x = from_word(ctx.rs, None, [1, 2, 3, 0, 1, 2])
    assert analyze(x).convex
    data = build_cross_section(ctx, x)
    rng = random.Random(11)
    for _ in range(5):
        g = random_section_point(data, rng)
        assert transversality_check(data, g)


def test_transversality_requires_rationals():
    ctx = ctx_of(3, 101)
    x = from_word(ctx.rs, None, [0, 1])
    data = build_cross_section(ctx, x)
    rng = random.Random(1)
    with pytest.raises(InputError):
        transversality_check(data, random_section_point(data, rng))


@pytest.mark.parametrize("n", [3, 4])
def test_adjoint_span_rank_matches_inverse_reference(n):
    # The rank taken on g times the span equals the rank of the span itself,
    # at random section points (rank n^2 for convex x) and at points where
    # it can drop: the lift, the identity, a diagonal matrix and random
    # invertible integer matrices.
    ctx = ctx_of(n, "rational")
    f = ctx.field
    rng = random.Random(70 + n)
    words = [list(rep.word()) for rep in convex_reps(n)]
    words += [[rng.randrange(n - 1) for _ in range(rng.randrange(3 * n))] for _ in range(6)]
    ranks = set()
    for word in words:
        x = from_word(ctx.rs, None, word)
        data = build_cross_section(ctx, x)
        points = [random_section_point(data, rng) for _ in range(3)]
        points.append(lift(ctx, x))
        points.append(diag(ctx, [f.one] * n))
        points.append(diag(ctx, [f.of(rng.randint(1, 5)) for _ in range(n)]))
        while len(points) < 9:
            g = tuple(tuple(f.of(rng.randint(-3, 3)) for _ in range(n)) for _ in range(n))
            if rank(g) == n:
                points.append(g)
        for g in points:
            got = adjoint_span_rank(data, g)
            assert got == adjoint_span_rank_by_inverse(data, g), (word, g)
            ranks.add(got)
    assert n * n in ranks
    assert min(ranks) < n * n - n, sorted(ranks)


def test_rank_prime_is_prime():
    assert is_prime(RANK_PRIME)
    assert not any(map(is_prime, range(RANK_PRIME + 1, 2 ** 15)))


@pytest.fixture(scope="module")
def transversality_battery():
    """(data, g) pairs with their exact verdicts: every quasi-convex element
    of S_5 at two seeded section points, its lift, the identity and a
    diagonal point, where the rank can drop; the convex representatives for
    n = 6, 7, 8 at one seeded section point each."""
    rng = random.Random(2961)
    cases = []
    for x in quasi_convex_elements(5)[0]:
        data = build_cross_section(ctx_of(5), x)
        points = [random_section_point(data, rng) for _ in range(2)]
        points += [lift(data.ctx, x), diag(data.ctx, [1] * 5)]
        points.append(diag(data.ctx, [rng.randint(1, 3) for _ in range(5)]))
        cases += [(data, g) for g in points]
    for n in (6, 7, 8):
        for x in convex_reps(n):
            data = build_cross_section(ctx_of(n), x)
            cases.append((data, random_section_point(data, rng)))
    verdicts = [adjoint_span_rank(data, g) == data.ctx.n ** 2 for data, g in cases]
    assert set(verdicts) == {False, True}
    return cases, verdicts


@pytest.mark.parametrize("p", [RANK_PRIME, 2], ids=["rank-prime", "2"])
def test_transversality_certificate_matches_bareiss(transversality_battery, monkeypatch, p):
    # With a small prime the rank mod p often falls short at full-rank
    # points, and p divides some denominators, so the exact rank decides.
    cases, verdicts = transversality_battery
    monkeypatch.setattr(matrixgroup, "RANK_PRIME", p)
    fallbacks = []
    exact = matrixgroup.adjoint_span_rank
    monkeypatch.setattr(
        matrixgroup, "adjoint_span_rank", lambda data, g: fallbacks.append(g) or exact(data, g)
    )
    assert [transversality_check(data, g) for data, g in cases] == verdicts
    assert len(fallbacks) >= verdicts.count(False)
    if p == 2:
        assert len(fallbacks) > verdicts.count(False)
        assert any(
            type(v) is Fraction and v.denominator % p == 0
            for g in fallbacks for row in g for v in row
        )


def test_rank_prime_certifies_section_points_without_the_exact_rank(monkeypatch):
    # A shortfall mod RANK_PRIME at a full-rank point costs an exact rank.
    # At the A3 representatives' seeded section points and at the n = 16
    # Coxeter element's, the certificate alone decides.
    fallbacks = []
    exact = matrixgroup.adjoint_span_rank
    monkeypatch.setattr(
        matrixgroup, "adjoint_span_rank", lambda data, g: fallbacks.append(g) or exact(data, g)
    )
    rng = random.Random(32749)
    cases = []
    ctx = ctx_of(4)
    for rep in convex_reps(4):
        data = build_cross_section(ctx, from_word(ctx.rs, None, list(rep.word())))
        cases += [(data, random_section_point(data, rng)) for _ in range(40)]
    ctx = ctx_of(16)
    data = build_cross_section(ctx, from_word(ctx.rs, None, list(range(15))))
    cases += [(data, random_section_point(data, rng)) for _ in range(20)]
    assert all(transversality_check(data, g) for data, g in cases)
    assert fallbacks == []


@pytest.mark.parametrize("scale", [RANK_PRIME, Fraction(1, RANK_PRIME)], ids=["times-p", "over-p"])
def test_transversality_falls_back_when_p_divides_the_point(scale):
    # p * g has the span of g scaled by p: full rank over Q, rank 0 mod p.
    # g / p has a denominator p cannot invert.  Both must take the exact rank.
    ctx = ctx_of(4)
    data = build_cross_section(ctx, from_word(ctx.rs, None, [0, 1, 2]))
    g = random_section_point(data, random.Random(29))
    planted = tuple(tuple(RationalField.mul(scale, v) for v in row) for row in g)
    assert transversality_check(data, g)
    assert adjoint_span_rank(data, planted) == 16
    assert transversality_check(data, planted)


@pytest.mark.parametrize("n", [3, 4])
def test_rank_deficient_points_fail_by_both_ranks(n):
    # The points of test_adjoint_span_rank_matches_inverse_reference where
    # the rank drops: the certificate cannot reach n^2 and the check says no.
    ctx = ctx_of(n, "rational")
    f = ctx.field
    rng = random.Random(70 + n)
    words = [list(rep.word()) for rep in convex_reps(n)]
    words += [[rng.randrange(n - 1) for _ in range(rng.randrange(3 * n))] for _ in range(6)]
    deficits = set()
    for word in words:
        x = from_word(ctx.rs, None, word)
        data = build_cross_section(ctx, x)
        points = [random_section_point(data, rng) for _ in range(3)]
        points.append(lift(ctx, x))
        points.append(diag(ctx, [f.one] * n))
        points.append(diag(ctx, [f.of(rng.randint(1, 5)) for _ in range(n)]))
        while len(points) < 9:
            g = tuple(tuple(f.of(rng.randint(-3, 3)) for _ in range(n)) for _ in range(n))
            if rank(g) == n:
                points.append(g)
        for g in points:
            deficit = n * n - adjoint_span_rank(data, g)
            if deficit:
                deficits.add(deficit)
                p = RANK_PRIME
                g_mod = [[v.numerator * pow(v.denominator, -1, p) % p for v in row] for row in g]
                assert rank_mod_p(matrixgroup._span_columns(data, g_mod), p) < n * n
                assert not transversality_check(data, g)
    # A span one short of full rank is among them.
    assert 1 in deficits


def test_elliptic_min_length_dimension_bookkeeping():
    # With empty phi the domain unipotent is all of U.
    ctx = ctx_of(4, 101)
    x = from_word(ctx.rs, None, [0, 1, 2])
    data = build_cross_section(ctx, x)
    assert data.dims()["domain_unipotent"] == ctx.rs.positive_count


def test_lift_rejects_twisted():
    from weylconvex.roots import diagram_automorphisms

    ctx = ctx_of(3)
    flip = [a for a in diagram_automorphisms(ctx.rs) if not a.is_identity][0]
    x = from_word(ctx.rs, flip, [0], twist_power=1)
    with pytest.raises(InputError):
        lift(ctx, x)


def test_lift_rejects_another_contexts_element():
    x = from_word(ctx_of(4).rs, None, [0])
    with pytest.raises(InputError, match="this context's root system"):
        lift(ctx_of(3), x)


def test_matrix_context_needs_n_at_least_2():
    with pytest.raises(InputError, match="n >= 2"):
        matrix_context(1)


def test_build_cross_section_rejects_twisted():
    from weylconvex.roots import diagram_automorphisms

    for n in (3, 4):
        ctx = ctx_of(n)
        flip = [a for a in diagram_automorphisms(ctx.rs) if not a.is_identity][0]
        for word in ([], [0], list(range(n - 1))):
            x = from_word(ctx.rs, flip, word, twist_power=1)
            with pytest.raises(InputError):
                build_cross_section(ctx, x)


@pytest.mark.parametrize("n", range(2, 18))
def test_pos_of_root_is_the_ambient_position(n):
    # Root e_a - e_b sits at matrix position (a, b).  The ambient roots are
    # rebuilt from the simple roots; A16 (n = 17) is the first type-A
    # system whose permutations are tuples, not bytes.
    ctx = matrix_context(n)
    roots = ambient_roots(ctx.rs)
    assert ctx.pos_of_root == {i: (v.index(1), v.index(-1)) for i, v in enumerate(roots)}


def test_lift_commutes_with_levi():
    # lift * L_x = L_x * lift on generators: conjugating a Levi root
    # subgroup or a torus element stays inside the Levi data.
    ctx = ctx_of(4, 101)
    x = from_word(ctx.rs, None, [0, 1, 0])  # w0 of the A2 block inside GL4?
    data = build_cross_section(ctx, x)
    f = ctx.field
    pi = data.pi
    root_of_pos = {p: i for i, p in ctx.pos_of_root.items()}
    for (a, b) in data.phi_pos:
        img = (pi[a], pi[b])
        root = root_of_pos[img]
        assert root in [root_of_pos[p] for p in data.phi_pos + data.phi_neg]
    d = data.cycles
    entries = [f.of(3)] * ctx.n
    for cyc in d:
        val = f.of(7)
        for i in cyc:
            entries[i] = val
    D = diag(ctx, entries)
    P = lift(ctx, x)
    assert mmul(f, mmul(f, P, D), minv(f, P)) == D


def test_roundtrip_pinned_length6_convex_gl5():
    # The convex length-6 element beyond good position, realized in 5x5
    # matrices: the section inverts the conjugation map on random points.
    ctx = ctx_of(5, 101)
    x = from_word(ctx.rs, None, [1, 2, 3, 0, 1, 2])
    assert analyze(x).convex
    data = build_cross_section(ctx, x)
    rng = random.Random(99)
    for _ in range(20):
        p = random_cell_point(data, rng)
        assert sigma(data, xi(data, p)) == p


def test_roundtrips_500_over_rationals_battery():
    # The full randomized volume over the rationals with small integers:
    # 500 seed-pinned roundtrips per convex representative in 3x3 to 5x5.
    for n in (3, 4, 5):
        ctx = ctx_of(n, "rational")
        for rep in convex_reps(n):
            x = from_word(ctx.rs, None, list(rep.word()))
            data = build_cross_section(ctx, x)
            rng = random.Random(1234)
            for _ in range(500):
                p = random_cell_point(data, rng)
                assert sigma(data, xi(data, p)) == p


def quasi_convex_elements(n):
    """Every element of S_n that analyze calls quasi-convex, in enumeration
    order, with the number of them that are convex."""
    rs = matrix_context(n, 2).rs
    ident = diagram_automorphisms(rs)[0]
    elements = (
        TwistedElement(rs, expand(rs, key), ident, 0) for key in enumerate_weyl_group(rs)
    )
    reports = [r for r in map(analyze, elements) if r.quasi_convex]
    return [r.x for r in reports], sum(r.convex for r in reports)


def test_every_quasi_convex_element_of_s5_roundtrips_and_is_transversal_over_q():
    # sigma is defined for every quasi-convex element, not only for the
    # representatives the construction picks.  The census counts: 48
    # quasi-convex elements, 38 of them convex.
    xs, convex = quasi_convex_elements(5)
    assert (len(xs), convex) == (48, 38)
    ctx = ctx_of(5, "rational")
    rng = random.Random(5038)
    for x in xs:
        data = build_cross_section(ctx, x)
        for _ in range(5):
            p = random_cell_point(data, rng)
            assert sigma(data, xi(data, p)) == p
        assert transversality_check(data, random_section_point(data, rng))


def test_every_quasi_convex_element_of_s6_roundtrips_over_f101():
    xs, convex = quasi_convex_elements(6)
    assert (len(xs), convex) == (197, 146)
    ctx = ctx_of(6, 101)
    rng = random.Random(6146)
    for x in xs:
        data = build_cross_section(ctx, x)
        for _ in range(5):
            p = random_cell_point(data, rng)
            assert sigma(data, xi(data, p)) == p


def test_sigma_ends_by_checking_its_point(monkeypatch):
    # The coordinates sigma reads are not multiplied back; a wrong one is
    # caught by the closing check xi(sigma(g)) = g.
    import weylconvex.matrixgroup as mg

    ctx = ctx_of(5, 101)
    data = build_cross_section(ctx, from_word(ctx.rs, None, [1, 2, 3, 0, 1, 2]))
    g = xi(data, random_cell_point(data, random.Random(11)))
    read = mg._read_coordinates

    def one_wrong(ctx, reading, mat):
        coords = read(ctx, reading, mat)
        if reading is data.y_order:
            k = next(k for k, t in enumerate(coords) if t)
            coords[k] = ctx.field.add(coords[k], ctx.field.one)
        return coords

    monkeypatch.setattr(mg, "_read_coordinates", one_wrong)
    with pytest.raises(NotInCellError, match="did not reproduce the input matrix"):
        sigma(data, g)


def test_build_cross_section_checks_the_level_descent(monkeypatch):
    # sigma does not scan its lifted level words for support, because
    # build_cross_section checks that each level below the top is closed.
    import weylconvex.roots

    ctx = ctx_of(5, 101)
    x = from_word(ctx.rs, None, [0, 1, 2, 3, 0, 1])
    report = analyze(x)
    assert report.quasi_convex and not report.convex and report.max_level >= 2
    monkeypatch.setattr(weylconvex.roots, "is_closed", lambda rs, roots: False)
    with pytest.raises(InconsistencyError, match="does not descend into a closed level 1"):
        build_cross_section(ctx, x)


def test_build_cross_section_checks_the_descent_of_its_levels(monkeypatch):
    # The levels of the Coxeter element 1,2,3,4 handed to 1,2,3,4,1,2: all
    # closed, but they do not descend under x.
    import weylconvex.matrixgroup as mg

    ctx = ctx_of(5, 101)
    x = from_word(ctx.rs, None, [0, 1, 2, 3, 0, 1])
    other = analyze(from_word(ctx.rs, None, [0, 1, 2, 3]))
    assert other.quasi_convex
    monkeypatch.setattr(mg, "analyze", lambda y: other)
    with pytest.raises(InconsistencyError, match="does not descend into level"):
        build_cross_section(ctx, x)


def test_level_check_refuses_levels_that_do_not_descend():
    # The closed levels of x under the root permutation of another element:
    # only the descent can fail.
    from weylconvex.convexity import INFINITY, _check_descent

    ctx = ctx_of(5, 101)
    x = from_word(ctx.rs, None, [0, 1, 2, 3, 0, 1])
    table = analyze(x).n_table
    grouped = {}
    for i in range(ctx.rs.positive_count):
        if table[i] is not INFINITY:
            grouped.setdefault(int(table[i]), []).append(i)
    _check_descent(x, grouped)
    with pytest.raises(InconsistencyError, match="level 2 does not descend"):
        _check_descent(identity_element(ctx.rs), grouped)


Q = RationalField()


def _canonical_q(v):
    return type(v) is int or (type(v) is Fraction and v.denominator > 1)


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12).map(
    lambda q: q.numerator if q.denominator == 1 else q
)


@settings(max_examples=200, deadline=None)
@given(rationals, rationals)
def test_rational_field_matches_fraction_arithmetic_in_canonical_form(a, b):
    fa, fb = Fraction(a), Fraction(b)
    assert _canonical_q(a) and _canonical_q(b)
    for got, want in (
        (Q.add(a, b), fa + fb),
        (Q.sub(a, b), fa - fb),
        (Q.mul(a, b), fa * fb),
        (Q.neg(a), -fa),
    ):
        assert got == want and _canonical_q(got)
    if b:
        got = Q.div(a, b)
        assert got == fa / fb and _canonical_q(got)
    else:
        with pytest.raises(ZeroDivisionError):
            Q.div(a, b)


def test_rational_field_constants_and_draws_are_ints():
    assert type(Q.zero) is int and type(Q.one) is int
    assert Q.zero == 0 and Q.one == 1
    assert all(type(Q.of(v)) is int and Q.of(v) == v for v in range(-7, 8))
    assert not hasattr(Q, "p")  # the benchmark's trace tags Q by its missing p
    rng, ref = random.Random(19), random.Random(19)
    for _ in range(2000):
        v = Q.random(rng)
        assert type(v) is int and v == ref.randint(-5, 5)
        t = Q.random_unit(rng)
        assert type(t) is int and t != 0
        want = 0
        while want == 0:
            want = ref.randint(-5, 5)
        assert t == want


def _is_prime_by_trial_division(p):
    return p >= 2 and all(p % q for q in range(2, int(p ** 0.5) + 1))


def test_is_prime_matches_trial_division_below_1e5():
    assert [p for p in range(-3, 10 ** 5) if is_prime(p)] == [
        p for p in range(-3, 10 ** 5) if _is_prime_by_trial_division(p)
    ]


@pytest.mark.parametrize("p", [2047, 3215031751], ids=["spsp2", "spsp2-3-5-7"])
def test_is_prime_rejects_strong_pseudoprimes(p):
    assert not is_prime(p)
    with pytest.raises(InputError):
        PrimeField(p)


def test_is_prime_accepts_mersenne_61_quickly():
    start = time.process_time()
    assert PrimeField(2 ** 61 - 1).p == 2 ** 61 - 1
    assert time.process_time() - start < 0.5


def test_is_prime_refuses_beyond_the_deterministic_bound():
    assert not is_prime(MILLER_RABIN_LIMIT - 1)  # divisible by 5
    with pytest.raises(InputError):
        is_prime(MILLER_RABIN_LIMIT)
