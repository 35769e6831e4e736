import random
from fractions import Fraction

import pytest

from weylconvex.convexity import analyze, n_of, phi_of
from weylconvex.errors import InputError
from weylconvex.geometry import (
    _feasible_homogeneous,
    _field_vector,
    _int_feasible_homogeneous,
    admissible_enumerations,
    angle_list,
    angle_perp_roots,
    eigen_angles,
    exact_angle_basis,
    fixed_space_dim,
    good_position_length,
    is_admissible,
    is_good_position,
    regular_point,
    separation_witness,
)
from weylconvex.quadfield import QuadExt, sign_of
from weylconvex.roots import CartanType, build_root_system
from weylconvex.weyl import (
    fixed_roots,
    from_word,
    identity_element,
    longest_element,
)

RS = {}


def rs_of(name):
    if name not in RS:
        RS[name] = build_root_system(CartanType.parse(name))
    return RS[name]


def ambient(rs, coeff_vec):
    """Simple-root coordinates to ambient coordinates."""
    out = [Fraction(0)] * rs.ambient_dim
    for lab, c in enumerate(coeff_vec):
        root = rs.roots[rs.simple_indices[lab]]
        for t in range(rs.ambient_dim):
            out[t] += c * root[t]
    return tuple(out)


def test_eigen_angles_identity():
    rs = rs_of("A3")
    x = identity_element(rs)
    assert eigen_angles(x) == []
    assert fixed_space_dim(x) == 3


def test_eigen_angles_s2s1s3():
    rs = rs_of("A3")
    x = from_word(rs, None, [1, 0, 2])
    comps = {c.angle: c.dim for c in eigen_angles(x)}
    assert comps == {Fraction(1, 2): 2, Fraction(1): 1}
    # The pi eigenspace is the line (a,-a,-a,a), i.e. coefficients (1,0,-1).
    basis = exact_angle_basis(x, Fraction(1))
    assert len(basis) == 1
    amb = ambient(rs, basis[0])
    a = amb[0]
    assert amb == (a, -a, -a, a) and a != 0
    # And the pi/2 plane consists of the vectors (a,b,-b,-a).
    basis2 = exact_angle_basis(x, Fraction(1, 2))
    assert len(basis2) == 2
    for b in basis2:
        v = ambient(rs, b)
        assert v[0] == -v[3] and v[1] == -v[2]


def test_eigen_angles_a4_coxeter():
    rs = rs_of("A4")
    x = from_word(rs, None, [0, 1, 2, 3])
    comps = {c.angle: c.dim for c in eigen_angles(x)}
    assert comps == {Fraction(2, 5): 2, Fraction(4, 5): 2}


def test_eigen_angle_dims_sum_to_rank():
    for name, word in (("A3", [1, 0, 2]), ("B3", [0, 1, 2]), ("G2", [0, 1]),
                       ("A4", [0, 1, 2, 3, 0, 1])):
        rs = rs_of(name)
        x = from_word(rs, None, word)
        total = fixed_space_dim(x) + sum(c.dim for c in eigen_angles(x))
        assert total == rs.rank


def test_eigenbasis_satisfies_defining_equation():
    rs = rs_of("A4")
    x = from_word(rs, None, [0, 1, 2, 3])
    import math

    M = x.matrix()
    Minv = x.inverse().matrix()
    for comp in eigen_angles(x):
        c2 = 2 * math.cos(math.pi * float(comp.angle))
        for v in comp.basis:
            got = [
                sum((M[i][j] + Minv[i][j]) * v[j] for j in range(len(v)))
                for i in range(len(v))
            ]
            want = [c2 * vi for vi in v]
            assert all(abs(a - b) < 1e-9 for a, b in zip(got, want))


def test_eigenspace_same_for_inverse():
    rs = rs_of("A3")
    x = from_word(rs, None, [1, 0, 2])
    for angle in (Fraction(1, 2), Fraction(1)):
        b1 = exact_angle_basis(x, angle)
        b2 = exact_angle_basis(x.inverse(), angle)
        assert len(b1) == len(b2)
        # Same space: each basis vector of one is orthogonal to the same roots.
        s1 = angle_perp_roots(x, angle)
        s2 = angle_perp_roots(x.inverse(), angle)
        assert s1 == s2


def test_float_basis_for_degree3_field():
    # A6 Coxeter has rotation order 7, outside the quadratic range.
    rs = rs_of("A6")
    x = from_word(rs, None, list(range(6)))
    comps = eigen_angles(x)
    assert [c.dim for c in comps] == [2, 2, 2]


def test_regular_point_psi_for_pi_eigenspace():
    rs = rs_of("A3")
    x = from_word(rs, None, [1, 0, 2])
    basis = exact_angle_basis(x, Fraction(1))
    point, psi = regular_point(basis, rs)
    # Psi consists of +-(e1-e4) and +-(e2-e3): solve (v, gamma) = 0 on the line.
    named = {tuple(int(t) for t in rs.roots[g]) for g in psi}
    assert named == {
        (1, 0, 0, -1), (-1, 0, 0, 1), (0, 1, -1, 0), (0, -1, 1, 0),
    }
    for g in range(rs.count):
        if g not in psi:
            assert rs.pair_with_root(point, g) != 0


def test_regular_point_full_space():
    rs = rs_of("B2")
    ident = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    point, psi = regular_point(ident, rs)
    assert psi == frozenset()


def test_regular_point_empty_basis():
    rs = rs_of("A2")
    assert regular_point([], rs) is None


def test_admissible_full_enumeration_always():
    for name, word in (("A3", [1, 0, 2]), ("B3", [0, 1, 2]), ("G2", [0, 1])):
        rs = rs_of(name)
        x = from_word(rs, None, word)
        angles = [a for a, _ in angle_list(x)]
        assert is_admissible(x, angles)
        assert is_admissible(x, list(reversed(angles)))


def test_admissible_empty_sequence_iff_identity():
    rs = rs_of("A2")
    assert is_admissible(identity_element(rs), [])
    assert not is_admissible(from_word(rs, None, [0, 1]), [])


def test_admissible_enumerations_a4_coxeter():
    rs = rs_of("A4")
    x = from_word(rs, None, [0, 1, 2, 3])
    enums = admissible_enumerations(x)
    assert enums == [
        (Fraction(2, 5), Fraction(4, 5)),
        (Fraction(4, 5), Fraction(2, 5)),
    ]


def test_admissible_rejects_foreign_angle():
    rs = rs_of("A3")
    x = from_word(rs, None, [1, 0, 2])
    with pytest.raises(InputError):
        is_admissible(x, [Fraction(2, 5)])


def test_good_position_s2s1s3():
    rs = rs_of("A3")
    x = from_word(rs, None, [1, 0, 2])
    cert = is_good_position(x, [Fraction(1, 2), Fraction(1)])
    assert cert is not None
    assert cert.exact
    assert cert.h_values[0] == 6
    assert good_position_length(cert) == x.length() == 3
    # The reversed sequence fails: V^pi meets the closed chamber only at 0.
    assert is_good_position(x, [Fraction(1), Fraction(1, 2)]) is None


def test_good_position_s1s2s3_fails_both():
    rs = rs_of("A3")
    x = from_word(rs, None, [0, 1, 2])
    assert is_good_position(x, [Fraction(1, 2), Fraction(1)]) is None
    assert is_good_position(x, [Fraction(1), Fraction(1, 2)]) is None


def test_good_position_w0():
    # w0 acts as -1 on B2, so the single angle pi works and the length
    # formula gives the number of positive roots.
    rs = rs_of("B2")
    from weylconvex.weyl import TwistedElement
    from weylconvex.roots import diagram_automorphisms

    w0 = TwistedElement(rs, longest_element(rs), diagram_automorphisms(rs)[0], 0)
    cert = is_good_position(w0, [Fraction(1)])
    assert cert is not None
    assert good_position_length(cert) == 4


def test_certificate_implies_convex_and_phi_fixed():
    # Theorem link run on each certificate this file produces.
    cases = [
        ("A3", [1, 0, 2], [Fraction(1, 2), Fraction(1)]),
        ("B2", [0, 1], None),
        ("G2", [0, 1], None),
    ]
    for name, word, seq in cases:
        rs = rs_of(name)
        x = from_word(rs, None, word)
        if seq is None:
            seq = [a for a, _ in angle_list(x)]
        cert = is_good_position(x, seq)
        if cert is None:
            continue
        rep = analyze(x)
        assert rep.convex
        assert phi_of(x) == fixed_roots(x)
        assert good_position_length(cert) == x.length()


def test_separation_witness_matches_levels():
    rs = rs_of("A3")
    x = from_word(rs, None, [1, 0, 2])
    cert = is_good_position(x, [Fraction(1, 2), Fraction(1)])
    e = cert.stage_points[0]
    psi = cert.parabolic_chain[1]
    for g in range(rs.positive_count):
        if g in psi:
            continue
        assert separation_witness(x, e, g) == n_of(x, g)


def test_separation_witness_w0():
    rs = rs_of("B2")
    from weylconvex.weyl import TwistedElement
    from weylconvex.roots import diagram_automorphisms

    w0 = TwistedElement(rs, longest_element(rs), diagram_automorphisms(rs)[0], 0)
    cert = is_good_position(w0, [Fraction(1)])
    e = cert.stage_points[0]
    for g in range(rs.positive_count):
        assert separation_witness(w0, e, g) == 1 == n_of(w0, g)


def test_separation_witness_a4_coxeter():
    rs = rs_of("A4")
    x = from_word(rs, None, [0, 1, 2, 3])
    seq = [Fraction(2, 5), Fraction(4, 5)]
    # Scan the cyclic-shift class for a good-position member, then compare
    # the separation oracle with the level function on all ten positives.
    from weylconvex.weyl import cyclic_shift_class

    for y in cyclic_shift_class(x):
        cert = is_good_position(y, seq)
        if cert is not None:
            e = cert.stage_points[0]
            for g in range(rs.positive_count):
                assert separation_witness(y, e, g) == n_of(y, g)
            assert good_position_length(cert) == y.length() == 4
            break
    else:
        pytest.fail("no good-position element found in the A4 Coxeter shift class")


def test_dominant_regular_point_gives_standard_parabolic():
    # From a dominant regular point, the orthogonal roots form a standard
    # parabolic subsystem and contain phi_x.
    rs = rs_of("A3")
    x = from_word(rs, None, [1, 0, 2])
    cert = is_good_position(x, [Fraction(1, 2), Fraction(1)])
    for i, point in enumerate(cert.regular_points):
        psi = cert.parabolic_chain[i + 1]
        labels = frozenset(
            lab for lab in range(rs.rank) if rs.simple_indices[lab] in psi
        )
        assert rs.parabolic_closure(labels) == psi
        assert phi_of(x) <= psi


def test_float_basis_is_stable_under_x():
    # x maps each float basis vector back into the span of the basis.
    rs = rs_of("A4")
    x = from_word(rs, None, [0, 1, 2, 3])
    M = x.matrix()

    def orthonormalize(vectors):
        out = []
        for v in vectors:
            w = list(v)
            for u in out:
                c = sum(a * b for a, b in zip(w, u))
                w = [a - c * b for a, b in zip(w, u)]
            norm = sum(a * a for a in w) ** 0.5
            assert norm > 1e-9
            out.append([a / norm for a in w])
        return out

    for comp in eigen_angles(x):
        frame = orthonormalize([list(b) for b in comp.basis])
        for v in comp.basis:
            img = [sum(M[i][j] * v[j] for j in range(len(v))) for i in range(len(v))]
            work = list(img)
            for u in frame:
                c = sum(a * b for a, b in zip(work, u))
                work = [a - c * b for a, b in zip(work, u)]
            assert all(abs(t) < 1e-8 for t in work)


def test_twisted_good_position_certificates():
    # Good position is defined on the twisted cosets too; every certificate
    # found there must carry the same consequences as in the untwisted case.
    from weylconvex.roots import diagram_automorphisms
    from weylconvex.weyl import conjugacy_classes
    from weylconvex.quadfield import two_cos_exact

    verified = 0
    for name in ("A2", "A3"):
        rs = rs_of(name)
        flip = [a for a in diagram_automorphisms(rs) if not a.is_identity][0]
        for cls in conjugacy_classes(rs, flip, 1):
            rep = cls.representative
            angles = [a for a, _ in angle_list(rep)]
            if not angles or any(two_cos_exact(a) is None for a in angles):
                continue
            for y in cls.elements:
                cert = is_good_position(y, angles)
                if cert is None:
                    continue
                assert analyze(y).convex
                assert phi_of(y) == fixed_roots(y)
                assert good_position_length(cert) == y.length()
                verified += 1
                break
    assert verified >= 5


def test_triality_good_position_certificates():
    from weylconvex.roots import diagram_automorphisms
    from weylconvex.weyl import conjugacy_classes

    rs = rs_of("D4")
    tri = [a for a in diagram_automorphisms(rs) if a.order == 3][0]
    verified = 0
    for cls in conjugacy_classes(rs, tri, 1):
        rep = cls.representative
        angles = [a for a, _ in angle_list(rep)]
        if not angles:
            continue
        for y in cls.elements:
            cert = is_good_position(y, angles)
            if cert is None:
                continue
            assert analyze(y).convex
            assert phi_of(y) == fixed_roots(y)
            assert good_position_length(cert) == y.length()
            verified += 1
            break
    assert verified >= 5


def test_quadratic_field_certificates_b4_f4():
    # B4 exercises Q(sqrt 2) angle data, F4 exercises Q(sqrt 3).
    from weylconvex.weyl import class_of

    for name, disc_angles in (("B4", [Fraction(1, 4), Fraction(3, 4)]),
                              ("F4", [Fraction(1, 6), Fraction(5, 6)])):
        rs = rs_of(name)
        c = from_word(rs, None, list(range(rs.rank)))
        assert [a for a, _ in angle_list(c)] == disc_angles
        cls = class_of(c)
        found = 0
        for y in cls.elements:
            cert = is_good_position(y, disc_angles)
            if cert is None:
                continue
            assert cert.exact
            assert analyze(y).convex
            assert good_position_length(cert) == y.length()
            e = cert.stage_points[0]
            psi = cert.parabolic_chain[1]
            for g in range(rs.positive_count):
                if g not in psi:
                    assert separation_witness(y, e, g) == n_of(y, g)
            found += 1
            if found >= 2:
                break
        assert found >= 1, name


def test_truncated_sequence_agrees_when_tail_is_vacuous():
    # For the A4 Coxeter class no root is orthogonal to either rotation
    # plane, so the single-angle sequence decides exactly like the full one.
    rs = rs_of("A4")
    from weylconvex.weyl import cyclic_shift_class

    x = from_word(rs, None, [0, 1, 2, 3])
    assert is_admissible(x, [Fraction(2, 5)])
    for y in cyclic_shift_class(x):
        full = is_good_position(y, [Fraction(2, 5), Fraction(4, 5)]) is not None
        short = is_good_position(y, [Fraction(2, 5)]) is not None
        assert full == short


# ---------------------------------------------------------------------------
# The integer elimination against the generic one on field scalars.


def _random_cone(rng, D, nvars):
    """Integer rows (A, B, strict) with repeated and proportional copies."""
    rows = []
    for _ in range(rng.randint(2, 6)):
        A = tuple(rng.randint(-3, 3) for _ in range(nvars))
        B = tuple(rng.randint(-2, 2) if D > 1 else 0 for _ in range(nvars))
        rows.append((A, B, rng.random() < 0.3))
    for _ in range(rng.randint(1, 3)):
        A, B, strict = rng.choice(rows)
        kind = rng.randrange(3)
        if kind == 0:  # the same row, maybe with the other strictness
            rows.append((A, B, rng.random() < 0.5))
        elif kind == 1:  # a positive integer multiple
            c = rng.randint(2, 4)
            rows.append((tuple(c * a for a in A), tuple(c * b for b in B), strict))
        elif D > 1:  # times 3 + sqrt(D), positive but not rational
            rows.append((
                tuple(3 * a + D * b for a, b in zip(A, B)),
                tuple(a + 3 * b for a, b in zip(A, B)),
                strict,
            ))
    rng.shuffle(rows)
    return rows


def _field_row(rng, A, B, D):
    """The row over Q or Q(sqrt D), divided by a random positive integer."""
    den = rng.randint(1, 6)
    if D == 1:
        return [Fraction(a, den) for a in A]
    return [QuadExt(Fraction(a, den), Fraction(b, den), D) for a, b in zip(A, B)]


@pytest.mark.parametrize("D", [1, 2, 3, 5])
def test_int_elimination_matches_generic(D):
    rng = random.Random(600 + D)
    zero = Fraction(0) if D == 1 else QuadExt(0, 0, D)
    one = Fraction(1) if D == 1 else QuadExt(1, 0, D)
    outcomes = {True: 0, False: 0}
    for _ in range(150):
        nvars = rng.randint(1, 4)
        rows = _random_cone(rng, D, nvars)
        field_rows = [(_field_row(rng, A, B, D), strict) for A, B, strict in rows]
        want = _feasible_homogeneous(field_rows, nvars, zero, one)
        got = _int_feasible_homogeneous(rows, nvars, D)
        assert (got is None) == (want is None), rows
        outcomes[got is not None] += 1
        if got is None:
            continue
        w = _field_vector(*got, D)
        assert [repr(v) for v in w] == [repr(v) for v in want], rows
        for row, strict in field_rows:
            s = sign_of(sum((a * c for a, c in zip(row, w)), zero))
            assert s > 0 if strict else s >= 0
    assert min(outcomes.values()) >= 20, outcomes
