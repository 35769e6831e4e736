import json
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd

import pytest

from weylconvex import geometry
from weylconvex.construction import find_good_position_conjugate
from weylconvex.convexity import analyze, n_of, phi_of
from weylconvex.errors import InconsistencyError, InputError
from weylconvex.geometry import (
    _chamber_point,
    admissible_enumerations,
    angle_list,
    exact_angle_basis,
    good_position_length,
    is_admissible,
    is_good_position,
    regular_point,
)
from weylconvex.quadfield import (
    array_combination,
    array_dot,
    cos_field,
    field_for,
    two_cos_in,
)
from weylconvex.reports import parse_sequence, parse_word
from weylconvex.roots import CartanType, build_root_system
from weylconvex.weyl import (
    fixed_roots,
    from_word,
    longest_element,
    rotation_spectrum,
)

from reference_geometry import (
    angle_perp_roots,
    cumulative_points,
    feasible_homogeneous,
    fixed_space_dim,
    int_kernel_basis,
    kernel_basis,
    reference_stage_point,
    separation_witness,
    sign_of,
)
from reference_matrix import OperatorField, rref
from reference_weyl import ambient, identity_element, matrix

RS = {}


def rs_of(name):
    if name not in RS:
        RS[name] = build_root_system(CartanType.parse(name))
    return RS[name]


def exact_components(x):
    """{angle: exact basis of V_x^theta as K_L vectors} over all rotation angles of x."""
    out = {}
    for angle, _ in angle_list(x):
        den, arrays = exact_angle_basis(x, angle)
        out[angle] = [field_for([angle]).vector(B, den) for B in arrays]
    return out


def test_eigen_angles_identity():
    rs = rs_of("A3")
    x = identity_element(rs)
    assert angle_list(x) == []
    assert fixed_space_dim(x) == 3


def test_eigen_angles_s2s1s3():
    rs = rs_of("A3")
    x = from_word(rs, None, [1, 0, 2])
    components = exact_components(x)
    comps = {a: len(b) for a, b in components.items()}
    assert comps == dict(angle_list(x)) == {Fraction(1, 2): 2, Fraction(1): 1}
    # The pi eigenspace is the line (a,-a,-a,a), i.e. coefficients (1,0,-1).
    basis = components[Fraction(1)]
    assert len(basis) == 1
    amb = ambient(rs, basis[0])
    a = amb[0]
    assert amb == (a, -a, -a, a) and a != 0
    # And the pi/2 plane consists of the vectors (a,b,-b,-a).
    basis2 = components[Fraction(1, 2)]
    assert len(basis2) == 2
    for b in basis2:
        v = ambient(rs, b)
        assert v[0] == -v[3] and v[1] == -v[2]


def test_eigen_angles_a4_coxeter():
    rs = rs_of("A4")
    x = from_word(rs, None, [0, 1, 2, 3])
    comps = {a: len(b) for a, b in exact_components(x).items()}
    assert comps == dict(angle_list(x)) == {Fraction(2, 5): 2, Fraction(4, 5): 2}


def test_eigen_angle_dims_sum_to_rank():
    for name, word in (("A3", [1, 0, 2]), ("B3", [0, 1, 2]), ("G2", [0, 1]),
                       ("A4", [0, 1, 2, 3, 0, 1]), ("A6", list(range(6)))):
        rs = rs_of(name)
        x = from_word(rs, None, word)
        total = fixed_space_dim(x) + sum(len(b) for b in exact_components(x).values())
        assert total == rs.rank


def test_eigenbasis_satisfies_defining_equation():
    # (M + M^-1) v = 2cos(theta) v exactly, in quadratic and cubic fields.
    for name, word in (("A4", [0, 1, 2, 3]), ("A6", list(range(6)))):
        rs = rs_of(name)
        x = from_word(rs, None, word)
        M = matrix(x)
        Minv = matrix(x.inverse())
        for angle, basis in exact_components(x).items():
            c2 = two_cos_in(angle, field_for([angle]))
            for v in basis:
                got = [
                    sum((M[i][j] + Minv[i][j]) * v[j] for j in range(len(v)))
                    for i in range(len(v))
                ]
                assert got == [c2 * vi for vi in v]


def test_eigenspace_same_for_inverse():
    rs = rs_of("A3")
    x = from_word(rs, None, [1, 0, 2])
    for angle in (Fraction(1, 2), Fraction(1)):
        _, b1 = exact_angle_basis(x, angle)
        _, b2 = exact_angle_basis(x.inverse(), angle)
        assert len(b1) == len(b2)
        # Same space: each basis vector of one is orthogonal to the same roots.
        s1 = angle_perp_roots(x, angle)
        s2 = angle_perp_roots(x.inverse(), angle)
        assert s1 == s2


def _perp_check_elements():
    from weylconvex.roots import diagram_automorphisms
    from weylconvex.weyl import conjugacy_classes

    for name in ("A4", "B3", "D4", "F4", "E6"):
        for cls in conjugacy_classes(rs_of(name)):
            yield cls.representative
    for name in ("A3", "D4"):
        rs = rs_of(name)
        flip = [a for a in diagram_automorphisms(rs) if a.order == 2][0]
        for cls in conjugacy_classes(rs, flip, 1):
            yield cls.representative
    yield from_word(rs_of("A6"), None, list(range(6)))


def test_angle_perp_roots_match_exact_bases():
    # The permutation test sees V_x^theta through ker Phi_d(x); the exact
    # K_L basis of V_x^theta itself must give the same perp set, and the
    # roots orthogonal to every angle are exactly the fixed roots.
    degrees = set()
    for x in _perp_check_elements():
        rs = x.rs
        common = frozenset(range(rs.count))
        for angle, _ in angle_list(x):
            _, basis = exact_angle_basis(x, angle)
            degrees.add(field_for([angle]).degree)
            _, perp = regular_point(basis, rs)
            assert angle_perp_roots(x, angle) == perp, (x.word(), angle)
            common &= perp
        assert common == fixed_roots(x), x.word()
    assert degrees == {1, 2, 3}  # E6's order-9 class and A6's Coxeter class are cubic


def test_exact_basis_for_degree3_field():
    # A6 Coxeter has rotation order 7: its angles live in the cubic K_7.
    rs = rs_of("A6")
    x = from_word(rs, None, list(range(6)))
    assert field_for([a for a, _ in angle_list(x)]).degree == 3
    assert [len(b) for b in exact_components(x).values()] == [2, 2, 2]


def test_regular_point_psi_for_pi_eigenspace():
    rs = rs_of("A3")
    x = from_word(rs, None, [1, 0, 2])
    _, basis = exact_angle_basis(x, Fraction(1))
    point, psi = regular_point(basis, rs)
    # Psi consists of +-(e1-e4) and +-(e2-e3): solve (v, gamma) = 0 on the line.
    named = {tuple(int(t) for t in ambient(rs, rs.coeffs[g])) for g in psi}
    assert named == {
        (1, 0, 0, -1), (-1, 0, 0, 1), (0, 1, -1, 0), (0, -1, 1, 0),
    }
    for g in range(rs.count):
        if g not in psi:
            assert any(array_dot(point, rs.int_pairing_rows[g]))


def test_regular_point_full_space():
    rs = rs_of("B2")
    ident = [((1, 0),), ((0, 1),)]
    point, psi = regular_point(ident, rs)
    assert psi == frozenset()


def test_regular_point_empty_basis():
    rs = rs_of("A2")
    assert regular_point([], rs) is None


def test_regular_point_falls_back_after_its_draw_cap(monkeypatch):
    # Draws of all zeros never give a point.  After the capped draws the
    # moment curve p(t) = B_0 + t B_1 gives one: with alpha_2 short, p(1) =
    # alpha_1 + alpha_2 = e_1 is orthogonal to e_2, and p(2) = e_1 + e_2 to
    # e_1 - e_2, but p(3) = e_1 + 2e_2 is regular.
    class Zeros(random.Random):
        draws = 0

        def randint(self, a, b):
            Zeros.draws += 1
            return 0

    monkeypatch.setattr(geometry, "REGULAR_POINT_RETRIES", 3)
    rs = rs_of("B2")
    ident = [((1, 0),), ((0, 1),)]
    point, psi = regular_point(ident, rs, rng=Zeros())
    assert Zeros.draws == 3 * len(ident)
    assert point == ((1, 3),)
    assert psi == frozenset()


def test_moment_curve_point_meets_its_bound():
    # Planted: row i pairs with p(t) = B_0 + t B_1 + t^2 B_2 as
    # (t - 2i - 1)(t - 2i - 2), so t = 1, ..., 6 each put p(t) on one
    # hyperplane, and t = 7 = |off| (d - 1) + 1, the bound, is the first
    # regular value.
    basis = [((2, 12, 30),), ((-3, -7, -11),), ((1, 1, 1),)]
    off = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert geometry._moment_curve_point(basis, off) == array_combination([1, 7, 49], basis)
    # A row orthogonal to the whole basis vanishes at every t: the search
    # gives up after the bound for four rows, 4 * 2 + 1 = 9 values.
    with pytest.raises(InconsistencyError, match=r"in 9 values of t"):
        geometry._moment_curve_point(basis, off + [(0, 0, 0)])


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


def test_good_position_refuses_an_inadmissible_sequence():
    # V^pi alone is orthogonal to roots that s2 s1 s3 does not fix.
    rs = rs_of("A3")
    x = from_word(rs, None, [1, 0, 2])
    assert not is_admissible(x, [Fraction(1)])
    with pytest.raises(InputError, match="not admissible"):
        is_good_position(x, [Fraction(1)])


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
    w0 = longest_element(rs)
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
    w0 = longest_element(rs)
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
    # The zero set of each cumulative point, the next parabolic of the
    # chain, is a standard parabolic subsystem and contains phi_x.
    rs = rs_of("A3")
    x = from_word(rs, None, [1, 0, 2])
    cert = is_good_position(x, [Fraction(1, 2), Fraction(1)])
    for psi in cert.parabolic_chain[1:]:
        labels = frozenset(
            lab for lab in range(rs.rank) if rs.simple_indices[lab] in psi
        )
        assert rs.parabolic_closure(labels) == psi
        assert phi_of(x) <= psi


GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def _golden_inputs():
    """(element, sequence) of every good-position golden."""
    out = []
    for path in sorted(GOLDEN_DIR.glob("good_position_*.txt")):
        params = json.loads(path.read_text())["params"]
        x = from_word(rs_of(params["type"]), None, parse_word(params["word"]))
        out.append((x, parse_sequence(params["sequence"])))
    return out


def _golden_certificates():
    """(root system, certificate) for every good-position golden that has one."""
    certs = ((x.rs, is_good_position(x, seq)) for x, seq in _golden_inputs())
    return [(rs, cert) for rs, cert in certs if cert is not None]


def test_stage_points_match_per_target_witnesses(monkeypatch):
    # The engine against `reference_stage_point`, which runs one generic
    # cone query per target root and combines the witnesses: equal
    # certificates, and equal None verdicts, on every good-position golden
    # and every admissible enumeration of the class representatives.
    from weylconvex.weyl import conjugacy_classes

    inputs = _golden_inputs()
    for name in ("A4", "B4", "D4", "F4"):
        for cls in conjugacy_classes(rs_of(name)):
            x = cls.representative
            inputs += [(x, seq) for seq in admissible_enumerations(x)]
    got = [is_good_position(x, seq) for x, seq in inputs]
    monkeypatch.setattr(geometry, "_stage_point", reference_stage_point)
    want = [is_good_position(x, seq) for x, seq in inputs]
    assert got == want
    verdicts = [cert is not None for cert in got]
    assert verdicts.count(True) >= 20 and verdicts.count(False) >= 20, verdicts.count(True)


def _battery_certificates(seed, per_type, budget):
    """Certificates for powers of Coxeter words of random standard
    parabolics, each with a shuffled admissible angle order: the first
    conjugate in good position, within `budget` class members."""
    rng = random.Random(seed)
    out = []
    for name in ("A4", "B4", "F4", "D5", "E6"):
        rs = rs_of(name)
        drawn = 0
        while drawn < per_type:
            labels = rng.sample(range(rs.rank), rng.randint(1, rs.rank))
            x = from_word(rs, None, labels * rng.randint(1, 2 * len(labels)))
            angles = [a for a, _ in angle_list(x)]
            rng.shuffle(angles)
            if not angles or not is_admissible(x, angles):
                continue
            drawn += 1
            y = find_good_position_conjugate(x, angles, budget=budget)
            if y is not None:
                out.append((rs, is_good_position(y, angles)))
    return out


def test_cumulative_points_exist_for_every_certificate():
    # The lemma of the GoodPositionCertificate docstring: sum eps^j p_j is
    # dominant with zero set exactly the next parabolic of the chain, for
    # small eps.  The reference rebuilds those points by halving eps.
    golden = _golden_certificates()
    battery = _battery_certificates(seed=22, per_type=12, budget=60)
    assert len(golden) == 7
    assert len(battery) >= 20
    for rs, cert in golden + battery:
        points = cumulative_points(rs, cert)
        assert points is not None, (rs.cartan_type, cert.sequence)
        assert len(points) == len(cert.stage_points)
    # Some certificates have two stages that move roots, so the rebuild
    # needs a later stage point, not just the first.
    assert any(
        sum(1 for p in cert.stage_points if any(p)) >= 2 for _, cert in golden + battery
    )


@pytest.mark.parametrize("added", ["one-root", "every-root"])
def test_stage_refuses_perp_roots_the_eigenspace_is_not_orthogonal_to(monkeypatch, added):
    # A psi that disagrees with the exact eigenspace basis must not pass.
    # Both corruptions keep psi a standard parabolic, so the chain check
    # alone would not see them; with every root, the stage has no target
    # left and still checks.
    rs = rs_of("A3")
    x = from_word(rs, None, [1, 0, 2])
    a2 = rs.simple_indices[1]
    perp_orders = geometry._perp_orders

    def corrupted(x, orders, root_subset, mults):
        psi = perp_orders(x, orders, root_subset, mults)
        if orders != {4}:  # the admissibility check and the pi stage
            return psi
        if added == "one-root":
            return psi | {a2, rs.neg(a2)}
        return frozenset(root_subset)

    monkeypatch.setattr(geometry, "_perp_orders", corrupted)
    with pytest.raises(InconsistencyError, match="not orthogonal to its perp roots"):
        is_good_position(x, [Fraction(1, 2), Fraction(1)])


def test_exact_basis_is_stable_under_x():
    # x maps each basis vector back into the span of the basis, exactly.
    for name, word in (("A4", [0, 1, 2, 3]), ("A6", list(range(6)))):
        rs = rs_of(name)
        x = from_word(rs, None, word)
        M = matrix(x)
        for angle, basis in exact_components(x).items():
            field = field_for([angle])
            for v in basis:
                img = [sum(M[i][j] * v[j] for j in range(len(v))) for i in range(len(v))]
                _, pivots = rref(basis + [img], OperatorField(field.one))
                assert len(pivots) == len(basis)


def test_twisted_good_position_certificates():
    # Good position is defined on the twisted cosets too; every certificate
    # found there must carry the same consequences as in the untwisted case.
    from weylconvex.roots import diagram_automorphisms
    from weylconvex.weyl import conjugacy_classes

    verified = 0
    for name in ("A2", "A3"):
        rs = rs_of(name)
        flip = [a for a in diagram_automorphisms(rs) if not a.is_identity][0]
        for cls in conjugacy_classes(rs, flip, 1):
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


# Q; Q(sqrt D) for D = 2, 3, 5 (K_8, K_12, K_5); and K_7, K_9, K_15 of
# degrees 3, 3 and 4.
FIELDS = {"1": 1, "2": 8, "3": 12, "5": 5, "L7": 7, "L9": 9, "L15": 15}


def _copy(rng, field, P):
    """Row P itself, a positive integer multiple of it, or P times 3 + c
    (positive but not rational)."""
    kind = rng.randrange(3)
    if kind == 1:
        c = rng.randint(2, 4)
        return tuple(tuple(c * v for v in p) for p in P)
    if kind == 2 and field.degree > 1:
        return field.scale(field.mul_matrix((3, 1) + (0,) * (field.degree - 2)), P)
    return P


def _random_cone(rng, field, nvars):
    """Integer rows with repeated and proportional copies."""
    rows = [
        tuple(
            tuple(rng.randint(-3, 3) if i == 0 else rng.randint(-2, 2) for _ in range(nvars))
            for i in range(field.degree)
        )
        for _ in range(rng.randint(2, 6))
    ]
    rows += [_copy(rng, field, rng.choice(rows)) for _ in range(rng.randint(1, 3))]
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("field_id", list(FIELDS))
def test_int_elimination_matches_generic(field_id):
    # The chamber point of a cone of non-strict rows is the witness the
    # generic elimination gives for the same rows.
    field = cos_field(FIELDS[field_id])
    rng = random.Random(600 + FIELDS[field_id])
    outcomes = {True: 0, False: 0}
    for _ in range(150):
        nvars = rng.randint(1, 4)
        rows = _random_cone(rng, field, nvars)
        # The rows over K_L, each divided by a random positive integer.
        field_rows = [field.vector(P, rng.randint(1, 6)) for P in rows]
        want = feasible_homogeneous([(v, False) for v in field_rows], nvars, field.zero, field.one)
        w = field.vector(*_chamber_point(rows, nvars, field))
        assert [repr(v) for v in w] == [repr(v) for v in want], rows
        for row in field_rows:
            assert sign_of(sum((a * c for a, c in zip(row, w)), field.zero)) >= 0
        outcomes[any(w)] += 1
    # Both cones that are the origin alone and cones with other points.
    assert min(outcomes.values()) >= 20, outcomes


def _nonnegative_combination(rng, field, rows):
    """A copy (see `_copy`) of a nonnegative integer combination of the
    rows; one in four is the zero combination."""
    if rng.randrange(4) == 0:
        return array_combination([0] * len(rows), rows)
    return _copy(rng, field, array_combination([rng.choice((0, 0, 1, 2, 3)) for _ in rows], rows))


@pytest.mark.parametrize("field_id", list(FIELDS))
def test_ladder_matches_generic(field_id):
    # The lemma of `_stage_point`: for a target row that is a nonnegative
    # combination of the chamber rows, the generic elimination of the
    # chamber rows >= 0 and the target > 0 is infeasible exactly when the
    # target pairs to zero with the chamber point, and otherwise its
    # witness is the chamber point itself.
    field = cos_field(FIELDS[field_id])
    rng = random.Random(900 + FIELDS[field_id])
    outcomes = {True: 0, False: 0}
    for _ in range(60):
        nvars = rng.randint(1, 4)
        rows = _random_cone(rng, field, nvars)
        cone = [(field.vector(P, rng.randint(1, 6)), False) for P in rows]
        W, q = _chamber_point(rows, nvars, field)
        point = [repr(v) for v in field.vector(W, q)]
        for _ in range(10):
            T = _nonnegative_combination(rng, field, rows)
            target = field.vector(T, rng.randint(1, 6))
            want = feasible_homogeneous(cone + [(target, True)], nvars, field.zero, field.one)
            assert (want is None) == (not any(field.dot(T, W))), (rows, T)
            outcomes[want is not None] += 1
            if want is not None:
                assert [repr(v) for v in want] == point, (rows, T)
    assert min(outcomes.values()) >= 20, outcomes


def test_stage_point_builds_one_ladder_per_stage(monkeypatch):
    # A stage with a cone eliminates its chamber rows once, in one
    # `_chamber_point`, and no target root gets an elimination of its own:
    # every `_split` is a step of a chamber point.
    points, splits, stages = [], [], []
    chamber_point, split, stage_point = (
        geometry._chamber_point, geometry._split, geometry._stage_point
    )

    def counting_chamber_point(rows, nvars, field):
        points.append((len(stages), nvars))
        return chamber_point(rows, nvars, field)

    def counting_split(*args):
        splits.append(len(stages))
        return split(*args)

    def counting_stage_point(rs, den, basis, cur_labels, off_pos, *rest):
        stages.append(len(off_pos) if basis else 0)
        return stage_point(rs, den, basis, cur_labels, off_pos, *rest)

    monkeypatch.setattr(geometry, "_chamber_point", counting_chamber_point)
    monkeypatch.setattr(geometry, "_split", counting_split)
    monkeypatch.setattr(geometry, "_stage_point", counting_stage_point)
    x = from_word(rs_of("E6"), None, [3, 1, 5, 0, 4, 2] * 2)
    assert is_good_position(x, [Fraction(1, 3), Fraction(2, 3)]) is not None
    # The E8 Coxeter element fails its first stage, on a zero pairing.
    x = from_word(rs_of("E8"), None, list(range(8)))
    assert is_good_position(x, [Fraction(1, 15), Fraction(7, 15)]) is None
    assert [stage for stage, _ in points] == [i + 1 for i, n in enumerate(stages) if n]
    assert splits == [stage for stage, nvars in points for _ in range(nvars)]
    assert max(stages) > 1  # stages with several targets


def test_chamber_point_off_the_cone_exits_3_under_optimize():
    # Plant a chamber point off the cone, its negation: the stage's cone
    # check must still raise under -O, where every assert is gone.
    script = (
        "import sys\n"
        "if not sys.flags.optimize:\n"
        "    sys.exit(99)\n"
        "from weylconvex import geometry\n"
        "chamber_point = geometry._chamber_point\n"
        "def negated(*args):\n"
        "    W, q = chamber_point(*args)\n"
        "    return tuple(tuple(-v for v in w) for w in W), q\n"
        "geometry._chamber_point = negated\n"
        "from weylconvex.cli import main\n"
        "sys.exit(main(['--no-cache', 'good-position', '--type', 'A3', '--word', '2,1,3',\n"
        "               '--sequence', 'pi/2,pi']))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(geometry.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert "left the cone" in proc.stderr


def _kernel_check_inputs():
    """(x, angle, labels): every angle of the class representatives, on the
    whole span and on parabolics that x stabilizes; seeded random words in
    the letters of random label sets, so x stabilizes their span; and
    Coxeter elements of parabolics whose angles need fields of degree 2, 3
    and 4."""
    for x in _perp_check_elements():
        for angle, _ in angle_list(x):
            yield x, angle, None
    for name, word, labels in (("E6", [1, 3, 2, 4], (1, 2, 3, 4)),
                               ("A6", [1, 2, 3, 4], (1, 2, 3, 4)),
                               ("B4", [1, 2, 3, 1, 2], (1, 2, 3))):
        x = from_word(rs_of(name), None, word)
        for angle, _ in angle_list(x, labels):
            yield x, angle, labels
    rng = random.Random(23)
    for name in ("A4", "B4", "F4", "D5", "E6", "A6", "E8", "G2", "C3"):
        rs = rs_of(name)
        for _ in range(6):
            labels = tuple(sorted(rng.sample(range(rs.rank), rng.randint(1, rs.rank))))
            word = [rng.choice(labels) for _ in range(rng.randint(1, 3 * len(labels)))]
            x = from_word(rs, None, word)
            for angle, _ in angle_list(x, labels):
                yield x, angle, labels
    for name, labels in (("A4", range(4)), ("F4", range(4)), ("A6", range(6)),
                         ("E8", range(8)), ("E8", range(7)), ("E8", (1, 2, 3, 4))):
        labels = tuple(labels)
        x = from_word(rs_of(name), None, list(labels))
        for angle, _ in angle_list(x, labels):
            yield x, angle, labels


def test_int_kernel_matches_generic_rref():
    # The basis comes back as one primitive pair (den, arrays): den > 0, no
    # integer > 1 divides den and every entry, and the arrays are zero off
    # the labels.  On the labels, arrays / den is the reduced echelon basis
    # of the generic rref on K_L scalars, entry for entry.
    degrees, proper = set(), 0
    for x, angle, labels in _kernel_check_inputs():
        rank = x.rs.rank
        field = field_for([angle])
        degrees.add(field.degree)
        lab = tuple(range(rank)) if labels is None else labels
        proper += len(lab) < rank
        M, Minv = matrix(x, lab), matrix(x.inverse(), lab)
        c2 = two_cos_in(angle, field)
        A = [
            [field.number(M[i][j] + Minv[i][j]) - (c2 if i == j else 0) for j in range(len(M))]
            for i in range(len(M))
        ]
        want = kernel_basis(A, OperatorField(field.one))
        den, arrays = exact_angle_basis(x, angle, labels)
        assert den > 0
        assert gcd(den, *(v for B in arrays for p in B for v in p)) == 1
        for B in arrays:
            assert len(B) == field.degree and all(len(p) == rank for p in B)
            assert all(p[t] == 0 for p in B for t in range(rank) if t not in lab)
        got = [[field.vector(B, den)[t] for t in lab] for B in arrays]
        assert [[repr(v) for v in b] for b in got] == [[repr(v) for v in b] for b in want]
    assert degrees == {1, 2, 3, 4} and proper >= 10


def _coset_representatives():
    """Every class representative of ten types, in W and in each of its
    twisted cosets: every diagram automorphism and every power of it."""
    from weylconvex.roots import diagram_automorphisms
    from weylconvex.weyl import conjugacy_classes

    for name in ("A4", "B4", "C4", "D4", "F4", "G2", "E6", "A5", "D5", "B5"):
        rs = rs_of(name)
        for delta in diagram_automorphisms(rs):
            for k in [0] if delta.is_identity else range(1, delta.order):
                for cls in conjugacy_classes(rs, delta, k):
                    yield cls.representative


def test_orbit_basis_matches_int_kernel():
    # The basis read off root orbits is the pair (den, arrays) that the
    # fraction-free kernel of den (M + M^-1) - 2cos theta gives: on the
    # kernel inputs; on every angle of every class representative above,
    # in the angle's own field and in the field of all its angles; and on
    # the A16 Coxeter element at 2pi/17 and 8pi/17, over K_17 of degree 8.
    inputs = [(x, angle, labels, None) for x, angle, labels in _kernel_check_inputs()]
    for x in _coset_representatives():
        angles = [a for a, _ in angle_list(x)]
        common = field_for(angles)
        for angle in angles:
            inputs.append((x, angle, None, None))
            if common is not field_for([angle]):
                inputs.append((x, angle, None, common))
    a16 = from_word(rs_of("A16"), None, list(range(16)))
    inputs += [(a16, Fraction(2, 17), None, None), (a16, Fraction(8, 17), None, None)]
    degrees = set()
    for x, angle, labels, field in inputs:
        got = exact_angle_basis(x, angle, labels, field)
        assert got == int_kernel_basis(x, angle, labels, field), (x.word(), angle, labels)
        degrees.add((field or field_for([angle])).degree)
    assert len(inputs) >= 650 and degrees == {1, 2, 3, 4, 8}


def test_orbit_columns_of_the_wrong_dimension_exit_3_under_optimize():
    # Plant a column set that spans one dimension of the two of the pi/2
    # eigenspace: every column after the first is dropped.  The dimension
    # check must still raise under -O, where every assert is gone.
    script = (
        "import sys\n"
        "if not sys.flags.optimize:\n"
        "    sys.exit(99)\n"
        "from weylconvex import geometry\n"
        "echelon_insert = geometry._echelon_insert\n"
        "def first_column_only(rows, *args):\n"
        "    if not rows:\n"
        "        echelon_insert(rows, *args)\n"
        "geometry._echelon_insert = first_column_only\n"
        "from weylconvex.cli import main\n"
        "sys.exit(main(['--no-cache', 'good-position', '--type', 'A3', '--word', '2,1,3',\n"
        "               '--sequence', 'pi/2,pi']))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(geometry.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert "span 1 dimensions, not the 2" in proc.stderr


def test_perp_orders_on_any_subset_is_the_full_answer_restricted():
    # The kill test is decided once per x-orbit; subsets that cut orbits
    # must still get each root's own answer.
    rng = random.Random(7)
    for x in _perp_check_elements():
        count = x.rs.count
        mults = rotation_spectrum(x)
        for d in mults:
            full = geometry._perp_orders(x, {d}, range(count), mults)
            subset = rng.sample(range(count), count // 3)
            assert geometry._perp_orders(x, {d}, subset, mults) == full & set(subset)
