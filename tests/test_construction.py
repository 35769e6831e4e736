import random
from fractions import Fraction

import pytest

from weylconvex import construction, geometry, weyl
from weylconvex.construction import find_convex_representative, find_good_position_conjugate
from weylconvex.convexity import analyze, phi_of
from weylconvex.errors import InconsistencyError, InputError
from weylconvex.quadfield import cos_field
from weylconvex.roots import CartanType, build_root_system, diagram_automorphisms
from weylconvex.weyl import (
    _shift_reachable_set,
    class_of,
    conjugacy_classes,
    fixed_roots,
    from_word,
    is_elliptic,
    rotation_spectrum,
)

from reference_construction import reference_dominate
from reference_geometry import spectrum_by_charpoly
from reference_weyl import elliptic_min_convex

RS = {}


def rs_of(name):
    if name not in RS:
        RS[name] = build_root_system(CartanType.parse(name))
    return RS[name]


def test_identity_class():
    rs = rs_of("A2")
    classes = conjugacy_classes(rs)
    ident_cls = [c for c in classes if c.min_length == 0][0]
    res = find_convex_representative(ident_cls)
    assert res.representative.is_identity()
    assert res.report.convex


def test_a2_reflection_class_picks_w0():
    # The class {s1, s2, s1s2s1}: neither minimal-length member is convex,
    # the longest element is the unique convex representative.
    rs = rs_of("A2")
    classes = conjugacy_classes(rs)
    refl = [c for c in classes if c.min_length == 1][0]
    omin = refl.min_length_set()
    assert sorted(y.word() for y in omin) == [(0,), (1,)]
    assert all(not analyze(y).convex for y in omin)
    res = find_convex_representative(refl)
    assert res.representative.word() == (0, 1, 0)
    assert res.report.convex
    assert phi_of(res.representative) == fixed_roots(res.representative)


def test_c3_class_of_s3s2s3s1s2():
    rs = rs_of("C3")
    x = from_word(rs, None, [2, 1, 2, 0, 1])
    cls = class_of(x)
    assert not analyze(x).convex
    res = find_convex_representative(cls)
    y = res.representative
    assert analyze(y).convex
    assert any(z == y for z in cls.elements)
    # Independent oracle: exhaustive scan of the class finds a convex member
    # with phi = fixed roots, confirming what the construction returned.
    brute = [
        z
        for z in cls.elements
        if analyze(z).convex and phi_of(z) == fixed_roots(z)
    ]
    assert brute
    assert any(z == y for z in brute)


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "B2", "B3", "G2"])
def test_every_class_has_verified_representative(name):
    rs = rs_of(name)
    for cls in conjugacy_classes(rs):
        res = find_convex_representative(cls)
        assert res.report.convex
        assert phi_of(res.representative) == fixed_roots(res.representative)
        assert any(z == res.representative for z in cls.elements)


def test_twisted_a3_classes_have_representatives():
    rs = rs_of("A3")
    flip = [a for a in diagram_automorphisms(rs) if not a.is_identity][0]
    for cls in conjugacy_classes(rs, flip, 1):
        res = find_convex_representative(cls)
        assert res.report.convex
        assert phi_of(res.representative) == fixed_roots(res.representative)


def test_geometric_path_used_somewhere():
    # The geometric induction should succeed on its own most of the time;
    # make sure it is not silently falling back everywhere.
    rs = rs_of("A3")
    methods = {find_convex_representative(c).method for c in conjugacy_classes(rs)}
    assert "geometric" in methods


def test_geometric_inconsistency_is_not_swallowed(monkeypatch):
    # The geometric path is the only construction.  An InconsistencyError
    # from it propagates, and an InputError or a result that fails
    # verification contradicts the existence theorem: each raises
    # InconsistencyError, and no class member is scanned in its place.
    def planted(error):
        def geometric_convex(x, rng):
            raise error("planted")

        return geometric_convex

    cls = conjugacy_classes(rs_of("A2"))[-1]
    assert find_convex_representative(cls).method == "geometric"
    for error in (InputError, InconsistencyError):
        monkeypatch.setattr(construction, "_geometric_convex", planted(error))
        with pytest.raises(InconsistencyError, match="planted"):
            find_convex_representative(cls)
    # s1 is not convex; its class holds the convex s1s2s1, which no scan
    # looks for any more.
    refl = [c for c in conjugacy_classes(rs_of("A2")) if c.min_length == 1][0]
    s1 = from_word(rs_of("A2"), None, [0])
    monkeypatch.setattr(construction, "_geometric_convex", lambda x, rng: (s1, []))
    monkeypatch.setattr(
        type(refl), "elements", property(lambda self: pytest.fail("a member was scanned"))
    )
    with pytest.raises(InconsistencyError, match="existence theorem.*failed verification"):
        find_convex_representative(refl)


@pytest.mark.parametrize("name", ["A18", "A22"])
def test_geometric_convex_on_large_coxeter_elements(name):
    # n + 1 prime: the smallest angle 2pi/(n + 1) needs K_(n+1), of degree
    # 9 and 11.  Its eigenspace holds a regular point, so one stage cuts the
    # parabolic to nothing, and the result is exactly verified.
    rs = rs_of(name)
    x = from_word(rs, None, list(range(rs.rank)))
    y, log = construction._geometric_convex(x, random.Random(0))
    assert [(s.angle, s.parabolic_labels) for s in log] == [(Fraction(2, rs.rank + 1), ())]
    assert construction._verified(y) is not None


def test_find_good_position_conjugate_a3():
    rs = rs_of("A3")
    x = from_word(rs, None, [0, 1, 2])  # Coxeter class contains s2s1s3
    y = find_good_position_conjugate(x, [Fraction(1, 2), Fraction(1)])
    assert y is not None
    from weylconvex.geometry import is_good_position

    assert is_good_position(y, [Fraction(1, 2), Fraction(1)]) is not None


def test_find_good_position_lengths_a4():
    rs = rs_of("A4")
    x = from_word(rs, None, [0, 1, 2, 3])
    y1 = find_good_position_conjugate(x, [Fraction(2, 5), Fraction(4, 5)])
    assert y1.length() == 4
    y2 = find_good_position_conjugate(x, [Fraction(4, 5), Fraction(2, 5)])
    assert y2.length() == 8


def test_find_good_position_degree3_a6():
    # Rotation order 7 needs the cubic field K_7: the conjugates found must
    # carry the theorem's consequences exactly.
    from weylconvex.geometry import good_position_length, is_good_position

    rs = rs_of("A6")
    x = from_word(rs, None, list(range(6)))
    for seq in ([Fraction(2, 7), Fraction(4, 7), Fraction(6, 7)],
                [Fraction(2, 7), Fraction(6, 7), Fraction(4, 7)]):
        y = find_good_position_conjugate(x, seq)
        cert = is_good_position(y, seq)
        assert analyze(y).convex
        assert phi_of(y) == fixed_roots(y)
        assert good_position_length(cert) == y.length()


def test_find_good_position_conjugate_checks_admissibility_once(monkeypatch):
    # Admissibility is a class invariant: one check, however many members
    # the scan visits.
    from weylconvex import geometry

    admissible = geometry._admissible
    calls = []

    def counting(*args):
        calls.append(args[0])
        return admissible(*args)

    monkeypatch.setattr(geometry, "_admissible", counting)
    monkeypatch.setattr(construction, "_admissible", counting, raising=False)
    rs = rs_of("A4")
    x = from_word(rs, None, [0, 1, 2, 3])
    seq = [Fraction(4, 5), Fraction(2, 5)]
    y = find_good_position_conjugate(x, seq)
    assert y is not None and y.length() == 8
    members = [m.perm for m in class_of(x).elements]
    assert members.index(y.perm) >= 1  # the scan visited more than one member
    assert calls == [x]


def test_find_good_position_conjugate_refuses_an_inadmissible_sequence():
    rs = rs_of("A3")
    x = from_word(rs, None, [0, 1, 2])
    with pytest.raises(InputError, match="not admissible"):
        find_good_position_conjugate(x, [Fraction(1)])


def test_find_good_position_budget():
    rs = rs_of("A4")
    x = from_word(rs, None, [0, 1, 2, 3])
    assert find_good_position_conjugate(x, [Fraction(2, 5), Fraction(4, 5)], budget=0) is None


def test_elliptic_min_convex_a2():
    rs = rs_of("A2")
    cox = class_of(from_word(rs, None, [0, 1]))
    y = elliptic_min_convex(cox)
    assert y.length() == 2
    assert analyze(y).convex
    assert y.word() in ((0, 1), (1, 0))


def test_elliptic_min_convex_c3():
    rs = rs_of("C3")
    x = from_word(rs, None, [2, 1, 2, 0, 1])
    cls = class_of(x)
    y = elliptic_min_convex(cls)
    assert y.length() == cls.min_length == 5
    assert analyze(y).convex
    assert y != x  # the given minimal-length element itself is not convex


def test_elliptic_min_convex_g2_coxeter():
    rs = rs_of("G2")
    cls = class_of(from_word(rs, None, [0, 1]))
    y = elliptic_min_convex(cls)
    assert analyze(y).convex
    assert y.length() == 2


def test_elliptic_min_convex_rejects_non_elliptic():
    rs = rs_of("A2")
    refl = class_of(from_word(rs, None, [0]))
    with pytest.raises(InputError):
        elliptic_min_convex(refl)


def test_elliptic_classes_battery():
    for name in ("A2", "A3", "B2", "B3", "G2", "C3"):
        rs = rs_of(name)
        for cls in conjugacy_classes(rs):
            if not is_elliptic(cls.representative):
                continue
            y = elliptic_min_convex(cls)
            assert y.length() == cls.min_length
            assert analyze(y).convex


def test_elliptic_min_convex_twisted_cosets():
    rs = rs_of("D4")
    from weylconvex.weyl import is_elliptic

    for delta in diagram_automorphisms(rs):
        if delta.is_identity:
            continue
        for cls in conjugacy_classes(rs, delta, 1):
            if not is_elliptic(cls.representative):
                continue
            y = elliptic_min_convex(cls)
            assert y.length() == cls.min_length
            assert analyze(y).convex


def test_elliptic_min_convex_agrees_with_the_geometric_representative():
    # On the elliptic classes above, the geometric path ends at minimal
    # length on a convex member that downward cyclic shifts reach from the
    # class representative, so it is one of the candidates the reference
    # takes the least of by word.
    cosets = [(name, None, 0) for name in ("A2", "A3", "B2", "B3", "G2", "C3")]
    cosets += [("D4", d, 1) for d in diagram_automorphisms(rs_of("D4")) if not d.is_identity]
    compared = 0
    for name, delta, k in cosets:
        for cls in conjugacy_classes(rs_of(name), delta, k):
            if not is_elliptic(cls.representative):
                continue
            y = elliptic_min_convex(cls)
            r = find_convex_representative(cls).representative
            assert r.length() == y.length() == cls.min_length, (name, r.word())
            assert r in _shift_reachable_set(cls.representative), (name, r.word())
            assert (y.word(), y.root_perm) <= (r.word(), r.root_perm)
            compared += 1
    assert compared == 27


def test_geometric_and_exhaustive_agree_on_existence():
    # Wherever both run, the two methods find valid representatives.
    for name in ("A3", "B2"):
        rs = rs_of(name)
        for cls in conjugacy_classes(rs):
            geo = find_convex_representative(cls)
            assert geo.report.convex
            from weylconvex.weyl import fixed_roots

            brute = [
                z for z in cls.elements
                if analyze(z).convex and phi_of(z) == fixed_roots(z)
            ]
            assert brute, (name, cls.representative.word())


def test_e6_battery_within_default_budget():
    # The enumeration budget admits E6; every one of its 25 classes gets a
    # geometrically constructed, exactly verified representative.  That
    # includes the order-9 class, whose angles need the cubic field K_9.
    rs = rs_of("E6")
    classes = conjugacy_classes(rs)
    assert len(classes) == 25
    assert sum(len(c) for c in classes) == 51840
    assert any(c.representative.order() == 9 for c in classes)
    from weylconvex.weyl import fixed_roots

    for cls in classes:
        res = find_convex_representative(cls)
        y = res.representative
        assert res.method == "geometric"
        assert res.report.convex and phi_of(y) == fixed_roots(y)


def test_rotation_spectrum_matches_charpoly_on_every_visited_parabolic(monkeypatch):
    # Every (element, labels) the geometric path asks for angles, over the
    # class tables of the reps battery with its twisted cosets; 71 of the
    # 306 are proper parabolics.
    visited = []

    def recording(x, labels=None):
        visited.append((x, labels))
        return angle_list(x, labels)

    angle_list = construction.angle_list
    monkeypatch.setattr(construction, "angle_list", recording)
    for name in ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C3", "D4", "G2", "F4", "E6"]:
        rs = rs_of(name)
        for delta in diagram_automorphisms(rs):
            for k in [0] if delta.is_identity else range(1, delta.order):
                for cls in conjugacy_classes(rs, delta, k):
                    find_convex_representative(cls)
    for x, labels in visited:
        assert rotation_spectrum(x, labels) == spectrum_by_charpoly(x, labels), (x.word(), labels)
    assert sum(len(labels) < x.rs.rank for x, labels in visited) >= 50


@pytest.mark.parametrize("name, word, seeds", [
    # The one E7 class whose 64 seeded draws all miss at seeds 4, 14, 19.
    ("E7", [0, 1, 2, 0, 3, 1, 2, 0, 3, 4, 3, 1, 2, 0, 3, 4, 5, 4, 3, 1, 2, 3, 4, 5],
     (4, 14, 19)),
    # Cycle types (3,3,3,3) and (3,3,3,3,3): on their 2pi/3 eigenspaces a
    # root pairs to a difference of two coordinates, and small-integer
    # draws make two of them equal (at seeds 4, 8 and 11 in A11, at every
    # seed in A14).
    ("A11", [0, 1, 3, 4, 6, 7, 9, 10], range(20)),
    ("A14", [0, 1, 3, 4, 6, 7, 9, 10, 12, 13], range(20)),
], ids=["E7", "A11", "A14"])
def test_geometric_path_survives_draws_that_miss(monkeypatch, name, word, seeds):
    # The moment curve takes over from the draws; W is never enumerated.
    def no_enumeration(*args, **kwargs):
        raise AssertionError("W was enumerated")

    monkeypatch.setattr(weyl, "enumerate_weyl_group", no_enumeration)
    fallbacks = []
    moment_curve_point = geometry._moment_curve_point

    def counted(basis, off):
        fallbacks.append(len(basis))
        return moment_curve_point(basis, off)

    monkeypatch.setattr(geometry, "_moment_curve_point", counted)
    x = from_word(rs_of(name), None, word)
    for seed in seeds:
        y, _ = construction._geometric_convex(x, random.Random(seed))
        assert construction._verified(y) is not None, (name, seed)
    assert fallbacks


# The class tables of the `classtable` benchmark: the reps battery and
# every twisted coset of A2, A3, A4 and D4 at twist power 1.
CLASS_BATTERY = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "G2", "F4", "E6")
TWISTED_BATTERY = ("A2", "A3", "A4", "D4")


def test_dominance_walk_matches_reference_on_the_class_battery(monkeypatch):
    # Every walk the geometric path takes on the battery, run again by the
    # reference, which reflects the point and pairs it anew: the same
    # word, the same element and the same zero labels.
    walks = []
    dominate = construction._dominate

    def checked(rs, x, point, labels, field):
        got = dominate(rs, x, point, labels, field)
        assert got == reference_dominate(rs, x, point, labels, field), (x.word(), labels)
        walks.append((rs.cartan_type.family, len(got[1])))
        return got

    monkeypatch.setattr(construction, "_dominate", checked)
    for name in CLASS_BATTERY:
        for cls in conjugacy_classes(rs_of(name)):
            find_convex_representative(cls)
    for name in TWISTED_BATTERY:
        rs = rs_of(name)
        for delta in diagram_automorphisms(rs)[1:]:
            for cls in conjugacy_classes(rs, delta, 1):
                find_convex_representative(cls)
    # Types B, C, F and G meet the Cartan entries -2 and -3.
    assert {family for family, steps in walks if steps >= 2} >= {"B", "C", "F", "G", "D", "E"}


@pytest.mark.parametrize("name, L", [
    ("A4", 5), ("C4", 5), ("B4", 8), ("D4", 8), ("G2", 12), ("F4", 12), ("B3", 7), ("C3", 9),
])
def test_dominance_walk_matches_reference_on_seeded_points(name, L):
    # Arbitrary integer arrays over Z[c] in K_5, K_8, K_12 and the cubic
    # K_7 and K_9, on random elements (twisted ones where the diagram has
    # a symmetry) and random label sets.  Small coefficients leave some
    # pairings zero, so the zero labels are exercised too.
    rs = rs_of(name)
    field = cos_field(L)
    deltas = diagram_automorphisms(rs)
    rng = random.Random(f"dominate-{name}-{L}")
    lengths, zero_labels = [], 0
    for _ in range(60):
        delta = rng.choice(deltas)
        word = [rng.randrange(rs.rank) for _ in range(rng.randrange(10))]
        x = from_word(rs, delta, word, 0 if delta.is_identity else 1)
        labels = tuple(sorted(rng.sample(range(rs.rank), rng.randint(1, rs.rank))))
        point = tuple(
            tuple(rng.choice((0, 0, rng.randint(-4, 4))) for _ in range(rs.rank))
            for _ in range(field.degree)
        )
        got = construction._dominate(rs, x, point, labels, field)
        assert got == reference_dominate(rs, x, point, labels, field), (word, labels, point)
        lengths.append(len(got[1]))
        zero_labels += len(got[2])
    assert max(lengths) >= 4 and zero_labels
