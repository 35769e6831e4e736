import builtins
import random
from dataclasses import fields
from fractions import Fraction
from functools import lru_cache
from math import lcm

import pytest

from weylconvex import roots
from weylconvex.errors import InconsistencyError, InputError
from weylconvex.roots import (
    MAX_ROOTS,
    CartanType,
    _CLASSICAL_COUNTS,
    build_root_system,
    diagram_automorphisms,
    is_closed,
)

from reference_weyl import ambient_roots, build_root_system_all_pairs, dot


def rs_of(name):
    return build_root_system(CartanType.parse(name))


# Independent oracle: the twelve G2 roots written out by hand in the
# e1,e2,e3 hyperplane convention.
G2_ROOTS = {
    (1, -1, 0), (-1, 1, 0), (0, 1, -1), (0, -1, 1), (1, 0, -1), (-1, 0, 1),
    (2, -1, -1), (-2, 1, 1), (-1, 2, -1), (1, -2, 1), (-1, -1, 2), (1, 1, -2),
}


@pytest.mark.parametrize(
    "name,total,positive",
    [("A2", 6, 3), ("G2", 12, 6), ("F4", 48, 24), ("A1", 2, 1),
     ("B2", 8, 4), ("B3", 18, 9), ("C3", 18, 9), ("D4", 24, 12),
     ("A4", 20, 10), ("E6", 72, 36)],
)
def test_root_counts(name, total, positive):
    rs = rs_of(name)
    assert rs.count == total
    assert rs.positive_count == positive


def test_negatives_mirror_positives():
    rs = rs_of("B3")
    pc = rs.positive_count
    roots = ambient_roots(rs)
    for i in range(pc):
        assert roots[pc + i] == tuple(-x for x in roots[i])
        assert rs.neg(i) == pc + i
        assert rs.neg(pc + i) == i


def test_positive_roots_have_nonnegative_coefficients():
    for name in ("A3", "B3", "C3", "D4", "G2", "F4"):
        rs = rs_of(name)
        for i in range(rs.positive_count):
            assert all(c >= 0 for c in rs.coeffs[i])
            assert sum(rs.coeffs[i]) >= 1


def test_g2_matches_hand_enumeration():
    rs = rs_of("G2")
    got = {tuple(int(x) for x in v) for v in ambient_roots(rs)}
    assert got == G2_ROOTS


def test_inadmissible_ranks_rejected():
    for bad in ("E5", "F3", "G3", "B1", "D2", "A0"):
        with pytest.raises(InputError):
            rs_of(bad)


def test_parse_rejects_garbage():
    with pytest.raises(InputError):
        CartanType.parse("A")
    with pytest.raises(InputError):
        CartanType.parse("X4")


def test_root_sum_a2():
    rs = rs_of("A2")
    a1, a2 = rs.simple_indices
    s = rs.sum_table.get((a1, a2))
    assert s is not None
    roots = ambient_roots(rs)
    assert roots[s] == tuple(x + y for x, y in zip(roots[a1], roots[a2]))
    assert rs.sum_table.get((a1, a1)) is None  # reduced system: 2*alpha not a root


def test_root_sum_g2_chain():
    rs = rs_of("G2")
    a1, a2 = rs.simple_indices
    # Enumerate by coordinates: alpha1 + alpha2 and 3*alpha1 + alpha2 are roots.
    roots = ambient_roots(rs)
    index_of = {v: i for i, v in enumerate(roots)}
    target12 = tuple(x + y for x, y in zip(roots[a1], roots[a2]))
    target31 = tuple(3 * x + y for x, y in zip(roots[a1], roots[a2]))
    assert rs.sum_table.get((a1, a2)) == index_of[target12]
    assert target31 in index_of


def test_root_sum_symmetry_exhaustive():
    for name in ("A3", "B2", "G2"):
        rs = rs_of(name)
        for i in range(rs.count):
            for j in range(rs.count):
                assert rs.sum_table.get((i, j)) == rs.sum_table.get((j, i))


def test_is_closed():
    rs = rs_of("A2")
    a1, a2 = rs.simple_indices
    a12 = rs.sum_table[(a1, a2)]
    positives = set(range(rs.positive_count))
    assert is_closed(rs, positives)
    assert not is_closed(rs, {a1, a2})
    # Exhaustive pair check oracle for {alpha1, alpha1+alpha2}:
    # sums inside the set stay inside (the only root sum formable is out of Phi).
    assert is_closed(rs, {a1, a12})
    with pytest.raises(InputError):
        is_closed(rs, {a1, rs.neg(a1)})


@pytest.mark.parametrize("name", [
    "A1", "A2", "A3", "A4", "A5", "B3", "B4", "C4", "D4", "G2", "F4", "E6", "E7", "E8",
])
def test_parabolic_closure_is_coefficient_support(name):
    # Oracle: the roots whose nonzero simple-root coefficients all sit on
    # the given labels, for every subset of labels (256 at E8), asked for
    # in ascending order, then descending with repeats.  The memo holds
    # one entry per label set, so the second ask returns the first's
    # objects; the positive part is the closure's roots below
    # positive_count, ascending.
    rs = rs_of(name)
    for bits in range(1 << rs.rank):
        labels = [j for j in range(rs.rank) if bits >> j & 1]
        expected = {
            i for i, c in enumerate(rs.coeffs)
            if all(c[j] == 0 for j in range(rs.rank) if j not in labels)
        }
        roots, positives = rs.parabolic(labels)
        assert roots == expected
        assert positives == tuple(sorted(i for i in expected if rs.is_positive(i)))
        assert rs.parabolic_closure(labels) is roots
    for bits in range(1 << rs.rank):
        labels = [j for j in range(rs.rank) if bits >> j & 1]
        again = rs.parabolic(labels[::-1] + labels)
        assert again is rs.parabolic(labels)
        assert rs.parabolic_closure(labels[::-1] + labels) == again[0]


def test_diagram_automorphisms():
    assert len(diagram_automorphisms(rs_of("A3"))) == 2
    assert len(diagram_automorphisms(rs_of("D4"))) == 6
    assert len(diagram_automorphisms(rs_of("B2"))) == 1
    assert len(diagram_automorphisms(rs_of("A2"))) == 2
    assert len(diagram_automorphisms(rs_of("E6"))) == 2


def test_automorphism_preserves_positivity_and_pairing():
    for name in ("A3", "D4", "G2"):
        rs = rs_of(name)
        roots = ambient_roots(rs)
        for auto in diagram_automorphisms(rs):
            for i in range(rs.count):
                j = auto.root_perm[i]
                assert rs.is_positive(i) == rs.is_positive(j)
            for i in rs.simple_indices:
                for j in rs.simple_indices:
                    ii, jj = auto.root_perm[i], auto.root_perm[j]
                    assert dot(roots[i], roots[j]) == dot(roots[ii], roots[jj])


def test_a3_flip_swaps_outer_simples():
    rs = rs_of("A3")
    autos = diagram_automorphisms(rs)
    flip = [a for a in autos if not a.is_identity][0]
    assert flip.simple_perm == (2, 1, 0)
    assert flip.order == 2


def test_pairing_invariant_under_reflections():
    rs = rs_of("F4")
    roots = ambient_roots(rs)
    for lab in range(rs.rank):
        perm = rs.simple_reflection_perm(lab)
        for i in rs.simple_indices:
            for j in rs.simple_indices:
                assert dot(roots[perm[i]], roots[perm[j]]) == dot(roots[i], roots[j])


def test_half_integer_coordinates_have_denominator_two():
    for name, denom in (("F4", 2), ("E6", 2), ("A4", 1), ("C4", 1)):
        rs = rs_of(name)
        denominators = {x.denominator for v in ambient_roots(rs) for x in v}
        assert denominators <= {1, denom}


def test_positive_roots_sorted_by_height_then_coords():
    for name in ("B3", "F4"):
        rs = rs_of(name)
        roots = ambient_roots(rs)
        keys = [(rs.height(i), roots[i]) for i in range(rs.positive_count)]
        assert keys == sorted(keys)


def test_e7_constructible():
    rs = rs_of("E7")
    assert rs.count == 126
    assert rs.positive_count == 63


def accepted_types():
    """Every Cartan type a command builds: each admissible rank up to the
    limit on roots."""
    names = ["E6", "E7", "E8", "F4", "G2"]
    for family, least in (("A", 1), ("B", 2), ("C", 2), ("D", 3)):
        n = least
        while _CLASSICAL_COUNTS[family](n) <= MAX_ROOTS:
            names.append(f"{family}{n}")
            n += 1
    return names


def test_accepted_types_reach_the_limit():
    names = accepted_types()
    assert len(names) == 88
    assert {"A27", "B20", "C20", "D20"} <= set(names)
    for name in ("A28", "B21", "C21", "D21"):
        with pytest.raises(InputError):
            rs_of(name)


@pytest.mark.parametrize("name", accepted_types())
def test_simple_roots_are_the_first_indices(name):
    # Class tables key an element by its images of roots 0, ..., rank - 1.
    rs = rs_of(name)
    assert sorted(rs.simple_indices) == list(range(rs.rank))


def test_simple_roots_elsewhere_are_an_inconsistency(monkeypatch):
    # Positive roots laid out from the top down would put the simple roots
    # last; the build must refuse the datum, by a raise that python -O keeps.
    monkeypatch.setattr(
        roots, "sorted", lambda items: builtins.sorted(items, reverse=True), raising=False
    )
    with pytest.raises(InconsistencyError, match="simple roots have indices"):
        rs_of("B3")


# ---------------------------------------------------------------------------
# The integer datum against the ambient Fraction formulas written out here.

DATUM_TYPES = (
    "A1 A2 A3 A4 A7 A16 B2 B3 B4 B12 C3 C4 C12 D4 D5 D12 G2 F4 E6 E7 E8".split()
)


@lru_cache(maxsize=None)
def cached_rs(name):
    return rs_of(name)


@lru_cache(maxsize=None)
def cached_ambient(name):
    return ambient_roots(cached_rs(name))


def ambient_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def ambient_dot(u, v):
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def ambient_reflect(v, alpha):
    c = 2 * ambient_dot(v, alpha) / ambient_dot(alpha, alpha)
    return tuple(a - c * b for a, b in zip(v, alpha))


@pytest.mark.parametrize("name", DATUM_TYPES)
def test_sum_table_is_ambient_addition(name):
    rs = cached_rs(name)
    roots = cached_ambient(name)
    # Doubled ambient coordinates are integers (denominators are 1 or 2),
    # and u + v = w exactly when 2u + 2v = 2w.
    doubled = [tuple(int(2 * x) for x in v) for v in roots]
    assert all(2 * x == y for v, w in zip(roots, doubled) for x, y in zip(v, w))
    index = {w: i for i, w in enumerate(doubled)}
    assert len(index) == rs.count
    for i, u in enumerate(doubled):
        for j, v in enumerate(doubled):
            assert rs.sum_table.get((i, j)) == index.get(ambient_add(u, v))


@pytest.mark.parametrize("name", DATUM_TYPES)
def test_simple_reflections_are_ambient_reflections(name):
    rs = cached_rs(name)
    roots = cached_ambient(name)
    index_of = {v: i for i, v in enumerate(roots)}
    for lab in range(rs.rank):
        alpha = roots[rs.simple_indices[lab]]
        expected = [index_of[ambient_reflect(v, alpha)] for v in roots]
        assert list(rs.simple_reflection_perm(lab)) == expected


def gram_double_sum(gram, v, c):
    """sum over a, b of v_a (alpha_a, alpha_b) c_b, skipping zero terms."""
    return sum(
        (
            v[a] * gram[a][b] * cb
            for a in range(len(v))
            if v[a]
            for b, cb in enumerate(c)
            if cb
        ),
        Fraction(0),
    )


@pytest.mark.parametrize("name", DATUM_TYPES)
def test_pair_with_root_is_gram_double_sum(name):
    # int_pairing_rows[i] is den^2 Gram * coeffs[i], den the common
    # denominator of the ambient simple roots, so an integer dot product
    # with it is den^2 times the pairing with root i.
    rs = cached_rs(name)
    roots = cached_ambient(name)
    simples = [roots[k] for k in rs.simple_indices]
    gram = [[ambient_dot(a, b) for b in simples] for a in simples]
    den = lcm(*(x.denominator for v in simples for x in v))
    for i, c in enumerate(rs.coeffs):
        assert list(rs.int_pairing_rows[i]) == [
            den * den * sum(g * t for g, t in zip(row, c)) for row in gram
        ]
    rng = random.Random(17)
    vectors = [
        [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(rs.rank)]
        for _ in range(3)
    ]
    vectors.append([rng.randint(-3, 3) for _ in range(rs.rank)])
    sparse = [Fraction(0)] * rs.rank
    sparse[rng.randrange(rs.rank)] = Fraction(rng.randint(1, 9), rng.randint(1, 7))
    vectors.append(sparse)
    for v in vectors:
        for i in range(rs.count):
            got = sum(a * r for a, r in zip(v, rs.int_pairing_rows[i]))
            assert got == den * den * gram_double_sum(gram, v, rs.coeffs[i])


@pytest.mark.parametrize("name", DATUM_TYPES)
def test_datum_order_and_negatives(name):
    rs = cached_rs(name)
    roots = cached_ambient(name)
    pc = rs.positive_count
    keys = [(rs.height(i), roots[i]) for i in range(pc)]
    assert keys == sorted(keys)
    assert all(min(rs.coeffs[i]) >= 0 for i in range(pc))
    for i in range(pc):
        assert rs.coeffs[pc + i] == tuple(-t for t in rs.coeffs[i])
    for i, c in enumerate(rs.coeffs):
        assert rs.coeff_index[c] == i


# Every type the suite builds somewhere, small and large.
SUM_TYPES = DATUM_TYPES + "A5 A6 A17 A27 B5 B6 C2 C5 C6 D6".split()


@pytest.mark.parametrize("name", SUM_TYPES)
def test_positive_sums_are_the_positive_entries_of_sum_table(name):
    rs = cached_rs(name)
    pc = rs.positive_count
    expected = []
    for a in range(pc):
        pairs = []
        for b in range(pc):
            s = rs.sum_table.get((a, b))
            if s is not None and s < pc:
                pairs.append((b, s))
        expected.append(tuple(pairs))
    assert rs.positive_sums == tuple(expected)


REFERENCE_BUILD_TYPES = (
    [f"A{n}" for n in range(1, 9)]
    + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(3, 9)]
    + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2", "A16", "D16", "B20"]
)
DATUM_FIELDS = (
    "cartan_type", "coeffs", "coeff_index", "positive_count", "simple_indices",
    "sum_table", "positive_sums", "cartan", "int_pairing_rows", "reflections",
    "support_masks",
)


@pytest.mark.parametrize("name", REFERENCE_BUILD_TYPES)
def test_positive_triple_build_matches_all_pairs_build(name):
    # Every field of the datum, sum_table compared as a dict (its insertion
    # order differs), against the build that reflects every root and adds
    # every pair.
    ct = CartanType.parse(name)
    got, want = build_root_system(ct), build_root_system_all_pairs(ct)
    assert [f.name for f in fields(got)] == list(DATUM_FIELDS)
    for field in DATUM_FIELDS:
        assert getattr(got, field) == getattr(want, field), field
