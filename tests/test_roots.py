import random
from fractions import Fraction
from functools import lru_cache

import pytest

from weylconvex.errors import InputError
from weylconvex.roots import (
    CartanType,
    build_root_system,
    diagram_automorphisms,
    dot,
    is_closed,
    root_sum,
)


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
    for i in range(pc):
        assert rs.roots[pc + i] == tuple(-x for x in rs.roots[i])
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
    got = {tuple(int(x) for x in v) for v in rs.roots}
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
    s = root_sum(rs, a1, a2)
    assert s is not None
    assert rs.roots[s] == tuple(x + y for x, y in zip(rs.roots[a1], rs.roots[a2]))
    assert root_sum(rs, a1, a1) is None  # reduced system: 2*alpha not a root


def test_root_sum_g2_chain():
    rs = rs_of("G2")
    a1, a2 = rs.simple_indices
    # Enumerate by coordinates: alpha1 + alpha2 and 3*alpha1 + alpha2 are roots.
    target12 = tuple(x + y for x, y in zip(rs.roots[a1], rs.roots[a2]))
    target31 = tuple(3 * x + y for x, y in zip(rs.roots[a1], rs.roots[a2]))
    assert root_sum(rs, a1, a2) == rs.index_of[target12]
    assert target31 in rs.index_of


def test_root_sum_symmetry_exhaustive():
    for name in ("A3", "B2", "G2"):
        rs = rs_of(name)
        for i in range(rs.count):
            for j in range(rs.count):
                assert rs.sum_table.get((i, j)) == rs.sum_table.get((j, i))


def test_is_closed():
    rs = rs_of("A2")
    a1, a2 = rs.simple_indices
    a12 = root_sum(rs, a1, a2)
    positives = set(range(rs.positive_count))
    assert is_closed(rs, positives)
    assert not is_closed(rs, {a1, a2})
    # Exhaustive pair check oracle for {alpha1, alpha1+alpha2}:
    # sums inside the set stay inside (the only root sum formable is out of Phi).
    assert is_closed(rs, {a1, a12})
    with pytest.raises(InputError):
        is_closed(rs, {a1, rs.neg(a1)})


@pytest.mark.parametrize("name", ["B3", "G2", "D4", "E6"])
def test_parabolic_closure_is_coefficient_support(name):
    # Oracle: the roots whose nonzero simple-root coefficients all sit on
    # the given labels, for every subset of labels.
    rs = rs_of(name)
    for bits in range(1 << rs.rank):
        labels = [j for j in range(rs.rank) if bits >> j & 1]
        expected = {
            i for i, c in enumerate(rs.coeffs)
            if all(c[j] == 0 for j in range(rs.rank) if j not in labels)
        }
        assert rs.parabolic_closure(labels) == expected
        assert rs.parabolic_closure(labels + labels) == expected


def test_diagram_automorphisms():
    assert len(diagram_automorphisms(rs_of("A3"))) == 2
    assert len(diagram_automorphisms(rs_of("D4"))) == 6
    assert len(diagram_automorphisms(rs_of("B2"))) == 1
    assert len(diagram_automorphisms(rs_of("A2"))) == 2
    assert len(diagram_automorphisms(rs_of("E6"))) == 2


def test_automorphism_preserves_positivity_and_pairing():
    for name in ("A3", "D4", "G2"):
        rs = rs_of(name)
        for auto in diagram_automorphisms(rs):
            for i in range(rs.count):
                j = auto.root_perm[i]
                assert rs.is_positive(i) == rs.is_positive(j)
            for i in rs.simple_indices:
                for j in rs.simple_indices:
                    ii, jj = auto.root_perm[i], auto.root_perm[j]
                    assert dot(rs.roots[i], rs.roots[j]) == dot(
                        rs.roots[ii], rs.roots[jj]
                    )


def test_a3_flip_swaps_outer_simples():
    rs = rs_of("A3")
    autos = diagram_automorphisms(rs)
    flip = [a for a in autos if not a.is_identity][0]
    assert flip.simple_perm == (2, 1, 0)
    assert flip.order == 2


def test_pairing_invariant_under_reflections():
    rs = rs_of("F4")
    for lab in range(rs.rank):
        perm = rs.simple_reflection_perm(lab)
        for i in rs.simple_indices:
            for j in rs.simple_indices:
                assert dot(rs.roots[perm[i]], rs.roots[perm[j]]) == dot(
                    rs.roots[i], rs.roots[j]
                )


def test_half_integer_coordinates_have_denominator_two():
    for name, denom in (("F4", 2), ("E6", 2), ("A4", 1), ("C4", 1)):
        rs = rs_of(name)
        denominators = {x.denominator for v in rs.roots for x in v}
        assert denominators <= {1, denom}


def test_positive_roots_sorted_by_height_then_coords():
    for name in ("B3", "F4"):
        rs = rs_of(name)
        keys = [(rs.height(i), rs.roots[i]) for i in range(rs.positive_count)]
        assert keys == sorted(keys)


def test_e7_constructible():
    rs = rs_of("E7")
    assert rs.count == 126
    assert rs.positive_count == 63


# ---------------------------------------------------------------------------
# The integer datum against the ambient Fraction formulas written out here.

DATUM_TYPES = (
    "A1 A2 A3 A4 A7 A16 B2 B3 B4 B12 C3 C4 C12 D4 D5 D12 G2 F4 E6 E7 E8".split()
)


@lru_cache(maxsize=None)
def cached_rs(name):
    return rs_of(name)


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
    # Doubled ambient coordinates are integers (denominators are 1 or 2),
    # and u + v = w exactly when 2u + 2v = 2w.
    doubled = [tuple(int(2 * x) for x in v) for v in rs.roots]
    assert all(2 * x == y for v, w in zip(rs.roots, doubled) for x, y in zip(v, w))
    index = {w: i for i, w in enumerate(doubled)}
    assert all(rs.index_of[v] == i for i, v in enumerate(rs.roots))
    for i, u in enumerate(doubled):
        for j, v in enumerate(doubled):
            assert rs.sum_table.get((i, j)) == index.get(ambient_add(u, v))


@pytest.mark.parametrize("name", DATUM_TYPES)
def test_simple_reflections_are_ambient_reflections(name):
    rs = cached_rs(name)
    for lab in range(rs.rank):
        alpha = rs.roots[rs.simple_indices[lab]]
        expected = [rs.index_of[ambient_reflect(v, alpha)] for v in rs.roots]
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
    rs = cached_rs(name)
    simples = [rs.roots[k] for k in rs.simple_indices]
    gram = [[ambient_dot(a, b) for b in simples] for a in simples]
    assert rs.gram() == tuple(tuple(row) for row in gram)
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
            got = rs.pair_with_root(v, i)
            assert got == gram_double_sum(gram, v, rs.coeffs[i])
            # Any nonzero rational coordinate makes the pairing a Fraction.
            if any(v):
                assert type(got) is Fraction
    zero = [0] * rs.rank
    assert all(rs.pair_with_root(zero, i) == 0 for i in range(rs.count))


@pytest.mark.parametrize("name", DATUM_TYPES)
def test_datum_order_and_negatives(name):
    rs = cached_rs(name)
    pc = rs.positive_count
    keys = [(rs.height(i), rs.roots[i]) for i in range(pc)]
    assert keys == sorted(keys)
    assert all(min(rs.coeffs[i]) >= 0 for i in range(pc))
    for i in range(pc):
        assert rs.roots[pc + i] == tuple(-x for x in rs.roots[i])
        assert rs.coeffs[pc + i] == tuple(-t for t in rs.coeffs[i])
    for i, c in enumerate(rs.coeffs):
        assert rs.coeff_index[c] == i
        ambient = [Fraction(0)] * rs.ambient_dim
        for lab, t in enumerate(c):
            alpha = rs.roots[rs.simple_indices[lab]]
            ambient = [a + t * b for a, b in zip(ambient, alpha)]
        assert tuple(ambient) == rs.roots[i]
