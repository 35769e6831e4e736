from itertools import permutations

import pytest

from weylconvex.convexity import n_of
from weylconvex.coxeter import (
    check_betweenness,
    check_w0_condition,
    coxeter_element_count,
    coxeter_elements,
    delta_orbits,
    coxeter_levels,
    coxeter_order,
    half_turn_ordering,
    reflection_ordering,
    verify_conjecture,
)
from weylconvex.errors import InputError
from weylconvex.roots import CartanType, build_root_system, diagram_automorphisms
from weylconvex.weyl import from_word, is_elliptic

RS = {}


def rs_of(name):
    if name not in RS:
        RS[name] = build_root_system(CartanType.parse(name))
    return RS[name]


def flip_of(name):
    return [a for a in diagram_automorphisms(rs_of(name)) if not a.is_identity][0]


def words(elems):
    return sorted(e.word() for e in elems)


def test_coxeter_elements_a2():
    assert words(coxeter_elements(rs_of("A2"))) == [(0, 1), (1, 0)]


def test_coxeter_elements_g2():
    assert words(coxeter_elements(rs_of("G2"))) == [(0, 1), (1, 0)]


def test_coxeter_elements_twisted_a3():
    rs = rs_of("A3")
    elems = coxeter_elements(rs, flip_of("A3"))
    # Orbits {s1, s3} and {s2}: four products, all distinct as elements.
    assert words(elems) == [(0, 1), (1, 0), (1, 2), (2, 1)]
    assert all(e.twist_power == 1 for e in elems)


def _coxeter_elements_by_permutations(rs, delta):
    """Reference: every ordering of every label choice, k! words each."""
    twist_power = 0 if delta.is_identity else 1
    choices = [()]
    for orb in delta_orbits(rs, delta):
        choices = [base + (lab,) for base in choices for lab in orb]
    return {
        from_word(rs, delta, list(word), twist_power)
        for chosen in choices
        for word in permutations(chosen)
    }


def _edge_count_sum(rs, delta):
    """Sum of 2^(edges) over label choices, counted independently."""
    choices = [()]
    for orb in delta_orbits(rs, delta):
        choices = [base + (lab,) for base in choices for lab in orb]
    total = 0
    for chosen in choices:
        edges = sum(
            1 for a in chosen for b in chosen if a < b and rs.cartan[a][b] != 0
        )
        total += 2 ** edges
    return total


RANK_AT_MOST_6 = (
    [f"A{n}" for n in range(1, 7)]
    + [f"B{n}" for n in range(2, 7)]
    + [f"C{n}" for n in range(2, 7)]
    + [f"D{n}" for n in range(3, 7)]
    + ["E6", "F4", "G2"]
)


@pytest.mark.parametrize("name", RANK_AT_MOST_6)
def test_coxeter_elements_match_all_orderings(name):
    rs = rs_of(name)
    for delta in diagram_automorphisms(rs):
        elems = coxeter_elements(rs, delta)
        keys = {(e.weyl.root_perm, e.twist_power) for e in elems}
        reference = _coxeter_elements_by_permutations(rs, delta)
        assert keys == {(e.weyl.root_perm, e.twist_power) for e in reference}
        assert len(elems) == len(keys) == _edge_count_sum(rs, delta)
        assert coxeter_element_count(rs, delta) == len(elems)
        assert [e.key() for e in elems] == sorted(e.key() for e in elems)


def test_coxeter_element_counts_e7_e8():
    for name, count in (("E7", 64), ("E8", 128)):
        rs = rs_of(name)
        assert len(coxeter_elements(rs)) == coxeter_element_count(rs) == count


def test_coxeter_order_independent_of_choice():
    assert coxeter_order(rs_of("A2")) == 3
    assert coxeter_order(rs_of("G2")) == 6
    assert coxeter_order(rs_of("B2")) == 4
    assert coxeter_order(rs_of("A4")) == 5
    assert coxeter_order(rs_of("F4")) == 12


def test_reflection_ordering_a2():
    rs = rs_of("A2")
    a1, a2 = rs.simple_indices
    a12 = rs.sum_table[(a1, a2)]
    order1 = reflection_ordering(rs, [0, 1, 0])
    assert order1.ordered_roots == (a1, a12, a2)
    order2 = reflection_ordering(rs, [1, 0, 1])
    assert order2.ordered_roots == (a2, a12, a1)


def test_reflection_ordering_a1():
    rs = rs_of("A1")
    order = reflection_ordering(rs, [0])
    assert order.ordered_roots == (rs.simple_indices[0],)


def test_reflection_ordering_rejects_bad_words():
    rs = rs_of("A2")
    with pytest.raises(InputError):
        reflection_ordering(rs, [0, 1])  # not w0
    with pytest.raises(InputError):
        reflection_ordering(rs, [0, 0, 0, 1, 0])  # not reduced


def test_betweenness_exhaustive_for_all_w0_words_b2():
    # Every reduced word of w0 in B2 yields a valid reflection ordering.
    rs = rs_of("B2")
    from weylconvex.weyl import longest_element

    w0 = longest_element(rs)
    found = 0
    import itertools

    for word in itertools.product(range(2), repeat=4):
        x = from_word(rs, None, list(word))
        if x.weyl == w0 and x.length() == 4:
            order = reflection_ordering(rs, list(word))
            assert check_betweenness(rs, order.ordered_roots)
            found += 1
    assert found == 2  # alternating words only


def test_w0_condition_g2():
    rs = rs_of("G2")
    c = from_word(rs, None, [0, 1])
    assert c.order() == 6
    assert check_w0_condition(c)


def test_w0_condition_a2_odd():
    rs = rs_of("A2")
    assert not check_w0_condition(from_word(rs, None, [0, 1]))


def test_w0_condition_twisted_a3():
    rs = rs_of("A3")
    for c in coxeter_elements(rs, flip_of("A3")):
        assert check_w0_condition(c)


def test_coxeter_levels_g2():
    rs = rs_of("G2")
    c = from_word(rs, None, [0, 1])
    levels = coxeter_levels(c)
    from collections import Counter

    assert Counter(levels.values()) == {1: 2, 2: 2, 3: 2}
    for g, lev in levels.items():
        assert n_of(c, g) == lev


def test_coxeter_levels_b2():
    rs = rs_of("B2")
    c = from_word(rs, None, [0, 1])
    levels = coxeter_levels(c)
    from collections import Counter

    assert Counter(levels.values()) == {1: 2, 2: 2}


def test_half_turn_ordering_matches_block_chain():
    # The ascending ordering read off the concatenated w0 word must equal
    # the chain of blocks x^(-p)(betas) for p = 0 .. h/2-1, which is the
    # block filtration realizing the level sets.
    for name, delta in (("B2", None), ("G2", None), ("A3", flip_of("A3")),
                        ("B3", None), ("C3", None), ("D4", None)):
        rs = rs_of(name)
        for c in coxeter_elements(rs, delta):
            if not check_w0_condition(c):
                continue
            order = half_turn_ordering(c)
            h = c.order()
            from weylconvex.coxeter import twisted_betas

            betas = twisted_betas(c)
            chain = []
            for p in range(h // 2):
                block = []
                for b in betas:
                    g = b
                    for _ in range(p):
                        g = c.perm_inv[g]
                    block.append(g)
                chain.extend(reversed(block))
            assert tuple(chain) == order.ordered_roots
            assert check_betweenness(rs, chain)


def test_conjecture_g2():
    report = verify_conjecture(rs_of("G2"))
    assert report.conjecture_status == "pass"
    assert all(e.w0_condition for e in report.entries)
    assert all(e.convex for e in report.entries)


def test_conjecture_a2_outside_scope():
    report = verify_conjecture(rs_of("A2"))
    assert report.conjecture_status == "pass"
    assert all(not e.w0_condition for e in report.entries)
    assert all(e.convex for e in report.entries)


def test_conjecture_a4_reports():
    report = verify_conjecture(rs_of("A4"))
    assert report.coxeter_number == 5
    # Distinct Coxeter elements of A4: one per acyclic orientation of the
    # path diagram, 2^3 of them.
    assert len(report.entries) == 8
    assert report.conjecture_status in ("pass", "counterexample")


def test_coxeter_elements_are_elliptic_with_empty_phi():
    for name, delta in (("A3", None), ("B3", None), ("G2", None),
                        ("A3", flip_of("A3")), ("D4", None)):
        rs = rs_of(name)
        for c in coxeter_elements(rs, delta):
            assert is_elliptic(c)
            assert c not in (None,)
            from weylconvex.convexity import phi_of

            assert phi_of(c) == frozenset()


def test_conjecture_proven_scope_battery():
    for name in ("B2", "B3", "C3", "D4", "G2"):
        report = verify_conjecture(rs_of(name))
        assert report.conjecture_status == "pass"
        assert all(e.w0_condition for e in report.entries), name


def test_conjecture_twisted_scope():
    for name in ("A2", "A3", "A4"):
        report = verify_conjecture(rs_of(name), flip_of(name))
        assert report.conjecture_status == "pass"
        assert all(e.w0_condition for e in report.entries)
    rs = rs_of("D4")
    for delta in diagram_automorphisms(rs):
        if delta.is_identity:
            continue
        report = verify_conjecture(rs, delta)
        assert report.conjecture_status == "pass"
        assert all(e.w0_condition for e in report.entries)


def test_conjecture_evidence_open_type_a():
    # A_n with n even and the identity twist sits outside the proven scope;
    # the harness records verdicts as evidence without asserting them.
    for name in ("A5", "A6"):
        report = verify_conjecture(rs_of(name))
        assert report.conjecture_status in ("pass", "counterexample")
        assert len(report.entries) == 2 ** (rs_of(name).rank - 1)
