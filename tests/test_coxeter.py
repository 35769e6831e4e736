import random
import tracemalloc
from dataclasses import replace
from itertools import permutations

import pytest

from weylconvex.convexity import analyze, n_of
from weylconvex.coxeter import (
    _block_levels,
    _half_turn_target,
    _w0_condition,
    coxeter_element_count,
    coxeter_elements,
    delta_orbits,
    twisted_betas,
    verify_conjecture,
)
from weylconvex.errors import InconsistencyError, InputError
from weylconvex.roots import CartanType, build_root_system, diagram_automorphisms
from weylconvex.weyl import from_word, is_elliptic

from reference_weyl import (
    check_betweenness,
    check_w0_condition,
    coxeter_order,
    half_turn_ordering,
    reflection_ordering,
)

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
        keys = {(e.root_perm, e.twist_power) for e in elems}
        reference = _coxeter_elements_by_permutations(rs, delta)
        assert keys == {(e.root_perm, e.twist_power) for e in reference}
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
    assert reflection_ordering(rs, [0, 1, 0]) == (a1, a12, a2)
    assert reflection_ordering(rs, [1, 0, 1]) == (a2, a12, a1)


def test_reflection_ordering_a1():
    rs = rs_of("A1")
    assert reflection_ordering(rs, [0]) == (rs.simple_indices[0],)


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
        if x.root_perm == w0.root_perm and x.length() == 4:
            assert check_betweenness(rs, reflection_ordering(rs, list(word)))
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


def _coxeter_levels(c):
    """The level of each positive root of a half-turn Coxeter element, read
    off its report; the block formula must give the same list."""
    rep = analyze(c)
    _block_levels(rep, rep.order, twisted_betas(c, c.word()))  # raises on a disagreement
    return list(rep.n_table[: c.rs.positive_count])


def test_block_levels_name_the_least_disagreeing_root():
    # Every level of n off by one: the walk meets the roots in beta order,
    # and the error names the least root index, with its block level.
    rs = rs_of("E8")
    c = from_word(rs, None, list(range(8)))
    rep = analyze(c)
    betas = twisted_betas(c, c.word())
    assert betas[0] != 0
    pc = rs.positive_count
    shifted = tuple(lev + 1 for lev in rep.n_table[:pc]) + rep.n_table[pc:]
    message = f"block level {rep.n_table[0]} disagrees with n = {shifted[0]} at {rs.root_str(0)}"
    with pytest.raises(InconsistencyError) as err:
        _block_levels(replace(rep, n_table=shifted), rep.order, betas)
    assert str(err.value) == message
    # The inverse table, off at one root only.
    inverse = list(rep.inverse_n_table)
    inverse[betas[-1]] += 1
    with pytest.raises(InconsistencyError, match="^inverse block level disagrees with n$"):
        _block_levels(replace(rep, inverse_n_table=tuple(inverse)), rep.order, betas)
    # A repeated beta hits its whole block twice.
    with pytest.raises(InconsistencyError, match="^block formula hit a root twice$"):
        _block_levels(rep, rep.order, betas + betas[:1])


def test_coxeter_levels_g2():
    rs = rs_of("G2")
    c = from_word(rs, None, [0, 1])
    levels = _coxeter_levels(c)
    from collections import Counter

    assert Counter(levels) == {1: 2, 2: 2, 3: 2}
    for g, lev in enumerate(levels):
        assert n_of(c, g) == lev


def test_coxeter_levels_b2():
    rs = rs_of("B2")
    c = from_word(rs, None, [0, 1])
    from collections import Counter

    assert Counter(_coxeter_levels(c)) == {1: 2, 2: 2}


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
            betas = twisted_betas(c, c.word())
            chain = []
            for p in range(h // 2):
                block = []
                for b in betas:
                    g = b
                    for _ in range(p):
                        g = c.perm_inv[g]
                    block.append(g)
                chain.extend(reversed(block))
            assert tuple(chain) == order
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


def _sweep_battery():
    """A2-A6 under the flip, B3, C4, D4 under each of its five non-trivial
    automorphisms, D5 and E6 under the flip, F4, G2 and E7."""
    for name in ("A2", "A3", "A4", "A5", "A6", "D5", "E6"):
        yield pytest.param(name, flip_of(name), id=f"{name}-flip")
    for delta in diagram_automorphisms(rs_of("D4")):
        if not delta.is_identity:
            yield pytest.param("D4", delta, id=f"D4-{delta.label()}")
    for name in ("B3", "C4", "F4", "G2", "E7"):
        yield pytest.param(name, None, id=name)


@pytest.mark.parametrize("name, delta", list(_sweep_battery()))
def test_sweep_entries_in_key_order(name, delta):
    # The sweep sorts by the images of the simple roots only; the elements
    # rebuilt from its entries must come in (length, whole root permutation)
    # order, once each, with the least reduced word as printed.
    rs = rs_of(name)
    report = verify_conjecture(rs, delta)
    elems = [from_word(rs, delta, e.word, e.twist_power) for e in report.entries]
    keys = [e.key() for e in elems]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys) == coxeter_element_count(rs, delta)
    assert [e.word for e in report.entries] == [x.word() for x in elems]
    assert elems == coxeter_elements(rs, delta)


def test_sweep_holds_one_element_at_a_time():
    # A12 has 2^11 = 2,048 Coxeter elements.  Holding them all, with the
    # permutations analyze caches on each, peaked at 1.5 MB; the entries
    # the report keeps take about 0.45 MB.
    rs = rs_of("A12")
    verify_conjecture(rs_of("A3"))  # first-call imports and caches
    tracemalloc.start()
    try:
        report = verify_conjecture(rs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(report.entries) == 2048
    assert peak < 1_000_000


def _engine_w0_condition(x):
    h = x.order()
    return _w0_condition(x, h, _half_turn_target(x, h))


def test_half_turn_condition_matches_whole_permutations():
    # The engine compares the two sides on the simple roots only.
    rng = random.Random(11)
    seen = set()
    for name in ("A3", "A4", "B3", "D4", "G2", "F4", "E6"):
        rs = rs_of(name)
        for delta in diagram_automorphisms(rs):
            k = 0 if delta.is_identity else 1
            for _ in range(60):
                word = [rng.randrange(rs.rank) for _ in range(rng.randint(0, 2 * rs.rank))]
                x = from_word(rs, delta, word, k)
                expected = check_w0_condition(x)
                assert _engine_w0_condition(x) == expected, (name, delta.label(), word)
                seen.add(expected)
            for c in coxeter_elements(rs, delta):
                assert _engine_w0_condition(c) == check_w0_condition(c)
    assert seen == {False, True}
