"""Oracles for the sign-stability analysis.

Where a worked example from the literature pins a value, the test recomputes
it with a standalone brute-force iteration on ambient coordinates before
asserting, so the production path and the oracle stay independent.
"""

import random

import pytest

from weylconvex import perm
from weylconvex.convexity import (
    INFINITY,
    _sign_runs,
    analyze,
    condition2_full_pairs,
    n_of,
    phi_of,
)
from weylconvex.errors import InconsistencyError, InputError
from weylconvex.roots import CartanType, build_root_system, diagram_automorphisms
from weylconvex.weyl import (
    TwistedElement,
    enumerate_weyl_group,
    expand,
    from_one_line,
    from_word,
    longest_element,
)

from reference_weyl import identity_element, is_quasi_convex, level_filtration

RS = {}


def rs_of(name):
    if name not in RS:
        RS[name] = build_root_system(CartanType.parse(name))
    return RS[name]


def every_element(name):
    rs = rs_of(name)
    ident = diagram_automorphisms(rs)[0]
    for key in enumerate_weyl_group(rs):
        yield TwistedElement(rs, expand(rs, key), ident, 0)


# ---------------------------------------------------------------------------
# Brute-force oracle: iterate the action on ambient vectors directly.


def oracle_levels(x):
    """(phi_x, n) computed from scratch by orbit iteration on coordinates."""
    rs = x.rs
    order = x.order()
    phi = set()
    levels = {}
    for i in range(rs.count):
        positive = rs.is_positive(i)
        j = i
        flipped = None
        for step in range(1, order + 1):
            j = x.perm[j]
            if rs.is_positive(j) != positive and flipped is None:
                flipped = step
        if flipped is None:
            phi.add(i)
        else:
            levels[i] = flipped
    return frozenset(phi), levels


def test_phi_identity():
    rs = rs_of("A2")
    x = identity_element(rs)
    assert phi_of(x) == frozenset(range(rs.count))


def test_phi_s1_in_a2():
    rs = rs_of("A2")
    s1 = from_word(rs, None, [0])
    a1, a2 = rs.simple_indices
    a12 = rs.sum_table[(a1, a2)]
    expected = frozenset({a2, a12, rs.neg(a2), rs.neg(a12)})
    assert phi_of(s1) == expected
    # Not a standard parabolic subsystem, so s1 is not quasi-convex.
    assert not analyze(s1).condition1_ok
    assert not is_quasi_convex(s1)


def test_phi_empty_for_elliptic():
    from weylconvex.weyl import is_elliptic

    for name in ("A2", "A4", "C3"):
        rs = rs_of(name)
        cox = from_word(rs, None, list(range(rs.rank)))
        assert is_elliptic(cox)
        assert phi_of(cox) == frozenset()


def test_n_values_w0():
    rs = rs_of("B2")
    x = longest_element(rs)
    for i in range(rs.positive_count):
        assert n_of(x, i) == 1


def test_n_rejects_phi_roots():
    rs = rs_of("A2")
    s1 = from_word(rs, None, [0])
    a2 = rs.simple_indices[1]
    with pytest.raises(InputError):
        n_of(s1, a2)


def idx_of_sum(rs, labels):
    """Root index of a sum of simple roots given by 1-based labels."""
    coef = [0] * rs.rank
    for lab in labels:
        coef[lab - 1] += 1
    target = tuple(coef)
    for i in range(rs.count):
        if rs.coeffs[i] == target:
            return i
    raise AssertionError(f"no root with coefficients {target}")


def test_worked_example_a4_quasi_but_inverse_not():
    rs = rs_of("A4")
    x = from_word(rs, None, [0, 1, 2, 3, 0, 1])  # s1 s2 s3 s4 s1 s2
    rep = analyze(x)
    assert rep.quasi_convex
    assert not rep.inverse_quasi_convex
    assert not rep.convex
    xi = x.inverse()
    assert n_of(xi, idx_of_sum(rs, [2])) == 1
    assert n_of(xi, idx_of_sum(rs, [3, 4])) == 2
    assert n_of(xi, idx_of_sum(rs, [2, 3, 4])) == 3
    # Cross-check against the standalone orbit oracle.
    _, lv = oracle_levels(xi)
    assert lv[idx_of_sum(rs, [2])] == 1
    assert lv[idx_of_sum(rs, [3, 4])] == 2
    assert lv[idx_of_sum(rs, [2, 3, 4])] == 3


def test_worked_example_234123_convex():
    rs = rs_of("A4")
    x = from_word(rs, None, [1, 2, 3, 0, 1, 2])  # s2 s3 s4 s1 s2 s3
    rep = analyze(x)
    assert rep.convex
    assert x.length() == 6


def test_worked_example_c3_not_convex():
    rs = rs_of("C3")
    x = from_word(rs, None, [2, 1, 2, 0, 1])  # s3 s2 s3 s1 s2
    rep = analyze(x)
    assert not rep.convex


def test_worked_example_gl6_levels():
    rs = rs_of("A5")
    x = from_one_line(rs, [6, 3, 1, 5, 2, 4])  # the 6-cycle (1 6 4 5 2 3)
    assert n_of(x, idx_of_sum(rs, [2])) == 1
    assert n_of(x, idx_of_sum(rs, [3])) == 2
    assert n_of(x, idx_of_sum(rs, [2, 3])) == 3
    assert not is_quasi_convex(x)


def test_a2_coxeter_hand_iteration():
    rs = rs_of("A2")
    x = from_word(rs, None, [0, 1])  # s1 s2
    a1, a2 = rs.simple_indices
    a12 = rs.sum_table[(a1, a2)]
    assert n_of(x, a1) == 2
    assert n_of(x, a2) == 1
    assert n_of(x, a12) == 1
    assert analyze(x).convex


def test_analyze_matches_oracle_exhaustive():
    for name in ("A3", "B2"):
        for x in every_element(name):
            phi, levels = oracle_levels(x)
            rep = analyze(x)
            assert rep.phi_x == phi
            for i, lv in levels.items():
                assert rep.n_table[i] == lv
            for i in phi:
                assert rep.n_table[i] == INFINITY


def _walk_battery():
    """Every coset W*delta^k of the small battery and the exceptional types,
    and D12, whose 264 roots take tuple permutations."""
    for name in (
        "A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "D5",
        "G2", "F4", "E6", "E7", "E8", "D12",
    ):
        for delta in diagram_automorphisms(rs_of(name)):
            for k in range(delta.order):
                yield pytest.param(name, delta, k, id=f"{name}-{delta.label()}-{k}")


@pytest.mark.parametrize("name, delta, k", list(_walk_battery()))
def test_sign_run_walk_yields_level_ones_and_order(name, delta, k):
    # The walk's level-one roots and order, against their definitions:
    # n_y(a) = 1 exactly when y sends the positive root a to a negative one.
    rs = rs_of(name)
    pc = rs.positive_count
    rng = random.Random(f"{name}-{delta.label()}-{k}")
    for _ in range(6):
        word = [rng.randrange(rs.rank) for _ in range(rng.randrange(3 * rs.rank))]
        x = from_word(rs, delta, word, k)
        ones, inverse_ones, order = _sign_runs(x)[4:]
        inverse = x.inverse().perm
        assert ones == [a for a in range(pc) if x.perm[a] >= pc]
        assert inverse_ones == [a for a in range(pc) if inverse[a] >= pc]
        assert order == perm.order(x.perm) == analyze(x).order
    if name == "D12":
        assert isinstance(x.perm, tuple)


@pytest.mark.parametrize("name", ["A9", "D12"])
def test_sign_run_walk_order_exceeds_every_root_orbit(name):
    # s1 s3 s4 s6 s7 s8 s9 permutes coordinates as (1 2)(3 4 5)(6 7 8 9 10),
    # of order 30; a root e_i -+ e_j meets at most two of those cycles, so
    # no root orbit is longer than 15: the order is the lcm of the orbit
    # lengths, not the longest.
    rs = rs_of(name)
    x = from_word(rs, None, [0, 2, 3, 5, 6, 7, 8])
    assert max(map(len, perm.cycles(x.perm))) == 15
    assert _sign_runs(x)[6] == perm.order(x.perm) == 30


def test_condition2_equivalence_exhaustive():
    """Condition (2) full-pair oracle agrees with the (2') production path."""
    for name in ("A3", "B2"):
        for x in every_element(name):
            rep = analyze(x)
            full = condition2_full_pairs(x)
            assert rep.condition2_ok == (not full), (name, x.word())


def test_pretheorem_min_bound_exhaustive():
    """min(n(a), n(b)) <= n(a+b) for every element and applicable pair."""
    for name in ("A3", "B3", "G2"):
        rs = rs_of(name)
        pc = rs.positive_count
        for x in every_element(name):
            rep = analyze(x)
            t = rep.n_table
            for a in range(pc):
                for b in range(pc):
                    s = rs.sum_table.get((a, b))
                    if s is None or s >= pc:
                        continue
                    assert min(t[a], t[b]) <= t[s]


def test_phi_symmetric_and_stable():
    for x in every_element("B2"):
        phi = phi_of(x)
        assert phi == frozenset(x.rs.neg(i) for i in phi)
        assert phi == frozenset(x.perm[i] for i in phi)


def test_convex_symmetric_under_inverse():
    for x in every_element("A3"):
        assert analyze(x).convex == analyze(x.inverse()).convex


def test_negative_root_level_mirrors_positive():
    for x in every_element("B2"):
        rep = analyze(x)
        for i in range(x.rs.positive_count):
            assert rep.n_table[i] == rep.n_table[x.rs.neg(i)]


def test_basic_lemma_exhaustive():
    """For quasi-convex x: adding a phi_x root preserves the level, and the
    cumulative level sets are closed."""
    from weylconvex.roots import is_closed

    for name in ("A3", "B2", "G2"):
        rs = rs_of(name)
        pc = rs.positive_count
        for x in every_element(name):
            rep = analyze(x)
            if not rep.quasi_convex:
                continue
            t = rep.n_table
            for a in rep.phi_x:
                for b in range(rs.count):
                    if b in rep.phi_x:
                        continue
                    s = rs.sum_table.get((a, b))
                    if s is None:
                        continue
                    assert t[s] == t[b], (name, x.word())
            for cum in level_filtration(x):
                assert is_closed(rs, cum)


def test_level_filtration_w0():
    rs = rs_of("A3")
    w0 = longest_element(rs)
    filt = level_filtration(w0)
    assert len(filt) == 1
    assert filt[0] == frozenset(range(rs.positive_count))


def test_level_filtration_a2_coxeter():
    rs = rs_of("A2")
    x = from_word(rs, None, [0, 1])
    a1, a2 = rs.simple_indices
    a12 = rs.sum_table[(a1, a2)]
    filt = level_filtration(x)
    assert filt[0] == frozenset({a2, a12})
    assert filt[1] == frozenset({a1, a2, a12})


def test_level_filtration_rejects_non_quasi_convex():
    rs = rs_of("A2")
    with pytest.raises(InputError):
        level_filtration(from_word(rs, None, [0]))


def test_level_filtration_not_closed_names_the_type(monkeypatch):
    # Quasi-convexity makes every cumulative level set closed, so the
    # failure branch is reached only with the closedness test forced off.
    import weylconvex.roots

    monkeypatch.setattr(weylconvex.roots, "is_closed", lambda rs, roots: False)
    x = from_word(rs_of("A2"), None, [0, 1])
    with pytest.raises(InconsistencyError) as info:
        level_filtration(x)
    assert str(info.value) == "cumulative level set <= 1 is not closed for A2"


@pytest.mark.parametrize(
    "name, word", [("A2", [0, 1, 0]), ("A4", [0, 1, 2, 3, 0, 1])], ids=["A2-w0", "A4-quasi"]
)
def test_level_filtration_checks_the_descent(monkeypatch, name, word):
    # Every level moved up by one: level 1 is empty and each cumulative set
    # is one of the true ones, so all stay closed, but the roots now at
    # level 2 are sent to negative roots, not into level 1.  Only the
    # descent check sees it.
    import weylconvex.convexity

    x = from_word(rs_of(name), None, word)
    assert analyze(x).quasi_convex
    true_levels = weylconvex.convexity._levels
    monkeypatch.setattr(
        weylconvex.convexity,
        "_levels",
        lambda rep: {lev + 1: roots for lev, roots in true_levels(rep).items()},
    )
    with pytest.raises(InconsistencyError, match="level 2 does not descend into level 1"):
        level_filtration(x)


def test_strict_mode_flags():
    # Any audit flags recorded in strict mode must involve a phi_x sum.
    for x in every_element("B2"):
        rep = analyze(x, strict=True)
        for (a, b, na, nb, ns) in rep.audit_flags:
            assert ns == INFINITY


def test_identity_report():
    rs = rs_of("G2")
    rep = analyze(identity_element(rs))
    assert rep.convex
    assert rep.phi_x == frozenset(range(rs.count))
    assert rep.parabolic_J == frozenset(range(rs.rank))
    assert rep.max_level == 0
