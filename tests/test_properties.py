"""Randomized algebraic identities, hypothesis-driven."""

from hypothesis import given, settings
from hypothesis import strategies as st

from weylconvex.convexity import INFINITY, analyze, n_of, phi_of
from weylconvex.roots import CartanType, build_root_system, diagram_automorphisms
from weylconvex.weyl import from_word

RS = {}


def rs_of(name):
    if name not in RS:
        RS[name] = build_root_system(CartanType.parse(name))
    return RS[name]


words_b3 = st.lists(st.integers(min_value=0, max_value=2), max_size=12)
words_a3 = st.lists(st.integers(min_value=0, max_value=2), max_size=12)


@settings(max_examples=60, deadline=None)
@given(words_b3)
def test_convexity_symmetric_under_inverse_b3(word):
    x = from_word(rs_of("B3"), None, word)
    assert analyze(x).convex == analyze(x.inverse()).convex


@settings(max_examples=60, deadline=None)
@given(words_a3, st.integers(min_value=0, max_value=1))
def test_phi_symmetric_stable_twisted_a3(word, k):
    rs = rs_of("A3")
    flip = [a for a in diagram_automorphisms(rs) if not a.is_identity][0]
    x = from_word(rs, flip, word, twist_power=k)
    phi = phi_of(x)
    assert phi == frozenset(rs.neg(i) for i in phi)
    assert phi == frozenset(x.perm[i] for i in phi)
    rep = analyze(x)
    for i in range(rs.positive_count):
        assert rep.n_table[i] == rep.n_table[rs.neg(i)]


@settings(max_examples=60, deadline=None)
@given(words_b3, words_b3)
def test_length_subadditive_b3(w1, w2):
    rs = rs_of("B3")
    x, y = from_word(rs, None, w1), from_word(rs, None, w2)
    p = x.mul(y)
    assert p.length() <= x.length() + y.length()
    assert (p.length() - x.length() - y.length()) % 2 == 0


@settings(max_examples=40, deadline=None)
@given(words_a3, st.integers(min_value=0, max_value=1))
def test_min_bound_holds_for_random_twisted_elements(word, k):
    rs = rs_of("A3")
    flip = [a for a in diagram_automorphisms(rs) if not a.is_identity][0]
    x = from_word(rs, flip, word, twist_power=k)
    t = analyze(x).n_table
    pc = rs.positive_count
    for a in range(pc):
        for b in range(pc):
            s = rs.sum_table.get((a, b))
            if s is not None and s < pc:
                assert min(t[a], t[b]) <= t[s]


LEVEL_TYPES = ("A4", "B4", "D5", "E6", "E7", "E8")
typed_words = st.sampled_from(LEVEL_TYPES).flatmap(
    lambda name: st.tuples(
        st.just(name),
        st.lists(st.integers(min_value=0, max_value=int(name[1:]) - 1), max_size=16),
    )
)


def orbit_phi(x):
    """Roots whose whole x-orbit keeps one sign, one orbit walk per root."""
    rs = x.rs
    pc = rs.positive_count
    out = set()
    for g in range(rs.count):
        orbit = [g]
        j = x.perm[g]
        while j != g:
            orbit.append(j)
            j = x.perm[j]
        if all((h < pc) == (g < pc) for h in orbit):
            out.add(g)
    return frozenset(out)


@settings(max_examples=60, deadline=None)
@given(typed_words)
def test_report_levels_match_n_of(typed_word):
    name, word = typed_word
    rs = rs_of(name)
    for delta in diagram_automorphisms(rs):
        for k in range(delta.order):
            x = from_word(rs, delta, word, twist_power=k)
            xinv = x.inverse()
            rep = analyze(x)
            phi = orbit_phi(x)
            assert rep.phi_x == phi
            for g in range(rs.count):
                if g in phi:
                    assert rep.n_table[g] is INFINITY
                    assert rep.inverse_n_table[g] is INFINITY
                else:
                    assert rep.n_table[g] == n_of(x, g)
                    assert rep.inverse_n_table[g] == n_of(xinv, g)


def witness_key(rs, v):
    a, b = v[0], v[1]
    return (sum(rs.coeffs[a]), rs.coeffs[a], sum(rs.coeffs[b]), rs.coeffs[b])


def reference_condition2(rs, phi, table):
    """Condition (2) on level table `table`, over every positive pair.

    Returns the violations in witness order and the pairs whose sum lies
    in phi, in (alpha, beta) order.
    """
    pc = rs.positive_count
    violations, audit = [], []
    for a in range(pc):
        if table[a] != 1:
            continue
        for b in range(pc):
            s = rs.sum_table.get((a, b))
            if s is None or s >= pc:
                continue
            triple = (a, b, table[a], table[b], table[s])
            if s in phi:
                audit.append(triple)
            elif table[s] > table[b]:
                violations.append(triple)
    violations.sort(key=lambda v: witness_key(rs, v))
    return violations, audit


exceptional_words = st.sampled_from(("E6", "E6-flip", "E7", "E8")).flatmap(
    lambda name: st.tuples(
        st.just(name),
        st.lists(st.integers(min_value=0, max_value=int(name[1]) - 1), max_size=16),
        st.integers(min_value=0, max_value=1),
    )
)


@settings(max_examples=40, deadline=None)
@given(exceptional_words)
def test_condition2_matches_full_pair_reference(case):
    name, word, k = case
    rs = rs_of(name[:2])
    if name.endswith("flip"):
        delta = [a for a in diagram_automorphisms(rs) if not a.is_identity][0]
    else:
        delta, k = None, 0
    x = from_word(rs, delta, word, twist_power=k)
    xinv = x.inverse()
    phi = orbit_phi(x)
    pc = rs.positive_count
    table = [INFINITY if g in phi else n_of(x, g) for g in range(pc)]
    inverse_table = [INFINITY if g in phi else n_of(xinv, g) for g in range(pc)]
    violations, audit = reference_condition2(rs, phi, table)
    inverse_violations, _ = reference_condition2(rs, phi, inverse_table)
    rep = analyze(x, strict=True)
    assert list(rep.violations) == violations
    assert list(rep.inverse_violations) == inverse_violations
    assert list(rep.audit_flags) == audit
