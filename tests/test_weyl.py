import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import partial
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weylconvex
from weylconvex import perm, weyl
from weylconvex.errors import BudgetExceeded, InconsistencyError, InputError
from weylconvex.linalg import rank
from weylconvex.roots import (
    CartanType,
    build_root_system,
    diagram_automorphisms,
    identity_automorphism,
)
from weylconvex.weyl import (
    class_of,
    conjugacy_classes,
    cyclic_shift_class,
    enumerate_weyl_group,
    expand,
    fixed_roots,
    from_one_line,
    from_word,
    is_elliptic,
    longest_element,
    rotation_spectrum,
    TwistedElement,
)

from reference_geometry import spectrum_by_charpoly
from reference_matrix import OperatorField, mat_inv
from reference_weyl import ambient_roots, identity_element, matrix, sandwich_orbit as reference_sandwich_orbit

RS = {}


def rs_of(name):
    if name not in RS:
        RS[name] = build_root_system(CartanType.parse(name))
    return RS[name]


def flip_of(name):
    autos = diagram_automorphisms(rs_of(name))
    return [a for a in autos if not a.is_identity][0]


# ---------------------------------------------------------------------------
# Independent oracle for type A: one-line permutation composition.


def one_line(word, n):
    """Compose adjacent transpositions by hand, rightmost first."""
    p = list(range(1, n + 1))
    for lab in reversed(word):
        p[lab], p[lab + 1] = p[lab + 1], p[lab]
        # p as images: applying s after current p means permuting positions...
    # Recompute properly: build function composition sigma_{i1} o ... o sigma_{iL}
    def apply(word, x):
        for lab in reversed(word):
            if x == lab + 1:
                x = lab + 2
            elif x == lab + 2:
                x = lab + 1
        return x

    return [apply(word, i) for i in range(1, n + 1)]


def test_one_line_oracle_matches_root_action():
    rs = rs_of("A3")
    word = [1, 0, 2]  # s2 s1 s3 in 1-based labels
    x = from_word(rs, None, word)
    p = one_line(word, 4)
    # Check x(e_i - e_j) = e_{p(i)} - e_{p(j)} on all roots.
    roots = ambient_roots(rs)
    for idx in range(rs.count):
        v = roots[idx]
        i = v.index(1)
        j = v.index(-1)
        img = [Fraction(0)] * 4
        img[p[i] - 1] = Fraction(1)
        img[p[j] - 1] = Fraction(-1)
        assert roots[x.perm[idx]] == tuple(img)


def test_from_word_reduces_and_lengths():
    rs = rs_of("A2")
    w0 = from_word(rs, None, [0, 1, 0])
    assert w0.length() == 3
    assert w0.word() == (0, 1, 0)
    ident = from_word(rs, None, [])
    assert ident.is_identity()
    # s1 s1 cancels
    assert from_word(rs, None, [0, 0]).is_identity()


def test_from_word_a3_matches_composition():
    rs = rs_of("A3")
    x = from_word(rs, None, [1, 0, 2])
    s2 = from_word(rs, None, [1])
    s1 = from_word(rs, None, [0])
    s3 = from_word(rs, None, [2])
    assert x == s2.mul(s1).mul(s3)
    assert x.length() == 3


@pytest.mark.parametrize(
    "name, bad", [("A3", -1), ("A3", -3), ("A3", 3), ("A20", -1), ("A20", 20)]
)
def test_from_word_refuses_labels_out_of_range(name, bad):
    # A3 takes the bytes path and A20 the tuple path; a negative label
    # must not index from the end of the generators.
    rs = rs_of(name)
    with pytest.raises(InputError, match="out of range"):
        from_word(rs, None, [0, bad, 1])


def test_act_a2():
    rs = rs_of("A2")
    a1, a2 = rs.simple_indices
    a12 = rs.sum_table[(a1, a2)]
    x = from_word(rs, None, [0, 1])  # s1 s2
    assert x.perm[a1] == a2
    assert x.perm[a12] == rs.neg(a1)
    assert x.perm_inv[a2] == a1 and x.perm_inv[rs.neg(a1)] == a12


def test_longest_element():
    for name, ln in (("A1", 1), ("A2", 3), ("B2", 4), ("G2", 6), ("A3", 6)):
        rs = rs_of(name)
        w0 = longest_element(rs)
        assert w0.length() == ln == rs.positive_count
        pc = rs.positive_count
        assert all(w0.root_perm[i] >= pc for i in range(pc))
    # w0 = -1 in B2: every root goes to its negative
    rs = rs_of("B2")
    w0 = longest_element(rs)
    assert all(w0.root_perm[i] == rs.neg(i) for i in range(rs.count))


@pytest.mark.parametrize("name, order", [("D4", 3), ("E6", 2)])
def test_twisted_elements_equal_exactly_when_powers_agree_mod_twist_order(name, order):
    rs = rs_of(name)
    delta = next(d for d in diagram_automorphisms(rs) if d.order == order)
    words = ([], [0], [1, 0, 2], list(range(rs.rank)), longest_element(rs).word())
    powers = range(-order, 2 * order + 1)
    for word in words:
        p = from_word(rs, None, word).root_perm
        for k in powers:
            x = TwistedElement(rs, p, delta, k)
            for k2 in powers:
                y = TwistedElement(rs, p, delta, k2)
                assert (x == y) == ((k - k2) % order == 0)
                if x == y:
                    assert hash(x) == hash(y)
        assert len({TwistedElement(rs, p, delta, k) for k in powers}) == order
    # Two separately built identity twists give one untwisted element.
    p = from_word(rs, None, [0, 1]).root_perm
    x = TwistedElement(rs, p, identity_automorphism(rs), 0)
    y = TwistedElement(rs, p, identity_automorphism(rs), 0)
    assert x == y and hash(x) == hash(y) and len({x, y}) == 1
    w0 = longest_element(rs)
    assert w0 == from_word(rs, None, w0.word())


def test_d4_trialities_give_equal_elements_exactly_when_the_automorphisms_agree():
    rs = rs_of("D4")
    da, db = (d for d in diagram_automorphisms(rs) if d.order == 3)
    assert da.simple_perm != db.simple_perm
    s1 = from_word(rs, None, [0]).root_perm
    x = TwistedElement(rs, s1, da, 1)
    y = TwistedElement(rs, s1, db, 1)
    assert x != y and x.perm != y.perm
    # The two trialities are each other's squares: s1 * da^2 is s1 * db.
    z = TwistedElement(rs, s1, da, 2)
    assert z.perm == y.perm
    assert z == y and hash(z) == hash(y) and len({y, z}) == 1
    ea = TwistedElement(rs, perm.identity(rs.count), da, 1)
    eb = TwistedElement(rs, perm.identity(rs.count), db, 1)
    assert eb not in weyl._shift_reachable_set(ea)


@pytest.mark.parametrize("first, second", [("A3", "G2"), ("B3", "C3")])
def test_elements_of_different_types_are_unequal(first, second):
    # Each pair has one root count, so its identities share a root_perm;
    # B3 and C3 share the rank too.
    a, b = rs_of(first), rs_of(second)
    assert a.count == b.count
    x = from_word(a, None, [])
    y = from_word(b, None, [])
    assert x.root_perm == y.root_perm
    assert x != y and len({x, y}) == 2


def test_length_equals_word_length_exhaustive():
    for name in ("A3", "B3", "G2"):
        rs = rs_of(name)
        for key in enumerate_weyl_group(rs):
            w = TwistedElement(rs, expand(rs, key), identity_automorphism(rs), 0)
            assert w.length() == len(w.word())


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=3), max_size=14))
def test_random_words_b4_length_consistency(word):
    rs = rs_of("B4")
    x = from_word(rs, None, word)
    assert x.length() == len(x.word())
    assert x.length() <= len(word)
    assert (x.length() - len(word)) % 2 == 0


def test_conjugacy_classes_a2():
    rs = rs_of("A2")
    classes = conjugacy_classes(rs)
    assert len(classes) == 3
    sizes = sorted(len(c) for c in classes)
    assert sizes == [1, 2, 3]
    assert sum(len(c) for c in classes) == 6


def test_conjugacy_classes_a3():
    classes = conjugacy_classes(rs_of("A3"))
    assert len(classes) == 5  # partitions of 4
    assert sum(len(c) for c in classes) == 24


def test_twisted_classes_a2():
    rs = rs_of("A2")
    delta = flip_of("A2")
    classes = conjugacy_classes(rs, delta, 1)
    assert sum(len(c) for c in classes) == 6
    assert len(classes) == 3
    # Independent oracle: orbit closure computed directly on (perm, k) pairs.
    all_elems = {
        TwistedElement(rs, expand(rs, key), delta, 1)
        for key in enumerate_weyl_group(rs)
    }
    seen = set()
    orbits = 0
    for e in sorted(all_elems, key=lambda t: t.key()):
        if e in seen:
            continue
        orbits += 1
        stack = [e]
        while stack:
            z = stack.pop()
            if z in seen:
                continue
            seen.add(z)
            for lab in range(rs.rank):
                stack.append(z.conj_by_simple(lab))
    assert orbits == 3


def test_budget_refusal():
    rs = rs_of("E6")
    with pytest.raises(BudgetExceeded):
        enumerate_weyl_group(rs, budget=1000)


def test_wrong_weyl_order_is_inconsistency(monkeypatch):
    rs = rs_of("A2")
    monkeypatch.setattr(CartanType, "weyl_order", lambda self: 7)
    with pytest.raises(InconsistencyError):
        enumerate_weyl_group(rs)


def test_wrong_weyl_order_exits_3_under_optimize():
    # Under -O every assert is gone; the enumeration check must still fire.
    script = (
        "import sys\n"
        "if not sys.flags.optimize:\n"
        "    sys.exit(99)\n"
        "from weylconvex.roots import CartanType\n"
        "CartanType.weyl_order = lambda self: 7\n"
        "from weylconvex.cli import main\n"
        "sys.exit(main(['--no-cache', 'reps', '--type', 'A2']))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(weylconvex.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert "inconsistency" in proc.stderr


def test_cyclic_shift():
    rs = rs_of("A2")
    x = from_word(rs, None, [0, 1, 0])  # s1 s2 s1
    s1 = from_word(rs, None, [0])
    assert x in weyl._shift_reachable_set(x)
    assert s1 in weyl._shift_reachable_set(x)  # length drops 3 -> 1
    assert x not in weyl._shift_reachable_set(s1)


def test_cyclic_shift_class_is_symmetric_at_min_length():
    for name in ("A3", "B2", "G2", "C3"):
        rs = rs_of(name)
        for cls in conjugacy_classes(rs):
            omin = cls.min_length_set()
            reach = {y: weyl._shift_reachable_set(y) for y in omin}
            for y in omin:
                for z in omin:
                    # reachability at minimal length is symmetric: tested, not assumed
                    assert (z in reach[y]) == (y in reach[z])


@pytest.mark.parametrize(
    "name,twisted",
    [("A3", False), ("A3", True), ("B3", False), ("A4", False), ("A4", True),
     ("D4", False), ("D4", True), ("G2", False)],
    ids=lambda v: v if isinstance(v, str) else ("twisted" if v else "untwisted"),
)
def test_cyclic_shift_class_is_two_way_reachability(name, twisted):
    # x -> y and y -> x, checked both ways for every element of the coset.
    rs = rs_of(name)
    delta = flip_of(name) if twisted else identity_automorphism(rs)
    for key in enumerate_weyl_group(rs):
        x = weyl.TwistedElement(rs, expand(rs, key), delta, int(twisted))
        both = [y for y in weyl._shift_reachable_set(x) if x in weyl._shift_reachable_set(y)]
        assert cyclic_shift_class(x) == sorted(both, key=lambda e: e.key())


def test_is_elliptic():
    rs = rs_of("A2")
    assert not is_elliptic(identity_element(rs))
    cox = from_word(rs, None, [0, 1])
    assert is_elliptic(cox)
    rs4 = rs_of("A4")
    assert is_elliptic(from_word(rs4, None, [0, 1, 2, 3]))
    # C3 element from the worked example battery
    rsc = rs_of("C3")
    x = from_word(rsc, None, [2, 1, 2, 0, 1])  # s3 s2 s3 s1 s2
    assert is_elliptic(x)


def test_fixed_roots():
    rs = rs_of("A2")
    assert fixed_roots(identity_element(rs)) == frozenset(range(rs.count))
    s1 = from_word(rs, None, [0])
    assert fixed_roots(s1) == frozenset()


def test_fixed_roots_subset_of_signed_stable():
    # A fixed root never changes sign, so Phi^x is contained in Phi(x).
    from weylconvex.convexity import phi_of

    rs = rs_of("B2")
    for key in enumerate_weyl_group(rs):
        x = TwistedElement(rs, expand(rs, key), diagram_automorphisms(rs)[0], 0)
        assert fixed_roots(x) <= phi_of(x)


def test_from_one_line():
    rs = rs_of("A4")
    x = from_word(rs, None, [0, 1, 2, 3, 0, 1])
    # One-line form computed by the independent oracle above.
    p = one_line([0, 1, 2, 3, 0, 1], 5)
    y = from_one_line(rs, p)
    assert x == y


@pytest.mark.parametrize(
    "name, one_line, reason",
    [("B3", [1, 2, 3], "type A"), ("A3", [1, 2, 2, 4], "not a permutation")],
    ids=["type-B", "repeated-entry"],
)
def test_from_one_line_refuses(name, one_line, reason):
    with pytest.raises(InputError, match=reason):
        from_one_line(rs_of(name), one_line)


def test_inverse_and_order():
    rs = rs_of("A3")
    delta = flip_of("A3")
    x = from_word(rs, None, [0, 1], twist_power=1)
    ident = x.mul(x.inverse())
    assert ident.is_identity()
    assert x.order() >= 1
    xi = x
    for _ in range(x.order() - 1):
        xi = xi.mul(x)
    assert xi.is_identity()


@pytest.mark.parametrize("name", ["A4", "B4", "D4", "D5", "F4", "E6"])
def test_inverse_matrix_is_matrix_inverse(name):
    # matrix(x^-1, J) must be the inverse of matrix(x, J), for every twist
    # and for parabolic J stable under it (x = w delta^k with w in W_J).
    rs = rs_of(name)
    rng = random.Random(sum(map(ord, name)))
    for delta in diagram_automorphisms(rs):
        orbits = {tuple(sorted(_orbit(delta, lab))) for lab in range(rs.rank)}
        for _ in range(8):
            picked = [o for o in sorted(orbits) if rng.random() < 0.6] or [sorted(orbits)[0]]
            labels = sorted(lab for o in picked for lab in o)
            if rng.random() < 0.3:
                labels = list(range(rs.rank))
            word = [rng.choice(labels) for _ in range(rng.randint(0, 3 * len(labels)))]
            x = from_word(rs, delta, word, twist_power=rng.randrange(delta.order))
            M = [[Fraction(v) for v in row] for row in matrix(x, labels)]
            expected = mat_inv(M, OperatorField(Fraction(1)))
            assert matrix(x.inverse(), labels) == expected, (name, word, labels)


def _orbit(delta, lab):
    out = {lab}
    while delta.simple_perm[lab] not in out:
        lab = delta.simple_perm[lab]
        out.add(lab)
    return out


def test_conjugation_consistency():
    rs = rs_of("A3")
    delta = flip_of("A3")
    x = from_word(rs, None, [1, 0], twist_power=1)
    s0 = from_word(rs, None, [0], twist_power=0)
    lhs = x.conj_by_simple(0)
    rhs = s0.mul(x).mul(s0)
    assert lhs == rhs


def test_class_of_roundtrip():
    rs = rs_of("B2")
    x = from_word(rs, None, [0, 1])
    cls = class_of(x)
    assert any(y == x for y in cls.elements)


@pytest.mark.parametrize("name, flipped", [("A3", False), ("B3", False), ("G2", False), ("A3", True)])
def test_class_of_matches_class_table(name, flipped):
    # class_of searches one orbit; its class must be the one the full
    # partition of the coset holds, member for member.
    rs = rs_of(name)
    delta = flip_of(name) if flipped else None
    k = 1 if flipped else 0
    for cls in conjugacy_classes(rs, delta, k):
        for x in cls.elements:
            found = class_of(x)
            assert found.keys == cls.keys
            assert found.representative == cls.representative
            assert found.representative.word() == cls.representative.word()
            assert found.min_length == cls.min_length


def test_orbit_search_lookup_miss_is_inconsistency():
    # conjugacy_classes hands the orbit search its table's own pop: a member
    # the table no longer holds (here, one taken out beforehand, as if
    # another class had claimed it) raises KeyError, which the search turns
    # into an inconsistency.
    rs = rs_of("B3")
    table = enumerate_weyl_group(rs)
    start = from_word(rs, None, [0, 1, 2]).root_perm
    cls = class_of(from_word(rs, None, [0, 1, 2]))
    table.pop(cls.keys[-1])
    assert cls.keys[-1] != start[: rs.rank]
    ident = identity_automorphism(rs)
    search = weyl._orbit_search(rs, ident, 0)
    with pytest.raises(InconsistencyError, match="outside the enumeration"):
        weyl._orbit_class(rs, ident, 0, search, start, table.pop)


def test_class_of_keeps_the_budget_refusal():
    rs = rs_of("E6")
    x = from_word(rs, None, [0, 1])
    with pytest.raises(BudgetExceeded) as by_class:
        class_of(x, budget=1000)
    with pytest.raises(BudgetExceeded) as by_table:
        enumerate_weyl_group(rs, budget=1000)
    assert str(by_class.value) == str(by_table.value)


def test_cyclic_shift_class_elements_share_length():
    rs = rs_of("A4")
    x = from_word(rs, None, [1, 2, 3, 0, 1, 2])
    peers = cyclic_shift_class(x)
    assert x in peers
    assert all(y.length() == 6 for y in peers)


def test_f4_class_count():
    classes = conjugacy_classes(rs_of("F4"))
    assert len(classes) == 25
    assert sum(len(c) for c in classes) == 1152


def test_min_length_shift_symmetry_more_types():
    for name in ("A1", "A2", "A4", "B3", "D4"):
        rs = rs_of(name)
        for cls in conjugacy_classes(rs):
            omin = cls.min_length_set()
            reach = {y: weyl._shift_reachable_set(y) for y in omin}
            for y in omin:
                for z in omin:
                    assert (z in reach[y]) == (y in reach[z])


# ---------------------------------------------------------------------------
# Class counts against Carter's formulas ("Conjugacy classes in the Weyl
# group", Compositio Math. 1972), independent of the engine.


def partitions(n):
    """p(n) for n >= 0."""
    p = [1] + [0] * n
    for part in range(1, n + 1):
        for m in range(part, n + 1):
            p[m] += p[m - part]
    return p[n]


def bipartition_counts(n):
    """Bipartitions (alpha, beta) of n, split by the parity of l(beta)."""
    # q[m][l]: partitions of m into exactly l parts.
    q = [[0] * (n + 1) for _ in range(n + 1)]
    q[0][0] = 1
    for m in range(1, n + 1):
        for l in range(1, m + 1):
            # Either a part equals 1 (drop it) or all parts are >= 2
            # (subtract 1 from each).
            q[m][l] = q[m - 1][l - 1] + q[m - l][l]
    even = odd = 0
    for m in range(n + 1):
        for l in range(m + 1):
            if q[m][l]:
                if l % 2:
                    odd += partitions(n - m) * q[m][l]
                else:
                    even += partitions(n - m) * q[m][l]
    return even, odd


def carter_class_count(family, n, twist_order):
    """Classes in the coset W * delta of a twist of the given order."""
    if family == "A":
        return partitions(n + 1)
    if family in ("B", "C"):
        return sum(bipartition_counts(n))
    if family == "D":
        even, odd = bipartition_counts(n)
        if twist_order == 3:
            return 7
        if twist_order == 2:
            return odd
        return even + (partitions(n // 2) if n % 2 == 0 else 0)
    if family == "E":
        return {6: 25, 7: 60, 8: 112}[n]
    return {"G": 6, "F": 25}[family]


def test_carter_formulas_match_known_counts():
    # Carter's table, read off by hand.
    assert [partitions(n) for n in range(1, 9)] == [1, 2, 3, 5, 7, 11, 15, 22]
    assert [sum(bipartition_counts(n)) for n in range(1, 7)] == [2, 5, 10, 20, 36, 65]
    assert carter_class_count("D", 4, 1) == 13
    assert carter_class_count("D", 5, 1) == 18
    assert carter_class_count("D", 6, 1) == 37
    assert carter_class_count("D", 4, 2) == 9
    assert carter_class_count("D", 5, 2) == 18


WITHIN_BUDGET = (
    [f"A{n}" for n in range(1, 8)]
    + [f"B{n}" for n in range(2, 7)]
    + [f"C{n}" for n in range(2, 7)]
    + [f"D{n}" for n in range(4, 7)]
    + ["G2", "F4", "E6"]
)


def test_class_count_sweep_covers_every_type_within_budget():
    from weylconvex.weyl import DEFAULT_ENUMERATION_BUDGET

    def order(name):
        return CartanType.parse(name).weyl_order()

    assert all(order(name) <= DEFAULT_ENUMERATION_BUDGET for name in WITHIN_BUDGET)
    # The next rank of each family is over the budget.
    assert all(
        order(name) > DEFAULT_ENUMERATION_BUDGET
        for name in ("A8", "B7", "C7", "D7", "E7")
    )


@pytest.mark.parametrize("name", WITHIN_BUDGET)
def test_class_counts_match_carter(name):
    rs = rs_of(name)
    ct = rs.cartan_type
    for delta in diagram_automorphisms(rs):
        for k in range(1, delta.order + 1):
            twist_order = delta.order // gcd(delta.order, k)
            classes = conjugacy_classes(rs, delta, k)
            assert len(classes) == carter_class_count(ct.family, ct.rank, twist_order), (
                f"{name} delta={delta.label()} k={k}"
            )
            assert sum(len(c) for c in classes) == ct.weyl_order()


@pytest.mark.parametrize(
    "name, fmt",
    [(name, "bytes") for name in WITHIN_BUDGET] + [(name, "tuple") for name in ("A3", "D4", "F4")],
)
def test_pruned_orbit_search_matches_reference(name, fmt, monkeypatch):
    # Skipping the pairs that commute with the one that reached a member
    # loses no member: from every class representative, in every coset of
    # the sweep (the D4 triality cosets included), the orbit and its values
    # are those of the search that applies every other pair.
    if fmt == "tuple":
        monkeypatch.setattr(perm, "PAD", b"")
        rs = build_root_system(CartanType.parse(name))
        assert type(rs.simple_reflection_perm(0)) is tuple
    else:
        rs = rs_of(name)
    # The reference keys its orbit by whole permutations, the search by
    # their first rank images; one search set-up serves every class.
    pc, r = rs.positive_count, rs.rank
    length_of = partial(perm.length, pc=pc)

    def length_of_key(key):
        return perm.length(expand(rs, key), pc)

    for delta in diagram_automorphisms(rs):
        for k in range(1, delta.order + 1):
            pairs = [weyl._conjugating_pair(rs, delta, k, lab) for lab in range(r)]
            search = perm.sandwich_orbits(pairs, r)
            for cls in conjugacy_classes(rs, delta, k):
                start = cls.representative.root_perm
                orbit = search(start, length_of_key)
                reference = reference_sandwich_orbit(start, pairs, length_of)
                assert orbit == {w[:r]: v for w, v in reference.items()}
                assert sorted(orbit) == sorted(cls.keys)


# ---------------------------------------------------------------------------
# Class members against a BFS over conj_by_simple written here.


def reference_class(x):
    seen = {x}
    frontier = [x]
    while frontier:
        nxt = []
        for z in frontier:
            for lab in range(z.rs.rank):
                y = z.conj_by_simple(lab)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return sorted(seen, key=lambda e: (e.length(), e.root_perm))


@pytest.mark.parametrize(
    "name, delta_images, k",
    [
        ("A4", None, 0),
        ("B3", None, 0),
        ("D4", (2, 1, 3, 0), 1),
        ("F4", None, 0),
        # Twisted cosets where s' = delta^k(s) differs from s: 2A4 and the
        # square of triality.
        ("A4", (3, 2, 1, 0), 1),
        ("D4", (2, 1, 3, 0), 2),
    ],
)
def test_class_members_match_reference(name, delta_images, k):
    rs = rs_of(name)
    delta = None
    if delta_images is not None:
        (delta,) = [
            d for d in diagram_automorphisms(rs) if tuple(d.simple_perm) == delta_images
        ]
    classes = conjugacy_classes(rs, delta, k)
    covered = set()
    for cls in classes:
        ref = reference_class(cls.representative)
        members = list(cls.elements)
        assert members == ref
        assert [y.twist_power for y in members] == [cls.twist_power] * len(ref)
        assert len(cls) == len(ref)
        assert set(members).isdisjoint(covered)
        covered.update(members)
        min_len = ref[0].length()
        assert cls.min_length == min_len
        assert cls.min_length_set() == tuple(y for y in ref if y.length() == min_len)
        assert cls.representative in cls.min_length_set()
    assert len(covered) == rs.cartan_type.weyl_order()


def test_enumeration_lengths_are_inversion_counts():
    rs = rs_of("B3")
    lengths = enumerate_weyl_group(rs)
    for key, length in lengths.items():
        x = TwistedElement(rs, expand(rs, key), identity_automorphism(rs), 0)
        assert length == x.length()


def plain_bfs(rs, labels=None):
    """{perm: length} over the subgroup generated by the given simple
    reflections (all by default), by a BFS over right multiplication that
    keeps every product it has not seen."""
    if labels is None:
        labels = range(rs.rank)
    gens = [rs.simple_reflection_perm(lab) for lab in labels]
    start = perm.identity(rs.count)
    lengths = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for p in frontier:
            for s in gens:
                q = perm.compose(p, s)
                if q not in lengths:
                    lengths[q] = lengths[p] + 1
                    nxt.append(q)
        frontier = nxt
    return lengths


@pytest.mark.parametrize("name", ["A4", "B3", "G2", "D4", "F4", "E6"])
def test_enumeration_matches_plain_bfs(name):
    rs = rs_of(name)
    lengths = enumerate_weyl_group(rs)
    reference = plain_bfs(rs)
    assert lengths == {p[: rs.rank]: length for p, length in reference.items()}
    assert {expand(rs, key): length for key, length in lengths.items()} == reference
    assert len(lengths) == rs.cartan_type.weyl_order()


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "G2", "D4", "F4"])
def test_expand_rebuilds_every_element(name):
    rs = rs_of(name)
    for w in plain_bfs(rs):
        assert expand(rs, w[: rs.rank]) == w


@pytest.mark.parametrize("name", ["A16", "B12", "D12"])
def test_expand_rebuilds_random_tuple_permutations(name):
    rs = rs_of(name)
    assert type(rs.simple_reflection_perm(0)) is tuple
    rng = random.Random(f"expand {name}")
    for _ in range(30):
        word = [rng.randrange(rs.rank) for _ in range(rng.randrange(60))]
        w = from_word(rs, None, word).root_perm
        assert expand(rs, w[: rs.rank]) == w


def test_keys_sort_as_their_permutations():
    # A class lists its members by (length, key); that is (length,
    # permutation) order only if keys sort as the permutations they expand to.
    rs = rs_of("E6")
    full = sorted(plain_bfs(rs))
    assert sorted(enumerate_weyl_group(rs)) == [w[: rs.rank] for w in full]


@pytest.mark.parametrize("name", ["A4", "B3", "G2", "D4", "F4", "E6"])
def test_coset_representatives_are_the_minimal_ones(name):
    # Level k holds one minimal representative per coset of W_(k-1) in
    # W_k = <s_0, ..., s_k>: [W_k : W_(k-1)] of them, each with its length
    # and sending alpha_0, ..., alpha_(k-1) to positive roots.
    rs = rs_of(name)
    pc = rs.positive_count
    below = 1
    for k in range(rs.rank):
        w_k = plain_bfs(rs, range(k + 1))
        reps = weyl._coset_representatives(rs, k)
        assert len(reps) * below == len(w_k)
        assert len({x for x, _ in reps}) == len(reps)
        for x, lx in reps:
            assert w_k[x] == lx == perm.length(x, pc)
            assert all(x[rs.simple_indices[i]] < pc for i in range(k))
        below = len(w_k)


@pytest.mark.parametrize("level", ["first", "middle", "last"])
@pytest.mark.parametrize("fault", ["duplicated", "dropped"])
def test_corrupted_representative_table_is_inconsistency(level, fault, monkeypatch):
    # A representative listed twice builds its coset twice, and one left
    # out misses its coset; the dict would hide a duplicate, so the count
    # check must catch both.
    rs = rs_of("D4")
    k = {"first": 0, "middle": 1, "last": rs.rank - 1}[level]
    reps = weyl._coset_representatives

    def corrupted(rs, j):
        out = reps(rs, j)
        if j == k:
            out = out + out[-1:] if fault == "duplicated" else out[:-1]
        return out

    monkeypatch.setattr(weyl, "_coset_representatives", corrupted)
    with pytest.raises(InconsistencyError, match="expected 192"):
        enumerate_weyl_group(rs)


@pytest.mark.parametrize(
    "name, delta_images, k", [("F4", None, 0), ("D4", (2, 1, 3, 0), 1), ("A3", (2, 1, 0), 1)]
)
def test_class_tables_match_on_tuple_permutations(name, delta_images, k, monkeypatch):
    # With no bytes table every root system stores tuples; the class table
    # must not depend on the format.
    def table(rs):
        delta = None
        if delta_images is not None:
            (delta,) = [
                d for d in diagram_automorphisms(rs) if tuple(d.simple_perm) == delta_images
            ]
        return [
            ([tuple(w) for w in c.keys], c.min_length, c.representative.word())
            for c in conjugacy_classes(rs, delta, k)
        ]

    expected = table(rs_of(name))
    monkeypatch.setattr(perm, "PAD", b"")
    rs = build_root_system(CartanType.parse(name))
    assert type(rs.simple_reflection_perm(0)) is tuple
    assert table(rs) == expected


def test_conjugate_outside_the_enumeration_is_inconsistency(monkeypatch):
    # A diagram automorphism other than 1 is not in W, so w -> flip * w
    # leaves W; the orbit search must notice instead of growing a class
    # past the group.
    rs = rs_of("A2")
    pair = (flip_of("A2").root_perm, perm.identity(rs.count))
    monkeypatch.setattr(weyl, "_conjugating_pair", lambda rs, d, k, lab: pair)
    with pytest.raises(InconsistencyError):
        conjugacy_classes(rs)


@pytest.mark.parametrize("name", ["A4", "B4", "D4", "F4", "E6"])
def test_representative_has_the_least_word_of_the_minimal_members(name):
    # The greedy descent walk picks the member a min over every minimal
    # member's least reduced word picks, in every coset of every twist.
    rs = rs_of(name)
    for delta in diagram_automorphisms(rs):
        for k in range(delta.order):
            for cls in conjugacy_classes(rs, delta, k):
                best = min(cls.min_length_set(), key=lambda e: (e.word(), e.root_perm))
                assert cls.representative == best


# ---------------------------------------------------------------------------
# Rotation spectra from the simple-root orbits, against the characteristic
# polynomial of the matrix.


def elliptic_by_rank(x) -> bool:
    """No fixed vector: M - I has full rank."""
    M = matrix(x)
    for i, row in enumerate(M):
        row[i] -= 1
    return rank(M) == len(M)


@pytest.mark.parametrize("name", WITHIN_BUDGET)
def test_rotation_spectrum_matches_charpoly_on_every_class(name):
    # Every class of W and of each twisted coset: the A flips, the D4
    # trialities and the E6 flip among them.  The order read off the
    # simple-root orbits is the order of the whole root permutation.
    rs = rs_of(name)
    for delta in diagram_automorphisms(rs):
        for k in [0] if delta.is_identity else range(1, delta.order):
            for cls in conjugacy_classes(rs, delta, k):
                x = cls.representative
                assert rotation_spectrum(x) == spectrum_by_charpoly(x), (delta.label(), k, x.word())
                assert is_elliptic(x) == elliptic_by_rank(x)
                assert x.order() == perm.order(x.perm)


def test_rotation_spectrum_of_high_order_elements():
    a16 = from_word(rs_of("A16"), None, list(range(16)))
    assert rotation_spectrum(a16) == spectrum_by_charpoly(a16) == {17: 1}
    # Cycle type (3, 4, 5) in S_12: order 60 on W(A11).  Each cycle spans a
    # stable parabolic, and so does any union of them.
    a11 = from_one_line(rs_of("A11"), [2, 3, 1, 5, 6, 7, 4, 9, 10, 11, 12, 8])
    assert a11.order() == 60
    assert rotation_spectrum(a11) == spectrum_by_charpoly(a11) == {1: 2, 2: 1, 3: 1, 4: 1, 5: 1}
    for labels in [(0, 1), (3, 4, 5), (7, 8, 9, 10), (0, 1, 7, 8, 9, 10), ()]:
        assert rotation_spectrum(a11, labels) == spectrum_by_charpoly(a11, labels), labels
    for name, word in [("E8", range(8)), ("B20", [19]), ("B20", range(20)), ("D16", range(16))]:
        x = from_word(rs_of(name), None, list(word))
        assert rotation_spectrum(x) == spectrum_by_charpoly(x), name
    assert not is_elliptic(a11) and is_elliptic(a16)


def test_rotation_spectrum_refuses_labels_the_element_does_not_stabilise():
    x = from_word(rs_of("A3"), None, [1])  # s2(alpha_1) = alpha_1 + alpha_2
    for check in (rotation_spectrum, spectrum_by_charpoly):
        with pytest.raises(InputError, match="does not stabilize the parabolic subspace"):
            check(x, (0,))
    assert rotation_spectrum(x, (1,)) == {2: 1}


def test_planted_bad_orbits_raise_under_optimize():
    # A2 with alpha_1 and alpha_1 + alpha_2 swapped, and alpha_2 and
    # -alpha_1: traces 2, 1 give dim ker(x - 1) = 3/2, and every other
    # check would pass on its floor.  G2 with alpha_1 and 3 alpha_1 +
    # alpha_2 swapped: traces 2, 4 give dim ker(x - 1) = 3 > 2, so Phi_2
    # gets a negative multiplicity.  A2 with alpha_1 -> -alpha_1 ->
    # -alpha_2 -> alpha_1: traces 2, 0, 1 leave one dimension for Phi_3,
    # of degree 2.  No such permutation is an isometry.
    script = (
        "import sys\n"
        "if not sys.flags.optimize:\n"
        "    sys.exit(99)\n"
        "from weylconvex import perm\n"
        "from weylconvex.errors import InconsistencyError\n"
        "from weylconvex.roots import CartanType, build_root_system, identity_automorphism\n"
        "from weylconvex.weyl import TwistedElement, rotation_spectrum\n"
        "def planted(name, *cycles):\n"
        "    rs = build_root_system(CartanType.parse(name))\n"
        "    images = list(range(rs.count))\n"
        "    for cycle in cycles:\n"
        "        idx = [rs.coeff_index[c] for c in cycle]\n"
        "        for a, b in zip(idx, idx[1:] + idx[:1]):\n"
        "            images[a] = b\n"
        "    return TwistedElement(rs, perm.of(images), identity_automorphism(rs), 0)\n"
        "raised = 0\n"
        "for x in (planted('A2', [(1, 0), (1, 1)], [(0, 1), (-1, 0)]),\n"
        "          planted('G2', [(1, 0), (3, 1)]),\n"
        "          planted('A2', [(1, 0), (-1, 0), (0, -1)])):\n"
        "    try:\n"
        "        rotation_spectrum(x)\n"
        "    except InconsistencyError:\n"
        "        raised += 1\n"
        "sys.exit(3 if raised == 3 else 0)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(weylconvex.__file__)))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 3, proc.stderr


# ---------------------------------------------------------------------------
# The member order a class builds when a caller first reads it.

CLASSTABLE_UNTWISTED = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4",
                        "G2", "F4", "E6")
CLASSTABLE_TWISTED = ("A2", "A3", "A4", "D4")


def _classtable_cosets():
    for name in CLASSTABLE_UNTWISTED:
        yield name, None, 0
    for name in CLASSTABLE_TWISTED:
        for delta in diagram_automorphisms(rs_of(name))[1:]:
            yield name, delta, 1


@pytest.mark.parametrize(
    "name, delta, k", list(_classtable_cosets()),
    ids=lambda v: f"delta={v.label()}" if hasattr(v, "label") else str(v),
)
def test_member_order_matches_a_reference_sort(name, delta, k):
    # keys, elements and min_length_set give the (length, key) order that
    # the test sorts itself; min_length_set gives it before and after the
    # order is built.
    rs = rs_of(name)
    pc = rs.positive_count
    for cls in conjugacy_classes(rs, delta, k):
        lead_before = cls.min_length_set()
        keys = cls.keys
        ref = sorted(keys, key=lambda key: (perm.length(expand(rs, key), pc), key))
        assert list(keys) == ref
        assert [y.root_perm for y in cls.elements] == [expand(rs, key) for key in ref]
        lead = [expand(rs, key) for key in ref if perm.length(expand(rs, key), pc) == cls.min_length]
        assert [y.root_perm for y in lead_before] == lead
        assert [y.root_perm for y in cls.min_length_set()] == lead
        assert all(y.twist_power == cls.twist_power for y in lead_before)


@pytest.mark.parametrize(
    "argv", [["--type", "F4"], ["--type", "D4", "--delta", "3,2,4,1", "--twist", "1"]],
    ids=["F4", "D4-triality"],
)
def test_reps_leaves_member_order_unbuilt(monkeypatch, capsys, argv):
    # A reps row reads a class's size, minimal length and representative,
    # none of which needs the members in order.
    from weylconvex import cli

    tables = []

    def recorded(*args, **kwargs):
        tables.append(conjugacy_classes(*args, **kwargs))
        return tables[-1]

    monkeypatch.setattr(cli, "conjugacy_classes", recorded)
    assert cli.main(["--no-cache", "reps"] + argv) == 0
    capsys.readouterr()
    (classes,) = tables
    assert classes and not any(cls._ordered for cls in classes)
