"""The permutation core against plain tuple expressions as the reference.

Sizes up to 256 run the bytes path; 272 runs the tuple path used by root
systems with more than 256 roots.
"""

import json
import os
import random
from math import gcd

import pytest

from weylconvex import perm
from weylconvex.cli import SCHEMA_VERSION, main

SIZES = [1, 72, 240, 256, 272]
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


# ---------------------------------------------------------------------------
# Reference: tuple permutations, one plain Python loop per operation.


def ref_compose(p, q):
    return tuple(p[x] for x in q)


def ref_inverse(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def ref_power(p, k):
    if k < 0:
        return ref_power(ref_inverse(p), -k)
    out = tuple(range(len(p)))
    base = p
    while k:
        if k & 1:
            out = ref_compose(base, out)
        base = ref_compose(base, base)
        k >>= 1
    return out


def ref_order(p):
    seen = [False] * len(p)
    out = 1
    for i in range(len(p)):
        if seen[i]:
            continue
        ln, j = 0, i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            ln += 1
        out = out * ln // gcd(out, ln)
    return out


def ref_length(p, pc):
    return sum(1 for i in range(pc) if p[i] >= pc)


def random_tuple(rng, n):
    images = list(range(n))
    rng.shuffle(images)
    return tuple(images)


def expected_type(n):
    return bytes if n <= 256 else tuple


@pytest.fixture(params=SIZES, ids=lambda n: f"n{n}")
def n(request):
    return request.param


def test_format_follows_size(n):
    assert type(perm.identity(n)) is expected_type(n)
    assert type(perm.of(range(n))) is expected_type(n)
    assert tuple(perm.identity(n)) == tuple(range(n))


def test_compose_and_inverse(n):
    rng = random.Random(n)
    for _ in range(20):
        p, q = random_tuple(rng, n), random_tuple(rng, n)
        pp, qq = perm.of(p), perm.of(q)
        pq = perm.compose(pp, qq)
        assert type(pq) is expected_type(n)
        assert tuple(pq) == ref_compose(p, q)
        inv = perm.inverse(pp)
        assert type(inv) is expected_type(n)
        assert tuple(inv) == ref_inverse(p)
        assert perm.compose(pp, inv) == perm.identity(n)


def test_word_product(n):
    # Letters multiply left to right; the empty word is the identity.
    rng = random.Random(f"word-{n}")
    gens = [random_tuple(rng, n) for _ in range(4)]
    for length in (0, 1, 2, 7, 30):
        labels = [rng.randrange(len(gens)) for _ in range(length)]
        expected = tuple(range(n))
        for lab in labels:
            expected = ref_compose(expected, gens[lab])
        got = perm.word_product(n, [perm.of(g) for g in gens], labels)
        assert type(got) is expected_type(n)
        assert tuple(got) == expected


def random_involution(rng, n, points):
    """An involution of range(n) that moves only the given points."""
    images = list(range(n))
    pts = list(points)
    rng.shuffle(pts)
    for a, b in zip(pts[::2], pts[1::2]):
        if rng.random() < 0.7:
            images[a], images[b] = b, a
    return tuple(images)


def ref_sandwich_orbit(start, pairs):
    seen = {start}
    stack = [start]
    while stack:
        w = stack.pop()
        for s, t in pairs:
            y = ref_compose(ref_compose(s, w), t)
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def test_sandwich_orbit(n):
    # s moves only points of A and t only points of B, so the orbit has at
    # most 24 * 24 members.
    rng = random.Random(n + 5)
    A = rng.sample(range(n), min(n, 4))
    B = rng.sample(range(n), min(n, 4))
    pairs = [(random_involution(rng, n, A), random_involution(rng, n, B)) for _ in range(3)]
    engine_pairs = [(perm.of(s), perm.of(t)) for s, t in pairs]
    # One set-up keyed by whole permutations serves every start.
    whole = perm.sandwich_orbits(engine_pairs, n)
    for _ in range(3):
        w = random_tuple(rng, n)
        reference = ref_sandwich_orbit(w, pairs)
        # The shortest prefix that tells the members apart keys them too.
        least = next(p for p in range(n + 1) if len({y[:p] for y in reference}) == len(reference))
        for prefix, search in ((n, whole), (least, perm.sandwich_orbits(engine_pairs, least))):
            calls = []

            def value_of(y):
                calls.append(y)
                return len(calls)

            orbit = search(perm.of(w), value_of)
            assert {type(y) for y in orbit} == {expected_type(n)}
            assert {tuple(y) for y in orbit} == {y[:prefix] for y in reference}
            # One call per member, when the search reaches it, the start first.
            assert list(orbit) == calls
            assert list(orbit.values()) == list(range(1, len(calls) + 1))
            assert tuple(calls[0]) == w[:prefix]


@pytest.mark.parametrize("k", [-5, -2, -1, 0, 1, 2, 3, 7, 12])
def test_power(n, k):
    rng = random.Random(1000 * n + k)
    for _ in range(5):
        p = random_tuple(rng, n)
        pk = perm.power(perm.of(p), k)
        assert type(pk) is expected_type(n)
        assert tuple(pk) == ref_power(p, k)


def test_order(n):
    rng = random.Random(n + 1)
    for _ in range(10):
        p = random_tuple(rng, n)
        h = perm.order(perm.of(p))
        assert h == ref_order(p)
        assert perm.power(perm.of(p), h) == perm.identity(n)


def test_cycles(n):
    # Callers rely on the order: cycles by least index, each from its least
    # index, following p.
    rng = random.Random(n + 4)
    for _ in range(10):
        p = random_tuple(rng, n)
        cycles = perm.cycles(perm.of(p))
        assert sorted(i for c in cycles for i in c) == list(range(n))
        assert [c[0] for c in cycles] == sorted(min(c) for c in cycles)
        for c in cycles:
            assert [p[i] for i in c] == list(c[1:]) + [c[0]]


def test_length(n):
    rng = random.Random(n + 2)
    for _ in range(10):
        p = random_tuple(rng, n)
        for pc in {0, n // 2, rng.randrange(n + 1), n}:
            assert perm.length(perm.of(p), pc) == ref_length(p, pc)


def test_bytes_sort_like_tuples(n):
    # Class representatives and the Coxeter-element list are ordered by
    # their permutations, so both formats must sort alike.
    rng = random.Random(n + 3)
    tuples = [random_tuple(rng, n) for _ in range(30)]
    tuples += [tuple(range(n)), tuple(reversed(range(n)))]
    assert [tuple(p) for p in sorted(map(perm.of, tuples))] == sorted(tuples)


# ---------------------------------------------------------------------------
# Pinned report bytes: root systems with more than 256 roots, which use
# tuples, and good-position certificates over Q, Q(sqrt2), Q(sqrt3),
# Q(sqrt5), the quartic K_30 and K_17 of degree 8, whose stage points come
# out of the exact eigenspace bases and cone tests.


def _good_position(cartan, word, sequence):
    return ["good-position", "--type", cartan, "--word", word, "--sequence", sequence]


@pytest.mark.parametrize(
    "argv, expected_code, golden",
    [
        pytest.param(
            ["convex-check", "--type", "A16", "--word", "1,2,3"], 1,
            "convex_check_A16_1-2-3.txt",
            id="A16-1,2,3-convex_check_A16_1-2-3.txt",
        ),
        pytest.param(
            ["convex-check", "--type", "D12", "--word", "1,2"], 1,
            "convex_check_D12_1-2.txt",
            id="D12-1,2-convex_check_D12_1-2.txt",
        ),
        pytest.param(
            _good_position("B4", "3,1,4,2", "pi/4,3pi/4"), 0,
            "good_position_B4_3-1-4-2.txt", id="good-position-B4-sqrt2",
        ),
        pytest.param(
            _good_position("F4", "2,4,1,3", "pi/6,5pi/6"), 0,
            "good_position_F4_2-4-1-3.txt", id="good-position-F4-sqrt3",
        ),
        pytest.param(
            _good_position("A4", "2,4,3,1", "2pi/5,4pi/5"), 0,
            "good_position_A4_2-4-3-1.txt", id="good-position-A4-sqrt5",
        ),
        # A D5 input the verdicts benchmark draws: three stages over
        # Q(sqrt2), the first on the whole D5 chamber.
        pytest.param(
            _good_position("D5", "3,1,4,2,5,3,1,4,2,5,3,1,4,2,5", "3pi/4,pi,pi/4"), 0,
            "good_position_D5_3-1-4-2-5-3-1-4-2-5-3-1-4-2-5.txt",
            id="good-position-D5-sqrt2",
        ),
        pytest.param(
            _good_position("E6", "4,2,6,1,5,3,4,2,6,1,5,3", "pi/3,2pi/3"), 0,
            "good_position_E6_4-2-6-1-5-3-4-2-6-1-5-3.txt",
            id="good-position-E6-rational",
        ),
        # Degree 4 over Q: K_30.  The word 1,...,8 is not at good position,
        # the bipartite Coxeter element is.
        pytest.param(
            _good_position("E8", "1,2,3,4,5,6,7,8", "pi/15,7pi/15"), 1,
            "good_position_E8_1-2-3-4-5-6-7-8.txt", id="good-position-E8-degree4-fails",
        ),
        pytest.param(
            _good_position("E8", "1,4,6,8,2,3,5,7", "pi/15,7pi/15"), 0,
            "good_position_E8_1-4-6-8-2-3-5-7.txt", id="good-position-E8-degree4",
        ),
        # Degree 8: K_17.  Every stage but the first has no target left;
        # the first stage's point is read off an orbit basis over K_17.
        pytest.param(
            _good_position(
                "A16", "1,3,5,7,9,11,13,15,2,4,6,8,10,12,14,16",
                ",".join(f"{2 * k}pi/17" for k in range(1, 9)),
            ), 0,
            "good_position_A16_1-3-5-7-9-11-13-15-2-4-6-8-10-12-14-16.txt",
            id="good-position-A16-degree8",
        ),
        # Level tables of x and of x^-1: a twisted element and an element
        # that is quasi-convex while its inverse is not.
        pytest.param(
            ["convex-check", "--type", "E6", "--word", "1,3,4,2",
             "--delta", "6,2,5,4,3,1", "--twist", "1"], 0,
            "convex_check_E6_1-3-4-2_delta_twist1.txt", id="convex-check-E6-twisted",
        ),
        pytest.param(
            ["convex-check", "--type", "A4", "--word", "1,2,3,4,1,2"], 1,
            "convex_check_A4_1-2-3-4-1-2.txt", id="convex-check-A4-inverse-violations",
        ),
        # Condition (1) holds with 24 violations and 24 inverse violations:
        # pins the witness order of condition (2) on the largest system.
        pytest.param(
            ["convex-check", "--type", "E8", "--word", "1,4,2,3,5,6,5,7,6,8"], 1,
            "convex_check_E8_1-4-2-3-5-6-5-7-6-8.txt", id="convex-check-E8-violations",
        ),
        pytest.param(
            ["conjecture", "--type", "E6", "--delta", "6,2,5,4,3,1"], 0,
            "conjecture_E6_delta.txt", id="conjecture-E6-flip",
        ),
        # Class tables: every class's size, min length and representative,
        # untwisted and in the triality coset.
        pytest.param(
            ["reps", "--type", "E6"], 0, "reps_E6.txt", id="reps-E6",
        ),
        pytest.param(
            ["reps", "--type", "D4", "--delta", "3,2,4,1", "--twist", "1"], 0,
            "reps_D4_triality_twist1.txt", id="reps-D4-triality",
        ),
        pytest.param(
            ["reps", "--type", "E6", "--delta", "6,2,5,4,3,1", "--twist", "1"], 0,
            "reps_E6_delta_twist1.txt", id="reps-E6-flip",
        ),
    ],
)
def test_large_type_report_matches_golden(capsys, argv, expected_code, golden):
    code = main(["--no-cache"] + argv)
    out = capsys.readouterr().out
    with open(os.path.join(GOLDEN, golden)) as fh:
        assert out == fh.read()
    assert code == expected_code


def test_every_golden_is_a_whole_report():
    # A golden is the whole stdout of its command, so it parses as one
    # report of the current schema.
    names = sorted(name for name in os.listdir(GOLDEN) if name.endswith(".txt"))
    assert len(names) == 18
    for name in names:
        with open(os.path.join(GOLDEN, name)) as fh:
            report = json.load(fh)
        assert report["schema_version"] == SCHEMA_VERSION, name
