"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are exact (integer / boolean equality) throughout; the
runtime ceilings come with the criteria.
"""

import random
import time

import pytest

from weylconvex.construction import find_convex_representative
from weylconvex.convexity import analyze, condition2_full_pairs, n_of, phi_of
from weylconvex.coxeter import coxeter_elements, verify_conjecture
from weylconvex.geometry import (
    angle_list,
    good_position_length,
    is_good_position,
)
from weylconvex.manifest import run_manifest
from weylconvex.matrixgroup import (
    build_cross_section,
    enumerate_cell_points,
    mat_key,
    matrix_context,
    random_cell_point,
    random_section_point,
    sigma,
    transversality_check,
    xi,
)
from weylconvex.roots import CartanType, build_root_system, diagram_automorphisms
from weylconvex.weyl import (
    TwistedElement,
    conjugacy_classes,
    enumerate_weyl_group,
    expand,
    fixed_roots,
    from_word,
)

from reference_geometry import separation_witness
from reference_weyl import check_w0_condition, half_turn_ordering

RS = {}


def rs_of(name):
    if name not in RS:
        RS[name] = build_root_system(CartanType.parse(name))
    return RS[name]


def nontrivial_autos(name):
    return [a for a in diagram_automorphisms(rs_of(name)) if not a.is_identity]


def every_element(name):
    rs = rs_of(name)
    ident = diagram_automorphisms(rs)[0]
    for key in enumerate_weyl_group(rs):
        yield TwistedElement(rs, expand(rs, key), ident, 0)


def announce(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


# ---------------------------------------------------------------------------
# Criterion 1: the worked-example manifest, under a minute.


def test_criterion_1_manifest():
    started = time.monotonic()
    items = run_manifest()
    elapsed = time.monotonic() - started
    failed = [item["id"] for item in items if not item["passed"]]
    ok = not failed and elapsed < 60.0
    announce("criterion-1 worked-example manifest",
             ok, f"{len(items)} items, {elapsed:.1f}s")
    assert not failed, failed
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# Criterion 2: a convex representative with phi = fixed roots in every class.

BATTERY_UNTWISTED = [
    "A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "G2", "F4",
]


def test_criterion_2_existence_battery():
    started = time.monotonic()
    failures = []
    checked = 0
    for name in BATTERY_UNTWISTED:
        rs = rs_of(name)
        for cls in conjugacy_classes(rs):
            res = find_convex_representative(cls)
            y = res.representative
            checked += 1
            if not (res.report.convex and phi_of(y) == fixed_roots(y)):
                failures.append((name, cls.representative.word()))
    for name in ("A2", "A3", "A4"):
        rs = rs_of(name)
        for delta in nontrivial_autos(name):
            for cls in conjugacy_classes(rs, delta, 1):
                res = find_convex_representative(cls)
                y = res.representative
                checked += 1
                if not (res.report.convex and phi_of(y) == fixed_roots(y)):
                    failures.append((name + "-twisted", cls.representative.word()))
    rs = rs_of("D4")
    for delta in nontrivial_autos("D4"):
        for cls in conjugacy_classes(rs, delta, 1):
            res = find_convex_representative(cls)
            y = res.representative
            checked += 1
            if not (res.report.convex and phi_of(y) == fixed_roots(y)):
                failures.append(("D4-" + delta.label(), cls.representative.word()))
    elapsed = time.monotonic() - started
    ok = not failures and elapsed < 600.0
    announce("criterion-2 existence battery",
             ok, f"{checked} classes, {elapsed:.1f}s")
    assert not failures, failures
    assert elapsed < 600.0


# ---------------------------------------------------------------------------
# Criteria 3 and 7 share the certificates produced by a good-position sweep.


@pytest.fixture(scope="module")
def certificate_batch():
    """(element, certificate) pairs swept from small-rank classes."""
    batch = []
    for name in ("A2", "A3", "A4", "B2", "B3", "C3", "G2"):
        rs = rs_of(name)
        for cls in conjugacy_classes(rs):
            rep = cls.representative
            if rep.is_identity():
                continue
            angles = [a for a, _ in angle_list(rep)]
            for seq in (angles, list(reversed(angles))):
                for y in cls.elements:
                    cert = is_good_position(y, seq)
                    if cert is not None:
                        batch.append((y, cert))
                        break
    assert len(batch) >= 20
    return batch


def test_criterion_3_good_position_implies_convex(certificate_batch):
    bad = []
    for y, cert in certificate_batch:
        rep = analyze(y)
        if not rep.convex:
            bad.append(("not convex", y.word()))
        if phi_of(y) != fixed_roots(y):
            bad.append(("phi != fixed", y.word()))
        if good_position_length(cert) != y.length():
            bad.append(("length formula", y.word()))
    ok = not bad
    announce("criterion-3 certificates imply convexity and length",
             ok, f"{len(certificate_batch)} certificates")
    assert not bad, bad


# ---------------------------------------------------------------------------
# Criterion 4: section roundtrips and exhaustive injectivity at desk scale.


def _convex_reps(n):
    rs = rs_of(f"A{n - 1}")
    return [find_convex_representative(c).representative for c in conjugacy_classes(rs)]


def test_criterion_4_section_roundtrips():
    started = time.monotonic()
    # Exhaustive injectivity over F2 in 3x3 matrices for every convex rep.
    ctx2 = matrix_context(3, 2)
    for rep in _convex_reps(3):
        x = from_word(ctx2.rs, None, list(rep.word()))
        data = build_cross_section(ctx2, x)
        images = set()
        total = 0
        for p in enumerate_cell_points(data):
            total += 1
            images.add(mat_key(xi(data, p)))
        assert len(images) == total, f"collision for {x.word()} over F2"
    # 500 seed-pinned roundtrips per convex representative in 4x4 and 5x5.
    counts = []
    for n in (4, 5):
        ctx = matrix_context(n, 101)
        for rep in _convex_reps(n):
            x = from_word(ctx.rs, None, list(rep.word()))
            data = build_cross_section(ctx, x)
            rng = random.Random(42)
            ok = 0
            for _ in range(500):
                p = random_cell_point(data, rng)
                if sigma(data, xi(data, p)) == p:
                    ok += 1
            counts.append((n, rep.word(), ok))
            assert ok == 500, (n, rep.word(), ok)
    elapsed = time.monotonic() - started
    ok = elapsed < 300.0
    announce("criterion-4 section roundtrips",
             ok, f"{len(counts)} representatives x 500, {elapsed:.1f}s")
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# Criterion 5: tangent spans have full rank at random rational points.


def test_criterion_5_transversality():
    failures = []
    total = 0
    for n in (3, 4, 5):
        ctx = matrix_context(n, "rational")
        for rep in _convex_reps(n):
            x = from_word(ctx.rs, None, list(rep.word()))
            data = build_cross_section(ctx, x)
            rng = random.Random(1000 + n)
            for _ in range(20):
                g = random_section_point(data, rng)
                total += 1
                if not transversality_check(data, g):
                    failures.append((n, rep.word()))
    ok = not failures
    announce("criterion-5 tangent-span rank", ok, f"{total} sampled points")
    assert not failures, failures


# ---------------------------------------------------------------------------
# Criterion 6: the proven scope of the Coxeter conjecture, plus orderings.

PROVEN_SCOPE_UNTWISTED = ["G2", "B2", "B3", "B4", "C3", "C4", "D4", "F4"]


def test_criterion_6_coxeter_harness():
    checked = 0
    for name in PROVEN_SCOPE_UNTWISTED:
        report = verify_conjecture(rs_of(name))
        assert report.conjecture_status == "pass", name
        assert all(e.w0_condition for e in report.entries), name
        checked += len(report.entries)
    for name in ("A2", "A3", "A4"):
        for delta in nontrivial_autos(name):
            report = verify_conjecture(rs_of(name), delta)
            assert report.conjecture_status == "pass", name
            assert all(e.w0_condition for e in report.entries), name
            checked += len(report.entries)
    for delta in nontrivial_autos("D4"):
        report = verify_conjecture(rs_of("D4"), delta)
        assert report.conjecture_status == "pass"
        assert all(e.w0_condition for e in report.entries)
        checked += len(report.entries)
    # E6 with the flip, behind the large-scale gate of the CLI.
    e6_flip = nontrivial_autos("E6")[0]
    report = verify_conjecture(rs_of("E6"), e6_flip)
    assert report.conjecture_status == "pass"
    assert all(e.w0_condition for e in report.entries)
    checked += len(report.entries)
    # Every half-turn ordering is built and checked for betweenness.
    orderings = 0
    for name in ("B2", "B3", "C3", "G2", "D4"):
        for c in coxeter_elements(rs_of(name)):
            if check_w0_condition(c):
                half_turn_ordering(c)
                orderings += 1
    # Out-of-scope evidence report, emitted but never asserted.
    evidence = verify_conjecture(rs_of("A4"))
    announce(
        "criterion-6 coxeter harness",
        True,
        f"{checked} proven-scope elements, {orderings} orderings, "
        f"A4 evidence status: {evidence.conjecture_status}",
    )


# ---------------------------------------------------------------------------
# Criterion 7: oracle equivalences.


def test_criterion_7_oracle_equivalences(certificate_batch):
    # Condition (2) full-pair oracle vs the production path.
    mismatches = 0
    for name in ("A3", "B2"):
        for x in every_element(name):
            rep = analyze(x)
            if rep.condition2_ok != (not condition2_full_pairs(x)):
                mismatches += 1
    assert mismatches == 0

    # Separation witness equals the level function on every certificate.
    sep_checked = 0
    for y, cert in certificate_batch:
        e = cert.stage_points[0]
        rs = y.rs
        psi = cert.parabolic_chain[1]
        for g in range(rs.positive_count):
            if g in psi:
                continue
            assert separation_witness(y, e, g) == n_of(y, g), y.word()
            sep_checked += 1
    assert sep_checked > 0

    # Lower bound min(n(a), n(b)) <= n(a+b) universally.
    bound_checked = 0
    for name in ("A3", "B3", "G2"):
        rs = rs_of(name)
        pc = rs.positive_count
        for x in every_element(name):
            t = analyze(x).n_table
            for a in range(pc):
                for b in range(pc):
                    s = rs.sum_table.get((a, b))
                    if s is None or s >= pc:
                        continue
                    assert min(t[a], t[b]) <= t[s]
                    bound_checked += 1
    announce(
        "criterion-7 oracle equivalences",
        True,
        f"separation pairs: {sep_checked}, min-bound triples: {bound_checked}",
    )
