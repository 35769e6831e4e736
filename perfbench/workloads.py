"""The three benchmark workloads, one per job the engine does.

Each workload's ``setup(seed)`` builds the root systems and contexts and
draws every input from ``random.Random(seed)``; it returns the jobs of one
pass.  A job mirrors one CLI command (a class table, a Coxeter sweep, a
verdict batch, a roundtrip batch) and calls the engine's public functions
in the order the CLI does.  Every timed call goes through ``Meter.run`` and
every result is checked by an oracle through ``Meter.check``, outside the
timed section.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from weylconvex.construction import find_convex_representative
from weylconvex.convexity import analyze, condition2_full_pairs, phi_of
from weylconvex.coxeter import delta_orbits, verify_conjecture
from weylconvex.geometry import (
    angle_list,
    good_position_length,
    is_admissible,
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
from weylconvex.quadfield import two_cos_exact
from weylconvex.roots import CartanType, build_root_system, diagram_automorphisms
from weylconvex.weyl import conjugacy_classes, fixed_roots, from_word


@dataclass
class Job:
    """One command-sized unit of a pass.

    ``kind`` groups jobs for the per-job report lines (``classes_per_s``
    and so on); ``headline`` marks the job(s) behind ``headline_s``.
    """

    name: str
    kind: str
    run: Callable[["Meter"], None]
    headline: bool = False


# ---------------------------------------------------------------------------
# Oracles, computed outside the timed sections.

# Conjugacy classes of the untwisted Weyl groups (Carter 1972).
CARTER_CLASSES = {
    "A1": 2, "A2": 3, "A3": 5, "A4": 7, "B2": 5, "B3": 10, "B4": 20,
    "C3": 10, "C4": 20, "D4": 13, "G2": 6, "F4": 25, "E6": 25,
}


def quasi_convex_oracle(x) -> bool:
    """Condition 1 by parabolic closure, condition 2 by the full pair scan."""
    rs = x.rs
    phi = phi_of(x)
    labels = [lab for lab in range(rs.rank) if rs.simple_indices[lab] in phi]
    return phi == rs.parabolic_closure(labels) and not condition2_full_pairs(x)


def verdict_matches_oracle(report, x) -> bool:
    quasi = quasi_convex_oracle(x)
    inverse_quasi = quasi_convex_oracle(x.inverse())
    return (
        report.quasi_convex == quasi
        and report.inverse_quasi_convex == inverse_quasi
        and report.convex == (quasi and inverse_quasi)
    )


def row_ok(cls, result) -> bool:
    """A class-table row: a class member, convex, and phi = fixed roots."""
    y = result.representative
    return (
        y in set(cls.elements)
        and quasi_convex_oracle(y)
        and quasi_convex_oracle(y.inverse())
        and result.report.convex
        and phi_of(y) == fixed_roots(y)
    )


# ---------------------------------------------------------------------------
# classtable: what `weylconvex reps` runs, over the acceptance battery + E6.

UNTWISTED = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4",
             "G2", "F4", "E6")
TWISTED = ("A2", "A3", "A4", "D4")
CLASSTABLE_HEADLINE = "reps E6"


def _class_table(meter, label, rs, delta, twist, seed, expected) -> None:
    classes = meter.run(conjugacy_classes, rs, delta, twist)
    meter.check(
        lambda: (expected is None or len(classes) == expected)
        and sum(len(c) for c in classes) == rs.cartan_type.weyl_order(),
        f"{label}: {len(classes)} classes",
        item=False,
    )
    for cls in classes:
        result = meter.run(find_convex_representative, cls, seed)
        meter.check(lambda: row_ok(cls, result),
                    f"{label}: row {cls.representative.word()}")


def setup_classtable(seed: int) -> List[Job]:
    jobs = []
    for name in UNTWISTED:
        rs = build_root_system(CartanType.parse(name))
        jobs.append(Job(
            f"reps {name}", "classes",
            lambda m, name=name, rs=rs: _class_table(
                m, name, rs, None, 0, seed, CARTER_CLASSES[name]),
            headline=f"reps {name}" == CLASSTABLE_HEADLINE,
        ))
    for name in TWISTED:
        rs = build_root_system(CartanType.parse(name))
        for delta in diagram_automorphisms(rs)[1:]:
            label = f"{name} delta={delta.label()}"
            jobs.append(Job(
                f"reps {label}", "classes",
                lambda m, label=label, rs=rs, delta=delta: _class_table(
                    m, label, rs, delta, 1, seed, None),
            ))
    return jobs


# ---------------------------------------------------------------------------
# verdicts: per-element decisions without enumerating W.

VERDICTS_PER_KIND = 80
GOOD_POSITION_PER_TYPE = 30
GOOD_POSITION_TYPES = ("A4", "B4", "F4", "D5", "E6")
# Distinct delta-Coxeter elements: 2^7 acyclic orientations of the E8
# tree; 24 for the diagram flip of E6.
COXETER_COUNTS = {"E8": 128, "E6 flip": 24}


def twisted_power_word(c: Sequence[int], delta, k: int) -> List[int]:
    """W-part of (c delta)^k = c delta(c) ... delta^(k-1)(c) delta^k."""
    word: List[int] = []
    part = list(c)
    for _ in range(k):
        word += part
        part = [delta.simple_perm[lab] for lab in part]
    return word


def draw_element(rng: random.Random, rs, delta, kind: str) -> Tuple[List[int], int]:
    """A (word, twist power) of the given kind.

    ``coxeter`` is a power of a delta-Coxeter element, ``parabolic`` a power
    of a Coxeter element of a random standard parabolic, ``random`` a random
    word.  In a twisted coset the twist power stays 1.
    """
    twisted = delta is not None
    if kind == "coxeter":
        c = [rng.choice(orbit) for orbit in delta_orbits(rs, delta)] if twisted \
            else list(range(rs.rank))
        rng.shuffle(c)
        h = from_word(rs, delta, c, int(twisted)).order()
        if twisted:
            k = rng.randrange(1, h + 1, 2)
            return twisted_power_word(c, delta, k), 1
        return c * rng.randint(1, h), 0
    if kind == "parabolic":
        size = rng.randint(1, rs.rank - 1)
        J = rng.sample(range(rs.rank), size)
        return J * rng.randint(1, 2 * size), int(twisted)
    length = rng.randint(rs.rank, 3 * rs.rank)
    return [rng.randrange(rs.rank) for _ in range(length)], int(twisted)


def draw_good_position_input(rng: random.Random, rs) -> Tuple[List[int], Tuple]:
    """An element with exactly representable angles and an admissible sequence.

    Kinds rotate as in ``draw_element``; the sequence is a random ordering
    of the element's angles.  Elements whose angles need the float fallback,
    or whose ordering is not admissible, are redrawn.
    """
    kinds = ("coxeter", "parabolic", "random")
    attempt = 0
    while True:
        word, _ = draw_element(rng, rs, None, kinds[attempt % 3])
        attempt += 1
        x = from_word(rs, None, word)
        angles = [a for a, _ in angle_list(x)]
        if not angles or any(two_cos_exact(a) is None for a in angles):
            continue
        rng.shuffle(angles)
        if is_admissible(x, angles):
            return word, tuple(angles)


def _sweep(meter, label, rs, delta) -> None:
    report = meter.run(verify_conjecture, rs, delta)
    meter.check(
        lambda: report.conjecture_status == "pass"
        and len(report.entries) == COXETER_COUNTS[label]
        and len({(e.word, e.twist_power) for e in report.entries})
        == COXETER_COUNTS[label]
        and all(e.convex for e in report.entries),
        f"conjecture {label}: {report.conjecture_status}, "
        f"{len(report.entries)} elements",
    )


def _analyze_word(rs, delta, word, twist):
    return analyze(from_word(rs, delta, word, twist))


def _verdict_batch(meter, label, rs, delta, batch) -> None:
    for word, twist, coxeter_element in batch:
        report = meter.run(_analyze_word, rs, delta, word, twist)
        meter.check(
            lambda: verdict_matches_oracle(report, from_word(rs, delta, word, twist))
            # delta-Coxeter elements are convex (the conjecture, verified for
            # E6-E8 by the sweeps); their higher powers need not be.
            and (not coxeter_element or report.convex),
            f"convex-check {label} word={word} twist={twist}",
        )


def _good_position_ok(rs, word, cert) -> bool:
    """Certificate soundness: good position implies convex, phi = fixed
    roots, and the length formula.  A negative verdict has no cheap oracle."""
    if cert is None:
        return True
    y = from_word(rs, None, word)
    return (
        quasi_convex_oracle(y)
        and quasi_convex_oracle(y.inverse())
        and phi_of(y) == fixed_roots(y)
        and good_position_length(cert) == y.length()
    )


def _good_position_word(rs, word, sequence):
    return is_good_position(from_word(rs, None, word), sequence)


def _good_position_batch(meter, label, rs, batch) -> None:
    for word, sequence in batch:
        cert = meter.run(_good_position_word, rs, word, sequence)
        meter.check(lambda: _good_position_ok(rs, word, cert),
                    f"good-position {label} word={word} sequence={sequence}")


def _manifest(meter) -> None:
    items = meter.run(run_manifest)
    for item in items:
        meter.check(lambda: item["passed"], f"manifest item {item['id']}")


def _flip(rs):
    return next(d for d in diagram_automorphisms(rs) if d.order == 2)


def setup_verdicts(seed: int) -> List[Job]:
    rng = random.Random(seed)
    e6, e7, e8 = (build_root_system(CartanType.parse(n)) for n in ("E6", "E7", "E8"))
    flip = _flip(e6)
    jobs = [
        Job("conjecture E8", "coxeter_sweep",
            lambda m: _sweep(m, "E8", e8, None), headline=True),
        Job("conjecture E6 flip", "coxeter_sweep",
            lambda m: _sweep(m, "E6 flip", e6, flip)),
    ]
    for label, rs, delta in (("E6", e6, None), ("E7", e7, None),
                             ("E8", e8, None), ("E6 flip", e6, flip)):
        coxeter_length = len(delta_orbits(rs, delta)) if delta else rs.rank
        batch = []
        for kind in ("coxeter", "parabolic", "random"):
            for _ in range(VERDICTS_PER_KIND):
                word, twist = draw_element(rng, rs, delta, kind)
                batch.append((word, twist,
                              kind == "coxeter" and len(word) == coxeter_length))
        jobs.append(Job(f"convex-check {label}", "verdicts",
                        lambda m, label=label, rs=rs, delta=delta, batch=batch:
                        _verdict_batch(m, label, rs, delta, batch)))
    for name in GOOD_POSITION_TYPES:
        rs = e6 if name == "E6" else build_root_system(CartanType.parse(name))
        batch = [draw_good_position_input(rng, rs)
                 for _ in range(GOOD_POSITION_PER_TYPE)]
        jobs.append(Job(f"good-position {name}", "good_position",
                        lambda m, name=name, rs=rs, batch=batch:
                        _good_position_batch(m, name, rs, batch)))
    jobs.append(Job("reproduce", "manifest", _manifest))
    return jobs


# ---------------------------------------------------------------------------
# cross_section: xi, sigma and the tangent rank in GL_4 and GL_5.

# The convex representatives `reps --type A3` / `--type A4` print (seed 0),
# as 0-based words.  Fixed here so a change in the construction cannot
# change this workload's inputs; every job checks its representative is
# convex, and the self-test checks the words meet every class once.
A3_REPS = ((), (0, 1, 2, 1, 0), (0, 1, 2, 1), (0, 1, 0, 2, 1, 0), (0, 2, 1))
A4_REPS = ((), (0, 1, 2, 3, 2, 1, 0), (0, 1, 2, 3, 2, 1),
           (0, 1, 0, 2, 1, 0, 3, 2, 1, 0), (0, 1, 3, 2, 1), (0, 1, 2, 1, 3, 2, 1),
           (1, 0, 3, 2))
# The exhaustive F_2 sweep covers the A3 representatives with the smallest
# cell domains (1,024 and 512 points); all five would take 13,824 xi calls,
# about 13 s a pass at the seed commit.
XI_SWEEP_REPS = ((0, 1, 2, 1), (0, 2, 1))
ROUNDTRIPS_FP = 20
ROUNDTRIPS_Q = 20
RANK_CHECKS = 8


def _convex(meter, data) -> None:
    x = data.x
    meter.check(lambda: quasi_convex_oracle(x) and quasi_convex_oracle(x.inverse()),
                f"representative {x.word()} is not convex", item=False)


def _sections(ctx, words) -> List[Tuple[Tuple[int, ...], object]]:
    return [(w, build_cross_section(ctx, from_word(ctx.rs, None, list(w))))
            for w in words]


def _xi_sweep(meter, data) -> None:
    images = set()
    for p in enumerate_cell_points(data):
        g = meter.run(xi, data, p)
        meter.check(lambda: _new_image(images, g), f"xi collision at {p}")


def _new_image(images, g) -> bool:
    key = mat_key(g)
    if key in images:
        return False
    images.add(key)
    return True


def _roundtrip(data, rng):
    p = random_cell_point(data, rng)
    return p, sigma(data, xi(data, p))


def _roundtrips(meter, data, rng, trials) -> None:
    for _ in range(trials):
        p, q = meter.run(_roundtrip, data, rng)
        meter.check(lambda: q == p, f"roundtrip {p}")


def _rank_check(data, rng):
    return transversality_check(data, random_section_point(data, rng))


def _rank_checks(meter, data, rng, count) -> None:
    for _ in range(count):
        ok = meter.run(_rank_check, data, rng)
        meter.check(lambda: ok, "tangent span rank below n^2")


def setup_cross_section(seed: int) -> List[Job]:
    ctx = {key: matrix_context(n, field) for key, n, field in (
        ("f2", 4, 2), ("fp4", 4, 101), ("fp5", 5, 101), ("q4", 4, "rational"))}
    reps = {"f2": XI_SWEEP_REPS, "fp5": A4_REPS}
    sections = {key: _sections(c, reps.get(key, A3_REPS)) for key, c in ctx.items()}
    # One point stream per batch, restarted every pass, so each pass
    # replays the same points and no batch depends on another.
    streams = random.Random(seed)

    def batch(kind, title, key, body, headline=False):
        def run(meter, data, stream):
            _convex(meter, data)
            body(meter, data, random.Random(stream))

        return [Job(f"{title} {list(w)}", kind,
                    lambda m, data=data, s=streams.getrandbits(64): run(m, data, s),
                    headline=headline)
                for w, data in sections[key]]

    return (
        batch("xi", "xi F2 4x4", "f2", lambda m, d, r: _xi_sweep(m, d))
        + batch("roundtrips_fp", "cross-section F101 5x5", "fp5",
                lambda m, d, r: _roundtrips(m, d, r, ROUNDTRIPS_FP), headline=True)
        + batch("roundtrips_fp", "cross-section F101 4x4", "fp4",
                lambda m, d, r: _roundtrips(m, d, r, ROUNDTRIPS_FP))
        + batch("roundtrips_q", "cross-section Q 4x4", "q4",
                lambda m, d, r: _roundtrips(m, d, r, ROUNDTRIPS_Q))
        + batch("rank_checks", "rank checks Q 4x4", "q4",
                lambda m, d, r: _rank_checks(m, d, r, RANK_CHECKS))
    )


WORKLOADS: Dict[str, Callable[[int], List[Job]]] = {
    "classtable": setup_classtable,
    "verdicts": setup_verdicts,
    "cross_section": setup_cross_section,
}
