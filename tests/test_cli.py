import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylconvex import coxeter as coxeter_module
from weylconvex.cli import main
from weylconvex.weyl import from_word


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_convex_check_convex_example(capsys):
    code, report = run_cli(
        capsys, "--no-cache", "convex-check", "--type", "A4", "--word", "2,3,4,1,2,3"
    )
    assert code == 0
    assert report["results"]["convex"] is True


def test_convex_check_quasi_only(capsys):
    code, report = run_cli(
        capsys, "--no-cache", "convex-check", "--type", "A4", "--word", "1,2,3,4,1,2"
    )
    assert code == 1
    res = report["results"]
    assert res["quasi_convex"] is True
    assert res["inverse_quasi_convex"] is False


def test_convex_check_c3(capsys):
    code, report = run_cli(
        capsys, "--no-cache", "convex-check", "--type", "C3", "--word", "3,2,3,1,2"
    )
    assert code == 1
    assert report["results"]["convex"] is False


def test_convex_check_strict_adds_only_the_audit(capsys):
    argv = ["--no-cache", "convex-check", "--type", "E8", "--word", "3,1,4,2,3,1"]

    def report(*extra):
        code = main(argv + list(extra))
        return code, capsys.readouterr().out

    plain_code, plain = report()
    strict_code, strict = report("--strict")
    assert strict_code == plain_code == 1
    plain_report, strict_report = json.loads(plain), json.loads(strict)
    assert "strict" not in plain_report["params"]
    assert "audit_flags" not in plain_report["results"]
    assert strict_report["params"].pop("strict") is True
    flags = strict_report["results"].pop("audit_flags")
    assert len(flags) == 150
    assert all(set(f) == {"alpha", "beta", "n_alpha", "n_beta", "n_sum"} for f in flags)
    # Without the two fields the strict report is the plain one byte for byte.
    assert json.dumps(strict_report, sort_keys=True, indent=2) + "\n" == plain


def test_convex_check_strict_is_its_own_cache_entry(capsys, tmp_path):
    argv = ["--cache-dir", str(tmp_path), "convex-check", "--type", "A3", "--word", "1,3"]
    main(argv)
    assert "audit_flags" not in json.loads(capsys.readouterr().out)["results"]
    main(argv + ["--strict"])
    assert "audit_flags" in json.loads(capsys.readouterr().out)["results"]
    assert len(list(tmp_path.glob("*.json"))) == 2


def test_convex_check_bad_word(capsys):
    code = main(["--no-cache", "convex-check", "--type", "A2", "--word", "1,x"])
    assert code == 2


@pytest.mark.parametrize(
    "delta", ["a,b", "1,x,3", "0,2,1"], ids=["letters", "mixed", "out-of-range"]
)
def test_convex_check_bad_delta(capsys, delta):
    code = main([
        "--no-cache", "convex-check", "--type", "A3", "--word", "1,2",
        "--delta", delta, "--twist", "1",
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error" in json.loads(captured.err)


def test_reps_a2(capsys):
    code, report = run_cli(capsys, "--no-cache", "reps", "--type", "A2")
    assert code == 0
    rows = report["results"]
    assert len(rows) == 3
    assert all(r["convex"] and r["phi_equals_fixed"] for r in rows)


def test_reps_e7_refused(capsys):
    code = main(["--no-cache", "reps", "--type", "E7"])
    assert code == 2


def test_conjecture_g2(capsys):
    code, report = run_cli(capsys, "--no-cache", "conjecture", "--type", "G2")
    assert code == 0
    res = report["results"]
    assert res["conjecture_status"] == "pass"
    assert all(e["half_turn_condition"] for e in res["elements"])


def test_conjecture_e8_needs_no_flag(capsys):
    # The gate counts delta-Coxeter elements (128 for E8), not |W|.
    code, report = run_cli(capsys, "--no-cache", "conjecture", "--type", "E8")
    assert code == 0
    assert len(report["results"]["elements"]) == 128


def test_conjecture_a17_refused_without_flag(capsys):
    # 2^16 = 65,536 Coxeter elements exceed the default budget.
    code = main(["--no-cache", "conjecture", "--type", "A17"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "65536" in json.loads(captured.err)["error"]


def test_conjecture_a27_refused_with_flag_before_building_elements(capsys):
    # 2^26 Coxeter elements exceed even the large budget; the refusal
    # comes from the count alone, so it is quick.
    started = time.time()
    code = main(["--no-cache", "conjecture", "--type", "A27", "--allow-large"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error" in json.loads(captured.err)
    assert time.time() - started < 30


def _non_convex_analyze(monkeypatch, confirmed):
    """Make every Coxeter element analyze as non-convex; `confirmed` decides
    whether the verdict rests on condition 1, which the sweep's oracle
    check accepts, or on nothing the full-pair oracle can confirm."""
    real = coxeter_module.analyze

    def non_convex(x):
        rep = real(x)
        return dataclasses.replace(rep, convex=False, condition1_ok=not confirmed)

    monkeypatch.setattr(coxeter_module, "analyze", non_convex)


def test_conjecture_lists_a_confirmed_failure_as_a_counterexample(capsys, monkeypatch):
    # A2 has h = 3, so no element meets the half-turn condition.
    _non_convex_analyze(monkeypatch, confirmed=True)
    code, report = run_cli(capsys, "--no-cache", "conjecture", "--type", "A2")
    assert code == 1
    res = report["results"]
    assert res["coxeter_number"] == 3
    assert res["conjecture_status"] == "counterexample"
    assert res["counterexamples"] == [e["word"] for e in res["elements"]]
    assert len(res["counterexamples"]) == 2
    assert not any(e["convex"] or e["half_turn_condition"] for e in res["elements"])


@pytest.mark.parametrize(
    "cartan, confirmed, message",
    [
        ("A2", False, "convexity verdict and full-pair oracle disagree"),
        ("G2", True, "half-turn Coxeter element 2,1 failed convexity; "
                     "this contradicts a proven statement"),
    ],
    ids=["oracle-disagrees", "half-turn-failure"],
)
def test_conjecture_inconsistency_exits_3(capsys, monkeypatch, cartan, confirmed, message):
    # main turns InconsistencyError into exit 3 with its message on stderr
    # and no report.
    _non_convex_analyze(monkeypatch, confirmed)
    code = main(["--no-cache", "conjecture", "--type", cartan])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert json.loads(captured.err) == {"inconsistency": message}


@pytest.mark.parametrize(
    "intruder, orders",
    [([0], "2 and 5"), ([0, 1, 3], "5 and 6")],
    ids=["lower", "higher"],
)
def test_conjecture_orders_differ_exits_3(capsys, monkeypatch, intruder, orders):
    # The sweep takes h from the first element's report and checks every
    # later element against it.  A4 has h = 5; the second element is
    # replaced by one of order 2 or 6, and both orders are named, sorted.
    real = coxeter_module._coxeter_stream

    def stream(rs, delta):
        elements = real(rs, delta)
        yield next(elements)
        key, word, _ = next(elements)
        yield key, word, from_word(rs, delta, intruder)
        yield from elements

    monkeypatch.setattr(coxeter_module, "_coxeter_stream", stream)
    code = main(["--no-cache", "conjecture", "--type", "A4"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "inconsistency": f"Coxeter element orders differ: {orders}"
    }


def test_cross_section_roundtrips(capsys):
    code, report = run_cli(
        capsys,
        "--no-cache",
        "cross-section",
        "--n", "4",
        "--word", "2,1,3",
        "--field", "101",
        "--trials", "25",
        "--seed", "42",
    )
    assert code == 0
    res = report["results"]
    assert res["roundtrips_ok"] == res["roundtrips_total"] == 25


def test_cross_section_analyzes_its_element_once(capsys, monkeypatch):
    # The verdicts in the report come from the build's own analysis.
    import weylconvex.cli
    import weylconvex.convexity
    import weylconvex.matrixgroup

    analyze = weylconvex.convexity.analyze
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return analyze(*args, **kwargs)

    for module in (weylconvex.cli, weylconvex.convexity, weylconvex.matrixgroup):
        monkeypatch.setattr(module, "analyze", counting)
    code, report = run_cli(
        capsys,
        "--no-cache",
        "cross-section",
        "--n", "5",
        "--word", "1,2,3,4,1,2",
        "--field", "101",
        "--trials", "5",
    )
    assert code == 0
    assert len(calls) == 1
    res = report["results"]
    assert res["quasi_convex"] is True and res["convex"] is False


def test_good_position_command(capsys):
    code, report = run_cli(
        capsys,
        "--no-cache",
        "good-position",
        "--type", "A3",
        "--word", "2,1,3",
        "--sequence", "pi/2,pi",
    )
    assert code == 0
    assert report["results"]["good_position"] is True
    assert report["results"]["length_formula"] == 3

    code, report = run_cli(
        capsys,
        "--no-cache",
        "good-position",
        "--type", "A3",
        "--word", "2,1,3",
        "--sequence", "pi,pi/2",
    )
    assert code == 1
    assert report["results"]["good_position"] is False


def test_reproduce_all_pass(capsys):
    code, report = run_cli(capsys, "--no-cache", "reproduce")
    assert code == 0
    items = report["results"]
    assert len(items) == 7
    assert all(item["passed"] for item in items)


def test_cache_byte_identical(tmp_path, capsys):
    argv = [
        "--cache-dir", str(tmp_path),
        "convex-check", "--type", "A2", "--word", "1,2",
    ]
    code1 = main(list(argv))
    out1 = capsys.readouterr().out
    code2 = main(list(argv))
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2  # cache hit returns the stored bytes


def test_cache_hit_matches_an_uncached_run(tmp_path, capsys):
    # A report depends only on its command, so the bytes a cache hit
    # replays are the bytes a run without the cache prints.
    argv = ["convex-check", "--type", "A4", "--word", "1,2,3,4,1,2"]
    for _ in range(2):  # a miss that stores the entry, then a hit
        assert main(["--cache-dir", str(tmp_path)] + argv) == 1
        cached = capsys.readouterr().out
    assert main(["--no-cache"] + argv) == 1
    assert capsys.readouterr().out == cached


@pytest.mark.parametrize(
    "damage",
    [lambda b: b[:40], lambda b: b"[]\n", lambda b: b.replace(b'"exit_code": 1', b'"exit_code": "1"')],
    ids=["truncated", "not-a-report", "exit-code-not-an-integer"],
)
def test_unreadable_cache_entry_is_recomputed(tmp_path, capsys, damage):
    argv = ["--cache-dir", str(tmp_path), "convex-check", "--type", "A2", "--word", "1"]
    code = main(argv)
    first = capsys.readouterr().out
    (entry,) = tmp_path.glob("*.json")
    entry.write_bytes(damage(entry.read_bytes()))
    code2 = main(argv)
    second = capsys.readouterr()
    # s_1 in A2 is not convex: the verdict is exit 1.
    assert code2 == code == json.loads(first)["exit_code"] == 1
    assert second.out == first
    assert entry.read_text() == first
    assert second.err == ""


def test_report_is_printed_before_it_is_stored(tmp_path, capsysbinary, monkeypatch):
    # The store reads what stdout holds when it is called: the whole
    # report, so a store that fails or never returns costs no output.
    import weylconvex.cli as cli

    store = cli._cache_store
    calls = []

    def reading_store(path, payload):
        calls.append((capsysbinary.readouterr().out, payload))
        store(path, payload)

    monkeypatch.setattr(cli, "_cache_store", reading_store)
    argv = ["--cache-dir", str(tmp_path), "convex-check", "--type", "A2", "--word", "1,2"]
    assert main(argv) == 0
    ((printed, stored),) = calls
    assert printed == stored
    assert json.loads(stored)["exit_code"] == 0


def test_unwritable_cache_costs_no_report(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    argv = ["convex-check", "--type", "A2", "--word", "1,2"]
    code, report = run_cli(capsys, "--cache-dir", str(blocker / "sub"), *argv)
    assert code == 0 and report["exit_code"] == 0
    # The entry's own path taken by a directory: the store fails after
    # its temporary file is written, and removes it.
    cache = tmp_path / "cache"
    run_cli(capsys, "--cache-dir", str(cache), *argv)
    (entry,) = cache.glob("*.json")
    entry.unlink()
    entry.mkdir()
    code, report = run_cli(capsys, "--cache-dir", str(cache), *argv)
    assert code == 0 and report["exit_code"] == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cache", "file"]
    assert [p.name for p in cache.iterdir()] == [entry.name]


def test_cross_section_counts_a_point_outside_the_cell_as_a_failed_roundtrip(
    capsys, monkeypatch
):
    from weylconvex.errors import NotInCellError

    def outside(data, g):
        raise NotInCellError("not in the cell")

    monkeypatch.setattr("weylconvex.cli.sigma", outside)
    code = main([
        "--no-cache", "cross-section", "--n", "4", "--word", "1,2,3",
        "--field", "101", "--trials", "3",
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    results = json.loads(captured.out)["results"]
    assert results["roundtrips_ok"] == 0 and results["roundtrips_total"] == 3


def test_seeded_determinism(capsys):
    argv = [
        "--no-cache",
        "cross-section", "--n", "3", "--word", "1,2",
        "--field", "101", "--trials", "10", "--seed", "7",
    ]
    code1 = main(list(argv))
    out1 = capsys.readouterr().out
    code2 = main(list(argv))
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


def test_twisted_convex_check(capsys):
    code, report = run_cli(
        capsys,
        "--no-cache",
        "convex-check",
        "--type", "A3",
        "--word", "1,2",
        "--delta", "3,2,1",
        "--twist", "1",
    )
    assert code in (0, 1)
    assert report["params"]["delta"] == "3,2,1"


def test_reps_f4_golden(capsys):
    code, report = run_cli(capsys, "--no-cache", "reps", "--type", "F4")
    assert code == 0
    rows = report["results"]
    assert len(rows) == 25
    assert all(r["convex"] and r["phi_equals_fixed"] for r in rows)


def test_good_position_quadratic_sequence(capsys):
    code, report = run_cli(
        capsys,
        "--no-cache",
        "good-position",
        "--type", "A4",
        "--word", "2,1,3,2,4,3",
        "--sequence", "2pi/5,4pi/5",
    )
    assert code in (0, 1)
    assert report["results"]["sequence"] == ["2pi/5", "4pi/5"]


def test_twisted_reps_command(capsys):
    code, report = run_cli(
        capsys, "--no-cache", "reps", "--type", "A3", "--delta", "3,2,1",
        "--twist", "1",
    )
    assert code == 0
    assert all(r["convex"] for r in report["results"])


def test_cross_section_rational_rank_checks(capsys):
    code, report = run_cli(
        capsys,
        "--no-cache",
        "cross-section",
        "--type", "A",
        "--n", "3",
        "--word", "1,2",
        "--field", "rational",
        "--trials", "5",
        "--rank-checks", "5",
        "--seed", "3",
    )
    assert code == 0
    res = report["results"]
    assert res["rank_checks_ok"] == 5
    assert res["roundtrips_ok"] == 5


def test_cross_section_refuses_rank_checks_off_q_before_any_roundtrip(capsys, monkeypatch):
    def no_roundtrips(data, g):
        raise AssertionError("sigma ran before the refusal")

    monkeypatch.setattr("weylconvex.cli.sigma", no_roundtrips)
    code = main([
        "--no-cache", "cross-section", "--n", "4", "--word", "1,2,3",
        "--field", "101", "--trials", "3000", "--rank-checks", "2",
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "--rank-checks requires --field rational"}


def test_cross_section_rejects_other_types(capsys):
    code = main([
        "--no-cache", "cross-section", "--type", "B", "--n", "3",
        "--word", "1,2",
    ])
    assert code == 2


@pytest.mark.parametrize(
    "bad",
    [
        ("--trials", "-3"),
        ("--rank-checks", "-2", "--field", "rational"),
        ("--field", "abc"),
        ("--field", "1" + "0" * 398 + "7"),
    ],
    ids=["negative-trials", "negative-rank-checks", "non-numeric-field", "400-digit-field"],
)
def test_cross_section_rejects_bad_arguments(capsys, bad):
    code = main([
        "--no-cache", "cross-section", "--n", "3", "--word", "1,2", *bad,
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error" in json.loads(captured.err)


@pytest.mark.parametrize(
    "sequence",
    ["foo", "1/0", "pi/2x", "xpi/2", "pi/2,pi,", "pi2,pi/2", "3pi/2", "pi/" + "7" * 5000],
    ids=["word", "zero-denominator", "trailing-junk", "leading-junk",
         "trailing-comma", "pi2", "beyond-pi", "too-many-digits"],
)
def test_good_position_rejects_malformed_angles(capsys, sequence):
    code = main([
        "--no-cache", "good-position", "--type", "A3", "--word", "2,1,3",
        "--sequence", sequence,
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error" in json.loads(captured.err)


@pytest.mark.parametrize(
    "argv",
    [
        ["cross-section", "--word", "1,2"],
        ["convex-check", "--type", "A2", "--word", "1", "--twist", "x"],
        ["cross-section", "--n", "x", "--word", "1,2"],
        ["convex-check", "--type", "A2", "--word", "0,1"],
    ],
    ids=["missing-required", "bad-twist", "bad-n", "zero-letter"],
)
def test_usage_errors_are_json(capsys, argv):
    code = main(["--no-cache", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error" in json.loads(captured.err)


def test_help_exits_0(capsys):
    assert main(["reps", "--help"]) == 0
    assert "usage" in capsys.readouterr().out


def test_cache_misses_after_engine_version_change(tmp_path, capsys, monkeypatch):
    argv = [
        "--cache-dir", str(tmp_path),
        "cross-section", "--n", "3", "--word", "1,2",
        "--field", "101", "--trials", "3", "--seed", "1",
    ]
    assert main(list(argv)) == 0
    first = json.loads(capsys.readouterr().out)
    monkeypatch.setattr("weylconvex.cli.__version__", "0.0.0+changed")
    assert main(list(argv)) == 0
    second = json.loads(capsys.readouterr().out)
    # A hit would replay the first report, engine version included.
    assert first["engine_version"] != "0.0.0+changed"
    assert second["engine_version"] == "0.0.0+changed"
    assert len(list(tmp_path.glob("*.json"))) == 2


def test_cache_misses_after_source_change(tmp_path):
    # The cache key covers the package's source files, so editing any of
    # them (with the version string unchanged) makes the next run a miss.
    import weylconvex

    src = tmp_path / "src"
    shutil.copytree(
        os.path.dirname(weylconvex.__file__), src / "weylconvex",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    cache = tmp_path / "cache"
    argv = [
        sys.executable, "-m", "weylconvex", "--cache-dir", str(cache),
        "convex-check", "--type", "A2", "--word", "1,2",
    ]
    env = {**os.environ, "PYTHONPATH": str(src)}

    def run():
        proc = subprocess.run(argv, env=env, capture_output=True)
        assert proc.returncode == 0, proc.stderr
        return len(list(cache.glob("*.json")))

    assert run() == 1
    assert run() == 1  # a hit stores nothing new
    with open(src / "weylconvex" / "reports.py", "a") as fh:
        fh.write("# edited\n")
    assert run() == 2


def test_root_count_cap_refuses_before_building(capsys):
    # A60 has 3,660 roots; the refusal comes from the known count, before
    # the reflection closure runs.
    started = time.monotonic()
    code = main(["--no-cache", "convex-check", "--type", "A60", "--word", "1"])
    elapsed = time.monotonic() - started
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "3660 roots" in json.loads(captured.err)["error"]
    assert elapsed < 1.0


@pytest.mark.parametrize("exc", [ValueError("singular matrix"), ZeroDivisionError()])
def test_unexpected_exception_exits_3_with_json(capsys, monkeypatch, exc):
    def broken(args):
        raise exc

    monkeypatch.setattr("weylconvex.cli.cmd_reproduce", broken)
    code = main(["--no-cache", "reproduce"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    report = json.loads(captured.err)
    assert report["inconsistency"].startswith(type(exc).__name__)
    assert "Traceback" not in captured.err


# Argv fuzzing: every argv must end in exit 0 or 1 with one JSON report on
# stdout, or in exit 2 with JSON on stderr.  Exit 3 is always a bug.  Each
# value is malformed one time in six, each flag left out one time in ten.
_BAD_LABELS = ["0", "5", "-1", "x", "", " 2", "1.5"]
_ANGLES = ["pi", "pi/2", "pi/3", "2pi/3", "pi/4", "3pi/4", "2pi/5", "4pi/5",
           "pi/5", "3pi/5", "pi/6", "5pi/6", "1/2", "1/3"]
_BAD_ANGLES = ["foo", "1/0", "pi/2x", "xpi/2", "pi2", "", "0pi", "3pi/2",
               "pi/0", "-pi/2", "0.5", "pi/7"]


def _mostly(valid, bad):
    return st.integers(0, 5).flatmap(lambda k: bad if k == 5 else valid)


def _ints(lo, hi):
    return _mostly(st.integers(lo, hi).map(str), st.sampled_from(["x", "", "1.5", "-9"]))


def _tokens(valid, bad):
    return st.lists(_mostly(valid, st.sampled_from(bad)), max_size=8).map(",".join)


_WORDS = _tokens(st.integers(1, 4).map(str), _BAD_LABELS)
_SEQUENCES = _tokens(st.sampled_from(_ANGLES), _BAD_ANGLES)
_CARTAN = _mostly(
    st.sampled_from(["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "F4", "G2"]),
    st.sampled_from(["", "A0", "B1", "Z3", "E9", "A", "x", "A-1", "H3"]),
)
_DELTA = _mostly(
    st.sampled_from(["id", "2,1", "3,2,1", "1,2,3", "1,3,2,4", "4,2,3,1", "3,2,1,4"]),
    st.sampled_from(["", "a,b", "0,2,1", "1,1", "1,2,3,4,5"]),
)
_FLAG = st.just(None)
_COMMANDS = {
    "convex-check": {"--type": _CARTAN, "--word": _WORDS, "--delta": _DELTA,
                     "--twist": _ints(0, 3), "--strict": _FLAG},
    "reps": {"--type": _CARTAN, "--delta": _DELTA, "--twist": _ints(0, 3),
             "--allow-large": _FLAG, "--seed": _ints(0, 3)},
    "conjecture": {"--type": _CARTAN, "--delta": _DELTA, "--allow-large": _FLAG},
    "cross-section": {
        "--type": _mostly(st.just("A"), st.sampled_from(["a", "B", ""])),
        "--n": _ints(2, 4), "--word": _WORDS,
        "--field": _mostly(st.sampled_from(["2", "3", "5", "101", "rational"]),
                           st.sampled_from(["Q", "4", "1", "0", "-7", "abc", ""])),
        "--trials": _ints(0, 3), "--seed": _ints(0, 3), "--rank-checks": _ints(0, 3),
    },
    "good-position": {"--type": _CARTAN, "--word": _WORDS, "--sequence": _SEQUENCES},
    "reproduce": {},
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    argv = ["--no-cache", command]
    for flag, values in _COMMANDS[command].items():
        if draw(st.integers(0, 9)) == 9:
            continue
        value = draw(values)
        argv += [flag] if value is None else [flag, value]
    if draw(st.integers(0, 9)) == 9:
        argv.append(draw(st.sampled_from(["--bogus", "extra", "--n"])))
    return argv


def _run_captured(argv):
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out.flush()
    return code, out.buffer.getvalue().decode(), err.getvalue()


@settings(max_examples=120, deadline=None)
@given(_argv())
def test_argv_fuzz_keeps_the_exit_contract(argv):
    code, out, err = _run_captured(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in out + err
    if code in (0, 1):
        assert json.loads(out)["exit_code"] == code, argv
    else:
        assert out == ""
        assert "error" in json.loads(err), argv


def test_closed_stdout_exits_2_without_a_traceback():
    # The reader takes one line and closes the pipe, as `head -1` does.
    # The D10 sweep's report (about 100 kB) overflows the pipe buffer, so
    # the command is still writing when the pipe closes.
    import weylconvex

    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(weylconvex.__file__))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "weylconvex", "--no-cache", "conjecture", "--type", "D10"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait() == 2, err
    assert "Traceback" not in err and "Exception ignored" not in err
    assert "closed" in json.loads(err)["error"]
