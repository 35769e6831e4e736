"""Self-test of the benchmark itself (not collected by pytest).

    python3 perfbench/selftest.py

Checks that BENCHMARK.json is well-formed and agrees with design.json and
the tracer, that the fixed cross-section representatives meet every class,
that a wrong oracle value is reported as a failure rather than a crash,
that a short run of each workload prints every end-to-end metric and a
traced run every per-layer metric with no count drift, and that the
benchmark fails cleanly where the engine sources are missing.  Takes a few
minutes; everything it writes stays under perfbench/out.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import run

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def expect(condition, detail="") -> None:
    """Like assert, but also under ``python -O``."""
    if not condition:
        raise AssertionError(detail)


def load(path):
    with open(path) as fh:
        return json.load(fh)


BENCH = load(os.path.join(run.ROOT, "BENCHMARK.json"))
DESIGN = load(os.path.join(run.HERE, "design.json"))
END_TO_END = {m["name"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"] for m in BENCH["per_layer"]}


def check_benchmark_file() -> None:
    from tracing import span_names
    from workloads import WORKLOADS

    expect(set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}, sorted(BENCH))
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    names += [w["name"] for w in BENCH["workloads"]]
    expect(len(names) == len(set(names)), "a name is used twice")
    for metric in BENCH["end_to_end"] + BENCH["per_layer"]:
        expect(NAME.fullmatch(metric["name"]), metric)
        expect(UNIT.fullmatch(metric["unit"]), metric)
        expect(metric["better"] in ("higher", "lower"), metric)
    expect(all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"]))
    expect({w["name"] for w in BENCH["workloads"]} == set(WORKLOADS))
    expect(set(DESIGN["workloads"]) == set(WORKLOADS))
    expect(END_TO_END <= set(DESIGN["end_to_end"]))
    for metric in PER_LAYER:
        parts = metric.split(".")
        prefixes = {".".join(parts[:i]) for i in range(1, len(parts) + 1)}
        expect(prefixes & set(DESIGN["per_layer"]), f"{metric} not in design.json")
    for span in span_names():
        expect({f"{span}.calls", f"{span}.s", f"{span}.self_s"} <= PER_LAYER, span)


def cycle_type(perm):
    seen, sizes = set(), []
    for start in range(len(perm)):
        size, i = 0, start
        while i not in seen:
            seen.add(i)
            i = perm[i]
            size += 1
        if size:
            sizes.append(size)
    return tuple(sorted(sizes))


def check_representatives() -> None:
    from weylconvex.matrixgroup import underlying_permutation
    from weylconvex.roots import CartanType, build_root_system
    from weylconvex.weyl import from_word
    from workloads import A3_REPS, A4_REPS, XI_SWEEP_REPS

    for name, words, classes in (("A3", A3_REPS, 5), ("A4", A4_REPS, 7)):
        rs = build_root_system(CartanType.parse(name))
        types = {cycle_type(underlying_permutation(from_word(rs, None, list(w))))
                 for w in words}
        expect(len(types) == len(words) == classes, (name, types))
    expect(set(XI_SWEEP_REPS) <= set(A3_REPS))


def check_result(result, metrics) -> None:
    expect(set(result) == RESULT_KEYS, result)
    expect(set(result["metrics"]) == metrics, set(result["metrics"]) ^ metrics)
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1)
    expect(isinstance(result["failed"], int))
    for value in result["metrics"].values():
        expect(isinstance(value["value"], (int, float)), value)


def check_wrong_oracle() -> None:
    """A wrong expected class count is a failed operation, not a crash."""
    import workloads

    saved = workloads.CARTER_CLASSES["A2"], workloads.UNTWISTED, workloads.TWISTED
    workloads.CARTER_CLASSES["A2"] = 4
    workloads.UNTWISTED, workloads.TWISTED = ("A1", "A2", "B2"), ("A2",)
    try:
        result = run.measure("classtable", seed=1, seconds=0, trace=0)
    finally:
        (workloads.CARTER_CLASSES["A2"], workloads.UNTWISTED,
         workloads.TWISTED) = saved
    check_result(result, END_TO_END)
    expect(result["failed"] > 0 and not result["correct"], result)


def run_benchmark(workload: str, trace: int, cwd: str = run.ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_short_runs() -> None:
    for workload in sorted(DESIGN["workloads"]):
        for trace, metrics in ((0, END_TO_END), (1, PER_LAYER)):
            proc = run_benchmark(workload, trace)
            expect(proc.returncode == 0, proc.stderr)
            result = json.loads(proc.stdout.splitlines()[-1])
            check_result(result, metrics)
            expect(result["correct"], (workload, trace, proc.stderr))
            if trace == 0:
                expect(all(v["value"] > 0 for v in result["metrics"].values()))
            print(f"  {workload} trace={trace}: {result['attempted']} checked")


def check_missing_engine() -> None:
    """Without src/ the benchmark exits non-zero and prints no result."""
    bare = os.path.join(run.SPAN_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    for path in BENCH["paths"]:
        shutil.copytree(os.path.join(run.ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    try:
        proc = run_benchmark("classtable", 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(), proc)


def main() -> int:
    run.use_checkout_engine()
    for check in (check_benchmark_file, check_representatives, check_wrong_oracle,
                  check_missing_engine, check_short_runs):
        print(f"{check.__name__} ...", flush=True)
        check()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
