"""weylconvex benchmark runner.

    python3 perfbench/run.py --workload classtable --seed 1 --seconds 20 --trace 0

Runs one workload (see ``workloads.py``) against the engine in ``src/`` of
the checkout this file lives in, as one single-threaded closed loop: one
engine call at a time, each result checked by an oracle outside its timed
section.  Passes over the seeded batch repeat until ``--seconds`` have
passed (at least one); timings are medians over the passes, in reference
seconds (see ``speed.py``).

With ``--trace 0`` the last stdout line reports the end-to-end metrics of
``BENCHMARK.json``.  With ``--trace 1`` it reports the per-layer metrics:
after a warm-up pass and one untraced pass come two traced runs (set-up
plus one pass each) of the same seed, whatever ``--seconds`` says, and any
drift of a count between the two traced runs counts as a failure.  Lines
before the last one give per-job detail for people.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List

from speed import SpeedSampler

STARTED = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ENGINE = os.path.join(ROOT, "src")
SPAN_DIR = os.path.join(HERE, "out")
# Fresh interpreters timed for setup_s; the median is reported.
SETUP_SAMPLES = 3
# Speed probes before and after each of them.
SETUP_PROBES = 5
# Oracle mismatches printed in full; the rest are only counted.
MAX_REPORTED_FAILURES = 10


class JobFailed(Exception):
    """A timed call raised; the rest of its job depends on its result."""


class Meter:
    """Times engine calls and counts oracle checks.

    ``intervals`` collects the (start, end) of every timed call, to be
    turned into reference seconds by ``sampler`` once the pass is over.
    ``pause`` wraps each oracle check; the traced run passes
    ``Tracer.paused`` so oracles leave no spans.
    """

    def __init__(self, sampler: SpeedSampler):
        self.sampler = sampler
        self.attempted = 0
        self.failed = 0
        self.intervals: List[tuple] = []
        self.items = 0
        self.pause: Callable = contextlib.nullcontext

    def run(self, fn, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        except Exception as exc:
            self.attempted += 1
            self._fail(f"{getattr(fn, '__name__', fn)} raised {exc!r}")
            raise JobFailed from exc
        finally:
            self.intervals.append((start, time.perf_counter()))

    def check(self, oracle: Callable[[], bool], what: str, item: bool = True) -> None:
        """Count one checked operation; ``item`` marks a unit of the job's rate."""
        self.attempted += 1
        self.items += item
        with self.pause():
            try:
                ok = bool(oracle())
            except Exception as exc:
                ok, what = False, f"{what}: oracle raised {exc!r}"
        if not ok:
            self._fail(f"oracle mismatch: {what}")

    def _fail(self, message: str) -> None:
        self.failed += 1
        if self.failed <= MAX_REPORTED_FAILURES:
            print(message, file=sys.stderr)


@dataclass
class JobTime:
    name: str
    kind: str
    headline: bool
    seconds: float
    items: int


def run_pass(jobs, meter: Meter) -> List[JobTime]:
    done = []
    meter.intervals = []
    for job in jobs:
        first, meter.items = len(meter.intervals), 0
        try:
            job.run(meter)
        except JobFailed:
            pass
        done.append((job, first, len(meter.intervals), meter.items))
    meter.sampler.probe()
    return [
        JobTime(job.name, job.kind, job.headline,
                sum(meter.sampler.scaled(*iv) for iv in meter.intervals[a:b]), items)
        for job, a, b, items in done
    ]


def batch_seconds(times: List[JobTime]) -> float:
    return sum(t.seconds for t in times)


def setup_sample(workload: str, seed: int) -> float:
    """Reference seconds of a fresh interpreter that imports the engine,
    sets the workload up and exits, with speed probes just before and after."""
    sampler = SpeedSampler()
    for _ in range(SETUP_PROBES):
        sampler.probe()
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        check=True, stdout=subprocess.DEVNULL,
    )
    end = time.perf_counter()
    for _ in range(SETUP_PROBES):
        sampler.probe()
    return sampler.scaled(start, end)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def detail_lines(passes: List[List[JobTime]]) -> List[str]:
    """Per-kind rates and per-job medians, for people reading the log."""
    lines = []
    kinds: Dict[str, List[JobTime]] = {}
    for times in passes:
        for t in times:
            kinds.setdefault(t.kind, []).append(t)
    for kind, times in kinds.items():
        seconds = sum(t.seconds for t in times)
        items = sum(t.items for t in times)
        lines.append(f"{kind}_per_s {items / seconds if seconds else 0.0:.6g} 1/s")
        lines.append(f"{kind}_s {seconds / len(passes):.6g} s")
        lines.append(f"{kind}_max_job_s {max(t.seconds for t in times):.6g} s")
    for i, first in enumerate(passes[0]):
        median = statistics.median(times[i].seconds for times in passes)
        lines.append(f"job {first.name!r} {median:.6g} s items={first.items}")
    return lines


def measure_plain(setup, workload: str, seed: int, seconds: float, meter: Meter):
    samples = [setup_sample(workload, seed) for _ in range(SETUP_SAMPLES)]
    jobs = setup(seed)
    with meter.sampler:
        passes = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            passes.append(run_pass(jobs, meter))
    batch = [batch_seconds(p) for p in passes]
    headline = [sum(t.seconds for t in p if t.headline) for p in passes]
    metrics = {
        "setup_s": (statistics.median(samples), "s"),
        "batch_s": (statistics.median(batch), "s"),
        "headline_s": (statistics.median(headline), "s"),
        "rest_s": (statistics.median(b - h for b, h in zip(batch, headline)), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    lines = detail_lines(passes) + [
        f"passes {len(passes)}",
        f"setup_samples_s {' '.join(f'{s:.4f}' for s in samples)}",
    ]
    return metrics, lines


def layer_unit(name: str) -> str:
    if name.endswith(".s") or name.endswith(".self_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def measure_traced(setup, workload: str, seed: int, meter: Meter):
    from tracing import Tracer, is_count

    jobs = setup(seed)
    runs = []
    with meter.sampler:
        run_pass(jobs, meter)  # warm-up: the first pass also grows the heap
        plain = batch_seconds(run_pass(jobs, meter))
        for run_id in ("A", "B"):
            tracer = Tracer(f"{workload}-seed{seed}-{run_id}")
            meter.pause = tracer.paused
            with tracer.recording():
                traced = batch_seconds(run_pass(setup(seed), meter))
            meter.pause = contextlib.nullcontext
            runs.append((tracer, tracer.layer_metrics(meter.sampler), traced))
    (tracer_a, first, traced_a), (tracer_b, second, traced_b) = runs
    drift = [k for k in first if is_count(k) and first[k] != second[k]]
    meter.check(lambda: not drift, f"counts drifted between runs: {drift}", item=False)
    values = {k: first[k] if is_count(k) else (first[k] + second[k]) / 2 for k in first}
    values["trace.overhead_ratio"] = (traced_a + traced_b) / 2 / plain
    os.makedirs(SPAN_DIR, exist_ok=True)
    path = os.path.join(SPAN_DIR, f"spans-{workload}-seed{seed}.jsonl")
    with open(path, "w") as fh:
        tracer_a.dump(fh)
        tracer_b.dump(fh)
    metrics = {k: (v, layer_unit(k)) for k, v in values.items()}
    return metrics, [f"spans written to {os.path.relpath(path, ROOT)}"]


def parse_args(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and set up, then exit (times setup_s)")
    return parser.parse_args(argv)


def measure(workload: str, seed: int, seconds: float, trace: int) -> Dict:
    """One benchmark run; returns the result object printed last."""
    from workloads import WORKLOADS

    setup = WORKLOADS[workload]
    meter = Meter(SpeedSampler())
    if trace:
        metrics, lines = measure_traced(setup, workload, seed, meter)
    else:
        metrics, lines = measure_plain(setup, workload, seed, seconds, meter)
    lines += [
        f"wall_s {time.perf_counter() - STARTED:.6g} s",
        f"error_rate {meter.failed / max(meter.attempted, 1):.6g} ratio",
    ]
    for line in lines:
        print(line)
    return {
        "correct": meter.failed == 0,
        "attempted": meter.attempted,
        "failed": meter.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def use_checkout_engine() -> None:
    """Import the engine from this checkout's ``src``, never an installed copy."""
    if not os.path.isfile(os.path.join(ENGINE, "weylconvex", "__init__.py")):
        raise SystemExit(f"no engine sources under {ENGINE}")
    sys.path[:0] = [ENGINE, HERE]
    import weylconvex

    if not os.path.abspath(weylconvex.__file__).startswith(ENGINE + os.sep):
        raise SystemExit(f"weylconvex imported from {weylconvex.__file__}, not {ENGINE}")


def main(argv=None) -> int:
    use_checkout_engine()
    args = parse_args(argv)
    if args.setup_only:
        from workloads import WORKLOADS

        WORKLOADS[args.workload](args.seed)
        return 0
    result = measure(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
