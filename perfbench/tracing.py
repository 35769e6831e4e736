"""Span tracing for the traced benchmark run.

The engine has no timers of its own, so the traced run wraps public engine
functions from outside: ``Tracer.install`` replaces each function listed in
``TRACED`` in every module namespace that binds it, so calls between engine
modules are caught too and nested calls become child spans.
``Tracer.uninstall`` puts the originals back; the plain run never installs.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import Counter
from typing import Callable, Dict, List


def _field_tag(data) -> str:
    """Field of a cross-section: ``q`` (rationals), ``f2`` or ``fp`` (p > 2)."""
    p = getattr(data.ctx.field, "p", None)
    if p is None:
        return "q"
    return "f2" if p == 2 else "fp"


def _count_classes(tracer, args, classes) -> None:
    tracer.counts["weyl.classes"] += len(classes)
    tracer.counts["weyl.elements_enumerated"] += sum(len(c) for c in classes)


def _count_coxeter(tracer, args, elements) -> None:
    tracer.counts["coxeter.elements"] += len(elements)


def _count_analyze(tracer, args, report) -> None:
    tracer.counts["convexity.quasi"] += bool(report.quasi_convex)


def _count_good_position(tracer, args, cert) -> None:
    if cert is not None:
        tracer.counts["geometry.good"] += 1
        tracer.counts["geometry.exact"] += bool(cert.exact)


def _count_construction(tracer, args, result) -> None:
    if result.method == "geometric":
        tracer.counts["construction.geometric"] += 1
        return
    members = args[0].elements
    scanned = next(i for i, y in enumerate(members) if y == result.representative)
    tracer.counts["construction.exhaustive_scanned"] += scanned + 1


# (module, function, result hook).  ``xi`` and ``sigma`` spans carry the
# field of their cross-section as a suffix.
TRACED = (
    ("roots", "build_root_system", None),
    ("weyl", "conjugacy_classes", _count_classes),
    ("weyl", "from_word", None),
    ("coxeter", "coxeter_elements", _count_coxeter),
    ("coxeter", "verify_conjecture", None),
    ("convexity", "analyze", _count_analyze),
    ("geometry", "is_good_position", _count_good_position),
    ("construction", "find_convex_representative", _count_construction),
    ("matrixgroup", "build_cross_section", None),
    ("matrixgroup", "xi", None),
    ("matrixgroup", "sigma", None),
    ("matrixgroup", "transversality_check", None),
    ("matrixgroup", "random_cell_point", None),
    ("matrixgroup", "random_section_point", None),
    ("manifest", "run_manifest", None),
)
FIELD_TAGGED = {"xi": ("fp", "q", "f2"), "sigma": ("fp", "q")}


def span_names() -> List[str]:
    names = []
    for module, func, _ in TRACED:
        base = f"{module}.{func}"
        tags = FIELD_TAGGED.get(func)
        if tags:
            names.extend(f"{base}.{t}" for t in tags)
        else:
            names.append(base)
    return names


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Records spans of one traced run in memory.

    A span is ``[name, start, end, parent index, run id]``.  Children never
    overlap because the benchmark is single-threaded.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.enabled = False
        self._stack: List[int] = []
        self._installed: List[tuple] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, hook, tagged: bool) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span = [f"{name}.{_field_tag(args[0])}" if tagged else name,
                    0.0, 0.0, stack[-1] if stack else None, tracer.run_id]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(tracer, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every traced function wherever a loaded module binds it: the
        engine's modules and the benchmark's own ``from ... import`` names.
        """
        modules = list(sys.modules.values())
        for module, func, hook in TRACED:
            original = getattr(sys.modules[f"weylconvex.{module}"], func)
            wrapper = self._wrap(f"{module}.{func}", original, hook,
                                 func in FIELD_TAGGED)
            for m in modules:
                if getattr(m, "__dict__", {}).get(func) is original:
                    setattr(m, func, wrapper)
                    self._installed.append((m, func, original))

    def uninstall(self) -> None:
        for m, func, original in reversed(self._installed):
            setattr(m, func, original)
        self._installed.clear()

    @contextlib.contextmanager
    def recording(self):
        self.install()
        self.enabled = True
        try:
            yield self
        finally:
            self.enabled = False
            self.uninstall()

    @contextlib.contextmanager
    def paused(self):
        """Oracle checks run through here so they leave no spans or counts."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    # -- aggregation -------------------------------------------------------

    def layer_metrics(self, sampler) -> Dict[str, float]:
        """Calls, inclusive and self time per span name, plus counts and ratios.

        Times are reference seconds from ``sampler`` (a ``SpeedSampler``).
        Self time is a span's wall time minus its direct children's, scaled
        by the span's own speed factor.  Inclusive time skips spans nested
        in a span of the same name, so recursion is not counted twice.
        """
        spans = self.spans
        out: Dict[str, float] = {}
        for name in span_names():
            out[f"{name}.calls"] = 0
            out[f"{name}.s"] = 0.0
            out[f"{name}.self_s"] = 0.0
        net = [sampler.net(s[1], s[2]) for s in spans]
        own = list(net)
        for span, seconds in zip(spans, net):
            if span[3] is not None:
                own[span[3]] -= seconds
        for span, seconds, own_seconds in zip(spans, net, own):
            name, parent = span[0], span[3]
            factor = sampler.factor(span[1], span[2])
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += own_seconds * factor
            while parent is not None and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent is None:
                out[f"{name}.s"] += seconds * factor
        words_tried = sum(
            1 for s in spans
            if s[0] == "weyl.from_word" and s[3] is not None
            and spans[s[3]][0] == "coxeter.coxeter_elements"
        )
        c = self.counts
        out.update({
            "weyl.elements_enumerated": c["weyl.elements_enumerated"],
            "weyl.classes": c["weyl.classes"],
            "coxeter.words_tried": words_tried,
            "coxeter.elements": c["coxeter.elements"],
            "coxeter.useful_ratio": _ratio(c["coxeter.elements"], words_tried),
            "convexity.quasi_ratio": _ratio(
                c["convexity.quasi"], out["convexity.analyze.calls"]),
            "geometry.good_ratio": _ratio(
                c["geometry.good"], out["geometry.is_good_position.calls"]),
            "geometry.exact_ratio": _ratio(c["geometry.exact"], c["geometry.good"]),
            "construction.geometric_ratio": _ratio(
                c["construction.geometric"],
                out["construction.find_convex_representative.calls"]),
            "construction.exhaustive_scanned": c["construction.exhaustive_scanned"],
        })
        return out

    def dump(self, fh) -> None:
        """Write the spans as JSON lines of [name, start, end, parent, run id]."""
        for span in self.spans:
            fh.write(json.dumps(span) + "\n")


def is_count(metric: str) -> bool:
    """Counts and ratios must repeat exactly for a fixed seed; times need not."""
    return not (metric.endswith(".s") or metric.endswith(".self_s"))
