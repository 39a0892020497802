"""Spans for the traced run and the per-layer metrics derived from them.

Spans are opened only by the benchmark's own code: around its calls into
segsub, and around the four module attributes that ``patched`` swaps in for
the duration of a traced pass, so that calls one segsub module makes into
another get a span whose parent is the caller's span. Per-cell calls such as
``LcsufIndex.query`` are never wrapped; their count comes from
``SolveStats.cell_visits``. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
import tracemalloc
from contextlib import contextmanager

LAYERS = ("segmatch", "lce", "seglcs", "indseglcs", "core")
LAYER_TAG = "_segbench_layer"  # set on an exception by the innermost span it left


class Span:
    __slots__ = ("tracer", "name", "index", "parent", "task", "start", "end",
                 "counts", "base", "high", "peak")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name
        self.counts: dict[str, int] = {}
        self.peak = 0

    def count(self, **counts: int) -> None:
        for key, value in counts.items():
            self.counts[key] = self.counts.get(key, 0) + value

    def __enter__(self) -> Span:
        self.tracer._enter(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.tracer._exit(self)
        if exc is not None and not hasattr(exc, LAYER_TAG):
            setattr(exc, LAYER_TAG, self.name.split(".")[0])
        return False


class _NullSpan:
    def count(self, **counts: int) -> None:
        pass

    def __enter__(self) -> _NullSpan:
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


class NullTracer:
    """The untraced run: every span is the same no-op."""

    _span = _NullSpan()

    def span(self, name: str) -> _NullSpan:
        return self._span

    def begin_task(self, index: int) -> None:
        pass


class Tracer:
    """Collects spans of one pass; with ``memory`` also per-span tracemalloc peaks.

    Memory mode expects tracemalloc to be running. It resets the traced peak
    at every span boundary and folds the peak seen so far into every open
    span, so a span's ``peak`` is the most bytes above its start that were
    allocated while it was open, children included.
    """

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[Span] = []
        self._task = -1
        self._open: list[Span] = []

    def span(self, name: str) -> Span:
        return Span(self, name)

    def begin_task(self, index: int) -> None:
        self._task = index

    def _mark(self) -> int:
        current, peak = tracemalloc.get_traced_memory()
        for span in self._open:
            if peak > span.high:
                span.high = peak
        tracemalloc.reset_peak()
        return current

    def _enter(self, span: Span) -> None:
        span.index = len(self.spans)
        span.parent = self._open[-1].index if self._open else None
        span.task = self._task
        self.spans.append(span)
        if self.memory:
            span.base = span.high = self._mark()
        self._open.append(span)
        span.start = time.perf_counter()

    def _exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        if self.memory:
            self._mark()
            span.peak = span.high - span.base
        self._open.pop()


def _lcsuf_index_counts(span: Span, args: tuple, index) -> None:
    span.count(**{f"{index.mode.replace('-', '_')}_calls": 1})


def _min_segments_counts(span: Span, args: tuple, result) -> None:
    span.count(cells=len(args[0]) * len(args[1]))


def _seg2_linear_counts(span: Span, args: tuple, result) -> None:
    span.count(symbols=len(args[0]) + len(args[1]))


# (module, attribute, span name, counter): the attributes through which one
# segsub module calls into another
_PATCHES = (
    ("segsub.seglcs", "LcsufIndex", "lce.LcsufIndex", _lcsuf_index_counts),
    ("segsub.seglcs", "lcsuf_matrix", "lce.lcsuf_matrix", None),
    ("segsub.segmatch", "min_segments", "segmatch.min_segments",
     _min_segments_counts),
    ("segsub.segmatch", "seg2_linear", "segmatch.seg2_linear",
     _seg2_linear_counts),
)


def _wrap(tracer: Tracer, original, name: str, counter):
    @functools.wraps(original)
    def traced(*args, **kwargs):
        with tracer.span(name) as span:
            result = original(*args, **kwargs)
        if counter is not None:
            counter(span, args, result)
        return result

    return traced


@contextmanager
def patched(tracer: Tracer):
    """Route segsub's cross-module calls through spans of ``tracer``."""
    saved = []
    try:
        for module_name, attr, name, counter in _PATCHES:
            module = sys.modules[module_name]
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _wrap(tracer, original, name, counter))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def summarize(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per span name: calls, self seconds, summed counts and largest peak."""
    child_seconds = [0.0] * len(tracer.spans)
    for span in tracer.spans:
        if span.parent is not None:
            child_seconds[span.parent] += span.end - span.start
    out: dict[str, dict[str, float]] = {}
    for span in tracer.spans:
        row = out.setdefault(span.name, {"calls": 0, "self_s": 0.0, "peak_mb": 0.0})
        row["calls"] += 1
        row["self_s"] += span.end - span.start - child_seconds[span.index]
        row["peak_mb"] = max(row["peak_mb"], span.peak / 1e6)
        for key, value in span.counts.items():
            row[key] = row.get(key, 0) + value
    return out


def root_seconds(tracer: Tracer) -> float:
    """Task time covered by spans: the summed durations of spans with no parent."""
    return sum(s.end - s.start for s in tracer.spans if s.parent is None)


def span_records(tracer: Tracer, pass_index: int) -> list[dict]:
    return [
        {"pass": pass_index, "task": s.task, "index": s.index, "parent": s.parent,
         "name": s.name, "start_s": s.start, "end_s": s.end, "counts": s.counts}
        for s in tracer.spans
    ]


def counters(summary: dict[str, dict[str, float]]) -> dict[str, dict[str, float]]:
    """The machine-independent part of a summary, which must repeat exactly."""
    return {
        name: {k: v for k, v in row.items() if k not in ("self_s", "peak_mb")}
        for name, row in summary.items()
    }


def layer_metrics(
    timed: list[dict[str, dict[str, float]]],
    memory: dict[str, dict[str, float]],
    failed: dict[str, int],
    overhead_ratio: float,
    unattributed_ratio: float,
) -> dict[str, float]:
    """Per-layer metrics from the traced passes of one run.

    Counts are totals over one pass of the task pool (they repeat exactly
    between passes); self times are the median over the timed passes of
    their per-pass total; ``peak_mb`` comes from the memory pass.
    """
    count_rows = counters(timed[0])

    def total(name: str, key: str) -> float:
        return count_rows.get(name, {}).get(key, 0)

    def self_s(*names: str) -> float:
        return sum(
            statistics.median(p.get(name, {}).get("self_s", 0.0) for p in timed)
            for name in names
        )

    def peak(*names: str) -> float:
        return max(memory.get(name, {}).get("peak_mb", 0.0) for name in names)

    def ns_per(seconds: float, work: float) -> float:
        return seconds * 1e9 / work if work else 0.0

    m: dict[str, float] = {}
    name = "segmatch.min_segments"
    m[f"{name}.self_s"] = self_s(name)
    m[f"{name}.calls"] = total(name, "calls")
    m[f"{name}.cells"] = total(name, "cells")
    m[f"{name}.ns_per_cell"] = ns_per(self_s(name), total(name, "cells"))
    name = "segmatch.seg2_linear"
    m[f"{name}.self_s"] = self_s(name)
    m[f"{name}.calls"] = total(name, "calls")
    m[f"{name}.ns_per_symbol"] = ns_per(self_s(name), total(name, "symbols"))
    m["segmatch.sege.self_s"] = self_s("segmatch.sege")
    name = "lce.LcsufIndex"
    m[f"{name}.self_s"] = self_s(name)
    m[f"{name}.calls"] = total(name, "calls")
    m[f"{name}.suffix_array_calls"] = total(name, "suffix_array_calls")
    m[f"{name}.quadratic_calls"] = total(name, "quadratic_calls")
    m[f"{name}.peak_mb"] = peak(name)
    name = "lce.lcsuf_matrix"
    m[f"{name}.self_s"] = self_s(name)
    m[f"{name}.calls"] = total(name, "calls")
    m[f"{name}.peak_mb"] = peak(name)
    name = "seglcs.slcs_baseline"
    m[f"{name}.self_s"] = self_s(name)
    m[f"{name}.cell_visits"] = total(name, "cell_visits")
    m[f"{name}.ns_per_cell"] = ns_per(self_s(name), total(name, "cell_visits"))
    m[f"{name}.peak_mb"] = peak(name)
    name = "seglcs.slcs_witness"
    m[f"{name}.self_s"] = self_s(name)
    m[f"{name}.cells"] = total(name, "cells")
    m[f"{name}.peak_mb"] = peak(name)
    name = "seglcs.slcs_diagonal"
    visits = total(name, "cell_visits")
    bound = total(name, "visit_bound")
    m[f"{name}.self_s"] = self_s(name)
    m[f"{name}.cell_visits"] = visits
    m[f"{name}.ns_per_visit"] = ns_per(self_s(name), visits)
    m[f"{name}.visits_per_bound"] = visits / bound if bound else 0.0
    m[f"{name}.peak_mb"] = peak(name)
    families = ("indseglcs.count", "indseglcs.score")
    updates = sum(total(name, "cell_updates") for name in families)
    m["indseglcs.count.self_s"] = self_s("indseglcs.count")
    m["indseglcs.score.self_s"] = self_s("indseglcs.score")
    m["indseglcs.cell_updates"] = updates
    m["indseglcs.ns_per_update"] = ns_per(self_s(*families), updates)
    m["indseglcs.peak_mb"] = peak(*families)
    for layer in LAYERS:
        m[f"{layer}.failed"] = failed.get(layer, 0)
    m["trace.overhead_ratio"] = overhead_ratio
    m["trace.unattributed_ratio"] = unattributed_ratio
    return m


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, read off the last part of its name."""
    last = metric.rsplit(".", 1)[1]
    if last == "self_s":
        return "s"
    if last.startswith("ns_per_"):
        return "ns"
    if last == "peak_mb":
        return "MB"
    if last.endswith("_ratio") or last == "visits_per_bound":
        return "ratio"
    return "count"
