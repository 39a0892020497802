"""segsub benchmark: closed-loop workloads, end-to-end and per-layer metrics.

One run measures one workload in this process, with one client and no
threads: each task starts when the previous one has finished.

    python3 segbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 segbench/run.py --workload all --seed N --seconds S [--out FILE]
    python3 segbench/run.py --workload NAME --seed N --replay INDEX

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` the per-layer
metrics of a traced run. ``all`` runs every workload both ways, each in a
fresh process, and can write the results to a JSON file. ``--replay`` runs one
task with its checks, as printed next to each failure. The last line of a
run's standard output is one JSON object: correct, attempted, failed, metrics.
The program under test is the segsub package in ``src/`` next to this
directory; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

from tracing import (LAYER_TAG, NullTracer, Tracer, counters, layer_metrics,
                     patched, root_seconds, span_records, summarize, unit_of)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".segbench-out"

POOL_SIZE = 8  # distinct tasks; a pass runs each once
# Other tenants of a shared host slow whole stretches of a run, often all of
# it, by up to 1.9x on the 2-vCPU VM this was tuned on, and never speed one
# up. So a fixed reference computation is timed around every pass, and the
# pass's times are rescaled to the speed at which that takes
# REFERENCE_NOMINAL_S; the end-to-end timings then use the faster half of the
# rescaled passes.
KEPT_SHARE = 0.5
REFERENCE_NOMINAL_S = 0.002  # the reference's time on that VM when quiet
MEMORY_TASKS = 2  # pool entries rerun under tracemalloc for peak_mb
SETUP_SAMPLES = 7  # fresh interpreters timed importing segsub
CHILD_TIMEOUT_S = 600

END_TO_END_UNITS = {
    "tasks_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

IMPORT_PROBE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import segsub
elapsed = time.perf_counter() - start
if not segsub.__file__.startswith(sys.argv[1]):
    sys.exit("segsub was imported from " + segsub.__file__)
print(repr(elapsed))
"""


class BenchError(Exception):
    """The benchmark cannot run here."""


def load_program():
    """Import segsub from ``src/``, refusing any other copy."""
    if not (SRC / "segsub" / "__init__.py").is_file():
        raise BenchError(f"no segsub package under {SRC}")
    sys.path.insert(0, str(SRC))
    import segsub

    if not Path(segsub.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"segsub was imported from {segsub.__file__}, not {SRC}")
    return segsub


def import_seconds() -> float:
    """Median wall time of ``import segsub`` over fresh interpreters,
    rescaled to the reference speed.

    One unmeasured import first writes the bytecode cache, which users pay
    once per install, not once per call.
    """
    samples = []
    for attempt in range(SETUP_SAMPLES + 1):
        done, speed = bracketed(lambda: subprocess.run(
            [sys.executable, "-I", "-c", IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
        ))
        if done.returncode != 0:
            raise BenchError(f"timing the import failed: {done.stderr.strip()}")
        if attempt:
            samples.append(float(done.stdout) * speed)
    return statistics.median(samples)


class Ledger:
    """Attempted and failed tasks; prints a replay command for each failure."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.by_layer: Counter[str] = Counter()

    def record(self, index: int | None, failures: list) -> None:
        self.attempted += 1
        if not failures:
            return
        self.failed += 1
        for layer in {layer for layer, _ in failures}:
            self.by_layer[layer] += 1
        for layer, message in failures:
            print(f"FAIL {self.workload.name} task {index} [{layer}] {message}")
        if index is not None:
            print(f"  replay: python3 segbench/run.py --workload "
                  f"{self.workload.name} --seed {self.seed} --replay {index}")


def execute(workload, task, tracer):
    """Run one task; return its wall seconds, outputs and any exception."""
    start = time.perf_counter()
    try:
        outputs, error = workload.run(task, tracer), None
    except Exception as exc:  # the loop keeps running; the failure is recorded
        outputs, error = None, exc
    return time.perf_counter() - start, outputs, error


def error_failures(workload, error: Exception) -> list:
    layer = getattr(error, LAYER_TAG, workload.layer)
    return [(layer, f"raised {type(error).__name__}: {error}")]


def verify(workload, task, outputs, error) -> list:
    """Full checks of one task's outputs."""
    if error is not None:
        return error_failures(workload, error)
    try:
        return workload.check(task, outputs)
    except Exception as exc:  # a check that raises is a failed check
        return [(workload.layer, f"check raised {type(exc).__name__}: {exc}")]


def compare(workload, reference, outputs, error) -> list:
    """A repeated task must give the outputs its first, fully checked run gave."""
    if error is not None:
        return error_failures(workload, error)
    if reference is None:
        return [(workload.layer, "first run of this task failed; no verified outputs")]
    return [
        (label.split(".")[0], f"{label} = {outputs[label]!r}, first run gave "
                              f"{reference[label]!r}")
        for label in reference
        if outputs.get(label) != reference[label]
    ]


def warm_up(workload, pool, ledger) -> list:
    """Run every pool task once, untimed, with full checks; return the outputs."""
    references = []
    for index, task in enumerate(pool):
        _, outputs, error = execute(workload, task, NullTracer())
        failures = verify(workload, task, outputs, error)
        ledger.record(index, failures)
        references.append(None if error is not None else outputs)
    return references


def run_pass(workload, pool, references, ledger, tracer, indices) -> list[float]:
    """One closed-loop pass over ``indices``; returns per-task wall seconds."""
    seconds = []
    for index in indices:
        tracer.begin_task(index)
        elapsed, outputs, error = execute(workload, pool[index], tracer)
        seconds.append(elapsed)
        ledger.record(index, compare(workload, references[index], outputs, error))
    return seconds


_rng = random.Random(0)
_REFERENCE_KEYS = [_rng.randrange(1 << 20) for _ in range(1 << 14)]
_REFERENCE_TABLE = {key: 7 * key for key in _REFERENCE_KEYS}


def reference_seconds() -> float:
    """Time of a fixed interpreter workload (loop, dict lookups, arithmetic)
    that no segsub change touches; the best of two tries."""
    best = math.inf
    for _ in range(2):
        start = time.perf_counter()
        total = 0
        for i, key in enumerate(_REFERENCE_KEYS):
            total += _REFERENCE_TABLE[key] * 3 if key & 1 else _REFERENCE_TABLE[key] ^ i
        best = min(best, time.perf_counter() - start)
    return best


def bracketed(run):
    """``run()``, and the factor that rescales times measured during it to
    the reference speed, from the reference timed just before and after."""
    before = reference_seconds()
    value = run()
    return value, 2 * REFERENCE_NOMINAL_S / (before + reference_seconds())


def measure_untraced(workload, pool, references, ledger, seconds: float) -> dict:
    """Closed-loop passes over the pool for ``seconds``. The reference is
    timed before the pass and after each task; the pass's times are rescaled
    by the median of those, and the timings come from the faster half of the
    passes."""
    passes, speeds = [], []
    start = time.perf_counter()
    while len(passes) < 2 or time.perf_counter() - start < seconds:
        elapsed, timings = [], [reference_seconds()]
        for index in range(len(pool)):
            elapsed += run_pass(workload, pool, references, ledger, NullTracer(),
                                [index])
            timings.append(reference_seconds())
        speeds.append(REFERENCE_NOMINAL_S / statistics.median(timings))
        passes.append([x * speeds[-1] for x in elapsed])
    passes.sort(key=sum)
    kept = passes[: math.ceil(len(passes) * KEPT_SHARE)]
    latencies = [x for one in kept for x in one]
    p90 = statistics.quantiles(latencies, n=10)[-1]
    return {
        "tasks_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": p90 * 1e3,
        "tasks": sum(len(one) for one in passes),
        "kept": len(latencies),
        "beyond_p90": sum(1 for x in latencies if x > p90),
        "speed": statistics.median(speeds),
    }


def measure_traced(workload, pool, references, ledger, seconds: float, seed: int):
    """Alternate untraced and traced passes over the pool for ``seconds``,
    then rerun a few tasks under tracemalloc; return the per-layer metrics.
    Self times are rescaled to the reference speed like the end-to-end ones."""
    indices = range(len(pool))
    slowdowns, uncovered, summaries, records = [], [], [], []
    start = time.perf_counter()
    while len(summaries) < 2 or time.perf_counter() - start < seconds:
        untraced_s = sum(run_pass(workload, pool, references, ledger,
                                  NullTracer(), indices))
        tracer = Tracer()
        with patched(tracer):
            traced, speed = bracketed(lambda: run_pass(
                workload, pool, references, ledger, tracer, indices))
        traced_s = sum(traced)
        slowdowns.append(untraced_s / traced_s)
        uncovered.append((traced_s - root_seconds(tracer)) / traced_s)
        summary = summarize(tracer)
        for row in summary.values():
            row["self_s"] *= speed
        summaries.append(summary)
        records += span_records(tracer, len(summaries) - 1)
    for later in summaries[1:]:
        if counters(later) != counters(summaries[0]):
            ledger.record(None, [(workload.layer, "counters differ between traced "
                                  "passes over the same tasks")])
    memory = Tracer(memory=True)
    tracemalloc.start()
    try:
        with patched(memory):
            run_pass(workload, pool, references, ledger, memory,
                     range(min(MEMORY_TASKS, len(pool))))
    finally:
        tracemalloc.stop()
    SPANS_DIR.mkdir(exist_ok=True)
    spans_file = SPANS_DIR / f"spans-{workload.name}-seed{seed}.json"
    spans_file.write_text(json.dumps(records))
    print(f"spans of {len(summaries)} traced passes written to "
          f"{spans_file.relative_to(ROOT)}")
    return layer_metrics(
        summaries,
        summarize(memory),
        ledger.by_layer,
        overhead_ratio=statistics.median(slowdowns),
        unattributed_ratio=statistics.median(uncovered),
    )


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    segsub = load_program()
    from workloads import WORKLOADS, make_pool

    workload = WORKLOADS[name]
    setup_s = None if trace else import_seconds()
    pool = make_pool(workload, seed, POOL_SIZE)
    ledger = Ledger(workload, seed)
    references = warm_up(workload, pool, ledger)
    params = " ".join(f"{k}={v}" for k, v in workload.params.items())
    print(f"workload {name}: {params} pool={POOL_SIZE} seed={seed} "
          f"segsub={segsub.__version__} python={platform.python_version()}")
    if trace:
        values = measure_traced(workload, pool, references, ledger, seconds, seed)
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}
    else:
        loop = measure_untraced(workload, pool, references, ledger, seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = {**{k: loop[k] for k in ("tasks_per_s", "latency_p50_ms",
                                           "latency_p90_ms")},
                  "peak_rss_mb": peak_rss_mb, "setup_s": setup_s}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}
        print(f"tasks={loop['tasks']}; timings over the faster half of the passes: "
              f"{loop['kept']} tasks, {loop['beyond_p90']} beyond p90; raw times "
              f"scaled by {loop['speed']:.4f} (median) to the reference speed")
    for key, metric in metrics.items():
        print(f"  {key:<40} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  {'failed_ratio':<40} {ledger.failed / ledger.attempted:>14.6g} "
          f"({ledger.failed}/{ledger.attempted})")
    return {"correct": ledger.failed == 0, "attempted": ledger.attempted,
            "failed": ledger.failed, "metrics": metrics}


def replay(name: str, seed: int, index: int) -> bool:
    load_program()
    from workloads import WORKLOADS, make_pool

    workload = WORKLOADS[name]
    if not 0 <= index < POOL_SIZE:
        raise BenchError(f"task index must be in 0..{POOL_SIZE - 1}")
    task = make_pool(workload, seed, index + 1)[index]
    _, outputs, error = execute(workload, task, NullTracer())
    if error is not None:
        raise error
    for label, value in outputs.items():
        print(f"{label} = {value!r}")
    failures = workload.check(task, outputs)
    for layer, message in failures:
        print(f"FAIL [{layer}] {message}")
    print("ok" if not failures else f"{len(failures)} failed checks")
    return not failures


def run_all(seed: int, seconds: float, out: Path | None) -> bool:
    """Every workload, untraced then traced, each in a fresh interpreter."""
    load_program()
    import numpy
    from workloads import WORKLOADS

    results = {}
    for name, workload in WORKLOADS.items():
        entry = {"params": workload.params}
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
            )
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                raise BenchError(f"{name} --trace {trace} exited {done.returncode}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            entry["end_to_end" if trace == 0 else "per_layer"] = result["metrics"]
            entry[f"attempted_trace{trace}"] = result["attempted"]
            entry[f"failed_trace{trace}"] = result["failed"]
        results[name] = entry
    summary = {
        "seed": seed,
        "seconds": seconds,
        "machine": {"system": platform.system(), "machine": platform.machine(),
                    "cpus": os.cpu_count(), "python": platform.python_version(),
                    "numpy": numpy.__version__},
        "workloads": results,
    }
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(summary, indent=1) + "\n")
        print(f"wrote {out}")
    return all(e["failed_trace0"] == 0 and e["failed_trace1"] == 0
               for e in results.values())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["all", "match", "near-identical", "dissimilar",
                                 "independent"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--replay", type=int, metavar="INDEX")
    parser.add_argument("--out", type=Path, help="results file for --workload all")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        if args.replay is not None:
            if args.workload == "all":
                parser.error("--replay needs one workload")
            return 0 if replay(args.workload, args.seed, args.replay) else 1
        if args.workload == "all":
            return 0 if run_all(args.seed, args.seconds, args.out) else 1
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except BenchError as exc:
        print(f"segbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
