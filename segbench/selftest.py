"""Self-test of the benchmark itself.

    python3 segbench/selftest.py

Checks that the metric names agree with BENCHMARK.json; that two traced runs
of the same seed give identical counters and answers; that another seed
changes the inputs but not their sizes; that every workload's checks pass
on the program's outputs and catch a corrupted one; and, against the
brute-force oracle, that the similarity pairs have answer n - k. Exits 0
when all hold, 1 otherwise. Takes a few seconds.
"""

from __future__ import annotations

import json
import random
import sys

from run import END_TO_END_UNITS, ROOT, BenchError, compare, load_program
from tracing import Tracer, counters, layer_metrics, patched, summarize, unit_of

SEED = 7
TASKS = 2


def shape(value):
    """A value with every byte string replaced by its length."""
    if isinstance(value, bytes):
        return len(value)
    if isinstance(value, tuple):
        return tuple(shape(v) for v in value)
    if isinstance(value, dict):
        return {k: shape(v) for k, v in value.items()}
    return value


def corrupt(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    return (corrupt(value[0]),) + value[1:]


def main() -> int:
    try:
        segsub = load_program()
    except BenchError as exc:
        print(f"selftest: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, make_pool, similar_pair

    problems: list[str] = []

    def expect(ok: bool, message: str) -> None:
        print(("ok    " if ok else "FAIL  ") + message)
        if not ok:
            problems.append(message)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json names the workloads run.py runs")
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS,
           "BENCHMARK.json lists the end-to-end metrics run.py prints")
    per_layer = layer_metrics([{}], {}, {}, 1.0, 0.0)
    expect({m["name"]: m["unit"] for m in spec["per_layer"]}
           == {name: unit_of(name) for name in per_layer},
           "BENCHMARK.json lists the per-layer metrics run.py prints")

    def traced(workload, pool):
        tracer = Tracer()
        with patched(tracer):
            outputs = [workload.run(task, tracer) for task in pool]
        return counters(summarize(tracer)), outputs

    for name, workload in WORKLOADS.items():
        pool = make_pool(workload, SEED, TASKS)
        first_counts, first_out = traced(workload, pool)
        again_counts, again_out = traced(workload, make_pool(workload, SEED, TASKS))
        expect(first_counts == again_counts and first_out == again_out,
               f"{name}: one seed twice gives identical counters and answers")
        expect(any(row.get("cells") or row.get("cell_visits") or row.get("cell_updates")
                   or row.get("symbols") for row in first_counts.values()),
               f"{name}: the traced run counts work")
        other = make_pool(workload, SEED + 1, TASKS)
        expect(other != pool and [shape(t) for t in other] == [shape(t) for t in pool],
               f"{name}: another seed changes the inputs, not their sizes")
        for task, out in zip(pool, first_out):
            failures = workload.check(task, out)
            expect(not failures, f"{name}: checks pass {failures or ''}")
            label = next(iter(out))
            bad = {**out, label: corrupt(out[label])}
            expect(bool(workload.check(task, bad)),
                   f"{name}: checks catch a corrupted {label}")
            expect(bool(compare(workload, out, bad, None)),
                   f"{name}: a repeated task that changes {label} fails")

    n, k = 10, 2
    for seed in range(10):
        t1, t2 = similar_pair(random.Random(seed), n, 4, k)
        answers = {segsub.slcs_bruteforce(t1, t2, f) for f in range(1, n + 1)}
        expect(answers == {n - k}, f"similarity pair {seed}: every budget gives n - k")

    print(f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
