"""The four workloads: input generators, tasks and output checks.

A task is one user-level request. Every task of a workload has inputs of the
same size, drawn from its own ``random.Random``; segsub sees only the bytes.
``run`` is the timed part and returns the outputs by label, whose first part
names the layer charged when that output is wrong. ``check`` verifies those
outputs against answers known by construction or computed another way, and
runs outside the timed region.

The generators are the benchmark's own rather than ``segsub.harness``'s, so
a change to the harness cannot change a workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import segsub

BASE = ord("a")

Task = dict
Outputs = dict
Failure = tuple  # (layer, message)


def draw(rng: random.Random, n: int, alphabet: int) -> bytes:
    return bytes(BASE + rng.randrange(alphabet) for _ in range(n))


def uniform_pair(rng: random.Random, n: int, alphabet: int) -> tuple[bytes, bytes]:
    return draw(rng, n, alphabet), draw(rng, n, alphabet)


def similar_pair(
    rng: random.Random, n: int, alphabet: int, k: int
) -> tuple[bytes, bytes]:
    """t2 is t1 with its last k symbols replaced, so every budget's answer is n - k.

    The replacements avoid every symbol of t1's last k, so t1's tail and
    t2's tail share no symbol. A common subsequence that uses t1's tail
    must then match it inside t2's shared prefix, after which it cannot use
    t2's tail; so it lies within one shared prefix and has at most n - k
    symbols, which the shared prefix reaches as a single segment.
    """
    if not 0 <= k < alphabet or k > n:
        raise ValueError(f"similarity needs 0 <= k < alphabet and k <= n, got k={k}")
    t1 = draw(rng, n, alphabet)
    displaced = set(t1[n - k:])
    allowed = [BASE + v for v in range(alphabet) if BASE + v not in displaced]
    t2 = t1[: n - k] + bytes(rng.choice(allowed) for _ in range(k))
    return t1, t2


def cut(rng: random.Random, text: bytes, m: int, pieces: int) -> bytes:
    """m symbols of ``text`` taken as ``pieces`` non-overlapping, in-order pieces."""
    bounds = sorted(rng.sample(range(1, m), pieces - 1))
    lengths = [b - a for a, b in zip([0] + bounds, bounds + [m])]
    gaps = sorted(rng.choices(range(len(text) - m + 1), k=pieces))
    out, used = [], 0
    for gap, length in zip(gaps, lengths):
        out.append(text[gap + used : gap + used + length])
        used += length
    return b"".join(out)


def _expect(failures: list, layer: str, ok: bool, message: str) -> None:
    if not ok:
        failures.append((layer, message))


# --- match -----------------------------------------------------------------
# A text screened with sege(f=2) against short patterns of known answer
# (the linear decider), then the quadratic min_segments DP on one long
# pattern. Bypasses lce, seglcs and indseglcs.

MATCH = {"n": 2000, "alphabet": 4, "screened": 20, "screened_m": 20,
         "m": 200, "pieces": 8, "budgets": [1, 2]}
ABSENT = BASE + MATCH["alphabet"]  # a symbol no match text contains


def make_match(rng: random.Random) -> Task:
    n, alphabet, size = MATCH["n"], MATCH["alphabet"], MATCH["screened_m"]
    text = draw(rng, n, alphabet)
    screened, expected = [], []
    for i in range(MATCH["screened"]):
        if i % 2 == 0:  # one or two pieces of the text: embeds with f = 2
            screened.append(cut(rng, text, size, 1 + i % 4 // 2))
            expected.append(True)
        else:  # carries a symbol the text lacks: never embeds
            piece = cut(rng, text, size - 1, 1)
            at = rng.randrange(size)
            screened.append(piece[:at] + bytes([ABSENT]) + piece[at:])
            expected.append(False)
    return {"text": text, "screened": tuple(screened), "expected": tuple(expected),
            "pattern": cut(rng, text, MATCH["m"], MATCH["pieces"])}


def run_match(task: Task, tr) -> Outputs:
    text, pattern = task["text"], task["pattern"]
    screened = []
    for p in task["screened"]:
        with tr.span("segmatch.sege"):
            screened.append(segsub.sege(text, p, 2))
    with tr.span("segmatch.sege"):
        substring = segsub.sege(text, pattern, 1)
    with tr.span("segmatch.min_segments") as span:
        needed = segsub.min_segments(text, pattern)
    span.count(cells=len(text) * len(pattern))
    return {"segmatch.screened": tuple(screened), "segmatch.sege_f1": substring,
            "segmatch.min_segments": needed}


def check_match(task: Task, out: Outputs) -> list[Failure]:
    failures: list[Failure] = []
    text, pattern = task["text"], task["pattern"]
    for i, (p, want, got) in enumerate(
        zip(task["screened"], task["expected"], out["segmatch.screened"])
    ):
        _expect(failures, "segmatch", got == want,
                f"screened pattern {i}: sege(f=2) = {got}, built to be {want}")
        needed = segsub.min_segments(text, p)
        _expect(failures, "segmatch", got == (needed is not None and needed <= 2),
                f"screened pattern {i}: sege(f=2) = {got} but min_segments = {needed}")
    needed = out["segmatch.min_segments"]
    _expect(failures, "segmatch", needed is not None and needed <= MATCH["pieces"],
            f"min_segments = {needed}, pattern was cut in {MATCH['pieces']} pieces")
    _expect(failures, "segmatch", out["segmatch.sege_f1"] == (needed == 1),
            f"sege(f=1) = {out['segmatch.sege_f1']} but min_segments = {needed}")
    two = segsub.sege(text, pattern, 2)
    _expect(failures, "segmatch", two == (needed is not None and needed <= 2),
            f"sege(f=2) = {two} but min_segments = {needed}")
    return failures


# --- near-identical --------------------------------------------------------
# The diagonal solver's best regime: t2 is t1 with k edits in the tail. lce
# runs in suffix-array mode; the baseline is never called.

NEAR = {"n": 2000, "alphabet": 8, "k": 2, "budgets": [1, 4, 16]}


def make_near(rng: random.Random) -> Task:
    t1, t2 = similar_pair(rng, NEAR["n"], NEAR["alphabet"], NEAR["k"])
    return {"t1": t1, "t2": t2}


def _diagonal(tr, t1: bytes, t2: bytes, f: int) -> int:
    stats = segsub.SolveStats()
    with tr.span("seglcs.slcs_diagonal") as span:
        ell = segsub.slcs_diagonal(t1, t2, f, stats=stats)
    # the paper's work bound f * n2 * (n1 - ell + 1), n1 the shorter text
    n1, n2 = sorted((len(t1), len(t2)))
    span.count(cell_visits=stats.cell_visits,
               visit_bound=min(f, n1) * n2 * (n1 - ell + 1))
    return ell


def run_near(task: Task, tr) -> Outputs:
    return {f"seglcs.slcs_diagonal.f{f}": _diagonal(tr, task["t1"], task["t2"], f)
            for f in NEAR["budgets"]}


def check_near(task: Task, out: Outputs) -> list[Failure]:
    want = NEAR["n"] - NEAR["k"]
    failures: list[Failure] = []
    for label, got in out.items():
        _expect(failures, "seglcs", got == want, f"{label} = {got}, built to be {want}")
    return failures


# --- dissimilar ------------------------------------------------------------
# A uniform pair: the dense numpy baseline, lce in quadratic mode, witness
# memory, and the diagonal solver's bad regime on the pair's prefixes.

DISSIMILAR = {"n": 600, "alphabet": 4, "budgets": [4], "diagonal_prefix": 150}


def make_dissimilar(rng: random.Random) -> Task:
    t1, t2 = uniform_pair(rng, DISSIMILAR["n"], DISSIMILAR["alphabet"])
    return {"t1": t1, "t2": t2}


def run_dissimilar(task: Task, tr) -> Outputs:
    t1, t2 = task["t1"], task["t2"]
    (f,), prefix = DISSIMILAR["budgets"], DISSIMILAR["diagonal_prefix"]
    stats = segsub.SolveStats()
    with tr.span("seglcs.slcs_baseline") as span:
        ell = segsub.slcs_baseline(t1, t2, f, stats=stats)
    span.count(cell_visits=stats.cell_visits)
    with tr.span("seglcs.slcs_witness") as span:
        witness = segsub.slcs_witness(t1, t2, f)
    span.count(cells=min(f, len(t1), len(t2)) * len(t1) * len(t2))
    return {"seglcs.slcs_baseline": ell, "seglcs.slcs_witness": witness,
            "seglcs.slcs_diagonal.prefix": _diagonal(tr, t1[:prefix], t2[:prefix], f)}


def check_dissimilar(task: Task, out: Outputs) -> list[Failure]:
    t1, t2 = task["t1"], task["t2"]
    (f,), prefix = DISSIMILAR["budgets"], DISSIMILAR["diagonal_prefix"]
    failures: list[Failure] = []
    ell = out["seglcs.slcs_baseline"]
    length, seg, into1, into2 = out["seglcs.slcs_witness"]
    _expect(failures, "seglcs", length == ell,
            f"witness length {length} != slcs_baseline {ell}")
    _expect(failures, "seglcs", len(seg.pattern) == length,
            f"witness string has {len(seg.pattern)} symbols, reported {length}")
    _expect(failures, "seglcs", seg.segment_count <= f,
            f"witness has {seg.segment_count} segments, budget {f}")
    _expect(failures, "core", segsub.verify_embedding(t1, into1),
            "witness does not embed into t1")
    _expect(failures, "core", segsub.verify_embedding(t2, into2),
            "witness does not embed into t2")
    want = segsub.slcs_baseline(t1[:prefix], t2[:prefix], f)
    got = out["seglcs.slcs_diagonal.prefix"]
    _expect(failures, "seglcs", got == want,
            f"slcs_diagonal on {prefix}-prefixes = {got}, slcs_baseline = {want}")
    return failures


# --- independent -----------------------------------------------------------
# indseglcs, the slowest solver, in both table families; no other workload
# calls it.

INDEPENDENT = {"n": 24, "alphabet": 4, "budgets": [6, 10]}


def make_independent(rng: random.Random) -> Task:
    t1, t2 = uniform_pair(rng, INDEPENDENT["n"], INDEPENDENT["alphabet"])
    calls = []
    for f in INDEPENDENT["budgets"]:
        c1, c2 = segsub.side_config(len(t1), f), segsub.side_config(len(t2), f)
        updates = 4 * len(t1) * len(t2) * (c1.g + 1) * (c2.g + 1)
        calls.append((f, c1.family, updates))
    return {"t1": t1, "t2": t2, "calls": tuple(calls)}


def run_independent(task: Task, tr) -> Outputs:
    t1, t2 = task["t1"], task["t2"]
    out = {}
    for f, family, updates in task["calls"]:
        with tr.span(f"indseglcs.{family}") as span:
            out[f"indseglcs.f{f}"] = segsub.indseglcs(t1, t2, f, f)
        span.count(cell_updates=updates)
    return out


def check_independent(task: Task, out: Outputs) -> list[Failure]:
    t1, t2 = task["t1"], task["t2"]
    failures: list[Failure] = []
    for f, family, _ in task["calls"]:
        got = out[f"indseglcs.f{f}"]
        other = "score" if family == "count" else "count"
        forced = segsub.indseglcs(t1, t2, f, f, force_family=other)
        _expect(failures, "indseglcs", got == forced,
                f"indseglcs(f={f}) = {got} with {family} tables, {forced} with {other}")
        shared = segsub.slcs_baseline(t1, t2, f)
        _expect(failures, "indseglcs", got >= shared,
                f"indseglcs(f={f}, {f}) = {got} < slcs_baseline(f={f}) = {shared}")
    return failures


@dataclass(frozen=True)
class Workload:
    name: str
    layer: str  # charged with a failure that no span attributes
    params: dict
    make: Callable[[random.Random], Task]
    run: Callable[[Task, object], Outputs]
    check: Callable[[Task, Outputs], list[Failure]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("match", "segmatch", MATCH, make_match, run_match, check_match),
        Workload("near-identical", "seglcs", NEAR, make_near, run_near, check_near),
        Workload("dissimilar", "seglcs", DISSIMILAR, make_dissimilar,
                 run_dissimilar, check_dissimilar),
        Workload("independent", "indseglcs", INDEPENDENT, make_independent,
                 run_independent, check_independent),
    )
}


def make_pool(workload: Workload, seed: int, size: int) -> list[Task]:
    """The tasks a run cycles through; entry i depends only on (workload, seed, i)."""
    return [workload.make(random.Random(f"{workload.name}:{seed}:{i}"))
            for i in range(size)]
