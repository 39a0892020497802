"""Instance generation, differential testing, and benchmark measurement.

Wall time is reported but never used as a gate; the counters in SolveStats
are the machine-independent unit for complexity trends.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping

from . import oracle, segmatch, seglcs
from .indseglcs import indseglcs

KINDS = ("sege", "seglcs", "indseglcs")

SeglcsSolver = Callable[[bytes, bytes, int], int]

SEGLCS_SOLVERS = {"baseline": seglcs.slcs_baseline, "diagonal": seglcs.slcs_diagonal}

FAULTS = ("text-off-by-one",)

CSV_COLUMNS = ("algorithm", "n1", "n2", "f", "ell", "wall_time", "cell_visits")


@dataclass(frozen=True)
class Instance:
    kind: str
    texts: tuple[bytes, bytes]


def generate_instance(
    kind: str,
    lengths: tuple[int, int],
    alphabet: int = 3,
    seed: int = 0,
    similarity: int | None = None,
) -> Instance:
    """Uniform random instance, deterministic for a fixed seed.

    With ``similarity`` = k (seglcs only) the second text is the first with k
    symbol edits confined to its tail, so every per-budget answer stays
    within k of the text length.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown instance kind {kind!r}")
    if alphabet < 1 or alphabet > 256:
        raise ValueError(f"alphabet size must be in 1..256, got {alphabet}")
    if len(lengths) != 2 or any(n < 0 for n in lengths):
        raise ValueError(f"lengths must be two non-negative integers, got {lengths}")
    rng = random.Random(seed)
    base = 97 if alphabet <= 26 else 0

    def draw(n: int) -> bytes:
        return bytes(base + rng.randrange(alphabet) for _ in range(n))

    first = draw(lengths[0])
    if similarity is None:
        second = draw(lengths[1])
    else:
        if kind != "seglcs":
            raise ValueError("similarity control applies to seglcs instances")
        if similarity < 0 or lengths[1] != lengths[0]:
            raise ValueError("similarity needs equal lengths and k >= 0")
        edited = bytearray(first)
        tail = range(max(0, len(edited) - similarity), len(edited))
        # replacements avoid every displaced tail symbol, so no common string
        # can reach past the shared prefix and each per-budget answer is
        # exactly n - k
        displaced = {edited[pos] for pos in tail}
        allowed = [
            base + v for v in range(alphabet) if base + v not in displaced
        ]
        for pos in tail:
            if allowed:
                edited[pos] = rng.choice(allowed)
            elif alphabet > 1:
                shift = 1 + rng.randrange(alphabet - 1)
                edited[pos] = base + (edited[pos] - base + shift) % alphabet
        second = bytes(edited)
    return Instance(kind, (first, second))


@dataclass(frozen=True)
class Mismatch:
    kind: str
    texts: tuple[bytes, bytes]
    budgets: tuple[int, ...]
    algorithm: str
    expected: object
    got: object


@dataclass
class DifferentialReport:
    cases: int = 0
    checks: int = 0
    mismatches: list[Mismatch] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        return (
            f"cases={self.cases} checks={self.checks} "
            f"mismatches={len(self.mismatches)}"
        )


def _diagonal_text_off_by_one(t1: bytes, t2: bytes, f: int) -> int:
    # a deliberate fault: the diagonal solver never sees the last symbol of t1
    return seglcs.slcs_diagonal(t1[:-1], t2, f)


def faulty_solvers(fault: str) -> dict[str, SeglcsSolver]:
    """The seglcs solvers with the diagonal one replaced by a known fault,
    for validating that ``differential_run`` reports mismatches."""
    if fault not in FAULTS:
        raise ValueError(f"unknown fault mode {fault!r}")
    return {**SEGLCS_SOLVERS, "diagonal": _diagonal_text_off_by_one}


def differential_run(
    count: int,
    max_len: int = 10,
    alphabet: int = 3,
    seed: int = 0,
    seglcs_solvers: Mapping[str, SeglcsSolver] = SEGLCS_SOLVERS,
) -> DifferentialReport:
    """Compare every solver against its brute-force oracle on random inputs.

    Each case checks the matching family; the heavier common-subsequence
    families alternate between cases. ``seglcs_solvers`` maps a name to each
    solver checked on the seglcs cases.
    """
    rng = random.Random(seed)
    report = DifferentialReport(cases=count)

    def record(kind, texts, budgets, algorithm, expected, got):
        report.checks += 1
        if expected != got:
            report.mismatches.append(
                Mismatch(kind, texts, budgets, algorithm, expected, got)
            )

    for case in range(count):
        case_seed = rng.randrange(1 << 30)
        n_t = rng.randint(0, max_len)
        n_p = rng.randint(0, rng.randint(0, max_len))  # bias patterns short
        pair = generate_instance(
            "sege", (n_t, n_p), alphabet=alphabet, seed=case_seed
        ).texts
        t, p = pair
        truth = oracle.min_segments_bruteforce(t, p)
        record(
            "minsege", pair, (), "min_segments", truth, segmatch.min_segments(t, p)
        )
        for f in (1, 2, rng.randint(1, max_len + 2)):
            expected = truth is not None and truth <= f
            record("sege", pair, (f,), "dp", expected, segmatch.sege(t, p, f, "dp"))
            if f <= 2:
                record(
                    "sege", pair, (f,), "kmp2", expected, segmatch.sege(t, p, f, "kmp2")
                )

        if case % 2 == 0:
            inst = generate_instance(
                "seglcs",
                (rng.randint(0, max_len), rng.randint(0, max_len)),
                alphabet=alphabet,
                seed=case_seed + 1,
            )
            t1, t2 = inst.texts
            f = rng.randint(1, max(1, min(len(t1), len(t2)) + 2))
            expected = oracle.slcs_bruteforce(t1, t2, f)
            for name, solver in seglcs_solvers.items():
                record("seglcs", inst.texts, (f,), name, expected, solver(t1, t2, f))
        else:
            inst = generate_instance(
                "indseglcs",
                (rng.randint(0, max_len), rng.randint(0, max_len)),
                alphabet=alphabet,
                seed=case_seed + 2,
            )
            t1, t2 = inst.texts
            f1 = rng.randint(1, max(1, len(t1) // 2 + 2))
            f2 = rng.randint(1, max(1, len(t2) // 2 + 2))
            expected = oracle.indseglcs_bruteforce(t1, t2, f1, f2)
            record(
                "indseglcs", inst.texts, (f1, f2), "tables",
                expected, indseglcs(t1, t2, f1, f2),
            )
    return report


@dataclass(frozen=True)
class BenchRow:
    algorithm: str
    n1: int
    n2: int
    f: int
    ell: int
    wall_time: float
    cell_visits: int


def benchmark(
    sizes: list[int],
    f: int = 4,
    family: str = "similarity",
    edits: int = 2,
    alphabet: int = 8,
    seed: int = 0,
    reps: int = 3,
    algorithms: tuple[str, ...] = ("baseline", "diagonal"),
) -> list[BenchRow]:
    """Measure both solvers on one instance family; medians over ``reps``."""
    if family not in ("similarity", "uniform"):
        raise ValueError(f"unknown benchmark family {family!r}")
    for name in algorithms:
        if name not in SEGLCS_SOLVERS:
            raise ValueError(f"unknown algorithm {name!r}")
    rows = []
    for idx, n in enumerate(sorted(sizes)):
        inst = generate_instance(
            "seglcs",
            (n, n),
            alphabet=alphabet,
            seed=seed + idx,
            similarity=edits if family == "similarity" else None,
        )
        t1, t2 = inst.texts
        for name in algorithms:
            solver = SEGLCS_SOLVERS[name]
            times = []
            value = 0
            visits = 0
            for _ in range(max(1, reps)):
                stats = seglcs.SolveStats()
                started = time.perf_counter()
                value = solver(t1, t2, f, stats=stats)
                times.append(time.perf_counter() - started)
                visits = stats.cell_visits
            rows.append(
                BenchRow(name, n, n, f, value, statistics.median(times), visits)
            )
    rows.sort(key=lambda r: (r.algorithm, r.n1, r.n2, r.f))
    return rows


def rows_to_csv(rows: list[BenchRow]) -> str:
    """Fixed-order CSV with one header row."""
    lines = [",".join(CSV_COLUMNS)]
    for r in rows:
        lines.append(
            f"{r.algorithm},{r.n1},{r.n2},{r.f},{r.ell},"
            f"{r.wall_time:.6f},{r.cell_visits}"
        )
    return "\n".join(lines) + "\n"
