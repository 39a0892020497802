"""Acceptance suite: one pass/fail line per criterion.

Run `pytest tests/test_acceptance.py -v -s` to see the lines as they print;
without -s pytest shows them for failing criteria only.
"""

import contextlib
import itertools
import random
import time

from segsub.harness import differential_run
from segsub.indseglcs import indseglcs
from segsub.lce import LcsufIndex, lcsuf_matrix
from segsub.oracle import min_segments_bruteforce
from segsub.reduction import build_episode_reduction, check_reduction_equivalence
from segsub.segmatch import min_segments, seg2_linear, sege
from segsub.seglcs import slcs_baseline, slcs_diagonal

from helpers import (
    classic_lcs_len,
    compute_lpf,
    compute_lsf,
    diagonal_cells,
    drain_diagonal,
    first_ends_by_find,
    first_reach,
    lcsuf_query,
    llpf_from_first_ends,
    random_text,
    seglcs_visit_counts,
    shortest_prefix_tables,
)
from test_seglcs import FULL_L, SPARSE_L


@contextlib.contextmanager
def criterion(label: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"{label}: FAIL ({time.perf_counter() - started:.1f}s)")
        raise
    print(f"{label}: PASS ({time.perf_counter() - started:.1f}s)")


def test_criterion_1_golden_table_1():
    with criterion("C1 golden border arrays"):
        started = time.perf_counter()
        t = b"baacababbabcaacaabcba"
        p = b"abbabaca"
        lpf = [0, 1, 1, 0, 1, 2, 1, 2, 3, 4, 5, 0, 1, 1, 0, 1, 1, 2, 0, 0, 1]
        lsf = [0, 1, 3, 2, 1, 0, 1, 0, 0, 1, 0, 2, 1, 3, 2, 1, 1, 0, 0, 0, 1]
        llpf = [0, 1, 1, 1, 1, 2, 2, 2, 3, 4, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5]
        assert compute_lpf(t, p) == lpf
        assert compute_lsf(t, p) == lsf
        # the first ends are the first-reach positions of the golden LLPF
        # and of the golden LSF read right to left
        head = first_ends_by_find(t, p)
        assert head == [0, 2, 6, 9, 10, 11, 22, 22, 22]
        assert head == first_reach(llpf, len(p))
        assert llpf_from_first_ends(head, len(t)) == llpf
        tail = first_ends_by_find(t[::-1], p[::-1])
        assert tail == [0, 1, 7, 8, 22, 22, 22, 22, 22]
        assert tail == first_reach(lsf[::-1], len(p))
        assert seg2_linear(t, p) is True
        assert min_segments(t, p) == 2
        assert time.perf_counter() - started < 1.0


def test_criterion_2_golden_tables_2_and_3():
    with criterion("C2 golden prefix tables"):
        t1, t2 = b"abcabbac", b"bcbcbbca"
        assert slcs_baseline(t1, t2, 3) == 5
        assert slcs_diagonal(t1, t2, 3) == 5
        assert [slcs_baseline(t1, t2, h) for h in (1, 2, 3)] == [3, 4, 5]
        answers, levels = drain_diagonal(t1, t2, 3)
        assert answers == [3, 4, 5]
        # sparse cells, infinity included, cell for cell
        for h, want in SPARSE_L.items():
            assert [col[1:] for col in levels[h - 1]] == want
        # the full tables derived from the definition agree with the source
        full = shortest_prefix_tables(t1, t2, 3)
        inf = len(t2) + 1
        for h, rows in FULL_L.items():
            for s, row in enumerate(rows, start=1):
                for i, want in enumerate(row, start=1):
                    assert full[h][i][s] == (inf if want is None else want)


def test_criterion_3_golden_reduction_example():
    with criterion("C3 golden reduction instance"):
        t_out, p_out, f = build_episode_reduction(b"0101", b"00", 3)
        assert t_out == b"$0$0$0$0$0$0$$0$$1$$0$$1$$0$0$0$0$0$0$"
        assert p_out == b"$$$$$$$$00$$$$$$$$"
        assert f == 13
        assert sege(t_out, p_out, 13) is True
        assert sege(t_out, p_out, 12) is False
        assert min_segments(t_out, p_out) == 13
        assert min_segments_bruteforce(t_out, p_out, limit=len(t_out)) == 13


def test_criterion_4_appendix_examples():
    with criterion("C4 appendix example values"):
        assert slcs_baseline(b"abcxdexf", b"abycdef", 2) == 4
        assert slcs_diagonal(b"abcxdexf", b"abycdef", 2) == 4
        assert indseglcs(b"abcxdexf", b"abycdef", 2, 2) == 5
        assert indseglcs(b"abcxdexf", b"abycdef", 3, 2) == 6
        assert indseglcs(b"abac", b"acbc", 2, 2) == 3


def test_criterion_5_oracle_equivalence():
    with criterion("C5 oracle equivalence"):
        started = time.perf_counter()
        report = differential_run(10_500, max_len=10, alphabet=3, seed=20240521)
        assert report.cases >= 10_000
        assert report.ok, report.mismatches[:5]
        # exhaustive reduction sweep
        for n in range(1, 7):
            for t_bits in itertools.product("01", repeat=n):
                t = "".join(t_bits).encode()
                for m in range(1, 5):
                    for p_bits in itertools.product("01", repeat=m):
                        p = "".join(p_bits).encode()
                        for h in range(1, n + 1):
                            assert check_reduction_equivalence(t, p, h), (t, p, h)
        assert time.perf_counter() - started < 300


def test_criterion_6_degenerate_budgets():
    with criterion("C6 degenerate budget identities"):
        rng = random.Random(60)
        for _ in range(1000):
            t1 = random_text(rng, 60, alphabet=rng.choice((2, 3, 4)))
            t2 = random_text(rng, 60, alphabet=3)
            substring = int(lcsuf_matrix(t1, t2).max())
            assert slcs_baseline(t1, t2, 1) == substring
            assert slcs_diagonal(t1, t2, 1) == substring
            lcs = classic_lcs_len(t1, t2)
            f_max = max(1, min(len(t1), len(t2)))
            assert slcs_baseline(t1, t2, f_max) == lcs
            assert slcs_diagonal(t1, t2, f_max) == lcs
            f1 = max(1, (len(t1) + 1) // 2)
            f2 = max(1, (len(t2) + 1) // 2)
            assert indseglcs(t1, t2, f1, f2) == lcs


def test_criterion_7_invariant_suite():
    with criterion("C7 invariant suite"):
        rng = random.Random(70)

        def stored(levels, inf, h, i, s):
            if s == 0:
                return 0
            if h == 0 or i < s:
                return inf
            level = levels[h - 1]
            diag = i - s
            if diag >= len(level):
                return inf
            column = level[diag]
            return column[s] if s < len(column) else inf

        # ordering inequalities on every computed diagonal cell
        for _ in range(150):
            t1, t2 = random_text(rng, 14), random_text(rng, 14)
            if len(t1) > len(t2):
                t1, t2 = t2, t1
            _, levels = drain_diagonal(t1, t2, rng.randint(1, 6))
            inf = len(t2) + 1
            for h, i, s, value in diagonal_cells(levels):
                assert value <= stored(levels, inf, h, i - 1, s)
                assert value > stored(levels, inf, h, i - 1, s - 1)

        # recurrence identity on exhaustively computed tables
        for _ in range(60):
            t1, t2 = random_text(rng, 12), random_text(rng, 12)
            if len(t1) > len(t2):
                t1, t2 = t2, t1
            n1, n2 = len(t1), len(t2)
            if n1 == 0:
                continue
            f = rng.randint(1, 5)
            full = shortest_prefix_tables(t1, t2, f)
            inf = n2 + 1
            index = LcsufIndex(t1, t2)
            for h in range(1, f + 1):
                for i in range(1, n1 + 1):
                    for s in range(1, n1 + 1):
                        j_best = inf
                        for j in range(1, n2 + 1):
                            x = min(lcsuf_query(index, i, j), s)
                            if j >= full[h - 1][i - x][s - x] + x:
                                j_best = j
                                break
                        assert full[h][i][s] == min(full[h][i - 1][s], j_best)

        # running-maximum prefix array is monotone
        for _ in range(200):
            t, p = random_text(rng, 20), random_text(rng, 6)
            rebuilt = llpf_from_first_ends(first_ends_by_find(t, p), len(t))
            assert all(a <= b for a, b in zip(rebuilt, rebuilt[1:]))
            needed = min_segments(t, p)
            assert seg2_linear(t, p) == (needed is not None and needed <= 2)

        # the suffix-array index agrees with the dense lcsuf table, two
        # independent constructions, on full query grids up to length 200
        sizes = [(200, 200), (200, 37), (1, 200), (0, 50)]
        sizes += [(rng.randint(0, 200), rng.randint(0, 200)) for _ in range(4)]
        for n1, n2 in sizes:
            t1 = bytes(97 + rng.randrange(3) for _ in range(n1))
            t2 = bytes(97 + rng.randrange(3) for _ in range(n2))
            index = LcsufIndex(t1, t2)
            dense = lcsuf_matrix(t1, t2)
            for i in range(n1 + 1):
                for j in range(n2 + 1):
                    assert lcsuf_query(index, i, j) == dense[i, j]


def test_criterion_8_complexity_trend():
    with criterion("C8 machine-independent complexity trend"):
        started = time.perf_counter()
        counts = seglcs_visit_counts([1000, 2000, 4000, 8000], f=4, seed=80)
        for n, ell, _ in counts["diagonal"]:
            assert n - ell <= 2
        for (_, _, prev), (_, _, cur) in itertools.pairwise(counts["diagonal"]):
            ratio = cur / prev
            assert 2 / 1.5 <= ratio <= 2 * 1.5, f"diagonal ratio {ratio}"
        for (_, _, prev), (_, _, cur) in itertools.pairwise(counts["baseline"]):
            ratio = cur / prev
            assert 4 / 1.5 <= ratio <= 4 * 1.5, f"baseline ratio {ratio}"
        assert time.perf_counter() - started < 120
