"""Tests for the two segmental-LCS solvers and witness reconstruction."""

import random

import pytest

from segsub.core import verify_embedding
from segsub.lce import LcsufIndex, lcsuf_matrix
from segsub.oracle import slcs_bruteforce
from segsub.seglcs import (
    DiagonalRun,
    SolveStats,
    chain_table,
    diagonal_run,
    dump_diagonal_tables,
    slcs_baseline,
    slcs_diagonal,
    slcs_witness,
)

from helpers import (
    classic_lcs_len,
    longest_common_substring_len,
    random_text,
    shortest_prefix_tables,
)

T1 = b"abcabbac"
T2 = b"bcbcbbca"
INF = len(T2) + 1  # sentinel as stored by the solver for this pair

# full shortest-prefix tables for the worked pair, rows s = 1..8, columns
# i = 1..8 (None = infinity)
FULL_L = {
    1: [
        [8, 1, 1, 1, 1, 1, 1, 1],
        [None, None, 2, 2, 2, 2, 2, 2],
        [None, None, None, 8, 8, 8, 8, 8],
    ],
    2: [
        [8, 1, 1, 1, 1, 1, 1, 1],
        [None, None, 2, 2, 2, 2, 2, 2],
        [None, None, None, 8, 3, 3, 3, 3],
        [None, None, None, None, None, 6, 6, 6],
    ],
    3: [
        [8, 1, 1, 1, 1, 1, 1, 1],
        [None, None, 2, 2, 2, 2, 2, 2],
        [None, None, None, 8, 3, 3, 3, 3],
        [None, None, None, None, None, 5, 5, 4],
        [None, None, None, None, None, None, 8, 7],
    ],
}

# sparse diagonal tables as actually computed, tables[h][diag] = values for
# s = 1.. (the trailing infinity cell is stored too)
SPARSE_L = {
    1: [
        [8, INF],
        [1, 2, 8, INF],
        [1, 2, 8, INF],
        [1, 2, 8, INF],
        [1, 2, 8, INF],
    ],
    2: [
        [8, INF],
        [1, 2, 8, INF],
        [1, 2, 3, 6, INF],
        [1, 2, 3, 6, INF],
    ],
    3: [
        [8, INF],
        [1, 2, 8, INF],
        [1, 2, 3, 5, 8, INF],
    ],
}


class TestBaseline:
    def test_per_budget_answers(self):
        assert [slcs_baseline(T1, T2, h) for h in (1, 2, 3)] == [3, 4, 5]

    def test_appendix_pair(self):
        assert slcs_baseline(b"abcxdexf", b"abycdef", 2) == 4

    def test_identity(self):
        assert slcs_baseline(b"abc", b"abc", 1) == 3

    def test_empty(self):
        assert slcs_baseline(b"", b"abc", 2) == 0
        assert slcs_baseline(b"abc", b"", 2) == 0

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            slcs_baseline(b"a", b"a", 0)

    def test_chain_layers_match_bruteforce_prefixes(self):
        rng = random.Random(12)
        for _ in range(25):
            t1, t2 = random_text(rng, 7), random_text(rng, 7)
            layers = chain_table(t1, t2, 3)
            for h in range(1, 4):
                for i in range(len(t1) + 1):
                    for j in range(len(t2) + 1):
                        assert layers[h][i][j] == slcs_bruteforce(
                            t1[:i], t2[:j], h
                        )

    def test_visit_counter(self):
        stats = SolveStats()
        slcs_baseline(T1, T2, 3, stats=stats)
        assert stats.cell_visits == 3 * 8 * 8


class TestFullShortestPrefixTable:
    def test_worked_example_table(self):
        tables = shortest_prefix_tables(T1, T2, 3)
        inf = len(T2) + 1
        for h, rows in FULL_L.items():
            for s, row in enumerate(rows, start=1):
                for i, want in enumerate(row, start=1):
                    got = tables[h][i][s]
                    assert got == (inf if want is None else want), (h, i, s)
            # all deeper rows are infinite
            for s in range(len(rows) + 1, len(T1) + 1):
                for i in range(1, len(T1) + 1):
                    assert tables[h][i][s] == inf


class TestDiagonal:
    def test_worked_example_answer(self):
        assert slcs_diagonal(T1, T2, 3) == 5

    def test_per_budget_max_v_idx(self):
        run = diagonal_run(T1, T2, 3, keep_tables=True)
        assert run.max_v_idx[1:] == [3, 4, 5]

    def test_sparse_tables_cell_for_cell(self):
        run = diagonal_run(T1, T2, 3, keep_tables=True)
        for h, want in SPARSE_L.items():
            got = [col[1:] for col in run.tables[h]]
            assert got == want, f"table {h}"

    def test_two_layer_retention(self):
        run = diagonal_run(T1, T2, 3)
        assert run.tables[1] is None
        assert run.tables[2] is not None
        assert run.tables[3] is not None

    def test_swaps_longer_first_argument(self):
        assert slcs_diagonal(b"abycdef", b"abcxdexf", 2) == 4
        assert slcs_diagonal(b"abcxdexf", b"abycdef", 2) == 4

    def test_single_symbol(self):
        assert slcs_diagonal(b"a", b"a", 1) == 1

    def test_empty(self):
        assert slcs_diagonal(b"", b"", 1) == 0
        assert slcs_diagonal(b"", b"abc", 2) == 0

    def test_matches_baseline_random(self):
        rng = random.Random(13)
        for _ in range(150):
            t1 = random_text(rng, 60, alphabet=rng.choice((2, 3, 5)))
            t2 = random_text(rng, 60, alphabet=3)
            f = rng.randint(1, 8)
            assert slcs_diagonal(t1, t2, f) == slcs_baseline(t1, t2, f)

    def test_matches_bruteforce_random(self):
        rng = random.Random(14)
        for _ in range(250):
            t1, t2 = random_text(rng, 9), random_text(rng, 9)
            f = rng.randint(1, 6)
            assert slcs_diagonal(t1, t2, f) == slcs_bruteforce(t1, t2, f)


class TestDiagonalInvariants:
    @staticmethod
    def _stored(run: DiagonalRun, h: int, i: int, s: int) -> int:
        if s == 0:
            return 0
        if h == 0 or i < s:
            return run.infinity
        level = run.tables[h]
        diag = i - s
        if diag >= len(level):
            return run.infinity
        column = level[diag]
        return column[s] if s < len(column) else run.infinity

    def test_ordering_inequalities_on_computed_cells(self):
        rng = random.Random(16)
        for _ in range(120):
            t1, t2 = random_text(rng, 12), random_text(rng, 12)
            if len(t1) > len(t2):
                t1, t2 = t2, t1
            f = rng.randint(1, 5)
            run = diagonal_run(t1, t2, f, keep_tables=True)
            for h, i, s, value in run.cells():
                assert value <= self._stored(run, h, i - 1, s)
                assert value > self._stored(run, h, i - 1, s - 1)

    def test_cells_equal_definition(self):
        rng = random.Random(17)
        for _ in range(80):
            t1, t2 = random_text(rng, 10), random_text(rng, 10)
            if len(t1) > len(t2):
                t1, t2 = t2, t1
            f = rng.randint(1, 4)
            run = diagonal_run(t1, t2, f, keep_tables=True)
            full = shortest_prefix_tables(t1, t2, run.f)
            for h, i, s, value in run.cells():
                assert value == full[h][i][s], (t1, t2, h, i, s)

    def test_recurrence_on_exhaustive_tables(self):
        rng = random.Random(18)
        for _ in range(40):
            t1, t2 = random_text(rng, 8), random_text(rng, 8)
            if len(t1) > len(t2):
                t1, t2 = t2, t1
            n1, n2 = len(t1), len(t2)
            if n1 == 0:
                continue
            f = rng.randint(1, 4)
            full = shortest_prefix_tables(t1, t2, f)
            inf = n2 + 1
            index = LcsufIndex(t1, t2)
            for h in range(1, f + 1):
                for i in range(1, n1 + 1):
                    for s in range(1, n1 + 1):
                        j_best = inf
                        for j in range(1, n2 + 1):
                            x = min(index.query(i, j), s)
                            prev = full[h - 1][i - x][s - x] if x <= s else inf
                            if j >= prev + x:
                                j_best = j
                                break
                        left = full[h][i - 1][s] if i >= 1 else inf
                        assert full[h][i][s] == min(left, j_best), (h, i, s)


class TestWitness:
    def test_appendix_witness(self):
        length, seg, e1, e2 = slcs_witness(b"abcxdexf", b"abycdef", 2)
        assert length == 4
        assert seg.segment_count <= 2
        assert len(seg.pattern) == 4
        assert verify_embedding(b"abcxdexf", e1)
        assert verify_embedding(b"abycdef", e2)

    def test_identity(self):
        length, seg, e1, e2 = slcs_witness(b"abc", b"abc", 1)
        assert length == 3
        assert seg.segments == (b"abc",)
        assert e1.starts == (1,)
        assert e2.starts == (1,)

    def test_empty_answer(self):
        length, seg, e1, e2 = slcs_witness(b"aa", b"bb", 2)
        assert length == 0
        assert seg.pattern == b""
        assert verify_embedding(b"aa", e1)
        assert verify_embedding(b"bb", e2)

    def test_random_witnesses_verify(self):
        rng = random.Random(19)
        for _ in range(300):
            t1, t2 = random_text(rng, 10), random_text(rng, 10)
            f = rng.randint(1, 5)
            length, seg, e1, e2 = slcs_witness(t1, t2, f)
            assert length == slcs_bruteforce(t1, t2, f)
            assert len(seg.pattern) == length
            if length:
                assert seg.segment_count <= f
            assert verify_embedding(t1, e1)
            assert verify_embedding(t2, e2)


class TestDegenerateBudgets:
    def test_monotone_in_budget(self):
        rng = random.Random(20)
        for _ in range(60):
            t1, t2 = random_text(rng, 20), random_text(rng, 20)
            values = [slcs_diagonal(t1, t2, f) for f in range(1, 8)]
            assert values == sorted(values)
            assert values == [slcs_baseline(t1, t2, f) for f in range(1, 8)]

    def test_single_segment_is_common_substring(self):
        rng = random.Random(21)
        for _ in range(150):
            t1, t2 = random_text(rng, 25), random_text(rng, 25)
            want = longest_common_substring_len(t1, t2)
            assert slcs_baseline(t1, t2, 1) == want
            assert slcs_diagonal(t1, t2, 1) == want
            assert int(lcsuf_matrix(t1, t2).max()) == want

    def test_saturated_budget_is_classic_lcs(self):
        rng = random.Random(22)
        for _ in range(150):
            t1, t2 = random_text(rng, 25), random_text(rng, 25)
            f = max(1, min(len(t1), len(t2)))
            want = classic_lcs_len(t1, t2)
            assert slcs_baseline(t1, t2, f) == want
            assert slcs_diagonal(t1, t2, f) == want
            # any larger budget is clamped to the same answer
            assert slcs_baseline(t1, t2, f + 5) == want


class TestInstrumentation:
    def test_visits_bounded_by_theorem_form(self):
        # on near-identical pairs the visit counter stays within
        # c * f * n2 * (n1 - ell + 1)
        rng = random.Random(23)
        for n in (80, 200, 400):
            base = bytes(97 + rng.randrange(4) for _ in range(n))
            edited = bytearray(base)
            edited[-1] = 97 + (edited[-1] - 97 + 1) % 4
            for f in (2, 4):
                stats = SolveStats()
                ell = slcs_diagonal(base, bytes(edited), f, stats=stats)
                assert n - ell <= 1
                assert stats.cell_visits <= 3 * f * n * (n - ell + 1)

    def test_identical_texts_visits_linear(self):
        stats = SolveStats()
        assert slcs_diagonal(b"ab" * 100, b"ab" * 100, 1, stats=stats) == 200
        assert stats.cell_visits <= 2 * 200


def test_dump_format():
    run = diagonal_run(T1, T2, 3, keep_tables=True)
    lines = dump_diagonal_tables(run).splitlines()
    assert lines[0] == "1 0 1 8"
    assert lines[1] == "1 0 2 inf"
    assert "3 2 5 8" in lines
    parsed = [line.split() for line in lines]
    assert all(len(p) == 4 for p in parsed)
