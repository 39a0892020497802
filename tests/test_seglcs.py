"""Tests for the two segmental-LCS solvers and witness reconstruction."""

import os
import random
import tracemalloc

import numpy as np
import pytest

from segsub import seglcs as seglcs_module
from segsub import segmatch
from segsub.core import ResourceLimitError, verify_embedding
from segsub.harness import generate_instance
from segsub.independent import indseglcs
from segsub.lce import LcsufIndex, lcsuf_matrix
from segsub.oracle import slcs_bruteforce
from segsub.seglcs import (
    SolveStats,
    diagonal_levels,
    slcs,
    slcs_baseline,
    slcs_diagonal,
    slcs_witness,
)

from helpers import (
    baseline_visits_reference,
    brute_lcsuf,
    chain_table,
    chain_table_reference,
    classic_lcs_len,
    diagonal_cells,
    drain_diagonal,
    lcsuf_query,
    longest_common_substring_len,
    random_text,
    seglcs_visit_counts,
    shortest_prefix_tables,
    table_fills,
    witness_reference,
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

# sparse diagonal tables as actually computed, level h's column diag holds
# the values for s = 1.. (the trailing infinity cell is stored too)
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
        # rows 1..8 fill 1, 2, 2, 2, 2, 3, 3, 3 levels of 8 cells each
        stats = SolveStats()
        slcs_baseline(T1, T2, 3, stats=stats)
        assert stats.cell_visits == baseline_visits_reference(T1, T2, 3) == 144

    @pytest.mark.parametrize("shape", [(300, 40), (40, 300), (129, 129), (1, 200), (200, 1)])
    def test_chain_layers_across_gather_blocks(self, shape):
        # the row fill over many short rows, a few long ones and tables of
        # one row or one column, on one to four symbols: every level of every
        # row equals the cell-by-cell table
        rng = random.Random(shape[0] * 1000 + shape[1])
        for alphabet in (1, 2, 4):
            t1, t2 = (bytes(97 + rng.randrange(alphabet) for _ in range(n)) for n in shape)
            layers = chain_table(t1, t2, 4)
            for h, want in enumerate(chain_table_reference(t1, t2, 4)):
                assert np.array_equal(layers[h], want), (alphabet, h)

    def test_row_fill_stops_below_budget_on_tail_edits(self):
        # texts that differ by two tail edits never start level 3, so the
        # rows stay two levels deep while f = 16 allows sixteen
        t1, t2 = generate_instance((60, 60), alphabet=8, seed=1, similarity=2)
        rows = [row.copy() for row in seglcs_module._table_rows(t1, t2, 16)]
        assert max(len(row) for row in rows) - 1 == 2
        layers = chain_table(t1, t2, 16)
        for h, want in enumerate(chain_table_reference(t1, t2, 16)):
            assert np.array_equal(layers[h], want), h

    def test_swapped_texts(self):
        # rows run over the shorter text whichever argument it is
        rng = random.Random(17)
        for _ in range(60):
            t1, t2 = random_text(rng, 12), random_text(rng, 25)
            f = rng.randint(1, 6)
            for a, b in ((t1, t2), (t2, t1)):
                length, seg, e1, e2 = slcs_witness(a, b, f)
                assert length == slcs_baseline(a, b, f) == slcs_baseline(t1, t2, f)
                assert verify_embedding(a, e1) and verify_embedding(b, e2), (a, b, f)


def test_modules_keep_the_names_segbench_patches():
    # segbench/tracing.py wraps these attributes on every traced run
    for module, name in (
        (seglcs_module, "LcsufIndex"),
        (seglcs_module, "lcsuf_matrix"),
        (segmatch, "min_segments"),
        (segmatch, "seg2_linear"),
    ):
        assert callable(getattr(module, name)), name


def test_lcsuf_matrix_matches_definition():
    rng = random.Random(15)
    for case in range(90):
        n1, n2 = rng.randint(0, 40), rng.randint(0, 40)
        t1 = bytes(97 + rng.randrange(3) for _ in range(n1))
        if case % 3 == 0:  # no symbol in common
            t2 = bytes(100 + rng.randrange(3) for _ in range(n2))
        elif case % 3 == 1:  # some symbols of t1 never occur in t2
            t2 = bytes(98 + rng.randrange(3) for _ in range(n2))
        else:
            t2 = bytes(97 + rng.randrange(3) for _ in range(n2))
        x = lcsuf_matrix(t1, t2)
        assert x.shape == (n1 + 1, n2 + 1) and x.dtype == np.int32
        want = [[brute_lcsuf(t1, t2, i, j) for j in range(n2 + 1)] for i in range(n1 + 1)]
        assert np.array_equal(x, want), (t1, t2)


def test_oversized_tables_refused_before_allocating():
    t1, t2 = b"ab" * 500_000, b"ba" * 500_000
    n = len(t1)
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    # the baseline keeps no rows, so its buffers grow linearly with the texts
    planned = seglcs_module._dense_bytes(n, n, 4, 0)
    assert seglcs_module._dense_bytes(2 * n, 2 * n, 4, 0) < 2 * planned
    assert planned < physical
    # the witness keeps all n + 1 rows at one bit per cell of its 5 levels:
    # about 0.6 TB for two 10**6-symbol texts
    witness = seglcs_module._dense_bytes(n, n, 4, n + 1)
    assert n * n * 5 // 8 < witness < n * n
    assert witness > physical
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="witness's .* GiB"):
            slcs_witness(t1, t2, 4)
        with pytest.raises(ResourceLimitError, match="lcsuf matrix .* GiB"):
            lcsuf_matrix(t1, t2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("slots", [2, 64])
def test_table_rows_step_by_zero_or_one(slots):
    # the witness keeps one bit per cell because every level of every row
    # starts at 0 and steps by 0 or 1 along j: C(i, h, j) <= C(i, h, j-1) + 1;
    # the last eight pairs are near copies of 260-300 symbols whose answers
    # pass the uint8 limit of 254, so their rows are widened at the end of a
    # ring, of the baseline's 2 slots or the witness's 64
    rng = random.Random(23)
    for case in range(328):
        alphabet = (1, 2, 4, 256)[case % 4]
        widens = case >= 320
        n = rng.randint(260, 300) if widens else rng.randint(0, 40)
        t1 = bytes(rng.randrange(alphabet) for _ in range(n))
        if case % 8 < 4 or widens:  # a near copy: up to three substitutions
            t2 = bytearray(t1)
            edits = min(len(t1), rng.randint(0, 3))
            for pos in rng.sample(range(len(t1)), edits):
                t2[pos] = rng.randrange(alphabet)
            t2 = bytes(t2)
        else:
            t2 = bytes(rng.randrange(alphabet) for _ in range(rng.randint(0, 40)))
        # a budget past the edits keeps the answer within 3 of n
        f = edits + 1 + rng.randint(0, 6) if widens else rng.randint(1, 10)
        for a, b in ((t1, t2), (t2, t1)):
            for row in seglcs_module._table_rows(a, b, f, slots):
                assert not row[:, 0].any(), (a, b, f)
                steps = np.diff(row, axis=1)
                assert ((steps == 0) | (steps == 1)).all(), (a, b, f)
            assert (row[-1, -1] >= 254) == widens == (row.dtype == np.int32), (a, b, f)


@pytest.mark.parametrize("f", [1, 2, 16])
def test_dense_solvers_across_the_uint8_limit(f):
    # the rows are uint8 until the end of the ring after which a cell could
    # reach 254, and int32 from then on: identical texts and two-edit copies
    # of 250-260 symbols have answers on both sides of 254, and every solver
    # agrees on them
    rng = random.Random(f"uint8-{f}")
    for n in range(250, 261):
        t = bytes(97 + rng.randrange(4) for _ in range(n))
        assert slcs_baseline(t, t, f) == slcs_diagonal(t, t, f) == n
        assert_witness(t, t, f, n)
        t1, t2 = _scattered_pair(rng, n, 2)
        want = slcs_diagonal(t1, t2, f)
        assert slcs_baseline(t1, t2, f) == want
        assert_witness(t1, t2, f, want)


def test_widened_rows_equal_the_diagonal_solver():
    # an n = 600 near copy whose answer is far above 254, so its rows are
    # widened to int32 at a ring's end: cells sampled on both sides of the
    # widening equal the diagonal solver's answer on the prefixes
    rng = random.Random(29)
    t1, t2 = _scattered_pair(rng, 600, 3)
    f = 4
    rows = [row.copy() for row in seglcs_module._table_rows(t1, t2, f)]
    assert rows[-1][-1, -1] == slcs_diagonal(t1, t2, f) > 254
    for _ in range(40):
        i, j, h = rng.randint(200, 600), rng.randint(200, 600), rng.randint(1, f)
        row = rows[i]
        assert row[min(h, len(row) - 1), j] == slcs_diagonal(t1[:i], t2[:j], h), (i, j, h)


@pytest.mark.parametrize(
    "similarity, widens", [(2, True), (None, False)], ids=["tail-edits", "uniform"]
)
def test_dense_peaks_within_the_plan(similarity, widens):
    # _dense_bytes plans int32 rows for the whole solve; the rows stay uint8
    # until the end of the ring after which a cell could reach 254, and the
    # widening to int32 must not push the traced peak past the plan
    n, f = 1000, 16
    t1, t2 = generate_instance((n, n), alphabet=4, seed=3, similarity=similarity)
    for solver, kept in ((slcs_baseline, 0), (slcs_witness, n + 1)):
        peak = _traced_peak(solver, t1, t2, f)
        assert peak <= seglcs_module._dense_bytes(n, n, f, kept), solver.__name__
    assert (slcs_baseline(t1, t2, f) >= 254) == widens


def test_witness_bits_stop_at_the_rows_tops():
    # the tail-edit pair's rows stop at level 2 of 16 and the uniform pair's
    # fill most levels; the witness keeps each ring's step bits at that
    # ring's height, so the tail-edit pair peaks lower, though only its rows
    # are widened to int32
    n, f = 1000, 16
    peaks = {}
    for name, similarity in (("tail-edit", 2), ("uniform", None)):
        t1, t2 = generate_instance((n, n), alphabet=4, seed=3, similarity=similarity)
        peaks[name] = _traced_peak(slcs_witness, t1, t2, f)
    assert peaks["tail-edit"] < peaks["uniform"], peaks


def _traced_peak(solver, *args) -> int:
    """The tracemalloc peak of one call, numpy buffers included."""
    tracemalloc.start()
    try:
        solver(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n2", [0, 1, 7, 8, 9, 63, 64, 65])
@pytest.mark.parametrize("n1", [63, 64, 65, 128])
def test_witness_across_byte_and_block_boundaries(n1, n2):
    # rows run over the shorter text and pack 8 cells of the longer one to a
    # byte, 64 rows to a block; unary texts step on every cell of the rows
    rng = random.Random(f"{n1}-{n2}")
    for alphabet in (1, 2):
        t1 = bytes(97 + rng.randrange(alphabet) for _ in range(n1))
        t2 = bytes(97 + rng.randrange(alphabet) for _ in range(n2))
        for f in sorted({1, 3, max(1, n2)}):
            for a, b in ((t1, t2), (t2, t1)):
                assert_witness(a, b, f, slcs_baseline(a, b, f))
                assert slcs_witness(a, b, f) == witness_reference(a, b, f)


def test_witness_takes_the_cell_by_cell_path():
    # the witness packs its step bits a ring of rows at a time and jumps
    # over runs of zero steps, yet returns exactly the cell-by-cell
    # traceback's witness: on short pairs over 1-5 and 256 symbols, a third
    # of them copies with up to three edits in the last quarter, in both
    # text orders; and on near copies of 250-300 symbols with up to eight
    # edits, whose rows are widened to int32 at the end of the witness's
    # 64-row ring
    rng = random.Random(41)
    for case in range(1000):
        alphabet = (1, 2, 3, 4, 5, 256)[case % 6]
        t1 = bytes(rng.randrange(alphabet) for _ in range(rng.randint(0, 80)))
        if case % 3:
            t2 = bytes(rng.randrange(alphabet) for _ in range(rng.randint(0, 80)))
        else:
            t2 = bytearray(t1)
            for _ in range(min(len(t1), rng.randint(0, 3))):
                t2[rng.randrange(len(t1) * 3 // 4, len(t1))] = rng.randrange(alphabet)
            t2 = bytes(t2)
        f = rng.randint(1, 12)
        for a, b in ((t1, t2), (t2, t1)):
            assert slcs_witness(a, b, f) == witness_reference(a, b, f), (a, b, f)
    firsts = []  # the first int32 row and its ring's slots, per pair that widens
    for n in range(250, 301, 2):
        t1 = bytes(97 + rng.randrange(4) for _ in range(n))
        edits = rng.randint(0, 8)
        t2 = _near_copy(rng, t1, edits, 4)
        f = edits + rng.randint(1, 4)
        assert slcs_witness(t1, t2, f) == witness_reference(t1, t2, f), (t1, t2, f)
        rows = enumerate(seglcs_module._table_rows(t1, t2, f, 64))
        first = next(((i, len(row.base)) for i, row in rows if row.dtype == np.int32), None)
        if first:
            firsts.append(first)
    # the witness finds a row's slot as its index modulo its ring's size
    assert len(firsts) >= 5, firsts
    assert all(i % 64 == 0 == i % slots for i, slots in firsts), firsts


def test_witness_peak_memory():
    # one bit per table cell: about 0.5 MB on dissimilar's pair size
    t1, t2 = generate_instance((600, 600), alphabet=4, seed=7)
    tracemalloc.start()
    try:
        slcs_witness(t1, t2, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_witness_plans_one_bit_per_cell(monkeypatch):
    # what the witness asks check_allocation for at n = 10,000, f = 16:
    # about 240 MB at one bit per table cell
    planned = {}

    class Planned(Exception):
        pass

    def plan(nbytes, what):
        planned[what] = nbytes
        raise Planned

    monkeypatch.setattr(seglcs_module, "check_allocation", plan)
    t1, t2 = generate_instance((10_000, 10_000), alphabet=4, seed=8)
    with pytest.raises(Planned):
        slcs_witness(t1, t2, 16)
    assert planned["the witness's step bits"] < 300 * 2**20


@pytest.mark.parametrize("f", [1, 3])
@pytest.mark.parametrize("t1, t2", [(b"", b"abc"), (b"abc", b""), (b"", b"")])
def test_empty_texts_through_every_entry_point(t1, t2, f):
    # an empty prefix is row 0 of every table, so no solver needs a branch
    # of its own for an empty text
    for solver in (slcs_baseline, slcs_diagonal, slcs):
        stats = SolveStats()
        assert solver(t1, t2, f, stats=stats) == 0
        assert stats == SolveStats()
    length, seg, e1, e2 = slcs_witness(t1, t2, f)
    assert length == 0 and seg.segments == (b"",)
    assert verify_embedding(t1, e1) and verify_embedding(t2, e2)
    assert drain_diagonal(t1, t2, f) == ([0], [[]])
    x = lcsuf_matrix(t1, t2)
    assert x.shape == (len(t1) + 1, len(t2) + 1) and not x.any()
    for family in ("count", "score"):
        assert indseglcs(t1, t2, f, f, force_family=family) == 0
        assert table_fills(t1, t2, f, f, family) == [0, 0, 0]


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

    def test_per_budget_answers(self):
        answers, _ = drain_diagonal(T1, T2, 3)
        assert answers == [3, 4, 5]

    def test_sparse_tables_cell_for_cell(self):
        _, levels = drain_diagonal(T1, T2, 3)
        for h, want in SPARSE_L.items():
            got = [col[1:] for col in levels[h - 1]]
            assert got == want, f"table {h}"

    def test_two_layer_retention(self):
        # a uniform pair whose answer grows at every budget, so no level
        # repeats the one below: a length-only solve holds two diagonals'
        # columns of each level, while a caller that keeps every yielded
        # level holds six whole levels
        t1, t2 = generate_instance((300, 300), alphabet=4, seed=1)
        peaks = []
        for solve in (slcs_diagonal, lambda *args: list(diagonal_levels(*args))):
            tracemalloc.start()
            try:
                result = solve(t1, t2, 6)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        assert [answer for answer, _ in result] == [7, 14, 20, 25, 30, 35]
        assert peaks[0] <= 0.6 * peaks[1], peaks

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
    def _stored(levels: list, inf: int, h: int, i: int, s: int) -> int:
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

    def test_ordering_inequalities_on_computed_cells(self):
        rng = random.Random(16)
        for _ in range(120):
            t1, t2 = random_text(rng, 12), random_text(rng, 12)
            if len(t1) > len(t2):
                t1, t2 = t2, t1
            f = rng.randint(1, 5)
            _, levels = drain_diagonal(t1, t2, f)
            inf = len(t2) + 1
            for h, i, s, value in diagonal_cells(levels):
                assert value <= self._stored(levels, inf, h, i - 1, s)
                assert value > self._stored(levels, inf, h, i - 1, s - 1)

    def test_cells_equal_definition(self):
        rng = random.Random(17)
        for _ in range(80):
            t1, t2 = random_text(rng, 10), random_text(rng, 10)
            if len(t1) > len(t2):
                t1, t2 = t2, t1
            f = rng.randint(1, 4)
            _, levels = drain_diagonal(t1, t2, f)
            full = shortest_prefix_tables(t1, t2, len(levels))
            for h, i, s, value in diagonal_cells(levels):
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
                            x = min(lcsuf_query(index, i, j), s)
                            prev = full[h - 1][i - x][s - x] if x <= s else inf
                            if j >= prev + x:
                                j_best = j
                                break
                        left = full[h][i - 1][s] if i >= 1 else inf
                        assert full[h][i][s] == min(left, j_best), (h, i, s)


def assert_witness(t1, t2, f, expected):
    """The witness has the expected length, at most f segments, and embeds
    into both texts."""
    length, seg, e1, e2 = slcs_witness(t1, t2, f)
    assert length == len(seg.pattern) == expected
    assert seg.segment_count <= f
    assert verify_embedding(t1, e1)
    assert verify_embedding(t2, e2)


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
                assert all(seg.segments)  # every piece comes from a match
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


def _scattered_pair(rng: random.Random, n: int, edits: int) -> tuple[bytes, bytes]:
    """An alphabet-8 text and a copy with ``edits`` substitutions spread
    over its whole length, so the long common pieces sit between them."""
    t1 = bytes(97 + rng.randrange(8) for _ in range(n))
    t2 = bytearray(t1)
    for pos in rng.sample(range(n), edits):
        t2[pos] = 97 + (t2[pos] - 97 + rng.randrange(1, 8)) % 8
    return t1, bytes(t2)


def _near_copy(rng: random.Random, text: bytes, edits: int, alphabet: int) -> bytes:
    """``text`` with ``edits`` substitutions at random positions, each by a
    random symbol of the alphabet (possibly the same one)."""
    copy = bytearray(text)
    for pos in rng.sample(range(len(text)), edits):
        copy[pos] = 97 + rng.randrange(alphabet)
    return bytes(copy)


@pytest.mark.parametrize(
    "kind, size", [("uniform", 2), ("uniform", 4), ("uniform", 8),
                   ("scattered", 3), ("scattered", 8)]
)
def test_above_oracle_cap(kind, size):
    # equal-length texts of 200-600 symbols, beyond the brute-force oracles
    # (uniform over ``size`` symbols, or ``size`` scattered substitutions):
    # one diagonal run answers every budget h <= f as the baseline does, and
    # its answers survive swapping the texts and reversing both
    rng = random.Random(f"{kind}-{size}")
    for _ in range(2):
        n = rng.randint(200, 600)
        if kind == "uniform":
            t1, t2 = (bytes(97 + rng.randrange(size) for _ in range(n)) for _ in range(2))
            f = rng.randint(2, 6)
        else:
            t1, t2 = _scattered_pair(rng, n, size)
            f = size + rng.randint(-1, 2)
        answers, _ = drain_diagonal(t1, t2, f)
        assert answers == [slcs_baseline(t1, t2, h) for h in range(1, f + 1)]
        assert slcs(t1, t2, f) == answers[-1]
        assert drain_diagonal(t2, t1, f)[0] == answers
        assert drain_diagonal(t1[::-1], t2[::-1], f)[0] == answers
        assert_witness(t1, t2, f, answers[-1])


@pytest.mark.parametrize("kind, size", [("uniform", 2), ("uniform", 4), ("scattered", 3)])
def test_degenerate_budgets_above_oracle_cap(kind, size):
    # texts of 200-300 symbols: for both solvers a saturated budget gives
    # classic LCS, f = 1 the longest common substring, and the answer is
    # monotone in f; the fixed-point stop is what makes saturation cheap
    rng = random.Random(f"degenerate-{kind}-{size}")
    n = rng.randint(200, 300)
    if kind == "uniform":
        t1, t2 = (bytes(97 + rng.randrange(size) for _ in range(n)) for _ in range(2))
    else:
        t1, t2 = _scattered_pair(rng, n, size)
    saturated = min(len(t1), len(t2))
    answers, _ = drain_diagonal(t1, t2, saturated)
    assert answers[-1] == classic_lcs_len(t1, t2)
    assert answers[0] == longest_common_substring_len(t1, t2)
    assert answers == sorted(answers)
    base = [slcs_baseline(t1, t2, f) for f in range(1, 9)]
    assert base == answers[:8]
    assert slcs_baseline(t1, t2, saturated) == answers[-1]
    # the deeper layers alias the fixed-point level, and the traceback walks them
    assert_witness(t1, t2, saturated, classic_lcs_len(t1, t2))


@pytest.mark.parametrize("family", ["count", "score"])
def test_independent_budgets_dominate_shared_above_oracle_cap(family):
    # a shared segmentation into f pieces is one candidate for independent
    # segmentations into f pieces each, so indseglcs(f, f) >= slcs(f); texts
    # of 20-40 symbols, uniform pairs and near copies
    rng = random.Random(f"dominate-{family}")
    for case in range(12):
        alphabet = rng.randint(2, 4)
        t1 = bytes(97 + rng.randrange(alphabet) for _ in range(rng.randint(20, 40)))
        if case % 2:
            t2 = _near_copy(rng, t1, rng.randint(1, 4), alphabet)
        else:
            t2 = bytes(97 + rng.randrange(alphabet) for _ in range(rng.randint(20, 40)))
        f = rng.randint(1, 6)
        shared = slcs_diagonal(t1, t2, f)
        got = indseglcs(t1, t2, f, f, force_family=family)
        assert got >= shared, (t1, t2, f)
        assert table_fills(t1, t2, f, f, family) == [got] * 3, (t1, t2, f)


class TestFixedPoint:
    """Budgets past the level fixed point, up to min(n1, n2) + 3."""

    def test_diagonal_cells_equal_definition(self):
        rng = random.Random(41)
        for _ in range(120):
            t1, t2 = random_text(rng, 10, alphabet=rng.choice((1, 2, 3))), random_text(rng, 10)
            short, long = sorted((t1, t2), key=len)
            if not short:
                continue
            f = rng.randint(1, len(short) + 3)
            answers, levels = drain_diagonal(t1, t2, f)
            assert len(answers) == len(levels) == min(f, len(short))
            full = shortest_prefix_tables(short, long, len(levels))
            for h, i, s, value in diagonal_cells(levels):
                assert value == full[h][i][s], (t1, t2, h, i, s)
            for h in range(1, len(levels) + 1):
                assert answers[h - 1] == max(
                    s for s in range(len(short) + 1) if full[h][len(short)][s] <= len(long)
                ), (t1, t2, h)

    def test_chain_layers_equal_reference(self):
        rng = random.Random(42)
        for _ in range(80):
            t1 = random_text(rng, 9, alphabet=rng.choice((1, 2, 3)))
            t2 = random_text(rng, 9, alphabet=rng.choice((1, 2, 3)))
            f = rng.randint(1, min(len(t1), len(t2)) + 3)
            layers = chain_table(t1, t2, f)
            want = chain_table_reference(t1, t2, f)
            assert len(layers) == len(want) == f + 1
            for h in range(f + 1):
                assert np.array_equal(layers[h], want[h]), (t1, t2, f, h)

    def test_tail_edits_stop_at_level_two(self):
        t1, t2 = generate_instance((300, 300), alphabet=8, seed=1, similarity=2)
        for solver in (slcs_baseline, slcs_diagonal):
            visits = {}
            for f in (2, 16):
                stats = SolveStats()
                assert solver(t1, t2, f, stats=stats) == 298
                visits[f] = stats.cell_visits
            assert visits[16] == visits[2], solver.__name__
        _, levels = drain_diagonal(t1, t2, 16)
        assert len(levels) == 16
        assert all(level is levels[1] for level in levels[2:])

    def test_visits_never_fall_with_budget(self):
        # the baseline and diagonal_levels, whose levels each stop at their
        # own cutoff, fill more cells at a larger budget; slcs_diagonal may
        # fill fewer, since a larger f can raise the answer and so cut more
        # diagonals than it adds levels, but it stays within the paper's bound
        rng = random.Random(43)
        for _ in range(60):
            t1, t2 = random_text(rng, 20), random_text(rng, 20)
            n1, n2 = sorted((len(t1), len(t2)))
            for solve in (slcs_baseline, drain_diagonal):
                visits = []
                for f in range(1, n1 + 4):
                    stats = SolveStats()
                    solve(t1, t2, f, stats)
                    visits.append(stats.cell_visits)
                assert visits == sorted(visits), (t1, t2, solve.__name__)
            for f in range(1, n1 + 4):
                stats = SolveStats()
                answer = slcs_diagonal(t1, t2, f, stats=stats)
                bound = max(1, min(f, n1)) * n2 * (n1 - answer + 1)
                assert stats.cell_visits <= bound, (t1, t2, f)

    def test_baseline_counts_filled_layers(self):
        # the reference fills every layer; the baseline fills a level from the
        # row after the first on which the level below differs from its own
        # predecessor, up to the clamped budget
        rng = random.Random(44)
        for _ in range(60):
            t1 = random_text(rng, 9, alphabet=rng.choice((1, 2, 3)))
            t2 = random_text(rng, 9, alphabet=rng.choice((1, 2, 3)))
            n1, n2 = len(t1), len(t2)
            if not (n1 and n2):
                continue
            f = rng.randint(1, min(n1, n2) + 3)
            clamped = min(f, n1, n2)
            want = chain_table_reference(t1, t2, clamped)
            stats = SolveStats()
            assert slcs_baseline(t1, t2, f, stats=stats) == want[clamped][n1][n2]
            assert stats.cell_visits == baseline_visits_reference(t1, t2, f), (t1, t2, f)


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


class TestVisitCounters:
    def test_counters_deterministic(self):
        a = seglcs_visit_counts([64, 128], seed=7)
        b = seglcs_visit_counts([64, 128], seed=7)
        assert a == b

    def test_visit_trends_at_small_scale(self):
        sizes = [100, 200, 400]
        counts = seglcs_visit_counts(sizes, f=4, seed=8)
        diag = [visits for _, _, visits in counts["diagonal"]]
        base = [visits for _, _, visits in counts["baseline"]]
        instances = [
            generate_instance((n, n), alphabet=8, seed=8 + idx, similarity=2)
            for idx, n in enumerate(sizes)
        ]
        assert base == [baseline_visits_reference(t1, t2, 4) for t1, t2 in instances]
        # level 2 starts on row 2 and level 3 never: (2n - 1) * n cells
        assert base == [(2 * n - 1) * n for n in sizes]
        assert 1.5 <= diag[1] / diag[0] <= 2.5
        assert 1.5 <= diag[2] / diag[1] <= 2.5

    def test_uniform_family_no_speedup_regime(self):
        # with unrelated texts the answer is far from n1 and the diagonal
        # solver's visits land in the same order of magnitude as the baseline
        counts = seglcs_visit_counts([60], f=2, similarity=None, alphabet=2, seed=9)
        (_, _, diag), = counts["diagonal"]
        (_, _, base), = counts["baseline"]
        assert diag >= base // 20


def _assert_counters_match_tables(
    answers: list, levels: list, stats: SolveStats, lean_stats: SolveStats,
    t1: bytes, t2: bytes,
) -> None:
    """Read the counters off the levels that ``drain_diagonal`` kept. Levels
    1 and 2 are filled from diagonal 0 and level h from the first diagonal
    where level h-1 differs from level h-2; before that its columns are the
    level below's. The scan pointer ends each filled column at min(last
    value, n2), a level's answer is its longest run of finite cells, and
    each level's scan stays within n2*(n1 - answer(h) + 1), with n1 <= n2.
    A length-only solve fills the same columns up to the diagonals that the
    top level reached, and takes no more lookups."""
    n1, n2 = sorted((len(t1), len(t2)))
    reached = len(levels[-1])
    visits = lean_visits = bound = start = 0
    for h, (answer, columns) in enumerate(zip(answers, levels)):
        if h and columns is levels[h - 1]:
            continue  # a level past the fixed point is not filled
        if h >= 2:
            pairs = enumerate(zip(levels[h - 1], levels[h - 2]))
            start = next((diag for diag, (a, b) in pairs if a != b), None)
            assert start is not None, h + 1  # else level h+1 is level h's list
        visits += sum(min(column[-1], n2) for column in columns[start:])
        lean_visits += sum(min(column[-1], n2) for column in columns[start:reached])
        finite = [len(c) - 1 - (c[-1] == n2 + 1) for c in columns]
        assert answer == max(finite, default=0), h + 1
        bound += n2 * (n1 - answer + 1)
    assert stats.cell_visits == visits
    assert stats.cell_visits <= bound
    assert lean_stats.cell_visits == lean_visits
    assert lean_stats.lcsuf_lookups <= stats.lcsuf_lookups


def test_diagonal_runs_match_shortest_prefix_tables():
    # every stored cell equals the table built from the definition, whichever
    # band of the scan decided it, and a length-only solve reaches the same
    # answer from a subset of the same columns
    rng = random.Random(31)
    for _ in range(200):
        t1, t2 = random_text(rng, 12), random_text(rng, 12)
        f = rng.randint(1, 5)
        stats, lean_stats = SolveStats(), SolveStats()
        answers, levels = drain_diagonal(t1, t2, f, stats)
        assert slcs_diagonal(t1, t2, f, stats=lean_stats) == answers[-1], (t1, t2, f)
        _assert_counters_match_tables(answers, levels, stats, lean_stats, t1, t2)
        short, long = sorted((t1, t2), key=len)
        if short:
            full = shortest_prefix_tables(short, long, len(levels))
            for h, i, s, value in diagonal_cells(levels):
                assert value == full[h][i][s], (t1, t2, h, i, s)


def test_near_copy_runs_match_shortest_prefix_tables():
    # near copies put long matches on the grid diagonals, where the column
    # leads and the lookup-free bands decide most candidates: every stored
    # cell still equals the definition, and a length-only solve agrees
    rng = random.Random(32)
    for _ in range(200):
        alphabet = rng.randint(2, 4)
        t1 = bytes(97 + rng.randrange(alphabet) for _ in range(rng.randint(1, 12)))
        t2 = _near_copy(rng, t1, min(len(t1), rng.randint(1, 3)), alphabet)
        f = rng.randint(1, 5)
        stats, lean_stats = SolveStats(), SolveStats()
        answers, levels = drain_diagonal(t1, t2, f, stats)
        assert slcs_diagonal(t1, t2, f, stats=lean_stats) == answers[-1], (t1, t2, f)
        _assert_counters_match_tables(answers, levels, stats, lean_stats, t1, t2)
        full = shortest_prefix_tables(t1, t2, len(levels))
        for h, i, s, value in diagonal_cells(levels):
            assert value == full[h][i][s], (t1, t2, h, i, s)


# A column's lead is its leading cells with L = s, written without a scan.
# One pair per source of the lead, each setting it on diagonal 1 at level h:
# (t1, t2, f, h, lead)
LEAD_PAIRS = {
    # level 1: t1[1:] is a prefix of t2, and diagonal 0 has no lead
    "common-prefix": (b"zabcd", b"abcdy", 1, 1, 4),
    # level 1: diagonal 0's lead "ab", and t1[1:] does not start with "a"
    "left-column": (b"abcde", b"abxyz", 1, 1, 2),
    # level 3: level 2's lead, which its scan found ("abcd" in two pieces of
    # "abxcd"), while diagonal 0 has only "ab"
    "level-below": (b"abxcd", b"abcdy", 3, 3, 4),
}


@pytest.mark.parametrize("case", LEAD_PAIRS)
def test_leads_match_shortest_prefix_tables(case):
    t1, t2, f, h, lead = LEAD_PAIRS[case]
    answers, levels = drain_diagonal(t1, t2, f)
    assert answers[-1] == slcs_baseline(t1, t2, f)
    column = levels[h - 1][1]
    assert column[: lead + 1] == list(range(lead + 1))
    assert len(column) == lead + 1 or column[lead + 1] > lead + 1
    full = shortest_prefix_tables(t1, t2, len(levels))
    for hh, i, s, value in diagonal_cells(levels):
        assert value == full[hh][i][s], (hh, i, s)


def test_columns_store_only_the_cells_past_their_lead():
    # a tail-edit near copy: every column's lead is the n - 2 symbols that
    # t1 and t2 share, so the solver keeps a few cells per column, and
    # diagonal_levels writes the lead's cells out in front of each tail
    n = 600
    t1, t2 = generate_instance((n, n), alphabet=8, seed=3, similarity=2)
    short, long, f, _ = seglcs_module._oriented(t1, t2, 4)
    _, filled = seglcs_module._run(short, long, f, None, True)
    answers = []
    for (answer, level), (_, pairs) in zip(diagonal_levels(t1, t2, 4), filled):
        answers.append(answer)
        assert len(level) == len(pairs)
        for column, (tail, lead) in zip(level, pairs):
            assert lead == n - 2 and len(tail) <= 2
            assert tail[:1] != [lead + 1]  # such a cell belongs to the lead
            assert column[: lead + 1] == list(range(lead + 1))
            assert column[lead + 1 :] == tail
    assert answers[-1] == slcs_baseline(t1, t2, 4) == n - 2


def test_common_prefix_lead_spares_a_lookup():
    # diagonal 1 of level 1 is t2 = "ab" against t1[1:] = "ab": a scan from
    # s = 1 takes one lcsuf lookup at s = 2, and the lead leaves none
    stats = SolveStats()
    assert slcs_diagonal(b"aab", b"aba", 1, stats=stats) == 2
    assert stats.lcsuf_lookups == 0


def test_scattered_edits_resume_the_scan_after_the_lead():
    # 1-3 substitutions at random positions end a column's lead mid-diagonal,
    # and the scan takes over from there: every stored cell still equals the
    # definition, and the answer equals the baseline's
    rng = random.Random(33)
    for _ in range(100):
        alphabet = rng.randint(2, 4)
        t1 = bytes(97 + rng.randrange(alphabet) for _ in range(rng.randint(4, 30)))
        t2 = _near_copy(rng, t1, rng.randint(1, 3), alphabet)
        f = rng.randint(1, 5)
        answers, levels = drain_diagonal(t1, t2, f)
        assert slcs_diagonal(t1, t2, f) == slcs_baseline(t1, t2, f) == answers[-1]
        full = shortest_prefix_tables(t1, t2, len(levels))
        for h, i, s, value in diagonal_cells(levels):
            assert value == full[h][i][s], (t1, t2, h, i, s)


def _uniform_tail_and_scattered_pairs(
    rng: random.Random, count: int, longest: int = 40
):
    """``count`` pairs of at most ``longest`` symbols over 1-4 symbols, in
    turn: uniform, up to three tail edits, and one to four substitutions at
    random positions."""
    for case in range(count):
        kind, n, alphabet = case % 3, rng.randint(1, longest), rng.randint(1, 4)
        lengths = (n, n if kind else rng.randint(0, longest))
        similarity = rng.randint(0, 3) if kind == 1 else None
        t1, t2 = generate_instance(
            lengths, alphabet=alphabet, seed=rng.randrange(1 << 30), similarity=similarity
        )
        if kind == 2:
            t2 = _near_copy(rng, t1, rng.randint(1, min(n, 4)), alphabet)
        yield t1, t2


def _lead(column: list[int]) -> int:
    """The last s of the longest prefix of ``column`` with column[s] == s."""
    lead = 0
    while lead + 1 < len(column) and column[lead + 1] == lead + 1:
        lead += 1
    return lead


def test_column_function_refills_every_stored_column():
    # _run only schedules the column function: given the tails past the
    # leads of a stored column's left and up columns, and those leads, it
    # returns that column's tail and lead
    rng = random.Random(34)
    for t1, t2 in _uniform_tail_and_scattered_pairs(rng, 150):
        f = rng.randint(1, 8)
        _, levels = drain_diagonal(t1, t2, f)
        short, long, _, _ = seglcs_module._oriented(t1, t2, f)
        columns = seglcs_module._Columns(short, long)
        for h, level in enumerate(levels, start=1):
            if h > 1 and level is levels[h - 2]:
                break  # past the fixed point every budget gets this list
            for diag, stored in enumerate(level):
                left = level[diag - 1] if diag else [0]
                up = levels[h - 2][diag] if h > 1 else [0]
                got = columns.column(h, diag, left[_lead(left) + 1 :], _lead(left),
                                     up[_lead(up) + 1 :], _lead(up))
                lead = _lead(stored)
                assert got == (stored[lead + 1 :], lead), (t1, t2, h, diag)


def test_prefix_lengths_rise_strictly_with_the_common_length():
    # L(h, i-1, s) > L(h, i-1, s-1): so the scan pointer, one past
    # L(h, i, s-1) <= L(h, i-1, s-1), never passes the left column's cell
    rng = random.Random(36)
    after_lead = 0
    for t1, t2 in _uniform_tail_and_scattered_pairs(rng, 300, longest=60):
        for _, level in diagonal_levels(t1, t2, rng.randint(1, 12)):
            for diag in range(1, len(level)):
                left, column = level[diag - 1], level[diag]
                for s in range(1, min(len(left), len(column) + 1)):
                    assert left[s] > column[s - 1], (t1, t2, diag, s)
                after_lead += _lead(column) + 1 < len(left)
    assert after_lead


def test_no_level_fills_more_diagonals_than_the_level_below():
    # _run reads column diag of level h-1 for every diagonal of level h
    rng = random.Random(35)
    for t1, t2 in _uniform_tail_and_scattered_pairs(rng, 300):
        _, levels = drain_diagonal(t1, t2, rng.randint(2, 12))
        for below, level in zip(levels, levels[1:]):
            assert len(level) <= len(below), (t1, t2)


def test_diagonal_levels_refuses_a_bad_budget_when_called():
    # the budget is refused before any column is filled
    with pytest.raises(ValueError):
        diagonal_levels(b"ab", b"ab", 0)


TAIL_EDITS = generate_instance((2000, 2000), alphabet=8, seed=1, similarity=2)
UNIFORM_150 = generate_instance((150, 150), alphabet=4, seed=1)


@pytest.mark.parametrize("f", [1, 4, 16])
def test_tail_edits_take_no_lcsuf_lookup(f):
    stats = SolveStats()
    assert slcs_diagonal(*TAIL_EDITS, f, stats=stats) == 1998
    assert stats.lcsuf_lookups == 0


@pytest.mark.parametrize("f", [1, 16])
def test_tail_edits_store_no_lead_cells(f):
    # every column's lead holds the 1,998 shared symbols and is never stored,
    # so a solve holds a few cells per column, about 5 KB; leads written out
    # as ints would take over 90 KB
    tracemalloc.start()
    try:
        assert slcs_diagonal(*TAIL_EDITS, f) == 1998
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 << 10, peak


def test_uniform_pair_takes_lcsuf_lookups():
    # only 3-gram hits below T(2) take a range minimum; on diagonal_levels'
    # levels of this pair, one per 2-gram hit below T(1) came to 4,648 and
    # the bands take 1,132
    stats = SolveStats()
    assert slcs_diagonal(*UNIFORM_150, 4, stats=stats) == 22
    assert stats.lcsuf_lookups == 1084


@pytest.mark.parametrize("f", [1, 4, 16])
def test_index_not_built_when_exact_tests_settle_every_lookup(monkeypatch, f):
    def refuse(*args):
        raise AssertionError("LcsufIndex built although no lookup needed it")

    monkeypatch.setattr(seglcs_module, "LcsufIndex", refuse)
    assert slcs_diagonal(*TAIL_EDITS, f) == 1998


def test_index_built_once_per_call_when_lookups_remain(monkeypatch):
    builds = []

    def counting(t1, t2):
        builds.append(1)
        return LcsufIndex(t1, t2)

    monkeypatch.setattr(seglcs_module, "LcsufIndex", counting)
    for f in (1, 4, 16):
        builds.clear()
        assert slcs_diagonal(*UNIFORM_150, f) == slcs_baseline(*UNIFORM_150, f)
        assert len(builds) == 1, f


# (kind, n, similarity, f) -> (answer, cell_visits); generate_instance with
# the default alphabet and seed 1
PINNED_VISITS = {
    ("similarity", 2000, 2, 1): (1998, 4000),
    ("similarity", 2000, 2, 4): (1998, 8000),
    ("similarity", 2000, 2, 16): (1998, 8000),
    ("similarity", 2000, 20, 16): (1992, 108000),
    ("uniform", 150, None, 4): (29, 72600),
}


@pytest.mark.parametrize(
    "case", PINNED_VISITS, ids=lambda case: "-".join(map(str, case))
)
def test_pinned_visit_counts(case):
    # the visit counter is a benchmark count, so it must repeat exactly
    _, n, similarity, f = case
    t1, t2 = generate_instance((n, n), seed=1, similarity=similarity)
    stats = SolveStats()
    answer = slcs_diagonal(t1, t2, f, stats=stats)
    assert (answer, stats.cell_visits) == PINNED_VISITS[case]


def test_diagonal_solver_meets_the_paper_bound():
    # result (3): the scan pointers visit at most f'*n2*(n1 - answer + 1)
    # positions, f' the clamped budget and n1 <= n2, on uniform pairs, tail
    # edits and scattered substitutions alike
    rng = random.Random(37)
    for t1, t2 in _uniform_tail_and_scattered_pairs(rng, 600, longest=60):
        f = rng.randint(1, 12)
        stats = SolveStats()
        answer = slcs_diagonal(t1, t2, f, stats=stats)
        assert answer == slcs_baseline(t1, t2, f) == slcs(t1, t2, f), (t1, t2, f)
        n1, n2 = sorted((len(t1), len(t2)))
        bound = max(1, min(f, n1)) * n2 * (n1 - answer + 1)
        assert stats.cell_visits <= bound, (t1, t2, f)


@pytest.mark.parametrize("pair, f, want", [
    ("tail-edit", 1, 1998), ("tail-edit", 4, 1998), ("tail-edit", 16, 1998),
    ("scattered", 9, 992),
])
def test_slcs_keeps_the_diagonal_solver_near_copies(monkeypatch, pair, f, want):
    # the answer is close to n, so the diagonal solver finishes within its
    # budget (a tail edit in 2 diagonals) and the baseline never runs
    def refuse(*args):
        raise AssertionError("slcs fell back to the baseline")

    if pair == "tail-edit":
        t1, t2 = generate_instance((2000, 2000), alphabet=8, seed=1, similarity=2)
    else:
        t1, t2 = _scattered_pair(random.Random(1), 1000, 8)
    monkeypatch.setattr(seglcs_module, "slcs_baseline", refuse)
    assert slcs(t1, t2, f) == want


@pytest.mark.parametrize("pair, f", [("uniform", 4), ("prefixes", 4), ("periodic", 3)])
def test_slcs_falls_back_to_the_baseline_far_from_copies(monkeypatch, pair, f):
    # the answer is far from n, so the diagonal solver's budget runs out and
    # the baseline answers, once; the counters hold both solvers' work
    t1, t2 = generate_instance((600, 600), alphabet=4, seed=1)
    if pair == "prefixes":
        t1, t2 = t1[:150], t2[:150]
    elif pair == "periodic":  # "ab" repeated, and a copy with 6 "c"s
        t1 = b"ab" * 1000
        t2 = bytearray(t1)
        for pos in random.Random(1).sample(range(2000), 6):
            t2[pos] = ord("c")
    answers = []

    def baseline(*args):
        answers.append(slcs_baseline(*args))
        return answers[-1]

    monkeypatch.setattr(seglcs_module, "slcs_baseline", baseline)
    stats, dense = SolveStats(), SolveStats()
    answer = slcs(t1, t2, f, stats)
    assert answers == [answer]
    slcs_baseline(t1, t2, f, dense)
    assert stats.cell_visits > dense.cell_visits


def test_scattered_edits_pinned_at_the_paper_bound():
    # 8 substitutions in 1,000 symbols: diagonal_levels runs level 1 to its
    # own cutoff, set by the longest common substring, 2,525,000 visits;
    # slcs_diagonal stops the levels together at 9 * 1000 * (1000 - 992 + 1)
    t1, t2 = _scattered_pair(random.Random(1), 1000, 8)
    stats = SolveStats()
    assert slcs_diagonal(t1, t2, 9, stats=stats) == 992 == slcs_baseline(t1, t2, 9)
    assert stats.cell_visits == 81000


def test_dump_format():
    _, levels = drain_diagonal(T1, T2, 3)
    cells = [(h, i - s, s, value if value < INF else "inf")
             for h, i, s, value in diagonal_cells(levels)]
    assert cells[0] == (1, 0, 1, 8)
    assert cells[1] == (1, 0, 2, "inf")
    assert (3, 2, 5, 8) in cells
    assert all(len(c) == 4 for c in cells)
