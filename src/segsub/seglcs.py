"""Two solvers for the segmental LCS length, plus witness reconstruction.

``slcs_baseline`` fills the prefix table C(i, h, j) in O(f*n1*n2) time, one
row of the shorter text at a time with every level in the row, so it keeps
two rows, O(f*n2) space. A match-run array carried with the row stands in
for the common-suffix term x + C(i-x, h-1, j-x), so a row costs four numpy
calls over all its levels, with no lcsuf table. ``slcs_witness`` keeps every
row at one bit per cell and traces a witness back through them: along j,
adjacent cells of a row differ by 0 or 1, as in bit-vector LCS (Allison and
Dix 1986; Hyyrö 2004), so a row's step bits hold it whole, and a cell is the
popcount of the steps before it.

``diagonal_levels`` fills sparse shortest-prefix tables L(i, s, h) one
diagonal (i - s = const) at a time with a non-resetting scan pointer over
the longer text, skipping whole diagonals that can no longer improve the
answer; when the solution is long it touches only a sliver of each table.
It is a generator: it yields each level with the answer at its budget and
keeps only the level below the one it fills. ``slcs_diagonal`` drains it
for the last answer; the CLI's table dump keeps every level. Three exact
tests settle most of its lcsuf lookups, one of them a match carried along
each grid diagonal, and the ``LcsufIndex`` is built only at the first
lookup they leave, so similar texts often need no index at all.

Since L(i, s, h) >= s, the cells with L = s form a prefix of each diagonal,
its lead, and the diagonal solver scans only the cells after it, like the
snakes of Myers' O(ND) diff; ``_Columns.column`` gives the lead's bounds.
On texts that share long runs most cells lie in leads, and a level at its
fixed point shares most cells with the level below.

Both solvers stop at the level fixed point. Level h is the same function of
level h-1 for every h, so while a level equals the one below it, every deeper
level equals it too. The baseline applies this row by row: level h+1 is
filled only from the row after the first on which level h differs from
level h-1. The diagonal solver applies it to whole levels: it yields the
level it repeats for every deeper budget. The work counters count only
filled levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .core import Embedding, Segmentation, as_text, check_allocation, check_budget
# segbench traces the calls into lce by patching both names on this module
from .lce import LcsufIndex, lcsuf_matrix  # noqa: F401


@dataclass
class SolveStats:
    """Machine-independent work counters filled in by the solvers.

    ``cell_visits`` counts the table cells a solver filled (for the baseline,
    each row's filled levels times the longer text's length; for the diagonal
    solver, the scan positions it stepped over, a column's lead included:
    per filled column, the scan pointer's final position, min(last value,
    n2)); ``lcsuf_lookups`` counts the lcsuf range minima the diagonal solver
    took, which no exact test settled.
    """

    cell_visits: int = 0
    lcsuf_lookups: int = 0


def _oriented(
    t1: bytes | str, t2: bytes | str, f: int
) -> tuple[bytes, bytes, int, bool]:
    """Check the budget and return (shorter text, longer text, clamped f,
    whether the texts were swapped)."""
    check_budget(f)
    t1, t2 = as_text(t1), as_text(t2)
    swapped = len(t1) > len(t2)
    if swapped:
        t1, t2 = t2, t1
    # a shared segmentation never needs more segments than the common string
    # has characters, and that is capped by the shorter text
    return t1, t2, max(1, min(f, len(t1))), swapped


def _table_rows(t1: bytes, t2: bytes, f: int) -> Iterator[np.ndarray]:
    """Yield the prefix table C(i, h, j) one row of t1 at a time: row i is an
    array of shape (top_i + 1, n2 + 1) holding levels h = 0..top_i over
    j = 0..n2. Every level above top_i equals level top_i on row i.

    A match-run array Z rides along with the row: Z(i, h, j) is
    max(C(i-1, h-1, j-1), Z(i-1, h, j-1)) + 1 where t1[i] == t2[j], which is
    the largest x + C(i-x, h-1, j-x) over 1 <= x <= lcsuf(i, j). At a
    mismatch a bump of -(n1 + n2 + 2) replaces the +1, so Z falls below every
    C and no max ever picks it. Row i of level h is then the running maximum
    along j of max(C(i-1, h, .), Z(i, h, .)).

    ``top`` is the lowest level that has equalled the level below it on every
    row so far; the levels above it equal it there and are not filled. When
    row i's level ``top`` differs from level top-1, level top+1 starts on row
    i+1 from level top's row i, up to level f. Its Z there needs no copy: it
    would be Z(i, top, .), which never exceeds C(i, top, .), the level below
    level top+1; the zeros and column-0 misses that its buffer holds serve
    as well.
    """
    n1, n2 = len(t1), len(t2)
    w = n2 + 1
    yield np.zeros((1, w), dtype=np.int32)  # row 0 is zero on every level
    # Z is one flat buffer, level after level, so that its cell (h, j) reads
    # C's cell (h-1, j-1) and Z's cell (h, j-1) of the row above w+1 and 1
    # places earlier. A fill writes the top*w cells from (1, 1) on: each
    # level's j = 1..n2, then column 0 of the level above, whose bump is a
    # miss so that it stays below every C. Cell (1, 0) is never written, and
    # a spare cell past level f takes the end of the last fill.
    miss = -(n1 + n2 + 2)
    b = np.frombuffer(t2, dtype=np.uint8)
    bumps = {
        c: np.where(np.append(b == c, False), np.int32(1), np.int32(miss))
        for c in set(t1)
    }
    z, z_next = np.zeros((2, (f + 1) * w + 1), dtype=np.int32)
    row = np.zeros((2, w), dtype=np.int32)  # level 1 starts on row 1
    top = 1
    for c in t1:
        size = top * w
        fill = z_next[w + 1 : w + 1 + size]
        np.maximum(row.ravel()[:size], z[w : w + size], out=fill)
        block = fill.reshape(top, w)
        block += bumps[c]
        row = np.maximum(row, z_next[: size + w].reshape(top + 1, w))
        np.maximum.accumulate(row[1:], axis=1, out=row[1:])
        yield row
        z, z_next = z_next, z
        if top < f and not np.array_equal(row[top], row[top - 1]):
            row = np.vstack((row, row[top]))
            top += 1


_BLOCK = 64  # rows of step bits that the witness packs at a time


def _dense_bytes(n_short: int, n_long: int, f: int, kept: int) -> int:
    """Bytes that a dense solve allocates when it keeps ``kept`` table rows
    at one bit per cell. The fill holds two rows and two Z buffers of at
    most f+1 int32 levels over the longer text, one bump per symbol of the
    shorter text and the mask of the fixed-point test. The kept rows take
    one packed bit per cell, filled through a block of up to ``_BLOCK`` rows
    of one bool per cell and its packed copy."""
    width = n_long + 1
    symbols = min(n_short, 256)
    fill = 4 * width * ((f + 1) * 4 + symbols) + width
    block = min(_BLOCK, kept)
    packed = (kept + block) * (f + 1) * ((n_long + 7) // 8)
    return fill + packed + block * (f + 1) * n_long


def slcs_baseline(
    t1: bytes | str, t2: bytes | str, f: int, stats: SolveStats | None = None
) -> int:
    """Segmental LCS length via the prefix-table recurrence, two rows at a time."""
    t1, t2, f, _ = _oriented(t1, t2, f)
    n1, n2 = len(t1), len(t2)
    check_allocation(_dense_bytes(n1, n2, f, 0), "the baseline's prefix rows")
    filled = 0
    for row in _table_rows(t1, t2, f):
        filled += len(row) - 1
    if stats is not None:
        stats.cell_visits += filled * n2
    return int(row[-1, -1])


def slcs_witness(
    t1: bytes | str, t2: bytes | str, f: int
) -> tuple[int, Segmentation, Embedding, Embedding]:
    """A maximum-length witness via traceback over every row of the prefix
    table, kept at one bit per cell.

    Along j a row steps by 0 or 1, C(i, h, j) <= C(i, h, j-1) + 1, since
    dropping the last symbol of a solution matched to t2[j] leaves at most
    h segments. So each row is kept as its step bits, packed, and the
    traceback tracks the value of its cell: a zero step moves left, and a
    cell of another row is the popcount of that row's steps before it.

    Returns (length, segmentation, embedding into t1, embedding into t2);
    the empty segmentation when the texts share nothing.
    """
    t1, t2, f_used, swapped = _oriented(t1, t2, f)
    n1, n2 = len(t1), len(t2)
    check_allocation(_dense_bytes(n1, n2, f_used, n1 + 1), "the witness's step bits")
    # bit j-1 of row i, level h is the step into column j, packed big-endian
    width = (n2 + 7) // 8
    store = np.zeros((n1 + 1, f_used + 1, width), dtype=np.uint8)
    block = np.empty((min(_BLOCK, n1 + 1), f_used + 1, n2), dtype=bool)
    tops: list[int] = []  # levels above a row's top are not kept: they equal it
    for i, row in enumerate(_table_rows(t1, t2, f_used)):
        top = len(row) - 1
        k = i % _BLOCK
        np.not_equal(row[:, 1:], row[:, :-1], out=block[k, : top + 1])
        tops.append(top)
        if k == _BLOCK - 1 or i == n1:
            # rows of the block with a lower top pack stale levels, never read
            store[i - k : i + 1, : top + 1] = np.packbits(
                block[: k + 1, : top + 1], axis=-1
            )
    length = int(row[-1, -1])
    bits = memoryview(store.reshape(-1))

    def start(i: int, h: int) -> int:
        """Where row i's bits of level h begin in ``bits``."""
        return (i * (f_used + 1) + min(h, tops[i])) * width

    def cell(i: int, h: int, j: int) -> int:
        """C(i, h, j): the steps before column j on row i, level h."""
        at = start(i, h)
        steps = int.from_bytes(bits[at : at + (j + 7) // 8], "big")
        return (steps >> (-j % 8)).bit_count()  # less the bits from column j on

    segments: list[bytes] = []
    starts1: list[int] = []
    starts2: list[int] = []
    # value is C(i, h, j), so while it is positive so are i and j
    i, j, h, value = n1, n2, f_used, length
    while h > 0 and value > 0:
        if not bits[start(i, h) + (j - 1) // 8] >> (7 - (j - 1) % 8) & 1:
            j -= 1
        elif cell(i - 1, h, j) == value:
            i -= 1
        else:
            x = 0  # lcsuf(i, j), walked back over the texts
            while x < i and x < j and t1[i - 1 - x] == t2[j - 1 - x]:
                x += 1
            value -= x
            assert value == cell(i - x, h - 1, j - x)
            if x > 0:
                segments.append(t1[i - x : i])
                starts1.append(i - x + 1)
                starts2.append(j - x + 1)
            i -= x
            j -= x
            h -= 1
    segments.reverse()
    starts1.reverse()
    starts2.reverse()
    if swapped:
        starts1, starts2 = starts2, starts1
    if not segments:
        seg = Segmentation((b"",))
        return 0, seg, Embedding(seg, (1,)), Embedding(seg, (1,))
    seg = Segmentation(tuple(segments))
    return length, seg, Embedding(seg, tuple(starts1)), Embedding(seg, tuple(starts2))


def diagonal_levels(
    t1: bytes | str, t2: bytes | str, f: int, stats: SolveStats | None = None
) -> Iterator[tuple[int, list[list[int]]]]:
    """Yield (answer at budget h, level h) for h = 1..f, f clamped to the
    shorter text; the shorter text drives the diagonals. A bad budget is
    refused here, before the first level is asked for.

    Level h lists one column per diagonal it filled: column diag holds
    L(s+diag, s, h) for s = 0, 1, ..., and a trailing entry past the longer
    text, when present, marks the cell whose scan exhausted it. Only the
    level below and the level being filled are held here, so a caller that
    drops each yielded level keeps two. From the fixed point on, every
    deeper budget yields the same answer and list. The counters of each
    filled level go to ``stats``. ``_Columns.column`` fills each column.
    """
    t1, t2, f, _ = _oriented(t1, t2, f)
    return _levels(t1, t2, f, stats)


class _Columns:
    """The diagonal solver's recurrence on one pair of oriented texts, with
    the ``LcsufIndex`` that its lcsuf lookups share, built at the first lookup
    that the exact tests leave, and ``lookups``, the count of those lookups."""

    __slots__ = ("t1", "t2", "before", "index", "lookups")

    def __init__(self, t1: bytes, t2: bytes) -> None:
        # before[i - 1] is t1[i-1] (1-based) for i >= 2; its first byte is never read
        self.t1, self.t2, self.before = t1, t2, b"\0" + t1
        self.index: LcsufIndex | None = None  # on a few tail edits, never built
        self.lookups = 0

    def column(self, h: int, diag: int, left: list[int], left_lead: int,
               up: list[int], up_lead: int) -> tuple[list[int], int]:
        """Column diag of level h and its lead, from ``left``, L(h, diag-1, .),
        and ``up``, L(h-1, diag, .), with their leads; [0] with lead 0 stands
        in for a missing column, and a read past a column's end is infinite.

        L(h, i, s) >= s, and L = s on a prefix of the diagonal, its lead. It is
        at least the lead of ``left`` (L never grows with i), which ends before
        this column does, or the answer would have stopped the scan; at h > 1
        the lead of ``up`` (L never grows with h); at h = 1 the common prefix
        of t2 and t1[diag:]. Cells 0..prior of the column whose lead bounds it
        hold 0..prior, and the lead copies them, shared; only a common prefix
        past the left lead makes new cells. The lead also takes in the cells
        with L = s that the scan finds.
        """
        t1, t2, before, index = self.t1, self.t2, self.before, self.index
        if index is not None:
            rank1, rank2, levels = index.rank1, index.rank2, index.levels
        inf = len(t2) + 1
        find = t2.find
        end = len(t1) - diag
        n_left, n_up = len(left), len(up)
        source, lead = (up, up_lead) if up_lead > left_lead else (left, left_lead)
        prior = lead
        if (h == 1 and t1[diag + lead] == t2[lead]
                and t1.startswith(t2[: lead + 1], diag)):
            lo, hi = lead + 1, end  # t1[diag:] starts with t2[:lo]
            while lo < hi:
                mid = (lo + hi + 1) // 2
                if t1.startswith(t2[:mid], diag):
                    lo = mid
                else:
                    hi = mid - 1
            lead = lo
        column = source[: prior + 1]
        column += range(prior + 1, lead + 1)
        j = lead + 1  # the scan pointer never moves back along a diagonal
        # the match the previous cell was accepted at, if any; after a
        # lead, 0 costs nothing: no carried match decides the next cell
        matched = lookups = 0
        for s, a, b in zip(
            range(lead + 1, end + 1), t1[diag + lead :], before[diag + lead :]
        ):
            # L(h, i, s) with i = s + diag is the first j >= the pointer
            # with j == L(h, i-1, s), or with x = min(lcsuf(i, j), s) > 0
            # and j >= x + L(h-1, i-x, s-x); x > 0 exactly where
            # t2[j] == t1[i] (= a), so only those j are queried
            stop = left[s] if s < n_left else inf
            if stop == j:
                cand = 0
            else:
                if stop < j:
                    stop = inf  # the pointer is already past L(h, i-1, s)
                if j < stop and t2[j - 1] == a:
                    cand = j
                else:
                    cand = find(a, j - 1, stop - 1) + 1  # 0 when none
            while cand:
                # Three exact tests spare most range minima. First,
                # x + L(h-1, i-x, s-x) never grows with x (dropping the
                # last common symbol of a level h-1 solution shortens
                # both prefixes by one), so when x = 1 passes, the full
                # lcsuf passes too; up[0] = 0 passes every s = 1. Second,
                # lcsuf is 1, which has just failed, when the symbols
                # before t1[i] and t2[cand] differ: b and t2[cand-1]
                # (cand = 1 reads t2[-1]; should it equal b, the range
                # minimum still gives 1). Third, a carried match: when
                # the previous cell (i-1, s-1) was accepted at the match
                # j-1 with some x', cand = j is its neighbour on the grid
                # diagonal, so lcsuf(i, j) >= x' + 1, and x' + 1 passes
                # here: it reads the same entry of up as x' did there and
                # adds one to a sum that was <= j-1. So cand = j is
                # accepted outright (t2[j-2] is t1[i-1] = b, so the
                # test sits inside the branch below).
                if s <= n_up and cand > up[s - 1]:
                    break
                if t2[cand - 2] == b:
                    if matched and cand == j:
                        break
                    # range minimum of the LCP array between the ranks
                    lookups += 1
                    if index is None:
                        index = self.index = LcsufIndex(t1, t2)
                        rank1, rank2, levels = index.rank1, index.rank2, index.levels
                    lo, hi = rank1[s + diag], rank2[cand]
                    if lo > hi:
                        lo, hi = hi, lo
                    k = (hi - lo).bit_length() - 1
                    x = levels[k][lo]
                    y = levels[k][hi - (1 << k)]
                    if y < x:
                        x = y
                    # s - x <= 0 reads L(., ., 0) = 0, which any j >= x passes
                    if x >= s or (s - x < n_up and cand >= x + up[s - x]):
                        break
                cand = find(a, cand, stop - 1) + 1
            matched = cand  # the accepted match, or 0 when none passed
            value = cand or stop
            column.append(value)
            if value == inf:
                break  # deeper cells on this diagonal are infinite as well
            j = value + 1
        self.lookups += lookups
        last = len(column) - 1
        while lead < last and column[lead + 1] == lead + 1:
            lead += 1
        return column, lead


def _levels(
    t1: bytes, t2: bytes, f: int, stats: SolveStats | None
) -> Iterator[tuple[int, list[list[int]]]]:
    """The generator behind ``diagonal_levels``, on oriented texts: it runs
    ``_Columns.column`` level by level, diagonal by diagonal."""
    n1, n2 = len(t1), len(t2)
    inf = n2 + 1
    columns = _Columns(t1, t2)
    column = columns.column
    below: list[list[int]] = []
    below_leads: list[int] = []
    for h in range(1, f + 1):
        level: list[list[int]] = []
        leads: list[int] = []
        best = visits = diag = 0
        left, lead = [0], 0
        while diag < n1 - best:
            # below[diag] exists: on every prefix of the diagonals level h's
            # answer is at least level h-1's, so level h stops no later
            up, up_lead = (below[diag], below_leads[diag]) if h > 1 else ([0], 0)
            left, lead = column(h, diag, left, lead, up, up_lead)
            level.append(left)
            leads.append(lead)
            # each finite cell moved the pointer from j to its value + 1, so the
            # scan visited up to the last finite value, or all of t2 at an inf
            visits += min(left[-1], n2)
            best = max(best, len(left) - 1 - (left[-1] == inf))
            diag += 1
        if stats is not None:
            stats.cell_visits += visits
            stats.lcsuf_lookups += columns.lookups
        columns.lookups = 0
        if h > 1 and level == below:
            # level h+1 would be computed from level h exactly as level h
            # was from level h-1, so every deeper level repeats level h
            for _ in range(h, f + 1):
                yield best, level
            return
        yield best, level
        below, below_leads = level, leads


def slcs_diagonal(
    t1: bytes | str,
    t2: bytes | str,
    f: int,
    stats: SolveStats | None = None,
) -> int:
    """Segmental LCS length via the sparse diagonal tables."""
    for answer, _ in diagonal_levels(t1, t2, f, stats):
        pass
    return answer
