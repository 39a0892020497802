"""Two solvers for the segmental LCS length, plus witness reconstruction.

``slcs_baseline`` fills the prefix table C(i, h, j) in O(f*n1*n2) time, one
row of the shorter text at a time with every level in the row, so it keeps
two rows, O(f*n2) space. A match-run array carried with the row stands in
for the common-suffix term x + C(i-x, h-1, j-x), so a row costs five numpy
calls over all its levels, with no lcsuf table. The rows are written in
place into a ring of slots: two for the baseline, a block of 64 rows for the
witness. The cells are 8-bit, where numpy's running maximum is fastest, and
widen to 32-bit at the end of the ring after which a cell could reach 254.
``slcs_witness`` keeps every row at one bit per cell of its filled levels
and traces a witness back through them: along j, adjacent cells of a row
differ by 0 or 1, as in bit-vector LCS (Allison and Dix 1986; Hyyrö 2004),
so a row's step bits hold it whole, and a cell is the popcount of the steps
before it. The step bits are taken a full ring at a time and kept at that
ring's height, and the traceback holds a row's steps as one int, so it
crosses a run of zero steps in one jump.

The diagonal solver fills sparse shortest-prefix tables L(i, s, h) one
column, a diagonal (i - s = const) of one level, at a time with a
non-resetting scan pointer over the longer text. One loop runs the diagonals
outside and the levels inside, and stops a level at its cutoff, the first
diagonal that can no longer beat its answer. ``slcs_diagonal`` stops every
level at the top level's cutoff and holds only the previous diagonal's
columns, so its scans visit at most f*n2*(n1 - answer + 1) positions, the
paper's bound. ``diagonal_levels`` stops each level at its own cutoff and
keeps every column, for the CLI's table dump. A column's scan searches three
bands of the longer text in turn, for a 3-gram, a 2-gram and a symbol of the
shorter one, and only a 3-gram hit takes an lcsuf range minimum; the
``LcsufIndex`` is built at the first, so similar texts often need no index.

Since L(i, s, h) >= s, the cells with L = s form a prefix of each diagonal,
its lead, like the snakes of Myers' O(ND) diff. A column stores only its
tail, the cells after its lead, and the diagonal solver scans only those;
``_Columns.column`` gives the lead's bounds. On texts that share long runs
most cells lie in leads, so a column costs time and memory for its tail
alone; ``diagonal_levels`` writes the leads out.

Both solvers stop at the level fixed point. Level h is the same function of
level h-1 for every h, so while a level equals the one below it, every deeper
level equals it too. The baseline applies this row by row: level h+1 is
filled only from the row after the first on which level h differs from
level h-1. The diagonal loop applies it diagonal by diagonal: it starts
level h+1 at the first diagonal where level h differs from level h-1. The
work counters count only filled columns.
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
    took, one per 3-gram hit in a scan's first band.
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


def _table_rows(t1: bytes, t2: bytes, f: int, slots: int = 2) -> Iterator[np.ndarray]:
    """Yield the prefix table C(i, h, j) one row of t1 at a time: row i is an
    array of shape (top_i + 1, n2 + 1) holding levels h = 0..top_i over
    j = 0..n2. Every level above top_i equals level top_i on row i.

    The rows are written in place into a ring of ``slots`` arrays of f+1
    levels (at least 2 when t1 is nonempty), each row into the slot after
    the previous row's, starting at slot 0; a row is yielded as a view of
    its slot, whose ``base`` is the ring. So a row holds until ``slots`` - 1
    more have been yielded, and a caller that keeps rows copies them.

    A match-run array Z rides along with the row: Z(i, h, j) is
    max(C(i-1, h-1, j-1), Z(i-1, h, j-1)) + 1 where t1[i] == t2[j], which is
    the largest x + C(i-x, h-1, j-x) over 1 <= x <= lcsuf(i, j). At a
    mismatch a mask of zeros clears it, and a mask of ones keeps it at a
    match, so a miss holds 0, which no max prefers to a cell C >= 0. Row i of
    level h is then the running maximum along j of max(C(i-1, h, .),
    Z(i, h, .)).

    The ring, both Z buffers and the masks are uint8, where numpy's running
    maximum is several times faster than at int32, while every cell stays
    below 254. A cell grows by at most 1 per row and Z never exceeds C, so
    the limit is checked only on a ring's last row: once its largest cell
    reaches 254 - ``slots``, they are converted to int32, once, and the next
    row starts a new int32 ring of max(2, slots // 4) slots at slot 0, so
    that a ring of 8 or more slots keeps its bytes. The int32 ring's first
    row is then a multiple of ``slots``, and of its own slot count for 2 or
    64 slots. A row never falls along j or with h, so its largest cell is
    C(i, top, n2), and since C(i, h, j) <= i, the check starts at row
    254 - ``slots``.

    ``top`` is the lowest level that has equalled the level below it on every
    row so far; the levels above it equal it there and are not filled. When
    row i's level ``top`` differs from level top-1, level top+1 starts on row
    i+1 from level top's row i, copied into the next level of row i's slot,
    up to level f. Its Z there needs no copy: it would be Z(i, top, .), which
    never exceeds C(i, top, .), the level below level top+1; the zeros that
    its buffer holds serve as well.
    """
    n1, n2 = len(t1), len(t2)
    w = n2 + 1
    ring = np.zeros((slots, f + 1, w), dtype=np.uint8)
    k = 0  # row i's slot
    yield ring[0, :1]  # row 0 is zero on every level
    # Z is one flat buffer, level after level, so that its cell (h, j) reads
    # C's cell (h-1, j-1) and Z's cell (h, j-1) of the row above w+1 and 1
    # places earlier. A fill writes the top*w cells from (1, 1) on: each
    # level's j = 1..n2, then column 0 of the level above, whose mask is a
    # miss so that it stays 0. Cell (1, 0) is never written, and a spare
    # cell past level f takes the end of the last fill.
    b = np.frombuffer(t2, dtype=np.uint8)
    masks = {
        c: np.where(np.append(b == c, False), np.uint8(255), np.uint8(0))
        for c in set(t1)
    }
    z, z_next = np.zeros((2, (f + 1) * w + 1), dtype=np.uint8)
    top = 1
    rows = list(ring[:, : top + 1])  # each slot's levels 0..top
    row = rows[0]  # level 1 starts on row 1
    narrow = True  # whether the cells are still uint8
    for i, c in enumerate(t1, 1):
        size = top * w
        fill = z_next[w + 1 : w + 1 + size]
        np.maximum(row.ravel()[:size], z[w : w + size], out=fill)
        fill += 1
        block = fill.reshape(top, w)
        block &= masks[c]
        k = (k + 1) % len(rows)
        row = np.maximum(row, z_next[: size + w].reshape(top + 1, w), out=rows[k])
        above = row[1:]
        np.maximum.accumulate(above, axis=1, out=above)
        yield row
        z, z_next = z_next, z
        # comparing bytes skips most of np.array_equal's per-call overhead
        if top < f and row[top].tobytes() != row[top - 1].tobytes():
            ring[k, top + 1] = row[top]
            top += 1
            rows = list(ring[:, : top + 1])
            row = rows[k]
        # a uint8 scalar plus an int wraps under numpy 2, so compare instead
        if narrow and k == slots - 1 and i >= 254 - slots and row[top, -1] >= 254 - slots:
            narrow = False
            ring = np.zeros((max(2, slots // 4), f + 1, w), dtype=np.int32)
            rows = list(ring[:, : top + 1])
            k = len(rows) - 1  # the next row starts the new ring at slot 0
            z = z.astype(np.int32)
            z_next = z_next.astype(np.int32)
            for a, mask in masks.items():  # as int8 a mask of ones is -1
                masks[a] = mask.view(np.int8).astype(np.int32)


_BLOCK = 64  # rows of step bits that the witness packs at a time


def _dense_bytes(n_short: int, n_long: int, f: int, kept: int) -> int:
    """Bytes that a dense solve allocates when it keeps ``kept`` table rows
    at one bit per cell; a level is f+1 cells over the longer text. The fill
    holds two Z buffers of a level each and one mask per symbol of the
    shorter text. They are uint8, a quarter of that, until the rows widen,
    and are widened to int32 one at a time, so the int32 sizes bound them
    throughout. The rows take a uint8 ring of two slots, or one per row of a
    block, of a level each, and where they widen, at a ring's end, also the
    int32 ring that follows it, whose first row reads the last uint8 row.
    The kept rows are packed a ring of up to ``_BLOCK`` rows at a time
    through one bool per cell, and each ring's packed bits are kept at its
    last row's height; the tops are not known before the fill, so the plan
    takes all f+1 levels."""
    width = n_long + 1
    level = (f + 1) * width
    symbols = min(n_short, 256)
    fill = 4 * (2 * level + symbols * width)
    block = min(_BLOCK, kept)
    slots = max(2, block)
    ring = slots * level + 4 * max(2, slots // 4) * level
    packed = kept * (f + 1) * ((n_long + 7) // 8)
    return fill + ring + packed + block * (f + 1) * n_long


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
    h segments. So each row is kept as its step bits, packed. The rows are
    written into a ring of up to ``_BLOCK`` slots, which they leave only at
    its end, when they widen. Each time the ring is full, and at the last
    row, one comparison and one ``packbits`` turn all its rows into step
    bits, up to its last row's top, the highest of the ring; that packed
    block is kept as it is, so the bits stop where the ring's rows do.

    The traceback holds the steps before its cell as one int, whose lowest
    bit is the step into the cell and whose popcount is the cell's value. A
    run of zero steps moves left in one jump, to the lowest set bit; a cell
    of the row above is the popcount of that row's int, which is kept when
    the path moves up.

    Returns (length, segmentation, embedding into t1, embedding into t2);
    the empty segmentation when the texts share nothing.
    """
    t1, t2, f_used, swapped = _oriented(t1, t2, f)
    n1, n2 = len(t1), len(t2)
    check_allocation(_dense_bytes(n1, n2, f_used, n1 + 1), "the witness's step bits")
    # bit j-1 of row i, level h is the step into column j, packed big-endian
    width = (n2 + 7) // 8
    steps = np.empty((min(_BLOCK, n1 + 1), f_used + 1, n2), dtype=bool)
    tops: list[int] = []  # levels above a row's top are not kept: they equal it
    kept: list[tuple[memoryview, int]] = []  # a row's ring's bits, its offset
    for i, row in enumerate(_table_rows(t1, t2, f_used, len(steps))):
        tops.append(len(row) - 1)
        ring = row.base
        k = i % len(ring)  # row i's slot: a ring starts on a multiple of its size
        if k == len(ring) - 1 or i == n1:
            # a row whose top is below the last one's packs stale levels
            # above its top, never read
            top = tops[-1]
            block = steps[: k + 1, : top + 1]
            rows = ring[: k + 1, : top + 1]
            np.not_equal(rows[..., 1:], rows[..., :-1], out=block)
            bits = memoryview(np.packbits(block, axis=-1).reshape(-1))
            kept += [(bits, r * (top + 1) * width) for r in range(k + 1)]
    length = int(row[-1, -1])

    def before(i: int, h: int, j: int) -> int:
        """Row i's steps into columns 1..j of level h, column j's lowest."""
        bits, at = kept[i]
        at += min(h, tops[i]) * width
        return int.from_bytes(bits[at : at + (j + 7) // 8], "big") >> (-j % 8)

    segments: list[bytes] = []
    starts1: list[int] = []
    starts2: list[int] = []
    # value is C(i, h, j), the popcount of here, so while it is positive so
    # are i, j, h and here
    i, j, h, value = n1, n2, f_used, length
    here = before(i, h, j)
    while value > 0:
        zeros = (here & -here).bit_length() - 1  # the zero steps, walked left
        j -= zeros
        here >>= zeros
        up = before(i - 1, h, j)
        if up.bit_count() == value:
            i -= 1
            here = up
        else:
            x = 0  # lcsuf(i, j) >= 1 (neither left nor up), walked back
            while x < i and x < j and t1[i - 1 - x] == t2[j - 1 - x]:
                x += 1
            value -= x
            segments.append(t1[i - x : i])
            starts1.append(i - x + 1)
            starts2.append(j - x + 1)
            i -= x
            j -= x
            h -= 1
            here = before(i, h, j)
            assert value == here.bit_count()
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
) -> list[tuple[int, list[list[int]]]]:
    """(answer at budget h, level h) for h = 1..f, f clamped to the shorter
    text; the shorter text drives the diagonals. A bad budget is refused
    before any work.

    Level h lists one column per diagonal it reached: column diag holds
    L(s+diag, s, h) for s = 0, 1, ..., and a trailing entry past the longer
    text, when present, marks the cell whose scan exhausted it. It is the
    diagonal solver's run with every column kept and each level stopped at
    its own cutoff, written out in full, lead cells first. From the fixed
    point on, every deeper budget gets the same answer and list. The
    counters of the filled columns go to ``stats``.
    """
    t1, t2, f, _ = _oriented(t1, t2, f)
    _, filled = _run(t1, t2, f, stats, True)
    levels = [(answer, [list(range(lead + 1)) + tail for tail, lead in columns])
              for answer, columns in filled]
    return levels + levels[-1:] * (f - len(levels))


class _Columns:
    """The diagonal solver's recurrence on one pair of oriented texts, with
    the ``LcsufIndex`` that its lcsuf lookups share, built at the first lookup,
    and ``lookups``, the count of those lookups."""

    __slots__ = ("t1", "t2", "index", "lookups")

    def __init__(self, t1: bytes, t2: bytes) -> None:
        self.t1, self.t2 = t1, t2
        self.index: LcsufIndex | None = None  # on a few tail edits, never built
        self.lookups = 0

    def column(self, h: int, diag: int, left: list[int], left_lead: int,
               up: list[int], up_lead: int) -> tuple[list[int], int]:
        """Column diag of level h, from ``left``, L(h, diag-1, .), and ``up``,
        L(h-1, diag, .). A column is a pair (tail, lead): cells 0..lead hold
        L = s and are not stored, and the tail holds the cells from lead+1
        on. ([], 0) stands in for a missing column, and a read past a
        column's end is infinite.

        L(h, i, s) >= s, and L = s on a prefix of the diagonal, its lead. It is
        at least the lead of ``left`` (L never grows with i), which ends before
        this column does, or the answer would have stopped the scan; at h > 1
        the lead of ``up`` (L never grows with h); at h = 1 the common prefix
        of t2 and t1[diag:]. The scan fills the tail, and the lead also takes
        in the cells with L = s that the scan finds.

        Cell s (i = s + diag) is the first j from the scan pointer on with
        j >= T(min(lcsuf(i, j), s)), or else the left cell s, ``stop``. Here
        T(x) = x + L(h-1, i-x, s-x) is read from ``up``'s cell s-x: s in its
        lead, infinite past its end. T never grows with x (dropping the last
        common symbol of a level h-1 solution shortens both prefixes by one),
        so the scan searches three bands of j in order and takes the first
        hit: below T(2) a hit needs lcsuf >= 3, so only the 3-gram
        t1[i-3:i] is searched there and each hit takes an lcsuf range
        minimum; in [T(2), T(1)) any 2-gram t1[i-2:i] passes; from T(1) on
        any symbol t1[i-1] passes.
        """
        t1, t2, index = self.t1, self.t2, self.index
        if index is not None:
            rank1, rank2, levels = index.rank1, index.rank2, index.levels
        inf = len(t2) + 1
        find = t2.find
        end = len(t1) - diag
        # where each neighbour's tail starts, one past the left tail's last
        # cell, and the up tail's length
        left_at, up_at = left_lead + 1, up_lead + 1
        n_left, n_up = left_at + len(left), len(up)
        lead = max(left_lead, up_lead)
        if h == 1 and t1[diag + lead] == t2[lead]:
            prefix = memoryview(t2)  # compared in place, never copied
            if t1.startswith(prefix[: lead + 1], diag):
                lo, hi = lead + 1, end  # t1[diag:] starts with t2[:lo]
                while lo < hi:
                    mid = (lo + hi + 1) // 2
                    if t1.startswith(prefix[:mid], diag):
                        lo = mid
                    else:
                        hi = mid - 1
                lead = lo
        tail: list[int] = []
        j = lead + 1  # the scan pointer never moves back along a diagonal
        lookups = 0
        for s, a in zip(range(lead + 1, end + 1), t1[diag + lead :]):
            # j <= stop, as j - 1 = L(h, i, s-1) <= L(h, i-1, s-1) <
            # L(h, i-1, s) = stop; s > lead >= left_lead, so stop is in the
            # left tail or past it
            stop = left[s - left_at] if s < n_left else inf
            k = s - 1 - up_at  # up's cell s-1 in its tail
            one = s if k < 0 else 1 + up[k] if k < n_up else inf  # T(1)
            if stop == j:
                value = stop
            elif one <= j:
                value = j if t2[j - 1] == a else find(a, j - 1, stop - 1) + 1 or stop
            else:
                i = s + diag
                two = s if k < 1 else 2 + up[k - 1] if k <= n_up else inf  # T(2)
                # the bands end at stop; T(2) <= T(1) still
                if two > stop:
                    two = stop
                if one > stop:
                    one = stop
                value = 0
                if j < two:  # then s >= 3: the 3-gram band
                    gram = t1[i - 3 : i]
                    at = find(gram, j - 3, two - 1)
                    while at >= 0:
                        cand = at + 3
                        # range minimum of the LCP array between the ranks
                        lookups += 1
                        if index is None:
                            index = self.index = LcsufIndex(t1, t2)
                            rank1, rank2, levels = index.rank1, index.rank2, index.levels
                        lo, hi = rank1[i], rank2[cand]
                        if lo > hi:
                            lo, hi = hi, lo
                        k = (hi - lo).bit_length() - 1
                        x = levels[k][lo]
                        y = levels[k][hi - (1 << k)]
                        if y < x:
                            x = y
                        # an up cell s - x in the lead (s - x <= 0 included)
                        # holds s - x, so T(x) = s, which cand >= s passes
                        k = s - x - up_at
                        if k < 0 or (k < n_up and cand >= x + up[k]):
                            value = cand
                            break
                        at = find(gram, at + 1, two - 1)
                    j = two  # where the 2-gram band starts, if no hit
                if not value and j < one:  # then s >= 2: the 2-gram band
                    at = find(t1[i - 2 : i], j - 2, one - 1)
                    if at >= 0:
                        value = at + 2
                if not value:
                    value = find(a, one - 1, stop - 1) + 1 or stop if one < stop else stop
            tail.append(value)
            if value == inf:
                break  # deeper cells on this diagonal are infinite as well
            j = value + 1
        self.lookups += lookups
        grown = 0  # the tail's first cells with L = s join the lead
        while grown < len(tail) and tail[grown] == lead + 1 + grown:
            grown += 1
        del tail[:grown]
        return tail, lead + grown


def _run(
    t1: bytes, t2: bytes, f: int, stats: SolveStats | None, keep: bool
) -> tuple[int, list[tuple[int, list[tuple[list[int], int]]]]]:
    """Run ``_Columns.column`` on oriented texts, diagonal by diagonal with
    the filled levels 1..top inside each: level h on diagonal d reads only
    level h on d-1 and level h-1 on d. Level top+1 starts on the first
    diagonal where level top differs from level top-1, from level top's
    column on the diagonal before; level 1 is not the same function of
    level 0, so level 2 is always filled.

    Returns the answer at budget f and, with ``keep``, each filled level as
    (answer, columns), a column being a (tail, lead) pair. Without ``keep``
    every level stops at the top level's cutoff, the first diagonal that can
    no longer beat its answer, and only the previous diagonal's columns are
    held. With ``keep`` each level stops at its own cutoff and keeps every
    column; a level that starts on diagonal d shares the level below's
    columns on the diagonals before d. The level below is still running
    wherever a level runs, since on every prefix of the diagonals its answer
    is no larger.
    """
    n1, n2 = len(t1), len(t2)
    inf = n2 + 1
    columns = _Columns(t1, t2)
    column = columns.column
    top = min(2, f)
    # prev[h - 1] is level h's column on the previous diagonal
    prev: list[tuple[list[int], int]] = [([], 0)] * top
    if keep:  # each filled level's columns and its answer so far
        kept: list[list[tuple[list[int], int]]] = [[] for _ in prev]
        bests = [0] * top
    best = visits = diag = 0
    reach = f
    while diag < n1 - best:
        if keep:  # answers never fall with h, so levels 1..running still run
            running = sum(diag < n1 - b for b in bests)
            reach = f if running == top else running
        cur: list[tuple[list[int], int]] = []
        up: tuple[list[int], int] = ([], 0)
        for h in range(1, reach + 1):
            if h > top:
                if up == cur[-2]:
                    break
                top = h
                prev.append(prev[-1])
                if keep:
                    kept.append(kept[-1][:])  # the diagonals before this one
                    bests.append(bests[-1])
            up = column(h, diag, *prev[h - 1], *up)
            cur.append(up)
            tail, lead = up
            # each finite cell moved the pointer from j to its value + 1, so the
            # scan visited up to the last finite value, or all of t2 at an inf
            last = tail[-1] if tail else lead
            visits += min(last, n2)
        if keep:
            for h, pair in enumerate(cur):
                kept[h].append(pair)
                tail, lead = pair
                last = tail[-1] if tail else lead
                bests[h] = max(bests[h], lead + len(tail) - (last == inf))
            best = bests[0]
        else:
            # the top level's cells are the smallest, so its run of finite
            # cells is the longest on this diagonal
            best = max(best, lead + len(tail) - (last == inf))
        prev, diag = cur, diag + 1
    if stats is not None:
        stats.cell_visits += visits
        stats.lcsuf_lookups += columns.lookups
    if keep:
        return bests[-1], list(zip(bests, kept))
    return best, []


def slcs_diagonal(
    t1: bytes | str,
    t2: bytes | str,
    f: int,
    stats: SolveStats | None = None,
) -> int:
    """Segmental LCS length via the sparse diagonal tables, diagonal by
    diagonal with every filled level inside each. The levels stop together
    when no later diagonal can beat the answer, so the scan pointers visit
    at most f*n2*(n1 - answer + 1) positions."""
    t1, t2, f, _ = _oriented(t1, t2, f)
    return _run(t1, t2, f, stats, False)[0]
