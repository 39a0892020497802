"""Two solvers for the segmental LCS length, plus witness reconstruction.

``slcs_baseline`` fills the prefix table C(i, j, h) layer by layer in
O(f*n1*n2) time; each layer is the 2D running maximum of the candidate
matrix Z(i, j) = x + C(i-x, j-x, h-1) with x the common-suffix length, so a
layer reduces to one gather and two cumulative maxima. In the row-major
layout of an (n1+1) x (n2+1) layer, cell (i-x, j-x) lies x*(n2+2) places
before cell (i, j), whatever the layer, so the gather reads the previous
layer through flat source offsets computed from x alone.

``slcs_diagonal`` fills sparse shortest-prefix tables L(i, s, h) one
diagonal (i - s = const) at a time with a non-resetting scan pointer over
the longer text, skipping whole diagonals that can no longer improve the
answer; when the solution is long it touches only a sliver of each table.
Three exact tests settle most of its lcsuf lookups, one of them a match
carried along each grid diagonal, and the ``LcsufIndex`` is built only at
the first lookup they leave, so similar texts often need no index at all.

Both solvers stop at the level fixed point. Level h is the same function of
level h-1 for every h, so once a level equals the one below it, every deeper
level equals it too: the deeper levels are not filled, they share the object
of the level they repeat, and the work counters count only filled levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .core import Embedding, Segmentation, as_text, check_allocation, check_budget
from .lce import LcsufIndex, lcsuf_matrix

_GATHER_BLOCK = 128  # rows gathered at a time; bounds the offset buffer


@dataclass
class SolveStats:
    """Machine-independent work counters filled in by the solvers.

    ``cell_visits`` counts the table cells a solver filled (for the diagonal
    solver, the scan positions it stepped over: per filled column, the scan
    pointer's final position, min(last value, n2)); ``lcsuf_lookups`` counts
    the lcsuf range minima the diagonal solver took, which no exact test
    settled.
    """

    cell_visits: int = 0
    lcsuf_lookups: int = 0


def _clamp_budget(f: int, shorter: int) -> int:
    # a shared segmentation never needs more segments than the common string
    # has characters, and that is capped by the shorter text
    return max(1, min(f, shorter))


def _chain_layers(x: np.ndarray, f: int) -> Iterator[np.ndarray]:
    """Yield the prefix-table layers C[h] for h = 0..f from the common-suffix
    table ``x``; only the previous layer is kept between steps. Once a layer
    equals the previous one, every deeper layer equals it too, so that same
    array is yielded for the remaining levels and none of them is filled.

    Each layer is gathered a block of rows at a time: the flat source of
    cell p is p - x[p]*(n2+2), written into one reused offset buffer, and
    ``np.take`` reads the previous layer through it straight into the new
    one. The sources are in range by construction (i - x >= 0, j - x >= 0),
    so ``mode="clip"`` changes no value; it only spares ``take`` the copy
    of ``out`` that bounds checking makes.
    """
    width = x.shape[1]
    flat_x = x.ravel()
    step = _GATHER_BLOCK * width
    src = np.empty(min(step, x.size), dtype=np.intp)
    # np.zeros leaves C[0]'s pages untouched (zeros_like would write them)
    prev = np.zeros(x.shape, dtype=x.dtype)
    yield prev
    for h in range(1, f + 1):
        cur = np.empty(x.shape, dtype=x.dtype)
        for lo in range(0, x.size, step):
            hi = min(lo + step, x.size)
            block = src[: hi - lo]
            np.multiply(flat_x[lo:hi], -(width + 1), out=block, dtype=np.intp)
            np.add(block, np.arange(lo, hi), out=block)
            np.take(prev.ravel(), block, out=cur.ravel()[lo:hi], mode="clip")
        cur += x
        np.maximum.accumulate(cur, axis=0, out=cur)
        np.maximum.accumulate(cur, axis=1, out=cur)
        yield cur
        # the corners differ on almost every layer below the fixed point
        if cur[-1, -1] == prev[-1, -1] and np.array_equal(cur, prev):
            for _ in range(h, f):
                yield cur
            return
        prev = cur


def _check_dense(n1: int, n2: int, layers: int, what: str) -> None:
    """Refuse a dense solve whose int32 lcsuf table, ``layers`` live prefix
    layers, one block of gather offsets and the boolean mask of the fixed
    point test would exceed physical memory."""
    cells = (n1 + 1) * (n2 + 1)
    offsets = 2 * 8 * min(_GATHER_BLOCK * (n2 + 1), cells)  # buffer and arange
    check_allocation(4 * cells * (1 + layers) + cells + offsets, what)


def slcs_baseline(
    t1: bytes | str, t2: bytes | str, f: int, stats: SolveStats | None = None
) -> int:
    """Segmental LCS length via the layered prefix-table recurrence."""
    check_budget(f)
    t1, t2 = as_text(t1), as_text(t2)
    n1, n2 = len(t1), len(t2)
    f = _clamp_budget(f, min(n1, n2))
    _check_dense(n1, n2, 2, "the baseline's prefix layers")
    filled = -1  # C[0] is not filled
    layer = None
    for nxt in _chain_layers(lcsuf_matrix(t1, t2), f):
        filled += nxt is not layer
        layer = nxt
    if stats is not None:
        stats.cell_visits += filled * n1 * n2
    return int(layer[n1, n2])


def slcs_witness(
    t1: bytes | str, t2: bytes | str, f: int
) -> tuple[int, Segmentation, Embedding, Embedding]:
    """A maximum-length witness via traceback over the full prefix table.

    Returns (length, segmentation, embedding into t1, embedding into t2);
    the empty segmentation when the texts share nothing.
    """
    check_budget(f)
    t1, t2 = as_text(t1), as_text(t2)
    n1, n2 = len(t1), len(t2)
    f_used = _clamp_budget(f, min(n1, n2))
    _check_dense(n1, n2, f_used + 1, "the witness's prefix layers")
    x = lcsuf_matrix(t1, t2)
    layers = list(_chain_layers(x, f_used))
    length = int(layers[f_used][n1, n2])

    segments: list[bytes] = []
    starts1: list[int] = []
    starts2: list[int] = []
    i, j, h = n1, n2, f_used
    while h > 0 and layers[h][i, j] > 0:
        value = layers[h][i, j]
        if j > 0 and layers[h][i, j - 1] == value:
            j -= 1
        elif i > 0 and layers[h][i - 1, j] == value:
            i -= 1
        else:
            xv = int(x[i, j])
            assert value == xv + layers[h - 1][i - xv, j - xv]
            if xv > 0:
                segments.append(t1[i - xv : i])
                starts1.append(i - xv + 1)
                starts2.append(j - xv + 1)
            i -= xv
            j -= xv
            h -= 1
    segments.reverse()
    starts1.reverse()
    starts2.reverse()
    if not segments:
        seg = Segmentation((b"",))
        return 0, seg, Embedding(seg, (1,)), Embedding(seg, (1,))
    seg = Segmentation(tuple(segments))
    return length, seg, Embedding(seg, tuple(starts1)), Embedding(seg, tuple(starts2))


@dataclass
class DiagonalRun:
    """Sparse per-h diagonal tables plus the best row index reached per h.

    tables[h][diag] lists L(s+diag, s, h) for s = 0, 1, ...; a trailing
    ``infinity`` entry records the cell whose scan exhausted the second text.
    Levels dropped by the two-layer memory policy are None. Levels past the
    fixed point share the list of the level they repeat.
    """

    tables: list[list[list[int]] | None]
    max_v_idx: list[int]
    infinity: int
    f: int

    def cells(self):
        """Yield (h, i, s, value) for every stored cell with s >= 1."""
        for h in range(1, len(self.tables)):
            if self.tables[h] is None:
                continue
            for diag, column in enumerate(self.tables[h]):
                for s in range(1, len(column)):
                    yield h, s + diag, s, column[s]


def diagonal_run(
    t1: bytes | str,
    t2: bytes | str,
    f: int,
    stats: SolveStats | None = None,
    keep_tables: bool = False,
) -> DiagonalRun:
    """Run the diagonal algorithm; the shorter text drives the diagonals.

    The ``LcsufIndex`` is built at the first lcsuf lookup that the loop's
    exact tests leave, if any; ``stats.lcsuf_lookups`` counts those lookups.
    """
    check_budget(f)
    t1, t2 = as_text(t1), as_text(t2)
    if len(t1) > len(t2):
        t1, t2 = t2, t1
    n1, n2 = len(t1), len(t2)
    f = _clamp_budget(f, n1)
    inf = n2 + 1
    index = None  # on texts that differ by a few tail edits, never built
    find = t2.find
    # before[i - 1] is t1[i-1] (1-based) for i >= 2; its first byte is never read
    before = b"\0" + t1

    tables: list[list[list[int]] | None] = [None] + [[] for _ in range(f)]
    max_v = [0] * (f + 1)
    visits = lookups = 0
    for h in range(1, f + 1):
        if not keep_tables and h >= 3:
            tables[h - 2] = None  # only levels h-1 and h stay resident
        level = tables[h]
        below = tables[h - 1] if h > 1 else []
        diag = 0
        while diag < n1 - max_v[h]:
            # the two columns a diagonal reads, L(h, diag-1, .) and
            # L(h-1, diag, .); [0] stands in for a column that does not
            # exist, and a read past a column's end is infinite
            left = level[diag - 1] if diag else [0]
            up = below[diag] if diag < len(below) else [0]
            n_left, n_up = len(left), len(up)
            column = [0]
            level.append(column)
            j = 1  # the scan pointer never moves back along a diagonal
            matched = 0  # the match the previous cell was accepted at, if any
            for s, a, b in zip(range(1, n1 - diag + 1), t1[diag:], before[diag:]):
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
                            index = LcsufIndex(t1, t2)
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
            # each finite cell moved the pointer from j to its value + 1, so the
            # scan visited up to the last finite value, or all of t2 at an inf
            visits += min(column[-1], n2)
            max_v[h] = max(max_v[h], len(column) - 1 - (column[-1] == inf))
            diag += 1
        if h > 1 and level == below:
            # level h+1 would be computed from level h exactly as level h
            # was from level h-1, so every deeper level repeats level h
            for deeper in range(h + 1, f + 1):
                tables[deeper] = level
                max_v[deeper] = max_v[h]
            break
    if stats is not None:
        stats.cell_visits += visits
        stats.lcsuf_lookups += lookups
    return DiagonalRun(tables, max_v, inf, f)


def slcs_diagonal(
    t1: bytes | str,
    t2: bytes | str,
    f: int,
    stats: SolveStats | None = None,
) -> int:
    """Segmental LCS length via the sparse diagonal tables."""
    run = diagonal_run(t1, t2, f, stats=stats)
    return run.max_v_idx[run.f]
