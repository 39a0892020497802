"""Two solvers for the segmental LCS length, plus witness reconstruction.

``slcs_baseline`` fills the prefix table C(i, j, h) layer by layer in
O(f*n1*n2) time; each layer is the 2D running maximum of the candidate
matrix Z(i, j) = x + C(i-x, j-x, h-1) with x the common-suffix length, so a
layer reduces to one gather and two cumulative maxima.

``slcs_diagonal`` fills sparse shortest-prefix tables L(i, s, h) one
diagonal (i - s = const) at a time with a non-resetting scan pointer over
the longer text, skipping whole diagonals that can no longer improve the
answer; when the solution is long it touches only a sliver of each table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .core import Embedding, Segmentation, as_text, check_budget
from .lce import LcsufIndex, lcsuf_matrix

_GATHER_BLOCK = 512  # rows gathered at a time; bounds temp memory on big inputs


@dataclass
class SolveStats:
    """Machine-independent work counters filled in by the solvers."""

    cell_visits: int = 0


def _clamp_budget(f: int, shorter: int) -> int:
    # a shared segmentation never needs more segments than the common string
    # has characters, and that is capped by the shorter text
    return max(1, min(f, shorter))


def _chain_layers(x: np.ndarray, f: int) -> Iterator[np.ndarray]:
    """Yield the prefix-table layers C[h] for h = 0..f from the common-suffix
    table ``x``; only the previous layer is kept between steps."""
    n1, n2 = x.shape[0] - 1, x.shape[1] - 1
    cols = np.arange(1, n2 + 1, dtype=np.int32)
    # np.zeros leaves C[0]'s pages untouched (zeros_like would write them)
    prev = np.zeros(x.shape, dtype=x.dtype)
    yield prev
    for _ in range(f):
        cur = np.zeros_like(x)
        for lo in range(1, n1 + 1, _GATHER_BLOCK):
            hi = min(lo + _GATHER_BLOCK, n1 + 1)
            xb = x[lo:hi, 1:]
            rows = np.arange(lo, hi, dtype=np.int32)[:, None]
            cur[lo:hi, 1:] = xb + prev[rows - xb, cols - xb]
        np.maximum.accumulate(cur, axis=0, out=cur)
        np.maximum.accumulate(cur, axis=1, out=cur)
        yield cur
        prev = cur


def slcs_baseline(
    t1: bytes | str, t2: bytes | str, f: int, stats: SolveStats | None = None
) -> int:
    """Segmental LCS length via the layered prefix-table recurrence."""
    check_budget(f)
    t1, t2 = as_text(t1), as_text(t2)
    n1, n2 = len(t1), len(t2)
    if n1 == 0 or n2 == 0:
        return 0
    f = _clamp_budget(f, min(n1, n2))
    for layer in _chain_layers(lcsuf_matrix(t1, t2), f):
        pass
    if stats is not None:
        stats.cell_visits += f * n1 * n2
    return int(layer[n1, n2])


def chain_table(t1: bytes | str, t2: bytes | str, f: int) -> list[np.ndarray]:
    """All layers C[h][i, j] for h = 0..f (no budget clamping; test helper)."""
    check_budget(f)
    return list(_chain_layers(lcsuf_matrix(as_text(t1), as_text(t2)), f))


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
    f_used = _clamp_budget(f, min(n1, n2)) if n1 and n2 else 1
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
    Levels dropped by the two-layer memory policy are None.
    """

    tables: list[list[list[int]] | None]
    max_v_idx: list[int]
    infinity: int
    n1: int
    n2: int
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
    """Run the diagonal algorithm; the shorter text drives the diagonals."""
    check_budget(f)
    t1, t2 = as_text(t1), as_text(t2)
    if len(t1) > len(t2):
        t1, t2 = t2, t1
    n1, n2 = len(t1), len(t2)
    if n1 == 0:
        return DiagonalRun([None, []], [0, 0], n2 + 1, n1, n2, 1)
    f = _clamp_budget(f, n1)
    inf = n2 + 1
    index = LcsufIndex(t1, t2)
    query = index.query

    tables: list[list[list[int]] | None] = [None] + [[] for _ in range(f)]
    max_v = [0] * (f + 1)

    def lookup(h: int, diag: int, s: int) -> int:
        # L(s + diag, s, h); uninitialized cells are infinite
        if s <= 0:
            return 0 if s == 0 else inf
        if h == 0 or diag < 0:
            return inf
        level = tables[h]
        if diag >= len(level):
            return inf
        column = level[diag]
        return column[s] if s < len(column) else inf

    def fill_diagonally(h: int, diag: int) -> int:
        column = tables[h][diag]
        j = 1
        visits = 0
        for s in range(1, n1 - diag + 1):
            i = s + diag
            value = inf
            while j <= n2:
                visits += 1
                x = query(i, j)
                if x > s:
                    x = s
                if j == lookup(h, diag - 1, s) or (
                    x > 0 and j >= x + lookup(h - 1, diag, s - x)
                ):
                    value = j
                    break
                j += 1
            column.append(value)
            if value == inf:
                # deeper cells on this diagonal are infinite as well
                if s - 1 > max_v[h]:
                    max_v[h] = s - 1
                return visits
            j += 1
        if n1 - diag > max_v[h]:
            max_v[h] = n1 - diag
        return visits

    for h in range(1, f + 1):
        if not keep_tables and h >= 3:
            tables[h - 2] = None  # only levels h-1 and h stay resident
        diag = 0
        while diag < n1 - max_v[h]:
            tables[h].append([0])
            visits = fill_diagonally(h, diag)
            if stats is not None:
                stats.cell_visits += visits
            diag += 1
    return DiagonalRun(tables, max_v, inf, n1, n2, f)


def slcs_diagonal(
    t1: bytes | str,
    t2: bytes | str,
    f: int,
    stats: SolveStats | None = None,
) -> int:
    """Segmental LCS length via the sparse diagonal tables."""
    run = diagonal_run(t1, t2, f, stats=stats)
    return run.max_v_idx[run.f]


def dump_diagonal_tables(run: DiagonalRun) -> str:
    """Sparse-table dump, one ``h diag s value`` line per stored cell."""
    lines = []
    for h, i, s, value in run.cells():
        shown = "inf" if value >= run.infinity else str(value)
        lines.append(f"{h} {i - s} {s} {shown}")
    return "\n".join(lines) + ("\n" if lines else "")
