"""Polynomial-time solvers for segment-budgeted subsequence matching.

``min_segments`` runs a block-deletion dynamic program over two cost tables
D and E, where D tracks states that just deleted a text symbol, one pattern
column at a time. The f <= 2 decision finds the first end of each pattern
prefix with a bit-parallel pass (Baeza-Yates and Gonnet's Shift-And with the
bits over the text), run forward and over the reversed strings. ``sege``
picks its path from the budget alone: substring search at f = 1, that
decider at f = 2, the dynamic program otherwise.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator

import numpy as np

from .core import as_text, check_allocation, check_budget


def _cost_columns(t: bytes, p: bytes) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield the columns (D[:, j], E[:, j]) of the block-deletion tables for
    j = 0..m, each a new array over text positions i = 0..n. For i, j >= 1,
    D[i][j] = min(D[i-1][j], E[i-1][j] + 1) pays for opening a deleted block;
    E[i][j] = min(E[i-1][j-1], D[i][j]) when t[i] == p[j], else D[i][j].
    Column 0 is 0 (free prefix deletion); row 0 is ``inf`` = n+m+1 past it.

    In column j let A[i] = E[i-1][j-1] where t[i] == p[j], else inf (and
    A[0] = inf), so E[i] = min(A[i], D[i]). Put into D's recurrence, that
    gives D[i] = min(D[i-1], A[i-1] + 1) = 1 + min(inf - 1, A[0..i-1]): one
    running minimum. A mismatch holds E[i-1][j-1] + inf + 1 > D[i] in A, not
    inf, and neither minimum picks it.
    """
    n, inf = len(t), len(t) + len(p) + 1
    check_allocation(8 * n * len(set(p)), "the min_segments symbol offsets")
    text = np.frombuffer(t, dtype=np.uint8)
    offset = {c: np.where(text == c, 0, np.int64(inf + 1)) for c in set(p)}
    e = np.zeros(n + 1, dtype=np.int64)
    yield e.copy(), e
    a = np.empty(n + 2, dtype=np.int64)  # a[i + 1] = A[i]
    a[:2] = inf - 1, inf
    for c in p:
        np.add(e[:-1], offset[c], out=a[2:])
        d = np.minimum.accumulate(a[:-1]) + 1
        e = np.minimum(a[1:], d)
        yield d, e


def min_segments(t: bytes | str, p: bytes | str) -> int | None:
    """Smallest f making ``p`` an f-segmental subsequence of ``t``.

    Computes d+1 where d is the cheapest way to delete blocks from ``t`` to
    leave ``p``, with free prefix/suffix deletion and unit cost for opening
    each interior block. None when ``p`` is not a subsequence of ``t``.
    """
    t, p = as_text(t), as_text(p)
    for _, e in _cost_columns(t, p):
        pass
    best = int(e.min())
    return best + 1 if best < len(t) + len(p) + 1 else None


def _prefix_ends(p: bytes, t: bytes | memoryview) -> Iterator[int]:
    """Yield the least 1-based end in ``t`` of p[:k] for k = 1, 2, ..., while
    p[:k] occurs. Bit s of ``starts`` is set while p[:k] occurs at 0-based
    start s, so one AND per pattern symbol, over ceil(n/w) int digits, moves
    k on; the mask of each distinct symbol reached costs O(n) once."""
    text = np.frombuffer(bytes(t), dtype=np.uint8)
    masks: dict[int, int] = {}
    starts = (1 << (len(text) + 1)) - 1
    for k, c in enumerate(p):
        if c not in masks:  # bit i set where t[i] == c
            bits = np.packbits(text == c, bitorder="little")
            masks[c] = int.from_bytes(bits.tobytes(), "little")
        starts &= masks[c] >> k
        if not starts:
            return
        yield (starts & -starts).bit_length() + k


def _first_ends(p: bytes, t: bytes | memoryview) -> list[int]:
    """first[k]: the least 1-based end in ``t`` of an occurrence of p[:k], or
    len(t) + 1 if none, for k = 0..len(p)."""
    first = [0, *_prefix_ends(p, t)]
    return first + [len(t) + 1] * (len(p) + 1 - len(first))


def seg2_linear(t: bytes | str, p: bytes | str) -> bool:
    """Decide membership with at most two segments: accept when some split
    p = u.v has the first occurrence of u ending before the last occurrence
    of v starts. Each pass takes O(s*n + k*ceil(n/w)) time and s masks of n
    bits, where k <= m is the number of pattern symbols it reads before no
    start survives or a split accepts, s <= min(k, 256) the distinct symbols
    among them and w the int digit width. The name dates from a linear
    Knuth-Morris-Pratt pass, and stays because callers import it; that pass
    only wins when a long prefix or suffix of p recurs all along t."""
    t, p = as_text(t), as_text(p)
    head = _first_ends(p, t)
    tail = chain([0], _prefix_ends(p[::-1], t[::-1]))  # tail[k] for k = 0, 1, ...
    return any(head[len(p) - k] + end <= len(t) for k, end in enumerate(tail))


def sege(t: bytes | str, p: bytes | str, f: int) -> bool:
    """Decide whether ``p`` embeds into ``t`` with at most ``f`` segments."""
    check_budget(f)
    t, p = as_text(t), as_text(p)
    if f == 1:
        return p in t
    if f == 2:
        return seg2_linear(t, p)
    needed = min_segments(t, p)
    return needed is not None and needed <= f
