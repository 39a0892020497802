"""Polynomial-time solvers for segment-budgeted subsequence matching.

``min_segments`` runs a block-deletion dynamic program over two cost tables
D and E, where D tracks states that just deleted a text symbol. The f <= 2
decision runs in linear time from a Knuth-Morris-Pratt prefix-function pass
that keeps only the first end of each pattern prefix, run forward and over
the reversed strings. ``sege`` picks its path from the budget alone:
substring search at f = 1, the linear decider at f = 2, the dynamic program
otherwise.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator

import numpy as np

from .core import as_text, check_budget


def _cost_rows(t: bytes, p: bytes) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield the rows (D[i], E[i]) of the block-deletion tables for i = 0..n.

    D[i][j] = min(D[i-1][j], E[i-1][j] + 1) pays for opening a deleted block;
    E[i][j] = min(E[i-1][j-1], D[i][j]) when t[i] == p[j], else D[i][j].
    Column 0 is 0 (free prefix deletion); row 0 is ``inf`` = n+m+1 past it.
    Each row depends only on the previous one, so it is computed whole.
    """
    n, m = len(t), len(p)
    d = np.full(m + 1, n + m + 1, dtype=np.int64)
    d[0] = 0
    e = d.copy()
    yield d, e
    pattern = np.frombuffer(p, dtype=np.uint8)
    matches = {c: pattern == c for c in set(t)}
    for c in t:
        # D stays <= inf, so an unreachable E' (= inf) never wins the minimum
        d = np.minimum(d, e + 1)
        e_prev, e = e, d.copy()
        np.minimum(e_prev[:-1], d[1:], out=e[1:], where=matches[c])
        yield d, e


def min_segments(t: bytes | str, p: bytes | str) -> int | None:
    """Smallest f making ``p`` an f-segmental subsequence of ``t``.

    Computes d+1 where d is the cheapest way to delete blocks from ``t`` to
    leave ``p``, with free prefix/suffix deletion and unit cost for opening
    each interior block. None when ``p`` is not a subsequence of ``t``.
    """
    t, p = as_text(t), as_text(p)
    best = min(int(e[-1]) for _, e in _cost_rows(t, p))
    return best + 1 if best < len(t) + len(p) + 1 else None


def _first_ends(p: bytes, t: bytes | memoryview) -> list[int]:
    """first[k]: the least 1-based end in ``t`` of an occurrence of p[:k], or
    len(t) + 1 if none, for k = 0..len(p). One Knuth-Morris-Pratt prefix-
    function pass over p, a separator and t, storing the function for p only;
    the state grows by at most one per symbol, so first[k] is where it first
    passes its running top."""
    m = len(p)
    first = [0] + [len(t) + 1] * m
    s = [*p, -1]  # p, then a separator that matches no byte: full matches fall back
    pi = [0] * m
    q = top = 0
    for i, c in enumerate(chain(s[1:], t), start=1):
        while q and s[q] != c:
            q = pi[q - 1]
        if s[q] == c:
            q += 1
        if i < m:
            pi[i] = q
        elif q > top:
            top = q
            first[q] = i - m
    return first


def seg2_linear(t: bytes | str, p: bytes | str) -> bool:
    """Decide membership with at most two segments in O(n + m) time and O(m)
    extra space: accept when some split p = u.v has the first occurrence of u
    ending before the last occurrence of v starts. Unless p occurs whole, a
    second pass over reversed views reads all of t, with no early exit."""
    t, p = as_text(t), as_text(p)
    n, m = len(t), len(p)
    head = _first_ends(p, t)
    if head[m] <= n:
        return True  # the pattern occurs as a factor
    tail = _first_ends(p[::-1], memoryview(t)[::-1])
    return any(head[k] + tail[m - k] <= n for k in range(m + 1))


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
