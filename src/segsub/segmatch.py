"""Polynomial-time solvers for segment-budgeted subsequence matching.

``min_segments`` runs a block-deletion dynamic program over two cost tables
D and E, where D tracks states that just deleted a text symbol, one pattern
column at a time. The f <= 2 decision is one bit-parallel pass over the
pattern: Baeza-Yates and Gonnet's Shift-And with the bits over the text,
extended to one gap as in Navarro and Raffinot, carrying the ends of each
prefix in one piece and in at most two. ``sege`` picks its path from the
budget alone: substring search at f = 1, that decider at f = 2, the dynamic
program otherwise.
"""

from __future__ import annotations

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


def seg2_linear(t: bytes | str, p: bytes | str) -> bool:
    """Decide membership with at most two segments in one pass over ``p``
    (Shift-And extended to a pattern with one gap, the bits over the text).
    After p[:k], bit e of ``one`` is set where p[:k] ends at 1-based position
    e in one piece, and bit e of ``two`` where it ends there in at most two.
    A second piece may start anywhere from the first one-piece end on: -one
    sets that end's bit and every bit above it that ``one`` lacks, and ``two``
    holds ``one``, so ``two | -one`` covers them all. Takes O(s*n +
    k*ceil(n/w)) time and s masks of n bits, where k <= m is the number of
    pattern symbols read before no two-piece prefix survives, s <= min(k,
    256) the distinct symbols among them and w the int digit width. The name
    dates from a linear Knuth-Morris-Pratt pass, and stays because callers
    import it."""
    t, p = as_text(t), as_text(p)
    text = np.frombuffer(t, dtype=np.uint8)
    masks: dict[int, int] = {}
    one = two = -1  # every bit set: the empty prefix ends everywhere
    for c in p:
        if c not in masks:  # bit e set where t[e-1] == c
            bits = np.packbits(text == c, bitorder="little")
            masks[c] = int.from_bytes(bits.tobytes(), "little") << 1
        two = ((two | -one) << 1) & masks[c]
        if not two:
            return False
        one = (one << 1) & masks[c]
    return True


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
