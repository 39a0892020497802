"""Polynomial-time solvers for segment-budgeted subsequence matching.

Small budgets are answered by one bit-parallel pass over the pattern:
Baeza-Yates and Gonnet's Shift-And with the bits over the text, extended to
gaps as in Navarro and Raffinot. ``_layers`` keeps one int per budget, the
ends of the prefix read so far in at most that many pieces, and takes
O(s*n + f*k*ceil(n/w)) time at cap f, where k <= m is the number of pattern
symbols read before the top layer dies, s <= min(k, 256) the distinct symbols
among them and w the int digit width. ``seg2_linear`` is that pass at f = 2
with its two ints unrolled: the general loop was 8-20% slower there, and
``sege(f=2)`` is about half of the ``match`` benchmark's time.

``min_segments`` runs ``_layers`` with a cap of 8, whose lowest live layer
after the last symbol is the exact answer when it is at most 8. Otherwise
it runs the O(mn) block-deletion dynamic program over two cost tables D and
E, where D tracks states that just deleted a text symbol, one pattern column
at a time. ``sege`` picks its path from the budget alone: substring search
at f = 1, ``seg2_linear`` at f = 2, ``_layers`` for 3 <= f <= 16 and
``min_segments`` above that.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .core import as_text, check_allocation, check_budget

_FIRST_CAP = 8  # min_segments' bit-parallel pass, before the dynamic program
_SEGE_CAP = 16  # the largest budget that sege decides by the bit-parallel pass


def _mask(text: np.ndarray, c: int) -> int:
    """The text mask of symbol c: bit e set where t[e-1] == c."""
    bits = np.packbits(text == c, bitorder="little")
    return int.from_bytes(bits.tobytes(), "little") << 1


def _layers(t: bytes, p: bytes, cap: int) -> int | None:
    """The smallest f <= cap making ``p`` an f-segmental subsequence of ``t``,
    or None. After p[:j], bit e of ``S[k]`` is set where p[:j] ends at
    1-based position e in at most k+1 pieces. A new piece may start anywhere
    from the first end in k pieces on, so ``S[k] | -S[k-1]`` covers every
    start, as ``two | -one`` does in ``seg2_linear``. The budgets update from
    the top down, so S[k-1] still holds the last step's ends. A dead layer
    stays dead: the layers below ``low`` are never touched again, and the
    pass stops as soon as the top layer dies."""
    text = np.frombuffer(t, dtype=np.uint8)
    masks: dict[int, int] = {}
    S, low, top = [-1] * cap, 0, cap - 1  # the empty prefix ends everywhere
    for c in p:
        if c not in masks:
            masks[c] = _mask(text, c)
        mask = masks[c]
        for k in range(top, low, -1):
            S[k] = ((S[k] | -S[k - 1]) << 1) & mask
        S[low] = (S[low] << 1) & mask
        if not S[top]:
            return None
        while not S[low]:
            low += 1
    return low + 1


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

    Up to 8 it is the answer of one bit-parallel pass, ``_layers`` at cap 8,
    in O(s*n + 8*k*ceil(n/w)) time. Above 8, or with no embedding, that pass
    stops when its top layer dies, and the dynamic program computes d+1,
    where d is the cheapest way to delete blocks from ``t`` to leave ``p``,
    with free prefix/suffix deletion and unit cost for opening each interior
    block, in O(mn) time. None when ``p`` is not a subsequence of ``t``.
    """
    t, p = as_text(t), as_text(p)
    needed = _layers(t, p, _FIRST_CAP)
    if needed is not None:
        return needed
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
    holds ``one``, so ``two | -one`` covers them all. This is ``_layers`` at
    cap 2, kept as its own two-int loop because it is faster. Takes O(s*n +
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
        if c not in masks:
            masks[c] = _mask(text, c)
        two = ((two | -one) << 1) & masks[c]
        if not two:
            return False
        one = (one << 1) & masks[c]
    return True


def sege(t: bytes | str, p: bytes | str, f: int) -> bool:
    """Decide whether ``p`` embeds into ``t`` with at most ``f`` segments:
    substring search at f = 1, ``seg2_linear`` at f = 2, the bit-parallel
    pass at cap f for 3 <= f <= 16, in O(s*n + f*k*ceil(n/w)) time, and
    ``min_segments`` above that."""
    check_budget(f)
    t, p = as_text(t), as_text(p)
    if f == 1:
        return p in t
    if f == 2:
        return seg2_linear(t, p)
    if f <= _SEGE_CAP:
        return _layers(t, p, f) is not None
    needed = min_segments(t, p)
    return needed is not None and needed <= f
