"""Polynomial-time solvers for segment-budgeted subsequence matching.

``min_segments`` runs a block-deletion dynamic program over two cost tables
D and E, where D tracks states that just deleted a text symbol. The f <= 2
decision runs in linear time from two automaton passes, keeping only the
breakpoints of the running-maximum prefix array between them. ``sege``
picks its path from the budget alone: substring search at f = 1, the linear
decider at f = 2, the dynamic program otherwise.
"""

from __future__ import annotations

from typing import Iterable, Iterator

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


class KmpAutomaton:
    """Failure-function automaton reporting, per fed symbol, the length of the
    longest pattern prefix ending there (restart-on-full-match semantics)."""

    def __init__(self, pattern: bytes | str):
        self.pattern = as_text(pattern)
        # fail[q + 1] is the state reached on p[1..q]; the scan reads only
        # entries it has already appended
        self.fail = [0, 0]
        self.fail.extend(self.states(self.pattern[1:]))

    def states(self, text: Iterable[int]) -> Iterator[int]:
        """Yield the automaton state after each symbol of ``text``."""
        pattern, fail = self.pattern, self.fail
        m = len(pattern)
        if m == 0:
            for _ in text:
                yield 0
            return
        state = 0
        for c in text:
            if state == m:
                state = fail[m]
            while state and pattern[state] != c:
                state = fail[state]
            if pattern[state] == c:
                state += 1
            yield state


def llpf_breakpoints(lpf: Iterable[int]) -> list[tuple[int, int]]:
    """(position, value) pairs where the running maximum of lpf strictly
    increases; at most |p|+1 entries since values range over 0..|p|."""
    breakpoints = []
    top = 0
    for idx, value in enumerate(lpf, start=1):
        if value > top:
            top = value
            breakpoints.append((idx, value))
    return breakpoints


def seg2_linear(t: bytes | str, p: bytes | str) -> bool:
    """Decide membership with at most two segments in O(n+m) time, O(m) space.

    Pass 1 streams the prefix automaton and stores only llpf breakpoints;
    pass 2 streams suffix lengths right to left and stops at the first
    position where llpf[i-1] + lsf[i] covers the whole pattern.
    """
    t, p = as_text(t), as_text(p)
    n, m = len(t), len(p)
    breakpoints = llpf_breakpoints(KmpAutomaton(p).states(t))
    if (breakpoints[-1][1] if breakpoints else 0) >= m:
        return True  # the pattern occurs as a factor
    k = len(breakpoints) - 1
    suffixes = KmpAutomaton(p[::-1]).states(reversed(t))
    for i, suffix in zip(range(n, 1, -1), suffixes):
        while k >= 0 and breakpoints[k][0] > i - 1:
            k -= 1
        prefix = breakpoints[k][1] if k >= 0 else 0
        if prefix + suffix >= m:
            return True
    return False


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
