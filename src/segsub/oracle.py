"""Exponential-time reference implementations used as ground truth in tests.

Each function searches the whole space of answers by a route independent of
the solvers: ``min_segments_bruteforce`` walks every embedding,
``slcs_bruteforce`` is a memoised recursion over (i1, i2, remaining,
open), ``indseglcs_bruteforce`` enumerates subsequences and
``episode_bruteforce`` scans every window. Inputs are capped at
``DEFAULT_SIZE_LIMIT`` symbols; only ``min_segments_bruteforce`` takes
another cap per call.
"""

from __future__ import annotations

from functools import lru_cache

from .core import as_text, check_budget

DEFAULT_SIZE_LIMIT = 14


class OracleLimitError(Exception):
    """An input exceeded the brute-force size limit."""


def _check_sizes(*texts: bytes, limit: int = DEFAULT_SIZE_LIMIT) -> None:
    for t in texts:
        if len(t) > limit:
            raise OracleLimitError(
                f"brute force capped at length {limit}, got {len(t)}"
            )


def min_segments_bruteforce(
    t: bytes | str, p: bytes | str, limit: int = DEFAULT_SIZE_LIMIT
) -> int | None:
    """Smallest segment count over all embeddings of ``p`` into ``t``.

    Recursive match-or-skip over text positions, counting a new segment
    whenever a match does not extend the previous one. None when ``p`` is not
    a subsequence of ``t``.
    """
    t, p = as_text(t), as_text(p)
    _check_sizes(t, p, limit=limit)
    if not p:
        return 1
    n, m = len(t), len(p)
    best: int | None = None

    def walk(ti: int, pi: int, segments: int, contiguous: bool) -> None:
        nonlocal best
        if pi == m:
            if best is None or segments < best:
                best = segments
            return
        if n - ti < m - pi or (best is not None and segments >= best):
            return
        if t[ti] == p[pi]:
            walk(ti + 1, pi + 1, segments if contiguous else segments + 1, True)
        walk(ti + 1, pi, segments, False)

    walk(0, 0, 0, False)
    return best


def slcs_bruteforce(t1: bytes | str, t2: bytes | str, f: int) -> int:
    """Longest string with one f-segmentation embeddable in both texts.

    Walks both texts in lockstep; a segment may only be extended while both
    sides advanced contiguously, so segment boundaries stay synchronized.
    """
    check_budget(f)
    t1, t2 = as_text(t1), as_text(t2)
    _check_sizes(t1, t2)
    n1, n2 = len(t1), len(t2)
    if n1 == 0 or n2 == 0:
        return 0
    budget = min(f, n1, n2)

    @lru_cache(maxsize=None)
    def best(i1: int, i2: int, remaining: int, open_segment: bool) -> int:
        if i1 == n1 or i2 == n2:
            return 0
        out = best(i1 + 1, i2, remaining, False)
        skip2 = best(i1, i2 + 1, remaining, False)
        if skip2 > out:
            out = skip2
        if t1[i1] == t2[i2]:
            if open_segment:
                take = 1 + best(i1 + 1, i2 + 1, remaining, True)
                if take > out:
                    out = take
            if remaining > 0:
                take = 1 + best(i1 + 1, i2 + 1, remaining - 1, True)
                if take > out:
                    out = take
        return out

    result = best(0, 0, budget, False)
    best.cache_clear()
    return result


def indseglcs_bruteforce(t1: bytes | str, t2: bytes | str, f1: int, f2: int) -> int:
    """Longest string within both per-text segment budgets.

    Enumerates the distinct subsequences of the shorter text by bitmask and
    keeps those whose brute-force minimum segment count fits each budget.
    """
    check_budget(f1)
    check_budget(f2)
    t1, t2 = as_text(t1), as_text(t2)
    _check_sizes(t1, t2)
    if len(t1) <= len(t2):
        short, other, f_short, f_other = t1, t2, f1, f2
    else:
        short, other, f_short, f_other = t2, t1, f2, f1
    seen: set[bytes] = set()
    best = 0
    for mask in range(1 << len(short)):
        u = bytes(c for k, c in enumerate(short) if mask >> k & 1)
        if len(u) <= best or u in seen:
            continue
        seen.add(u)
        a = min_segments_bruteforce(short, u)
        if a is None or a > f_short:
            continue
        b = min_segments_bruteforce(other, u)
        if b is not None and b <= f_other:
            best = len(u)
    return best


def episode_bruteforce(t: bytes | str, p: bytes | str, h: int) -> bool:
    """Does some factor of ``t`` of length at most ``h`` contain ``p`` as a
    classic subsequence?"""
    if not isinstance(h, int) or isinstance(h, bool) or h < 1:
        raise ValueError(f"window bound must be a positive integer, got {h!r}")
    t, p = as_text(t), as_text(p)
    _check_sizes(t, p)
    if not p:
        return True
    for start in range(len(t)):
        k = 0
        for c in t[start : start + h]:
            if c == p[k]:
                k += 1
                if k == len(p):
                    return True
    return False
