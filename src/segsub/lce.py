"""Longest-common-suffix-of-prefixes queries over two texts.

lcsuf(i, j) is the largest x with t1[i-x+1..i] == t2[j-x+1..j] (1-based).
``LcsufIndex`` holds what answers it in constant time: a suffix array, its
LCP array (Kasai et al. 2001) and a sparse table of LCP range minima, built
over the reversed texts joined by a separator outside the byte alphabet.
``lcsuf_matrix`` is the whole table, dense, which the tests check the index
against.
"""

from __future__ import annotations

import numpy as np

from .core import as_text, check_allocation

_SEPARATOR = 256  # one past the byte alphabet, never occurs in a text


def lcsuf_matrix(t1: bytes | str, t2: bytes | str) -> np.ndarray:
    """Dense (n1+1) x (n2+1) table of common-suffix lengths.

    Row and column 0 are zero; x[i, j] = x[i-1, j-1] + 1 when t1[i] == t2[j]
    and 0 otherwise. Each distinct symbol c of t1 gets one int32 mask
    (t2 == c), and row i is row i-1 shifted right, plus one, times the mask
    of t1[i], computed in place.
    """
    t1, t2 = as_text(t1), as_text(t2)
    n1, n2 = len(t1), len(t2)
    symbols = set(t1)
    check_allocation(
        4 * ((n1 + 1) * (n2 + 1) + len(symbols) * n2), "the lcsuf matrix"
    )
    x = np.zeros((n1 + 1, n2 + 1), dtype=np.int32)
    b = np.frombuffer(t2, dtype=np.uint8)
    masks = {c: (b == c).astype(np.int32) for c in symbols}
    for i, c in enumerate(t1, start=1):
        row = x[i, 1:]
        np.add(x[i - 1, :-1], 1, out=row)
        row *= masks[c]
    return x


def _suffix_array(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Suffix array and its inverse (the rank of each suffix) by prefix
    doubling: each round sorts one dense key rank * (n + 1) + second."""
    n = len(s)
    order = np.argsort(s, kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.cumsum(np.r_[0, np.diff(s[order]) != 0])
    k = 1
    while k < n and rank[order[-1]] != n - 1:
        # the pair (rank at p, 1 + rank at p + k, or 0 past the end) as one key
        key = rank * (n + 1)
        key[: n - k] += rank[k:] + 1
        order = np.argsort(key)
        rank[order] = np.cumsum(np.r_[0, np.diff(key[order]) != 0])
        k *= 2
    # the ranks are now distinct, so they are the inverse of the order
    return order, rank


def _lcp_array(s: list[int], sa: list[int], inv: list[int]) -> list[int]:
    """Kasai's algorithm; lcp[r] compares suffixes sa[r] and sa[r+1]."""
    n = len(sa)
    s = s + [-1]  # an end marker unlike every symbol stops each comparison
    lcp = [0] * max(0, n - 1)
    k = 0
    for i, r in enumerate(inv):
        if r == n - 1:
            k = 0
            continue
        j = sa[r + 1]
        while s[i + k] == s[j + k]:
            k += 1
        lcp[r] = k
        if k:
            k -= 1
    return lcp


def _sparse_levels(values: list[int]) -> list[list[int]]:
    """Sparse table for range minima: levels[k][r] = min(values[r:r + 2**k])."""
    level = np.asarray(values, dtype=np.int64)
    levels = [level]
    size = 1
    while 2 * size <= len(values):
        level = np.minimum(level[:-size], level[size:])
        levels.append(level)
        size *= 2
    return [lv.tolist() for lv in levels]


class LcsufIndex:
    """Constant-time lcsuf queries after preprocessing two texts.

    The query structures are plain lists, so that a hot loop can bind them
    and read them without a call per query: ``rank1[i]`` and ``rank2[j]``
    (i, j >= 1) are the suffix-array ranks of the reversed prefixes
    t1[1..i] and t2[1..j], and for r1 < r2 lcsuf is the minimum of the LCP
    array over r1..r2-1, which ``levels`` answers as a sparse table of
    minima.
    """

    mode = "suffix-array"  # the only backend; kept for callers that log it

    def __init__(self, t1: bytes | str, t2: bytes | str):
        t1, t2 = as_text(t1), as_text(t2)
        n1 = len(t1)
        joined = list(t1[::-1]) + [_SEPARATOR] + list(t2[::-1])
        sa, rank = _suffix_array(np.asarray(joined, dtype=np.int64))
        inv = rank.tolist()
        # reversed t1[1..i] starts at n1 - i, reversed t2[1..j] at
        # n1 + 1 + n2 - j; index 0 of both holds the separator's rank
        self.rank1 = inv[n1::-1]
        self.rank2 = [inv[n1]] + inv[:n1:-1]
        self.levels = _sparse_levels(_lcp_array(joined, sa.tolist(), inv))
