"""Longest-common-suffix-of-prefixes queries over two texts.

``query(i, j)`` returns the largest x with t1[i-x+1..i] == t2[j-x+1..j]
(1-based). Two interchangeable backends: a dense quadratic table, and a
suffix array + LCP + sparse-table RMQ built over the reversed texts joined
by a separator outside the byte alphabet.
"""

from __future__ import annotations

import numpy as np

from .core import as_text

QUADRATIC_CELL_LIMIT = 10**6  # auto mode switches to the suffix array above this
_SEPARATOR = 256  # one past the byte alphabet, never occurs in a text

MODES = ("auto", "quadratic", "suffix-array")


def lcsuf_matrix(t1: bytes, t2: bytes) -> np.ndarray:
    """Dense (n1+1) x (n2+1) table of common-suffix lengths.

    Row and column 0 are zero; x[i, j] = x[i-1, j-1] + 1 when t1[i] == t2[j]
    and 0 otherwise.
    """
    n1, n2 = len(t1), len(t2)
    x = np.zeros((n1 + 1, n2 + 1), dtype=np.int32)
    if n1 and n2:
        a = np.frombuffer(t1, dtype=np.uint8)
        b = np.frombuffer(t2, dtype=np.uint8)
        eq = a[:, None] == b[None, :]
        for i in range(1, n1 + 1):
            x[i, 1:] = np.where(eq[i - 1], x[i - 1, :-1] + 1, 0)
    return x


def _suffix_array(s: np.ndarray) -> np.ndarray:
    """Suffix array by prefix doubling over dense ranks."""
    n = len(s)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    order = np.argsort(s, kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.cumsum(np.r_[0, np.diff(s[order]) != 0])
    k = 1
    while k < n and rank[order[-1]] != n - 1:
        second = np.full(n, -1, dtype=np.int64)
        second[: n - k] = rank[k:]
        order = np.lexsort((second, rank))
        changed = (np.diff(rank[order]) != 0) | (np.diff(second[order]) != 0)
        new_rank = np.empty(n, dtype=np.int64)
        new_rank[order] = np.cumsum(np.r_[0, changed])
        rank = new_rank
        k *= 2
    return order


def _lcp_array(s: list[int], sa: np.ndarray) -> tuple[list[int], list[int]]:
    """Kasai's algorithm; lcp[r] compares suffixes sa[r] and sa[r+1]."""
    n = len(sa)
    inv = [0] * n
    for r, pos in enumerate(sa.tolist()):
        inv[pos] = r
    lcp = [0] * max(0, n - 1)
    k = 0
    for i in range(n):
        r = inv[i]
        if r == n - 1:
            k = 0
            continue
        j = int(sa[r + 1])
        while i + k < n and j + k < n and s[i + k] == s[j + k]:
            k += 1
        lcp[r] = k
        if k:
            k -= 1
    return lcp, inv


class _SparseMin:
    """Static range-minimum structure with O(1) queries."""

    def __init__(self, values: list[int]):
        level = np.asarray(values, dtype=np.int64)
        n = len(level)
        self._levels = [level]
        size = 1
        while 2 * size <= n:
            level = np.minimum(level[:-size], level[size:])
            self._levels.append(level)
            size *= 2

    def query(self, lo: int, hi: int) -> int:
        # minimum of values[lo..hi], inclusive; caller guarantees lo <= hi
        k = (hi - lo + 1).bit_length() - 1
        level = self._levels[k]
        return int(min(level[lo], level[hi - (1 << k) + 1]))


class LcsufIndex:
    """Constant-time lcsuf queries after preprocessing two texts."""

    def __init__(self, t1: bytes | str, t2: bytes | str, mode: str = "auto"):
        if mode not in MODES:
            raise ValueError(f"unknown index mode {mode!r}")
        self.t1 = as_text(t1)
        self.t2 = as_text(t2)
        n1, n2 = len(self.t1), len(self.t2)
        if mode == "auto":
            mode = "quadratic" if n1 * n2 <= QUADRATIC_CELL_LIMIT else "suffix-array"
        self.mode = mode
        self.matrix: np.ndarray | None = None
        if mode == "quadratic":
            self.matrix = lcsuf_matrix(self.t1, self.t2)
        else:
            joined = (
                list(self.t1[::-1]) + [_SEPARATOR] + list(self.t2[::-1])
            )
            sa = _suffix_array(np.asarray(joined, dtype=np.int64))
            lcp, inv = _lcp_array(joined, sa)
            self._inv = inv
            self._rmq = _SparseMin(lcp) if lcp else None

    def query(self, i: int, j: int) -> int:
        """lcsuf(t1[1..i], t2[1..j]); zero when either prefix is empty."""
        n1, n2 = len(self.t1), len(self.t2)
        if not 0 <= i <= n1:
            raise IndexError(f"i must be in 0..{n1}, got {i}")
        if not 0 <= j <= n2:
            raise IndexError(f"j must be in 0..{n2}, got {j}")
        if i == 0 or j == 0:
            return 0
        if self.matrix is not None:
            return int(self.matrix[i, j])
        r1 = self._inv[n1 - i]
        r2 = self._inv[n1 + 1 + (n2 - j)]
        if r1 > r2:
            r1, r2 = r2, r1
        return self._rmq.query(r1, r2 - 1)

