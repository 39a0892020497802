"""Shared test oracles kept independent of the solvers they check."""

from __future__ import annotations

import random

import numpy as np

from segsub.core import Embedding, Segmentation, as_text
from segsub.harness import generate_instance
from segsub.independent import _fill, side_config
from segsub.seglcs import (
    SolveStats,
    _table_rows,
    diagonal_levels,
    slcs_baseline,
    slcs_diagonal,
)
from segsub.segmatch import _dp_min_segments


def random_text(rng: random.Random, max_len: int, alphabet: int = 3) -> bytes:
    return bytes(97 + rng.randrange(alphabet) for _ in range(rng.randint(0, max_len)))


def classic_lcs_len(a: bytes, b: bytes) -> int:
    """Textbook LCS dynamic program, two rolling rows."""
    prev = [0] * (len(b) + 1)
    for ca in a:
        cur = [0]
        for j, cb in enumerate(b, start=1):
            if ca == cb:
                cur.append(prev[j - 1] + 1)
            else:
                cur.append(max(prev[j], cur[j - 1]))
        prev = cur
    return prev[len(b)]


def longest_common_substring_len(a: bytes, b: bytes) -> int:
    """Direct scan over all alignments; quadratic, small inputs only."""
    best = 0
    for i in range(len(a)):
        for j in range(len(b)):
            k = 0
            while i + k < len(a) and j + k < len(b) and a[i + k] == b[j + k]:
                k += 1
            if k > best:
                best = k
    return best


def seglcs_visit_counts(
    sizes, f=4, similarity=2, alphabet=8, seed=0
) -> dict[str, list[tuple[int, int, int]]]:
    """(n, answer, cell_visits) per size for the baseline and diagonal solvers.

    One n x n seglcs instance per size, seeded ``seed`` plus the size's index;
    ``similarity`` edits confined to the tail, or uniform texts when None.
    """
    counts = {"baseline": [], "diagonal": []}
    for idx, n in enumerate(sizes):
        t1, t2 = generate_instance(
            (n, n), alphabet=alphabet, seed=seed + idx, similarity=similarity
        )
        for name, solver in (("baseline", slcs_baseline), ("diagonal", slcs_diagonal)):
            stats = SolveStats()
            counts[name].append((n, solver(t1, t2, f, stats=stats), stats.cell_visits))
    return counts


def compute_lpf(t: bytes | str, p: bytes | str) -> list[int]:
    """lpf[i]: length of the longest prefix of ``p`` ending at text position i
    (returned 0-based, value for position i at index i-1)."""
    t, p = as_text(t), as_text(p)
    return [
        max(l for l in range(min(i, len(p)) + 1) if p[:l] == t[i - l : i])
        for i in range(1, len(t) + 1)
    ]


def compute_lsf(t: bytes | str, p: bytes | str) -> list[int]:
    """lsf[i]: length of the longest suffix of ``p`` starting at text position
    i (returned 0-based, value for position i at index i-1)."""
    t, p = as_text(t), as_text(p)
    n, m = len(t), len(p)
    return [
        max(
            l
            for l in range(min(n - i + 1, m) + 1)
            if p[m - l :] == t[i - 1 : i - 1 + l]
        )
        for i in range(1, n + 1)
    ]


def first_ends_by_find(t: bytes, p: bytes) -> list[int]:
    """first[k]: the end of the leftmost occurrence of p[:k] in t, 1-based,
    or len(t) + 1 if there is none, for k = 0..len(p)."""
    starts = [t.find(p[:k]) for k in range(len(p) + 1)]
    return [j + k if j >= 0 else len(t) + 1 for k, j in enumerate(starts)]


def first_reach(values: list[int], m: int) -> list[int]:
    """first[k]: the least 1-based i with values[i-1] >= k, or len(values) + 1,
    for k = 0..m; the first ends of p's prefixes when values is lpf."""
    return [0] + [
        next((i for i, v in enumerate(values, start=1) if v >= k), len(values) + 1)
        for k in range(1, m + 1)
    ]


def llpf_from_first_ends(first: list[int], n: int) -> list[int]:
    """The running maximum of lpf rebuilt from its first ends: llpf[i] is the
    largest k with first[k] <= i (returned 0-based)."""
    return [max(k for k, end in enumerate(first) if end <= i) for i in range(1, n + 1)]


def cost_tables_reference(t: bytes, p: bytes) -> tuple[list, list]:
    """The block-deletion tables D and E as lists of rows, one cell at a time:
    D[i][j] = min(D[i-1][j], E[i-1][j] + 1) and E[i][j] = min(E[i-1][j-1],
    D[i][j]) when t[i] == p[j], else D[i][j], for i, j >= 1. Column 0 is 0;
    row 0 is inf = n+m+1 past it."""
    n, m = len(t), len(p)
    inf = n + m + 1
    D = [[0] + [inf] * m]
    E = [[0] + [inf] * m]
    for i in range(1, n + 1):
        d, e = [0], [0]
        for j in range(1, m + 1):
            d.append(min(D[i - 1][j], E[i - 1][j] + 1))
            e.append(min(E[i - 1][j - 1], d[j]) if t[i - 1] == p[j - 1] else d[j])
        D.append(d)
        E.append(e)
    return D, E


def dp_min_segments(t: bytes | str, p: bytes | str) -> int | None:
    """``min_segments`` from the block-deletion DP alone, so that it checks
    the bit-parallel pass rather than calling it: one more than the cheapest
    deletion cost, or None when p is not a subsequence of t."""
    return _dp_min_segments(as_text(t), as_text(p))


def greedy_subsequence(t: bytes, p: bytes) -> bool:
    it = iter(t)
    return all(c in it for c in p)


def chain_table(t1: bytes, t2: bytes, f: int) -> list:
    """All layers C[h][i, j] for h = 0..f from the baseline's row generator,
    with t1 as the rows and no budget clamping: a row holds levels up to its
    top, and every level above the top equals it. Each row is copied, since
    the generator writes later rows over it."""
    rows = [row.copy() for row in _table_rows(t1, t2, f)]
    return [np.array([row[min(h, len(row) - 1)] for row in rows]) for h in range(f + 1)]


def witness_reference(t1: bytes, t2: bytes, f: int):
    """``slcs_witness``'s traceback one cell at a time over ``chain_table``,
    with the rows over the shorter text and f clamped to it, as the solver
    does. From C(n1, f, n2) the path moves left while the cell to the left
    is equal, else up while the cell above is equal, else back over the
    common suffix to level h-1. Returns the same tuple as ``slcs_witness``."""
    swapped = len(t1) > len(t2)
    a, b = (t2, t1) if swapped else (t1, t2)
    f = max(1, min(f, len(a)))
    layers = chain_table(a, b, f)
    i, j, h = len(a), len(b), f
    length = value = int(layers[h][i, j])
    pieces = []
    while value > 0:
        if layers[h][i, j - 1] == value:
            j -= 1
        elif layers[h][i - 1, j] == value:
            i -= 1
        else:
            x = brute_lcsuf(a, b, i, j)
            value -= x
            assert layers[h - 1][i - x, j - x] == value
            pieces.append((a[i - x : i], i - x + 1, j - x + 1))
            i, j, h = i - x, j - x, h - 1
    if not pieces:
        seg = Segmentation((b"",))
        return 0, seg, Embedding(seg, (1,)), Embedding(seg, (1,))
    segments, starts1, starts2 = zip(*reversed(pieces))
    if swapped:
        starts1, starts2 = starts2, starts1
    seg = Segmentation(segments)
    return length, seg, Embedding(seg, starts1), Embedding(seg, starts2)


def chain_table_reference(t1: bytes, t2: bytes, f: int) -> list[list[list[int]]]:
    """The same layers one cell at a time: C[h][i][j] is the largest of
    C[h][i-1][j], C[h][i][j-1] and x + C[h-1][i-x][j-x], where x is the
    common-suffix length of t1[:i] and t2[:j]."""
    n1, n2 = len(t1), len(t2)
    suffix = [[0] * (n2 + 1) for _ in range(n1 + 1)]
    for i in range(1, n1 + 1):
        for j in range(1, n2 + 1):
            if t1[i - 1] == t2[j - 1]:
                suffix[i][j] = suffix[i - 1][j - 1] + 1
    layers = [[[0] * (n2 + 1) for _ in range(n1 + 1)]]
    for _ in range(f):
        below = layers[-1]
        layer = [[0] * (n2 + 1) for _ in range(n1 + 1)]
        for i in range(1, n1 + 1):
            for j in range(1, n2 + 1):
                x = suffix[i][j]
                layer[i][j] = max(
                    layer[i - 1][j], layer[i][j - 1], x + below[i - x][j - x]
                )
        layers.append(layer)
    return layers


def baseline_visits_reference(t1: bytes, t2: bytes, f: int) -> int:
    """The cells slcs_baseline fills, read off ``chain_table_reference``: its
    rows run over the shorter text, each over the whole longer one, and a row
    fills level 1, plus level h+1 for each h below the clamped budget whose
    first row that differs from level h-1 lies above it."""
    short, long = sorted((t1, t2), key=len)
    f = max(1, min(f, len(short)))
    layers = chain_table_reference(short, long, f)
    n = len(short)
    firsts = [
        next((i for i in range(n + 1) if layers[h][i] != layers[h - 1][i]), n + 1)
        for h in range(1, f)
    ]
    return len(long) * sum(1 + sum(first < i for first in firsts) for i in range(1, n + 1))


def brute_lcsuf(t1: bytes, t2: bytes, i: int, j: int) -> int:
    """The largest x with t1[i-x:i] == t2[j-x:j], one symbol at a time."""
    x = 0
    while x < i and x < j and t1[i - 1 - x] == t2[j - 1 - x]:
        x += 1
    return x


def lcsuf_query(index, i: int, j: int) -> int:
    """lcsuf(t1[1..i], t2[1..j]) read off an ``LcsufIndex``: the minimum of
    the LCP array between the two prefixes' ranks; zero when either prefix
    is empty."""
    if i == 0 or j == 0:
        return 0
    lo, hi = sorted((index.rank1[i], index.rank2[j]))
    k = (hi - lo).bit_length() - 1
    return min(index.levels[k][lo], index.levels[k][hi - (1 << k)])


def drain_diagonal(
    t1: bytes, t2: bytes, f: int, stats: SolveStats | None = None
) -> tuple[list[int], list[list[list[int]]]]:
    """``diagonal_levels`` split into the answers at budgets 1..f' and the
    levels, budget h at index h-1."""
    answers, levels = zip(*diagonal_levels(t1, t2, f, stats))
    return list(answers), list(levels)


def diagonal_cells(levels: list[list[list[int]]]):
    """Yield (h, i, s, value) for every stored cell with s >= 1 of the
    levels ``drain_diagonal`` returns, level by level, diagonal by diagonal."""
    for h, level in enumerate(levels, start=1):
        for diag, column in enumerate(level):
            for s in range(1, len(column)):
                yield h, s + diag, s, column[s]


def shortest_prefix_tables(t1: bytes, t2: bytes, f: int) -> list[list[list[int]]]:
    """L[h][i][s] = min j with slcs(t1[:i], t2[:j], h) = s, from the chain
    table (the definition, not the diagonal recurrence); infinity = n2 + 1."""
    layers = chain_table(t1, t2, f)
    n1, n2 = len(t1), len(t2)
    inf = n2 + 1
    tables = [
        [[0 if s == 0 else inf for s in range(n1 + 1)] for _ in range(n1 + 1)]
        for _ in range(f + 1)
    ]
    for h in range(1, f + 1):
        layer = layers[h]
        for i in range(n1 + 1):
            for s in range(1, n1 + 1):
                for j in range(n2 + 1):
                    if layer[i][j] == s:
                        tables[h][i][s] = j
                        break
    return tables


def enumerate_embeddings(t: bytes, p: bytes):
    """Yield every increasing position tuple embedding p into t (0-based)."""
    n, m = len(t), len(p)

    def walk(start: int, k: int, acc: tuple[int, ...]):
        if k == m:
            yield acc
            return
        for pos in range(start, n - (m - k) + 1):
            if t[pos] == p[k]:
                yield from walk(pos + 1, k + 1, acc + (pos,))

    yield from walk(0, 0, ())


def embedding_pieces(t: bytes, positions: tuple[int, ...]) -> list[bytes]:
    """Factorization pieces (v0, u1, v1, ..., [vh]) induced by an embedding;
    interior gaps are nonempty by the maximal-run decomposition and a trailing
    empty piece is dropped."""
    if not positions:
        return [t]
    runs: list[list[int]] = [[positions[0]]]
    for pos in positions[1:]:
        if pos == runs[-1][-1] + 1:
            runs[-1].append(pos)
        else:
            runs.append([pos])
    pieces = [t[: runs[0][0]]]
    for idx, run in enumerate(runs):
        pieces.append(t[run[0] : run[-1] + 1])
        nxt = runs[idx + 1][0] if idx + 1 < len(runs) else len(t)
        gap = t[run[-1] + 1 : nxt]
        if gap:
            pieces.append(gap)
    return pieces


# Independent-budget tables one state at a time, straight from the per-side
# transitions: the states a side state (x, p) is reached from when the new text
# symbol is left unused (_phi) or used (_psi), and whether the empty string is
# in it at prefix length i (_empty). indseglcs computes the same tables
# a diagonal of whole (p1, p2) planes at a time.
_NEG = float("-inf")


def _phi(x: str, p: int) -> tuple[tuple[str, int], ...]:
    if x == "B":
        return (("B", p), ("F", p))
    if x == "F":
        return (("B", p - 1), ("F", p - 1)) if p else ()
    if x == "SB":
        return (("SB", p - 1), ("SF", p)) if p else (("SB", 0), ("SF", 0))
    return ()


def _psi(x: str, p: int) -> tuple[tuple[str, int], ...]:
    if x == "B":
        return (("B", p - 1), ("F", p - 1)) if p else ()
    if x == "F":
        return (("B", p - 1), ("F", p)) if p else ()
    if x == "SB":
        return ()
    return (("SB", p), ("SF", p - 1)) if p else (("SB", 0), ("SF", 0))


def _empty(x: str, p: int, i: int) -> float:
    if x == "B":
        return 0
    if x == "F":
        return 0 if p else _NEG
    if x == "SB":
        return 0 if p <= i else _NEG
    return _NEG


def indseglcs_cellwise(t1: bytes, t2: bytes, cfg1, cfg2) -> int:
    """Reference for indseglcs: every cell and state filled by a loop."""
    symbols = {"count": ("B", "F"), "score": ("SB", "SF")}
    states1 = [(x, p) for x in symbols[cfg1.family] for p in range(cfg1.g + 1)]
    states2 = [(x, p) for x in symbols[cfg2.family] for p in range(cfg2.g + 1)]
    n1, n2 = len(t1), len(t2)
    table = {}
    for i1 in range(n1 + 1):
        for i2 in range(n2 + 1):
            match = i1 and i2 and t1[i1 - 1] == t2[i2 - 1]
            for s1 in states1:
                for s2 in states2:
                    if not (i1 and i2):
                        value = min(_empty(*s1, i1), _empty(*s2, i2))
                    else:
                        cands = [table[i1, i2 - 1, s1, y2] for y2 in _phi(*s2)]
                        cands += [table[i1 - 1, i2, y1, s2] for y1 in _phi(*s1)]
                        if match:
                            cands += [table[i1 - 1, i2 - 1, y1, y2] + 1
                                      for y1 in _psi(*s1) for y2 in _psi(*s2)]
                        value = max(cands, default=_NEG)
                    table[i1, i2, s1, s2] = value
    best = max(table[n1, n2, (x1, cfg1.g), (x2, cfg2.g)]
               for x1 in symbols[cfg1.family] for x2 in symbols[cfg2.family])
    return int(best) if best != _NEG else 0


def table_fills(t1: bytes, t2: bytes, f1: int, f2: int, family=None) -> list[int]:
    """indseglcs's tables without its exits: ``_fill``'s answers at the lower
    bounds 0, the slcs bound and the answer itself, with t1 the shorter text
    as ``indseglcs`` passes it."""
    t1, t2 = as_text(t1), as_text(t2)
    if len(t1) > len(t2):
        t1, t2, f1, f2 = t2, t1, f2, f1
    cfg1 = side_config(len(t1), f1, family)
    cfg2 = side_config(len(t2), f2, family)
    answer = _fill(t1, t2, cfg1, cfg2, 0)
    bound = slcs_baseline(t1, t2, min(cfg1.f, cfg2.f))
    assert bound <= answer <= classic_lcs_len(t1, t2)
    return [answer, _fill(t1, t2, cfg1, cfg2, bound),
            _fill(t1, t2, cfg1, cfg2, answer)]
