"""Longest common subsequence under independent per-text segment budgets.

Each text side has two state symbols and an axis p of g + 1 entries, read at
p = g for the answer: B / F (any embedding, or the last segment pinned to the
prefix end) with p a segment count, or their score-threshold analogues SB /
SF with p a factorization score, whichever family gives the shorter axis.

Cell (i1, i2) is an array of shape (2, 2, g1 + 1, g2 + 1) over the side-1
symbol, the side-2 symbol, p1 and p2, -inf where a state is empty. A text's
new symbol left unused applies that side's ``phi`` to the upper (side 1) or
left (side 2) neighbour; a symbol used in both texts, where t1[i1-1] ==
t2[i2-1], applies both sides' ``psi`` to the diagonal neighbour and adds one.
So anti-diagonal d = i1 + i2 depends only on d - 1 and d - 2, and the
tables are filled one diagonal at a time with a fixed number of numpy calls.
The answer is symmetric, so the shorter text is taken as t1 and indexes the
rows: cell (i1, d - i1) sits at row i1 of each diagonal buffer. The fill
keeps three diagonals plus two scratch ones, each (n1 + 1) * 4 * (g1 + 1) *
(g2 + 1) float32 values (exact for every length below 2**24).

``indseglcs`` takes six steps in order, and each may end the call: the
allocation check, saturated budgets, the certificate, the search, the slcs
bound and the band. First it sizes those buffers: a solve whose buffers would
exceed physical memory raises ``ResourceLimitError`` before allocating
anything. The next steps rely on two bounds, slcs(min(f1, f2)) <=
indseglcs(f1, f2) <= LCS(t1, t2), since one shared segmentation fits both
budgets and any common string is a common subsequence. The classic LCS is
bit-parallel over t1 (Hyyro 2004), and it is the answer outright when both
budgets are saturated (g1 = g2 = 0). Otherwise, as a certificate, one LCS
string is traced back over the bit-parallel rows; when it embeds in t1
within f1 pieces and in t2 within f2, it is a longest common string within
both budgets, and the LCS is the answer with no table. The trace counts, in
each text, the maximal runs of consecutive positions that its matches use:
they cut the string into that many substrings of the text, in order, so a
side whose count is within its budget needs no matcher, and ``sege`` runs
only for a side whose count exceeds it. The rows, one int of n1 bits per
symbol of t2, are kept only where they take no more bytes than the five
diagonals; otherwise this exit and the next are skipped. When the
traced string does not fit, ``_near_lcs`` searches the chains of matches
for lengths LCS, LCS - 1, ... in turn, each time only among the matches
that a chain of that length can use, and returns the first length that
fits both budgets. It holds no more matches and states than fit in what the
rows leave of the diagonals, at about ``ITEM_BYTES`` each, and takes at most
64 steps per anti-diagonal of the fill; past either limit it gives up and
the bound and the band decide. The lower bound, ``slcs_baseline`` at
f = min(f1, f2) clamped, fills f*n1*n2 cells; it runs only when
f <= 4 * (g1 + 1) * (g2 + 1), so that it never costs more than the tables'
4 * n1 * n2 * (g1 + 1) * (g2 + 1). When it reaches the LCS, no table is
filled. Otherwise the fill is banded after Ukkonen (1985): an answer of at
least ell embeds along a path on which -(n2 - ell) <= i1 - i2 <= n1 - ell,
because the matches still to come must fit in the rest of both texts. Each
diagonal fills only its rows in that band, and the one row past either end
that the next two diagonals read is set to -inf, so every cell read holds
its exact value or -inf. With ell = 0 the band is the whole table.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .core import as_text, check_allocation, check_budget
from .seglcs import slcs_baseline
from .segmatch import sege

NEG_INF = float("-inf")

FAMILIES = ("count", "score")


def segmentation_score(parts: list[bytes | str]) -> int:
    """Score of a text factorization: |w0| + sum(|wi| - 1) over the rest."""
    coerced = [as_text(w) for w in parts]
    if not coerced:
        raise ValueError("a factorization has at least its leading piece")
    return len(coerced[0]) + sum(len(w) - 1 for w in coerced[1:])


@dataclass(frozen=True)
class SideConfig:
    """Per-text solve parameters after budget clamping and family selection."""

    n: int
    f: int
    family: str
    g: int


def side_config(n: int, f: int, force_family: str | None = None) -> SideConfig:
    """Clamp the budget to ceil(n/2) and pick the narrower table family.

    The count family is chosen when f <= max(0, n - 2f) (ties to count),
    i.e. roughly f <= n/3; otherwise the score family, whose axis spans the
    still-needed score 0..n-2f.
    """
    check_budget(f)
    f = max(1, min(f, (n + 1) // 2))
    score_span = max(0, n - 2 * f)
    if force_family is not None:
        if force_family not in FAMILIES:
            raise ValueError(f"unknown table family {force_family!r}")
        family = force_family
    else:
        family = "count" if f <= score_span else "score"
    return SideConfig(n, f, family, f if family == "count" else score_span)


# Side operators: a max over the two symbols and a shift by one along p.
# ``a`` and ``out`` are diagonal slices viewed with the axes (cell, own symbol,
# other symbol, own p, other p); ``out`` is overwritten.


def _phi_count(a, out):
    # the new symbol is left unused: B from B or F at p, F from either at p-1
    np.maximum(a[:, 0], a[:, 1], out=out[:, 0])
    out[:, 1, :, 1:] = out[:, 0, :, :-1]
    out[:, 1, :, 0] = NEG_INF


def _psi_count(a, out):
    # the new symbol is used: B from either at p-1, F from B at p-1 or F at p
    np.maximum(a[:, 0, :, :-1], a[:, 1, :, :-1], out=out[:, 0, :, 1:])
    np.maximum(a[:, 0, :, :-1], a[:, 1, :, 1:], out=out[:, 1, :, 1:])
    out[:, :, :, 0] = NEG_INF


def _phi_score(a, out):
    # SB from SB at p-1 or SF at p (both at 0 when p = 0); SF needs the symbol
    np.maximum(a[:, 0, :, :-1], a[:, 1, :, 1:], out=out[:, 0, :, 1:])
    np.maximum(a[:, 0, :, 0], a[:, 1, :, 0], out=out[:, 0, :, 0])
    out[:, 1] = NEG_INF


def _psi_score(a, out):
    # SF from SB at p or SF at p-1 (both at 0 when p = 0); SB skips the symbol
    np.maximum(a[:, 0, :, 1:], a[:, 1, :, :-1], out=out[:, 1, :, 1:])
    np.maximum(a[:, 0, :, 0], a[:, 1, :, 0], out=out[:, 1, :, 0])
    out[:, 0] = NEG_INF


_OPERATORS = {"count": (_phi_count, _psi_count), "score": (_phi_score, _psi_score)}


def _empty_states(cfg: SideConfig) -> np.ndarray:
    """q[i, x, p] = 0 if the empty string is in state (x, p) at prefix i, else -inf."""
    q = np.full((cfg.n + 1, 2, cfg.g + 1), NEG_INF, np.float32)
    if cfg.family == "count":
        q[:, 0] = 0
        q[:, 1, 1:] = 0
    else:
        q[:, 0][np.arange(cfg.g + 1) <= np.arange(cfg.n + 1)[:, None]] = 0
    return q


def _lcs_rows(t1: bytes, t2: bytes):
    """Classic LCS rows, bit-parallel over t1 (Hyyro 2004, after Allison and
    Dix 1986): v_j, yielded for j = 0..len(t2), has bit i clear where the LCS
    of t1[:i+1] with t2[:j] steps up, so L(i, j) = i - popcount(v_j's low i
    bits)."""
    masks: dict[int, int] = {}
    for i, c in enumerate(t1):
        masks[c] = masks.get(c, 0) | 1 << i
    full = (1 << len(t1)) - 1
    v = full
    yield v
    for c in t2:
        u = v & masks.get(c, 0)
        v = ((v + u) | (v - u)) & full
        yield v


def _lcs_length(t1: bytes, t2: bytes) -> int:
    """Classic LCS length, from the last of ``_lcs_rows``."""
    return len(t1) - deque(_lcs_rows(t1, t2), maxlen=1)[0].bit_count()


def _lcs_string(t1: bytes, t2: bytes) -> tuple[bytes, int, int]:
    """One longest common subsequence, traced back over all of ``_lcs_rows``,
    with the maximal runs of consecutive positions that its matches use in
    t1 and in t2: a match is always a diagonal step; otherwise L(i - 1, j) =
    L(i, j) exactly where bit i - 1 of v_j is set, and the trace goes up
    there and left elsewhere. The runs cut the string into that many
    substrings of each text, in order, so ``min_segments`` is at most each
    count, and a count is 0 only for the empty string."""
    rows = list(_lcs_rows(t1, t2))
    out = bytearray()
    pieces1 = pieces2 = 0
    i, j = len(t1), len(t2)
    # i and j as the last match left them: a match there extends its run
    last1 = last2 = -1
    while i and j:
        if t1[i - 1] == t2[j - 1]:
            out.append(t1[i - 1])
            pieces1 += i != last1
            pieces2 += j != last2
            i, j = i - 1, j - 1
            last1, last2 = i, j
        elif rows[j] >> (i - 1) & 1:
            i -= 1
        else:
            j -= 1
    return bytes(out[::-1]), pieces1, pieces2


# bytes held per match or state of the search: a tuple in a list, and for a
# state also the int of its piece counts, whose bits come on top
ITEM_BYTES = 192


def _near_lcs(
    t1: bytes, t2: bytes, f1: int, f2: int, room: int, steps: int
) -> int | None:
    """The answer by a search over chains of matches, trying each length
    from the LCS down; None once the search would hold more than ``room``
    matches and states or take more than ``steps`` steps (a match, a state
    or a predecessor compared).

    A common string of length T is a chain of T matches t1[i-1] == t2[j-1]
    increasing in i and in j, and its pieces in a text are one plus the
    chain's gaps there. A match with a matches before it and b after it
    (read off the bit-parallel rows of the texts and of their reversals)
    can only be the r-th of T where T - b <= r <= a + 1, so the search for
    T = LCS - k takes only the matches whose a + 1 + b falls at most k short
    of the LCS. It keeps, for each match and r, the piece counts (p1, p2)
    that chains ending there reach, closed upward and clipped to the budgets,
    as bit (p1 - 1) * f2 + (p2 - 1) of an int; the next match adds a piece
    on each side where it is not adjacent. The first T with a chain is the
    answer.
    """
    n1, n2 = len(t1), len(t2)
    full = (1 << f1 * f2) - 1
    inner = full & ~sum(1 << k * f2 for k in range(f1))  # clears p2 = 1
    where: dict[int, list[int]] = {}
    for i, c in enumerate(t1, 1):
        where.setdefault(c, []).append(i)
    held = spent = sum(len(where.get(c, ())) for c in t2)
    if held > room or spent > steps:
        return None
    back = list(_lcs_rows(t1[::-1], t2[::-1]))
    lcs = n1 - back[-1].bit_count()
    # the matches (j, i, a, b) by how far a + 1 + b falls short of the LCS
    short: dict[int, list[tuple[int, int, int, int]]] = {}
    for j, (row, c) in enumerate(zip(_lcs_rows(t1, t2), t2), 1):
        after = back[n2 - j]
        for i in where.get(c, ()):
            a = i - 1 - (row & ((1 << (i - 1)) - 1)).bit_count()
            b = n1 - i - (after & ((1 << (n1 - i)) - 1)).bit_count()
            short.setdefault(lcs - 1 - a - b, []).append((j, i, a, b))
    kept: list[tuple[int, int, int, int]] = []
    for length in range(lcs, 0, -1):
        kept += short.get(lcs - length, ())
        # each kept match takes part at every r its bounds allow
        states = sum(min(a + 1, length) - max(1, length - b) + 1
                     for _, _, a, b in kept)
        spent += states
        if held + states > room or spent > steps:
            return None
        kept.sort()  # by j, then i
        levels: list[list[tuple[int, int]]] = [[] for _ in range(length + 1)]
        for j, i, a, b in kept:
            for r in range(max(1, length - b), min(a + 1, length) + 1):
                levels[r].append((i, j))
        prev = [(i, j, full) for i, j in levels[1]]
        for level in levels[2:]:
            if not prev:
                break
            cur = []
            for i, j in level:
                if spent > steps:
                    return None
                # predecessors by adjacency: both, in t1 only, in t2 only, none
                both = first = second = apart = 0
                for i0, j0, s in prev:
                    spent += 1
                    if j0 >= j:
                        break
                    if i0 < i - 1:
                        if j0 < j - 1:
                            apart |= s
                        else:
                            second |= s
                    elif i0 == i - 1:
                        if j0 < j - 1:
                            first |= s
                        else:
                            both |= s
                s = (both | ((first << 1) & inner)
                     | (((second | ((apart << 1) & inner)) << f2) & full))
                if s:
                    cur.append((i, j, s))
            prev = cur
        if prev:
            return length
    return 0


def indseglcs(
    t1: bytes | str,
    t2: bytes | str,
    f1: int,
    f2: int,
    force_family: str | None = None,
) -> int:
    """Length of the longest string within both per-text segment budgets."""
    t1, t2 = as_text(t1), as_text(t2)
    if len(t1) > len(t2):
        t1, t2, f1, f2 = t2, t1, f2, f1
    n1, n2 = len(t1), len(t2)
    cfg1 = side_config(n1, f1, force_family)
    cfg2 = side_config(n2, f2, force_family)
    planes = (cfg1.g + 1) * (cfg2.g + 1)
    diagonals = 4 * 5 * (n1 + 1) * 4 * planes  # bytes, float32
    check_allocation(  # the diagonals and two empty-state arrays
        diagonals + 4 * (2 * (n1 + 1) * (cfg1.g + 1) + 2 * (n2 + 1) * (cfg2.g + 1)),
        "the indseglcs diagonals",
    )
    if cfg1.g == cfg2.g == 0:
        return _lcs_length(t1, t2)  # both budgets saturated
    # a row, an int of n1 bits and its list slot, takes at most 36 + n1/7.5
    # bytes; the rows are kept only where they take no more than the diagonals
    rows = (n2 + 1) * (36 + n1 / 7.5)
    if rows <= diagonals:
        # the trace cuts its string into pieces1 substrings of t1 and pieces2
        # of t2; the matcher runs only for a side whose count is over budget
        common, pieces1, pieces2 = _lcs_string(t1, t2)
        if ((pieces1 <= cfg1.f or sege(t1, common, cfg1.f))
                and (pieces2 <= cfg2.f or sege(t2, common, cfg2.f))):
            return len(common)  # a longest common string within both budgets
        # the search holds no more than the rows leave of the diagonals, and
        # stops within 64 steps, some 20 us, per anti-diagonal of the fill
        item = ITEM_BYTES + cfg1.f * cfg2.f // 8
        found = _near_lcs(t1, t2, cfg1.f, cfg2.f, int((diagonals - rows) / item),
                          64 * (n1 + n2 + 1))
        if found is not None:
            return found
        upper = len(common)
    else:
        upper = _lcs_length(t1, t2)
    ell = 0
    f = min(cfg1.f, cfg2.f)
    if f <= 4 * planes:  # the bound's f*n1*n2 cells cost at most the tables'
        ell = slcs_baseline(t1, t2, f)
        if ell == upper:
            return ell
    return _fill(t1, t2, cfg1, cfg2, ell)


def _fill(
    t1: bytes, t2: bytes, cfg1: SideConfig, cfg2: SideConfig, ell: int
) -> int:
    """The answer from the tables, t1 no longer than t2, filled only in the
    band that an answer of at least ``ell`` passes through."""
    n1, n2 = len(t1), len(t2)
    phi1, psi1 = _OPERATORS[cfg1.family]
    phi2, psi2 = _OPERATORS[cfg2.family]
    # three diagonals in rotation and two scratch ones; the transposed views
    # put side 2's axes where the operators expect their own side's
    *rotation, step, pair = np.empty((5, n1 + 1, 2, 2, cfg1.g + 1, cfg2.g + 1),
                                     np.float32)
    diags = [(b, b.transpose(0, 2, 1, 4, 3)) for b in rotation]
    pair2 = pair.transpose(0, 2, 1, 4, 3)
    q1 = _empty_states(cfg1)[:, :, None, :, None]
    q2 = _empty_states(cfg2)[:, None, :, None, :]
    codes1, rev2 = np.frombuffer(t1, np.uint8), np.frombuffer(t2, np.uint8)[::-1]

    for d in range(n1 + n2 + 1):
        # cell (i1, d - i1) of a diagonal is stored at row i1
        cur, cur2 = diags[d % 3]
        prev, prev2 = diags[(d - 1) % 3]
        back2 = diags[(d - 2) % 3][1]
        if d <= n2:
            np.minimum(q1[0], q2[d], out=cur[0])  # cell (0, d)
        if d <= n1:
            np.minimum(q1[d], q2[0], out=cur[d])  # cell (d, 0)
        lo, hi = max(1, d - n2), min(d - 1, n1)  # inner cells, both prefixes nonempty
        # the band -(n2 - ell) <= i1 - i2 <= n1 - ell
        a = max(lo, (d - n2 + ell + 1) // 2)
        b = min(hi, (d + n1 - ell) // 2)
        # the next two diagonals read one row past either end of the band
        if lo < a:
            cur[a - 1] = NEG_INF
        if b < hi:
            cur[b + 1] = NEG_INF
        if a > b:
            continue
        out, s = cur[a:b + 1], step[a:b + 1]
        phi2(prev2[a:b + 1], cur2[a:b + 1])  # from (i1, i2-1)
        phi1(prev[a - 1:b], s)  # from (i1-1, i2)
        np.maximum(out, s, out=out)
        psi2(back2[a - 1:b], pair2[a:b + 1])  # from (i1-1, i2-1)
        psi1(pair[a:b + 1], s)
        np.add(s, 1, out=s)
        # used only where t1[i1-1] == t2[i2-1]
        match = codes1[a - 1:b] == rev2[n2 - d + a:n2 - d + b + 1]
        np.maximum(out, s, out=out, where=match[:, None, None, None, None])

    # never -inf: the band keeps a path for the answer, which is >= ell and >= 0
    return int(diags[(n1 + n2) % 3][0][n1, :, :, cfg1.g, cfg2.g].max())
