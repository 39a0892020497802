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
So anti-diagonal d = i1 + i2 depends only on d - 1 and d - 2, and ``solve``
fills it whole with a fixed number of numpy calls. It keeps three diagonals
plus two scratch ones, each (min(n1, n2) + 1) * 4 * (g1 + 1) * (g2 + 1)
float32 values (exact for every length below 2**24).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import as_text, check_budget

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
    f = max(1, min(f, (n + 1) // 2)) if n else 1
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


def indseglcs(
    t1: bytes | str,
    t2: bytes | str,
    f1: int,
    f2: int,
    force_family: str | None = None,
) -> int:
    """Length of the longest string within both per-text segment budgets."""
    t1, t2 = as_text(t1), as_text(t2)
    cfg1 = side_config(len(t1), f1, force_family)
    cfg2 = side_config(len(t2), f2, force_family)
    return solve(t1, t2, cfg1, cfg2)


def solve(t1: bytes, t2: bytes, cfg1: SideConfig, cfg2: SideConfig) -> int:
    """Fill the tables one anti-diagonal at a time; return the length at (n1, n2)."""
    n1, n2 = len(t1), len(t2)
    phi1, psi1 = _OPERATORS[cfg1.family]
    phi2, psi2 = _OPERATORS[cfg2.family]
    shape = (min(n1, n2) + 1, 2, 2, cfg1.g + 1, cfg2.g + 1)
    # three diagonals in rotation and two scratch ones; the transposed views
    # put side 2's axes where the operators expect their own side's
    *rotation, step, pair = np.empty((5, *shape), np.float32)
    diags = [(b, b.transpose(0, 2, 1, 4, 3)) for b in rotation]
    pair2 = pair.transpose(0, 2, 1, 4, 3)
    q1 = _empty_states(cfg1)[:, :, None, :, None]
    q2 = _empty_states(cfg2)[:, None, :, None, :]
    codes1, rev2 = np.frombuffer(t1, np.uint8), np.frombuffer(t2, np.uint8)[::-1]

    for d in range(n1 + n2 + 1):
        # a diagonal's cells are i1 = lo .. min(d, n1), stored from index 0
        cur, cur2 = diags[d % 3]
        prev, prev2 = diags[(d - 1) % 3]
        back2 = diags[(d - 2) % 3][1]
        lo = max(0, d - n2)
        if lo == 0:
            np.minimum(q1[0], q2[d], out=cur[0])  # cell (0, d)
        if d <= n1:
            np.minimum(q1[d], q2[0], out=cur[d - lo])  # cell (d, 0)
        a, b = max(1, lo), min(d - 1, n1)  # inner cells, both prefixes nonempty
        if a > b:
            continue
        k, lo1, lo2 = b - a + 1, max(0, lo - 1), max(0, lo - 2)
        out, s = cur[a - lo:a - lo + k], step[:k]
        phi2(prev2[a - lo1:a - lo1 + k], cur2[a - lo:a - lo + k])  # from (i1, i2-1)
        phi1(prev[a - 1 - lo1:a - 1 - lo1 + k], s)  # from (i1-1, i2)
        np.maximum(out, s, out=out)
        psi2(back2[a - 1 - lo2:a - 1 - lo2 + k], pair2[:k])  # from (i1-1, i2-1)
        psi1(pair[:k], s)
        np.add(s, 1, out=s)
        # used only where t1[i1-1] == t2[i2-1]
        match = codes1[a - 1:b] == rev2[n2 - d + a:n2 - d + a + k]
        np.maximum(out, s, out=out, where=match[:, None, None, None, None])

    best = diags[(n1 + n2) % 3][0][0, :, :, cfg1.g, cfg2.g].max()
    return int(best) if best != NEG_INF else 0
