"""Constructive reduction from bounded-window episode matching to budgeted
subsequence embedding, over the three-symbol alphabet {0, 1, $}."""

from __future__ import annotations

from . import oracle, segmatch
from .core import as_text

ZERO, ONE, DOLLAR = ord("0"), ord("1"), ord("$")


def build_episode_reduction(
    t: bytes | str, p: bytes | str, h: int
) -> tuple[bytes, bytes, int]:
    """Build (t', p', f) such that some factor of ``t`` of length <= ``h``
    contains ``p`` as a subsequence iff p' embeds into t' with f segments.

    t' wraps each text symbol in $$ pairs and pads both ends with (…$0…)
    runs whose $ count is two short of p's $-padding; f = 3n + m + h - 4.
    """
    t, p = as_text(t), as_text(p)
    n, m = len(t), len(p)
    if n < 1 or m < 1:
        raise ValueError("episode instance needs a non-empty text and pattern")
    if any(c not in (ZERO, ONE) for c in t + p):
        raise ValueError("episode instance must be over the binary alphabet {0,1}")
    if not 1 <= h <= n:
        raise ValueError(f"window bound must satisfy 1 <= h <= {n}, got {h}")
    dd = b"$$"
    middle = dd + dd.join(bytes([c]) for c in t) + dd
    t_out = b"$0" * (2 * n - 2) + middle + b"0$" * (2 * n - 2)
    p_out = b"$" * (2 * n) + p + b"$" * (2 * n)
    return t_out, p_out, 3 * n + m + h - 4


def check_reduction_equivalence(t: bytes | str, p: bytes | str, h: int) -> bool:
    """Both sides of the reduction, evaluated independently, must agree."""
    t, p = as_text(t), as_text(p)
    episode = oracle.episode_bruteforce(t, p, h)
    t_out, p_out, f = build_episode_reduction(t, p, h)
    return episode == segmatch.sege(t_out, p_out, f)
