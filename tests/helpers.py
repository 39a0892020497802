"""Shared test oracles kept independent of the solvers they check."""

from __future__ import annotations

import random

from segsub.seglcs import chain_table


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


def greedy_subsequence(t: bytes, p: bytes) -> bool:
    it = iter(t)
    return all(c in it for c in p)


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
# in it at prefix length i (_empty). indseglcs.solve computes the same tables
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
    """Reference for indseglcs.solve: every cell and state filled by a loop."""
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
