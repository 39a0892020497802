"""Instance generation and differential testing against the brute-force oracles."""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import oracle, segmatch, seglcs
from .core import verify_embedding
from .independent import indseglcs

def generate_instance(
    lengths: tuple[int, int],
    alphabet: int = 3,
    seed: int = 0,
    similarity: int | None = None,
) -> tuple[bytes, bytes]:
    """Uniform random pair of texts, deterministic for a fixed seed.

    With ``similarity`` = k the second text is the first with min(k, n)
    symbol edits confined to its tail, so every per-budget segmental LCS
    stays within k of the text length n; a k above n edits every symbol,
    which the differential run relies on for its near copies of length 0
    or 1 at k = 2. A one-symbol alphabet has no other symbol to write, so
    there the second text is an unedited copy of the first.
    """
    if alphabet < 1 or alphabet > 256:
        raise ValueError(f"alphabet size must be in 1..256, got {alphabet}")
    if len(lengths) != 2 or any(n < 0 for n in lengths):
        raise ValueError(f"lengths must be two non-negative integers, got {lengths}")
    rng = random.Random(seed)
    base = 97 if alphabet <= 26 else 0

    def draw(n: int) -> bytes:
        return bytes(base + rng.randrange(alphabet) for _ in range(n))

    first = draw(lengths[0])
    if similarity is None:
        second = draw(lengths[1])
    else:
        if similarity < 0 or lengths[1] != lengths[0]:
            raise ValueError("similarity needs equal lengths and k >= 0")
        edited = bytearray(first)
        tail = range(max(0, len(edited) - similarity), len(edited))
        # replacements avoid every displaced tail symbol, so no common string
        # can reach past the shared prefix and each per-budget answer is
        # exactly n - k
        displaced = {edited[pos] for pos in tail}
        allowed = [
            base + v for v in range(alphabet) if base + v not in displaced
        ]
        for pos in tail:
            if allowed:
                edited[pos] = rng.choice(allowed)
            elif alphabet > 1:
                shift = 1 + rng.randrange(alphabet - 1)
                edited[pos] = base + (edited[pos] - base + shift) % alphabet
        second = bytes(edited)
    return first, second


def _witness_length(t1: bytes, t2: bytes, f: int) -> int | None:
    """The length of ``seglcs.slcs_witness``'s witness, or None when the
    witness is not a string of that length in at most f segments that
    embeds into both texts."""
    length, seg, e1, e2 = seglcs.slcs_witness(t1, t2, f)
    valid = (
        len(seg.pattern) == length
        and seg.segment_count <= f
        and verify_embedding(t1, e1)
        and verify_embedding(t2, e2)
    )
    return length if valid else None


@dataclass(frozen=True)
class Mismatch:
    kind: str
    texts: tuple[bytes, bytes]
    budgets: tuple[int, ...]
    algorithm: str
    expected: object
    got: object


@dataclass
class DifferentialReport:
    cases: int = 0
    checks: int = 0
    mismatches: list[Mismatch] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        return (
            f"cases={self.cases} checks={self.checks} "
            f"mismatches={len(self.mismatches)}"
        )


def _substituted(rng: random.Random, t1: bytes, t2: bytes, k: int) -> bytes:
    """t1 with up to k of its symbols, at positions drawn from ``rng``,
    replaced by t2's symbols there (possibly the same ones); t2 is at least
    as long as t1."""
    edited = bytearray(t1)
    for pos in rng.sample(range(len(t1)), min(len(t1), rng.randint(0, k))):
        edited[pos] = t2[pos]
    return bytes(edited)


def differential_run(
    count: int,
    max_len: int = 10,
    alphabet: int = 3,
    seed: int = 0,
) -> DifferentialReport:
    """Compare every solver against its brute-force oracle on random inputs.

    Each case checks the matching family; the heavier common-subsequence
    families alternate between cases. Every other seglcs case is a near copy
    of equal length, the regime in which the diagonal solver's exact tests
    settle most lcsuf lookups and its columns start with long leads: half of
    them with up to two tail edits, half with up to two substitutions at
    random positions, after which a column's scan resumes mid-diagonal.
    Each seglcs case also checks the witness: its length, and that it is a
    common subsequence of both texts in at most f segments. Half of the
    indseglcs cases, chosen by the case seed, are equal-length near copies
    with up to three substitutions at random positions, where the slcs bound
    often falls just short of the LCS and the table band is narrowest.
    Both seglcs solvers and the witness are looked up on their module at
    each case, so a test can swap one out.
    """
    for name, value in (("count", count), ("max_len", max_len)):
        if value < 0:
            raise ValueError(f"{name} must be non-negative, got {value}")
    if max_len > oracle.DEFAULT_SIZE_LIMIT:
        raise oracle.OracleLimitError(
            f"brute force capped at length {oracle.DEFAULT_SIZE_LIMIT}, "
            f"max_len is {max_len}"
        )
    rng = random.Random(seed)
    report = DifferentialReport(cases=count)

    def record(kind, texts, budgets, algorithm, expected, got):
        report.checks += 1
        if expected != got:
            report.mismatches.append(
                Mismatch(kind, texts, budgets, algorithm, expected, got)
            )

    for case in range(count):
        case_seed = rng.randrange(1 << 30)
        n_t = rng.randint(0, max_len)
        n_p = rng.randint(0, rng.randint(0, max_len))  # bias patterns short
        pair = generate_instance((n_t, n_p), alphabet=alphabet, seed=case_seed)
        t, p = pair
        truth = oracle.min_segments_bruteforce(t, p)
        record(
            "minsege", pair, (), "min_segments", truth, segmatch.min_segments(t, p)
        )
        for f in (1, 2, rng.randint(1, max_len + 2)):
            expected = truth is not None and truth <= f
            record("sege", pair, (f,), "sege", expected, segmatch.sege(t, p, f))

        if case % 2 == 0:
            n1 = rng.randint(0, max_len)
            if case % 4 == 0:
                lengths, similarity = (n1, rng.randint(0, max_len)), None
            elif case % 8 == 2:
                lengths, similarity = (n1, n1), rng.randint(0, 2)
            else:  # scattered edits, made from this uniform pair below
                lengths, similarity = (n1, n1), None
            t1, t2 = generate_instance(
                lengths, alphabet=alphabet, seed=case_seed + 1,
                similarity=similarity,
            )
            if case % 8 == 6:
                t2 = _substituted(rng, t1, t2, 2)
            texts = (t1, t2)
            f = rng.randint(1, max(1, min(len(t1), len(t2)) + 2))
            expected = oracle.slcs_bruteforce(t1, t2, f)
            for name, solver in (("baseline", seglcs.slcs_baseline),
                                 ("diagonal", seglcs.slcs_diagonal),
                                 ("witness", _witness_length)):
                record("seglcs", texts, (f,), name, expected, solver(t1, t2, f))
        else:
            n1, n2 = rng.randint(0, max_len), rng.randint(0, max_len)
            near = case_seed % 2  # not drawn from rng: other cases stay the same
            t1, t2 = generate_instance(
                (n1, n1 if near else n2), alphabet=alphabet, seed=case_seed + 2
            )
            if near:  # positions drawn from the case seed
                t2 = _substituted(random.Random(case_seed), t1, t2, 3)
            texts = (t1, t2)
            # the budgets' ranges come from the drawn lengths, so that the
            # draws from rng are the same for a near copy
            f1 = rng.randint(1, max(1, n1 // 2 + 2))
            f2 = rng.randint(1, max(1, n2 // 2 + 2))
            expected = oracle.indseglcs_bruteforce(t1, t2, f1, f2)
            record(
                "indseglcs", texts, (f1, f2), "tables",
                expected, indseglcs(t1, t2, f1, f2),
            )
    return report
