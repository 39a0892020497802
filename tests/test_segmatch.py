"""Tests for the matching dynamic program and the two-pass linear decision."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segsub.oracle import min_segments_bruteforce
from segsub.segmatch import (
    KmpAutomaton,
    _cost_rows,
    llpf_breakpoints,
    min_segments,
    seg2_linear,
    sege,
)

from helpers import compute_lpf, compute_lsf, llpf_from_breakpoints, random_text

T1 = b"baacababbabcaacaabcba"
P1 = b"abbabaca"
LPF1 = [0, 1, 1, 0, 1, 2, 1, 2, 3, 4, 5, 0, 1, 1, 0, 1, 1, 2, 0, 0, 1]
LSF1 = [0, 1, 3, 2, 1, 0, 1, 0, 0, 1, 0, 2, 1, 3, 2, 1, 1, 0, 0, 0, 1]
LLPF1 = [0, 1, 1, 1, 1, 2, 2, 2, 3, 4, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5]

texts = st.binary(max_size=14).map(lambda b: bytes(97 + c % 3 for c in b))
patterns = st.binary(max_size=8).map(lambda b: bytes(97 + c % 3 for c in b))


def dp_decides(t, p, f):
    """The budget-f decision read off the quadratic DP."""
    needed = min_segments(t, p)
    return needed is not None and needed <= f


def cost_tables(t, p):
    rows = list(_cost_rows(t, p))
    return [d.tolist() for d, _ in rows], [e.tolist() for _, e in rows]


class TestBorderArrays:
    def test_lpf_golden(self):
        assert compute_lpf(T1, P1) == LPF1

    def test_lsf_golden(self):
        assert compute_lsf(T1, P1) == LSF1

    def test_llpf_golden(self):
        bps = llpf_breakpoints(LPF1)
        assert llpf_from_breakpoints(bps, len(T1)) == LLPF1
        assert bps == [(2, 1), (6, 2), (9, 3), (10, 4), (11, 5)]

    def test_empty_pattern(self):
        assert compute_lpf(b"abc", b"") == [0, 0, 0]
        assert compute_lsf(b"abc", b"") == [0, 0, 0]

    def test_self_match(self):
        t = b"ababb"
        assert compute_lpf(t, t)[-1] == len(t)
        assert compute_lsf(t, t)[0] == len(t)

    def test_lpf_definition_random(self):
        rng = random.Random(4)
        for _ in range(150):
            t, p = random_text(rng, 12), random_text(rng, 5)
            lpf = compute_lpf(t, p)
            lsf = compute_lsf(t, p)
            for i in range(1, len(t) + 1):
                want = max(
                    (l for l in range(min(i, len(p)) + 1) if p[:l] == t[i - l : i]),
                    default=0,
                )
                assert lpf[i - 1] == want
                want = max(
                    (
                        l
                        for l in range(min(len(t) - i + 1, len(p)) + 1)
                        if l == 0 or p[len(p) - l :] == t[i - 1 : i - 1 + l]
                    ),
                    default=0,
                )
                assert lsf[i - 1] == want

    def test_breakpoints_bounded_and_monotone(self):
        rng = random.Random(5)
        for _ in range(200):
            t, p = random_text(rng, 14), random_text(rng, 6)
            lpf = compute_lpf(t, p)
            bps = llpf_breakpoints(lpf)
            assert len(bps) <= len(p) + 1
            values = [v for _, v in bps]
            assert values == sorted(values)
            rebuilt = llpf_from_breakpoints(bps, len(t))
            assert rebuilt == [max(lpf[: i + 1], default=0) for i in range(len(t))]
            assert all(a <= b for a, b in zip(rebuilt, rebuilt[1:]))


class TestKmpAutomaton:
    def test_restart_after_full_match(self):
        assert list(KmpAutomaton(b"aa").states(b"aaaa")) == [1, 2, 2, 2]

    def test_empty_pattern_stays_at_zero(self):
        assert list(KmpAutomaton(b"").states(b"a")) == [0]


class TestMinSegments:
    def test_table1_instance(self):
        assert min_segments(T1, P1) == 2

    def test_empty_pattern(self):
        assert min_segments(b"whatever", b"") == 1
        assert min_segments(b"", b"") == 1

    def test_gap(self):
        assert min_segments(b"aba", b"aa") == 2

    def test_absent(self):
        assert min_segments(b"01", b"00") is None
        assert min_segments(b"", b"a") is None

    def test_matches_bruteforce(self):
        rng = random.Random(6)
        for _ in range(500):
            t, p = random_text(rng, 11), random_text(rng, 7)
            assert min_segments(t, p) == min_segments_bruteforce(t, p)

    @settings(max_examples=200, deadline=None)
    @given(t=texts, p=patterns)
    def test_matches_bruteforce_hypothesis(self, t, p):
        assert min_segments(t, p) == min_segments_bruteforce(t, p)


class TestTablesDump:
    def test_boundaries(self):
        D, E = cost_tables(b"aba", b"aa")
        inf = 3 + 2 + 1
        assert [row[0] for row in D] == [0, 0, 0, 0]
        assert D[0][1:] == [inf, inf]
        assert min(E[i][2] for i in range(4)) == 1  # d = 1, so two segments

        # the rows that min_segments folds hold its minimum
        rng = random.Random(9)
        t = bytes(97 + rng.randrange(3) for _ in range(14))
        p = bytes(c for c in t if rng.random() < 0.6)  # a subsequence of t
        D, E = cost_tables(t, p)
        assert min(row[len(p)] for row in E) + 1 == min_segments(t, p)


class TestSeg2Linear:
    def test_table1_instance(self):
        assert seg2_linear(T1, P1)

    def test_not_even_subsequence(self):
        assert not seg2_linear(b"01", b"00")

    def test_split_around_run(self):
        for k in (1, 3, 6):
            assert seg2_linear(b"a" + b"x" * k + b"a", b"aa")

    def test_pattern_is_suffix_factor(self):
        assert seg2_linear(b"xxab", b"ab")
        assert seg2_linear(b"a", b"a")

    def test_empty_cases(self):
        assert seg2_linear(b"", b"")
        assert seg2_linear(b"abc", b"")
        assert not seg2_linear(b"", b"x")

    def test_agrees_with_dp_budget_two(self):
        rng = random.Random(7)
        for _ in range(600):
            t, p = random_text(rng, 13), random_text(rng, 7)
            assert seg2_linear(t, p) == dp_decides(t, p, 2)

    @settings(max_examples=200, deadline=None)
    @given(t=texts, p=patterns)
    def test_agrees_with_dp_hypothesis(self, t, p):
        assert seg2_linear(t, p) == dp_decides(t, p, 2)


class TestSege:
    def test_table1_budgets(self):
        assert sege(T1, P1, 2)
        assert not sege(T1, P1, 1)

    def test_dispatch_equivalence(self):
        rng = random.Random(8)
        for _ in range(200):
            t, p = random_text(rng, 10), random_text(rng, 6)
            for f in (1, 2, 3):
                assert sege(t, p, f) == dp_decides(t, p, f)

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            sege(b"ab", b"a", 0)
