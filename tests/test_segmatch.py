"""Tests for the matching dynamic program, the layered bit-parallel pass and
the bit-parallel f <= 2 decision."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segsub.oracle import min_segments_bruteforce
from segsub.segmatch import _cost_columns, _layers, min_segments, seg2_linear, sege

from helpers import (
    compute_lpf,
    compute_lsf,
    cost_tables_reference,
    dp_min_segments,
    first_ends_by_find,
    first_reach,
    llpf_from_first_ends,
    random_text,
)

T1 = b"baacababbabcaacaabcba"
P1 = b"abbabaca"
LPF1 = [0, 1, 1, 0, 1, 2, 1, 2, 3, 4, 5, 0, 1, 1, 0, 1, 1, 2, 0, 0, 1]
LSF1 = [0, 1, 3, 2, 1, 0, 1, 0, 0, 1, 0, 2, 1, 3, 2, 1, 1, 0, 0, 0, 1]
LLPF1 = [0, 1, 1, 1, 1, 2, 2, 2, 3, 4, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5]

texts = st.binary(max_size=14).map(lambda b: bytes(97 + c % 3 for c in b))
patterns = st.binary(max_size=8).map(lambda b: bytes(97 + c % 3 for c in b))


def dp_decides(t, p, f):
    """The budget-f decision read off the quadratic DP."""
    needed = dp_min_segments(t, p)
    return needed is not None and needed <= f


def capped(needed, cap):
    """What ``_layers`` at ``cap`` returns for the answer ``needed``."""
    return needed if needed is not None and needed <= cap else None


def split_decides(t, p):
    """The budget-2 decision read off the first ends by ``bytes.find``: some
    split p = u.v has u's first end before v's last start."""
    head, tail = first_ends_by_find(t, p), first_ends_by_find(t[::-1], p[::-1])
    return any(head[k] + tail[len(p) - k] <= len(t) for k in range(len(p) + 1))


def cut_pattern(rng, t, m, pieces):
    """A length-m pattern made of ``pieces`` factors of t, taken left to right
    with at least one text symbol between consecutive factors."""
    cuts = sorted(rng.sample(range(1, m), pieces - 1))
    offsets = sorted(rng.randint(0, len(t) - m - pieces + 1) for _ in range(pieces))
    out = []
    for idx, (a, b) in enumerate(zip([0, *cuts], [*cuts, m])):
        start = offsets[idx] + a + idx
        out.append(t[start : start + b - a])
    return b"".join(out)


def cost_tables(t, p):
    """D and E as lists of rows, transposed from the solver's columns."""
    columns = [(d.tolist(), e.tolist()) for d, e in _cost_columns(t, p)]
    return [list(row) for row in zip(*(d for d, _ in columns))], [
        list(row) for row in zip(*(e for _, e in columns))
    ]


class TestBorderArrays:
    def test_lpf_golden(self):
        assert compute_lpf(T1, P1) == LPF1

    def test_lsf_golden(self):
        assert compute_lsf(T1, P1) == LSF1

    def test_llpf_golden(self):
        head = first_ends_by_find(T1, P1)
        assert head == [0, 2, 6, 9, 10, 11, 22, 22, 22]
        assert head == first_reach(LLPF1, len(P1))
        assert llpf_from_first_ends(head, len(T1)) == LLPF1
        tail = first_ends_by_find(T1[::-1], P1[::-1])
        assert tail == [0, 1, 7, 8, 22, 22, 22, 22, 22]
        assert tail == first_reach(LSF1[::-1], len(P1))
        assert seg2_linear(T1, P1) == dp_decides(T1, P1, 2) == split_decides(T1, P1)

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
            lpf, lsf = compute_lpf(t, p), compute_lsf(t, p)
            assert first_ends_by_find(t, p) == first_reach(lpf, len(p))
            tail = first_ends_by_find(t[::-1], p[::-1])
            assert tail == first_reach(lsf[::-1], len(p))
            assert seg2_linear(t, p) == dp_decides(t, p, 2)

    def test_breakpoints_bounded_and_monotone(self):
        rng = random.Random(5)
        for _ in range(200):
            t, p = random_text(rng, 14), random_text(rng, 6)
            lpf = compute_lpf(t, p)
            first = first_ends_by_find(t, p)
            assert len(first) == len(p) + 1
            n = len(t)
            assert all(k <= end <= n or end == n + 1 for k, end in enumerate(first))
            assert first == sorted(first)
            rebuilt = llpf_from_first_ends(first, len(t))
            assert rebuilt == [max(lpf[: i + 1], default=0) for i in range(len(t))]
            assert all(a <= b for a, b in zip(rebuilt, rebuilt[1:]))
            assert seg2_linear(t, p) == dp_decides(t, p, 2)


class TestFirstEnds:
    def test_restart_after_full_match(self):
        assert first_ends_by_find(b"aaaa", b"aa") == [0, 1, 2]
        assert seg2_linear(b"aaaa", b"aa") == dp_decides(b"aaaa", b"aa", 2)

    def test_stops_once_pattern_found(self):
        t = b"xxabcab" + b"c" * 40
        assert first_ends_by_find(t, b"abc") == [0, 3, 4, 5]
        assert first_ends_by_find(t, b"abd") == [0, 3, 4, len(t) + 1]
        assert first_ends_by_find(t, b"") == [0]
        for p in (b"abc", b"abd", b""):
            assert seg2_linear(t, p) == dp_decides(t, p, 2)
        assert seg2_linear(t, b"")

    def test_empty_pattern_stays_at_zero(self):
        assert first_ends_by_find(b"a", b"") == [0]
        assert seg2_linear(b"a", b"") == dp_decides(b"a", b"", 2)


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


class TestCostColumns:
    def test_matches_cellwise_reference(self):
        rng = random.Random(12)
        raw = bytes([0, 1, 0x2D, 0xFE, 0xFF])
        cases = [(b"", b""), (b"", b"ab"), (b"abc", b""), (b"ab", b"aab"),
                 (raw, raw[::-1]), (b"\x00\xff" * 5, b"\xff\x00\xff")]
        for case in range(600):
            symbols = raw if case % 5 == 0 else b"abcd"[: 1 + case % 4]
            n, m = rng.randint(0, 60), rng.randint(0, 20)
            if case % 7 == 0:
                n = rng.randint(0, m)  # the pattern is longer than the text
            t = bytes(rng.choice(symbols) for _ in range(n))
            cases.append((t, bytes(rng.choice(symbols) for _ in range(m))))
        for t, p in cases:
            assert cost_tables(t, p) == cost_tables_reference(t, p), (t, p)


class TestAboveOracleCap:
    @pytest.fixture(scope="class")
    def instances(self):
        rng = random.Random(13)
        out = []
        for case in range(12):
            n = rng.randint(300, 2000)
            t = bytes(97 + rng.randrange(1 + case % 4) for _ in range(n))
            pieces = rng.randint(1, 6)
            out.append((t, cut_pattern(rng, t, rng.randint(pieces, 120), pieces), pieces))
        return out

    def test_reversal_invariant(self, instances):
        rng = random.Random(14)
        for t, p, _ in instances:
            assert min_segments(t[::-1], p[::-1]) == min_segments(t, p)
            q = random_text(rng, 40, alphabet=4)
            assert min_segments(t[::-1], q[::-1]) == min_segments(t, q)

    def test_cut_pattern_within_its_pieces(self, instances):
        for t, p, pieces in instances:
            needed = min_segments(t, p)
            assert needed is not None and needed <= pieces

    @pytest.fixture(scope="class")
    def straddling(self):
        """Answers on both sides of min_segments' cap of 8 and sege's cap of
        16: cut patterns drawn until the DP needs all their pieces, texts of
        a's with 20 isolated b's, where b^k needs k pieces, and unary texts."""
        rng = random.Random(16)
        out = []
        for answer in (7, 8, 9, 10, 16, 17):
            while True:  # a cut pattern needs at most its pieces, most often all
                n, alphabet = rng.randint(300, 2000), rng.randint(2, 4)
                t = bytes(97 + rng.randrange(alphabet) for _ in range(n))
                p = cut_pattern(rng, t, rng.randint(8 * answer, 12 * answer), answer)
                if dp_min_segments(t, p) == answer:
                    break
            out.append((t, p, answer))
            n = rng.randint(300, 2000)
            unary = bytearray(b"a" * n)
            for i in rng.sample(range(0, n, 2), 20):
                unary[i] = ord("b")
            out.append((bytes(unary), b"b" * answer, answer))
        out.append((bytes(unary), b"b" * 21, None))  # more b's than the text has
        out += [(b"a" * n, b"a" * n, 1), (b"a" * n, b"a" * (n + 1), None),
                (b"a" * n, b"a" * (n // 2) + b"b", None)]
        return out

    def test_sege_agrees_with_min_segments(self, instances):
        rng = random.Random(15)
        for t, p, _ in instances:
            for q in (p, random_text(rng, 30, alphabet=4)):
                assert min_segments(t, q) == dp_min_segments(t, q), q
                for f in range(1, 18):
                    assert sege(t, q, f) == dp_decides(t, q, f), (f, q)

    def test_answers_straddle_both_caps(self, straddling):
        for t, p, answer in straddling:
            assert dp_min_segments(t, p) == answer, (len(t), p)
            assert min_segments(t, p) == answer, (len(t), p)
            for f in range(1, 18):
                assert sege(t, p, f) == dp_decides(t, p, f), (f, len(t), p)
            for cap in range(2, 17):
                assert _layers(t, p, cap) == capped(answer, cap), (cap, len(t), p)

    def test_longer_pattern_never_embeds(self, instances):
        for t, _, _ in instances:
            assert min_segments(t, t + t[:1]) is None
            assert min_segments(t[:-1], t) is None


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


class TestLayers:
    def test_table1_instance(self):
        assert _layers(T1, P1, 8) == 2
        assert _layers(T1, P1, 2) == 2
        assert _layers(T1, P1, 1) is None

    def test_stops_once_the_top_layer_dies(self):
        # a^k on (ab)^7 needs k pieces, one per isolated a
        t = b"ab" * 7
        for k in range(9):
            for cap in range(1, 8):
                assert _layers(t, b"a" * k, cap) == capped(max(k, 1), cap), (k, cap)
            assert _layers(t, b"a" * k + b"c", 7) is None

    def test_exhaustive_binary_against_oracle(self):
        for n in range(9):
            for t in map(bytes, itertools.product(b"ab", repeat=n)):
                for m in range(6):
                    for p in map(bytes, itertools.product(b"ab", repeat=m)):
                        needed = min_segments_bruteforce(t, p)
                        for cap in range(1, 8):
                            assert _layers(t, p, cap) == capped(needed, cap), (t, p, cap)


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

    def test_split_across_long_gap(self):
        # "ab" ends at 4 and "cd" starts 7 symbols from the end: the split
        # ab.cd accepts, while no split of "abdc" does
        t = b"xxab" + b"x" * 300 + b"cd" + b"yyyyy"
        assert seg2_linear(t, b"abcd")
        assert not seg2_linear(t, b"abdc")

    def test_agrees_with_dp_budget_two(self):
        rng = random.Random(7)
        for _ in range(600):
            t, p = random_text(rng, 13), random_text(rng, 7)
            assert seg2_linear(t, p) == dp_decides(t, p, 2)

    @settings(max_examples=200, deadline=None)
    @given(t=texts, p=patterns)
    def test_agrees_with_dp_hypothesis(self, t, p):
        assert seg2_linear(t, p) == dp_decides(t, p, 2)

    def test_agrees_with_dp_above_oracle_cap(self):
        rng = random.Random(11)
        seen = set()
        for case in range(200):
            n, m = rng.randint(100, 400), rng.randint(5, 60)
            alphabet = rng.randint(1, 4)
            if case % 3 == 0:  # periodic: many one-piece ends survive long
                period = random_text(rng, 6, alphabet) or b"a"
                t = (period * n)[:n]
            else:
                t = bytes(97 + rng.randrange(alphabet) for _ in range(n))
            pieces = rng.randint(0, 3)
            if pieces:
                p = cut_pattern(rng, t, m, pieces)
            else:
                p = bytes(97 + rng.randrange(alphabet) for _ in range(m))
            answer = seg2_linear(t, p)
            assert answer == dp_decides(t, p, 2)
            seen.add((pieces, answer))
            assert split_decides(t, p) == answer
        assert {(1, True), (2, True), (3, True), (3, False), (0, False)} <= seen

    def test_exhaustive_binary_against_oracle(self):
        # every split, including a second piece that starts right at the
        # first piece's end and one that starts a symbol before it
        for n in range(9):
            for t in map(bytes, itertools.product(b"ab", repeat=n)):
                for m in range(6):
                    for p in map(bytes, itertools.product(b"ab", repeat=m)):
                        needed = min_segments_bruteforce(t, p)
                        expected = needed is not None and needed <= 2
                        assert seg2_linear(t, p) == expected, (t, p)

    @pytest.mark.parametrize("n", [63, 64, 65, 2000])
    def test_unary_text_keeps_both_states_alive(self, n):
        for t in (b"a" * n, b"a" * (n // 2) + b"b" + b"a" * (n - n // 2)):
            for k in (n - 2, n - 1, n, n + 1):
                for p in (b"a" * k + b"b", b"b" + b"a" * k, b"a" * k,
                          b"a" * (k // 2) + b"b" + b"a" * (k - k // 2)):
                    assert seg2_linear(t, p) == dp_decides(t, p, 2), (len(t), p)


RAW = bytes([0x00, 0x7F, 0x80, 0xFF])


def boundary_cases(n):
    """Texts of length n over one to four raw bytes, with patterns cut from
    them, patterns longer than them and a last symbol that occurs only at the
    end, so the surviving ends reach the top bits of the masks."""
    rng = random.Random(n)
    cases = [(RAW[:1] * n, RAW[:1] * max(n - 1, 0) + RAW[3:]),
             (RAW[:1] * max(n - 1, 0) + RAW[3:], RAW[:1] * (n // 2) + RAW[3:])]
    for case in range(40):
        t = bytes(rng.choice(RAW[: 1 + case % 4]) for _ in range(n))
        i, j, k, l = sorted(rng.randint(0, n) for _ in range(4))
        cases += [(t, t), (t, t + bytes([RAW[case % 4]])), (t, t[i:j] + t[k:l]),
                  (t, t[k:l] + t[i:j]), (t, bytes(rng.choice(RAW) for _ in range(case % 7)))]
    return cases


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 29, 30, 31, 63, 64, 65])
class TestBitBoundaries:
    """Text lengths around the byte padding of ``np.packbits`` and the 30-bit
    digits of CPython ints, over bytes on both sides of 0x80."""

    def test_first_ends_agree_with_find(self, n):
        for t, p in boundary_cases(n):
            answer = seg2_linear(t, p)
            assert answer == split_decides(t, p) == dp_decides(t, p, 2), (t, p)

    def test_seg2_linear_agrees_with_dp(self, n):
        seen = set()
        for t, p in boundary_cases(n):
            answer = seg2_linear(t, p)
            assert answer == dp_decides(t, p, 2), (t, p)
            assert seg2_linear(t.decode("latin-1"), p.decode("latin-1")) == answer
            seen.add((len(p) > n, answer))
        assert {(False, True), (True, False)} <= seen

    def test_layers_at_every_cap_agree_with_dp(self, n):
        for t, p in boundary_cases(n):
            needed = dp_min_segments(t, p)
            assert min_segments(t, p) == needed, (t, p)
            for cap in range(2, 17):
                assert _layers(t, p, cap) == capped(needed, cap), (t, p, cap)


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
