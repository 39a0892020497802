"""Tests for the brute-force reference implementations."""

import random

import pytest

from segsub import segmatch
from segsub.oracle import (
    OracleLimitError,
    episode_bruteforce,
    indseglcs_bruteforce,
    min_segments_bruteforce,
    slcs_bruteforce,
)

from helpers import classic_lcs_len, random_text


class TestMinSegments:
    def test_gap_needed(self):
        assert min_segments_bruteforce(b"aba", b"aa") == 2

    def test_factor(self):
        assert min_segments_bruteforce(b"abab", b"ba") == 1

    def test_not_a_subsequence(self):
        assert min_segments_bruteforce(b"01", b"00") is None

    def test_empty_pattern(self):
        assert min_segments_bruteforce(b"abc", b"") == 1
        assert min_segments_bruteforce(b"", b"") == 1

    def test_size_limit(self):
        with pytest.raises(OracleLimitError):
            min_segments_bruteforce(b"a" * 15, b"a")
        assert min_segments_bruteforce(b"a" * 15, b"a", limit=15) == 1

    def test_bounds(self):
        rng = random.Random(1)
        for _ in range(200):
            t = random_text(rng, 10)
            p = random_text(rng, 6)
            got = min_segments_bruteforce(t, p)
            if got is not None:
                assert 1 <= got <= max(1, len(p))
                assert got <= (len(t) + 1 + 1) // 2


class TestSlcs:
    def test_appendix_pair(self):
        assert slcs_bruteforce(b"abcxdexf", b"abycdef", 2) == 4

    def test_identity(self):
        for f in (1, 3):
            assert slcs_bruteforce(b"abcab", b"abcab", f) == 5

    def test_table2_instance(self):
        assert slcs_bruteforce(b"abcabbac", b"bcbcbbca", 3) == 5

    def test_monotone_and_bounded_by_lcs(self):
        rng = random.Random(2)
        for _ in range(120):
            t1 = random_text(rng, 8)
            t2 = random_text(rng, 8)
            lcs = classic_lcs_len(t1, t2)
            prev = 0
            for f in range(1, 9):
                cur = slcs_bruteforce(t1, t2, f)
                assert prev <= cur <= lcs
                prev = cur
            assert slcs_bruteforce(t1, t2, max(1, min(len(t1), len(t2)))) == lcs

    def test_size_limit(self):
        with pytest.raises(OracleLimitError):
            slcs_bruteforce(b"a" * 20, b"a", 1)


class TestIndSeglcs:
    def test_appendix_examples(self):
        assert indseglcs_bruteforce(b"abcxdexf", b"abycdef", 2, 2) == 5
        assert indseglcs_bruteforce(b"abcxdexf", b"abycdef", 3, 2) == 6
        assert indseglcs_bruteforce(b"abac", b"acbc", 2, 2) == 3

    def test_at_least_shared_variant(self):
        rng = random.Random(3)
        for _ in range(80):
            t1 = random_text(rng, 8)
            t2 = random_text(rng, 8)
            f = rng.randint(1, 4)
            assert indseglcs_bruteforce(t1, t2, f, f) >= slcs_bruteforce(t1, t2, f)

    def test_size_limit(self):
        with pytest.raises(OracleLimitError):
            indseglcs_bruteforce(b"a" * 15, b"a", 1, 1)

    def test_independent_of_the_solvers(self, monkeypatch):
        # the oracle must not reach the segmatch solver family it checks
        def refuse(*args):
            raise AssertionError("oracle called segmatch.min_segments")

        monkeypatch.setattr(segmatch, "min_segments", refuse)
        assert indseglcs_bruteforce(b"abcxdexf", b"abycdef", 3, 2) == 6


class TestEpisode:
    def test_paper_example(self):
        assert episode_bruteforce(b"0101", b"00", 3)

    def test_window_too_small(self):
        assert not episode_bruteforce(b"0101", b"00", 2)

    def test_whole_text(self):
        assert episode_bruteforce(b"ababa", b"ababa", 5)

    def test_empty_pattern(self):
        assert episode_bruteforce(b"ab", b"", 1)

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            episode_bruteforce(b"ab", b"a", 0)

    def test_size_limit(self):
        with pytest.raises(OracleLimitError):
            episode_bruteforce(b"0" * 15, b"0", 1)
