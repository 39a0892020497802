"""Tests for the independent-budget solver and the score machinery."""

import importlib
import random
import tracemalloc

import pytest

from segsub.core import ResourceLimitError
from segsub.harness import generate_instance
from segsub.indseglcs import (
    _fill,
    _lcs_length,
    indseglcs,
    segmentation_score,
    side_config,
)
from segsub.oracle import indseglcs_bruteforce, slcs_bruteforce
from segsub.seglcs import slcs_baseline, slcs_diagonal
from segsub.segmatch import min_segments

from helpers import (
    classic_lcs_len,
    embedding_pieces,
    enumerate_embeddings,
    indseglcs_cellwise,
    random_text,
)

# the package's ``indseglcs`` attribute is the function, not this module
MODULE = importlib.import_module("segsub.indseglcs")

# (t1, t2, f1, f2, force_family, answer) above the brute-force oracle's length
# cap, recorded with an earlier cell-by-cell implementation of the same tables.
# The comment gives each side's table family and g.
PINNED = [
    ("dbcbdcbdcdbccabdbbdacdda", "bcdccbcddcbdbbabaccdacbbdcbbcdbcdccdbbcb",
     3, 7, None, 17),  # count g=3 / count g=7
    ("ccaaaaabcabaaabacbcbbcbc", "baabbbacccbcabaabacabbcacccbcccaaaacaacc",
     9, 4, None, 16),  # score g=6 / count g=4
    ("abbdbbabaaabcaacabaabbbdbdccddbdddbbbcdbbcdaacabdabddadcaccb",
     "badabbacccdbcdddcbaaacdbaadacb", 25, 6, None, 26),  # score g=10 / count g=6
    ("abccaaccabacccbbcaaacaabccbbcacacbbcbbcabbbbccaababbcbbccabc",
     "cabbcabbcacbbccaacabcbbaccbcba", 4, 9, None, 23),  # count g=4 / count g=9
    ("dcadabadcbacacbdbbdcadaacbdabb", "bcbdabcdccbacdbcbcbbdbbb",
     6, 10, "count", 17),  # count g=6 / count g=10
    ("bcaaddadbccdccddacbddcdcbacbbd", "dcabadacaaddbbccdcabdbcc",
     6, 10, "score", 16),  # score g=18 / score g=4
    ("bbaabbbaababbaabbaaabbbabaaababbbaab", "bbabbaaabbbbbaababab",
     18, 40, None, 20),  # score g=0 / score g=0 (saturated budgets)
    ("cacddcddcaabdbbbaacaacbbbcabacca", "cbaccaddbabccadbcdab",
     16, 5, "count", 13),  # count g=16 = n1/2 / count g=5
    ("bcaadaabaabdbbbddaddcbbcbbdabcdbddbdddac",
     "cbcacacdabbbdadddddccbbbdadcacbcbbddcadc", 10, 10, None, 27),  # count g=10 both
    ("cabdbcddabddcccabbaadbbbacdbccccdbdbddaaadcbbaab", "babaacaabdbdbacc",
     1, 1, None, 4),  # count g=1 / count g=1
]


class TestAppendixExamples:
    def test_equal_budgets(self):
        assert indseglcs(b"abcxdexf", b"abycdef", 2, 2) == 5

    def test_unequal_budgets(self):
        assert indseglcs(b"abcxdexf", b"abycdef", 3, 2) == 6

    def test_two_segment_pair(self):
        assert indseglcs(b"abac", b"acbc", 2, 2) == 3

    def test_beats_shared_segmentation(self):
        # shared-segmentation answer is 4; independent embeddings reach 5
        assert slcs_bruteforce(b"abcxdexf", b"abycdef", 2) == 4
        assert indseglcs(b"abcxdexf", b"abycdef", 2, 2) == 5


class TestScore:
    def test_empty_factorization(self):
        assert segmentation_score([b""]) == 0

    def test_simple(self):
        assert segmentation_score([b"ab", b"c", b"d"]) == 2

    def test_no_pieces_rejected(self):
        with pytest.raises(ValueError):
            segmentation_score([])

    def test_suffix_ending_identity(self):
        # a factorization ending with a segment scores |T| - 2h + 1
        rng = random.Random(30)
        for _ in range(200):
            h = rng.randint(1, 4)
            pieces = [random_text(rng, 3)]  # v0 may be empty
            for k in range(h):
                if k:
                    pieces.append(bytes([97 + rng.randrange(3)]) + random_text(rng, 2))
                pieces.append(bytes([97 + rng.randrange(3)]) + random_text(rng, 2))
            total = sum(len(w) for w in pieces)
            assert segmentation_score(pieces) == total - 2 * h + 1

    def test_parity_exhaustive(self):
        # factorizations ending with a segment have score parity opposite to |T|
        rng = random.Random(31)
        for _ in range(120):
            t = random_text(rng, 7)
            for m in range(1, len(t) + 1):
                for positions in enumerate_embeddings(t, t[-m:]):
                    if positions and positions[-1] == len(t) - 1:
                        pieces = embedding_pieces(t, positions)
                        score = segmentation_score(pieces)
                        assert (score - len(t)) % 2 == 1

    def test_membership_characterization(self):
        # u is embeddable within f segments iff some factorization of the
        # full text scores at least |T| - 2f
        rng = random.Random(32)
        checked = 0
        for _ in range(150):
            t = random_text(rng, 8)
            positions = tuple(
                sorted(rng.sample(range(len(t)), rng.randint(0, len(t))))
            )
            u = bytes(t[k] for k in positions)
            for f in (1, 2, 3):
                best = None
                for emb in enumerate_embeddings(t, u):
                    score = segmentation_score(embedding_pieces(t, emb))
                    best = score if best is None else max(best, score)
                needed = min_segments(t, u)
                member = needed is not None and needed <= f
                scored = best is not None and best >= len(t) - 2 * f
                if not u:
                    scored = True  # zero-segment factorization (v0 = T)
                assert member == scored, (t, u, f)
                checked += 1
        assert checked


class TestSideConfig:
    def test_clamping(self):
        assert side_config(8, 99).f == 4
        assert side_config(0, 3).f == 1
        assert side_config(1, 1).f == 1

    def test_family_threshold(self):
        assert side_config(9, 3).family == "count"  # 3 <= 9 - 6, ties to count
        assert side_config(8, 3).family == "score"
        assert side_config(10, 2).family == "count"

    def test_parameter_spans(self):
        cfg = side_config(10, 2)
        assert (cfg.family, cfg.g) == ("count", 2)
        cfg = side_config(10, 4)
        assert (cfg.family, cfg.g) == ("score", 2)
        cfg = side_config(10, 5)
        assert (cfg.family, cfg.g) == ("score", 0)

    def test_forcing(self):
        assert side_config(10, 2, "score").g == 6
        assert side_config(10, 4, "count").g == 4
        with pytest.raises(ValueError):
            side_config(10, 2, "weird")

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            side_config(5, 0)


class TestSolver:
    def test_matches_bruteforce(self):
        rng = random.Random(33)
        for _ in range(300):
            t1, t2 = random_text(rng, 8), random_text(rng, 8)
            f1 = rng.randint(1, 5)
            f2 = rng.randint(1, 5)
            assert indseglcs(t1, t2, f1, f2) == indseglcs_bruteforce(t1, t2, f1, f2)

    def test_family_choice_is_immaterial(self):
        rng = random.Random(34)
        for _ in range(200):
            t1, t2 = random_text(rng, 8), random_text(rng, 8)
            f1, f2 = rng.randint(1, 5), rng.randint(1, 5)
            auto = indseglcs(t1, t2, f1, f2)
            assert auto == indseglcs(t1, t2, f1, f2, force_family="count")
            assert auto == indseglcs(t1, t2, f1, f2, force_family="score")

    def test_monotone_in_each_budget(self):
        rng = random.Random(35)
        for _ in range(150):
            t1, t2 = random_text(rng, 8), random_text(rng, 8)
            f1, f2 = rng.randint(1, 4), rng.randint(1, 4)
            base = indseglcs(t1, t2, f1, f2)
            assert indseglcs(t1, t2, f1 + 1, f2) >= base
            assert indseglcs(t1, t2, f1, f2 + 1) >= base

    def test_at_least_shared_variant(self):
        rng = random.Random(36)
        for _ in range(150):
            t1, t2 = random_text(rng, 8), random_text(rng, 8)
            f = rng.randint(1, 4)
            assert indseglcs(t1, t2, f, f) >= slcs_bruteforce(t1, t2, f)

    def test_saturated_budgets_reach_classic_lcs(self):
        rng = random.Random(37)
        for _ in range(100):
            t1, t2 = random_text(rng, 20), random_text(rng, 20)
            f1 = max(1, (len(t1) + 1) // 2)
            f2 = max(1, (len(t2) + 1) // 2)
            assert indseglcs(t1, t2, f1, f2) == classic_lcs_len(t1, t2)
            assert indseglcs(t1, t2, f1 + 3, f2 + 7) == classic_lcs_len(t1, t2)

    def test_empty_inputs(self):
        assert indseglcs(b"", b"abc", 1, 1) == 0
        assert indseglcs(b"abc", b"", 2, 1) == 0
        assert indseglcs(b"", b"", 2, 2) == 0
        for family in (None, "count", "score"):
            assert indseglcs(b"", b"abcab", 1, 3, family) == 0
            assert indseglcs(b"abcab", b"", 3, 1, family) == 0
            assert indseglcs(b"a", b"a", 1, 1, family) == 1
            assert indseglcs(b"a", b"b", 1, 1, family) == 0
        # g = 0 under the score family: the budget reaches ceil(n/2)
        assert side_config(3, 2, "score").g == 0
        assert indseglcs(b"abc", b"abc", 2, 2, "score") == 3
        assert indseglcs(b"abc", b"cab", 2, 2, "score") == 2
        # the longest diagonal, min(n1, n2) + 1 cells, is shorter than the
        # longer text, and inner diagonals start past i1 = 1
        rng = random.Random(38)
        for n1, n2 in ((1, 12), (12, 1), (2, 11), (11, 3), (5, 13)):
            for _ in range(4):
                t1 = bytes(97 + rng.randrange(2) for _ in range(n1))
                t2 = bytes(97 + rng.randrange(2) for _ in range(n2))
                f1, f2 = rng.randint(1, 4), rng.randint(1, 4)
                want = indseglcs_bruteforce(t1, t2, f1, f2)
                for family in (None, "count", "score"):
                    assert indseglcs(t1, t2, f1, f2, family) == want, (t1, t2, f1, f2)

    def test_matches_cellwise_reference(self):
        # above the oracle's cap, with both families forced onto either side
        rng = random.Random(39)
        for _ in range(20):
            t1, t2 = random_text(rng, 16), random_text(rng, 16)
            f1, f2 = rng.randint(1, 4), rng.randint(1, 4)
            family = rng.choice((None, "count", "score"))
            cfg1 = side_config(len(t1), f1, family)
            cfg2 = side_config(len(t2), f2, family)
            assert indseglcs(t1, t2, f1, f2, family) == indseglcs_cellwise(
                t1, t2, cfg1, cfg2), (t1, t2, f1, f2, family)

    @pytest.mark.parametrize("t1, t2, f1, f2, family, answer", PINNED)
    def test_pinned_answers(self, t1, t2, f1, f2, family, answer):
        assert indseglcs(t1, t2, f1, f2, force_family=family) == answer

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            indseglcs(b"a", b"a", 0, 1)
        with pytest.raises(ValueError):
            indseglcs(b"a", b"a", 1, -2)

    def test_oversized_tables_refused_before_allocating(self):
        # n = 20000 at f = 5000 is the count family with g = 5000: five
        # diagonals of 20001 * 4 * 5001 * 5001 float32, about 40 TB
        t1, t2 = b"ab" * 10_000, b"ba" * 10_000
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="GiB"):
                indseglcs(t1, t2, 5000, 5000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def _near_copy(rng, n, k):
    """A text of n symbols over k and a copy with up to three substitutions."""
    t1 = bytes(97 + rng.randrange(k) for _ in range(n))
    t2 = bytearray(t1)
    for pos in rng.sample(range(n), min(n, rng.randint(0, 3))):
        t2[pos] = 97 + rng.randrange(k)
    return t1, bytes(t2)


def _fills(t1, t2, f1, f2, family=None):
    """``_fill``'s answers at the lower bounds 0, the slcs bound and the
    answer itself, with t1 the shorter text as ``indseglcs`` passes it."""
    if len(t1) > len(t2):
        t1, t2, f1, f2 = t2, t1, f2, f1
    cfg1 = side_config(len(t1), f1, family)
    cfg2 = side_config(len(t2), f2, family)
    answer = _fill(t1, t2, cfg1, cfg2, 0)
    bound = slcs_baseline(t1, t2, min(cfg1.f, cfg2.f))
    assert bound <= answer <= _lcs_length(t1, t2)
    return [answer, _fill(t1, t2, cfg1, cfg2, bound),
            _fill(t1, t2, cfg1, cfg2, answer)]


class TestBoundsAndBand:
    def test_lcs_helper_matches_textbook_lcs(self):
        rng = random.Random(41)
        for k in (1, 2, 256):
            for _ in range(60):
                t1 = bytes(rng.randrange(k) for _ in range(rng.randint(0, 40)))
                t2 = bytes(rng.randrange(k) for _ in range(rng.randint(0, 40)))
                assert _lcs_length(t1, t2) == classic_lcs_len(t1, t2), (t1, t2)

    def test_band_fill_exact_above_oracle_cap(self):
        # near copies and identical texts put the band at one or a few grid
        # diagonals, where every other anti-diagonal has no row inside it
        rng = random.Random(42)
        t = bytes(97 + rng.randrange(3) for _ in range(27))
        for f in (1, 2, 5, 14):
            assert _fills(t, t, f, f) == [27, 27, 27]
        for case in range(36):
            n = rng.randint(16, 60)
            k = rng.choice((1, 2, 4, 8))
            if case % 3 == 0:
                t1 = t2 = bytes(97 + rng.randrange(k) for _ in range(n))
            elif case % 3 == 1:
                t1, t2 = _near_copy(rng, n, k)
            else:
                t1 = bytes(97 + rng.randrange(k) for _ in range(n))
                t2 = bytes(97 + rng.randrange(k) for _ in range(rng.randint(16, 60)))
            f1, f2 = rng.randint(1, n // 3), rng.randint(1, n // 3)
            family = rng.choice((None, "count", "score"))
            answers = _fills(t1, t2, f1, f2, family)
            assert answers == [answers[0]] * 3, (t1, t2, f1, f2, family)
            assert indseglcs(t1, t2, f1, f2, family) == answers[0]

    def test_band_fill_matches_bruteforce_at_oracle_cap(self):
        rng = random.Random(43)
        for case in range(16):
            k = rng.choice((1, 2, 3))
            if case % 2:
                t1, t2 = _near_copy(rng, 14, k)
            else:
                t1 = bytes(97 + rng.randrange(k) for _ in range(14))
                t2 = bytes(97 + rng.randrange(k) for _ in range(rng.randint(10, 14)))
            f1, f2 = rng.randint(1, 5), rng.randint(1, 5)
            want = indseglcs_bruteforce(t1, t2, f1, f2)
            assert _fills(t1, t2, f1, f2) == [want] * 3, (t1, t2, f1, f2)

    def test_near_copy_needs_no_tables(self):
        # the slcs bound reaches the LCS, so the five diagonals, about 21 MB
        # at n = 160 and g = 40, are never allocated
        t1, t2 = generate_instance((160, 160), alphabet=4, seed=1, similarity=2)
        tracemalloc.start()
        try:
            answer = indseglcs(t1, t2, 40, 40)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert answer == 158
        assert peak < 2 << 20

    def test_saturated_budgets_return_classic_lcs_without_tables(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("saturated budgets need neither bound nor tables")

        monkeypatch.setattr(MODULE, "slcs_baseline", refuse)
        monkeypatch.setattr(MODULE, "_fill", refuse)
        rng = random.Random(44)
        for _ in range(40):
            t1, t2 = random_text(rng, 30), random_text(rng, 30)
            f1 = max(1, (len(t1) + 1) // 2)
            f2 = max(1, (len(t2) + 1) // 2) + rng.randint(0, 3)
            assert indseglcs(t1, t2, f1, f2) == classic_lcs_len(t1, t2)


def test_metamorphic_properties():
    # lengths 20-60, above the brute-force oracle's cap
    rng = random.Random(40)
    for _ in range(16):
        n1, n2 = rng.randint(20, 60), rng.randint(20, 60)
        k = rng.choice((2, 3, 4))
        t1 = bytes(97 + rng.randrange(k) for _ in range(n1))
        t2 = bytes(97 + rng.randrange(k) for _ in range(n2))
        f1, f2 = rng.randint(1, n1 // 4), rng.randint(1, n2 // 4)
        base = indseglcs(t1, t2, f1, f2)
        assert indseglcs(t2, t1, f2, f1) == base
        assert indseglcs(t1[::-1], t2[::-1], f1, f2) == base
        assert indseglcs(t1, t2, f1 + 1, f2) >= base
        assert indseglcs(t1, t2, f1, f2 + 1) >= base
        assert indseglcs(t1, t2, f1, f2, force_family="count") == base
        assert indseglcs(t1, t2, f1, f2, force_family="score") == base
        f = min(f1, f2)
        assert indseglcs(t1, t2, f, f) >= slcs_diagonal(t1, t2, f)
