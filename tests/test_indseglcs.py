"""Tests for the independent-budget solver and the score machinery."""

import random
import tracemalloc

import pytest

from segsub import independent
from segsub.core import ResourceLimitError
from segsub.harness import generate_instance
from segsub.independent import (
    _fill,
    _lcs_length,
    _lcs_string,
    _near_lcs,
    indseglcs,
    segmentation_score,
    side_config,
)
from segsub.oracle import indseglcs_bruteforce, slcs_bruteforce
from segsub.seglcs import slcs_baseline, slcs_diagonal
from segsub.segmatch import min_segments, sege

from helpers import (
    classic_lcs_len,
    embedding_pieces,
    enumerate_embeddings,
    indseglcs_cellwise,
    random_text,
    table_fills,
)

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
            want = indseglcs_bruteforce(t1, t2, f1, f2)
            assert indseglcs(t1, t2, f1, f2) == want
            assert slcs_bruteforce(t1, t2, min(f1, f2)) <= want, (t1, t2, f1, f2)
            upper = min(classic_lcs_len(t1, t2), slcs_bruteforce(t1, t2, f1 + f2 - 1))
            assert want <= upper, (t1, t2, f1, f2)

    def test_family_choice_is_immaterial(self):
        rng = random.Random(34)
        for _ in range(200):
            t1, t2 = random_text(rng, 8), random_text(rng, 8)
            f1, f2 = rng.randint(1, 5), rng.randint(1, 5)
            auto = indseglcs(t1, t2, f1, f2)
            assert auto == indseglcs(t1, t2, f1, f2, force_family="count")
            assert auto == indseglcs(t1, t2, f1, f2, force_family="score")
            # the certificate settles most of these calls; the tables too
            assert table_fills(t1, t2, f1, f2, "count") == [auto] * 3
            assert table_fills(t1, t2, f1, f2, "score") == [auto] * 3

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
        assert table_fills(t1, t2, f1, f2, family) == [answer] * 3

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


class TestBoundsAndBand:
    def test_lcs_helper_matches_textbook_lcs(self):
        rng = random.Random(41)
        for k in (1, 2, 256):
            for _ in range(60):
                t1 = bytes(rng.randrange(k) for _ in range(rng.randint(0, 40)))
                t2 = bytes(rng.randrange(k) for _ in range(rng.randint(0, 40)))
                want = classic_lcs_len(t1, t2)
                assert _lcs_length(t1, t2) == want, (t1, t2)
                common, pieces1, pieces2 = _lcs_string(t1, t2)
                assert len(common) == want, (t1, t2)
                # the trace's runs are an embedding in that many pieces;
                # min_segments counts the empty string as one
                for t, pieces in ((t1, pieces1), (t2, pieces2)):
                    fewest = min_segments(t, common)
                    assert fewest is not None, (t1, t2)
                    assert fewest <= max(1, pieces), (t1, t2)
                    assert pieces <= len(common), (t1, t2)
                    assert (pieces == 0) == (not common), (t1, t2)

    def test_band_fill_exact_above_oracle_cap(self):
        # near copies and identical texts put the band at one or a few grid
        # diagonals, where every other anti-diagonal has no row inside it
        rng = random.Random(42)
        t = bytes(97 + rng.randrange(3) for _ in range(27))
        for f in (1, 2, 5, 14):
            assert table_fills(t, t, f, f) == [27, 27, 27]
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
            answers = table_fills(t1, t2, f1, f2, family)
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
            assert table_fills(t1, t2, f1, f2) == [want] * 3, (t1, t2, f1, f2)

    def test_near_copy_needs_no_tables(self):
        # an LCS string fits both budgets, so the five diagonals, about 21 MB
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

        monkeypatch.setattr(independent, "slcs_baseline", refuse)
        monkeypatch.setattr(independent, "_fill", refuse)
        rng = random.Random(44)
        for _ in range(40):
            t1, t2 = random_text(rng, 30), random_text(rng, 30)
            f1 = max(1, (len(t1) + 1) // 2)
            f2 = max(1, (len(t2) + 1) // 2) + rng.randint(0, 3)
            assert indseglcs(t1, t2, f1, f2) == classic_lcs_len(t1, t2)


def _certified(t1, t2, f1, f2):
    """Whether the traced LCS string fits both budgets, t1 the shorter text,
    decided by the matcher on both sides whatever the trace's piece counts."""
    if len(t1) > len(t2):
        t1, t2, f1, f2 = t2, t1, f2, f1
    cfg1, cfg2 = side_config(len(t1), f1), side_config(len(t2), f2)
    common, _, _ = _lcs_string(t1, t2)
    return sege(t1, common, cfg1.f) and sege(t2, common, cfg2.f)


def _refuse_tables(monkeypatch):
    def refuse(*args):
        raise AssertionError("the certificate settles this call")

    monkeypatch.setattr(independent, "slcs_baseline", refuse)
    monkeypatch.setattr(independent, "_fill", refuse)


class TestCertificate:
    """An LCS string that fits both budgets is the answer, with no table."""

    def test_matches_bruteforce_at_oracle_cap(self):
        rng = random.Random(45)
        fired = missed = 0
        for case in range(120):
            k = rng.choice((1, 2, 3))
            if case % 2:
                t1, t2 = _near_copy(rng, rng.randint(8, 14), k)
            else:
                t1 = bytes(97 + rng.randrange(k) for _ in range(rng.randint(8, 14)))
                t2 = bytes(97 + rng.randrange(k) for _ in range(rng.randint(8, 14)))
            f1, f2 = rng.randint(1, 4), rng.randint(1, 4)
            want = indseglcs_bruteforce(t1, t2, f1, f2)
            assert indseglcs(t1, t2, f1, f2) == want, (t1, t2, f1, f2)
            if _certified(t1, t2, f1, f2):
                fired += 1
                assert want == classic_lcs_len(t1, t2), (t1, t2, f1, f2)
            else:
                missed += 1
        assert fired and missed

    def test_matches_full_tables_above_oracle_cap(self):
        rng = random.Random(46)
        fired = missed = 0
        for case in range(30):
            n = rng.randint(24, 80)
            k = rng.choice((2, 3, 4, 8, 26))
            if case % 3 == 0:
                t1, t2 = _near_copy(rng, n, k)
            else:
                t1 = bytes(97 + rng.randrange(k) for _ in range(n))
                t2 = bytes(97 + rng.randrange(k) for _ in range(rng.randint(24, 80)))
            f1, f2 = rng.randint(1, n // 4), rng.randint(1, n // 4)
            want = table_fills(t1, t2, f1, f2)[0]
            assert indseglcs(t1, t2, f1, f2) == want, (t1, t2, f1, f2)
            if _certified(t1, t2, f1, f2):
                fired += 1
            else:
                missed += 1
        assert fired and missed

    def test_piece_counts_give_the_matchers_verdict(self):
        # the certificate asks the matcher only for a side whose traced
        # pieces exceed its budget; above the oracle cap, that verdict is
        # the matcher's on both sides
        rng = random.Random(52)
        rescued = 0
        for case in range(120):
            n = rng.randint(24, 300)
            k = rng.choice((2, 4, 26))
            if case % 2:
                t1, t2 = _near_copy(rng, n, k)
            else:
                t1 = bytes(97 + rng.randrange(k) for _ in range(n))
                t2 = bytes(97 + rng.randrange(k) for _ in range(rng.randint(24, 300)))
            common, pieces1, pieces2 = _lcs_string(t1, t2)
            f1, f2 = rng.randint(1, max(1, pieces1 + 2)), rng.randint(1, max(1, pieces2 + 2))
            fits1, fits2 = sege(t1, common, f1), sege(t2, common, f2)
            # a side over budget whose string the matcher still accepts
            rescued += (pieces1 > f1 and fits1) + (pieces2 > f2 and fits2)
            checked = ((pieces1 <= f1 or sege(t1, common, f1))
                       and (pieces2 <= f2 or sege(t2, common, f2)))
            assert checked == (fits1 and fits2), (t1, t2, f1, f2)
        assert rescued

    def test_uniform_pair_needs_no_tables(self, monkeypatch):
        # the full fill took about 0.5 s here, and the slcs bound stops at 97
        _refuse_tables(monkeypatch)
        t1, t2 = generate_instance((160, 160), alphabet=4, seed=1)
        assert indseglcs(t1, t2, 40, 40) == 99 == classic_lcs_len(t1, t2)

    def test_traced_pieces_need_no_matcher(self, monkeypatch):
        # the trace uses 1 piece of each text at n = 2,000, and 30 of t1 and
        # 33 of t2 on the uniform pair, all within the budgets
        def refuse(*args):
            raise AssertionError("the traced pieces fit both budgets")

        monkeypatch.setattr(independent, "sege", refuse)
        t1, t2 = generate_instance((2000, 2000), alphabet=4, seed=1, similarity=2)
        assert indseglcs(t1, t2, 16, 16) == 1998
        t1, t2 = generate_instance((160, 160), alphabet=4, seed=1)
        assert indseglcs(t1, t2, 40, 40) == 99

    def test_matcher_runs_only_for_a_side_over_budget(self, monkeypatch):
        # segbench's first `independent` task at seed 1: the traced LCS
        # string takes 7 runs of t1, where 6 pieces suffice, and 6 runs of
        # t2, so only t1's side asks the matcher, which accepts
        t1, t2 = b"dbabddaddaabbcaccacaddcd", b"adccacaacdcccdacadccbcda"
        common, pieces1, pieces2 = _lcs_string(t1, t2)
        assert (pieces1, pieces2) == (7, 6)
        assert min_segments(t1, common) == min_segments(t2, common) == 6
        asked = []

        def spy(t, p, f):
            asked.append((t, p, f))
            return sege(t, p, f)

        monkeypatch.setattr(independent, "sege", spy)
        _refuse_tables(monkeypatch)
        assert indseglcs(t1, t2, 6, 6) == len(common) == classic_lcs_len(t1, t2)
        assert asked == [(t1, common, 6)]

    @pytest.mark.parametrize("n, alphabet", [(80, 2), (80, 26), (100, 4)])
    def test_skipped_bound_needs_no_tables(self, monkeypatch, n, alphabet):
        # f = n/2 - 1 is the score family at g = 2, where the slcs bound's
        # f*n1*n2 cells are deemed dearer than the tables and it does not run
        f = n // 2 - 1
        assert f > 4 * (side_config(n, f).g + 1) ** 2
        rng = random.Random(f"skipped-{n}-{alphabet}")
        t1 = bytes(97 + rng.randrange(alphabet) for _ in range(n))
        t2 = bytearray(t1)
        for pos in rng.sample(range(n), 4):  # always a new symbol
            t2[pos] = 97 + (t2[pos] - 97 + 1 + rng.randrange(alphabet - 1)) % alphabet
        pairs = [generate_instance((n, n), alphabet=alphabet, seed=1), (t1, bytes(t2))]
        want = [classic_lcs_len(*pair) for pair in pairs]
        _refuse_tables(monkeypatch)
        assert [indseglcs(*pair, f, f) for pair in pairs] == want

    def test_miss_below_lcs_needs_no_tables(self, monkeypatch):
        # the LCS is 15, but no common string of that length fits 6 pieces;
        # the search over chains of matches finds 14
        t1, t2 = b"cdcaadbdaaddaadbbaddacda", b"cdabbdbcaacabdbacbcadcad"
        assert not _certified(t1, t2, 6, 6)
        assert table_fills(t1, t2, 6, 6) == [14] * 3
        _refuse_tables(monkeypatch)
        assert indseglcs(t1, t2, 6, 6) == 14 < classic_lcs_len(t1, t2) == 15

    def test_kept_rows_stay_within_the_diagonals(self, monkeypatch):
        # n = 2001 at f = 1000 is the score family at g = 1 on both sides:
        # 2,002 rows of about 303 bytes, just under the five diagonals'
        # 5 * 2,002 * 4 * 2 * 2 float32 values
        _refuse_tables(monkeypatch)
        t1, t2 = generate_instance((2001, 2001), alphabet=4, seed=1, similarity=2)
        tracemalloc.start()
        try:
            answer = indseglcs(t1, t2, 1000, 1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert answer == 1999
        assert peak <= 5 * 2002 * 4 * 2 * 2 * 4

    def test_long_text_beside_short_one_keeps_no_rows(self, monkeypatch):
        # 3,001 rows of about 36 bytes each outweigh the diagonals' 80 bytes
        # per row of t1 and (g1 + 1) * (g2 + 1) = 2 * 51 planes
        def refuse(*args):
            raise AssertionError("the rows take more than the diagonals")

        rng = random.Random(47)
        t1 = b"abc"
        t2 = bytes(97 + rng.randrange(3) for _ in range(3000))
        want = table_fills(t1, t2, 1, 50)[0]
        monkeypatch.setattr(independent, "_lcs_string", refuse)
        assert indseglcs(t1, t2, 1, 50) == want
        assert indseglcs(t2, t1, 50, 1) == want

    def test_dear_bound_is_skipped_where_no_rows_are_kept(self, monkeypatch):
        # 401 rows of about 41.5 bytes outweigh the diagonals' 80 bytes per
        # row of t1 and (g1 + 1) * (g2 + 1) = 2 planes, and f = 20 > 4 * 2:
        # the bound's f*n1*n2 cells are dearer than the tables, so only the
        # tables run, at ell = 0
        def refuse(*args):
            raise AssertionError("neither the certificate nor the bound runs")

        rng = random.Random(48)
        t1 = bytes(97 + rng.randrange(4) for _ in range(41))
        t2 = bytes(97 + rng.randrange(4) for _ in range(400))
        cfg1, cfg2 = side_config(41, 20), side_config(400, 200)
        planes = (cfg1.g + 1) * (cfg2.g + 1)
        assert 401 * (36 + 41 / 7.5) > 80 * 42 * planes and 20 > 4 * planes
        want = table_fills(t1, t2, 20, 200)[0]
        monkeypatch.setattr(independent, "_lcs_string", refuse)
        monkeypatch.setattr(independent, "slcs_baseline", refuse)
        assert indseglcs(t1, t2, 20, 200) == want
        assert indseglcs(t2, t1, 200, 20) == want


def _near(t1, t2, f1, f2, room=10**9, steps=10**9):
    """The search's answer, t1 the shorter text, budgets clamped as the
    solver clamps them."""
    if len(t1) > len(t2):
        t1, t2, f1, f2 = t2, t1, f2, f1
    cfg1, cfg2 = side_config(len(t1), f1), side_config(len(t2), f2)
    return _near_lcs(t1, t2, cfg1.f, cfg2.f, room, steps)


class TestNearLcsSearch:
    """The search over chains of matches, from the LCS down, is exact."""

    def test_matches_bruteforce_at_oracle_cap(self):
        rng = random.Random(50)
        for case in range(200):
            k = rng.choice((1, 2, 3))
            if case % 2:
                t1, t2 = _near_copy(rng, rng.randint(1, 14), k)
            else:
                t1 = bytes(97 + rng.randrange(k) for _ in range(rng.randint(0, 14)))
                t2 = bytes(97 + rng.randrange(k) for _ in range(rng.randint(0, 14)))
            f1, f2 = rng.randint(1, 5), rng.randint(1, 5)
            want = indseglcs_bruteforce(t1, t2, f1, f2)
            assert _near(t1, t2, f1, f2) == want, (t1, t2, f1, f2)
            if len(t1) <= len(t2):  # budgets above ceil(n/2) change nothing
                assert _near_lcs(t1, t2, f1 + 3, f2 + 3, 10**9, 10**9) == \
                    indseglcs_bruteforce(t1, t2, f1 + 3, f2 + 3)

    def test_matches_full_tables_above_oracle_cap(self):
        rng = random.Random(51)
        answered = gave_up = 0
        for case in range(40):
            n1, n2 = rng.randint(24, 70), rng.randint(24, 70)
            k = rng.choice((2, 3, 4, 8, 26))
            t1 = bytes(97 + rng.randrange(k) for _ in range(n1))
            t2 = bytes(97 + rng.randrange(k) for _ in range(n2))
            f1, f2 = rng.randint(1, n1 // 3), rng.randint(1, n2 // 3)
            found = _near(t1, t2, f1, f2, steps=64 * (n1 + n2 + 1))
            if found is None:
                gave_up += 1
            else:
                answered += 1
                assert found == table_fills(t1, t2, f1, f2)[0], (t1, t2, f1, f2)
        assert answered and gave_up

    def test_limits_end_the_search(self):
        t1, t2 = b"cdcaadbdaaddaadbbaddacda", b"cdabbdbcaacabdbacbcadcad"
        assert _near(t1, t2, 6, 6) == 14
        # the pair has 144 matches, each held and each a step
        assert _near(t1, t2, 6, 6, room=143) is None
        assert _near(t1, t2, 6, 6, steps=143) is None
        assert _near(t1, t2, 6, 6, steps=600) == 14
        assert _near(b"ab", b"cd", 1, 1) == 0

    def test_uniform_misses_need_no_tables(self, monkeypatch):
        # pairs like the benchmark's: n = 24 over 4 symbols at f = 6, where the
        # traced LCS string often needs more pieces than the budget
        rng = random.Random(49)
        cases = []
        for _ in range(40):
            t1 = bytes(97 + rng.randrange(4) for _ in range(24))
            t2 = bytes(97 + rng.randrange(4) for _ in range(24))
            if not _certified(t1, t2, 6, 6):
                cases.append((t1, t2, table_fills(t1, t2, 6, 6)[0]))
        assert len(cases) >= 10
        assert any(want < classic_lcs_len(t1, t2) for t1, t2, want in cases)
        _refuse_tables(monkeypatch)
        for t1, t2, want in cases:
            assert indseglcs(t1, t2, 6, 6) == want, (t1, t2)

    def test_search_giving_up_falls_back_to_tables(self, monkeypatch):
        # the answer, 9, is far below the LCS, 16, for the search's limits
        t1, t2 = b"cbcbdbbadbbbdbaadabdbbacccab", b"ccacbcdbbdcacaccdaabbcdcdaac"
        searched, fills = [], []

        def search(*args):
            searched.append(_near_lcs(*args))
            return searched[-1]

        def spy(*args):
            fills.append(_fill(*args))
            return fills[-1]

        monkeypatch.setattr(independent, "_near_lcs", search)
        monkeypatch.setattr(independent, "_fill", spy)
        assert indseglcs(t1, t2, 2, 2) == 9 < classic_lcs_len(t1, t2) == 16
        assert searched == [None]
        assert fills == [9]
        assert table_fills(t1, t2, 2, 2) == [9] * 3

    @pytest.mark.parametrize("n1, n2, alphabet, f", [(24, 24, 4, 2), (40, 300, 2, 3),
                                                    (60, 90, 26, 5)])
    def test_search_stays_within_the_diagonals(self, monkeypatch, n1, n2, alphabet, f):
        rng = random.Random(f"held-{n1}-{n2}")
        t1 = bytes(97 + rng.randrange(alphabet) for _ in range(n1))
        t2 = bytes(97 + rng.randrange(alphabet) for _ in range(n2))
        peaks = []

        def search(*args):
            tracemalloc.start()
            try:
                return _near_lcs(*args)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        monkeypatch.setattr(independent, "_near_lcs", search)
        assert indseglcs(t1, t2, f, f) == table_fills(t1, t2, f, f)[0]
        cfg1, cfg2 = side_config(n1, f), side_config(n2, f)
        assert len(peaks) == 1
        assert peaks[0] <= 80 * (n1 + 1) * (cfg1.g + 1) * (cfg2.g + 1)


def test_metamorphic_properties():
    # lengths 20-60, above the brute-force oracle's cap. A common string cut
    # at the union of both cut sets splits into at most f1 + f2 - 1 pieces,
    # each contiguous in both texts, so the answer lies between the shared
    # answers at min(f1, f2) and at f1 + f2 - 1; the upper one is below the
    # LCS on some of these pairs
    rng = random.Random(40)
    below_lcs = 0
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
        assert table_fills(t1, t2, f1, f2, "count") == [base] * 3
        assert table_fills(t1, t2, f1, f2, "score") == [base] * 3
        f = min(f1, f2)
        shared = slcs_diagonal(t1, t2, f)
        assert indseglcs(t1, t2, f, f) >= shared
        assert shared <= base, (t1, t2, f1, f2)
        lcs, upper = classic_lcs_len(t1, t2), slcs_diagonal(t1, t2, f1 + f2 - 1)
        assert base <= min(lcs, upper), (t1, t2, f1, f2)
        below_lcs += upper < lcs
    assert below_lcs
