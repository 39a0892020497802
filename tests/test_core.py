"""Tests for the shared domain types and the package-level names."""

import importlib
import pkgutil
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segsub.core import (
    Embedding,
    Segmentation,
    as_text,
    check_budget,
    verify_embedding,
)

import segsub
from segsub import sege

from helpers import greedy_subsequence

TABLE1_T = b"baacababbabcaacaabcba"
TABLE1_P = b"abbabaca"


def embed(t, segments, starts):
    return verify_embedding(t, Embedding(Segmentation(tuple(segments)), tuple(starts)))


class TestVerifyEmbedding:
    def test_exact_decomposition(self):
        assert embed(b"abac", [b"ab", b"c"], [1, 4])

    def test_wrong_position(self):
        assert not embed(b"abac", [b"ab", b"c"], [1, 3])

    def test_empty_pattern_embeds_anywhere(self):
        assert embed(b"anything", [b""], [1])
        assert embed(b"anything", [b""], [9])  # one past the end is fine
        assert embed(b"", [b""], [1])

    def test_overlap_rejected(self):
        assert not embed(b"aaaa", [b"aa", b"aa"], [1, 2])

    def test_adjacent_segments_allowed(self):
        assert embed(b"aaaa", [b"aa", b"aa"], [1, 3])

    def test_out_of_range_positions(self):
        assert not embed(b"abc", [b"a"], [0])
        assert not embed(b"abc", [b"a"], [5])
        assert not embed(b"abc", [b"bc"], [3])
        # True == 1.0 == 1 would place b"a" correctly, but a start is an int
        assert not embed(b"abc", [b"a"], [True])
        assert not embed(b"abc", [b"a"], [1.0])

    def test_arity_mismatch(self):
        assert not embed(b"abc", [b"a", b"b"], [1])

    def test_order_violation(self):
        assert not embed(b"abab", [b"b", b"a"], [2, 1])


def test_segmentation_requires_a_segment():
    with pytest.raises(ValueError):
        Segmentation(())


def test_segmentation_pattern_concatenates():
    seg = Segmentation((b"ab", b"", b"c"))
    assert seg.pattern == b"abc"
    assert seg.segment_count == 3


def test_as_text_coercions():
    assert as_text("abc") == b"abc"
    assert as_text(bytearray(b"xy")) == b"xy"
    with pytest.raises(TypeError):
        as_text(123)
    assert as_text("\xff") == b"\xff"
    with pytest.raises(ValueError):
        as_text("a\u0100")  # one symbol above U+00FF


@pytest.mark.parametrize("bad", [0, -1, True, 1.5, None])
def test_budget_rejected(bad):
    with pytest.raises((ValueError, TypeError)):
        check_budget(bad)


class TestFacade:
    """``segsub.sege``, the package's membership entry point."""

    def test_table1_instance(self):
        assert sege(TABLE1_T, TABLE1_P, 2)
        assert not sege(TABLE1_T, TABLE1_P, 1)

    def test_identity_single_segment(self):
        assert sege(b"xyz", b"xyz", 1)

    def test_empty_pattern(self):
        for f in (1, 2, 5):
            assert sege(b"abc", b"", f)
            assert sege(b"", b"", f)

    def test_budget_validated(self):
        with pytest.raises(ValueError):
            sege(b"a", b"a", 0)


@settings(max_examples=150, deadline=None)
@given(
    t=st.binary(max_size=12).map(lambda b: bytes(97 + c % 3 for c in b)),
    p=st.binary(max_size=6).map(lambda b: bytes(97 + c % 3 for c in b)),
    f=st.integers(min_value=1, max_value=8),
)
def test_monotone_in_budget(t, p, f):
    if sege(t, p, f):
        assert sege(t, p, f + 1)


@settings(max_examples=150, deadline=None)
@given(
    t=st.binary(max_size=14).map(lambda b: bytes(97 + c % 3 for c in b)),
    p=st.binary(min_size=1, max_size=7).map(lambda b: bytes(97 + c % 3 for c in b)),
)
def test_extreme_budgets(t, p):
    assert sege(t, p, 1) == (p in t)
    assert sege(t, p, len(p)) == greedy_subsequence(t, p)


def test_random_witnesses_are_members():
    rng = random.Random(20240521)
    for _ in range(300):
        n = rng.randint(1, 14)
        t = bytes(97 + rng.randrange(3) for _ in range(n))
        chosen = sorted(rng.sample(range(n), rng.randint(0, n)))
        # group chosen positions into runs: that is a valid embedding
        segments, starts = [], []
        for pos in chosen:
            if starts and pos == starts[-1] - 1 + len(segments[-1]):
                segments[-1] += bytes([t[pos]])
            else:
                segments.append(bytes([t[pos]]))
                starts.append(pos + 1)
        if not segments:
            segments, starts = [b""], [1]
        e = Embedding(Segmentation(tuple(segments)), tuple(starts))
        assert verify_embedding(t, e)
        assert sege(t, e.segmentation.pattern, len(segments))


def test_package_attributes_are_not_shadowed_by_submodules():
    # a package attribute named like a submodule hides it from
    # ``monkeypatch.setattr(segsub.<name>, ...)`` and ``import segsub.<name> as m``
    for info in pkgutil.iter_modules(segsub.__path__):
        module = importlib.import_module(f"segsub.{info.name}")
        assert getattr(segsub, info.name) is module, info.name
