"""Tests for the common-suffix-of-prefixes index, both backends."""

import random

import pytest

from segsub.lce import LcsufIndex, lcsuf_matrix


def brute_lcsuf(t1: bytes, t2: bytes, i: int, j: int) -> int:
    x = 0
    while x < i and x < j and t1[i - 1 - x] == t2[j - 1 - x]:
        x += 1
    return x


def test_worked_example():
    index = LcsufIndex(b"abcabbac", b"bcbcbbca")
    assert index.query(6, 6) == 2


def test_derived_cells():
    index = LcsufIndex(b"abcabbac", b"bcbcbbca")
    assert index.query(8, 8) == 0  # ...ac vs ...ca
    assert index.query(6, 5) == 1  # abcabb vs bcbcb share "b"


def test_identical_texts():
    for mode in ("quadratic", "suffix-array"):
        index = LcsufIndex(b"abcde", b"abcde", mode=mode)
        assert index.query(5, 5) == 5
        assert index.query(3, 3) == 3


def test_disjoint_alphabets():
    index = LcsufIndex(b"aaa", b"bbb")
    for i in range(4):
        for j in range(4):
            assert index.query(i, j) == 0


def test_zero_prefix():
    index = LcsufIndex(b"ab", b"ab")
    assert index.query(0, 2) == 0
    assert index.query(2, 0) == 0


def test_out_of_range_rejected():
    index = LcsufIndex(b"ab", b"abc")
    with pytest.raises(IndexError):
        index.query(3, 0)
    with pytest.raises(IndexError):
        index.query(0, 4)
    with pytest.raises(IndexError):
        index.query(-1, 0)


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        LcsufIndex(b"a", b"a", mode="tree")


def test_auto_mode_selection():
    assert LcsufIndex(b"a" * 10, b"a" * 10).mode == "quadratic"
    assert LcsufIndex(b"a" * 1100, b"a" * 1100).mode == "suffix-array"


def test_empty_texts():
    for mode in ("quadratic", "suffix-array"):
        index = LcsufIndex(b"", b"abc", mode=mode)
        assert index.query(0, 3) == 0


def test_matrix_recurrence():
    t1, t2 = b"abcabbac", b"bcbcbbca"
    x = lcsuf_matrix(t1, t2)
    for i in range(1, len(t1) + 1):
        for j in range(1, len(t2) + 1):
            if t1[i - 1] == t2[j - 1]:
                assert x[i, j] == x[i - 1, j - 1] + 1
            else:
                assert x[i, j] == 0


def test_cross_mode_agreement_exhaustive():
    rng = random.Random(9)
    for alphabet in (1, 2, 4):
        for _ in range(25):
            n1, n2 = rng.randint(0, 30), rng.randint(0, 30)
            t1 = bytes(97 + rng.randrange(alphabet) for _ in range(n1))
            t2 = bytes(97 + rng.randrange(alphabet) for _ in range(n2))
            quad = LcsufIndex(t1, t2, mode="quadratic")
            sa = LcsufIndex(t1, t2, mode="suffix-array")
            for i in range(n1 + 1):
                for j in range(n2 + 1):
                    expected = brute_lcsuf(t1, t2, i, j)
                    assert quad.query(i, j) == expected
                    assert sa.query(i, j) == expected


def test_query_properties():
    rng = random.Random(10)
    for _ in range(40):
        n1, n2 = rng.randint(1, 25), rng.randint(1, 25)
        t1 = bytes(97 + rng.randrange(2) for _ in range(n1))
        t2 = bytes(97 + rng.randrange(2) for _ in range(n2))
        index = LcsufIndex(t1, t2, mode="suffix-array")
        for i in range(n1 + 1):
            for j in range(n2 + 1):
                q = index.query(i, j)
                assert q <= min(i, j)
                if i and j and t1[i - 1] == t2[j - 1]:
                    assert q == index.query(i - 1, j - 1) + 1
                else:
                    assert q == 0
