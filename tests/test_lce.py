"""Tests for the common-suffix-of-prefixes index and the dense table."""

import random

from segsub.lce import LcsufIndex, lcsuf_matrix

from helpers import brute_lcsuf, lcsuf_query


def test_worked_example():
    index = LcsufIndex(b"abcabbac", b"bcbcbbca")
    assert lcsuf_query(index, 6, 6) == 2


def test_derived_cells():
    index = LcsufIndex(b"abcabbac", b"bcbcbbca")
    assert lcsuf_query(index, 8, 8) == 0  # ...ac vs ...ca
    assert lcsuf_query(index, 6, 5) == 1  # abcabb vs bcbcb share "b"


def test_identical_texts():
    index = LcsufIndex(b"abcde", b"abcde")
    assert lcsuf_query(index, 5, 5) == 5
    assert lcsuf_query(index, 3, 3) == 3


def test_disjoint_alphabets():
    index = LcsufIndex(b"aaa", b"bbb")
    for i in range(4):
        for j in range(4):
            assert lcsuf_query(index, i, j) == 0


def test_zero_prefix():
    index = LcsufIndex(b"ab", b"ab")
    assert lcsuf_query(index, 0, 2) == 0
    assert lcsuf_query(index, 2, 0) == 0


def test_empty_texts():
    index = LcsufIndex(b"", b"abc")
    assert lcsuf_query(index, 0, 3) == 0


def test_matrix_recurrence():
    t1, t2 = b"abcabbac", b"bcbcbbca"
    x = lcsuf_matrix(t1, t2)
    for i in range(1, len(t1) + 1):
        for j in range(1, len(t2) + 1):
            if t1[i - 1] == t2[j - 1]:
                assert x[i, j] == x[i - 1, j - 1] + 1
            else:
                assert x[i, j] == 0


def test_matrix_accepts_str():
    assert (lcsuf_matrix("abcab", "cab") == lcsuf_matrix(b"abcab", b"cab")).all()
    assert lcsuf_query(LcsufIndex("abcab", "cab"), 5, 3) == 3


def test_query_matches_brute_force_exhaustive():
    rng = random.Random(9)
    for alphabet in (1, 2, 4):
        for _ in range(25):
            n1, n2 = rng.randint(0, 30), rng.randint(0, 30)
            t1 = bytes(97 + rng.randrange(alphabet) for _ in range(n1))
            t2 = bytes(97 + rng.randrange(alphabet) for _ in range(n2))
            index = LcsufIndex(t1, t2)
            for i in range(n1 + 1):
                for j in range(n2 + 1):
                    assert lcsuf_query(index, i, j) == brute_lcsuf(t1, t2, i, j)


def test_query_properties():
    rng = random.Random(10)
    for _ in range(40):
        n1, n2 = rng.randint(1, 25), rng.randint(1, 25)
        t1 = bytes(97 + rng.randrange(2) for _ in range(n1))
        t2 = bytes(97 + rng.randrange(2) for _ in range(n2))
        index = LcsufIndex(t1, t2)
        for i in range(n1 + 1):
            for j in range(n2 + 1):
                q = lcsuf_query(index, i, j)
                assert q <= min(i, j)
                if i and j and t1[i - 1] == t2[j - 1]:
                    assert q == lcsuf_query(index, i - 1, j - 1) + 1
                else:
                    assert q == 0
