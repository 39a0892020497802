"""Tests for instance generation and differential runs."""

import pytest

from segsub import seglcs
from segsub.harness import differential_run, generate_instance
from segsub.seglcs import slcs_baseline, slcs_diagonal


class TestGenerator:
    def test_deterministic(self):
        a = generate_instance("seglcs", (12, 9), alphabet=4, seed=99)
        b = generate_instance("seglcs", (12, 9), alphabet=4, seed=99)
        assert a == b
        c = generate_instance("seglcs", (12, 9), alphabet=4, seed=100)
        assert a != c

    def test_lengths_and_alphabet(self):
        inst = generate_instance("sege", (10, 4), alphabet=2, seed=1)
        assert len(inst.texts[0]) == 10 and len(inst.texts[1]) == 4
        assert set(inst.texts[0]) <= {97, 98}

    def test_similarity_zero_is_identical(self):
        inst = generate_instance("seglcs", (15, 15), seed=2, similarity=0)
        t1, t2 = inst.texts
        assert t1 == t2
        assert slcs_baseline(t1, t2, 3) == 15

    def test_similarity_pins_answer(self):
        inst = generate_instance("seglcs", (30, 30), alphabet=8, seed=3, similarity=2)
        t1, t2 = inst.texts
        assert t1 != t2
        assert t1[:-2] == t2[:-2]
        for f in (1, 2, 4):
            assert slcs_baseline(t1, t2, f) == 28
            assert slcs_diagonal(t1, t2, f) == 28

    def test_unary_alphabet(self):
        inst = generate_instance("seglcs", (5, 9), alphabet=1, seed=4)
        assert slcs_baseline(*inst.texts, 3) == 5

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            generate_instance("nope", (1, 1))
        with pytest.raises(ValueError):
            generate_instance("sege", (1, 1), alphabet=0)
        with pytest.raises(ValueError):
            generate_instance("sege", (1,))
        with pytest.raises(ValueError):
            generate_instance("sege", (3, 3), similarity=1)
        with pytest.raises(ValueError):
            generate_instance("seglcs", (3, 4), similarity=1)


class TestDifferential:
    def test_clean_run(self):
        report = differential_run(300, max_len=9, alphabet=3, seed=42)
        assert report.ok
        assert report.cases == 300
        assert report.checks > report.cases
        assert "mismatches=0" in report.summary()

    def test_deterministic(self):
        a = differential_run(120, seed=5)
        b = differential_run(120, seed=5)
        assert a.cases == b.cases and a.checks == b.checks
        assert a.mismatches == b.mismatches

    def test_empty_run(self):
        report = differential_run(0)
        assert report.ok and report.cases == 0 and report.checks == 0

    def test_injected_fault_is_detected(self, monkeypatch):
        # the diagonal solver runs on t1 less its last symbol
        monkeypatch.setattr(
            seglcs, "slcs_diagonal", lambda t1, t2, f: slcs_diagonal(t1[:-1], t2, f)
        )
        report = differential_run(200, max_len=9, seed=42)
        assert not report.ok
        assert all(m.algorithm == "diagonal" for m in report.mismatches)
