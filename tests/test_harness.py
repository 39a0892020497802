"""Tests for instance generation and differential runs."""

import pytest

from segsub import seglcs
from segsub.core import Embedding
from segsub.harness import _witness_length, differential_run, generate_instance
from segsub.seglcs import slcs_baseline, slcs_diagonal


class TestGenerator:
    def test_deterministic(self):
        a = generate_instance((12, 9), alphabet=4, seed=99)
        b = generate_instance((12, 9), alphabet=4, seed=99)
        assert a == b
        c = generate_instance((12, 9), alphabet=4, seed=100)
        assert a != c

    def test_lengths_and_alphabet(self):
        t, p = generate_instance((10, 4), alphabet=2, seed=1)
        assert len(t) == 10 and len(p) == 4
        assert set(t) <= {97, 98}

    def test_similarity_zero_is_identical(self):
        t1, t2 = generate_instance((15, 15), seed=2, similarity=0)
        assert t1 == t2
        assert slcs_baseline(t1, t2, 3) == 15

    def test_similarity_pins_answer(self):
        t1, t2 = generate_instance((30, 30), alphabet=8, seed=3, similarity=2)
        assert t1 != t2
        assert t1[:-2] == t2[:-2]
        for f in (1, 2, 4):
            assert slcs_baseline(t1, t2, f) == 28
            assert slcs_diagonal(t1, t2, f) == 28

    def test_unary_alphabet(self):
        texts = generate_instance((5, 9), alphabet=1, seed=4)
        assert slcs_baseline(*texts, 3) == 5

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            generate_instance((1, 1), alphabet=0)
        with pytest.raises(ValueError):
            generate_instance((1,))
        with pytest.raises(ValueError):
            generate_instance((3, 4), similarity=1)


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
        assert all(m.algorithm == "segsub.seglcs.slcs_diagonal"
                   for m in report.mismatches)

    @pytest.mark.parametrize("fault, named", [
        ("length", "pattern length is not the witness length"),
        ("segments", "more than f segments"),
        ("t1", "does not embed in t1"),
        ("t2", "does not embed in t2"),
    ])
    def test_witness_check_names_the_property_it_fails(self, monkeypatch, fault, named):
        # at f = 1 the witness is one symbol; at f = 2 it is "ab" in two segments
        witness = seglcs.slcs_witness

        def faulty(t1, t2, f):
            if fault == "segments":
                return witness(t1, t2, f + 1)
            length, seg, e1, e2 = witness(t1, t2, f)
            if fault == "length":
                return length + 1, seg, e1, e2
            late = {"t1": e1, "t2": e2}[fault]
            late = Embedding(seg, tuple(s + 1 for s in late.starts))
            return (length, seg, late, e2) if fault == "t1" else (length, seg, e1, late)

        assert _witness_length(b"axb", b"ayb", 1) == 1
        monkeypatch.setattr(seglcs, "slcs_witness", faulty)
        assert _witness_length(b"axb", b"ayb", 1) == named

    def test_witness_that_does_not_embed_is_detected(self, monkeypatch):
        # the witness's embedding into t2 starts one place late
        witness = seglcs.slcs_witness

        def shifted(t1, t2, f):
            length, seg, e1, e2 = witness(t1, t2, f)
            return length, seg, e1, Embedding(seg, tuple(s + 1 for s in e2.starts))

        monkeypatch.setattr(seglcs, "slcs_witness", shifted)
        report = differential_run(200, max_len=9, seed=42)
        assert report.mismatches
        for m in report.mismatches:
            assert (m.kind, m.algorithm, m.got) == (
                "seglcs", "segsub.harness._witness_length", "does not embed in t2")
