"""Tests for instance generation, differential runs, and the benchmark."""

import pytest

from segsub.harness import (
    CSV_COLUMNS,
    benchmark,
    differential_run,
    faulty_solvers,
    generate_instance,
    rows_to_csv,
)
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

    def test_injected_fault_is_detected(self):
        report = differential_run(
            200, max_len=9, seed=42, seglcs_solvers=faulty_solvers("text-off-by-one")
        )
        assert not report.ok
        assert all(m.algorithm == "diagonal" for m in report.mismatches)

    def test_unknown_fault(self):
        with pytest.raises(ValueError):
            faulty_solvers("gremlins")


class TestBenchmark:
    def test_rows_and_csv(self):
        rows = benchmark([64, 128], f=3, reps=2, seed=6)
        assert len(rows) == 4
        assert [r.algorithm for r in rows] == sorted(r.algorithm for r in rows)
        csv = rows_to_csv(rows)
        lines = csv.strip().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 5
        assert all(len(line.split(",")) == len(CSV_COLUMNS) for line in lines)

    def test_counters_deterministic(self):
        a = benchmark([64, 128], reps=1, seed=7)
        b = benchmark([64, 128], reps=1, seed=7)
        strip = lambda rows: [
            (r.algorithm, r.n1, r.n2, r.f, r.ell, r.cell_visits) for r in rows
        ]
        assert strip(a) == strip(b)

    def test_visit_trends_at_small_scale(self):
        rows = benchmark([100, 200, 400], f=4, reps=1, seed=8)
        diag = [r.cell_visits for r in rows if r.algorithm == "diagonal"]
        base = [r.cell_visits for r in rows if r.algorithm == "baseline"]
        assert base[1] / base[0] == 4 and base[2] / base[1] == 4
        assert 1.5 <= diag[1] / diag[0] <= 2.5
        assert 1.5 <= diag[2] / diag[1] <= 2.5

    def test_uniform_family_no_speedup_regime(self):
        # with unrelated texts the answer is far from n1 and the diagonal
        # solver's visits land in the same order of magnitude as the baseline
        rows = benchmark([60], f=2, family="uniform", alphabet=2, reps=1, seed=9)
        visits = {r.algorithm: r.cell_visits for r in rows}
        assert visits["diagonal"] >= visits["baseline"] // 20

    def test_validation(self):
        with pytest.raises(ValueError):
            benchmark([10], family="nope")
        with pytest.raises(ValueError):
            benchmark([10], algorithms=("quantum",))
