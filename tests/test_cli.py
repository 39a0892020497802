"""End-to-end tests of the command-line interface (in-process)."""

import json

import pytest

from segsub.cli import main


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_seglcs_table2(capsys):
    code, out, _ = run(capsys, "seglcs", "--t1", "abcabbac", "--t2", "bcbcbbca",
                       "--segments", "3")
    assert code == 0 and out == "5\n"


def test_seglcs_algo_agreement(capsys):
    for algo in ("diagonal", "baseline", "oracle"):
        code, out, _ = run(capsys, "seglcs", "--t1", "abcxdexf", "--t2", "abycdef",
                           "--segments", "2", "--algo", algo)
        assert code == 0 and out == "4\n"


def test_minsege_table1(capsys):
    code, out, _ = run(capsys, "minsege", "--text", "baacababbabcaacaabcba",
                       "--pattern", "abbabaca")
    assert code == 0 and out == "2\n"


def test_minsege_nil(capsys):
    code, out, _ = run(capsys, "minsege", "--text", "01", "--pattern", "00")
    assert code == 0 and out == "nil\n"


def test_sege_no_mirrors_exit_code(capsys):
    code, out, _ = run(capsys, "sege", "--text", "01", "--pattern", "00",
                       "--segments", "6")
    assert code == 1 and out == "no\n"


def test_sege_yes(capsys):
    code, out, _ = run(capsys, "sege", "--text", "baacababbabcaacaabcba",
                       "--pattern", "abbabaca", "--segments", "2")
    assert code == 0 and out == "yes\n"


def test_sege_algo_flag(capsys):
    code, out, _ = run(capsys, "sege", "--text", "aba", "--pattern", "aa",
                       "--segments", "2", "--algo", "kmp2")
    assert code == 0 and out == "yes\n"


def test_json_output(capsys):
    code, out, _ = run(capsys, "indseglcs", "--t1", "abcxdexf", "--t2", "abycdef",
                       "--f1", "3", "--f2", "2", "--json")
    assert code == 0
    assert json.loads(out) == {"length": 6}
    code, out, _ = run(capsys, "sege", "--text", "a", "--pattern", "a",
                       "--segments", "1", "--json")
    assert code == 0
    assert json.loads(out) == {"answer": True}


def test_json_flag_before_subcommand(capsys):
    code, out, _ = run(capsys, "--json", "minsege", "--text", "aba",
                       "--pattern", "aa")
    assert code == 0
    assert json.loads(out) == {"answer": 2}


def test_indseglcs_force_family(capsys):
    for fam in ("count", "score", "auto"):
        code, out, _ = run(capsys, "indseglcs", "--t1", "abcxdexf",
                           "--t2", "abycdef", "--f1", "2", "--f2", "2",
                           "--force-family", fam)
        assert code == 0 and out == "5\n"


def test_witness_output(capsys):
    code, out, _ = run(capsys, "seglcs", "--t1", "abcxdexf", "--t2", "abycdef",
                       "--segments", "2", "--witness")
    lines = out.splitlines()
    assert code == 0 and lines[0] == "4"
    assert len(lines) == 3
    segment, s1, s2 = lines[1].split("\t")
    assert segment and s1.isdigit() and s2.isdigit()


def test_dump_tables(capsys):
    code, out, _ = run(capsys, "seglcs", "--t1", "abcabbac", "--t2", "bcbcbbca",
                       "--segments", "3", "--dump-tables")
    lines = out.splitlines()
    assert code == 0 and lines[0] == "5"
    assert "1 0 1 8" in lines and "1 0 2 inf" in lines and "3 2 5 8" in lines


def test_dump_tables_requires_diagonal(capsys):
    code, _, err = run(capsys, "seglcs", "--t1", "a", "--t2", "a",
                       "--segments", "1", "--algo", "baseline", "--dump-tables")
    assert code == 2 and "diagonal" in err


def test_reduce_episode_bytes(capsysbinary):
    code = main(["reduce-episode", "--text", "0101", "--pattern", "00",
                 "--bound", "3"])
    out = capsysbinary.readouterr().out
    assert code == 0
    lines = out.split(b"\n")
    assert lines[0] == b"$0" * 6 + b"$$0$$1$$0$$1$$" + b"0$" * 6
    assert lines[1] == b"$" * 8 + b"00" + b"$" * 8
    assert lines[2] == b"13"


def test_reduce_episode_verify(capsys):
    code, out, _ = run(capsys, "reduce-episode", "--text", "0101", "--pattern", "00",
                       "--bound", "3", "--verify")
    assert code == 0
    assert out.splitlines()[-1] == "verified: yes"


def test_file_input(tmp_path, capsys):
    path = tmp_path / "text.bin"
    path.write_bytes(b"abcabbac\n")
    code, out, _ = run(capsys, "seglcs", "--t1", f"@{path}", "--t2", "bcbcbbca",
                       "--segments", "3")
    assert code == 0 and out == "5\n"


def test_gen_deterministic(capsys):
    code, first, _ = run(capsys, "gen", "--kind", "seglcs", "--lengths", "6,6",
                         "--seed", "11")
    code2, second, _ = run(capsys, "gen", "--kind", "seglcs", "--lengths", "6,6",
                           "--seed", "11")
    assert code == code2 == 0 and first == second
    assert len(first.splitlines()) == 2


def test_difftest_clean(capsys):
    code, out, _ = run(capsys, "difftest", "--count", "40", "--seed", "2")
    assert code == 0
    assert "mismatches=0" in out


def test_difftest_fault_exit(capsys):
    code, out, _ = run(capsys, "difftest", "--count", "60", "--seed", "2",
                       "--inject-fault", "text-off-by-one")
    assert code == 1
    assert "MISMATCH" in out


def test_bench_csv(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, out, _ = run(capsys, "bench", "--sizes", "50,100", "--reps", "1",
                       "--csv", str(target))
    assert code == 0 and out == ""
    lines = target.read_text().strip().splitlines()
    assert lines[0].startswith("algorithm,")
    assert len(lines) == 5


def test_usage_error_budget(capsys):
    code, _, err = run(capsys, "sege", "--text", "a", "--pattern", "a",
                       "--segments", "0")
    assert code == 2 and "budget" in err


def test_usage_error_unknown_flag():
    with pytest.raises(SystemExit) as exc:
        main(["sege", "--text", "a", "--pattern", "a", "--segments", "1",
              "--frobnicate"])
    assert exc.value.code == 2


def test_size_limit_exit(capsys):
    code, _, err = run(capsys, "seglcs", "--t1", "a" * 30, "--t2", "a",
                       "--segments", "1", "--algo", "oracle")
    assert code == 3 and "capped" in err
