"""End-to-end tests of the command-line interface (in-process)."""

import itertools
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import segsub
from segsub import reduction, seglcs
from segsub.cli import _replay_command, main
from segsub.harness import Mismatch


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
    assert lines[1] == "1 0 1 8"
    assert lines[2] == "1 0 2 inf"
    assert "3 2 5 8" in lines
    assert all(len(line.split()) == 4 for line in lines[1:])


SEGLCS_MODES = [["--algo", algo] for algo in ("diagonal", "baseline", "oracle")]
SEGLCS_MODES += [["--witness"], ["--dump-tables"]]


@pytest.mark.parametrize("first, second", [
    pytest.param(a, b, id="-".join(a + b).replace("--", ""))
    for a, b in itertools.combinations(SEGLCS_MODES, 2) if a[0] != b[0]
])
def test_seglcs_modes_exclude_each_other(capsys, first, second):
    # each accepted combination names one solver, so any two modes are refused
    with pytest.raises(SystemExit) as exc:
        main(["seglcs", "--t1", "abcab", "--t2", "abcb", "--segments", "2",
              *first, *second])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert first[0] in err and second[0] in err


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


@pytest.mark.parametrize("content, length", [
    (b"ab\r", 3), (b"ab\n", 2), (b"ab\r\n", 2), (b"ab\n\n", 3), (b"ab\r\n\r\n", 4),
], ids=["cr", "lf", "crlf", "lf-lf", "crlf-crlf"])
def test_file_input_strips_one_line_end(tmp_path, capsys, content, length):
    # a lone trailing \r is data; one \n or \r\n is the file's line end
    path = tmp_path / "text.bin"
    path.write_bytes(content)
    code, out, _ = run(capsys, "seglcs", "--t1", f"@{path}",
                       "--t2", content.decode("latin-1"), "--segments", "1")
    assert code == 0 and out == f"{length}\n"


def test_gen_deterministic(capsys):
    code, first, _ = run(capsys, "gen", "--lengths", "6", "6", "--seed", "11")
    code2, second, _ = run(capsys, "gen", "--lengths", "6", "6", "--seed", "11")
    assert code == code2 == 0 and first == second
    assert len(first.splitlines()) == 2


@pytest.mark.parametrize("lengths", [["6,6"], ["6"]], ids=["comma", "one"])
def test_gen_lengths_takes_two_ints(capsys, lengths):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--lengths", *lengths, "--seed", "11"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == "" and "--lengths" in err


def test_difftest_clean(capsys):
    code, out, _ = run(capsys, "difftest", "--count", "40", "--seed", "2")
    assert code == 0
    assert "mismatches=0" in out


def test_difftest_refuses_max_len_above_oracle_cap(capsys):
    # with this seed no drawn text exceeds the cap, so only the up-front
    # check can refuse
    code, out, err = run(capsys, "difftest", "--count", "3", "--max-len", "15",
                         "--seed", "2")
    assert code == 3 and out == ""
    assert "capped at length 14" in err


@pytest.mark.parametrize("flag,name", [("--count", "count"), ("--max-len", "max_len")])
def test_difftest_rejects_negative_sizes(capsys, flag, name):
    code, out, err = run(capsys, "difftest", flag, "-1")
    assert code == 2 and out == ""
    assert err == f"segsub: {name} must be non-negative, got -1\n"


@pytest.fixture
def text_off_by_one(monkeypatch):
    """Make the diagonal seglcs solver drop the last symbol of ``t1``."""
    solve = seglcs.slcs_diagonal
    monkeypatch.setattr(
        seglcs, "slcs_diagonal", lambda t1, t2, f: solve(t1[:-1], t2, f)
    )


def test_difftest_fault_exit(capsys, text_off_by_one):
    code, out, _ = run(capsys, "difftest", "--count", "60", "--seed", "2")
    assert code == 1
    assert "MISMATCH" in out


def test_difftest_replay_reproduces_fault(capsys, text_off_by_one):
    code, out, _ = run(capsys, "difftest", "--count", "60", "--seed", "2")
    lines = out.splitlines()[1:]
    # the run catches the fault, and its lines alternate MISMATCH, REPLAY
    assert code == 1 and lines and len(lines) % 2 == 0
    for mismatch, replay in zip(lines[::2], lines[1::2]):
        assert mismatch.startswith("MISMATCH seglcs algo=segsub.seglcs.slcs_diagonal ")
        expected, got = mismatch.split(" expected=")[1].split(" got=")
        assert shlex.split(replay)[:3] == ["REPLAY", sys.executable, "-c"]
        # run in this process, so that the call it makes is the patched one
        exec(shlex.split(replay)[3], {})
        assert capsys.readouterr().out == got + "\n" != expected + "\n"


def run_replay_in_sh(m: Mismatch) -> str:
    """Run a mismatch's replay as its own process under /bin/sh, with this
    checkout's segsub, and return what it prints."""
    command = _replay_command(m)
    # the replay names the interpreter that runs these tests
    assert command.startswith(shlex.quote(sys.executable) + " -c ")
    assert "\n" not in command
    env = {**os.environ, "PYTHONPATH": str(Path(segsub.__file__).parents[1])}
    done = subprocess.run(["/bin/sh", "-c", command],
                          capture_output=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.decode()


# every byte value, a leading "@", and a trailing CR LF
EVERY_BYTE = b"@" + bytes(range(256)) + b"\r\n"


@pytest.mark.parametrize("kind, budgets, call, got", [
    ("minsege", (), "segsub.segmatch.min_segments", 129),
    ("sege", (129,), "segsub.segmatch.sege", True),
    ("seglcs", (4,), "segsub.seglcs.slcs_baseline", 5),
    ("seglcs", (4,), "segsub.seglcs.slcs_diagonal", 5),
    ("seglcs", (4,), "segsub.harness._witness_length", 5),
    ("indseglcs", (3, 2), "segsub.independent.indseglcs", 4),
])
def test_replay_command_per_kind(kind, budgets, call, got):
    # t2, the even byte values then CR LF, takes one segment of t1 per even
    # byte and one for the CR LF: 129 in all
    texts = (EVERY_BYTE, bytes(range(0, 256, 2)) + b"\r\n")
    m = Mismatch(kind, texts, budgets, call, None, got)
    assert run_replay_in_sh(m) == f"{got}\n"


def test_replay_texts_survive_the_shell():
    # texts that a shell or an argument parser could alter: a NUL byte, a
    # leading "@" or "-", a trailing CR LF, a line feed and both quote marks
    for text in (EVERY_BYTE, b"-ab", b"a\nb", b"it's \"quoted\""):
        m = Mismatch("seglcs", (text, text), (1,),
                     "segsub.harness._witness_length", None, len(text))
        assert run_replay_in_sh(m) == f"{len(text)}\n", text


def test_usage_error_budget(capsys):
    code, _, err = run(capsys, "sege", "--text", "a", "--pattern", "a",
                       "--segments", "0")
    assert code == 2 and "budget" in err


@pytest.mark.parametrize("argv", [
    ["seglcs", "--segments", "0", "--algo", "diagonal"],
    ["seglcs", "--segments", "0", "--algo", "baseline"],
    ["seglcs", "--segments", "0", "--algo", "oracle"],
    ["seglcs", "--segments", "0", "--witness"],
    ["seglcs", "--segments", "0", "--dump-tables"],
    ["indseglcs", "--f1", "0", "--f2", "1"],
    ["indseglcs", "--f1", "1", "--f2", "0"],
])
def test_usage_error_budget_every_solver(capsys, argv):
    # the library refuses the budget on every path the CLI can take
    code, out, err = run(capsys, *argv, "--t1", "abc", "--t2", "abd")
    assert code == 2 and out == "" and "budget" in err


def test_usage_error_unknown_flag():
    with pytest.raises(SystemExit) as exc:
        main(["sege", "--text", "a", "--pattern", "a", "--segments", "1",
              "--frobnicate"])
    assert exc.value.code == 2


def test_size_limit_exit(capsys):
    code, _, err = run(capsys, "seglcs", "--t1", "a" * 30, "--t2", "a",
                       "--segments", "1", "--algo", "oracle")
    assert code == 3 and "capped" in err


def test_resource_limit_exit(capsys):
    code, out, err = run(capsys, "indseglcs", "--t1", "ab" * 10_000,
                         "--t2", "ba" * 10_000, "--f1", "5000", "--f2", "5000")
    assert code == 4 and out == "" and "physical memory" in err


@pytest.fixture
def unverified(monkeypatch):
    """Make the reduction's brute-force cross-check report disagreement."""
    monkeypatch.setattr(reduction, "check_reduction_equivalence",
                        lambda t, p, h: False)


REDUCED = {"text": "$0" * 6 + "$$0$$1$$0$$1$$" + "0$" * 6,
           "pattern": "$" * 8 + "00" + "$" * 8, "segments": 13}
EPISODE = ["reduce-episode", "--text", "0101", "--pattern", "00", "--bound", "3"]


@pytest.mark.parametrize("argv, fault, code, payload", [
    (EPISODE, None, 0, REDUCED),
    (EPISODE + ["--verify"], None, 0, {**REDUCED, "verified": True}),
    (EPISODE + ["--verify"], "unverified", 1, {**REDUCED, "verified": False}),
    (["gen", "--lengths", "6", "6", "--seed", "11"], None, 0,
     {"texts": ["bcbbcc", "aacbcc"]}),
    (["difftest", "--count", "40", "--seed", "2"], None, 0,
     {"cases": 40, "checks": 240, "mismatches": []}),
    (["difftest", "--count", "1", "--seed", "2"], "text_off_by_one", 1,
     {"cases": 1, "checks": 7, "mismatches": [{
         "kind": "seglcs", "texts": ["bbacbcccaa", "caab"], "budgets": [3],
         "algorithm": "segsub.seglcs.slcs_diagonal", "expected": 3, "got": 2,
         "replay": shlex.quote(sys.executable) + " -c " + shlex.quote(
             "import segsub.seglcs; print(segsub.seglcs.slcs_diagonal("
             "b'bbacbcccaa', b'caab', 3))")}]}),
    (["seglcs", "--t1", "abcb", "--t2", "bcab", "--segments", "2",
      "--dump-tables"], None, 0,
     {"length": 3, "tables": [
         [1, 0, 1, 3], [1, 0, 2, 4], [1, 0, 3, "inf"],
         [1, 1, 1, 1], [1, 1, 2, 2], [1, 1, 3, "inf"],
         [2, 0, 1, 3], [2, 0, 2, 4], [2, 0, 3, "inf"],
         [2, 1, 1, 1], [2, 1, 2, 2], [2, 1, 3, 4]]}),
    # an empty text fills one level with no diagonal
    (["seglcs", "--t1", "", "--t2", "abc", "--segments", "2", "--dump-tables"],
     None, 0, {"length": 0, "tables": []}),
    # f is clamped to the shorter text, so two levels are dumped
    (["seglcs", "--t1", "ab", "--t2", "ab", "--segments", "5", "--dump-tables"],
     None, 0, {"length": 2, "tables": [
         [1, 0, 1, 1], [1, 0, 2, 2], [2, 0, 1, 1], [2, 0, 2, 2]]}),
    (["seglcs", "--t1", "abcxdexf", "--t2", "abycdef", "--segments", "2",
      "--witness"], None, 0,
     {"length": 4, "witness": {"segments": ["ab", "de"], "starts1": [1, 5],
                               "starts2": [1, 5]}}),
], ids=["episode", "episode-verified", "episode-unverified", "gen",
        "difftest-clean", "difftest-fault", "dump-tables", "dump-tables-empty",
        "dump-tables-clamped", "witness"])
def test_json_payload(capsys, request, argv, fault, code, payload):
    if fault:
        request.getfixturevalue(fault)
    got, out, err = run(capsys, *argv, "--json")
    assert (got, err) == (code, "")
    assert out.endswith("\n") and out.count("\n") == 1
    assert json.loads(out) == payload


def _readme_examples():
    """One case per ``segsub`` line of README's command-line block: its
    arguments and the output printed under it, ``# ...`` remarks dropped."""
    readme = Path(__file__).parents[1] / "README.md"
    block = readme.read_text().split("## Command line")[1].split("```")[1]
    for paragraph in block.strip("\n").split("\n\n"):
        command, *printed = paragraph.split("\n")
        if command.startswith("segsub difftest --count 10000 "):
            continue  # left to the CI difftests: it takes seconds
        printed = "".join(re.sub(r"\s+# .*", "", line) + "\n" for line in printed)
        yield pytest.param(shlex.split(command)[1:], printed, id=command[7:])


@pytest.mark.parametrize("argv, printed", _readme_examples())
def test_readme_example(capsysbinary, argv, printed):
    main(argv)
    assert capsysbinary.readouterr().out.decode("latin-1").expandtabs() == printed
