"""Command-line front end for the solvers, the reduction, and the harness.

Each subcommand parses its arguments, calls the library and returns a JSON
payload, its plain-text lines and an exit code; ``main`` alone prints the
payload (under ``--json``) or the lines. Text arguments are taken as raw
bytes; ``@path`` reads a file instead, with one trailing line end (LF or
CRLF) stripped. Exit codes: decision subcommands mirror the answer (0 yes /
1 no), usage errors are 2, brute-force size limits are 3, and a solve
refused for needing more than physical memory is 4.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import sys
from pathlib import Path

from . import harness, oracle, reduction, segmatch, seglcs
from .core import ResourceLimitError
from .independent import indseglcs
from .oracle import OracleLimitError

USAGE_EXIT = 2
LIMIT_EXIT = 3
RESOURCE_EXIT = 4


def _read_text_arg(value: str) -> bytes:
    if value.startswith("@"):
        data = Path(value[1:]).read_bytes()
        for ending in (b"\r\n", b"\n"):
            if data.endswith(ending):
                return data[: -len(ending)]
        return data
    return os.fsencode(value)


def _latin(data: bytes) -> str:
    return data.decode("latin-1")


# what a subcommand returns: its JSON payload, its plain-text lines (bytes
# lines are written raw) and its exit code
Result = tuple[dict, list, int]


def _cmd_sege(args) -> Result:
    answer = segmatch.sege(
        _read_text_arg(args.text), _read_text_arg(args.pattern), args.segments
    )
    return {"answer": answer}, ["yes" if answer else "no"], 0 if answer else 1


def _cmd_minsege(args) -> Result:
    value = segmatch.min_segments(
        _read_text_arg(args.text), _read_text_arg(args.pattern)
    )
    return {"answer": value}, ["nil" if value is None else str(value)], 0


def _cmd_seglcs(args) -> Result:
    t1, t2 = _read_text_arg(args.t1), _read_text_arg(args.t2)
    lines = []
    if args.witness:
        length, seg, emb1, emb2 = seglcs.slcs_witness(t1, t2, args.segments)
        segments = [_latin(s) for s in seg.segments]
        payload = {"length": length, "witness": {
            "segments": segments,
            "starts1": list(emb1.starts),
            "starts2": list(emb2.starts),
        }}
        lines = [f"{segment}\t{s1}\t{s2}" for segment, s1, s2
                 in zip(segments, emb1.starts, emb2.starts)]
    elif args.algo == "baseline":
        payload = {"length": seglcs.slcs_baseline(t1, t2, args.segments)}
    elif args.algo == "oracle":
        payload = {"length": oracle.slcs_bruteforce(t1, t2, args.segments)}
    elif args.dump_tables:
        levels = list(seglcs.diagonal_levels(t1, t2, args.segments))
        longest = max(len(t1), len(t2))  # a value past it is an infinite cell
        tables = [
            [h, diag, s, value if value <= longest else "inf"]
            for h, (_, level) in enumerate(levels, start=1)
            for diag, column in enumerate(level)
            for s, value in enumerate(column[1:], start=1)
        ]
        payload = {"length": levels[-1][0], "tables": tables}
        lines = [" ".join(map(str, row)) for row in tables]
    else:
        payload = {"length": seglcs.slcs_diagonal(t1, t2, args.segments)}
    return payload, [str(payload["length"]), *lines], 0


def _cmd_indseglcs(args) -> Result:
    length = indseglcs(
        _read_text_arg(args.t1), _read_text_arg(args.t2), args.f1, args.f2
    )
    return {"length": length}, [str(length)], 0


def _cmd_reduce_episode(args) -> Result:
    t = _read_text_arg(args.text)
    p = _read_text_arg(args.pattern)
    t_out, p_out, f = reduction.build_episode_reduction(t, p, args.bound)
    payload = {"text": _latin(t_out), "pattern": _latin(p_out), "segments": f}
    lines = [t_out, p_out, str(f)]
    if not args.verify:
        return payload, lines, 0
    verified = reduction.check_reduction_equivalence(t, p, args.bound)
    payload["verified"] = verified
    lines.append(f"verified: {'yes' if verified else 'no'}")
    return payload, lines, 0 if verified else 1


def _cmd_gen(args) -> Result:
    texts = harness.generate_instance(
        tuple(args.lengths),
        alphabet=args.alphabet, seed=args.seed, similarity=args.similarity,
    )
    return {"texts": [_latin(t) for t in texts]}, list(texts), 0


def _shell_word(data: bytes) -> str:
    text = _latin(data)
    if text.isascii() and text.isprintable() and not text.startswith(("@", "-")):
        return shlex.quote(text)
    # any other text, or one that argparse would read as an option or the CLI
    # as a file name, reaches the CLI as an @file that bash makes from octal
    # escapes; the trailing \r\n is what the file reader strips
    return "@<(printf '" + "".join(f"\\{b:03o}" for b in data) + "\\r\\n')"


def _replay_command(m: harness.Mismatch) -> str:
    """The ``segsub`` command that reruns a mismatched case with the
    algorithm that failed it."""
    a, b = (_shell_word(t) for t in m.texts)
    if m.kind == "minsege":
        args = f"--text {a} --pattern {b}"
    elif m.kind == "sege":
        args = f"--text {a} --pattern {b} --segments {m.budgets[0]}"
    elif m.kind == "seglcs":
        mode = "--witness" if m.algorithm == "witness" else f"--algo {m.algorithm}"
        args = f"--t1 {a} --t2 {b} --segments {m.budgets[0]} {mode}"
    else:
        args = f"--t1 {a} --t2 {b} --f1 {m.budgets[0]} --f2 {m.budgets[1]}"
    return f"segsub {m.kind} {args}"


def _cmd_difftest(args) -> Result:
    report = harness.differential_run(
        args.count, max_len=args.max_len, alphabet=args.alphabet, seed=args.seed
    )
    mismatches = []
    lines = [report.summary()]
    for m in report.mismatches:
        replay = _replay_command(m)
        mismatches.append({
            "kind": m.kind,
            "texts": [_latin(t) for t in m.texts],
            "budgets": list(m.budgets),
            "algorithm": m.algorithm,
            "expected": m.expected,
            "got": m.got,
            "replay": replay,
        })
        lines.append(
            f"MISMATCH {m.kind} algo={m.algorithm} texts={m.texts!r} "
            f"budgets={m.budgets} expected={m.expected} got={m.got}"
        )
        lines.append(f"REPLAY {replay}")
    payload = {"cases": report.cases, "checks": report.checks, "mismatches": mismatches}
    return payload, lines, 0 if report.ok else 1


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", default=argparse.SUPPRESS,
        help="emit a single JSON object instead of plain text",
    )

    # the flag may come before or after the subcommand; SUPPRESS keeps a
    # subcommand that lacks it from overwriting one given before it
    parser = argparse.ArgumentParser(
        prog="segsub", parents=[common],
        description="Segment-budgeted subsequence matching and segmental LCS.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sege", parents=[common], help="decide budgeted embedding")
    p.add_argument("--text", required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--segments", type=int, required=True)
    p.set_defaults(func=_cmd_sege)

    p = sub.add_parser("minsege", parents=[common], help="minimum segment budget")
    p.add_argument("--text", required=True)
    p.add_argument("--pattern", required=True)
    p.set_defaults(func=_cmd_minsege)

    p = sub.add_parser("seglcs", parents=[common], help="segmental LCS length")
    p.add_argument("--t1", required=True)
    p.add_argument("--t2", required=True)
    p.add_argument("--segments", type=int, required=True)
    mode = p.add_mutually_exclusive_group()
    # difftest's REPLAY lines name the solver that failed through --algo
    mode.add_argument("--algo", choices=("diagonal", "baseline", "oracle"))
    mode.add_argument("--witness", action="store_true",
                      help="also print segments and both embeddings (baseline)")
    mode.add_argument("--dump-tables", action="store_true",
                      help="print the sparse diagonal tables (diagonal)")
    p.set_defaults(func=_cmd_seglcs)

    p = sub.add_parser("indseglcs", parents=[common],
                       help="independent-budget segmental LCS length")
    p.add_argument("--t1", required=True)
    p.add_argument("--t2", required=True)
    p.add_argument("--f1", type=int, required=True)
    p.add_argument("--f2", type=int, required=True)
    p.set_defaults(func=_cmd_indseglcs)

    p = sub.add_parser("reduce-episode", parents=[common],
                       help="episode-matching to budgeted-embedding instance")
    p.add_argument("--text", required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=_cmd_reduce_episode)

    p = sub.add_parser("gen", parents=[common], help="generate a random instance")
    p.add_argument("--lengths", nargs=2, type=int, required=True,
                   metavar=("N1", "N2"))
    p.add_argument("--alphabet", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--similarity", type=int, default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("difftest", parents=[common],
                       help="differential run of all solvers vs brute force")
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--max-len", type=int, default=10)
    p.add_argument("--alphabet", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_difftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        payload, lines, code = args.func(args)
        if getattr(args, "json", False):
            lines = [json.dumps(payload, sort_keys=True)]
        for line in lines:
            if isinstance(line, bytes):
                sys.stdout.flush()
                sys.stdout.buffer.write(line + b"\n")
                sys.stdout.buffer.flush()
            else:
                print(line)
        return code
    except OracleLimitError as exc:
        print(f"segsub: {exc}", file=sys.stderr)
        return LIMIT_EXIT
    except ResourceLimitError as exc:
        print(f"segsub: {exc}", file=sys.stderr)
        return RESOURCE_EXIT
    except (ValueError, OSError) as exc:
        print(f"segsub: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
