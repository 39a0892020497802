"""Command-line front end for the solvers, the reduction, and the harness.

Text arguments are taken as raw bytes; ``@path`` reads a file instead, with
one trailing newline stripped. Exit codes: decision subcommands mirror the
answer (0 yes / 1 no), usage errors are 2, brute-force size limits are 3.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import harness, oracle, reduction, segmatch, seglcs
from .core import check_budget
from .indseglcs import indseglcs
from .oracle import OracleLimitError

USAGE_EXIT = 2
LIMIT_EXIT = 3


def _read_text_arg(value: str) -> bytes:
    if value.startswith("@"):
        data = Path(value[1:]).read_bytes()
        if data.endswith(b"\n"):
            data = data[:-1]
        if data.endswith(b"\r"):
            data = data[:-1]
        return data
    return os.fsencode(value)


def _emit(line: str) -> None:
    sys.stdout.write(line + "\n")


def _emit_bytes(data: bytes) -> None:
    sys.stdout.flush()
    sys.stdout.buffer.write(data + b"\n")
    sys.stdout.buffer.flush()


def _emit_json(payload: dict) -> None:
    _emit(json.dumps(payload, sort_keys=True))


def _latin(data: bytes) -> str:
    return data.decode("latin-1")


def _cmd_sege(args) -> int:
    answer = segmatch.sege(
        _read_text_arg(args.text), _read_text_arg(args.pattern),
        check_budget(args.segments), algo=args.algo,
    )
    if args.json:
        _emit_json({"answer": answer})
    else:
        _emit("yes" if answer else "no")
    return 0 if answer else 1


def _cmd_minsege(args) -> int:
    value = segmatch.min_segments(
        _read_text_arg(args.text), _read_text_arg(args.pattern)
    )
    if args.json:
        _emit_json({"answer": value})
    else:
        _emit("nil" if value is None else str(value))
    return 0


def _cmd_seglcs(args) -> int:
    t1, t2 = _read_text_arg(args.t1), _read_text_arg(args.t2)
    f = check_budget(args.segments)
    if args.dump_tables and args.algo != "diagonal":
        raise ValueError("--dump-tables requires the diagonal algorithm")
    payload: dict = {}
    run = None
    if args.witness:
        length, seg, emb1, emb2 = seglcs.slcs_witness(t1, t2, f)
        payload["length"] = length
        payload["witness"] = {
            "segments": [_latin(s) for s in seg.segments],
            "starts1": list(emb1.starts),
            "starts2": list(emb2.starts),
        }
    elif args.algo == "baseline":
        payload["length"] = seglcs.slcs_baseline(t1, t2, f)
    elif args.algo == "oracle":
        payload["length"] = oracle.slcs_bruteforce(t1, t2, f)
    elif args.dump_tables:
        run = seglcs.diagonal_run(t1, t2, f, keep_tables=True)
        payload["length"] = run.max_v_idx[run.f]
    else:
        payload["length"] = seglcs.slcs_diagonal(t1, t2, f)
    if args.json:
        if run is not None:
            payload["tables"] = [
                [h, i - s, s, value if value < run.infinity else "inf"]
                for h, i, s, value in run.cells()
            ]
        _emit_json(payload)
        return 0
    _emit(str(payload["length"]))
    if args.witness:
        w = payload["witness"]
        for segment, s1, s2 in zip(w["segments"], w["starts1"], w["starts2"]):
            _emit(f"{segment}\t{s1}\t{s2}")
    if run is not None:
        sys.stdout.write(seglcs.dump_diagonal_tables(run))
    return 0


def _cmd_indseglcs(args) -> int:
    force = None if args.force_family == "auto" else args.force_family
    length = indseglcs(
        _read_text_arg(args.t1), _read_text_arg(args.t2),
        check_budget(args.f1), check_budget(args.f2), force_family=force,
    )
    if args.json:
        _emit_json({"length": length})
    else:
        _emit(str(length))
    return 0


def _cmd_reduce_episode(args) -> int:
    t = _read_text_arg(args.text)
    p = _read_text_arg(args.pattern)
    t_out, p_out, f = reduction.build_episode_reduction(t, p, args.bound)
    verified = None
    if args.verify:
        verified = reduction.check_reduction_equivalence(t, p, args.bound)
    if args.json:
        payload = {"text": _latin(t_out), "pattern": _latin(p_out), "segments": f}
        if verified is not None:
            payload["verified"] = verified
        _emit_json(payload)
    else:
        _emit_bytes(t_out)
        _emit_bytes(p_out)
        _emit(str(f))
        if verified is not None:
            _emit(f"verified: {'yes' if verified else 'no'}")
    return 0 if verified in (None, True) else 1


def _cmd_gen(args) -> int:
    lengths = _parse_int_list(args.lengths, expected=2)
    inst = harness.generate_instance(
        args.kind, (lengths[0], lengths[1]),
        alphabet=args.alphabet, seed=args.seed, similarity=args.similarity,
    )
    if args.json:
        _emit_json({"kind": inst.kind, "texts": [_latin(t) for t in inst.texts]})
    else:
        for text in inst.texts:
            _emit_bytes(text)
    return 0


def _cmd_difftest(args) -> int:
    fault = args.inject_fault
    report = harness.differential_run(
        args.count, max_len=args.max_len, alphabet=args.alphabet, seed=args.seed,
        seglcs_solvers=harness.faulty_solvers(fault) if fault else harness.SEGLCS_SOLVERS,
    )
    if args.json:
        _emit_json(
            {
                "cases": report.cases,
                "checks": report.checks,
                "mismatches": [
                    {
                        "kind": m.kind,
                        "texts": [_latin(t) for t in m.texts],
                        "budgets": list(m.budgets),
                        "algorithm": m.algorithm,
                        "expected": m.expected,
                        "got": m.got,
                    }
                    for m in report.mismatches
                ],
            }
        )
    else:
        _emit(report.summary())
        for m in report.mismatches:
            _emit(
                f"MISMATCH {m.kind} algo={m.algorithm} texts={m.texts!r} "
                f"budgets={m.budgets} expected={m.expected} got={m.got}"
            )
    return 0 if report.ok else 1


def _cmd_bench(args) -> int:
    rows = harness.benchmark(
        _parse_int_list(args.sizes),
        f=args.segments, family=args.family, edits=args.edits,
        alphabet=args.alphabet, seed=args.seed, reps=args.reps,
    )
    csv = harness.rows_to_csv(rows)
    if args.csv:
        Path(args.csv).write_text(csv)
    elif args.json:
        _emit_json({"rows": [row.__dict__ for row in rows]})
    else:
        sys.stdout.write(csv)
    return 0


def _parse_int_list(text: str, expected: int | None = None) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from exc
    if expected is not None and len(values) != expected:
        raise ValueError(f"expected {expected} comma-separated integers, got {text!r}")
    return values


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
    p.add_argument("--algo", choices=("auto", "dp", "kmp2"), default="auto")
    p.set_defaults(func=_cmd_sege)

    p = sub.add_parser("minsege", parents=[common], help="minimum segment budget")
    p.add_argument("--text", required=True)
    p.add_argument("--pattern", required=True)
    p.set_defaults(func=_cmd_minsege)

    p = sub.add_parser("seglcs", parents=[common], help="segmental LCS length")
    p.add_argument("--t1", required=True)
    p.add_argument("--t2", required=True)
    p.add_argument("--segments", type=int, required=True)
    p.add_argument("--algo", choices=("diagonal", "baseline", "oracle"),
                   default="diagonal")
    p.add_argument("--witness", action="store_true",
                   help="also print segments and both embeddings (baseline)")
    p.add_argument("--dump-tables", action="store_true",
                   help="print the sparse diagonal tables")
    p.set_defaults(func=_cmd_seglcs)

    p = sub.add_parser("indseglcs", parents=[common],
                       help="independent-budget segmental LCS length")
    p.add_argument("--t1", required=True)
    p.add_argument("--t2", required=True)
    p.add_argument("--f1", type=int, required=True)
    p.add_argument("--f2", type=int, required=True)
    p.add_argument("--force-family", choices=("count", "score", "auto"),
                   default="auto")
    p.set_defaults(func=_cmd_indseglcs)

    p = sub.add_parser("reduce-episode", parents=[common],
                       help="episode-matching to budgeted-embedding instance")
    p.add_argument("--text", required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=_cmd_reduce_episode)

    p = sub.add_parser("gen", parents=[common], help="generate a random instance")
    p.add_argument("--kind", choices=harness.KINDS, required=True)
    p.add_argument("--lengths", required=True, help="comma-separated pair, e.g. 10,12")
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
    p.add_argument("--inject-fault", choices=harness.FAULTS,
                   default=None, help=argparse.SUPPRESS)
    p.set_defaults(func=_cmd_difftest)

    p = sub.add_parser("bench", parents=[common], help="benchmark the LCS solvers")
    p.add_argument("--sizes", required=True, help="comma-separated text lengths")
    p.add_argument("--segments", type=int, default=4)
    p.add_argument("--family", choices=("similarity", "uniform"),
                   default="similarity")
    p.add_argument("--edits", type=int, default=2)
    p.add_argument("--alphabet", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--csv", default=None, help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    args.json = getattr(args, "json", False)
    try:
        return args.func(args)
    except OracleLimitError as exc:
        print(f"segsub: {exc}", file=sys.stderr)
        return LIMIT_EXIT
    except (ValueError, OSError) as exc:
        print(f"segsub: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
