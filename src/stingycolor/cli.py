"""Command-line front end.

Subcommands: ``analyze`` one graph, ``sweep`` a corpus or exhaustive range,
``search`` for counterexamples to one claim, ``verify`` a named suite.

Exit codes: 0 clean, 1 a VIOLATION verdict or counterexample was found,
2 usage or structural error (bad graph6 input, unreadable corpus, unknown
claim or suite, out-of-range option, a graph too large for a recursive
search), reported as one ``error:`` line.

Guard overrides via environment: STINGYCOLOR_OPTIMAL_GUARD and
STINGYCOLOR_FULL_GUARD (vertex-count ceilings for optimal-coloring work and
full coloring enumeration). A value that is not a nonnegative integer is a
usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction

from .graphs import (EXHAUSTIVE_MAX_N, Graph, GraphFormatError, complete, cycle, empty,
                     er_random, parse_graph6, path, petersen)
from .coloring import Guards, GuardExceededError
from .bounds import VerificationParams, base_name, claim_records_for, full_report
from . import suites as suites_mod

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_ERROR = 2


class UsageError(Exception):
    """Bad options or unreadable input; ``main`` reports it and exits 2."""


class _Parser(argparse.ArgumentParser):
    """An argument parser that reports a rejected argv as ``UsageError``
    rather than printing its usage block and exiting. Its subparsers are of
    the same class."""

    def error(self, message):
        raise UsageError(message)


def _guard_from_env(var: str, default: int) -> int:
    text = os.environ.get(var)
    if text is None:
        return default
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise ValueError(f"{var} must be a nonnegative integer, got {text!r}")
    return value


def _list_tokens(text: str) -> list[str]:
    """The stripped items of a comma-separated option; an empty one is an error."""
    tokens = [tok.strip() for tok in text.split(",")]
    if "" in tokens:
        raise argparse.ArgumentTypeError(f"empty item in list {text!r}")
    return tokens


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in _list_tokens(text))


def _parse_t_list(text: str) -> tuple[int, ...]:
    """Half-integer slacks, exactly: '0,1/2,1' -> doubled ints (0, 1, 2)."""
    out = []
    for tok in _list_tokens(text):
        try:
            doubled = Fraction(tok) * 2
        except ZeroDivisionError:
            raise argparse.ArgumentTypeError(f"t has a zero denominator: {tok!r}") from None
        if doubled.denominator != 1 or doubled < 0:
            raise argparse.ArgumentTypeError(
                f"t must be a nonnegative half-integer, got {tok!r}")
        out.append(int(doubled))
    return tuple(out)


def _parse_gen_spec(spec: str) -> Graph:
    family, colon, rest = spec.partition(":")
    args = rest.split(",") if colon else []
    if "" in args:
        raise ValueError(f"empty argument in generator spec {spec!r}")
    sized = {"complete": complete, "cycle": cycle, "path": path, "empty": empty}
    if family in sized:
        if len(args) != 1:
            raise ValueError(f"{family} takes one size, e.g. {family}:5")
        return sized[family](int(args[0]))
    if family == "petersen":
        if args:
            raise ValueError("petersen takes no arguments")
        return petersen()
    if family in ("er", "er_random"):
        if len(args) != 3:
            raise ValueError("er takes n,p,seed, e.g. er:8,0.5,42")
        return er_random(int(args[0]), float(args[1]), int(args[2]))
    raise ValueError(f"unknown generator family {family!r}")


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _reports_to_csv(reports: list[dict]) -> str:
    names = sorted({c["name"] for rep in reports for c in rep["claims"]})
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["g6"] + names)
    for rep in reports:
        verdicts = {c["name"]: c["verdict"] for c in rep["claims"]}
        writer.writerow([rep["g6"]] + [verdicts.get(name, "") for name in names])
    return buf.getvalue()


def _write_output(text: str, out_path: str | None):
    if out_path:
        try:
            with open(out_path, "w", encoding="ascii", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {out_path}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _params(args) -> VerificationParams:
    try:
        return VerificationParams(
            r_list=args.r,
            t2_list=args.t,
            guards=Guards(
                optimal=_guard_from_env("STINGYCOLOR_OPTIMAL_GUARD", Guards.optimal),
                full=_guard_from_env("STINGYCOLOR_FULL_GUARD", Guards.full),
            ),
            max_path_len=args.max_path_len,
        )
    except ValueError as exc:
        raise UsageError(exc) from exc


def _check_exhaustive_range(command: str, min_n: int, max_n: int):
    if min(min_n, max_n) < 0 or max_n > EXHAUSTIVE_MAX_N:
        raise UsageError(f"exhaustive {command} supports 0 <= n <= {EXHAUSTIVE_MAX_N}")


def _check_samples(args):
    if args.samples < 0:
        raise UsageError(f"--samples must be nonnegative, got {args.samples}")
    if any(n < 0 for n in args.sample_ns):
        raise UsageError("--sample-ns takes nonnegative vertex counts")
    if args.seed is not None and args.seed < 0:
        raise UsageError(f"--seed must be nonnegative, got {args.seed}")


def _check_unread_sample_options(args, seed_error: str | None):
    """Without --samples nothing reads --sample-ns, and --seed is refused
    with ``seed_error`` unless the run reads it for itself (``seed_error``
    None); neither may be dropped unread."""
    if args.samples:
        return
    if args.sample_ns:
        raise UsageError("--sample-ns is read only with --samples")
    if args.seed is not None and seed_error:
        raise UsageError(seed_error)


def cmd_analyze(args, params: VerificationParams) -> int:
    try:
        g = parse_graph6(args.g6) if args.g6 is not None else _parse_gen_spec(args.gen)
    except GraphFormatError as exc:
        raise UsageError(f"bad graph6 input: {exc}") from exc
    except ValueError as exc:
        raise UsageError(exc) from exc
    report = full_report(g, params)
    if args.format == "csv":
        _write_output(_reports_to_csv([report]), args.out)
    else:
        _write_output(_dump_json(report) + "\n", args.out)
    return EXIT_VIOLATION if report.violations() else EXIT_OK


def cmd_sweep(args, params: VerificationParams) -> int:
    structural = False
    if args.exhaustive:
        max_n = args.max_n
        if max_n is None:
            raise UsageError("--exhaustive needs --max-n")
        # Without --min-n the sweep covers exactly the graphs on max_n vertices.
        min_n = args.min_n if args.min_n is not None else max_n
        _check_exhaustive_range("sweep", min_n, max_n)
        if min_n > max_n:
            raise UsageError(f"--min-n {min_n} > --max-n {max_n}: nothing to sweep")
        graphs = list(suites_mod.exhaustive_graphs(min_n, max_n))
    else:
        try:
            entries, errors = suites_mod.load_graph6_lines(args.input)
        except OSError as exc:
            raise UsageError(f"cannot read {args.input}: {exc.strerror}") from exc
        if not (entries or errors):
            raise UsageError(f"{args.input} holds no graph6 line: nothing to sweep")
        for lineno, message in errors:
            print(f"{args.input}:{lineno}: {message}", file=sys.stderr)
            structural = True
        graphs = [g for _, g in entries]
    reports = suites_mod.sweep_reports(graphs, params)
    if args.format == "csv":
        _write_output(_reports_to_csv(reports), args.out)
    else:
        _write_output("".join(_dump_json(rep) + "\n" for rep in reports), args.out)
    violations = sum(len(rep.violations()) for rep in reports)
    print(f"swept {len(reports)} graphs, {violations} violations", file=sys.stderr)
    if structural:
        return EXIT_ERROR
    return EXIT_VIOLATION if violations else EXIT_OK


def cmd_search(args, params: VerificationParams) -> int:
    min_n = args.min_n if args.min_n is not None else 1
    _check_exhaustive_range("search", min_n, args.max_n)
    _check_samples(args)
    _check_unread_sample_options(args, "--seed is read only with --samples")
    if args.samples and not args.sample_ns:
        raise UsageError("--samples needs --sample-ns, e.g. --sample-ns 7,8")
    # An empty range is the samples-only mode; with no samples it checks nothing.
    if min_n > args.max_n and not args.samples:
        raise UsageError(f"--min-n {min_n} > --max-n {args.max_n} and no --samples: "
                         f"nothing to search")
    try:
        # no guard refuses the null graph, and its records carry every name
        if not claim_records_for(empty(0), args.claim, params):
            base = base_name(args.claim)
            named = [rec.name for rec in claim_records_for(empty(0), base, params)]
            raise UsageError(f"claim {args.claim!r} names no record under these --r and --t; "
                             f"{base}'s records are named: {', '.join(named) or 'none'}")
        result = suites_mod.search_claim(
            args.claim, params,
            min_n=min_n,
            max_n=args.max_n,
            samples=args.samples,
            sample_ns=tuple(args.sample_ns),
            seed=args.seed or 0,
        )
    except suites_mod.UnknownClaimError as exc:
        raise UsageError(exc) from exc
    skipped = result["not_evaluated"]
    if skipped == result["records"]:
        raise UsageError(f"claim {args.claim!r} was not evaluated on any of the "
                         f"{result['graphs']} graphs searched: {result['guard_reason']}")
    lines = "".join(_dump_json(a) + "\n" for a in result["counterexamples"])
    _write_output(lines, args.out)
    print(f"searched {result['graphs']} graphs ({result['records']} claim records), "
          f"{len(result['counterexamples'])} counterexamples"
          + (f", {skipped} not evaluated" if skipped else ""), file=sys.stderr)
    return EXIT_VIOLATION if result["counterexamples"] else EXIT_OK


def cmd_verify(args, params: VerificationParams) -> int:
    suite = args.suite
    if suite not in suites_mod.SUITES:
        raise UsageError(f"unknown suite {suite!r}; valid suites: "
                         f"{', '.join(sorted(suites_mod.SUITES))}")
    _check_exhaustive_range("verify", 0, args.max_n)
    _check_samples(args)
    if args.samples and suite != "lonely-path":
        raise UsageError(f"suite {suite} takes no --samples; only lonely-path samples")
    _check_unread_sample_options(args, None if suite == "properties" else
                                 "--seed without --samples is read only by the properties suite")
    if args.predicates is not None:
        if suite != "properties":
            raise UsageError("--predicates is read only by the properties suite")
        if args.predicates < 0:
            raise UsageError(f"--predicates must be nonnegative, got {args.predicates}")
    result = suites_mod.SUITES[suite](args.max_n, params, args)
    if not (result.checked or result.vacuous):
        raise UsageError(f"suite {suite} found nothing to check (0 checked, 0 vacuous) "
                         f"with --max-n {args.max_n}")
    _write_output(_dump_json(result.to_dict()) + "\n", args.out)
    print(f"suite {suite}: {result.checked} checked, {result.vacuous} vacuous, "
          f"{len(result.violations)} violations", file=sys.stderr)
    return EXIT_OK if result.passed else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="stingycolor",
        description="Exact chromatic analysis: frames, lonely edges, stingy "
                    "and r-bounded colorings, Reed-type bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--r", type=_parse_int_list, default=(1, 2, 3),
                       help="comma-separated class-size caps (default 1,2,3)")
        p.add_argument("--t", type=_parse_t_list, default=(0, 1),
                       help="comma-separated half-integer slacks (default 0,1/2)")
        p.add_argument("--max-path-len", type=int, default=3,
                       help="vertex cap per lonely path (default 3)")
        p.add_argument("--out", help="write output here instead of stdout")

    p = sub.add_parser("analyze", help="full report for one graph")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--g6", help="graph6 string")
    src.add_argument("--gen", help="generator spec, e.g. cycle:5 or er:8,0.5,42")
    p.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep", help="report every graph in a corpus or range")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="file of graph6 lines")
    src.add_argument("--exhaustive", action="store_true",
                     help="all isomorphism classes on max-n vertices "
                          "(widen with --min-n)")
    p.add_argument("--max-n", type=int)
    p.add_argument("--min-n", type=int)
    p.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("search", help="hunt for counterexamples to one claim")
    p.add_argument("--claim", required=True,
                   help="claim name, e.g. gen-reed-conjecture[r=3]")
    p.add_argument("--max-n", type=int, default=6)
    p.add_argument("--min-n", type=int)
    p.add_argument("--samples", type=int, default=0,
                   help="seeded random samples beyond the exhaustive range")
    p.add_argument("--sample-ns", type=_parse_int_list, default=(),
                   help="vertex counts for random samples, e.g. 7,8,9")
    p.add_argument("--seed", type=int,
                   help="PRNG seed; required when --samples > 0")
    common(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", required=True,
                   help="one of: " + ", ".join(sorted(suites_mod.SUITES)))
    p.add_argument("--max-n", type=int, default=5)
    p.add_argument("--samples", type=int, default=0)
    p.add_argument("--sample-ns", type=_parse_int_list, default=())
    p.add_argument("--seed", type=int)
    p.add_argument("--predicates", type=int,
                   help="random predicates per graph, properties suite only (default 100)")
    common(p)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "samples", 0) and args.seed is None:
            raise UsageError("--samples requires an explicit --seed")
        return args.func(args, _params(args))
    except (UsageError, GuardExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except RecursionError:
        print("error: graph too large: a recursive search exceeded Python's "
              "recursion limit", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
