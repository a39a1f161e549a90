"""Batch command-line surface: construct the named families, compute exact
coefficient vectors and polynomials, enumerate and refine classes, decide
uniform winners, run the verification targets, and Monte Carlo estimates.

Exit codes: 0 success, 1 validation error, 2 guard/size refusal,
3 verification failure (a claim check that did not hold).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from . import checks, counting, enumeration, families, graphs, signature
from .graphs import GuardError


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _load_graph(path: str):
    text = sys.stdin.read() if path == "-" else Path(path).read_text()
    g = graphs.loads(text)
    diags = graphs.validate(g)
    if diags:
        raise ValueError(f"invalid graph document: {'; '.join(diags)}")
    return g


def _rational(text: str) -> Fraction:
    """Parse an edge survival probability p, a rational in [0, 1]."""
    try:
        p = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"p: expected a rational like 1/2 or 0.25, got {text!r}") from None
    if not 0 <= p <= 1:
        raise ValueError(f"p: must lie in [0, 1], got {text!r}")
    return p


def _require_two_terminal(g) -> graphs.TwoTerminalGraph:
    if not isinstance(g, graphs.TwoTerminalGraph):
        raise ValueError("this command needs a two-terminal graph (terminals field)")
    return g


def _coeff_csv(vec: counting.CoefficientVector) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["i", "N_i", "F_{m-i}"])
    for i, c in enumerate(vec.counts):
        w.writerow([i, c, c])  # F_{m-i} = N_i by definition
    return buf.getvalue()


def _cmd_construct(args) -> int:
    if args.command == "balloon":
        g = families.balloon(args.n, args.m)
    elif args.command == "two-terminal-balloon":
        g = families.two_terminal_balloon(args.n, args.m)
    elif args.command == "variant":
        g = families.variant(args.kind, args.n, args.m)
    else:  # threshold
        g = families.threshold_graph(families.ThresholdSpec(args.n, tuple(args.degrees)))
    _emit(graphs.dumps(g, "text" if args.format == "text" else "json"), args.out)
    return 0


def _cmd_sr_coeffs(args) -> int:
    g = _require_two_terminal(_load_graph(args.graph))
    vec = counting.split_coefficients(g)
    if args.format == "csv":
        _emit(_coeff_csv(vec), args.out)
    else:
        _emit(json.dumps(vec.to_json_dict(), indent=2), args.out)
    return 0


def _cmd_sr_eval(args) -> int:
    g = _require_two_terminal(_load_graph(args.graph))
    counts = counting.split_coefficients(g).counts
    value = signature.evaluate(counts, _rational(args.p))
    _emit(json.dumps({"p": args.p, "value": str(value)}), args.out)
    return 0


def _cmd_trees(args) -> int:
    g = _load_graph(args.graph)
    base = g.graph if isinstance(g, graphs.TwoTerminalGraph) else g
    _emit(json.dumps({"spanning_trees": str(counting.spanning_tree_count(base))}), args.out)
    return 0


def _cmd_t2(args) -> int:
    g = _require_two_terminal(_load_graph(args.graph))
    _emit(json.dumps({"two_tree_splits": str(counting.two_tree_count(g))}), args.out)
    return 0


def _cmd_enumerate(args) -> int:
    if args.two_terminal:
        docs = [graphs.to_json_dict(g) for g in enumeration.enumerate_two_terminal(args.n, args.m)]
    else:
        docs = [graphs.to_json_dict(g) for g in enumeration.enumerate_graphs(args.n, args.m)]
    _emit(json.dumps({"n": args.n, "m": args.m, "count": len(docs), "graphs": docs}, indent=2), args.out)
    return 0


def _cmd_refine(args) -> int:
    ledger = enumeration.refine_chain(args.n, args.m)
    if args.format == "csv":
        _emit(ledger.to_csv(), args.out)
    else:
        _emit(json.dumps(ledger.to_json_dict(), indent=2), args.out)
    return 0


def _cmd_locally_most(args) -> int:
    ledger = enumeration.refine_chain(args.n, args.m)
    docs = [graphs.to_json_dict(ledger.members[i]) for i in ledger.locally_most]
    sig = ledger.signatures[ledger.locally_most[0]]
    _emit(
        json.dumps(
            {
                "n": args.n,
                "m": args.m,
                "class_size": len(docs),
                "early_stop_level": ledger.early_stop_level,
                "f_tuple": [str(x) for x in sig.f_tuple()],
                "graphs": docs,
            },
            indent=2,
        ),
        args.out,
    )
    return 0


def _cmd_uniform_check(args) -> int:
    verdict = enumeration.uniform_check(args.n, args.m)
    ledger = enumeration.refine_chain(args.n, args.m)
    doc = verdict.to_json_dict()
    if verdict.winner is not None:
        doc["winner"] = graphs.to_json_dict(ledger.members[verdict.winner])
        head = "WINNER"
    else:
        doc["rival"] = graphs.to_json_dict(ledger.members[verdict.rival])
        doc["candidate"] = graphs.to_json_dict(ledger.members[ledger.locally_most[0]])
        head = "NONE"
    _emit(head + "\n" + json.dumps(doc, indent=2), args.out)
    return 0


def _cmd_verify(args) -> int:
    report = checks.run_target(
        args.target,
        {"n": args.n, "m": args.m, "max_n": args.max_n},
    )
    _emit(json.dumps(report.to_json_dict(), indent=2), args.out)
    return 3 if report.failed else 0


def _cmd_mc(args) -> int:
    g = _require_two_terminal(_load_graph(args.graph))
    est, err = counting.monte_carlo_sr(
        g, _rational(args.p), args.trials, counting.RandomSource(args.seed), args.jobs
    )
    _emit(
        json.dumps(
            {
                "p": args.p,
                "trials": args.trials,
                "seed": args.seed,
                "estimate": est,
                "std_error": err,
            }
        ),
        args.out,
    )
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="write the result to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="splitrel",
        description="Exact split-reliability computations for two-terminal graphs",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    for name, extra in (
        ("balloon", ()),
        ("two-terminal-balloon", ()),
        ("variant", ("kind",)),
    ):
        p = sub.add_parser(name, help=f"construct the {name.replace('-', ' ')} graph")
        if "kind" in extra:
            p.add_argument("kind", type=int, choices=(0, 1, 2))
        p.add_argument("n", type=int)
        p.add_argument("m", type=int)
        p.add_argument("--format", choices=("json", "text"), default="json")
        _add_common(p)
        p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("threshold", help="construct a threshold graph from its degree list")
    p.add_argument("n", type=int)
    p.add_argument("degrees", type=int, nargs="*")
    p.add_argument("--format", choices=("json", "text"), default="json")
    _add_common(p)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("sr-coeffs", help="exact split coefficient vectors of a graph file")
    p.add_argument("graph")
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    _add_common(p)
    p.set_defaults(func=_cmd_sr_coeffs)

    p = sub.add_parser("sr-eval", help="evaluate the split reliability at a rational point")
    p.add_argument("graph")
    p.add_argument("p", help="rational like 1/2 or 0.25")
    _add_common(p)
    p.set_defaults(func=_cmd_sr_eval)

    p = sub.add_parser("trees", help="exact spanning tree count")
    p.add_argument("graph")
    _add_common(p)
    p.set_defaults(func=_cmd_trees)

    p = sub.add_parser("t2", help="count split subgraphs that are two disjoint trees")
    p.add_argument("graph")
    _add_common(p)
    p.set_defaults(func=_cmd_t2)

    p = sub.add_parser("enumerate", help="canonical representatives of a class")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("--two-terminal", action="store_true")
    _add_common(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("refine", help="full class ledger with the refinement chain")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _add_common(p)
    p.set_defaults(func=_cmd_refine)

    p = sub.add_parser("locally-most", help="the locally most split reliable class")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    _add_common(p)
    p.set_defaults(func=_cmd_locally_most)

    p = sub.add_parser("uniform-check", help="decide existence of a uniform winner")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    _add_common(p)
    p.set_defaults(func=_cmd_uniform_check)

    p = sub.add_parser("verify", help="run a named claim verification, JSON report out")
    p.add_argument("target", choices=checks.VERIFY_TARGETS)
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--max-n", type=int, dest="max_n")
    _add_common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("mc-estimate", help="seeded Monte Carlo split-reliability estimate")
    p.add_argument("graph")
    p.add_argument("p", help="rational like 1/2 or 0.25")
    p.add_argument("--trials", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker count; results are identical for any value")
    _add_common(p)
    p.set_defaults(func=_cmd_mc)

    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; those are validation failures here
        # (2 is reserved for guard refusals), while --help style exits stay 0
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except GuardError as exc:
        print(f"guard refusal: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
