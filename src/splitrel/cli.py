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


def _cmd_construct(args) -> str:
    return graphs.dumps(args.build(args), args.format)


def _cmd_sr_coeffs(args) -> str:
    g = _require_two_terminal(_load_graph(args.graph))
    vec = counting.split_coefficients(g)
    return _coeff_csv(vec) if args.format == "csv" else json.dumps(vec.to_json_dict(), indent=2)


def _cmd_sr_eval(args) -> str:
    g = _require_two_terminal(_load_graph(args.graph))
    counts = counting.split_coefficients(g).counts
    value = signature.evaluate(counts, _rational(args.p))
    return json.dumps({"p": args.p, "value": str(value)})


def _cmd_trees(args) -> str:
    g = _load_graph(args.graph)
    base = g.graph if isinstance(g, graphs.TwoTerminalGraph) else g
    return json.dumps({"spanning_trees": str(counting.spanning_tree_count(base))})


def _cmd_t2(args) -> str:
    g = _require_two_terminal(_load_graph(args.graph))
    return json.dumps({"two_tree_splits": str(counting.two_tree_count(g))})


def _cmd_enumerate(args) -> str:
    walk = enumeration.enumerate_two_terminal if args.two_terminal else enumeration.enumerate_graphs
    docs = [graphs.to_json_dict(g) for g in walk(args.n, args.m)]
    return json.dumps({"n": args.n, "m": args.m, "count": len(docs), "graphs": docs}, indent=2)


def _cmd_refine(args) -> str:
    ledger = enumeration.refine_chain(args.n, args.m)
    return ledger.to_csv() if args.format == "csv" else json.dumps(ledger.to_json_dict(), indent=2)


def _cmd_locally_most(args) -> str:
    ledger = enumeration.refine_chain(args.n, args.m)
    docs = [graphs.to_json_dict(ledger.members[i]) for i in ledger.locally_most]
    sig = ledger.signatures[ledger.locally_most[0]]
    return json.dumps(
        {
            "n": args.n,
            "m": args.m,
            "class_size": len(docs),
            "early_stop_level": ledger.early_stop_level,
            "f_tuple": [str(x) for x in sig.f_tuple()],
            "graphs": docs,
        },
        indent=2,
    )


def _cmd_uniform_check(args) -> str:
    verdict = enumeration.uniform_check(args.n, args.m)
    head = "NONE" if verdict.winner is None else "WINNER"
    return head + "\n" + json.dumps(verdict.to_json_dict(), indent=2)


def _cmd_verify(args) -> tuple[str, int]:
    report = checks.run_target(
        args.target,
        {"n": args.n, "m": args.m, "max_n": args.max_n},
    )
    return json.dumps(report.to_json_dict(), indent=2), 3 if report.failed else 0


def _cmd_mc(args) -> str:
    g = _require_two_terminal(_load_graph(args.graph))
    est, err = counting.monte_carlo_sr(
        g, _rational(args.p), args.trials, counting.RandomSource(args.seed)
    )
    return json.dumps(
        {
            "p": args.p,
            "trials": args.trials,
            "seed": args.seed,
            "estimate": est,
            "std_error": err,
        }
    )


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="splitrel",
        description="Exact split-reliability computations for two-terminal graphs",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    for name, build in (
        ("balloon", lambda a: families.balloon(a.n, a.m)),
        ("two-terminal-balloon", lambda a: families.two_terminal_balloon(a.n, a.m)),
        ("variant", lambda a: families.variant(a.kind, a.n, a.m)),
    ):
        p = sub.add_parser(name, help=f"construct the {name.replace('-', ' ')} graph")
        if name == "variant":
            p.add_argument("kind", type=int, choices=(0, 1, 2))
        p.add_argument("n", type=int)
        p.add_argument("m", type=int)
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.set_defaults(func=_cmd_construct, build=build)

    p = sub.add_parser("threshold", help="construct a threshold graph from its degree list")
    p.add_argument("n", type=int)
    p.add_argument("degrees", type=int, nargs="*")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(
        func=_cmd_construct,
        build=lambda a: families.threshold_graph(families.ThresholdSpec(a.n, tuple(a.degrees))),
    )

    p = sub.add_parser("sr-coeffs", help="exact split coefficient vectors of a graph file")
    p.add_argument("graph")
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.set_defaults(func=_cmd_sr_coeffs)

    p = sub.add_parser("sr-eval", help="evaluate the split reliability at a rational point")
    p.add_argument("graph")
    p.add_argument("p", help="rational like 1/2 or 0.25")
    p.set_defaults(func=_cmd_sr_eval)

    p = sub.add_parser("trees", help="exact spanning tree count")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_trees)

    p = sub.add_parser("t2", help="count split subgraphs that are two disjoint trees")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_t2)

    p = sub.add_parser("enumerate", help="canonical representatives of a class")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("--two-terminal", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("refine", help="full class ledger with the refinement chain")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_refine)

    p = sub.add_parser("locally-most", help="the locally most split reliable class")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.set_defaults(func=_cmd_locally_most)

    p = sub.add_parser("uniform-check", help="decide existence of a uniform winner")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.set_defaults(func=_cmd_uniform_check)

    p = sub.add_parser("verify", help="run a named claim verification, JSON report out")
    p.add_argument("target", choices=checks.VERIFY_TARGETS)
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--max-n", type=int, dest="max_n")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("mc-estimate", help="seeded Monte Carlo split-reliability estimate")
    p.add_argument("graph")
    p.add_argument("p", help="rational like 1/2 or 0.25")
    p.add_argument("--trials", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_mc)

    for p in sub.choices.values():  # each parser's last argument
        p.add_argument("--out", help="write the result to this path instead of stdout")
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
        result = args.func(args)  # the text to write, with verify's exit code
        text, code = result if isinstance(result, tuple) else (result, 0)
        if args.out:
            Path(args.out).write_text(text)
        else:
            sys.stdout.write(text if text.endswith("\n") else text + "\n")
        return code
    except GuardError as exc:
        print(f"guard refusal: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
