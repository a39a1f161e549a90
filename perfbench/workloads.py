"""The benchmark's three workloads: their inputs, the library calls each item
makes, and the checks on each item's exact output.

A workload is a list of items.  An item is a named closure that calls the
library's public functions and returns

    (exact, seeded, problems)

where `exact` holds the outputs that do not depend on the workload seed (their
digest is compared with `reference.json`), `seeded` holds outputs that do
(Monte Carlo estimates, random graphs), and `problems` lists every output
check the item failed.  An item that raises, or reports a problem, counts as
failed; the pass goes on with the next item.

Every library call goes through a module attribute (`enumeration.refine_chain`,
not a name imported here), so the tracer's wrappers see it.

Scales: "full" is what the benchmark measures; "tiny" is the same code on
inputs small enough for the benchmark's own tests.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Callable

from splitrel import checks, counting, enumeration, families, graphs, signature

WORKLOADS = ("table", "claims", "coeffs")

MC_TRIALS = 65536
MC_SIGMAS = 5


@dataclass(frozen=True)
class Item:
    """One unit of work: `run()` returns (exact, seeded, problems).
    `in_reference` marks items whose exact digest is pinned in reference.json."""

    id: str
    run: Callable[[], tuple[dict, dict, list[str]]]
    in_reference: bool = True


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# table: cold uniform verdicts over the class table


def table_classes(scale: str) -> list[tuple[int, int]]:
    """Every class with 4 <= n <= 6, and both sides of n = 7: the sparse
    no-winner classes m <= 9 and the dense winner class m = 14, whose
    candidate is tested against every rival.  The rest of n = 7 does not fit
    the run length (the whole n <= 7 table takes about a minute cold)."""
    if scale == "tiny":
        return [(n, m) for n in (4, 5) for m in range(n, comb(n, 2) + 1)]
    low = [(n, m) for n in range(4, 7) for m in range(n, comb(n, 2) + 1)]
    return low + [(7, 7), (7, 8), (7, 9), (7, 14)]


def expected_winner(n: int, m: int) -> bool:
    """The published pattern: winners for n <= 5, for n = 6 except m in
    {6, 8}, and for n = 7 exactly when m >= 14."""
    if n <= 5:
        return True
    if n == 6:
        return m not in (6, 8)
    if n == 7:
        return m >= 14
    raise ValueError(f"no published verdict for n={n}")


def _table_item(n: int, m: int) -> Item:
    def run():
        ledger = enumeration.refine_chain(n, m)
        verdict = enumeration.uniform_check(n, m)
        sigs = ledger.signatures
        won = verdict.winner is not None
        exact = {
            "signatures": sorted(list(s.counts) for s in sigs),
            "labeled_connected": ledger.labeled_connected,
            "locally_most": list(sigs[ledger.locally_most[0]].counts),
            "early_stop_level": ledger.early_stop_level,
            "verdict": "winner" if won else "none",
            "winner": list(sigs[verdict.winner].counts) if won else None,
            "witness": None if verdict.witness is None else str(verdict.witness),
            "rival": None if verdict.rival is None else list(sigs[verdict.rival].counts),
        }
        problems = []
        if won != expected_winner(n, m):
            problems.append(f"verdict {exact['verdict']} breaks the published pattern")
        return exact, {}, problems

    return Item(f"table:{n},{m}", run)


# ---------------------------------------------------------------------------
# claims: every claim check except thm1/thm3 (the table's work)

# (name, check function name, positional arguments, expected status)
CLAIMS_FULL = [
    ("prop1", "check_prop1", (7,), "discrepancy"),
    ("prop3", "check_prop3", (7,), "pass"),
    ("thm2", "check_thm2", (7,), "pass"),
    ("skeleton", "check_skeleton_characterization", (7,), "pass"),
    ("remark2", "check_remark2", (), "pass"),
    ("remark3", "check_remark3", (), "pass"),
    ("remark4", "check_remark4", (), "pass"),
    ("lemma13", "check_lemma13", (8, 10), "pass"),
    ("lemma14", "check_lemma14", (9, 15), "pass"),
    ("lemma15", "check_lemma15", (7, 8), "discrepancy"),
    ("bogdanowicz", "check_bogdanowicz", (), "pass"),
    ("composition", "check_composition", (7,), "pass"),
    ("closed_forms", "check_closed_forms", (7,), "pass"),
]

CLAIMS_TINY = [
    ("prop1", "check_prop1", (5,), "discrepancy"),
    ("prop3", "check_prop3", (5,), "pass"),
    ("lemma15", "check_lemma15", (7, 8), "discrepancy"),
    ("composition", "check_composition", (5,), "pass"),
]


def prop2_classes(scale: str) -> list[tuple[int, int]]:
    """The claim range of prop2: 7 <= n <= 9 and n <= m <= C(n-3,2)+3."""
    top = 7 if scale == "tiny" else 9
    return [(n, m) for n in range(7, top + 1) for m in range(n, comb(n - 3, 2) + 4)]


def _claim_item(item_id: str, fn_name: str, args: tuple, want: str) -> Item:
    def run():
        report = getattr(checks, fn_name)(*args)
        problems = []
        if report.status != want:
            problems.append(f"status {report.status}, expected {want}")
        return report.to_json_dict(), {}, problems

    return Item(item_id, run)


def claims_items(scale: str) -> list[Item]:
    table = CLAIMS_TINY if scale == "tiny" else CLAIMS_FULL
    items = [_claim_item(f"claims:{name}", fn, args, want) for name, fn, args, want in table]
    items += [
        _claim_item(f"claims:prop2({n},{m})", "check_prop2", (n, m), "pass")
        for n, m in prop2_classes(scale)
    ]
    return items


# ---------------------------------------------------------------------------
# coeffs: dense per-graph queries

COEFFS_BALLOONS = {
    "full": [(7, 14), (7, 16), (7, 18), (8, 17), (8, 18)],
    "tiny": [(5, 6), (6, 9)],
}
COEFFS_RANDOM = {"full": [(7, 17), (8, 17)], "tiny": [(5, 7), (6, 10)]}


def random_two_terminal(rng: random.Random, n: int, m: int) -> graphs.TwoTerminalGraph:
    """A connected graph with n vertices and m edges drawn uniformly by
    rejection, with a random terminal pair."""
    pairs = list(combinations(range(n), 2))
    while True:
        g = graphs.SimpleGraph(n, tuple(sorted(rng.sample(pairs, m))))
        if graphs.is_connected(g):
            s, t = rng.sample(range(n), 2)
            return graphs.TwoTerminalGraph(g, s, t)


def coeffs_inputs(seed: int, scale: str) -> list[tuple[str, graphs.TwoTerminalGraph, bool]]:
    """(item id, graph, pinned in reference) for the balloons and the seeded
    random graphs."""
    rng = random.Random(f"coeffs-graphs-{seed}")
    out = [
        (f"coeffs:balloon({n},{m})", families.two_terminal_balloon(n, m), True)
        for n, m in COEFFS_BALLOONS[scale]
    ]
    for n, m in COEFFS_RANDOM[scale]:
        out.append((f"coeffs:random({n},{m})", random_two_terminal(rng, n, m), False))
    return out


def _coeffs_item(item_id: str, g: graphs.TwoTerminalGraph, pinned: bool, mc_seed: int) -> Item:
    n, m = g.graph.n, g.graph.m

    def run():
        split = counting.split_coefficients(g).counts
        conn = counting.connected_coefficients(g.graph).counts
        poly = signature.sr_polynomial(
            signature.SplitSignature(n, m, tuple(split))
        )
        sr_half = signature.evaluate(poly, Fraction(1, 2))
        two_trees = counting.two_tree_count(g)
        trees = counting.spanning_tree_count(g.graph)
        est, _ = counting.monte_carlo_sr(
            g, Fraction(1, 2), MC_TRIALS, counting.RandomSource(mc_seed)
        )
        problems = []
        if split[n - 2] != two_trees:
            problems.append(f"N[n-2]={split[n - 2]} but two_tree_count={two_trees}")
        if conn[n - 1] != trees:
            problems.append(f"conn[n-1]={conn[n - 1]} but spanning_tree_count={trees}")
        if item_id.startswith("coeffs:balloon") and families.in_I1(n, m):
            if families.sr_composition(n, m) != poly:
                problems.append("sr_composition differs from the swept polynomial")
        exact_p = float(sr_half)
        sigma = math.sqrt(exact_p * (1 - exact_p) / MC_TRIALS)
        if abs(est - exact_p) > MC_SIGMAS * sigma:
            problems.append(f"MC estimate {est} is more than {MC_SIGMAS} sigma from {sr_half}")
        exact = {
            "split": list(split),
            "connected": list(conn),
            "sr_half": str(sr_half),
            "two_trees": two_trees,
            "spanning_trees": trees,
        }
        seeded = {"mc_seed": mc_seed, "mc_estimate": est}
        if not pinned:
            seeded["edges"] = [list(e) for e in g.graph.edges]
            seeded["terminals"] = [g.s, g.t]
        return exact, seeded, problems

    return Item(item_id, run, in_reference=pinned)


# ---------------------------------------------------------------------------


def build(workload: str, seed: int, scale: str = "full") -> list[Item]:
    """The workload's items in the seeded order."""
    if workload == "table":
        items = [_table_item(n, m) for n, m in table_classes(scale)]
    elif workload == "claims":
        items = claims_items(scale)
    elif workload == "coeffs":
        items = [
            _coeffs_item(item_id, g, pinned, seed * 1000 + k)
            for k, (item_id, g, pinned) in enumerate(coeffs_inputs(seed, scale))
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    random.Random(f"order-{workload}-{seed}").shuffle(items)
    return items


def run_items(items: list[Item], reference: dict, tracer=None) -> dict:
    """Run every item, check it, and return digests and failures.

    `digests` covers exact and seeded outputs (traced and untraced passes of
    one seed must agree on it); `reference_digests` covers the exact part only.
    """
    digests: dict[str, str] = {}
    reference_digests: dict[str, str] = {}
    failures: list[dict] = []
    item_s: dict[str, float] = {}
    for item in items:
        if tracer is not None:
            tracer.item = item.id
        began = time.perf_counter()
        try:
            exact, seeded, problems = item.run()
        except Exception as exc:  # a raising item counts as failed; the pass goes on
            failures.append(
                {
                    "item": item.id,
                    "problems": [f"{type(exc).__name__}: {exc}"],
                    "traceback": traceback.format_exc(),
                }
            )
            continue
        finally:
            item_s[item.id] = time.perf_counter() - began
            if tracer is not None:
                tracer.item = None
        ref = digest(exact)
        reference_digests[item.id] = ref
        digests[item.id] = digest([exact, seeded])
        if item.in_reference and reference:
            want = reference.get(item.id)
            if want is None:
                problems.append("no reference digest")
            elif want != ref:
                problems.append("exact output differs from the reference digest")
        if problems:
            failures.append({"item": item.id, "problems": problems})
    return {
        "attempted": len(items),
        "failed": len(failures),
        "failures": failures,
        "digests": digests,
        "reference_digests": reference_digests,
        "item_s": item_s,
    }
