"""Machine-checkable verification reports for the library's structural claims:
extremal closed forms against brute force, the skeleton characterization, the
balloon-class characterization, the nonexistence witnesses, the perturbation
lemmas' counting chains, and the threshold-graph tree formula.

Each builder returns a Report with status "pass", "fail", or "discrepancy";
"discrepancy" is reserved for the two documented places where a printed value
disagrees with the exact oracle while the enclosing claim still verifies (the
radical form of the bridge maximum, and the kind-2 perturbation's printed
tree counts).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb
from typing import Optional

from . import canon
from .counting import (
    spanning_tree_count,
    split_coefficients,
    two_tree_count,
)
from .enumeration import (
    near_zero_refuter,
    refine_chain,
    uniform_check,
    verify_balloon_characterization,
    enumerate_graphs,
)
from .families import (
    ThresholdSpec,
    balloon,
    balloon_profile,
    bogdanowicz_tree_count,
    in_I,
    in_I0,
    in_I1,
    in_dense_extended,
    max_bridges,
    min_edge_connectivity,
    printed_max_bridges,
    skeleton_two_terminal,
    sr_composition,
    threshold_graph,
    two_terminal_balloon,
    variant_with_context,
    closed_form_F,
)
from .graphs import (
    SimpleGraph,
    TwoTerminalGraph,
    bridges,
    count_min_separators,
    edge_connectivity,
    skeleton,
)
from .signature import SplitSignature, evaluate


@dataclass
class Report:
    claim: str
    status: str  # pass | fail | discrepancy
    details: dict

    def to_json_dict(self) -> dict:
        return {"claim": self.claim, "status": self.status, "details": self.details}

    @property
    def failed(self) -> bool:
        return self.status == "fail"


def _classes(max_n: int, pred=in_I) -> list[tuple[int, int]]:
    return [
        (n, m)
        for n in range(4, max_n + 1)
        for m in range(n, comb(n, 2) + 1)
        if pred(n, m)
    ]


def check_prop1(max_n: int = 7, balloon_max_n: int = 12) -> Report:
    """Bridge maximum: brute force over the enumerated classes equals the
    minimal-k closed form and the balloon's own bridge count; the printed
    radical expression is compared and its mismatches surfaced."""
    failures = []
    for n, m in _classes(max_n):
        brute = max(len(bridges(g)) for g in enumerate_graphs(n, m))
        if brute != max_bridges(n, m):
            failures.append({"n": n, "m": m, "brute": brute, "closed": max_bridges(n, m)})
    printed_mismatch = []
    for n, m in _classes(balloon_max_n):
        b = max_bridges(n, m)  # asserts equality with the balloon internally
        p = printed_max_bridges(n, m)
        if p != b:
            printed_mismatch.append({"n": n, "m": m, "printed": p, "actual": b})
    status = "fail" if failures else ("discrepancy" if printed_mismatch else "pass")
    return Report(
        "prop1",
        status,
        {
            "brute_force_failures": failures,
            "printed_formula_mismatches": printed_mismatch,
            "printed_mismatch_count": len(printed_mismatch),
        },
    )


def check_prop3(max_n: int = 7) -> Report:
    """Edge-connectivity minimum matches the closed form; on the dense range
    the minimizer is unique and is the balloon."""
    failures = []
    for n, m in _classes(max_n):
        graphs = enumerate_graphs(n, m)
        lam = [edge_connectivity(g) for g in graphs]
        best = min(lam)
        if best != min_edge_connectivity(n, m):
            failures.append({"n": n, "m": m, "brute": best})
            continue
        if in_I0(n, m):
            minimizers = [g for g, l in zip(graphs, lam) if l == best]
            if len(minimizers) != 1 or not canon.isomorphic(minimizers[0], balloon(n, m)):
                failures.append({"n": n, "m": m, "nonunique_minimizer": len(minimizers)})
    return Report("prop3", "fail" if failures else "pass", {"failures": failures})


def check_skeleton_characterization(max_n: int = 7) -> Report:
    """A graph attains the bridge maximum iff its skeleton lands in the dense
    range (exhaustive check of both directions; the triangle skeleton counts
    as dense, which is the m = n case)."""
    failures = []
    for n, m in _classes(max_n):
        target = max_bridges(n, m)
        for g in enumerate_graphs(n, m):
            sk, _ = skeleton(g)
            dense = in_dense_extended(sk.n, sk.m)
            if (len(bridges(g)) == target) != dense:
                failures.append({"n": n, "m": m, "edges": list(g.edges)})
    return Report(
        "skeleton_characterization", "fail" if failures else "pass", {"failures": failures}
    )


def check_thm2(max_n: int = 7) -> Report:
    """Spanning-tree minimum over each class is attained by the balloon."""
    failures = []
    for n, m in _classes(max_n):
        brute = min(spanning_tree_count(g) for g in enumerate_graphs(n, m))
        if brute != spanning_tree_count(balloon(n, m)):
            failures.append({"n": n, "m": m, "brute": brute})
    return Report("thm2", "fail" if failures else "pass", {"failures": failures})


def check_thm1(
    n: Optional[int] = None,
    m: Optional[int] = None,
    max_n: int = 7,
) -> Report:
    """Locally-most set equals the balloon's split-equivalence class."""
    targets = [(n, m)] if n is not None and m is not None else _classes(max_n)
    results = {}
    failures = []
    for nn, mm in targets:
        res = verify_balloon_characterization(nn, mm)
        results[f"{nn},{mm}"] = res
        if not res["ok"]:
            failures.append({"n": nn, "m": mm, **res})
    return Report(
        "thm1",
        "fail" if failures else "pass",
        {"failures": failures, "classes_checked": len(targets), "results": results},
    )


def check_thm3() -> Report:
    """No uniform winner for n = 7 and m in {7, 8, 9}: explicit rational
    crossing witness, and the refuter already wins at index n-2 = 5."""
    failures = []
    details = {}
    for m in (7, 8, 9):
        verdict = uniform_check(7, m)
        ledger = refine_chain(7, m)
        entry: dict = {}
        if verdict.winner is not None:
            failures.append({"m": m, "unexpected_winner": verdict.winner})
            continue
        cand = ledger.locally_most[0]
        diff = evaluate(ledger.signatures[verdict.rival].counts, verdict.witness) - evaluate(
            ledger.signatures[cand].counts, verdict.witness
        )
        entry["witness"] = str(verdict.witness)
        entry["rival_margin_at_witness"] = str(diff)
        _, order, idx = near_zero_refuter(ledger)
        entry["near_zero_index"] = idx
        if diff <= 0 or idx != 5:
            failures.append({"m": m, **entry})
        details[str(m)] = entry
    return Report("thm3", "fail" if failures else "pass", {"failures": failures, **details})


def _prop2_kind(n: int, m: int) -> Optional[int]:
    prof = balloon_profile(n, m)
    if prof.lam_skel >= 3:
        return 0
    if prof.lam_skel == 2 and prof.n_skel >= 5:
        return 1
    if prof.lam_skel == 2 and prof.n_skel == 4:
        return 2
    return None  # n_skel == 3, i.e. m == n: settled by earlier work


def check_prop2(n: int, m: int) -> Report:
    """Near-zero advantage of the perturbed graph: N_{n-2}(H) > N_{n-2}(G),
    with both routes (subset classification and bipartition tree products)
    agreeing, and the counting bound (b-1)t(G'-e) - t(G') < difference checked."""
    if not (7 <= n <= 9 and n <= m <= comb(n - 3, 2) + 3):
        raise ValueError("claim range is 7 <= n <= 9, n <= m <= C(n-3,2)+3")
    kind = _prop2_kind(n, m)
    if kind is None:
        return Report(
            "prop2",
            "pass",
            {
                "n": n,
                "m": m,
                "branch": "m equals n",
                "note": "cycle-skeleton classes are settled by earlier work; "
                "nonexistence is reproduced by enumeration for n <= 7",
            },
        )
    ctx = variant_with_context(kind, n, m)
    prof = balloon_profile(n, m)
    g, h = ctx.balloon, ctx.result
    ng_sweep = split_coefficients(g).counts[n - 2]
    nh_sweep = split_coefficients(h).counts[n - 2]
    ng_tree = two_tree_count(g)
    nh_tree = two_tree_count(h)
    skel, _ = skeleton(g.graph)
    e_idx = skel.edge_index(*ctx.skeleton_edge)
    skel_minus = SimpleGraph(
        skel.n, tuple(p for i, p in enumerate(skel.edges) if i != e_idx)
    )
    bound = (prof.b - 1) * spanning_tree_count(skel_minus) - spanning_tree_count(skel)
    ok = (
        ng_sweep == ng_tree
        and nh_sweep == nh_tree
        and nh_sweep > ng_sweep
        and nh_sweep - ng_sweep > bound
        and h.graph.n == n
        and h.graph.m == m
        and len(bridges(h.graph)) == prof.b - 1
    )
    return Report(
        "prop2",
        "pass" if ok else "fail",
        {
            "n": n,
            "m": m,
            "kind": kind,
            "N_balloon": str(ng_sweep),
            "N_perturbed": str(nh_sweep),
            "lower_bound": str(bound),
            "routes_agree": ng_sweep == ng_tree and nh_sweep == nh_tree,
        },
    )


def _skeleton_tree_values(n: int, m: int, kind: int) -> dict:
    """Exact tree counts along the perturbation's counting chain."""
    ctx = variant_with_context(kind, n, m)
    prof = balloon_profile(n, m)
    skel_tt = skeleton_two_terminal(n, m)
    skel = skel_tt.graph
    e_idx = skel.edge_index(*ctx.skeleton_edge)
    skel_minus = SimpleGraph(skel.n, tuple(p for i, p in enumerate(skel.edges) if i != e_idx))
    h_skel, h_vmap = skeleton(ctx.result.graph)
    h_tt = TwoTerminalGraph(h_skel, h_vmap[ctx.result.s], h_vmap[ctx.result.t])
    return {
        "ctx": ctx,
        "prof": prof,
        "skel_tt": skel_tt,
        "skel_minus_tt": TwoTerminalGraph(skel_minus, skel_tt.s, skel_tt.t),
        "h_tt": h_tt,
        "t_skel": spanning_tree_count(skel),
        "t_skel_minus": spanning_tree_count(skel_minus),
        "t_h_skel": spanning_tree_count(h_skel),
        "t2_skel": two_tree_count(skel_tt),
        "t2_skel_minus": two_tree_count(TwoTerminalGraph(skel_minus, skel_tt.s, skel_tt.t)),
        "t2_h_skel": two_tree_count(h_tt),
    }


def _counting_identities(vals: dict, n: int, m: int) -> list[str]:
    """The shared counting chain of all three perturbation lemmas."""
    errors = []
    ctx, prof = vals["ctx"], vals["prof"]
    b = prof.b
    # bridge/skeleton decomposition of the two-tree counts
    ng = split_coefficients(ctx.balloon).counts[n - 2]
    nh = split_coefficients(ctx.result).counts[n - 2]
    if ng != b * vals["t_skel"] + vals["t2_skel"]:
        errors.append("balloon two-tree decomposition failed")
    if nh != (b - 1) * vals["t_h_skel"] + vals["t2_h_skel"]:
        errors.append("perturbed two-tree decomposition failed")
    # deletion/contraction across the subdivision
    if vals["t_h_skel"] != vals["t_skel_minus"] + vals["t_skel"]:
        errors.append("tree-count recurrence across the subdivision failed")
    if vals["t2_h_skel"] != vals["t2_skel_minus"] + vals["t2_skel"]:
        errors.append("two-tree recurrence across the subdivision failed")
    if vals["t2_skel_minus"] <= 0:
        errors.append("deleted-edge skeleton has no two-tree split")
    if nh <= ng:
        errors.append("perturbation did not increase the near-zero coefficient")
    return errors


def check_lemma13(n: int = 8, m: int = 10) -> Report:
    """Kind-0 chain (skeleton minimum degree >= 3): product-formula tree
    counts, the (lambda'-1)/lambda' * (n'-1)/n' ratio bound, and the strict
    coefficient increase."""
    prof = balloon_profile(n, m)
    lam, ns = prof.lam_skel, prof.n_skel
    if lam < 3:
        raise ValueError("kind-0 chain needs skeleton minimum degree >= 3")
    vals = _skeleton_tree_values(n, m, 0)
    errors = _counting_identities(vals, n, m)
    expect_t = bogdanowicz_tree_count(ThresholdSpec(ns, (lam,)))
    expect_t_minus = bogdanowicz_tree_count(ThresholdSpec(ns, (lam - 1,)))
    if vals["t_skel"] != expect_t or vals["t_skel"] != lam * ns ** (lam - 1) * (ns - 1) ** (ns - lam - 2):
        errors.append("skeleton tree count does not match the product formula")
    if vals["t_skel_minus"] != expect_t_minus:
        errors.append("deleted-edge tree count does not match the product formula")
    ratio = Fraction(vals["t_skel_minus"], vals["t_skel"])
    if ratio != Fraction(lam - 1, lam) * Fraction(ns - 1, ns) or ratio < Fraction(1, 2):
        errors.append("ratio bound failed")
    return Report(
        "lemma13",
        "fail" if errors else "pass",
        {"n": n, "m": m, "t_skeleton": vals["t_skel"], "t_minus": vals["t_skel_minus"],
         "ratio": str(ratio), "errors": errors},
    )


def check_lemma14(n: int = 9, m: int = 15) -> Report:
    """Kind-1 chain (n' >= 5, lambda' <= n'-3): two-spur threshold form of the
    deleted-edge skeleton and the (n'-3)/(n'-1) ratio bound."""
    prof = balloon_profile(n, m)
    lam, ns = prof.lam_skel, prof.n_skel
    if ns < 5 or lam > ns - 3:
        raise ValueError("kind-1 chain needs n' >= 5 and lambda' <= n'-3")
    vals = _skeleton_tree_values(n, m, 1)
    errors = _counting_identities(vals, n, m)
    expect_t_minus = bogdanowicz_tree_count(ThresholdSpec(ns, (ns - 3, lam)))
    formula = lam * ns ** (lam - 1) * (ns - 3) * (ns - 1) ** (ns - lam - 3)
    if vals["t_skel_minus"] != expect_t_minus or vals["t_skel_minus"] != formula:
        errors.append("deleted-edge tree count does not match the product formula")
    ratio = Fraction(vals["t_skel_minus"], vals["t_skel"])
    if ratio != Fraction(ns - 3, ns - 1) or ratio < Fraction(1, 2):
        errors.append("ratio bound failed")
    return Report(
        "lemma14",
        "fail" if errors else "pass",
        {"n": n, "m": m, "t_skeleton": vals["t_skel"], "t_minus": vals["t_skel_minus"],
         "ratio": str(ratio), "errors": errors},
    )


PRINTED_KIND2_TREES = {"t_skeleton": 4, "t_h_skeleton": 8}  # as printed; oracle disagrees


def check_lemma15(n: int = 7, m: int = 8) -> Report:
    """Kind-2 chain (skeleton is the 4-vertex diamond): all four tree/two-tree
    oracle values, the printed-value discrepancy, and the strict increase."""
    prof = balloon_profile(n, m)
    if prof.lam_skel != 2 or prof.n_skel != 4:
        raise ValueError("kind-2 chain needs the 4-vertex diamond skeleton")
    vals = _skeleton_tree_values(n, m, 2)
    errors = _counting_identities(vals, n, m)
    oracle = {
        "t_skeleton": vals["t_skel"],
        "t2_skeleton": vals["t2_skel"],
        "t_h_skeleton": vals["t_h_skel"],
        "t2_h_skeleton": vals["t2_h_skel"],
    }
    if (vals["t_skel"], vals["t2_skel"], vals["t_h_skel"], vals["t2_h_skel"]) != (8, 8, 12, 12):
        errors.append("oracle values moved; expected 8/8/12/12")
    flagged = {
        key: {"printed": printed, "oracle": oracle[key]}
        for key, printed in PRINTED_KIND2_TREES.items()
        if printed != oracle[key]
    }
    b = prof.b
    ng = split_coefficients(vals["ctx"].balloon).counts[n - 2]
    nh = split_coefficients(vals["ctx"].result).counts[n - 2]
    if ng != 8 * b + 8 or nh != 12 * b:
        errors.append("closed-form coefficient values failed")
    status = "fail" if errors else ("discrepancy" if flagged else "pass")
    return Report(
        "lemma15",
        status,
        {
            "n": n,
            "m": m,
            "oracle": oracle,
            "printed_disagreements": flagged,
            "N_balloon": str(ng),
            "N_perturbed": str(nh),
            "conclusion_strict": nh > ng,
            "errors": errors,
        },
    )


def check_remark2(max_n: int = 7) -> Report:
    """Minimum-separator counts on dense balloons: n at the complete graph,
    2 one edge below, 1 otherwise."""
    failures = []
    for n, m in _classes(max_n, in_I0):
        g = balloon(n, m)
        s = count_min_separators(g)
        if m == comb(n, 2):
            want = n
        elif m == comb(n, 2) - 1:
            want = 2
        else:
            want = 1
        if s != want:
            failures.append({"n": n, "m": m, "count": s, "expected": want})
    return Report("remark2", "fail" if failures else "pass", {"failures": failures})


def check_remark3(max_n: int = 8) -> Report:
    """Deleting any skeleton edge of a bridged balloon still leaves a
    two-disjoint-tree split (positive count)."""
    failures = []
    for n, m in _classes(max_n, in_I1):
        skel_tt = skeleton_two_terminal(n, m)
        for i in range(skel_tt.graph.m):
            reduced = SimpleGraph(
                skel_tt.graph.n,
                tuple(p for j, p in enumerate(skel_tt.graph.edges) if j != i),
            )
            if two_tree_count(TwoTerminalGraph(reduced, skel_tt.s, skel_tt.t)) <= 0:
                failures.append({"n": n, "m": m, "edge": list(skel_tt.graph.edges[i])})
    return Report("remark3", "fail" if failures else "pass", {"failures": failures})


def check_remark4(max_n: int = 12) -> Report:
    """At least 3 bridges throughout n <= m <= C(n-3,2)+3."""
    failures = []
    checked = 0
    for n in range(4, max_n + 1):
        hi = comb(n - 3, 2) + 3
        for m in range(n, hi + 1):
            if not in_I(n, m):
                continue
            checked += 1
            if max_bridges(n, m) < 3:
                failures.append({"n": n, "m": m, "bridges": max_bridges(n, m)})
    return Report(
        "remark4", "fail" if failures else "pass", {"failures": failures, "checked": checked}
    )


def check_composition(max_n: int = 8, max_m: int = 24) -> Report:
    """Bridge/skeleton factorization of the balloon's count vector equals the
    directly computed one on every bridged class in range."""
    failures = []
    checked = 0
    for n, m in _classes(max_n, in_I1):
        if m > max_m:
            continue
        checked += 1
        g = two_terminal_balloon(n, m)
        if sr_composition(n, m) != split_coefficients(g).counts:
            failures.append({"n": n, "m": m})
    return Report(
        "composition", "fail" if failures else "pass", {"failures": failures, "checked": checked}
    )


def check_closed_forms(max_n: int = 8, max_m: int = 24) -> Report:
    """Structured failed-edge counts of the balloon match the computed signature
    at every index they cover."""
    failures = []
    checked = 0
    for n, m in _classes(max_n, in_I1):
        if m > max_m:
            continue
        prof = balloon_profile(n, m)
        sig = SplitSignature.from_vector(n, split_coefficients(two_terminal_balloon(n, m)))
        for i in range(1, prof.n_skel - 1):
            checked += 1
            if closed_form_F(n, m, i) != sig.f_value(i):
                failures.append(
                    {"n": n, "m": m, "i": i, "closed": closed_form_F(n, m, i),
                     "swept": sig.f_value(i)}
                )
    return Report(
        "closed_forms", "fail" if failures else "pass",
        {"failures": failures, "values_checked": checked},
    )


def check_bogdanowicz(max_n: int = 10, max_k: int = 4, cayley_max_n: int = 12) -> Report:
    """Threshold-graph tree product formula vs the matrix-tree determinant,
    exhaustively over nonincreasing degree lists, plus the complete-graph
    special case."""
    failures = []
    checked = 0
    for n in range(2, max_n + 1):
        for k in range(0, min(max_k, n - 1) + 1):
            if n - k < 1:
                continue
            for degs in combinations_with_replacement(range(1, n - k + 1), k):
                spec = ThresholdSpec(n, tuple(sorted(degs, reverse=True)))
                checked += 1
                if bogdanowicz_tree_count(spec) != spanning_tree_count(threshold_graph(spec)):
                    failures.append(spec.to_json_dict())
    for n in range(2, cayley_max_n + 1):
        checked += 1
        if bogdanowicz_tree_count(ThresholdSpec(n, ())) != n ** (n - 2):
            failures.append({"n": n, "degrees": []})
    return Report(
        "bogdanowicz", "fail" if failures else "pass",
        {"failures": failures, "specs_checked": checked},
    )


# target -> (check, the argument sets it accepts); each argument set is
# passed as keywords, and the check's own defaults fill the rest
VERIFY_TARGETS = {
    "prop1": (check_prop1, [(), ("max_n",)]),
    "prop2": (check_prop2, [("n", "m")]),
    "prop3": (check_prop3, [(), ("max_n",)]),
    "thm1": (check_thm1, [(), ("n", "m"), ("max_n",)]),
    "thm2": (check_thm2, [(), ("max_n",)]),
    "thm3": (check_thm3, [()]),
    "lemma13": (check_lemma13, [(), ("n", "m")]),
    "lemma14": (check_lemma14, [(), ("n", "m")]),
    "lemma15": (check_lemma15, [(), ("n", "m")]),
    "remark2": (check_remark2, [(), ("max_n",)]),
    "remark3": (check_remark3, [(), ("max_n",)]),
    "remark4": (check_remark4, [(), ("max_n",)]),
    "composition": (check_composition, [(), ("max_n",)]),
    "bogdanowicz": (check_bogdanowicz, [(), ("max_n",)]),
}


def _flags(names) -> str:
    return " ".join("--" + name.replace("_", "-") for name in names) or "no arguments"


def run_target(target: str, args: dict) -> Report:
    """Run a named verification target; `args` maps n, m and max_n to a value
    or None.  Arguments the target does not take are refused, not ignored."""
    if target not in VERIFY_TARGETS:
        raise ValueError(f"unknown verification target {target!r}")
    check, accepted = VERIFY_TARGETS[target]
    given = {k: v for k, v in args.items() if v is not None}
    if not any(set(given) == set(form) for form in accepted):
        raise ValueError(
            f"verify {target} accepts {' | '.join(_flags(f) for f in accepted)}; "
            f"got {_flags(given)}"
        )
    return check(**given)
