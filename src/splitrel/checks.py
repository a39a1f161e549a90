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
    in_nonexistence_range,
    max_bridges,
    min_edge_connectivity,
    printed_max_bridges,
    composed_split_counts,
    threshold_graph,
    two_terminal_balloon,
    variant_with_context,
    closed_form_F_values,
)
from .graphs import (
    SimpleGraph,
    TwoTerminalGraph,
    bridges,
    count_min_separators,
    edge_connectivity,
    skeleton,
    skeleton_two_terminal,
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


def check_prop1(max_n: int = 7) -> Report:
    """Bridge maximum: the minimal-k closed form equals brute force over the
    enumerated classes (n <= max_n) and the balloon's bridge count (n <= 12);
    the printed radical expression is compared and its mismatches surfaced."""
    failures = []
    for n, m in _classes(max_n):
        brute = max(len(bridges(g)) for g in enumerate_graphs(n, m))
        if brute != max_bridges(n, m):
            failures.append({"n": n, "m": m, "brute": brute, "closed": max_bridges(n, m)})
    printed_mismatch = []
    for n, m in _classes(12):
        b = max_bridges(n, m)
        brute = len(bridges(balloon(n, m)))
        if brute != b:
            failures.append({"n": n, "m": m, "balloon": brute, "closed": b})
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
            # the bridge forest has b edges, so the skeleton has n - b vertices
            if (g.n - sk.n == target) != in_dense_extended(sk.n, sk.m):
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
    """No uniform winner for n = 7 over the nonexistence range (m = 7, 8, 9):
    explicit rational crossing witness, and the refuter already wins at index
    n-2 = 5."""
    failures = []
    details = {}
    for m in filter(lambda m: in_nonexistence_range(7, m), range(7, comb(7, 2) + 1)):
        ledger = refine_chain(7, m)
        verdict = ledger.uniform_verdict()
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
        _, idx = near_zero_refuter(ledger)
        entry["near_zero_index"] = idx
        if diff <= 0 or idx != 5:
            failures.append({"m": m, **entry})
        details[str(m)] = entry
    return Report("thm3", "fail" if failures else "pass", {"failures": failures, **details})


# per perturbation kind: the skeleton shapes (lambda', n') its lemma covers
_KIND_NEEDS = (
    (lambda lam, ns: lam >= 3, "skeleton minimum degree >= 3"),
    (lambda lam, ns: ns >= 5 and lam <= ns - 3, "n' >= 5 and lambda' <= n'-3"),
    (lambda lam, ns: lam == 2 and ns == 4, "the 4-vertex diamond skeleton"),
)


def _prop2_kind(n: int, m: int) -> Optional[int]:
    """The first kind whose lemma covers the class's skeleton; None for the
    triangle skeleton (m == n), which earlier work settles."""
    prof = balloon_profile(n, m)
    needs = (holds(prof.lam_skel, prof.n_skel) for holds, _ in _KIND_NEEDS)
    return next((kind for kind, ok in enumerate(needs) if ok), None)


def check_prop2(n: int, m: int) -> Report:
    """Near-zero advantage of the perturbed graph: N_{n-2}(H) > N_{n-2}(G),
    with both routes (subset classification and the two-terminal Laplacian
    minor) agreeing, and the counting bound (b-1)t(G'-e) - t(G') < difference
    checked."""
    if not (7 <= n <= 9 and in_nonexistence_range(n, m)):
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
    chain = _perturbation_chain(n, m, kind)
    g, h = chain["ctx"].balloon, chain["ctx"].result
    ng, nh = chain["ng"], chain["nh"]
    routes_agree = ng == two_tree_count(g) and nh == two_tree_count(h)
    b = chain["prof"].b
    bound = (b - 1) * chain["t_skel_minus"] - chain["t_skel"]
    ok = (
        routes_agree
        and nh > ng
        and nh - ng > bound
        and h.graph.n == n
        and h.graph.m == m
        and chain["h_bridges"] == b - 1
    )
    return Report(
        "prop2",
        "pass" if ok else "fail",
        {
            "n": n,
            "m": m,
            "kind": kind,
            "N_balloon": str(ng),
            "N_perturbed": str(nh),
            "lower_bound": str(bound),
            "routes_agree": routes_agree,
        },
    )


def _delete_edge(g: TwoTerminalGraph, e: int) -> TwoTerminalGraph:
    edges = tuple(p for i, p in enumerate(g.graph.edges) if i != e)
    return TwoTerminalGraph(SimpleGraph(g.graph.n, edges), g.s, g.t)


def _perturbation_chain(n: int, m: int, kind: int) -> dict:
    """The counting chain shared by prop2 and the three perturbation lemmas.

    H is the two-terminal balloon G with one bridge contracted and the
    skeleton edge e subdivided, so N_{n-2}(H) - N_{n-2}(G) =
    (b-1) t(G'-e) - t(G') + t2(G'-e) with G' the skeleton.  Returns the six
    skeleton minors (t and t2 of G', G'-e and H'), N_{n-2} of G and H by
    subset classification, b(H) = n - n(H'), and the failed identities.
    """
    prof = balloon_profile(n, m)
    holds, needs = _KIND_NEEDS[kind]
    if not holds(prof.lam_skel, prof.n_skel):
        raise ValueError(f"kind-{kind} chain needs {needs}")
    ctx = variant_with_context(kind, n, m)
    skel = ctx.skeleton
    minus = _delete_edge(skel, skel.graph.edge_index(*ctx.skeleton_edge))
    h_skel = skeleton_two_terminal(ctx.result)
    t, t_minus, t_h = (spanning_tree_count(x.graph) for x in (skel, minus, h_skel))
    t2, t2_minus, t2_h = (two_tree_count(x) for x in (skel, minus, h_skel))
    ng, nh = (split_coefficients(x).counts[n - 2] for x in (ctx.balloon, ctx.result))
    b = prof.b
    identities = (
        # bridge/skeleton decomposition of the two-tree counts
        (ng == b * t + t2, "balloon two-tree decomposition failed"),
        (nh == (b - 1) * t_h + t2_h, "perturbed two-tree decomposition failed"),
        # deletion/contraction across the subdivision
        (t_h == t_minus + t, "tree-count recurrence across the subdivision failed"),
        (t2_h == t2_minus + t2, "two-tree recurrence across the subdivision failed"),
        (t2_minus > 0, "deleted-edge skeleton has no two-tree split"),
        (nh > ng, "perturbation did not increase the near-zero coefficient"),
    )
    return {
        "ctx": ctx, "prof": prof, "ng": ng, "nh": nh, "h_bridges": n - h_skel.graph.n,
        "t_skel": t, "t_skel_minus": t_minus, "t_h_skel": t_h,
        "t2_skel": t2, "t2_skel_minus": t2_minus, "t2_h_skel": t2_h,
        "errors": [message for ok, message in identities if not ok],
    }


def check_lemma13(n: int = 8, m: int = 10) -> Report:
    """Kind-0 chain (skeleton minimum degree >= 3): product-formula tree
    counts, the (lambda'-1)/lambda' * (n'-1)/n' ratio bound, and the strict
    coefficient increase."""
    vals = _perturbation_chain(n, m, 0)
    lam, ns, errors = vals["prof"].lam_skel, vals["prof"].n_skel, vals["errors"]
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
    vals = _perturbation_chain(n, m, 1)
    lam, ns, errors = vals["prof"].lam_skel, vals["prof"].n_skel, vals["errors"]
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
    vals = _perturbation_chain(n, m, 2)
    errors = vals["errors"]
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
    b, ng, nh = vals["prof"].b, vals["ng"], vals["nh"]
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
        skel = skeleton_two_terminal(two_terminal_balloon(n, m))
        for i, edge in enumerate(skel.graph.edges):
            if two_tree_count(_delete_edge(skel, i)) <= 0:
                failures.append({"n": n, "m": m, "edge": list(edge)})
    return Report("remark3", "fail" if failures else "pass", {"failures": failures})


def check_remark4(max_n: int = 12) -> Report:
    """At least 3 bridges on every class of the nonexistence range."""
    classes = _classes(max_n, in_nonexistence_range)
    failures = [
        {"n": n, "m": m, "bridges": max_bridges(n, m)}
        for n, m in classes
        if max_bridges(n, m) < 3
    ]
    return Report(
        "remark4", "fail" if failures else "pass", {"failures": failures, "checked": len(classes)}
    )


def check_composition(max_n: int = 8) -> Report:
    """Bridge/skeleton factorization of the balloon's count vector equals the
    directly computed one on every bridged class in range."""
    failures = []
    checked = 0
    for n, m in _classes(max_n, in_I1):
        checked += 1
        g = two_terminal_balloon(n, m)
        if composed_split_counts(g) != split_coefficients(g).counts:
            failures.append({"n": n, "m": m})
    return Report(
        "composition", "fail" if failures else "pass", {"failures": failures, "checked": checked}
    )


def check_closed_forms(max_n: int = 8) -> Report:
    """Structured failed-edge counts of the balloon match the computed signature
    at every index they cover."""
    failures = []
    checked = 0
    for n, m in _classes(max_n, in_I1):
        sig = SplitSignature.from_vector(n, split_coefficients(two_terminal_balloon(n, m)))
        for i, closed in enumerate(closed_form_F_values(n, m), 1):
            checked += 1
            if closed != sig.f_value(i):
                failures.append({"n": n, "m": m, "i": i, "closed": closed, "swept": sig.f_value(i)})
    return Report(
        "closed_forms", "fail" if failures else "pass",
        {"failures": failures, "values_checked": checked},
    )


def check_bogdanowicz(max_n: int = 10) -> Report:
    """Threshold-graph tree product formula vs the matrix-tree determinant,
    exhaustively over nonincreasing degree lists with at most 4 independent
    vertices, plus the complete-graph special case up to n = 12."""
    failures = []
    checked = 0
    for n in range(2, max_n + 1):
        for k in range(0, min(4, n - 1) + 1):
            for degs in combinations_with_replacement(range(1, n - k + 1), k):
                spec = ThresholdSpec(n, tuple(sorted(degs, reverse=True)))
                checked += 1
                if bogdanowicz_tree_count(spec) != spanning_tree_count(threshold_graph(spec)):
                    failures.append(spec.to_json_dict())
    for n in range(2, 13):
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
    "skeleton_characterization": (check_skeleton_characterization, [(), ("max_n",)]),
    "lemma13": (check_lemma13, [(), ("n", "m")]),
    "lemma14": (check_lemma14, [(), ("n", "m")]),
    "lemma15": (check_lemma15, [(), ("n", "m")]),
    "remark2": (check_remark2, [(), ("max_n",)]),
    "remark3": (check_remark3, [(), ("max_n",)]),
    "remark4": (check_remark4, [(), ("max_n",)]),
    "composition": (check_composition, [(), ("max_n",)]),
    "bogdanowicz": (check_bogdanowicz, [(), ("max_n",)]),
    "closed_forms": (check_closed_forms, [(), ("max_n",)]),
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
