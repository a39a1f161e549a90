"""Verification report builders: statuses, discrepancy flags, details."""

import hashlib
import json
from math import comb

import pytest

from splitrel import checks, families, graphs
from splitrel.checks import (
    VERIFY_TARGETS,
    check_bogdanowicz,
    check_closed_forms,
    check_composition,
    check_lemma13,
    check_lemma14,
    check_lemma15,
    check_prop1,
    check_prop2,
    check_prop3,
    check_remark2,
    check_remark3,
    check_remark4,
    check_skeleton_characterization,
    check_thm1,
    check_thm2,
    run_target,
)
from splitrel.counting import CoefficientVector
from splitrel.families import in_I1, sr_composition, variant
from splitrel.graphs import to_json_dict


def test_prop1_small_reports_printed_discrepancy():
    rep = check_prop1(max_n=5)
    assert rep.status == "discrepancy"
    assert rep.details["brute_force_failures"] == []
    mismatches = rep.details["printed_formula_mismatches"]
    assert any(d["n"] == 9 and d["m"] == 15 for d in mismatches)


def test_prop3_small():
    assert check_prop3(max_n=5).status == "pass"


def test_skeleton_characterization_small():
    assert check_skeleton_characterization(max_n=5).status == "pass"


def test_thm2_small():
    assert check_thm2(max_n=5).status == "pass"


def test_thm1_single_class():
    rep = check_thm1(5, 6)
    assert rep.status == "pass"
    assert rep.details["classes_checked"] == 1


def test_prop2_kinds():
    assert check_prop2(7, 8).status == "pass"  # diamond skeleton branch
    assert check_prop2(8, 10).status == "pass"  # high-degree branch
    assert check_prop2(9, 12).status == "pass"  # nonadjacent-pair branch
    assert check_prop2(7, 7).details["branch"] == "m equals n"
    for n, m in [(10, 18), (12, 26)]:  # no upper bound on n below the n <= 16 guard
        rep = check_prop2(n, m)
        assert (rep.status, rep.details["routes_agree"]) == ("pass", True), (n, m)
    with pytest.raises(ValueError):
        check_prop2(6, 6)


def test_prop2_reports_values():
    rep = check_prop2(7, 8)
    assert rep.details["N_balloon"] == "32"
    assert rep.details["N_perturbed"] == "36"
    assert rep.details["routes_agree"]


def test_prop2_fails_with_the_chain(monkeypatch):
    # prop2's verdict is the chain's: one tree count off by one breaks its
    # identities, and a subset sweep off the chain's minors breaks the routes
    real_trees = checks.spanning_tree_count
    monkeypatch.setattr(checks, "spanning_tree_count", lambda g: real_trees(g) + 1)
    for n, m in [(7, 8), (8, 10), (9, 12), (9, 15)]:
        assert check_prop2(n, m).status == "fail", (n, m)
    monkeypatch.setattr(checks, "spanning_tree_count", real_trees)
    real_sweep = checks.split_coefficients

    def off_sweep(g):
        sig = real_sweep(g)
        return CoefficientVector(sig.n, sig.m, tuple(c + 1 for c in sig.counts))

    monkeypatch.setattr(checks, "split_coefficients", off_sweep)
    rep = check_prop2(9, 15)
    assert (rep.status, rep.details["routes_agree"]) == ("fail", False)


def _count_calls(monkeypatch, name: str) -> list:
    """Record every call of `name` through checks, families and graphs."""
    calls = []
    modules = (checks, families, graphs)
    real = next(getattr(module, name) for module in modules if hasattr(module, name))

    def counted(*args):
        calls.append(args)
        return real(*args)

    for module in modules:
        if getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, counted)
    return calls


def test_perturbation_chain_builds_each_graph_once(monkeypatch):
    # prop2 takes G's skeleton from the balloon it already holds; the chain
    # reads N_{n-2} of G and H from Laplacian minors, so only prop2's
    # cross-check classifies subsets, once for G and once for H
    builds = _count_calls(monkeypatch, "two_terminal_balloon")
    assert check_prop2(9, 15).status == "pass"
    assert len(builds) == 1
    sweeps = _count_calls(monkeypatch, "split_coefficients")
    assert check_lemma15(7, 8).status == "discrepancy"
    assert len(sweeps) == 0
    assert check_prop2(9, 15).status == "pass"
    assert len(sweeps) == 2


def test_claim_checks_build_each_piece_once(monkeypatch):
    # prop2's chain takes G's skeleton from the variant's context and H's
    # bridge count from H's skeleton; the composition check builds each
    # class's balloon twice, once inside sr_composition(n, m) and once for
    # the direct count, and the closed forms read each profile once
    skeletons = _count_calls(monkeypatch, "skeleton")
    bridge_passes = _count_calls(monkeypatch, "_bridge_tree")
    assert check_prop2(9, 15).status == "pass"
    assert (len(skeletons), len(bridge_passes)) == (2, 2)
    builds = _count_calls(monkeypatch, "two_terminal_balloon")
    assert check_composition(8).details["checked"] == 35
    assert len(builds) == 70
    profiles = _count_calls(monkeypatch, "balloon_profile")
    assert check_closed_forms(8).status == "pass"
    assert len(profiles) == 35


def test_lemma13():
    rep = check_lemma13(8, 10)
    assert rep.status == "pass"
    assert rep.details["ratio"] == "1/2"
    with pytest.raises(ValueError):
        check_lemma13(9, 15)  # skeleton minimum degree is 2 there


def test_lemma14():
    rep = check_lemma14(9, 15)
    assert rep.status == "pass"
    assert rep.details["t_skeleton"] == 300 and rep.details["t_minus"] == 180
    with pytest.raises(ValueError):
        check_lemma14(7, 8)  # skeleton too small


def test_lemma15_flags_printed_values():
    rep = check_lemma15(7, 8)
    assert rep.status == "discrepancy"
    assert rep.details["oracle"] == {
        "t_skeleton": 8,
        "t2_skeleton": 8,
        "t_h_skeleton": 12,
        "t2_h_skeleton": 12,
    }
    flagged = rep.details["printed_disagreements"]
    assert flagged["t_skeleton"] == {"printed": 4, "oracle": 8}
    assert flagged["t_h_skeleton"] == {"printed": 8, "oracle": 12}
    assert rep.details["conclusion_strict"]
    assert rep.details["errors"] == []


def test_remark2_small():
    assert check_remark2(max_n=6).status == "pass"


def test_remark3_full_range():
    assert check_remark3(max_n=8).status == "pass"


def test_remark4():
    rep = check_remark4(max_n=12)
    assert rep.status == "pass"
    assert rep.details["checked"] > 50


def test_composition_small():
    rep = check_composition(max_n=6)
    assert rep.status == "pass" and rep.details["checked"] >= 10


def test_closed_forms_small():
    rep = check_closed_forms(max_n=6)
    assert rep.status == "pass"
    assert rep.details["values_checked"] > 10


def test_bogdanowicz_small():
    rep = check_bogdanowicz(max_n=8)
    assert rep.status == "pass"


def test_run_target_dispatch():
    rep = run_target("lemma15", {"n": 7, "m": 8})
    assert rep.claim == "lemma15"
    with pytest.raises(ValueError):
        run_target("nonsense", {})
    with pytest.raises(ValueError):
        run_target("prop2", {})


def test_claim_outputs_pinned():
    # every claim report at its defaults (thm1 is the table's work), the
    # prop2 range, a few perturbations and the skeleton composition, as
    # recorded before prop2 and the lemmas were built from one chain
    out = [
        check().to_json_dict()
        for name, (check, forms) in VERIFY_TARGETS.items()
        if () in forms and name not in ("thm1", "skeleton_characterization", "closed_forms")
    ]
    out += [
        check_skeleton_characterization(7).to_json_dict(),
        check_closed_forms(8).to_json_dict(),
        check_remark4(20).to_json_dict(),
    ]
    out += [
        check_prop2(n, m).to_json_dict()
        for n in range(7, 10)
        for m in range(n, comb(n - 3, 2) + 4)
    ]
    out += [
        to_json_dict(variant(kind, n, m))
        for kind, n, m in [(0, 7, 8), (2, 7, 8), (0, 8, 10), (1, 9, 12), (1, 9, 15), (2, 9, 18)]
    ]
    out += [
        list(sr_composition(n, m))
        for n in range(4, 10)
        for m in range(n, comb(n, 2) + 1)
        if in_I1(n, m)
    ]
    digest = hashlib.sha256(json.dumps(out).encode()).hexdigest()
    assert digest == "b971c864c63c4b581b68fd18bdd63b3144b4fba5e1fd4159e64d46e4c172886f"
