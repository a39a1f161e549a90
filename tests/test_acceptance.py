"""Acceptance suite: every criterion is exact (zero tolerance) except the
documented statistical tolerance of the Monte Carlo check.  Each test prints
one pass/fail line; run with `pytest tests/test_acceptance.py -v -s`.

The expensive artifact is the n = 7 table; every verdict is recomputed in the
run that checks it (nothing is read from disk).
"""

import random
from fractions import Fraction
from math import comb, sqrt

import pytest

from conftest import random_two_terminal
from splitrel.checks import (
    check_bogdanowicz,
    check_closed_forms,
    check_composition,
    check_lemma15,
    check_prop1,
    check_prop3,
    check_skeleton_characterization,
    check_thm2,
    check_thm3,
)
from splitrel.counting import (
    RandomSource,
    classify_subsets,
    deletion_contraction_check,
    monte_carlo_sr,
    spanning_tree_count,
    split_coefficients,
    two_tree_count,
)
from splitrel.enumeration import (
    enumerate_graphs,
    enumerate_two_terminal,
    uniform_check,
    verify_balloon_characterization,
)
from splitrel.families import closed_form_F
from splitrel.graphs import bridges, relabel_two_terminal
from splitrel.signature import SplitSignature, evaluate, sr_polynomial

I_CLASSES = [
    (n, m) for n in range(4, 8) for m in range(n, comb(n, 2) + 1)
]


def _expected_winner(n: int, m: int) -> bool:
    # published desk-scale table: winners for n <= 5 everywhere, for n = 6
    # except m in {6, 8}, and for n = 7 exactly from m = 14 up
    if n <= 5:
        return True
    if n == 6:
        return m not in (6, 8)
    return m >= 14


def _line(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def verdict_table():
    return {(n, m): uniform_check(n, m) for n, m in I_CLASSES}


# (rival index, witness) of every no-winner class, as the dominance decision
# reports them: each refutation is the first presample point, 1/64
NO_WINNER_WITNESSES = {
    (6, 6): (30, "1/64"),
    (6, 8): (116, "1/64"),
    (7, 7): (246, "1/64"),
    (7, 8): (506, "1/64"),
    (7, 9): (678, "1/64"),
    (7, 10): (526, "1/64"),
    (7, 11): (1190, "1/64"),
    (7, 12): (1156, "1/64"),
    (7, 13): (629, "1/64"),
}


def test_criterion_01_existence_table(verdict_table):
    mismatches = []
    for (n, m), verdict in verdict_table.items():
        got = verdict.winner is not None
        if got != _expected_winner(n, m):
            mismatches.append((n, m, got))
    witnesses = {
        key: (verdict.rival, str(verdict.witness))
        for key, verdict in verdict_table.items()
        if verdict.winner is None
    }
    if witnesses != NO_WINNER_WITNESSES:
        mismatches.append(("witnesses", witnesses))
    # tree classes are settled separately (the path with endpoint terminals
    # is the unique winner); recorded by citation, spot-confirmed in the
    # enumeration tests rather than recomputed here
    tree_classes_cited = [(n, n - 1) for n in range(4, 8)]
    ok = not mismatches
    _line(
        1,
        ok,
        f"uniform verdicts over {len(verdict_table)} classes match the "
        f"published table (trees cited: {tree_classes_cited}); mismatches={mismatches}",
    )


def test_criterion_02_locally_most_is_balloon_class(verdict_table):
    bad = []
    for n, m in I_CLASSES:
        res = verify_balloon_characterization(n, m)
        if not res["ok"]:
            bad.append((n, m, res))
    _line(2, not bad, f"locally-most class equals the balloon class for all "
                      f"{len(I_CLASSES)} classes; failures={bad}")


def test_criterion_03_nonexistence_witnesses(verdict_table):
    rep = check_thm3()
    detail = {m: rep.details.get(str(m), {}) for m in (7, 8, 9)}
    margins = {7: "7875/4398046511104", 8: "494109/140737488355328",
               9: "49067739/2251799813685248"}
    pinned = {m: {"witness": "1/64", "rival_margin_at_witness": margin, "near_zero_index": 5}
              for m, margin in margins.items()}
    _line(3, rep.status == "pass" and detail == pinned,
          f"n=7, m in 7..9: crossing witnesses with near-zero index 5: {detail}")


def test_criterion_04_extremal_brute_force():
    prop1 = check_prop1(max_n=7, balloon_max_n=12)
    prop3 = check_prop3(max_n=7)
    thm2 = check_thm2(max_n=7)
    skel = check_skeleton_characterization(max_n=7)
    ok = (
        prop1.status in ("pass", "discrepancy")
        and not prop1.details["brute_force_failures"]
        and prop3.status == "pass"
        and thm2.status == "pass"
        and skel.status == "pass"
    )
    _line(
        4,
        ok,
        "bridge max / connectivity min (unique dense minimizer) / tree min / "
        f"skeleton iff all match brute force for n <= 7 "
        f"(printed bridge formula mismatches: {prop1.details['printed_mismatch_count']})",
    )


def test_criterion_05_threshold_tree_formula():
    rep = check_bogdanowicz(max_n=10, max_k=4, cayley_max_n=12)
    _line(5, rep.status == "pass",
          f"product formula = matrix-tree on {rep.details['specs_checked']} specs")


def test_criterion_06_closed_form_failed_edge_counts():
    rep = check_closed_forms(max_n=8, max_m=24)
    pinned = closed_form_F(9, 15, 2) == 37 and closed_form_F(9, 15, 3) == 205
    ok = rep.status == "pass" and pinned
    _line(6, ok, f"closed-form F values match sweeps at "
                 f"{rep.details['values_checked']} indices; "
                 f"F_2(9,15)=37 and F_3(9,15)=205 pinned")


def test_criterion_07_composition_identity():
    rep = check_composition(max_n=8, max_m=24)
    _line(7, rep.status == "pass",
          f"bridge/skeleton factorization equals the swept polynomial on "
          f"{rep.details['checked']} bridged classes (n <= 8)")


def test_criterion_08_kind2_audit():
    rep = check_lemma15(7, 8)
    flagged = rep.details["printed_disagreements"]
    ok = (
        rep.status == "discrepancy"
        and rep.details["oracle"]
        == {"t_skeleton": 8, "t2_skeleton": 8, "t_h_skeleton": 12, "t2_h_skeleton": 12}
        and flagged["t_skeleton"]["printed"] == 4
        and flagged["t_h_skeleton"]["printed"] == 8
        and rep.details["conclusion_strict"]
        and not rep.details["errors"]
    )
    _line(8, ok, f"oracle 8/8/12/12 vs printed 4/-/8/-; strict increase "
                 f"{rep.details['N_balloon']} -> {rep.details['N_perturbed']} holds")


def test_criterion_09_oracle_equivalence_suites():
    rng = random.Random(90210)
    checked = {"two_tree": 0, "trees": 0, "delcon": 0, "relabel": 0}
    for n in range(3, 7):
        for m in range(n - 1, comb(n, 2) + 1):
            for g in enumerate_graphs(n, m):
                cls = classify_subsets(g)
                assert spanning_tree_count(g) == cls.connected[n - 1], (n, m)
                checked["trees"] += 1
                bset = set(bridges(g))
                for e in range(g.m):
                    if e not in bset:
                        assert deletion_contraction_check(g, e), (n, m, e)
                        checked["delcon"] += 1
            for member in enumerate_two_terminal(n, m):
                sweep = split_coefficients(member).counts
                assert two_tree_count(member) == sweep[n - 2], (n, m)
                checked["two_tree"] += 1
                for _ in range(20):
                    perm = list(range(n))
                    rng.shuffle(perm)
                    other = relabel_two_terminal(member, perm)
                    assert split_coefficients(other).counts == sweep, (n, m)
                    checked["relabel"] += 1
    _line(9, True, f"oracle equivalences exact on every n <= 6 class: {checked}")


def test_criterion_11_targeted_near_zero_checks_beyond_enumeration():
    """For 8 <= n <= 9 (beyond full enumeration) the perturbation construction
    substitutes as property-based acceptance: sweep-confirmed strict
    near-zero advantage across the whole bridged range."""
    from splitrel.checks import check_prop2

    failures = []
    checked = 0
    for n in (8, 9):
        for m in range(n, comb(n - 3, 2) + 3 + 1):
            rep = check_prop2(n, m)
            checked += 1
            if rep.status != "pass":
                failures.append((n, m, rep.details))
    _line(11, not failures,
          f"perturbation beats the balloon near 0 on all {checked} classes "
          f"with 8 <= n <= 9; failures={failures}")


def test_criterion_10_monte_carlo_sanity():
    rng = random.Random(1234)
    trials = 100000
    hits = 0
    cases = []
    while len(cases) < 25:
        n = rng.randint(3, 6)
        m = rng.randint(n - 1, comb(n, 2))
        g = random_two_terminal(rng, n, m)
        p = rng.choice([Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4)])
        cases.append((g, p))
    for i, (g, p) in enumerate(cases):
        sig = SplitSignature.from_vector(g.graph.n, split_coefficients(g))
        exact = evaluate(sr_polynomial(sig), p)
        est, _ = monte_carlo_sr(g, p, trials, RandomSource(5000 + i))
        # the tolerance band uses the true standard error at the exact value
        se = sqrt(float(exact) * (1.0 - float(exact)) / trials)
        if abs(est - float(exact)) <= 4 * se:
            hits += 1
    _line(10, hits >= 24, f"{hits}/25 estimates within 4 standard errors "
                          f"(documented tolerance: at least 24)")
