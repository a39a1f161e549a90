"""Constructions and closed forms: balloons, thresholds, perturbations,
extremal values, failed-edge formulas, count-vector factorization."""

import hashlib
import json
from collections import Counter
from math import comb

import pytest

from conftest import (
    balloon_by_recursion,
    degree,
    distances_by_floyd,
    eccentric_pairs,
    k_n,
    min_degree,
    variant_all_choices,
)
from splitrel import canon, graphs
from splitrel.checks import _perturbation_chain
from splitrel.counting import spanning_tree_count, split_coefficients
from splitrel.families import (
    BalloonProfile,
    ThresholdSpec,
    balloon,
    balloon_profile,
    bogdanowicz_tree_count,
    closed_form_F_values,
    in_I,
    in_I0,
    in_I1,
    in_nonexistence_range,
    max_bridges,
    min_edge_connectivity,
    perturbation_kind,
    printed_max_bridges,
    sr_composition,
    threshold_graph,
    two_terminal_balloon,
    variant,
    variant_with_context,
)
from splitrel.graphs import (
    SimpleGraph,
    TwoTerminalGraph,
    bridges,
    edge_connectivity,
    is_connected,
    skeleton,
    skeleton_two_terminal,
    to_json_dict,
)
from splitrel.signature import evaluate, sr_polynomial


def test_index_sets():
    assert in_I(4, 4) and in_I(9, 15) and in_I(6, 15)
    assert not in_I(3, 3) and not in_I(5, 4) and not in_I(4, 7)
    assert in_I0(6, 12) and in_I0(4, 5) and not in_I0(4, 4)
    assert in_I1(4, 4) and in_I1(7, 16) and not in_I1(7, 17)


def test_balloon_dense_case():
    g = balloon(6, 12)
    assert (g.n, g.m) == (6, 12)
    assert min_degree(g) == 2
    assert degree(g, 5) == 2  # attached vertex keeps the minimum degree
    assert edge_connectivity(g) == 2
    assert balloon(4, 6) == k_n(4)


def test_balloon_base_case():
    g = balloon(4, 4)
    assert sorted(degree(g, v) for v in range(4)) == [1, 2, 2, 3]


def test_balloon_recursive_case():
    g = balloon(9, 15)
    assert (g.n, g.m) == (9, 15)
    assert len(bridges(g)) == 3
    assert max(map(max, distances_by_floyd(g))) == 5
    # the pendant path hangs off the dense part one vertex at a time
    assert degree(g, 8) == 1 and degree(g, 7) == 2 and degree(g, 6) == 2


def test_balloon_matches_recursive_construction():
    for n in range(4, 15):
        for m in range(n, comb(n, 2) + 1):
            assert balloon(n, m) == balloon_by_recursion(n, m), (n, m)


def test_two_terminal_balloon_diametral():
    # every diametral pair gives one two-terminal class, so the lowest is taken
    for n in range(4, 25):
        for m in range(n, comb(n, 2) + 1):
            g = balloon(n, m)
            pairs = eccentric_pairs(g)
            if n < 10:
                keys = {canon.canonical_form(TwoTerminalGraph(g, u, v)) for u, v in pairs}
                assert len(keys) == 1, (n, m)
            assert two_terminal_balloon(n, m) == TwoTerminalGraph(g, *pairs[0]), (n, m)
    g = two_terminal_balloon(9, 15)
    dist = distances_by_floyd(g.graph)
    assert dist[g.s][g.t] == max(map(max, dist)) == 5
    g44 = two_terminal_balloon(4, 4)
    assert distances_by_floyd(g44.graph)[g44.s][g44.t] == 2
    g612 = two_terminal_balloon(6, 12)
    assert distances_by_floyd(g612.graph)[g612.s][g612.t] == 2  # so not adjacent


def test_two_terminal_balloon_runs_one_search(monkeypatch):
    # the terminals come from one breadth-first search from the path tip
    calls = []
    original = graphs._bfs_layers

    def counting(adj, sources):
        calls.append(sources)
        return original(adj, sources)

    monkeypatch.setattr(graphs, "_bfs_layers", counting)
    g = two_terminal_balloon(1500, 1600)
    assert calls == [1 << 1499]
    assert g.t == 1499


def test_two_terminal_balloon_deterministic():
    assert two_terminal_balloon(9, 15) == two_terminal_balloon(9, 15)


def test_variant_shapes():
    for kind in (0, 1, 2):
        h = variant(kind, 9, 15)
        assert (h.graph.n, h.graph.m) == (9, 15)
        assert len(bridges(h.graph)) == max_bridges(9, 15) - 1
    h = variant(2, 7, 8)
    assert (h.graph.n, h.graph.m, len(bridges(h.graph))) == (7, 8, 2)


def test_variant_requires_bridges():
    with pytest.raises(ValueError):
        variant(0, 6, 12)


def test_variant_choice_independence():
    for kind, n, m in [(0, 9, 15), (1, 9, 15), (2, 9, 15), (0, 8, 10), (2, 7, 8), (1, 9, 12)]:
        keys = {canon.canonical_form(h) for h in variant_all_choices(kind, n, m)}
        assert len(keys) == 1, (kind, n, m)


def test_variant_runs_one_bridge_pass(monkeypatch):
    from splitrel import families, graphs

    calls = []
    real = graphs._bridge_tree

    def counted(adj):
        calls.append(len(adj))
        return real(adj)

    monkeypatch.setattr(graphs, "_bridge_tree", counted)
    for kind in (0, 1, 2):
        calls.clear()
        families.variant_with_context(kind, 9, 15)
        assert calls == [9], kind
    # the oracle runs two passes: its skeleton's and its own `bridges` list
    calls.clear()
    variant_all_choices(1, 9, 15)
    assert calls == [9, 9]


def _bridged_classes(max_n: int) -> list[tuple[int, int]]:
    return [(n, m) for n in range(4, max_n + 1) for m in range(n, comb(n, 2) + 1) if in_I1(n, m)]


def test_balloon_skeleton_keeps_core_labels():
    # the perturbation reads skeleton edges as balloon edges and contracts
    # the pendant path's last bridge, the one edge at vertex n - 1
    for n, m in _bridged_classes(12):
        g = balloon(n, m)
        skel, vmap = skeleton(g)
        assert vmap[: skel.n] == tuple(range(skel.n)), (n, m)
        assert [e for e in g.edges if e[1] < skel.n] == list(skel.edges), (n, m)
        assert sum(n - 1 in e for e in g.edges) == 1, (n, m)


def test_variant_with_context_pinned():
    # every kind on every bridged class with n <= 12, refusals included, as
    # recorded when the perturbation ran a skeleton pass of its own and
    # searched for the bridge farthest from the core
    out = []
    for n, m in _bridged_classes(12):
        for kind in (0, 1, 2):
            try:
                ctx = variant_with_context(kind, n, m)
            except ValueError as exc:
                out.append([kind, n, m, str(exc)])
                continue
            pieces = [to_json_dict(ctx.result), list(ctx.skeleton_edge), to_json_dict(ctx.skeleton)]
            out.append([kind, n, m, *pieces])
    assert len(out) == 495
    digest = hashlib.sha256(json.dumps(out).encode()).hexdigest()
    assert digest == "c913811558ba8460f8c767f95351315279ba741843a8b1025c3ec6c761632887"


def test_perturbation_raises_two_tree_count_up_to_n16():
    # the no-winner theorem on every class of its range with m > n: the kind
    # the skeleton picks passes the whole perturbation chain, so it beats the
    # balloon at N_{n-2}, the two-tree count
    kinds = Counter()
    for n in range(7, 17):
        assert perturbation_kind(n, n) is None  # the triangle skeleton
        for m in range(n + 1, comb(n, 2) + 1):
            if not in_nonexistence_range(n, m):
                continue
            kind = perturbation_kind(n, m)
            assert kind is not None, (n, m)
            kinds[kind] += 1
            assert _perturbation_chain(n, m, kind)["errors"] == [], (n, m, kind)
    assert kinds == {0: 220, 1: 45, 2: 10}


def test_threshold_graph_complete():
    assert threshold_graph(ThresholdSpec(5, ())) == k_n(5)


def test_threshold_graph_balloon_shape():
    assert canon.isomorphic(threshold_graph(ThresholdSpec(6, (2,))), balloon(6, 12))


def test_threshold_graph_two_spur_shape():
    # dense skeleton minus an edge between two core vertices that are not
    # adjacent to the attach vertex: the two-spur threshold shape
    skel = skeleton_two_terminal(two_terminal_balloon(9, 15)).graph  # the (6,12) balloon
    e = next(
        i
        for i, (u, v) in enumerate(skel.edges)
        if degree(skel, u) == 4 and degree(skel, v) == 4
    )
    reduced = SimpleGraph(skel.n, tuple(p for i, p in enumerate(skel.edges) if i != e))
    assert canon.isomorphic(reduced, threshold_graph(ThresholdSpec(6, (3, 2))))


def test_threshold_spec_validation():
    with pytest.raises(ValueError):
        ThresholdSpec(4, (1, 2))  # increasing
    with pytest.raises(ValueError):
        ThresholdSpec(4, (4,))  # exceeds clique size
    with pytest.raises(ValueError):
        ThresholdSpec(3, (1, 1, 1))  # k = n


def test_bogdanowicz_values():
    for n in range(2, 13):
        assert bogdanowicz_tree_count(ThresholdSpec(n, ())) == n ** (n - 2)
    assert bogdanowicz_tree_count(ThresholdSpec(6, (2,))) == 300
    assert bogdanowicz_tree_count(ThresholdSpec(4, (2,))) == 8
    assert bogdanowicz_tree_count(ThresholdSpec(4, (2,))) == spanning_tree_count(
        threshold_graph(ThresholdSpec(4, (2,)))
    )


def test_max_bridges_values():
    assert max_bridges(9, 18) == 3
    assert max_bridges(9, 15) == 3
    assert max_bridges(6, 12) == 0
    assert max_bridges(4, 4) == 1
    assert max_bridges(7, 21) == 0


def test_max_bridges_brute_force_small():
    from splitrel.enumeration import enumerate_graphs

    for n in range(4, 7):
        for m in range(n, comb(n, 2) + 1):
            brute = max(len(bridges(g)) for g in enumerate_graphs(n, m))
            assert brute == max_bridges(n, m), (n, m)


def test_printed_bridge_formula_disagrees():
    # the radical form is mistranscribed; the recursion is operative
    assert printed_max_bridges(9, 15) == 4 != max_bridges(9, 15)
    assert printed_max_bridges(6, 12) == 1 != max_bridges(6, 12)


def test_min_edge_connectivity_values():
    assert min_edge_connectivity(6, 12) == 2
    assert min_edge_connectivity(7, 7) == 1
    for n in range(4, 9):
        assert min_edge_connectivity(n, comb(n, 2)) == n - 1


def test_balloon_profile():
    assert balloon_profile(9, 15) == BalloonProfile(9, 15, 3, 6, 12, 2)
    assert balloon_profile(7, 8) == BalloonProfile(7, 8, 3, 4, 5, 2)
    assert balloon_profile(6, 12) == BalloonProfile(6, 12, 0, 6, 12, 2)
    for n in range(4, 9):
        for m in range(n, comb(n, 2) + 1):
            prof = balloon_profile(n, m)
            assert prof.m_skel == prof.lam_skel + comb(prof.n_skel - 1, 2)


def test_closed_form_F_values():
    assert closed_form_F_values(9, 15)[:3] == (3, 37, 205)
    with pytest.raises(ValueError):
        closed_form_F_values(6, 12)  # bridgeless class


def test_closed_form_F_matches_sweep_small():
    for n, m in [(4, 4), (5, 5), (5, 6), (5, 7), (6, 6), (6, 9), (7, 8)]:
        assert in_I1(n, m)
        sig = split_coefficients(two_terminal_balloon(n, m))
        prof = balloon_profile(n, m)
        for i in range(1, prof.n_skel - 1):
            assert closed_form_F_values(n, m)[i - 1] == sig.f_value(i), (n, m, i)


def test_sr_composition_matches_direct():
    bridged = [(n, m) for n in range(4, 10) for m in range(n, comb(n, 2) + 1) if in_I1(n, m)]
    assert len(bridged) == 56
    for n, m in bridged:
        g = two_terminal_balloon(n, m)
        direct = sr_polynomial(split_coefficients(g))
        composed = sr_composition(n, m)
        assert type(composed) is tuple and composed == direct, (n, m)
        assert evaluate(composed, 1) == 0
        assert evaluate(composed, 0) == 0


def test_sr_composition_rejects_dense_classes():
    with pytest.raises(ValueError):
        sr_composition(6, 12)


def test_balloon_bridge_counts_wide_range():
    for n in range(4, 13):
        for m in range(n, comb(n, 2) + 1):
            b = max_bridges(n, m)
            g = balloon(n, m)
            assert b == len(bridges(g)) >= 0, (n, m)
            assert is_connected(g) and (g.n, g.m) == (n, m)
