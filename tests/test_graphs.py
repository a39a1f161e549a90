"""Structural primitives: validation, components, bridges, connectivity,
contraction/subdivision, skeletons, eccentric pairs, interchange formats."""

import random
import tracemalloc
from math import comb

import pytest
from hypothesis import given, strategies as st

from conftest import (
    components,
    connected_graphs,
    cycle_n,
    degree,
    distances_by_floyd,
    eccentric_pairs,
    is_split_subgraph,
    k_n,
    min_degree,
    min_separators_by_search,
    path_n,
    random_connected_graph,
    union_find_roots,
)
from splitrel.canon import canonical_form_graph, isomorphic
from splitrel.families import balloon, in_I, two_terminal_balloon
from splitrel.graphs import (
    CUT_GUARD_N,
    GuardError,
    SimpleGraph,
    TwoTerminalGraph,
    bridges,
    contract_edge,
    count_min_separators,
    dumps,
    edge_connectivity,
    farthest_vertices,
    is_connected,
    loads,
    skeleton,
    skeleton_two_terminal,
    subdivide_edge,
    validate,
)


def test_validate_smallest_valid_instance():
    g = TwoTerminalGraph(k_n(3), 0, 1)
    assert validate(g) == []


def test_validate_disconnected():
    g = TwoTerminalGraph(SimpleGraph(4, ((0, 1), (2, 3))), 0, 2)
    assert validate(g) == ["not connected"]


def test_validate_self_loop():
    g = SimpleGraph(3, ((0, 1), (2, 2)))
    assert any("self-loop" in d for d in validate(g))


def test_validate_duplicate_and_terminals():
    g = SimpleGraph(3, ((0, 1), (1, 0), (1, 2)))
    assert any("duplicate" in d for d in validate(g))
    bad = TwoTerminalGraph(k_n(3), 1, 1)
    assert any("distinct" in d for d in validate(bad))


def test_validate_too_few_edges_builds_no_vertex_state():
    # fewer than n - 1 edges are refused before any n-sized structure exists
    tracemalloc.start()
    try:
        diags = validate(loads('{"n": 1000000, "edges": [], "terminals": [0, 1]}'))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert diags == ["not connected"]
    assert peak < 1 << 20
    # n - 1 edges that still leave two components go through the reachability test
    assert validate(SimpleGraph(5, ((0, 1), (0, 2), (1, 2), (3, 4)))) == ["not connected"]


@st.composite
def graphs_with_subsets(draw):
    """A connected graph and a drawn subset of its edge indices to keep."""
    g = draw(connected_graphs(max_n=8, max_m=20))
    kept = draw(st.lists(st.integers(0, g.m - 1), unique=True)) if g.m else []
    return g, kept


def _oracle_components(n, pairs):
    roots = union_find_roots(n, pairs)
    groups = {}
    for v in range(n):
        groups.setdefault(roots[v], []).append(v)
    return [groups[r] for r in sorted(groups)]


@given(graphs_with_subsets())
def test_components_match_union_find(case):
    g, kept = case
    assert components(g, kept) == _oracle_components(g.n, [g.edges[i] for i in kept])


@given(graphs_with_subsets())
def test_is_connected_matches_union_find(case):
    g, kept = case
    sub = SimpleGraph(g.n, tuple(g.edges[i] for i in kept))
    assert is_connected(sub) == (len(set(union_find_roots(sub.n, sub.edges))) == 1)


@given(connected_graphs(max_n=8, max_m=20))
def test_bridges_match_union_find(g):
    split = [
        e for e in range(g.m)
        if len(set(union_find_roots(g.n, g.edges[:e] + g.edges[e + 1:]))) == 2
    ]
    assert bridges(g) == split


def _check_skeleton_by_union_find(g):
    # classes are the union-find components of the bridges, numbered by
    # least vertex, and the skeleton's edges are the other edges contracted
    bset = set(bridges(g))
    roots = union_find_roots(g.n, [g.edges[i] for i in bset])
    order = sorted(set(roots))
    skel, vmap = skeleton(g)
    assert vmap == tuple(order.index(r) for r in roots)
    contracted = SimpleGraph(
        len(order),
        tuple((vmap[u], vmap[v]) for i, (u, v) in enumerate(g.edges) if i not in bset),
    )
    assert skel == contracted and skel.m == g.m - len(bset)


@given(connected_graphs(max_n=8, max_m=20))
def test_skeleton_vertex_map_matches_union_find(g):
    _check_skeleton_by_union_find(g)


def test_skeleton_matches_union_find_exhaustively():
    # every connected graph with n <= 7 and every balloon with n <= 30
    from splitrel.enumeration import enumerate_graphs

    for n in range(2, 8):
        for m in range(n - 1, comb(n, 2) + 1):
            for g in enumerate_graphs(n, m):
                _check_skeleton_by_union_find(g)
    for n in range(3, 31):
        for m in range(n, comb(n, 2) + 1):
            if in_I(n, m):
                _check_skeleton_by_union_find(balloon(n, m))


def test_skeleton_runs_one_bridge_pass_and_no_reachability_search(monkeypatch):
    # the bridge forest's classes are read top down from the pass that
    # found the bridges, with no second search over the forest
    from splitrel import graphs

    passes = []
    real = graphs._bridge_tree

    def counted(adj):
        passes.append(len(adj))
        return real(adj)

    def refuse(*args):
        raise AssertionError("skeleton ran a reachability search")

    monkeypatch.setattr(graphs, "_bridge_tree", counted)
    monkeypatch.setattr(graphs, "_reach", refuse)
    star = SimpleGraph(6, tuple((0, v) for v in range(1, 6)))
    cases = [(k_n(8), 8, 28), (balloon(9, 15), 6, 12), (path_n(200), 1, 0), (star, 1, 0)]
    for g, n, m in cases:
        passes.clear()
        skel, vmap = skeleton(g)
        assert (skel.n, skel.m, passes) == (n, m, [g.n])
        assert len(vmap) == g.n


@given(connected_graphs(max_n=8, max_m=20))
def test_distance_layers_agree(g):
    dist = distances_by_floyd(g)
    dia = max(max(row) for row in dist)
    assert eccentric_pairs(g) == [
        (u, v) for u in range(g.n) for v in range(u + 1, g.n) if dist[u][v] == dia
    ]
    for v in range(g.n):
        assert farthest_vertices(g, v) == [u for u in range(g.n) if dist[v][u] == max(dist[v])]


def test_components_full_cycle():
    c4 = cycle_n(4)
    assert components(c4, range(4)) == [[0, 1, 2, 3]]


def test_components_opposite_edges():
    c4 = cycle_n(4)
    idx_01 = c4.edge_index(0, 1)
    idx_23 = c4.edge_index(2, 3)
    comps = components(c4, (idx_01, idx_23))
    assert sorted(map(len, comps)) == [2, 2]


def test_components_empty_subset():
    g = k_n(5)
    assert components(g, ()) == [[v] for v in range(5)]


def test_components_bad_index():
    with pytest.raises(IndexError):
        components(k_n(3), (5,))


def test_is_split_subgraph_k3_exhaustive():
    # brute-force oracle over all 8 subsets of the triangle
    g = TwoTerminalGraph(k_n(3), 0, 1)
    expected = []
    for mask in range(8):
        kept = [i for i in range(3) if mask >> i & 1]
        comps = components(g.graph, kept)
        by_vertex = {v: ci for ci, comp in enumerate(comps) for v in comp}
        expected.append(len(comps) == 2 and by_vertex[0] != by_vertex[1])
    actual = [
        is_split_subgraph(g, [i for i in range(3) if mask >> i & 1]) for mask in range(8)
    ]
    assert actual == expected
    # kept = the edge from s to the third vertex splits; kept = {st} does not
    sv = g.graph.edge_index(0, 2)
    st = g.graph.edge_index(0, 1)
    assert is_split_subgraph(g, (sv,))
    assert not is_split_subgraph(g, (st,))
    assert not is_split_subgraph(g, range(3))


def test_bridges_path_and_complete():
    assert bridges(path_n(5)) == [0, 1, 2, 3]
    assert bridges(k_n(4)) == []
    # a long path is one pass, not one search per edge
    assert bridges(path_n(2000)) == list(range(1999))


def test_bridges_run_no_reachability_search(monkeypatch):
    # one bottom-up pass over the breadth-first tree decides every tree
    # edge, with no per-edge search and no edit of the adjacency masks
    from splitrel import graphs

    def refuse(*args):
        raise AssertionError("bridges ran a per-edge search")

    monkeypatch.setattr(graphs, "_reach", refuse)
    assert bridges(k_n(8)) == []
    assert bridges(balloon(9, 15)) == [12, 13, 14]  # the pendant path 5-6-7-8
    with pytest.raises(ValueError, match="connected"):
        bridges(SimpleGraph(4, ((0, 1), (2, 3))))


def test_bridges_balloon_pendant_path():
    assert len(bridges(balloon(9, 15))) == 3


def test_bridges_match_component_counts():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(3, 7)
        m = rng.randint(n - 1, comb(n, 2))
        g = random_connected_graph(rng, n, m)
        bset = set(bridges(g))
        for e in range(g.m):
            kept = [i for i in range(g.m) if i != e]
            assert (e in bset) == (len(components(g, kept)) == 2)


def test_edge_connectivity_values():
    assert edge_connectivity(k_n(4)) == 3
    assert edge_connectivity(balloon(6, 12)) == 2
    assert edge_connectivity(path_n(3)) == 1
    with pytest.raises(ValueError):
        edge_connectivity(SimpleGraph(1, ()))


def test_edge_connectivity_at_most_min_degree():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(3, 7)
        m = rng.randint(n - 1, comb(n, 2))
        g = random_connected_graph(rng, n, m)
        assert edge_connectivity(g) <= min_degree(g)


def test_dense_range_connectivity_equals_min_degree():
    # exhaustive for n <= 7 via the class enumerator
    from splitrel.enumeration import enumerate_graphs
    from splitrel.families import in_I0

    for n in range(4, 8):
        for m in range(n, comb(n, 2) + 1):
            if not in_I0(n, m):
                continue
            for g in enumerate_graphs(n, m):
                assert edge_connectivity(g) == min_degree(g)


def test_cut_sweep_refuses_above_its_guard():
    # the 2^(n-1) sweep is refused before it starts, even on a path
    g = path_n(CUT_GUARD_N + 1)
    for route in (edge_connectivity, count_min_separators):
        with pytest.raises(GuardError, match=f"guarded to n <= {CUT_GUARD_N}, got n=21"):
            route(g)
    assert edge_connectivity(path_n(CUT_GUARD_N)) == 1


def test_count_min_separators():
    assert count_min_separators(k_n(4)) == 4
    assert count_min_separators(k_n(5)) == 5
    k5_minus = SimpleGraph(5, tuple(p for p in k_n(5).edges if p != (0, 1)))
    assert count_min_separators(k5_minus) == 2
    assert count_min_separators(balloon(6, 12)) == 1


def test_min_cuts_match_search():
    from splitrel.enumeration import enumerate_graphs

    for n in range(2, 7):
        for m in range(n - 1, comb(n, 2) + 1):
            for g in enumerate_graphs(n, m):
                got = (edge_connectivity(g), count_min_separators(g))
                assert got == min_separators_by_search(g), (n, m, g.edges)


def test_contract_edge():
    p3 = path_n(3)
    assert contract_edge(p3, 0)[0].edges == ((0, 1),)
    c3 = cycle_n(3)
    g, vmap = contract_edge(c3, 0)
    assert (g.n, g.edges) == (2, ((0, 1),))  # parallel pair merged
    assert vmap == (0, 0, 1)


def test_contract_pendant_bridge_of_balloon():
    g = balloon(9, 15)
    pendant = next(i for i in bridges(g) if 8 in g.edges[i])
    assert isomorphic(contract_edge(g, pendant)[0], balloon(8, 14))


def test_subdivide_edge():
    p2 = path_n(2)
    assert isomorphic(subdivide_edge(p2, 0), path_n(3))
    assert isomorphic(subdivide_edge(cycle_n(3), 0), cycle_n(4))
    k4e = SimpleGraph(4, ((0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
    h = subdivide_edge(k4e, k4e.edge_index(2, 3))
    assert (h.n, h.m) == (5, 6)
    assert degree(h, 4) == 2


def test_skeleton_tree_and_bridgeless():
    sk, vmap = skeleton(path_n(5))
    assert sk.n == 1 and sk.m == 0 and set(vmap) == {0}
    sk, vmap = skeleton(k_n(4))
    assert sk == k_n(4) and vmap == (0, 1, 2, 3)


def test_skeleton_of_balloon():
    g = balloon(9, 15)
    sk, _ = skeleton(g)
    assert (sk.n, sk.m) == (6, 12)
    assert isomorphic(sk, balloon(6, 12))
    assert bridges(sk) == []


def test_skeleton_counts_on_randoms():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(3, 7)
        m = rng.randint(n - 1, comb(n, 2))
        g = random_connected_graph(rng, n, m)
        b = len(bridges(g))
        sk, vmap = skeleton(g)
        assert sk.n == n - b and sk.m == m - b
        assert bridges(sk) == [] if sk.n > 1 else True
        assert len(vmap) == n and max(vmap) == sk.n - 1


def test_eccentric_pairs_small_cases():
    assert eccentric_pairs(k_n(5)) == [(u, v) for u in range(5) for v in range(u + 1, 5)]
    assert eccentric_pairs(path_n(6)) == [(0, 5)]
    g = balloon(9, 15)
    dist = distances_by_floyd(g)
    assert {dist[u][v] for u, v in eccentric_pairs(g)} == {5}
    with pytest.raises(ValueError):
        eccentric_pairs(SimpleGraph(4, ((0, 1), (2, 3))))


def test_farthest_vertices_small_cases():
    assert farthest_vertices(k_n(5), 2) == [0, 1, 3, 4]
    assert farthest_vertices(path_n(6), 2) == [5]
    assert farthest_vertices(balloon(9, 15), 8) == [2, 3, 4]  # distance 5
    assert farthest_vertices(SimpleGraph(1, ()), 0) == [0]
    with pytest.raises(ValueError):
        farthest_vertices(SimpleGraph(4, ((0, 1), (2, 3))), 0)


def test_degrees():
    assert min_degree(k_n(4)) == 3
    assert min_degree(balloon(6, 12)) == 2
    assert min_degree(path_n(5)) == 1


def test_skeleton_two_terminal():
    g = two_terminal_balloon(9, 15)
    sk = skeleton_two_terminal(g)
    assert sk.graph == skeleton(g.graph)[0]
    # the pendant-side projection has the skeleton's minimum degree (2)
    degs = sorted(degree(sk.graph, v) for v in sk.terminals)
    assert degs[0] == 2
    # bridgeless: identity
    tt = TwoTerminalGraph(k_n(4), 1, 3)
    assert skeleton_two_terminal(tt) == tt
    # star with two leaf terminals: skeleton is a single vertex
    star = SimpleGraph(4, ((0, 1), (0, 2), (0, 3)))
    with pytest.raises(ValueError):
        skeleton_two_terminal(TwoTerminalGraph(star, 1, 2))


def test_binomial_split_bound():
    # sum of within-side pair counts is maximized at the extreme split
    for n in range(4, 51):
        for a in range(2, n - 1):
            assert comb(a, 2) + comb(n - a, 2) <= comb(n - 2, 2) + 1


def test_contract_then_subdivide_pendant_preserves_shape():
    g = balloon(7, 8)
    pendant = bridges(g)[-1]
    contracted, _ = contract_edge(g, pendant)
    rebuilt = subdivide_edge(contracted, 0)
    assert (rebuilt.n, rebuilt.m) == (g.n, g.m)
    assert is_connected(rebuilt)


def test_json_and_text_round_trips():
    g = two_terminal_balloon(9, 15)
    assert loads(dumps(g, "json")) == g
    assert loads(dumps(g, "text")) == g
    plain = balloon(6, 12)
    assert loads(dumps(plain, "json")) == plain
    assert loads(dumps(plain, "text")) == plain


def test_text_format_shape():
    text = dumps(TwoTerminalGraph(k_n(3), 0, 2), "text")
    lines = text.strip().splitlines()
    assert lines[0] == "3 3"
    assert lines[-1] == "T 0 2"


def test_canonical_form_graph_sorted_edges():
    # storage normalization: pairs ordered, list sorted
    g = SimpleGraph(4, ((3, 2), (1, 0), (2, 0)))
    assert g.edges == ((0, 1), (0, 2), (2, 3))
    assert canonical_form_graph(g) == canonical_form_graph(SimpleGraph(4, ((0, 1), (0, 2), (2, 3))))
