"""Class enumeration, canonical forms, refinement chains, uniform verdicts and
ledger serialization."""

import hashlib
import json
import random
from itertools import permutations
from math import comb, factorial

import pytest
from hypothesis import given, strategies as st

from conftest import (
    _relabeled_masks,
    automorphism_count,
    canonical_form_by_search,
    connected_graphs,
    cycle_n,
    deletion_contraction_check,
    descent_by_every_child,
    graph_mask,
    k_n,
    labeled_connected_count,
    orbits_by_sweep,
    relabel,
    relabel_two_terminal,
)
from splitrel import canon
from splitrel.counting import split_coefficients
from splitrel.enumeration import (
    _descent,
    _pair_orbits,
    balloon_member_index,
    enumerate_graphs,
    enumerate_two_terminal,
    near_zero_refuter,
    refine_chain,
    refine_members,
    uniform_check,
    verify_balloon_characterization,
)
from splitrel.families import two_terminal_balloon, variant
from splitrel.graphs import (
    GuardError,
    SimpleGraph,
    TwoTerminalGraph,
    bridges,
)
from splitrel.signature import SplitSignature


def test_enumerate_graphs_counts():
    assert len(enumerate_graphs(4, 4)) == 2  # the square and the paw
    assert len(enumerate_graphs(4, 6)) == 1  # complete
    assert len(enumerate_graphs(5, 4)) == 3  # the trees on five vertices
    assert len(enumerate_graphs(4, 3)) == 2
    # connected graphs on five vertices by edge count
    assert [len(enumerate_graphs(5, m)) for m in range(4, 11)] == [3, 5, 5, 4, 2, 1, 1]


def test_enumerate_graphs_canonical_and_connected():
    from splitrel.graphs import is_connected

    for g in enumerate_graphs(5, 6):
        assert is_connected(g)
        assert graph_mask(g) == canon.canonical_form_graph(g)[2]


def test_enumeration_completeness_orbit_sizes():
    # the descent against the exhaustive labeled-mask sweep: each
    # representative mapped to its oracle key, one per oracle class
    for n in range(2, 7):
        oracle = orbits_by_sweep(n)
        for m in range(comb(n, 2) + 1):
            reps, auts, labeled = oracle[m]
            graphs = enumerate_graphs(n, m)
            got = {
                canonical_form_by_search(g)[2]: aut
                for g, aut in zip(graphs, automorphism_count(n, m), strict=True)
            }
            assert len(got) == len(graphs), (n, m)
            assert got == dict(zip(reps, auts)), (n, m)
            assert labeled_connected_count(n, m) == labeled, (n, m)


def test_descent_runs_on_edge_masks(monkeypatch):
    # the descent builds no SimpleGraph and runs no per-graph bridge pass;
    # its levels still match the exhaustive sweep
    from splitrel import graphs

    def refuse(*args):
        raise AssertionError("the descent must work on edge masks")

    monkeypatch.setattr(canon, "mask_to_graph", refuse)
    monkeypatch.setattr(graphs, "bridges", refuse)
    levels, _ = _descent.__wrapped__(6)
    monkeypatch.undo()
    oracle = orbits_by_sweep(6)
    for m, level in enumerate(levels):
        reps, auts, _ = oracle[m]
        got = {
            canonical_form_by_search(canon.mask_to_graph(6, mask))[2]: aut
            for mask, aut in level.items()
        }
        assert len(got) == len(level) and got == dict(zip(reps, auts)), m


def test_descent_n7_pinned():
    # representatives and |Aut| of every n = 7 level, as recorded from the
    # search on edge lists; the search on neighbour masks must not move them
    levels = [(m, sorted(level.items())) for m, level in enumerate(_descent(7)[0])]
    digest = hashlib.sha256(repr(levels).encode()).hexdigest()
    assert digest == "a00d1ea9d71c8e357273e830acba5e4da7a6e7717bfc4c35ad8e86680ee83133"


def test_descent_n8_pinned():
    # the n = 8 levels as the descent that searched every child passing the
    # end-degree test recorded them; pruning by Aut(P) edge orbits must not
    # move them
    levels = [(m, sorted(level.items())) for m, level in enumerate(_descent(8)[0])]
    digest = hashlib.sha256(repr(levels).encode()).hexdigest()
    assert digest == "0a025fcd86f3c86ce70c1e1d4f623838bd186b2e0768ee18d0377de47bc655da"


def test_descent_matches_every_child_oracle():
    # skipping the children whose deleted edge is not a best non-edge loses
    # no class and moves no key or |Aut|
    for n in range(2, 8):
        assert _descent.__wrapped__(n)[0] == descent_by_every_child(n), n


def test_descent_skips_children_before_search(monkeypatch):
    # the end-degree test and one child per Aut(P) edge orbit reject most
    # children before any search: 8933 searches at n = 7 without either,
    # 2036 with the end-degree test alone
    calls = []
    search = canon.canonical_group

    def counted(n, adj):
        calls.append(adj)
        return search(n, adj)

    monkeypatch.setattr(canon, "canonical_group", counted)
    _descent.__wrapped__(7)
    assert 0 < len(calls) <= 1200


def test_descent_generators_match_a_fresh_search():
    # the generators kept from the descent's search fix each n = 7 key and
    # give the same pair orbits as a search on the key itself
    levels, group = _descent(7)
    bits = canon._pair_bits(7)
    for level in levels:
        for mask in level:
            edges = [p for k, p in enumerate(canon.pair_list(7)) if mask >> k & 1]
            for perm in group[mask]:
                assert sum(bits[perm[u]][perm[v]] for u, v in edges) == mask, (mask, perm)
            fresh = canon.stabilizer_perms(7, mask)
            assert _pair_orbits(7, group[mask]) == _pair_orbits(7, fresh), mask


def test_ledger_runs_no_canonical_search(monkeypatch):
    # with the descent warm, pair orbits come from the kept generators and
    # the CSV reads each member's key from its own edges; finding the
    # balloon's member takes the balloon's one search
    _descent(7)
    calls = []
    search = canon._search

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(canon, "_search", counted)
    assert refine_chain(7, 9).members
    ledger = refine_chain(7, 14)
    assert ledger.to_csv()
    assert enumerate_two_terminal(7, 10)
    assert calls == []
    index = balloon_member_index(ledger)
    assert len(calls) == 1
    assert canonical_form_by_search(ledger.members[index]) == canonical_form_by_search(
        two_terminal_balloon(7, 14)
    )


def test_members_are_their_own_canonical_forms():
    # each two-terminal representative is the graph key with the least
    # terminal pair of its Aut orbit, so its key is read from its edges
    classes = [(n, m) for n in range(2, 7) for m in range(n - 1, comb(n, 2) + 1)]
    for n, m in classes + [(7, 9), (7, 14)]:
        for h in enumerate_two_terminal(n, m):
            assert canon.canonical_form(h) == (n, m, graph_mask(h.graph), h.s, h.t), (n, m, h)


@given(connected_graphs(max_n=8, max_m=20), st.data())
def test_orbit_images_least_leaf_is_invariant(g, data):
    # the least leaf and its weight do not depend on the labeling, and for
    # n <= 6 the weight is the number of relabelings that fix the edge mask
    perm = data.draw(st.permutations(range(g.n)))
    images = canon.orbit_images(g.n, graph_mask(g))
    moved = canon.orbit_images(g.n, graph_mask(relabel(g, perm)))
    key = min(images)
    assert min(moved) == key and moved[key] == images[key]
    if g.n <= 6:
        masks = _relabeled_masks(g.n, g.edges, permutations(range(g.n)))
        assert images[key] == masks.count(graph_mask(g))


def test_enumeration_totals_match_oeis():
    # connected graphs on n = 2..8 vertices: OEIS A001349 (classes) and
    # A001187 (labeled)
    classes = [1, 2, 6, 21, 112, 853, 11117]
    labeled = [1, 4, 38, 728, 26704, 1866256, 251548592]
    for n, want_classes, want_labeled in zip(range(2, 9), classes, labeled):
        ms = range(comb(n, 2) + 1)
        assert sum(len(automorphism_count(n, m)) for m in ms) == want_classes, n
        assert sum(labeled_connected_count(n, m) for m in ms) == want_labeled, n


def test_two_terminal_class_totals():
    # two-terminal classes of connected graphs on n = 2..7 vertices
    totals = [1, 3, 16, 98, 879, 11260]
    for n, want in zip(range(2, 8), totals):
        ms = range(n - 1, comb(n, 2) + 1)
        assert sum(len(enumerate_two_terminal(n, m)) for m in ms) == want, n


def test_pair_orbits_match_relabelings():
    # Aut(G) on vertex pairs from the search's generators, against the
    # orbits under every relabeling that fixes the edge mask
    for n in range(2, 7):
        perms = list(permutations(range(n)))
        for m in range(n - 1, comb(n, 2) + 1):
            for g in enumerate_graphs(n, m):
                mask = graph_mask(g)
                auts = [p for p in perms if graph_mask(relabel(g, p)) == mask]
                orbits = {
                    min(tuple(sorted((p[s], p[t]))) for p in auts)
                    for s, t in canon.pair_list(n)
                }
                got = _pair_orbits(n, _descent(n)[1][mask])
                assert got == sorted(orbits), (n, g.edges)


def test_mask_to_graph_equals_the_normalized_graph():
    # the pairs of a mask come sorted, so the graph equals the one that
    # SimpleGraph builds from the same edges in any order
    rng = random.Random(5)
    for n in range(1, 9):
        for mask in [0, (1 << comb(n, 2)) - 1] + [rng.getrandbits(comb(n, 2)) for _ in range(5)]:
            g = canon.mask_to_graph(n, mask)
            again = SimpleGraph(n, tuple((v, u) for u, v in reversed(g.edges)))
            assert g == again and hash(g) == hash(again) and graph_mask(g) == mask


def test_orbit_images_automorphism_counts():
    petersen = SimpleGraph(
        10,
        tuple((i, (i + 1) % 5) for i in range(5))
        + tuple((i, i + 5) for i in range(5))
        + tuple((5 + i, 5 + (i + 2) % 5) for i in range(5)),
    )
    cube = SimpleGraph(8, tuple((u, u | 1 << b) for u in range(8) for b in range(3) if not u >> b & 1))
    k33 = SimpleGraph(6, tuple((u, v) for u in range(3) for v in range(3, 6)))
    for g, want in [
        (k_n(12), factorial(12)),
        (k33, 72),
        (cycle_n(12), 24),
        (petersen, 120),
        (cube, 48),
    ]:
        images = canon.orbit_images(g.n, graph_mask(g))
        assert images[min(images)] == want, g
        assert min(images) == canon.canonical_form_graph(g)[2]


def test_canonical_guard():
    g = cycle_n(13)
    for call in (
        lambda: canon.canonical_form_graph(g),
        lambda: canon.canonical_form(TwoTerminalGraph(g, 0, 1)),
        lambda: canon.canonical_group(13, canon.mask_adjacency(13, graph_mask(g))),
        lambda: canon.orbit_images(13, graph_mask(g)),
        lambda: canon.stabilizer_perms(13, graph_mask(g)),
    ):
        with pytest.raises(GuardError):
            call()
    assert canon.isomorphic(cycle_n(12), relabel(cycle_n(12), list(range(11, -1, -1))))


def test_enumeration_guard():
    with pytest.raises(GuardError):
        enumerate_graphs(9, 9)
    for bad in (enumerate_graphs, refine_chain, uniform_check):
        with pytest.raises(ValueError, match="n >= 2"):
            bad(1, 0)


def test_canonical_form_relabeling_invariance():
    rng = random.Random(13)
    g = two_terminal_balloon(6, 8)
    key = canon.canonical_form(g)
    for _ in range(10):
        perm = list(range(6))
        rng.shuffle(perm)
        assert canon.canonical_form(relabel_two_terminal(g, perm)) == key


def test_canonical_form_distinguishes_terminal_placement():
    c4 = cycle_n(4)
    adjacent = canon.canonical_form(TwoTerminalGraph(c4, 0, 1))
    opposite = canon.canonical_form(TwoTerminalGraph(c4, 0, 2))
    assert adjacent != opposite


def test_canonical_form_merges_automorphic_pairs():
    paw = SimpleGraph(4, ((0, 1), (0, 2), (1, 2), (0, 3)))
    assert canon.canonical_form(TwoTerminalGraph(paw, 3, 1)) == canon.canonical_form(
        TwoTerminalGraph(paw, 3, 2)
    )


@given(connected_graphs(min_n=2, max_n=8), st.data())
def test_canonical_forms_match_search(g, data):
    # both keys are labeling-invariant, and each key's graph (for a
    # two-terminal key, with its terminal pair) is in the input's class
    s, t = data.draw(st.lists(st.integers(0, g.n - 1), min_size=2, max_size=2, unique=True))
    perm = data.draw(st.permutations(range(g.n)))
    h = TwoTerminalGraph(g, s, t)
    tt_key = canon.canonical_form(h)
    plain_key = canon.canonical_form_graph(g)
    assert canon.canonical_form(relabel_two_terminal(h, perm)) == tt_key
    assert canon.canonical_form_graph(relabel(g, perm)) == plain_key
    assert tt_key[:3] == plain_key and plain_key[:2] == (g.n, g.m)
    tt_graph = TwoTerminalGraph(canon.mask_to_graph(g.n, tt_key[2]), *tt_key[3:])
    assert canonical_form_by_search(tt_graph) == canonical_form_by_search(h)
    plain_graph = canon.mask_to_graph(g.n, plain_key[2])
    assert canonical_form_by_search(plain_graph) == canonical_form_by_search(g)


def test_enumerate_two_terminal_counts():
    assert len(enumerate_two_terminal(4, 4)) == 6  # 4 paw orbits + 2 square orbits
    assert len(enumerate_two_terminal(3, 3)) == 1
    assert len(enumerate_two_terminal(4, 6)) == 1


def test_enumerate_two_terminal_no_duplicate_classes():
    # against the factorial oracle: the library's two-terminal key takes its
    # pair orbits from the same search as the enumerator, so it could not
    # catch a fault there
    members = enumerate_two_terminal(5, 6)
    keys = {canonical_form_by_search(g) for g in members}
    assert len(keys) == len(members)


def test_refine_chain_smallest_class():
    ledger = refine_chain(4, 4)
    assert len(ledger.members) == 6
    assert len(ledger.locally_most) == 1
    best = ledger.signatures[ledger.locally_most[0]]
    assert best.f_tuple()[1:3] == (1, 5)
    assert ledger.early_stop_level == 2
    # chain is nested and the final level is a single equivalence class
    for a, b in zip(ledger.chain_levels, ledger.chain_levels[1:]):
        assert set(b) <= set(a)
    final = {ledger.signatures[i].counts for i in ledger.locally_most}
    assert len(final) == 1


def test_refine_chain_singleton_class():
    ledger = refine_chain(3, 3)
    assert ledger.locally_most == [0]
    assert ledger.early_stop_level == 0


def test_refine_members_on_hand_built_sample():
    # a handful of 9-vertex 15-edge graphs: the balloon keeps all three
    # bridges on the terminal path; rivals lose the first failed-edge count
    g = two_terminal_balloon(9, 15)
    rivals = [
        variant(0, 9, 15),  # one bridge fewer
        TwoTerminalGraph(g.graph, 0, 1),  # bridges exist but are not terminal cuts
    ]
    sigs = [
        SplitSignature.from_vector(9, split_coefficients(x)) for x in [g, *rivals]
    ]
    assert sigs[0].f_value(1) == 3
    assert all(s.f_value(1) < 3 for s in sigs[1:])
    levels, stop = refine_members(sigs)
    assert levels[1] == [0]


def test_verify_balloon_characterization_small():
    for n, m in [(4, 4), (4, 5), (5, 6), (6, 6), (7, 21)]:
        res = verify_balloon_characterization(n, m)
        assert res["ok"], (n, m, res)


def test_uniform_check_small_winners():
    assert uniform_check(4, 4).winner is not None
    assert uniform_check(4, 5).winner is not None
    assert uniform_check(5, 7).winner is not None


def test_uniform_check_six_six_none_with_witness():
    verdict = uniform_check(6, 6)
    assert verdict.winner is None
    ledger = refine_chain(6, 6)
    rival_idx, idx = near_zero_refuter(ledger)
    assert idx == 4  # n - 2
    assert ledger.signatures[rival_idx].counts > ledger.signatures[ledger.locally_most[0]].counts
    # the witness is a checkable rational point
    from splitrel.signature import evaluate, sr_polynomial

    cand = ledger.signatures[ledger.locally_most[0]]
    rv = ledger.signatures[verdict.rival]
    assert evaluate(sr_polynomial(rv), verdict.witness) > evaluate(
        sr_polynomial(cand), verdict.witness
    )


def test_tree_classes_have_path_winners():
    # settled separately in the write-up; the machinery reproduces it at desk scale
    for n in (4, 5, 6):
        verdict = uniform_check(n, n - 1)
        assert verdict.winner is not None
        ledger = refine_chain(n, n - 1)
        win = ledger.members[verdict.winner]
        degs = sorted(win.graph.degree(v) for v in range(n))
        assert degs == [1, 1] + [2] * (n - 2)  # a path
        assert win.graph.degree(win.s) == 1 and win.graph.degree(win.t) == 1


def test_balloon_always_among_locally_most():
    for n in range(4, 7):
        for m in range(n, comb(n, 2) + 1):
            ledger = refine_chain(n, m)
            assert balloon_member_index(ledger) in ledger.locally_most, (n, m)


def test_ledger_serialization_round_trip():
    doc = refine_chain(4, 4).to_json_dict()
    assert json.loads(json.dumps(doc)) == doc


def test_ledger_csv_summary():
    ledger = refine_chain(4, 4)
    rows = ledger.to_csv().strip().splitlines()
    assert rows[0].startswith("index,canonical_key")
    assert len(rows) == 1 + len(ledger.members)


def test_seven_vertex_oracle_equivalences():
    """The n = 7 sweep of the desk-scale invariants: the two-terminal
    Laplacian minor against the computed signatures for every representative,
    deletion/contraction on every non-bridge edge, and dense-range
    connectivity = minimum degree."""
    from splitrel.counting import two_tree_count
    from splitrel.families import in_I0
    from splitrel.graphs import edge_connectivity, min_degree

    for m in range(7, comb(7, 2) + 1):
        ledger = refine_chain(7, m)
        for member, sig in zip(ledger.members, ledger.signatures):
            assert two_tree_count(member) == sig.counts[5], (m, member)
        for g in enumerate_graphs(7, m):
            bset = set(bridges(g))
            for e in range(g.m):
                if e not in bset:
                    assert deletion_contraction_check(g, e), (m, e)
            if in_I0(7, m):
                assert edge_connectivity(g) == min_degree(g)
