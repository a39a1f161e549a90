"""Exact engine: subset classification against the 2^m sweep, coefficient
vectors, tree and two-tree counts (Laplacian minors) against the recurrence
and closed forms, deletion/contraction, Monte Carlo."""

import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, strategies as st

from conftest import (
    classify_by_sweep,
    components,
    connected_graphs,
    cycle_n,
    deletion_contraction_check,
    is_split_subgraph,
    k_n,
    path_n,
    random_connected_graph,
    random_two_terminal,
    relabel_two_terminal,
    sample_block_by_union_find,
    split_counts_by_side_scan,
)
from splitrel import counting
from splitrel.counting import (
    RandomSource,
    _sample_block,
    classify_subsets,
    connected_coefficients,
    monte_carlo_sr,
    spanning_tree_count,
    split_coefficients,
    two_tree_count,
    two_tree_counts,
)
from splitrel.enumeration import enumerate_graphs, enumerate_two_terminal
from splitrel.families import balloon, bogdanowicz_tree_count, ThresholdSpec, two_terminal_balloon
from splitrel.graphs import (
    GuardError,
    SimpleGraph,
    TwoTerminalGraph,
    bridges,
    subdivide_edge,
)
from splitrel.signature import evaluate, sr_polynomial


def test_split_coefficients_triangle():
    g = TwoTerminalGraph(k_n(3), 0, 1)
    assert split_coefficients(g).counts == (0, 2, 0, 0)


def test_split_coefficients_square_opposite():
    g = TwoTerminalGraph(cycle_n(4), 0, 2)
    assert split_coefficients(g).counts == (0, 0, 4, 0, 0)


def test_split_coefficients_paw():
    paw = SimpleGraph(4, ((0, 1), (0, 2), (1, 2), (0, 3)))
    g = TwoTerminalGraph(paw, 3, 1)
    assert split_coefficients(g).counts == (0, 0, 5, 1, 0)


def _assert_matches_sweep(g: SimpleGraph) -> None:
    got = classify_subsets(g)
    want = classify_by_sweep(g.n, g.edges)
    assert (got.n, got.m) == (want.n, want.m)
    assert got.connected == want.connected
    assert got.split_sides == want.split_sides


def test_classifier_routes_agree():
    rng = random.Random(23)
    for _ in range(15):
        n = rng.randint(3, 7)
        m = rng.randint(n - 1, min(comb(n, 2), 14))
        _assert_matches_sweep(random_connected_graph(rng, n, m))
    for g in (SimpleGraph(1), SimpleGraph(2), SimpleGraph(2, ((0, 1),))):
        _assert_matches_sweep(g)
    assert classify_subsets(SimpleGraph(1)).connected == (1,)
    assert classify_subsets(SimpleGraph(2, ((0, 1),))).split_sides == {1: (1, 0)}


@given(connected_graphs())
def test_classifier_matches_sweep_property(g):
    _assert_matches_sweep(g)


@st.composite
def two_terminal_graphs(draw):
    g = draw(connected_graphs(min_n=2))
    s, t = draw(st.lists(st.integers(0, g.n - 1), min_size=2, max_size=2, unique=True))
    return TwoTerminalGraph(g, s, t)


@given(two_terminal_graphs(), st.data())
def test_split_counts_relabeling_property(g, data):
    perm = data.draw(st.permutations(range(g.graph.n)))
    cls = classify_subsets(g.graph)
    h = relabel_two_terminal(g, perm)
    assert classify_subsets(h.graph).split_counts(h.s, h.t) == cls.split_counts(g.s, g.t)


@given(two_terminal_graphs())
def test_tree_counts_property(g):
    n = g.graph.n
    cls = classify_subsets(g.graph)
    assert cls.split_counts(g.s, g.t)[n - 2] == two_tree_count(g)
    assert cls.connected[n - 1] == spanning_tree_count(g.graph)


@given(connected_graphs(min_n=2, max_n=8, max_m=20))
def test_split_counts_match_side_scan(g):
    # every pair read from the superset sums equals the per-side scan
    cls = classify_subsets(g)
    for s, t in combinations(range(g.n), 2):
        assert cls.split_counts(s, t) == split_counts_by_side_scan(cls, s, t), (s, t)


def _minor_table(g: SimpleGraph) -> dict[tuple[int, int], int]:
    return {(s, t): two_tree_count(TwoTerminalGraph(g, s, t)) for s, t in combinations(range(g.n), 2)}


def test_two_tree_counts_match_minors_on_every_small_graph():
    for n in range(2, 8):
        for m in range(n - 1, comb(n, 2) + 1):
            for g in enumerate_graphs(n, m):
                assert two_tree_counts(g) == _minor_table(g), (n, m, g)


@given(connected_graphs(min_n=2, max_n=9, max_m=30))
def test_two_tree_counts_match_minors_property(g):
    assert two_tree_counts(g) == _minor_table(g)


def test_two_tree_counts_refuse_a_disconnected_graph():
    with pytest.raises(ValueError, match="connected"):
        two_tree_counts(SimpleGraph(3, ((0, 1),)))


def test_connected_coefficients():
    assert connected_coefficients(cycle_n(4)).counts == (0, 0, 0, 4, 1)
    tree = path_n(5)
    counts = connected_coefficients(tree).counts
    assert counts[4] == 1 and all(c == 0 for c in counts[:4])
    assert connected_coefficients(k_n(4)).counts[3] == 16


def test_sweep_guard():
    with pytest.raises(GuardError, match="n=17"):
        split_coefficients(TwoTerminalGraph(path_n(17), 0, 16))


def test_f1_counts_the_bridges_that_separate_the_terminals():
    # F_1 = N_{m-1}: deleting one edge leaves a split subgraph exactly when
    # the edge is a bridge whose deletion separates s from t
    def separating(g):
        m = g.graph.m
        return sum(is_split_subgraph(g, [j for j in range(m) if j != i]) for i in bridges(g.graph))

    members = [
        g
        for n in range(2, 7)
        for m in range(n - 1, comb(n, 2) + 1)
        for g in enumerate_two_terminal(n, m)
    ]
    assert len(members) == 997
    rng = random.Random(11)
    for n in range(7, 10):
        members += [random_two_terminal(rng, n, rng.randint(n - 1, 2 * n)) for _ in range(12)]
    for g in members:
        assert split_coefficients(g).f_value(1) == separating(g), g


def test_spanning_tree_cayley():
    for n in range(2, 9):
        assert spanning_tree_count(k_n(n)) == n ** (n - 2)


def test_spanning_tree_k4_minus_edge_with_exhaustive_oracle():
    k4e = SimpleGraph(4, ((0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
    # oracle: count 3-edge subsets that connect all 4 vertices
    count = sum(
        1
        for trip in combinations(range(5), 3)
        if len(components(k4e, trip)) == 1
    )
    assert count == 8
    assert spanning_tree_count(k4e) == 8


def test_spanning_tree_balloon_via_product_formula():
    assert spanning_tree_count(balloon(6, 12)) == 300
    assert bogdanowicz_tree_count(ThresholdSpec(6, (2,))) == 300


def test_spanning_tree_matches_connected_coefficients():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(2, 7)
        m = rng.randint(n - 1, comb(n, 2))
        g = random_connected_graph(rng, n, m)
        assert spanning_tree_count(g) == connected_coefficients(g).counts[n - 1]


def test_spanning_tree_count_disconnected():
    # vertex 1 is isolated: the first pivot of the minor is 0
    assert spanning_tree_count(SimpleGraph(3, ((0, 2),))) == 0
    assert spanning_tree_count(SimpleGraph(4, ((0, 1), (2, 3)))) == 0  # 2K2


def test_two_tree_count_component_without_terminal():
    # {3, 4} holds neither terminal, so no forest has exactly two trees
    g = TwoTerminalGraph(SimpleGraph(5, ((0, 1), (1, 2), (3, 4))), 0, 2)
    assert two_tree_count(g) == 0


def test_two_tree_count_examples():
    k4e = SimpleGraph(4, ((0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
    assert two_tree_count(TwoTerminalGraph(k4e, 0, 1)) == 8
    assert two_tree_count(TwoTerminalGraph(cycle_n(4), 0, 2)) == 4
    for n in range(2, 8):
        g = TwoTerminalGraph(path_n(n), 0, n - 1)
        assert two_tree_count(g) == n - 1


def test_two_tree_count_closed_forms():
    # beyond the subset oracles' reach: path ends, cycle chords, complete graphs
    assert two_tree_count(TwoTerminalGraph(path_n(40), 0, 39)) == 39
    for n in range(3, 31):
        for d in range(1, n // 2 + 1):
            assert two_tree_count(TwoTerminalGraph(cycle_n(n), 0, d)) == d * (n - d), (n, d)
    for n in range(3, 13):
        for s, t in combinations(range(n), 2):
            assert two_tree_count(TwoTerminalGraph(k_n(n), s, t)) == 2 * n ** (n - 3), (n, s, t)


def test_two_tree_count_matches_sweep():
    rng = random.Random(17)
    for _ in range(25):
        n = rng.randint(3, 7)
        m = rng.randint(n - 1, comb(n, 2))
        g = random_two_terminal(rng, n, m)
        assert two_tree_count(g) == split_coefficients(g).counts[n - 2]


def test_deletion_contraction_examples():
    c4 = cycle_n(4)
    assert deletion_contraction_check(c4, 0)
    for e in range(6):
        assert deletion_contraction_check(k_n(4), e)
    k4e = SimpleGraph(4, ((0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
    h = subdivide_edge(k4e, k4e.edge_index(2, 3))
    # removing / contracting a subdivided half gives the square and the diamond
    yw = h.edge_index(2, 4)
    assert spanning_tree_count(h) == 12
    assert deletion_contraction_check(h, yw)


def test_deletion_contraction_on_randoms():
    rng = random.Random(29)
    for _ in range(15):
        n = rng.randint(3, 6)
        m = rng.randint(n - 1, comb(n, 2))
        g = random_connected_graph(rng, n, m)
        bset = set(bridges(g))
        for e in range(g.m):
            if e not in bset:
                assert deletion_contraction_check(g, e)


def test_coefficients_relabeling_invariance():
    rng = random.Random(31)
    for _ in range(10):
        n = rng.randint(3, 6)
        m = rng.randint(n - 1, comb(n, 2))
        g = random_two_terminal(rng, n, m)
        base = split_coefficients(g).counts
        base_conn = connected_coefficients(g.graph).counts
        for _ in range(5):
            perm = list(range(n))
            rng.shuffle(perm)
            h = relabel_two_terminal(g, perm)
            assert split_coefficients(h).counts == base
            assert connected_coefficients(h.graph).counts == base_conn


def test_top_coefficient_counts_cut_edges():
    rng = random.Random(37)
    for _ in range(20):
        n = rng.randint(3, 6)
        m = rng.randint(n - 1, comb(n, 2))
        g = random_two_terminal(rng, n, m)
        counts = split_coefficients(g).counts
        cut_edges = 0
        for e in range(m):
            kept = [i for i in range(m) if i != e]
            comps = components(g.graph, kept)
            if len(comps) == 2:
                first = set(comps[0])
                if (g.s in first) != (g.t in first):
                    cut_edges += 1
        assert counts[m - 1] == cut_edges
        assert cut_edges <= len(bridges(g.graph))


def test_monte_carlo_degenerate_probabilities(monkeypatch):
    # p = 0 and p = 1 have denominator 1: no plane is drawn and every
    # trial has the same subgraph, so the estimate is the exact value
    generators = []
    plain = random.Random

    class Recording(plain):
        def __init__(self, seed):
            super().__init__(seed)
            generators.append((seed, self))

    monkeypatch.setattr(counting.random, "Random", Recording)
    for g in (TwoTerminalGraph(k_n(4), 0, 1), TwoTerminalGraph(path_n(2), 0, 1)):
        for p in (0, 1):
            exact = evaluate(split_coefficients(g).counts, p)
            assert monte_carlo_sr(g, p, 70000, RandomSource(1)) == (exact, 0.0)
    assert len(generators) == 8  # two blocks per call
    for seed, rng in generators:
        assert rng.getstate() == plain(seed).getstate()


def test_random_source_refuses_negative_seeds():
    # random.Random seeds from the absolute value, so -4 would replay 4
    with pytest.raises(ValueError, match="nonnegative"):
        RandomSource(-4)
    assert RandomSource(0).block_seed(3) == 3


def test_monte_carlo_deterministic():
    g = TwoTerminalGraph(k_n(3), 0, 1)
    a = monte_carlo_sr(g, "1/3", 70000, RandomSource(42))
    b = monte_carlo_sr(g, "1/3", 70000, RandomSource(42))
    assert a == b


def test_monte_carlo_stream_pinned():
    # 100000 trials span two blocks; any change to the block seeds, the plane
    # order or the comparison with p's digits moves this estimate
    g = two_terminal_balloon(8, 18)
    est, err = monte_carlo_sr(g, "1/2", 100000, RandomSource(7))
    assert (est, err) == (0.43651, 0.0015683399500746006)


# 1/4 and 3/8 have finite binary expansions (at most 2 and 3 planes per
# edge); 1/3 and 1000/2999 have infinite ones, and stop once no lane is tied
MC_PROBABILITIES = [
    Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(3, 4),
    Fraction(1, 4), Fraction(3, 8), Fraction(200, 251), Fraction(1000, 2999),
]


def test_monte_carlo_draws_one_plane_per_digit(monkeypatch):
    # 3/8 = 0.011 in binary: a 65536-lane block keeps a tied lane through
    # all three digits; 1000/2999 never ends, and stops when no lane is
    # tied, after about 17 digits
    calls = []

    class Counting(random.Random):
        def getrandbits(self, k):
            calls.append(k)
            return super().getrandbits(k)

    monkeypatch.setattr(counting.random, "Random", Counting)
    g = two_terminal_balloon(8, 18)
    monte_carlo_sr(g, Fraction(3, 8), 65536, RandomSource(5))
    assert calls == [65536] * 3 * 18
    calls.clear()
    monte_carlo_sr(g, Fraction(1000, 2999), 65536, RandomSource(5))
    assert 0 < len(calls) <= 32 * 18


@given(
    two_terminal_graphs(),
    st.sampled_from(MC_PROBABILITIES),
    st.integers(1, 3000),
    st.integers(0, 2**70),
)
def test_lane_sampler_matches_union_find(g, p, trials, seed):
    args = (g.graph.n, g.graph.edges, g.s, g.t, p.numerator, p.denominator, seed, trials)
    assert _sample_block(*args) == sample_block_by_union_find(*args)


def test_lane_sampler_matches_union_find_on_dense_graphs():
    # denser graphs than the property draws, at trial counts that are not
    # multiples of 32 or of a machine word
    rng = random.Random(10)
    for (n, m), trials in (((6, 9), 4099), ((7, 14), 1000)):
        g = random_two_terminal(rng, n, m)
        for p in MC_PROBABILITIES:
            seed = rng.getrandbits(70)
            args = (n, g.graph.edges, g.s, g.t, p.numerator, p.denominator, seed, trials)
            assert _sample_block(*args) == sample_block_by_union_find(*args), (n, m, p)


def test_monte_carlo_spans_blocks_like_union_find():
    # block 1 starts a fresh stream from its own seed
    g = TwoTerminalGraph(k_n(3), 0, 1)
    trials = 65536 + 37
    source = RandomSource(9)
    hits = sum(
        sample_block_by_union_find(3, g.graph.edges, 0, 1, 1, 3, source.block_seed(b), size)
        for b, size in ((0, 65536), (1, 37))
    )
    assert monte_carlo_sr(g, "1/3", trials, source)[0] == hits / trials


def test_lane_survival_counts_near_p(monkeypatch):
    # every edge's survivals over one full block, against a binomial count
    masks = []

    def recording(n, edges, s, t, alive, lanes):
        masks.extend(alive)
        return split_lanes(n, edges, s, t, alive, lanes)

    split_lanes = counting._split_lanes
    monkeypatch.setattr(counting, "_split_lanes", recording)
    g = two_terminal_balloon(8, 18)
    p = Fraction(1000, 2999)
    monte_carlo_sr(g, p, 65536, RandomSource(3))
    assert len(masks) == g.graph.m
    sigma = (65536 * p * (1 - p)) ** 0.5
    for alive in masks:
        assert abs(alive.bit_count() - 65536 * p) <= 5 * sigma


def test_monte_carlo_close_to_exact():
    g = TwoTerminalGraph(k_n(3), 0, 1)
    est, err = monte_carlo_sr(g, "1/2", 100000, RandomSource(2024))
    sig = split_coefficients(g)
    exact = evaluate(sr_polynomial(sig), "1/2")
    assert exact == 0.25
    assert abs(est - 0.25) <= 4 * err


def test_classify_rejects_oversized():
    with pytest.raises(GuardError, match="n=17"):
        classify_subsets(path_n(17))
