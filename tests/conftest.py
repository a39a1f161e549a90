import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import comb
from typing import Sequence

from hypothesis import settings, strategies as st

from splitrel import canon
from splitrel.counting import SubsetClassification
from splitrel.graphs import (
    Edge,
    SimpleGraph,
    TwoTerminalGraph,
    components,
    is_connected,
)

# Property tests replay the same examples on every run.
settings.register_profile(
    "deterministic", derandomize=True, max_examples=40, deadline=None, database=None
)
settings.load_profile("deterministic")


def random_connected_graph(rng: random.Random, n: int, m: int) -> SimpleGraph:
    pairs = list(combinations(range(n), 2))
    assert n - 1 <= m <= len(pairs)
    while True:
        g = SimpleGraph(n, tuple(rng.sample(pairs, m)))
        if is_connected(g):
            return g


def random_two_terminal(rng: random.Random, n: int, m: int) -> TwoTerminalGraph:
    g = random_connected_graph(rng, n, m)
    s, t = rng.sample(range(n), 2)
    return TwoTerminalGraph(g, s, t)


def k_n(n: int) -> SimpleGraph:
    return SimpleGraph(n, tuple((u, v) for u in range(n) for v in range(u + 1, n)))


def path_n(n: int) -> SimpleGraph:
    return SimpleGraph(n, tuple((i, i + 1) for i in range(n - 1)))


def cycle_n(n: int) -> SimpleGraph:
    return SimpleGraph(n, tuple((i, (i + 1) % n) for i in range(n)))


@st.composite
def connected_graphs(draw, min_n: int = 1, max_n: int = 7, max_m: int = 14) -> SimpleGraph:
    """A random spanning tree on n vertices plus up to max_m - (n - 1) extra edges."""
    n = draw(st.integers(min_n, max_n))
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    rest = [p for p in combinations(range(n), 2) if p not in tree]
    extra = []
    if rest:
        extra = draw(st.lists(st.sampled_from(rest), unique=True, max_size=max_m - len(tree)))
    return SimpleGraph(n, tuple(tree + extra))


def sr_value_by_power_basis(counts: Sequence[int], p) -> Fraction:
    """Reference evaluation: expand sum_i N_i p^i (1-p)^(m-i) into rational
    power-basis coefficients, then Horner at the rational point p."""
    m = len(counts) - 1
    coeffs = [Fraction(0)] * (m + 1)
    for i, c in enumerate(counts):
        for k in range(m - i + 1):
            coeffs[i + k] += c * comb(m - i, k) * (-1) ** k
    x = Fraction(p)
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def classify_by_sweep(n: int, edges: Sequence[Edge]) -> SubsetClassification:
    """Reference classification: union-find over every one of the 2^m edge subsets."""
    m = len(edges)
    conn = [0] * (m + 1)
    sides: dict[int, list[int]] = {}
    edge_list = list(edges)
    for mask in range(1 << m):
        parent = list(range(n))
        merges = 0
        mm = mask
        while mm:
            low = mm & -mm
            mm ^= low
            u, v = edge_list[low.bit_length() - 1]
            while parent[u] != u:
                parent[u] = parent[parent[u]]
                u = parent[u]
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            if u != v:
                if u < v:
                    parent[v] = u
                else:
                    parent[u] = v
                merges += 1
        ncomp = n - merges
        if ncomp > 2:
            continue
        pop = mask.bit_count()
        if ncomp == 1:
            conn[pop] += 1
        else:
            side = 0
            r0 = 0
            while parent[r0] != r0:
                r0 = parent[r0]
            for v in range(n):
                r = v
                while parent[r] != r:
                    r = parent[r]
                if r == r0:
                    side |= 1 << v
            bucket = sides.get(side)
            if bucket is None:
                bucket = [0] * (m + 1)
                sides[side] = bucket
            bucket[pop] += 1
    return SubsetClassification(
        n, m, tuple(conn), {k: tuple(v) for k, v in sides.items()}
    )


def _relabeled_masks(n: int, edges: Sequence[Edge], perms) -> list[int]:
    """Edge mask of the graph under each vertex relabeling in `perms`."""
    idx = canon.pair_index_map(n)
    out = []
    for perm in perms:
        mask = 0
        for u, v in edges:
            x, y = perm[u], perm[v]
            mask |= 1 << idx[(x, y) if x < y else (y, x)]
        out.append(mask)
    return out


def canonical_form_by_search(g: SimpleGraph | TwoTerminalGraph) -> canon.CanonicalForm:
    """Reference canonical form by factorial search: the minimum mask over all
    n! relabelings of a plain graph, or over the 2 (n-2)! relabelings that map
    the terminal pair onto {0, 1} (both orders) of a two-terminal graph."""
    if isinstance(g, TwoTerminalGraph):
        graph = g.graph
        n = graph.n
        others = [v for v in range(n) if v not in (g.s, g.t)]
        perms = []
        for a, b in ((g.s, g.t), (g.t, g.s)):
            for rest in permutations(range(2, n)):
                perm = [0] * n
                perm[a] = 0
                perm[b] = 1
                for v, img in zip(others, rest):
                    perm[v] = img
                perms.append(perm)
    else:
        graph = g
        perms = permutations(range(g.n))
    return (graph.n, graph.m, min(_relabeled_masks(graph.n, graph.edges, perms)))


def min_separators_by_search(g: SimpleGraph) -> tuple[int, int]:
    """Reference (lambda, minimum-separator count) of a connected graph: test
    every edge set of size 1, 2, ... until some size disconnects g."""
    all_idx = set(range(g.m))
    for lam in range(1, g.m + 1):
        count = 0
        for removed in combinations(range(g.m), lam):
            kept = all_idx.difference(removed)
            if len(components(g, tuple(kept))) > 1:
                count += 1
        if count:
            return lam, count
    raise ValueError("removing every edge leaves g connected")


@lru_cache(maxsize=None)
def orbits_by_sweep(n: int) -> dict[int, tuple[tuple[int, ...], tuple[int, ...], int]]:
    """Reference class enumeration: a connectivity test on every labeled edge
    mask over the C(n,2) vertex pairs, deduplicated by orbit images found by
    factorial search.  Per edge count m: (sorted canonical masks,
    automorphism group sizes, labeled count)."""
    pairs = canon.pair_list(n)
    perms = list(permutations(range(n)))
    full = (1 << n) - 1
    seen: set[int] = set()
    auts: list[dict[int, int]] = [{} for _ in range(len(pairs) + 1)]
    labeled = [0] * (len(pairs) + 1)
    for mask in range(1 << len(pairs)):
        adj = [0] * n
        for k, (u, v) in enumerate(pairs):
            if (mask >> k) & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        reached = frontier = 1
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new = adj[low.bit_length() - 1] & ~reached
            reached |= new
            frontier |= new
        if reached != full:
            continue
        m = mask.bit_count()
        labeled[m] += 1
        if mask in seen:
            continue
        edges = [p for k, p in enumerate(pairs) if (mask >> k) & 1]
        images = _relabeled_masks(n, edges, perms)
        seen.update(images)
        key = min(images)
        auts[m][key] = images.count(key)
    return {
        m: (tuple(sorted(a)), tuple(a[k] for k in sorted(a)), labeled[m])
        for m, a in enumerate(auts)
    }
