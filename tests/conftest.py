import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import comb, factorial
from typing import Iterable, Optional, Sequence

from hypothesis import settings, strategies as st

from splitrel import canon
from splitrel.canon import graph_mask
from splitrel.counting import (
    CoefficientVector,
    SubsetClassification,
    _laplacian_minor,
    spanning_tree_count,
)
from splitrel.enumeration import ClassLedger, UniformVerdict, _level
from splitrel.families import (
    _apply_variant,
    _eligible_edges,
    in_I1,
    two_terminal_balloon,
)
from splitrel.graphs import (
    Edge,
    SimpleGraph,
    TwoTerminalGraph,
    _bfs_layers,
    _bits,
    _reach,
    adjacency_masks,
    bridges,
    is_connected,
    skeleton_two_terminal,
)
from splitrel.signature import dominates_on_unit_interval

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


def degree(g: SimpleGraph, v: int) -> int:
    return sum(v in e for e in g.edges)


def min_degree(g: SimpleGraph) -> int:
    return min((a.bit_count() for a in adjacency_masks(g.n, g.edges)), default=0)


def distances_by_floyd(g: SimpleGraph) -> list[list[float]]:
    """Reference all-pairs edge-count distances by Floyd-Warshall; inf
    between vertices in different components."""
    dist = [[0 if u == v else float("inf") for v in range(g.n)] for u in range(g.n)]
    for u, v in g.edges:
        dist[u][v] = dist[v][u] = 1
    for k in range(g.n):
        for u in range(g.n):
            for v in range(g.n):
                if dist[u][k] + dist[k][v] < dist[u][v]:
                    dist[u][v] = dist[u][k] + dist[k][v]
    return dist


def eccentric_pairs(g: SimpleGraph) -> list[tuple[int, int]]:
    """Reference diametral pairs: all vertex pairs (u < v) at distance exactly
    the diameter of g, in one BFS per vertex; raises ValueError on a
    disconnected g."""
    adj = adjacency_masks(g.n, g.edges)
    best, pairs = 0, []
    for u in range(g.n):
        layers = _bfs_layers(adj, 1 << u)
        if sum(layers) != (1 << g.n) - 1:
            raise ValueError("eccentric pairs require a connected graph")
        if len(layers) - 1 > best:
            best, pairs = len(layers) - 1, []
        if len(layers) - 1 == best:
            pairs += [(u, v) for v in _bits(layers[-1] >> (u + 1) << (u + 1))]
    return pairs


def refine_by_filter(signatures: Sequence[CoefficientVector]) -> list[list[int]]:
    """Reference refinement chain: level i keeps the survivors of level
    i - 1 that maximize F_i among them, until the survivors are
    split-equivalent."""
    current = list(range(len(signatures)))
    levels = [current]
    if len({signatures[j].counts for j in current}) > 1:
        for i in range(1, signatures[0].m + 1):
            best = max(signatures[j].f_value(i) for j in current)
            current = [j for j in current if signatures[j].f_value(i) == best]
            levels.append(current)
            if len({signatures[j].counts for j in current}) == 1:
                break
        else:
            raise AssertionError("refinement did not converge by level m")
    return levels


def uniform_verdict_by_ledger(ledger: ClassLedger) -> UniformVerdict:
    """Reference uniform verdict from a full ledger: any winner is locally
    most, so the candidate is the first locally-most member; it is tested
    against every distinct rival signature, lexicographically largest
    N-vector first.  The named members are the ledger's."""
    candidate_idx = ledger.locally_most[0]
    cand_sig = ledger.signatures[candidate_idx]
    rivals = sorted(
        ledger.equivalence_classes,
        key=lambda cls: ledger.signatures[cls[0]].counts,
        reverse=True,
    )
    for cls in rivals:
        sig = ledger.signatures[cls[0]]
        if sig.counts == cand_sig.counts:
            continue
        res = dominates_on_unit_interval(cand_sig.counts, sig.counts)
        if not res.dominates:
            named = {i: ledger.members[i] for i in (cls[0], candidate_idx)}
            return UniformVerdict(
                winner=None, candidate=candidate_idx, rival=cls[0], witness=res.witness,
                members=named,
            )
    named = {candidate_idx: ledger.members[candidate_idx]}
    return UniformVerdict(winner=candidate_idx, candidate=candidate_idx, members=named)


def near_zero_refuter(ledger: ClassLedger) -> tuple[int, Optional[int]]:
    """The N-lexicographically largest member and the first index where its
    N-vector differs from the locally-most candidate's (None if equal)."""
    sigs = ledger.signatures
    best = max(range(len(sigs)), key=lambda i: sigs[i].counts)
    cand = sigs[ledger.locally_most[0]].counts
    diff = (i for i, (a, b) in enumerate(zip(sigs[best].counts, cand)) if a != b)
    return best, next(diff, None)


def components(g: SimpleGraph, kept: Iterable[int]) -> list[list[int]]:
    """Reference components of the spanning subgraph keeping only `kept`
    edges, one reachability search each: isolated vertices are singletons,
    and components are sorted by their smallest vertex."""
    pairs = []
    for i in kept:
        if not 0 <= i < g.m:
            raise IndexError(f"edge index {i} out of range for m={g.m}")
        pairs.append(g.edges[i])
    adj = adjacency_masks(g.n, pairs)
    out = []
    rest = (1 << g.n) - 1
    while rest:
        comp = _reach(adj, rest & -rest)
        out.append(_bits(comp))
        rest ^= comp
    return out


def is_split_subgraph(g: TwoTerminalGraph, kept: Sequence[int]) -> bool:
    """True iff keeping the edges with indices `kept` leaves exactly 2
    components, one per terminal."""
    comps = components(g.graph, kept)
    if len(comps) != 2:
        return False
    first = set(comps[0])
    return (g.s in first) != (g.t in first)


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


def relabel(g: SimpleGraph, perm: Sequence[int]) -> SimpleGraph:
    """Apply the vertex relabeling v -> perm[v]."""
    return SimpleGraph(g.n, tuple((perm[u], perm[v]) for u, v in g.edges))


def relabel_two_terminal(g: TwoTerminalGraph, perm: Sequence[int]) -> TwoTerminalGraph:
    return TwoTerminalGraph(relabel(g.graph, perm), perm[g.s], perm[g.t])


def variant_all_choices(kind: int, n: int, m: int) -> list[TwoTerminalGraph]:
    """Every (bridge, eligible edge) construction of `families.variant`; used
    to verify that the result does not depend on the choices."""
    if not in_I1(n, m):
        raise ValueError(f"({n},{m}) has no bridges; perturbation undefined")
    g = two_terminal_balloon(n, m)
    eligible = _eligible_edges(kind, skeleton_two_terminal(g))
    if not eligible:
        raise ValueError(f"no eligible edge for kind {kind} at ({n},{m})")
    return [_apply_variant(g, b, e) for b in bridges(g.graph) for e in eligible]


def union_find_roots(n: int, pairs: Sequence[Edge]) -> list[int]:
    """Reference components: root label per vertex after merging all pairs
    (path-halving union-find; the root is the component's smallest vertex)."""
    parent = list(range(n))
    for u, v in pairs:
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
    roots = [0] * n
    for x in range(n):
        r = x
        while parent[r] != r:
            r = parent[r]
        roots[x] = r
    return roots


def sample_block_by_union_find(
    n: int,
    edges: Sequence[Edge],
    s: int,
    t: int,
    num: int,
    den: int,
    block_seed: int,
    trials: int,
) -> int:
    """Reference Monte Carlo block, one lane at a time: lane i reads bit i of
    successive getrandbits(trials) planes as the binary digits of a uniform
    U, most significant first, and compares them digit by digit with those
    of p = num/den from long division; the edge survives in the lane iff
    U < p (always for p = 1), and a lane that equals p where the expansion
    ends fails.  A plane is drawn the first time some lane needs its digit.
    Then a union-find per trial over its surviving edges.  Counts the trials
    that leave exactly two components with s and t apart."""
    getrandbits = random.Random(block_seed).getrandbits
    survives = []
    for _ in edges:
        planes = []  # lane i is character i of each plane's binary digits, lowest first
        alive = []
        for lane in range(trials):
            below = num == den
            rest, j = (0 if below else num), 0
            while rest:
                if j == len(planes):
                    planes.append(format(getrandbits(trials), f"0{trials}b")[::-1])
                digit, rest = divmod(2 * rest, den)
                bit = int(planes[j][lane])
                j += 1
                if bit != digit:
                    below = bit < digit
                    break
            alive.append(below)
        survives.append(alive)
    hits = 0
    for trial in range(trials):
        parent = list(range(n))
        merges = 0
        for (u, v), alive in zip(edges, survives):
            if not alive[trial]:
                continue
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
        if n - merges != 2:
            continue
        rs = s
        while parent[rs] != rs:
            rs = parent[rs]
        rt = t
        while parent[rt] != rt:
            rt = parent[rt]
        if rs != rt:
            hits += 1
    return hits


def deletion_contraction_check(g: SimpleGraph, e: int) -> bool:
    """Check t(G) = t(G-e) + t(G*e) with spanning trees counted exactly.

    The contraction here keeps parallel edges (multigraph count, multiplicities
    in the Laplacian); the simple-quotient contraction would not satisfy the
    identity.  Precondition: g connected, e not a bridge.
    """
    if not 0 <= e < g.m:
        raise IndexError(f"edge index {e} out of range")
    a, b = g.edges[e]
    deleted = SimpleGraph(g.n, tuple(p for i, p in enumerate(g.edges) if i != e))
    # contract: b folds into a, vertices above b shift down, parallel edges kept
    merged = []
    for i, (u, v) in enumerate(g.edges):
        if i == e:
            continue
        x = a if u == b else u
        y = a if v == b else v
        x = x - 1 if x > b else x
        y = y - 1 if y > b else y
        if x != y:
            merged.append((x, y))
    t_contracted = _laplacian_minor(g.n - 1, merged, (0,))
    return spanning_tree_count(g) == spanning_tree_count(deleted) + t_contracted


def labeled_connected_count(n: int, m: int) -> int:
    """Number of labeled connected graphs: the sum of n!/|Aut| over the class
    representatives (orbit-stabilizer)."""
    return sum(factorial(n) // aut for _, aut, _ in _level(n, m))


def automorphism_count(n: int, m: int) -> list[int]:
    return [aut for _, aut, _ in _level(n, m)]


def balloon_by_recursion(n: int, m: int) -> SimpleGraph:
    """Reference balloon: the dense core when (n, m) is in the dense range,
    the triangle with a pendant at (4, 4), and otherwise balloon(n-1, m-1)
    with vertex n-1 hung on its lowest-indexed minimum-degree vertex."""
    if comb(n - 1, 2) + 2 <= m <= comb(n, 2):
        core = [(u, v) for u in range(n - 1) for v in range(u + 1, n - 1)]
        core += [(u, n - 1) for u in range(m - comb(n - 1, 2))]
        return SimpleGraph(n, tuple(core))
    if (n, m) == (4, 4):
        return SimpleGraph(4, ((0, 1), (0, 2), (1, 2), (0, 3)))
    prev = balloon_by_recursion(n - 1, m - 1)
    degs = [degree(prev, v) for v in range(prev.n)]
    return SimpleGraph(n, prev.edges + ((degs.index(min(degs)), n - 1),))


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
    """Reference classification: union-find over every one of the 2^m edge
    subsets, each side's counts packed m + 1 bits per size."""
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
    packed = {k: sum(c << (m + 1) * i for i, c in enumerate(v)) for k, v in sides.items()}
    return SubsetClassification(n, m, tuple(conn), packed)


def split_counts_by_side_scan(cls: SubsetClassification, s: int, t: int) -> tuple[int, ...]:
    """Reference split counts for the terminal pair {s, t}: the sum of the
    unpacked counts of every side that holds exactly one of s and t, scanned
    side by side."""
    total = [0] * (cls.m + 1)
    for side, counts in cls.split_sides.items():
        if (side >> s ^ side >> t) & 1:
            total = [a + b for a, b in zip(total, counts)]
    return tuple(total)


def _relabeled_masks(n: int, edges: Sequence[Edge], perms) -> list[int]:
    """Edge mask of the graph under each vertex relabeling in `perms`."""
    bits = canon._pair_bits(n)
    out = []
    for perm in perms:
        mask = 0
        for u, v in edges:
            mask |= bits[perm[u]][perm[v]]
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


def descent_by_every_child(n: int) -> tuple[dict[int, int], ...]:
    """Reference descent: every representative at level m loses, in turn,
    every edge whose deletion leaves it connected, and each child's key is
    looked up; per edge count m, {canonical mask: automorphism group size}."""
    top = comb(n, 2)
    levels: list[dict[int, int]] = [{} for _ in range(top + 1)]
    levels[top] = {(1 << top) - 1: factorial(n)}
    for m in range(top, 0, -1):
        for mask in levels[m]:
            for k in range(top):
                if mask >> k & 1 and is_connected(canon.mask_to_graph(n, mask ^ 1 << k)):
                    images = canon.orbit_images(n, mask ^ 1 << k)
                    levels[m - 1].setdefault(min(images), images[min(images)])
    return tuple(levels)


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
