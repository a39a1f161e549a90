"""Canonical forms for small (two-terminal) graphs and the automorphism data
the class enumerator is built on.

A labeled graph on n vertices is a bitmask over the C(n,2) lexicographic
vertex pairs.  Every key comes from one individualization-refinement search
(McKay and Piperno, "Practical graph isomorphism, II", 2014, without pruning
by automorphisms) on neighbour bitmasks: refine an ordered vertex partition
until it is equitable, individualize each vertex of the first smallest
non-singleton cell in turn, and recurse.  A vertex's refinement key packs its
neighbour counts in every cell into one integer, 4 bits per cell.  A discrete
leaf relabels every vertex to its position; the key is the least leaf mask.
The search starts from one cell.  A cell of pairwise twins is entered at
its first vertex only, with the cell size as weight (swapping twins maps one
subtree onto the other), so the weights of the least leaves sum to |Aut|; the
twin swaps and the maps between least leaves generate Aut.  A two-terminal
graph's key is its graph key plus the least pair, in the key's labeling, of
its terminal pair's Aut orbit: the representative the class enumerator lists.
Exact and deterministic; guarded to n <= 12, so every count is < 16."""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .graphs import GuardError, SimpleGraph, TwoTerminalGraph, adjacency_masks

CANON_GUARD_N = 12

CanonicalForm = tuple[int, int, int]  # (n, m, least leaf mask of the search)
TwoTerminalForm = tuple[int, int, int, int, int]  # (n, m, graph key, s, t)


@lru_cache(maxsize=None)
def pair_list(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((u, v) for u in range(n) for v in range(u + 1, n))


@lru_cache(maxsize=None)
def _pair_bits(n: int) -> tuple[tuple[int, ...], ...]:
    """bits[a][b] = 1 << (index of the pair {a, b}), for either order."""
    bits = [[0] * n for _ in range(n)]
    for k, (u, v) in enumerate(pair_list(n)):
        bits[u][v] = bits[v][u] = 1 << k
    return tuple(map(tuple, bits))


def mask_to_graph(n: int, mask: int) -> SimpleGraph:
    """The graph with edge mask `mask`; its pairs come sorted, so unnormalized."""
    pairs = pair_list(n)
    g = object.__new__(SimpleGraph)
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "edges", tuple(pairs[k] for k in range(len(pairs)) if mask >> k & 1))
    return g


def graph_mask(g: SimpleGraph) -> int:
    """Edge mask of g over the C(n,2) lexicographic vertex pairs, the inverse
    of `mask_to_graph`."""
    bits = _pair_bits(g.n)
    return sum(bits[u][v] for u, v in g.edges)


def mask_adjacency(n: int, mask: int) -> list[int]:
    """Neighbour bitmask per vertex of the graph with edge mask `mask`."""
    pairs = pair_list(n)
    return adjacency_masks(n, [pairs[k] for k in range(len(pairs)) if mask >> k & 1])


def _refine(adj: Sequence[int], cells: list[int]) -> list[int]:
    """Split the cells (vertex masks) by their vertices' neighbour counts in
    every cell until none splits; the pieces take their cell's place, in
    order of their counts.  Singleton cells are skipped.  A vertex's counts
    are packed 4 bits per cell, in cell order: under the n <= 12 guard every
    count is below 16, so the packed keys sort as the count tuples would."""
    while True:
        out = []
        for cell in cells:
            if not cell & (cell - 1):
                out.append(cell)
                continue
            pieces: dict[int, int] = {}
            rest = cell
            while rest:
                low = rest & -rest
                rest ^= low
                row = adj[low.bit_length() - 1]
                key = 0
                for c in cells:
                    key = key << 4 | (row & c).bit_count()
                pieces[key] = pieces.get(key, 0) | low
            out += [pieces[k] for k in sorted(pieces)]
        if len(out) == len(cells):
            return out
        cells = out


def _search(n: int, adj: Sequence[int]) -> tuple[int, int, list[list[int]], list[tuple[int, int]]]:
    """The search on the neighbour masks `adj` from one cell: the least leaf
    mask, its summed weight (|Aut|), the vertex orders of the least leaves,
    and the twin pairs whose subtrees were taken as one."""
    if n > CANON_GUARD_N:
        raise GuardError(f"canonical labeling guarded to n <= {CANON_GUARD_N}, got n={n}")
    bits = _pair_bits(n)
    edges = [p for p in pair_list(n) if adj[p[0]] >> p[1] & 1]
    best = aut = 0
    least: list[list[int]] = []
    swaps: list[tuple[int, int]] = []
    stack = [([(1 << n) - 1] if n else [], 1)]
    while stack:
        cells, weight = stack.pop()
        cells = _refine(adj, cells)
        if len(cells) == n:
            order = [c.bit_length() - 1 for c in cells]
            pos = [0] * n  # the inverse of order
            for i, v in enumerate(order):
                pos[v] = i
            mask = 0
            for u, v in edges:
                mask |= bits[pos[u]][pos[v]]
            if not least or mask < best:
                best, aut, least = mask, weight, [order]
            elif mask == best:
                aut += weight
                least.append(order)
            continue
        size, i = min((c.bit_count(), i) for i, c in enumerate(cells) if c & (c - 1))
        cell = cells[i]
        members = [v for v in range(n) if cell >> v & 1]
        if len({adj[v] for v in members}) == 1 or len({adj[v] | 1 << v for v in members}) == 1:
            swaps += [(members[0], v) for v in members[1:]]
            members, weight = members[:1], weight * size
        for v in reversed(members):
            stack.append((cells[:i] + [1 << v, cell ^ 1 << v] + cells[i + 1:], weight))
    return best, aut, least, swaps


def canonical_group(
    n: int, adj: Sequence[int]
) -> tuple[int, int, list[tuple[int, ...]], list[int]]:
    """(canonical key, |Aut|, generators of Aut in the key's labeling, pos) of
    the graph with neighbour masks `adj`, where pos, the inverse of the first
    least order, relabels the graph onto its key.  The generators are each
    further least order and the first with a twin pair swapped, relabeled by
    pos."""
    key, aut, least, swaps = _search(n, adj)
    pos = [0] * n
    for i, v in enumerate(least[0]):
        pos[v] = i
    orders = least[1:] + [[b if w == a else a if w == b else w for w in least[0]] for a, b in swaps]
    return key, aut, [tuple(pos[w] for w in order) for order in orders], pos


def canonical_form_graph(g: SimpleGraph) -> CanonicalForm:
    """Isomorphism-invariant key of a plain graph: the least leaf mask."""
    return (g.n, g.m, _search(g.n, adjacency_masks(g.n, g.edges))[0])


def canonical_form(g: TwoTerminalGraph) -> TwoTerminalForm:
    """Key of a two-terminal graph: its graph key and, in the key's labeling,
    the least pair of the terminal pair's Aut orbit.  Equal keys iff
    isomorphic with the terminal set respected."""
    n = g.graph.n
    key, _, perms, pos = canonical_group(n, adjacency_masks(n, g.graph.edges))
    orbit = pair_orbit(n, perms, pos[g.s], pos[g.t])
    return (n, g.graph.m, key, *pair_list(n)[(orbit & -orbit).bit_length() - 1])


def isomorphic(a: SimpleGraph, b: SimpleGraph) -> bool:
    return (a.n, a.m) == (b.n, b.m) and canonical_form_graph(a) == canonical_form_graph(b)


# ---------------------------------------------------------------------------
# automorphism groups on vertex pairs, and the benchmark's traced entry points

def pair_orbit(n: int, perms: Sequence[Sequence[int]], u: int, v: int) -> int:
    """Pair mask of the orbit of {u, v} under the group `perms` generate."""
    bits = _pair_bits(n)
    orbit, todo = bits[u][v], [(u, v)]
    while todo:
        a, b = todo.pop()
        for perm in perms:
            x, y = perm[a], perm[b]
            if not orbit & bits[x][y]:
                orbit |= bits[x][y]
                todo.append((x, y))
    return orbit


def orbit_images(n: int, mask: int) -> dict[int, int]:
    """{canonical key: |Aut|} of the graph with edge mask `mask`; kept, with
    `stabilizer_perms`, as a boundary that perfbench's tracer wraps."""
    return dict([_search(n, mask_adjacency(n, mask))[:2]])


def stabilizer_perms(n: int, mask: int) -> list[tuple[int, ...]]:
    """Generators of the automorphism group of the graph with edge mask
    `mask` (perm[v] is the image of v) from a search of its own, the check on
    `canonical_group`'s: the twin swaps and the maps between least leaves."""
    _, _, least, swaps = _search(n, mask_adjacency(n, mask))
    gens = [tuple(b if v == a else a if v == b else v for v in range(n)) for a, b in swaps]
    return gens + [tuple(v for _, v in sorted(zip(least[0], order))) for order in least[1:]]
