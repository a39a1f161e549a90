"""Canonical forms for small (two-terminal) graphs by exhaustive permutation
minimization, plus the bitmask/permutation tables the enumerator is built on.

A labeled graph on n vertices is encoded as a bitmask over the C(n,2)
lexicographic vertex pairs; the canonical form is the minimum encoding over
all relabelings (terminal pairs, when present, must land on positions {0,1}).
Exact and deterministic; guarded to n <= 9 where the factorial search is still
instant.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
import numpy as np

from .graphs import GuardError, SimpleGraph, TwoTerminalGraph

CANON_GUARD_N = 9

CanonicalForm = tuple[int, int, int]  # (n, m, minimal edge bitmask)


@lru_cache(maxsize=None)
def pair_list(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((u, v) for u in range(n) for v in range(u + 1, n))


@lru_cache(maxsize=None)
def pair_index_map(n: int) -> dict[tuple[int, int], int]:
    return {p: k for k, p in enumerate(pair_list(n))}


def graph_mask(g: SimpleGraph) -> int:
    idx = pair_index_map(g.n)
    mask = 0
    for e in g.edges:
        mask |= 1 << idx[e]
    return mask


def mask_to_graph(n: int, mask: int) -> SimpleGraph:
    pairs = pair_list(n)
    return SimpleGraph(n, tuple(pairs[k] for k in range(len(pairs)) if (mask >> k) & 1))


@lru_cache(maxsize=None)
def vertex_permutations(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(permutations(range(n)))


def _check_guard(n: int) -> None:
    if n > CANON_GUARD_N:
        raise GuardError(f"canonical labeling guarded to n <= {CANON_GUARD_N}, got n={n}")


def canonical_form_graph(g: SimpleGraph) -> CanonicalForm:
    """Isomorphism-invariant key of a plain graph: minimum mask over all relabelings."""
    _check_guard(g.n)
    idx = pair_index_map(g.n)
    best = None
    for perm in vertex_permutations(g.n):
        mask = 0
        for u, v in g.edges:
            x, y = perm[u], perm[v]
            mask |= 1 << idx[(x, y) if x < y else (y, x)]
        if best is None or mask < best:
            best = mask
    return (g.n, g.m, best if best is not None else 0)


def canonical_form(g: TwoTerminalGraph) -> CanonicalForm:
    """Key of a two-terminal graph: minimum mask over relabelings that map the
    terminal set onto {0, 1} (both orders tried).  Equal keys iff isomorphic
    with the terminal set respected."""
    graph = g.graph
    n = graph.n
    _check_guard(n)
    idx = pair_index_map(n)
    others = [v for v in range(n) if v not in (g.s, g.t)]
    best = None
    for a, b in ((g.s, g.t), (g.t, g.s)):
        for rest in permutations(range(2, n)):
            perm = [0] * n
            perm[a] = 0
            perm[b] = 1
            for v, img in zip(others, rest):
                perm[v] = img
            mask = 0
            for u, v in graph.edges:
                x, y = perm[u], perm[v]
                mask |= 1 << idx[(x, y) if x < y else (y, x)]
            if best is None or mask < best:
                best = mask
    return (n, graph.m, best if best is not None else 0)


def isomorphic(a: SimpleGraph, b: SimpleGraph) -> bool:
    return (a.n, a.m) == (b.n, b.m) and canonical_form_graph(a) == canonical_form_graph(b)


def isomorphic_two_terminal(a: TwoTerminalGraph, b: TwoTerminalGraph) -> bool:
    return canonical_form(a) == canonical_form(b)


# ---------------------------------------------------------------------------
# vectorized orbit machinery (used by the class enumerator, n <= 7)

@lru_cache(maxsize=None)
def _perm_weight_table(n: int) -> np.ndarray:
    """weights[p, k] = 1 << (image of pair k under permutation p)."""
    perms = np.array(vertex_permutations(n), dtype=np.int64)  # (n!, n)
    pairs = pair_list(n)
    cols = []
    for u, v in pairs:
        pu = perms[:, u]
        pv = perms[:, v]
        lo = np.minimum(pu, pv)
        hi = np.maximum(pu, pv)
        img = lo * n - lo * (lo + 1) // 2 + (hi - lo - 1)
        cols.append(np.int64(1) << img)
    return np.stack(cols, axis=1)  # (n!, C(n,2))


def orbit_images(n: int, mask: int) -> np.ndarray:
    """Edge-mask image of `mask` under every vertex permutation (with repeats)."""
    table = _perm_weight_table(n)
    cols = [k for k in range(table.shape[1]) if (mask >> k) & 1]
    if not cols:
        return np.zeros(table.shape[0], dtype=np.int64)
    return table[:, cols].sum(axis=1)


def stabilizer_perms(n: int, mask: int) -> list[tuple[int, ...]]:
    """Vertex permutations whose induced edge relabeling fixes `mask`."""
    images = orbit_images(n, mask)
    all_perms = vertex_permutations(n)
    return [all_perms[i] for i in np.nonzero(images == mask)[0]]
