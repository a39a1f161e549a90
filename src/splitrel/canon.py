"""Canonical forms for small (two-terminal) graphs and the orbit tables the
enumerator is built on.

A labeled graph on n vertices is a bitmask over the C(n,2) lexicographic
vertex pairs; its canonical form is the minimum mask over all relabelings
(a terminal pair must land on {0, 1}).  Images are row sums of a
permutation-weight table: all n! rows for the enumerator (n <= 7), or the
(n-2)! rows fixing 0 and 1 for keys, after relabeling the terminals onto
{0, 1} in both orders.  A plain graph's key is the least such key over all
C(n,2) pairs.  Exact and deterministic; keys are guarded to n <= 9.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from typing import Sequence

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


def _weight_table(n: int, perms: Sequence[Sequence[int]]) -> np.ndarray:
    """weights[p, k] = 1 << (image of pair k under permutation perms[p])."""
    table = np.array(perms, dtype=np.int64)  # (len(perms), n)
    cols = []
    for u, v in pair_list(n):
        pu = table[:, u]
        pv = table[:, v]
        lo = np.minimum(pu, pv)
        hi = np.maximum(pu, pv)
        img = lo * n - lo * (lo + 1) // 2 + (hi - lo - 1)
        cols.append(np.int64(1) << img)
    return np.stack(cols, axis=1)  # (len(perms), C(n,2))


@lru_cache(maxsize=None)
def _full_table(n: int) -> np.ndarray:
    return _weight_table(n, vertex_permutations(n))


@lru_cache(maxsize=None)
def _pinned_table(n: int) -> np.ndarray:
    """The weight table of the (n-2)! permutations fixing 0 and 1."""
    return _weight_table(n, [(0, 1) + p for p in permutations(range(2, n))])


def _check_guard(n: int) -> None:
    if n > CANON_GUARD_N:
        raise GuardError(f"canonical labeling guarded to n <= {CANON_GUARD_N}, got n={n}")


def _pinned_min(g: SimpleGraph, s: int, t: int) -> int:
    """Minimum mask over the relabelings that send {s, t} onto {0, 1}."""
    table = _pinned_table(g.n)
    idx = pair_index_map(g.n)
    others = [v for v in range(g.n) if v not in (s, t)]
    lows = []
    for order in ((s, t), (t, s)):
        label = dict(zip((*order, *others), range(g.n)))
        cols = [idx[tuple(sorted((label[u], label[v])))] for u, v in g.edges]
        lows.append(int(table[:, cols].sum(axis=1).min()))
    return min(lows)


def canonical_form_graph(g: SimpleGraph) -> CanonicalForm:
    """Isomorphism-invariant key of a plain graph: minimum mask over all
    relabelings, each of which sends exactly one pair onto {0, 1}."""
    _check_guard(g.n)
    return (g.n, g.m, min((_pinned_min(g, a, b) for a, b in pair_list(g.n)), default=0))


def canonical_form(g: TwoTerminalGraph) -> CanonicalForm:
    """Key of a two-terminal graph: minimum mask over relabelings that map the
    terminal set onto {0, 1} (both orders tried).  Equal keys iff isomorphic
    with the terminal set respected."""
    _check_guard(g.graph.n)
    return (g.graph.n, g.graph.m, _pinned_min(g.graph, g.s, g.t))


def isomorphic(a: SimpleGraph, b: SimpleGraph) -> bool:
    return (a.n, a.m) == (b.n, b.m) and canonical_form_graph(a) == canonical_form_graph(b)


# ---------------------------------------------------------------------------
# orbit machinery over all n! permutations (used by the class enumerator, n <= 7)

def orbit_images(n: int, mask: int) -> np.ndarray:
    """Edge-mask image of `mask` under every vertex permutation (with repeats)."""
    table = _full_table(n)
    cols = [k for k in range(table.shape[1]) if (mask >> k) & 1]
    if not cols:
        return np.zeros(table.shape[0], dtype=np.int64)
    return table[:, cols].sum(axis=1)


def stabilizer_perms(n: int, mask: int) -> list[tuple[int, ...]]:
    """Vertex permutations whose induced edge relabeling fixes `mask`."""
    images = orbit_images(n, mask)
    all_perms = vertex_permutations(n)
    return [all_perms[i] for i in np.nonzero(images == mask)[0]]
