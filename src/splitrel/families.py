"""Named graph families and their closed forms: balloon graphs, two-terminal
balloons, the three contraction/subdivision perturbations, threshold graphs
with the product formula for their spanning trees, and the extremal closed
forms (maximum bridge count, minimum edge connectivity, structured
failed-edge counts, and the bridge/skeleton factorization of the split
count vector).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, isqrt

from .counting import classify_subsets
from .graphs import (
    SimpleGraph,
    TwoTerminalGraph,
    adjacency_masks,
    contract_edge,
    farthest_vertices,
    skeleton_two_terminal,
    subdivide_edge,
)


def in_I(n: int, m: int) -> bool:
    """Index pairs of the nonempty non-tree classes: n >= 4, n <= m <= C(n,2)."""
    return n >= 4 and n <= m <= comb(n, 2)


def in_I0(n: int, m: int) -> bool:
    """Dense part: C(n-1,2)+2 <= m <= C(n,2) (bridgeless balloons)."""
    return n >= 4 and in_dense_extended(n, m)


def in_I1(n: int, m: int) -> bool:
    return in_I(n, m) and not in_I0(n, m)


def in_dense_extended(n: int, m: int) -> bool:
    """Dense-range membership extended down to the triangle (n = 3, m = 3),
    which is exactly the skeleton shape of every m = n class."""
    return n >= 3 and comb(n - 1, 2) + 2 <= m <= comb(n, 2)


def in_nonexistence_range(n: int, m: int) -> bool:
    """The classes of the no-uniform-winner theorem: (n, m) in I with
    m <= C(n-3,2)+3."""
    return in_I(n, m) and m <= comb(n - 3, 2) + 3


def _require_in_I(n: int, m: int) -> None:
    if not in_I(n, m):
        raise ValueError(f"(n, m)=({n},{m}) is outside the index set I")


def _core_size(n: int, m: int) -> int:
    """k*, the least k >= 3 with C(k,2) >= m - n + k: the balloon's bridgeless
    core has k* vertices and m - n + k* edges."""
    k = 3
    while comb(k, 2) < m - n + k:
        k += 1
    return k


def balloon(n: int, m: int) -> SimpleGraph:
    """The balloon graph: a dense core on k = n - b vertices plus a pendant
    path of b bridges.

    Deterministic labeling: the core is K_{k-1} on 0..k-2 with vertex k-1
    attached to the lowest-indexed of them (the triangle when k = 3); the
    path k, k+1, ..., n-1 hangs from the core's lowest-indexed
    minimum-degree vertex.  This is the graph that adding one pendant vertex
    at a time at the lowest-indexed minimum-degree vertex builds.
    """
    _require_in_I(n, m)
    k = _core_size(n, m)
    edges = [(u, v) for u in range(k - 1) for v in range(u + 1, k - 1)]
    edges += [(u, k - 1) for u in range(m - n + k - comb(k - 1, 2))]
    degs = [a.bit_count() for a in adjacency_masks(k, edges)]
    path = [degs.index(min(degs)), *range(k, n)]
    edges += zip(path, path[1:])
    return SimpleGraph(n, tuple(edges))


def two_terminal_balloon(n: int, m: int) -> TwoTerminalGraph:
    """The balloon equipped with its lowest diametral terminal pair.

    All diametral pairs give isomorphic two-terminal graphs, so the lowest
    pair is taken; no canonical search runs and serialization is fixed.
    Below K_n every diametral pair contains vertex n - 1: with bridges, the
    core's diameter is at most 2 and the path tip n - 1 is at least as far
    (when b = 1 and the diameter is 2 the core is complete); without bridges,
    n - 1 is the only vertex with a non-neighbour.  So the lowest pair is the
    least vertex farthest from n - 1, with n - 1, from one search; K_n keeps
    (0, 1).
    """
    g = balloon(n, m)
    if m == comb(n, 2):
        return TwoTerminalGraph(g, 0, 1)
    return TwoTerminalGraph(g, farthest_vertices(g, n - 1)[0], n - 1)


def max_bridges(n: int, m: int) -> int:
    """Maximum bridge count over connected graphs with n vertices and m edges.

    Computed as n - k* where k* is the least k >= 3 with C(k,2) >= m - n + k
    (the skeleton size of the balloon); `checks.check_prop1` compares it with
    the balloon's own bridge count.
    """
    _require_in_I(n, m)
    return n - _core_size(n, m)


def printed_max_bridges(n: int, m: int) -> int:
    """The radical-form expression for the bridge maximum as printed in the
    literature: n - 1 - ceil(sqrt(2(m-n+3)) - 1/2).  Kept only so reports can
    surface where it disagrees with the recursion (it does, e.g. at (9,15))."""
    x = 2 * (m - n + 3)
    # least integer k with k >= sqrt(x) - 1/2, i.e. k^2 + k >= x
    k = max(isqrt(x) - 1, 0)
    while k * k + k < x:
        k += 1
    return n - 1 - k


def min_edge_connectivity(n: int, m: int) -> int:
    """Minimum edge connectivity over the class: m - C(n-1,2) on the dense
    range, 1 elsewhere."""
    _require_in_I(n, m)
    if in_I0(n, m):
        return m - comb(n - 1, 2)
    return 1


@dataclass(frozen=True)
class BalloonProfile:
    """Derived skeleton parameters of a class: bridge count b, skeleton size
    (n', m') and skeleton minimum degree lambda'.

    For every m = n class the skeleton is the triangle, so n' = 3 is allowed
    here even though the dense index set proper starts at n = 4.
    """

    n: int
    m: int
    b: int
    n_skel: int
    m_skel: int
    lam_skel: int


def balloon_profile(n: int, m: int) -> BalloonProfile:
    _require_in_I(n, m)
    b = max_bridges(n, m)
    n_skel = n - b
    m_skel = m - b
    lam = m_skel - comb(n_skel - 1, 2)
    if not in_dense_extended(n_skel, m_skel):
        raise AssertionError(f"skeleton ({n_skel},{m_skel}) outside the dense range")
    return BalloonProfile(n, m, b, n_skel, m_skel, lam)


# ---------------------------------------------------------------------------
# threshold graphs

@dataclass(frozen=True)
class ThresholdSpec:
    """A clique of size n-k plus k independent vertices with nested
    neighborhoods of sizes degrees[0] >= ... >= degrees[k-1]."""

    n: int
    degrees: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "degrees", tuple(int(d) for d in self.degrees))
        k = len(self.degrees)
        if k >= self.n:
            raise ValueError("need fewer independent vertices than vertices")
        if any(self.degrees[i] < self.degrees[i + 1] for i in range(k - 1)):
            raise ValueError("degrees must be nonincreasing")
        if k and (self.degrees[-1] < 1 or self.degrees[0] > self.n - k):
            raise ValueError("degrees must lie in 1..n-k")

    @property
    def k(self) -> int:
        return len(self.degrees)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "degrees": list(self.degrees)}


def threshold_graph(spec: ThresholdSpec) -> SimpleGraph:
    """Vertices 0..k-1 independent, k..n-1 a clique; vertex i < k is adjacent
    to the first degrees[i] clique vertices."""
    n, k = spec.n, spec.k
    edges = [(u, v) for u in range(k, n) for v in range(u + 1, n)]
    for i, d in enumerate(spec.degrees):
        edges += [(i, k + j) for j in range(d)]
    return SimpleGraph(n, tuple(edges))


def bogdanowicz_tree_count(spec: ThresholdSpec) -> int:
    """Spanning trees of a connected threshold graph by the product formula
    (n-k)^(-2) * prod_i d_i (n-k+i)^(d_i - d_{i+1}), with d_0 = n-k and
    d_{k+1} = 1.  The prefactor divides exactly."""
    n, k = spec.n, spec.k
    if n - k < 1 or (k and spec.degrees[-1] < 1):
        raise ValueError("spec does not describe a connected graph")
    d = [n - k, *spec.degrees, 1]
    prod = 1
    for i in range(k + 1):
        prod *= d[i] * (n - k + i) ** (d[i] - d[i + 1])
    q, r = divmod(prod, (n - k) ** 2)
    if r:
        raise AssertionError("prefactor did not divide the product")
    return q


# ---------------------------------------------------------------------------
# perturbed graphs (bridge contraction + skeleton-edge subdivision)

# per perturbation kind: the skeleton shapes (lambda', n') its lemma covers
KIND_NEEDS = (
    (lambda lam, ns: lam >= 3, "skeleton minimum degree >= 3"),
    (lambda lam, ns: ns >= 5 and lam <= ns - 3, "n' >= 5 and lambda' <= n'-3"),
    (lambda lam, ns: lam == 2 and ns == 4, "the 4-vertex diamond skeleton"),
)


def perturbation_kind(n: int, m: int) -> int | None:
    """The first kind whose lemma covers the class's skeleton; None for the
    triangle skeleton (m == n), which earlier work settles."""
    prof = balloon_profile(n, m)
    needs = (holds(prof.lam_skel, prof.n_skel) for holds, _ in KIND_NEEDS)
    return next((kind for kind, ok in enumerate(needs) if ok), None)


def _eligible_edges(kind: int, skel: TwoTerminalGraph) -> list[tuple[int, int]]:
    """Edges of the balloon's skeleton usable for the given perturbation kind,
    relative to the low-degree projected terminal s' (terminal order is
    normalized, so pick by skeleton degree).

    Edges incident to the far projected terminal t' are avoided whenever an
    alternative exists: subdividing at t' changes the two-terminal isomorphism
    type (and the signature), so only the t'-free choices are interchangeable.
    The fallback (needed e.g. when the only nonadjacent pair includes t') still
    satisfies the counting bound the perturbation exists for.
    """
    adj = adjacency_masks(skel.graph.n, skel.graph.edges)
    s, t = sorted(skel.terminals, key=lambda c: (adj[c].bit_count(), c))
    closed = adj[s] | 1 << s
    out = []
    for u, v in skel.graph.edges:
        ends = 1 << u | 1 << v
        if kind == 0:
            ok = ends >> s & 1
        elif kind == 1:
            ok = not ends & closed
        elif kind == 2:
            ok = ends & adj[s] == ends
        else:
            raise ValueError("kind must be 0, 1 or 2")
        if ok:
            out.append((u, v))
    away = [e for e in out if t not in e]
    return away if away else out


def _apply_variant(g: TwoTerminalGraph, bridge_idx: int, edge: tuple[int, int]) -> TwoTerminalGraph:
    """Contract the bridge `bridge_idx` of g, then subdivide `edge`."""
    contracted, vmap = contract_edge(g.graph, bridge_idx)
    result = subdivide_edge(contracted, contracted.edge_index(vmap[edge[0]], vmap[edge[1]]))
    return TwoTerminalGraph(result, vmap[g.s], vmap[g.t])


@dataclass(frozen=True)
class VariantContext:
    """A perturbed graph together with the data its counting analysis needs."""

    balloon: TwoTerminalGraph
    result: TwoTerminalGraph
    skeleton_edge: tuple[int, int]  # the subdivided edge in skeleton labels
    skeleton: TwoTerminalGraph  # the balloon's, with the projected terminals


def variant_with_context(kind: int, n: int, m: int) -> VariantContext:
    """The perturbation of `variant` with the balloon's skeleton and the
    subdivided edge.  The balloon's skeleton keeps the core's labels
    0..n'-1, so a skeleton edge is also a balloon edge, and the pendant
    path's last bridge is the one edge at vertex n - 1."""
    if not in_I1(n, m):
        raise ValueError(f"({n},{m}) has no bridges; perturbation undefined")
    g = two_terminal_balloon(n, m)
    skel = skeleton_two_terminal(g)
    eligible = _eligible_edges(kind, skel)
    if not eligible:
        raise ValueError(f"no eligible edge for kind {kind} at ({n},{m})")
    tip = next(i for i, (_, v) in enumerate(g.graph.edges) if v == n - 1)
    return VariantContext(
        balloon=g,
        result=_apply_variant(g, tip, eligible[0]),
        skeleton_edge=eligible[0],
        skeleton=skel,
    )


def variant(kind: int, n: int, m: int) -> TwoTerminalGraph:
    """Contract one bridge of the two-terminal balloon, then subdivide one
    skeleton edge chosen relative to the low-degree skeleton vertex s':

      kind 0: an edge at s';
      kind 1: an edge joining two vertices nonadjacent to s';
      kind 2: an edge whose endpoints are both adjacent to s'.

    The result has n vertices, m edges and one bridge fewer than the balloon;
    it is independent of the bridge/edge choice (verified in tests).  Default
    choices: the pendant path's last bridge, the lexicographically least
    eligible edge.
    """
    return variant_with_context(kind, n, m).result


# ---------------------------------------------------------------------------
# closed forms for the balloon's failed-edge counts and its polynomial

def closed_form_F_values(n: int, m: int) -> tuple[int, ...]:
    """Predicted F_1, ..., F_{n'-2} of a locally most split reliable graph in
    a bridged class.

    Below lambda' only bridge failures matter; from lambda' to n'-2 the
    minimum separator at s' contributes, and at i = n'-2 the nonadjacent far
    terminal adds one more split subgraph.
    """
    if not in_I1(n, m):
        raise ValueError(f"({n},{m}) is not a bridged class")
    prof = balloon_profile(n, m)
    b, mp, lam, n_skel = prof.b, prof.m_skel, prof.lam_skel, prof.n_skel
    values = []
    for i in range(1, n_skel - 1):
        if i <= lam - 1:
            values.append(b * comb(mp, i - 1))
            continue
        total = comb(mp - lam, i - lam) + b * sum(
            comb(lam, j) * comb(mp - lam, i - 1 - j) for j in range(lam)
        )
        if i == n_skel - 2:
            total += 1  # far terminal isolated: its incident edges are one more separator
        values.append(total)
    return tuple(values)


def sr_composition(n: int, m: int) -> tuple[int, ...]:
    """Split count vector of the two-terminal balloon assembled from its
    skeleton.  The balloon's b bridges all part its terminals, so SR(p) =
    b(1-p)p^(b-1) R'(p) + p^b SR'(p) with R' and SR' the skeleton's
    connectedness and split polynomials, and N_i = b*C_{i-b+1} + S'_{i-b}
    with C and S' the skeleton's connected and split counts."""
    if not in_I1(n, m):
        raise ValueError(f"({n},{m}) is bridgeless; compute the polynomial directly")
    skel = skeleton_two_terminal(two_terminal_balloon(n, m))
    cls = classify_subsets(skel.graph)
    b = n - skel.graph.n
    counts = [0] * (m + 1)
    for j, c in enumerate(cls.connected):
        counts[j + b - 1] += b * c
    for j, s in enumerate(cls.split_counts(skel.s, skel.t)):
        counts[j + b] += s
    return tuple(counts)
