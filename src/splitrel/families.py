"""Named graph families and their closed forms: balloon graphs, two-terminal
balloons, the three contraction/subdivision perturbations, threshold graphs
with the product formula for their spanning trees, and the extremal closed
forms (maximum bridge count, minimum edge connectivity, structured
failed-edge counts, and the bridge/skeleton factorization of the split
reliability polynomial).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, isqrt

from .counting import (
    connected_coefficients,
    split_coefficients,
)
from .graphs import (
    SimpleGraph,
    TwoTerminalGraph,
    bridges,
    contract_edge_with_map,
    distance,
    eccentric_pairs,
    skeleton,
    subdivide_edge,
)
from .signature import (
    ExactPolynomial,
    SplitSignature,
    sr_polynomial,
    survival_polynomial,
)


def in_I(n: int, m: int) -> bool:
    """Index pairs of the nonempty non-tree classes: n >= 4, n <= m <= C(n,2)."""
    return n >= 4 and n <= m <= comb(n, 2)


def in_I0(n: int, m: int) -> bool:
    """Dense part: C(n-1,2)+2 <= m <= C(n,2) (bridgeless balloons)."""
    return n >= 4 and comb(n - 1, 2) + 2 <= m <= comb(n, 2)


def in_I1(n: int, m: int) -> bool:
    return in_I(n, m) and not in_I0(n, m)


def in_dense_extended(n: int, m: int) -> bool:
    """Dense-range membership extended down to the triangle (n = 3, m = 3),
    which is exactly the skeleton shape of every m = n class."""
    return n >= 3 and comb(n - 1, 2) + 2 <= m <= comb(n, 2)


def _require_in_I(n: int, m: int) -> None:
    if not in_I(n, m):
        raise ValueError(f"(n, m)=({n},{m}) is outside the index set I")


def balloon(n: int, m: int) -> SimpleGraph:
    """The balloon graph: a near-complete core plus one low-degree vertex,
    extended one pendant vertex at a time below the dense range.

    Deterministic labeling: the dense case attaches vertex n-1 to the
    lowest-indexed core vertices; the recursive case hangs vertex n-1 on the
    lowest-indexed minimum-degree vertex.
    """
    _require_in_I(n, m)
    if in_I0(n, m):
        core = [(u, v) for u in range(n - 1) for v in range(u + 1, n - 1)]
        extra = m - comb(n - 1, 2)
        core += [(u, n - 1) for u in range(extra)]
        return SimpleGraph(n, tuple(core))
    if (n, m) == (4, 4):
        return SimpleGraph(4, ((0, 1), (0, 2), (1, 2), (0, 3)))
    prev = balloon(n - 1, m - 1)
    degs = [prev.degree(v) for v in range(prev.n)]
    anchor = degs.index(min(degs))
    return SimpleGraph(n, prev.edges + ((anchor, n - 1),))


def two_terminal_balloon(n: int, m: int) -> TwoTerminalGraph:
    """The balloon equipped with a diametral terminal pair.

    All diametral pairs give isomorphic two-terminal graphs, so the lowest
    pair is taken; no canonical search runs and serialization is fixed.
    """
    g = balloon(n, m)
    return TwoTerminalGraph(g, *eccentric_pairs(g)[0])


def max_bridges(n: int, m: int) -> int:
    """Maximum bridge count over connected graphs with n vertices and m edges.

    Computed as n - k* where k* is the least k >= 3 with C(k,2) >= m - n + k
    (the skeleton size of the balloon); asserted against the balloon itself.
    """
    _require_in_I(n, m)
    k = 3
    while comb(k, 2) < m - n + k:
        k += 1
    b = n - k
    assert b == len(bridges(balloon(n, m))), (n, m, b)
    return b


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
    assert m_skel == lam + comb(n_skel - 1, 2)
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

def _skeleton_context(g: TwoTerminalGraph):
    """Skeleton, vertex map, the low-degree projected terminal s' (terminal
    order is normalized, so pick by skeleton degree), and s' adjacency."""
    skel, vmap = skeleton(g.graph)
    a, b = vmap[g.s], vmap[g.t]
    degs = [0] * skel.n
    for u, v in skel.edges:
        degs[u] += 1
        degs[v] += 1
    s_cls, t_cls = sorted((a, b), key=lambda c: (degs[c], c))
    neigh = set()
    for u, v in skel.edges:
        if u == s_cls:
            neigh.add(v)
        elif v == s_cls:
            neigh.add(u)
    return skel, vmap, s_cls, t_cls, neigh


def _eligible_edges(kind: int, g: TwoTerminalGraph) -> list[int]:
    """Skeleton edges usable for the given perturbation kind.

    Edges incident to the far projected terminal t' are avoided whenever an
    alternative exists: subdividing at t' changes the two-terminal isomorphism
    type (and the signature), so only the t'-free choices are interchangeable.
    The fallback (needed e.g. when the only nonadjacent pair includes t') still
    satisfies the counting bound the perturbation exists for.
    """
    bridge_set = set(bridges(g.graph))
    skel, vmap, s_cls, t_cls, neigh = _skeleton_context(g)
    closed = neigh | {s_cls}
    out = []
    for i, (u, v) in enumerate(g.graph.edges):
        if i in bridge_set:
            continue
        cu, cv = vmap[u], vmap[v]
        if kind == 0:
            ok = s_cls in (cu, cv)
        elif kind == 1:
            ok = cu not in closed and cv not in closed
        elif kind == 2:
            ok = cu in neigh and cv in neigh
        else:
            raise ValueError("kind must be 0, 1 or 2")
        if ok:
            out.append(i)
    away = [
        i
        for i in out
        if t_cls not in (vmap[g.graph.edges[i][0]], vmap[g.graph.edges[i][1]])
    ]
    return away if away else out


def _farthest_bridge(g: SimpleGraph) -> int:
    """The bridge farthest from the bridgeless core (pendant-path tip)."""
    bridge_idx = bridges(g)
    non_bridge_ends = set()
    for i, (u, v) in enumerate(g.edges):
        if i not in bridge_idx:
            non_bridge_ends.update((u, v))
    if not non_bridge_ends:
        raise ValueError("graph has no bridgeless core")

    def core_dist(v: int) -> int:
        return min(distance(g, v, w) for w in non_bridge_ends)

    return max(bridge_idx, key=lambda i: (min(core_dist(g.edges[i][0]), core_dist(g.edges[i][1])), -i))


def _apply_variant(g: TwoTerminalGraph, bridge_idx: int, edge_idx: int) -> TwoTerminalGraph:
    u, v = g.graph.edges[edge_idx]
    contracted, vmap = contract_edge_with_map(g.graph, bridge_idx)
    target = contracted.edge_index(vmap[u], vmap[v])
    result = subdivide_edge(contracted, target)
    return TwoTerminalGraph(result, vmap[g.s], vmap[g.t])


@dataclass(frozen=True)
class VariantContext:
    """A perturbed graph together with the data its counting analysis needs."""

    kind: int
    balloon: TwoTerminalGraph
    result: TwoTerminalGraph
    bridge_index: int
    subdivided_edge: tuple[int, int]  # in the balloon's labeling
    skeleton_edge: tuple[int, int]  # same edge in skeleton labels


def variant_with_context(kind: int, n: int, m: int) -> VariantContext:
    if not in_I1(n, m):
        raise ValueError(f"({n},{m}) has no bridges; perturbation undefined")
    g = two_terminal_balloon(n, m)
    eligible = _eligible_edges(kind, g)
    if not eligible:
        raise ValueError(f"no eligible edge for kind {kind} at ({n},{m})")
    edge_idx = eligible[0]
    bridge_idx = _farthest_bridge(g.graph)
    u, v = g.graph.edges[edge_idx]
    _, vmap = skeleton(g.graph)
    x, y = vmap[u], vmap[v]
    return VariantContext(
        kind=kind,
        balloon=g,
        result=_apply_variant(g, bridge_idx, edge_idx),
        bridge_index=bridge_idx,
        subdivided_edge=(u, v),
        skeleton_edge=(min(x, y), max(x, y)),
    )


def variant(kind: int, n: int, m: int) -> TwoTerminalGraph:
    """Contract one bridge of the two-terminal balloon, then subdivide one
    skeleton edge chosen relative to the low-degree skeleton vertex s':

      kind 0: an edge at s';
      kind 1: an edge joining two vertices nonadjacent to s';
      kind 2: an edge whose endpoints are both adjacent to s'.

    The result has n vertices, m edges and one bridge fewer than the balloon;
    it is independent of the bridge/edge choice (verified in tests).  Default
    choices: the bridge farthest from the core, the lexicographically least
    eligible edge.
    """
    return variant_with_context(kind, n, m).result


def variant_all_choices(kind: int, n: int, m: int) -> list[TwoTerminalGraph]:
    """Every (bridge, eligible edge) construction; used to verify that the
    result does not depend on the choices."""
    if not in_I1(n, m):
        raise ValueError(f"({n},{m}) has no bridges; perturbation undefined")
    g = two_terminal_balloon(n, m)
    eligible = _eligible_edges(kind, g)
    if not eligible:
        raise ValueError(f"no eligible edge for kind {kind} at ({n},{m})")
    return [
        _apply_variant(g, b, e)
        for b in bridges(g.graph)
        for e in eligible
    ]


# ---------------------------------------------------------------------------
# closed forms for the balloon's failed-edge counts and its polynomial

def closed_form_F(n: int, m: int, i: int) -> int:
    """Predicted F_i of a locally most split reliable graph in a bridged class,
    valid for 1 <= i <= n'-2.

    Below lambda' only bridge failures matter; from lambda' to n'-2 the
    minimum separator at s' contributes, and at i = n'-2 the nonadjacent far
    terminal adds one more split subgraph.
    """
    if not in_I1(n, m):
        raise ValueError(f"({n},{m}) is not a bridged class")
    prof = balloon_profile(n, m)
    b, mp, lam, n_skel = prof.b, prof.m_skel, prof.lam_skel, prof.n_skel
    if not 1 <= i <= n_skel - 2:
        raise ValueError(f"index {i} outside the closed-form range 1..{n_skel - 2}")
    if i <= lam - 1:
        return b * comb(mp, i - 1)
    total = comb(mp - lam, i - lam) + b * sum(
        comb(lam, j) * comb(mp - lam, i - 1 - j) for j in range(lam)
    )
    if i == n_skel - 2:
        total += 1  # far terminal isolated: its incident edges are one more separator
    return total


def skeleton_two_terminal(n: int, m: int) -> TwoTerminalGraph:
    """The balloon's skeleton equipped with the projected terminals."""
    g = two_terminal_balloon(n, m)
    skel, vmap = skeleton(g.graph)
    s2, t2 = vmap[g.s], vmap[g.t]
    if s2 == t2:
        raise AssertionError("projected terminals coincide on a balloon")
    return TwoTerminalGraph(skel, s2, t2)


def sr_composition(n: int, m: int) -> ExactPolynomial:
    """Split reliability of the two-terminal balloon assembled from its
    skeleton: b*(1-p)*p^(b-1)*R'(p) + p^b*SR'(p), where R' and SR' are the
    skeleton's connectedness and split polynomials."""
    if not in_I1(n, m):
        raise ValueError(f"({n},{m}) is bridgeless; compute the polynomial directly")
    prof = balloon_profile(n, m)
    skel_tt = skeleton_two_terminal(n, m)
    rel = survival_polynomial(connected_coefficients(skel_tt.graph).counts, prof.m_skel)
    split_sig = SplitSignature.from_vector(
        skel_tt.graph.n, split_coefficients(skel_tt)
    )
    sr_skel = sr_polynomial(split_sig)
    b = prof.b
    one_minus_p = ExactPolynomial.make([1, -1])
    term1 = rel * one_minus_p.scale(b)
    term1 = term1.shift_up(b - 1)
    term2 = sr_skel.shift_up(b)
    return term1 + term2

