"""Simple graphs with an optional terminal pair, and the structural primitives
everything else is built on: bridges, edge connectivity, contraction,
subdivision, skeletons, farthest vertices.

Vertices are 0..n-1.  Edges are unordered pairs stored as (u, v) with u < v,
sorted lexicographically; edge *indices* into that list are the stable handles
used by subset operations.  All values are immutable and all functions are
pure.

Connectivity, bridges, skeletons and farthest vertices all run on one
representation, a neighbour bitmask per vertex (`adjacency_masks`), and one
breadth-first closure over it.  One bottom-up pass over the breadth-first
tree (`_bridge_tree`) serves both bridges and skeletons.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence

Edge = tuple[int, int]


def _normalize_edges(edges: Iterable[Sequence[int]]) -> tuple[Edge, ...]:
    pairs = []
    for e in edges:
        u, v = int(e[0]), int(e[1])
        pairs.append((v, u) if v < u else (u, v))
    pairs.sort()
    return tuple(pairs)


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected graph on vertices 0..n-1.

    Construction normalizes edge storage but does not reject bad payloads;
    `validate` reports problems.  Valid graphs have no loops and no duplicate
    edges, and every operation below assumes a valid (and, where stated,
    connected) input.
    """

    n: int
    edges: tuple[Edge, ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", _normalize_edges(self.edges))

    @property
    def m(self) -> int:
        return len(self.edges)

    def edge_index(self, u: int, v: int) -> int:
        if u > v:
            u, v = v, u
        return self.edges.index((u, v))


@dataclass(frozen=True)
class TwoTerminalGraph:
    """A SimpleGraph plus an unordered pair of distinct terminal vertices."""

    graph: SimpleGraph
    s: int
    t: int

    def __post_init__(self) -> None:
        if self.t < self.s:
            s, t = self.t, self.s
            object.__setattr__(self, "s", s)
            object.__setattr__(self, "t", t)

    @property
    def terminals(self) -> tuple[int, int]:
        return (self.s, self.t)


class GuardError(RuntimeError):
    """Raised when an exhaustive search would exceed its configured size guard."""


def adjacency_masks(n: int, edges: Iterable[Edge]) -> list[int]:
    """Neighbour bitmask per vertex of the graph on 0..n-1 with these edges."""
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _bfs_layers(adj: Sequence[int], sources: int) -> list[int]:
    """Breadth-first layers from the vertex mask `sources`: layer d is the
    mask of the vertices at distance d.  The layers are disjoint and together
    hold every vertex reachable from a source.

    Each frontier is expanded one set bit at a time, so a level costs its own
    size rather than n.
    """
    layers = []
    reached = frontier = sources
    while frontier:
        layers.append(frontier)
        nxt = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            nxt |= adj[low.bit_length() - 1]
        frontier = nxt & ~reached
        reached |= frontier
    return layers


def _reach(adj: Sequence[int], sources: int) -> int:
    """Mask of the vertices reachable from `sources` (the layers are disjoint,
    so their sum is their union)."""
    return sum(_bfs_layers(adj, sources))


def _bits(mask: int) -> list[int]:
    """Positions of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def is_connected(g: SimpleGraph) -> bool:
    if g.n == 0:
        return False
    return _reach(adjacency_masks(g.n, g.edges), 1) == (1 << g.n) - 1


def validate(g: TwoTerminalGraph | SimpleGraph) -> list[str]:
    """Diagnostics for a (two-terminal) graph payload; empty means valid.

    Checks simplicity, connectivity and, for two-terminal graphs, terminal
    distinctness and range.  Fewer than n - 1 edges cannot connect n
    vertices, so that case is reported before any n-sized state is built.
    """
    graph = g.graph if isinstance(g, TwoTerminalGraph) else g
    diags: list[str] = []
    if graph.n < 1:
        diags.append("vertex count must be positive")
    seen = set()
    for u, v in graph.edges:
        if u == v:
            diags.append(f"self-loop at vertex {u}")
        elif not (0 <= u < graph.n and 0 <= v < graph.n):
            diags.append(f"edge ({u},{v}) out of vertex range")
        elif (u, v) in seen:
            diags.append(f"duplicate edge ({u},{v})")
        seen.add((u, v))
    if not diags and graph.n >= 1 and (graph.m < graph.n - 1 or not is_connected(graph)):
        diags.append("not connected")
    if isinstance(g, TwoTerminalGraph):
        for lbl, x in (("s", g.s), ("t", g.t)):
            if not 0 <= x < graph.n:
                diags.append(f"terminal {lbl}={x} out of range")
        if g.s == g.t:
            diags.append("terminals must be distinct")
    return diags


def _bridge_tree(adj: Sequence[int]) -> tuple[list[int], list[int], int]:
    """One bottom-up pass over the breadth-first spanning tree from vertex 0
    of the connected graph with neighbour masks `adj`: returns its layers,
    each vertex's tree parent (-1 at the root) and the mask of the vertices
    whose edge up to their parent is a bridge.  Every bridge is a tree edge,
    since any other edge closes a cycle with the tree.

    The tree edge from v up to its parent u is a bridge iff u is the only
    neighbour of v's subtree outside it.  A breadth-first edge joins layers
    at most one apart, so no vertex of the subtree below v touches u.
    """
    n = len(adj)
    layers = _bfs_layers(adj, 1) if n else []
    if not layers or sum(layers) != (1 << n) - 1:
        raise ValueError("bridges requires a connected graph")
    parent = [-1] * n
    subtree = [1 << v for v in range(n)]
    near = list(adj)  # per vertex, the neighbours of its subtree so far
    cut = 0
    for above, layer in reversed(list(zip(layers, layers[1:]))):
        for v in _bits(layer):
            u = parent[v] = (adj[v] & above).bit_length() - 1
            if near[v] & ~subtree[v] == 1 << u:
                cut |= 1 << v
            subtree[u] |= subtree[v]
            near[u] |= near[v]
    return layers, parent, cut


def bridges(g: SimpleGraph) -> list[int]:
    """Indices of bridge edges, ascending, from one `_bridge_tree` pass.

    Precondition: g connected.
    """
    _, parent, cut = _bridge_tree(adjacency_masks(g.n, g.edges))
    index = {e: i for i, e in enumerate(g.edges)}
    return sorted(index[(min(v, parent[v]), max(v, parent[v]))] for v in _bits(cut))


CUT_GUARD_N = 20  # a sweep visits 2^(n-1) bipartitions


def check_cut_guard(n: int) -> None:
    """Refuse a minimum-cut sweep on more than CUT_GUARD_N vertices."""
    if n > CUT_GUARD_N:
        raise GuardError(f"minimum-cut sweep guarded to n <= {CUT_GUARD_N}, got n={n}")


def _min_cuts(g: SimpleGraph) -> tuple[int, int]:
    """(lambda, number of vertex bipartitions whose cut has lambda edges): a
    Gray-code sweep with vertex 0 fixed, one vertex moved per step, guarded
    to n <= CUT_GUARD_N."""
    if g.n < 2:
        raise ValueError("edge connectivity needs n >= 2")
    check_cut_guard(g.n)
    adj = adjacency_masks(g.n, g.edges)
    if _reach(adj, 1) != (1 << g.n) - 1:
        raise ValueError("edge connectivity requires a connected graph")
    side = cut = 0
    best, count = g.m + 1, 0
    for i in range(1, 1 << (g.n - 1)):
        v = (i & -i).bit_length()  # Gray code flips vertex v; vertex 0 never moves
        delta = adj[v].bit_count() - 2 * (adj[v] & side).bit_count()
        cut += -delta if side >> v & 1 else delta
        side ^= 1 << v
        if cut < best:
            best, count = cut, 1
        elif cut == best:
            count += 1
    return best, count


def edge_connectivity(g: SimpleGraph) -> int:
    """Exact edge connectivity, the minimum cut over all 2^(n-1) vertex
    bipartitions.  Precondition: g connected, n >= 2."""
    return _min_cuts(g)[0]


def count_min_separators(g: SimpleGraph) -> int:
    """Number of edge sets of size lambda(G) whose removal disconnects g.  A
    minimum disconnecting set leaves exactly two components, so it is the cut
    of exactly one vertex bipartition."""
    return _min_cuts(g)[1]


def contract_edge(g: SimpleGraph, e: int) -> tuple[SimpleGraph, tuple[int, ...]]:
    """Contract edge e: delete it and identify its endpoints.  Returns the
    quotient and the surjection old vertex -> new vertex.

    Parallel edges created by the identification are merged (simple quotient);
    the result has n-1 vertices.
    """
    if not 0 <= e < g.m:
        raise IndexError(f"edge index {e} out of range")
    a, b = g.edges[e]
    vmap = []
    for v in range(g.n):
        w = a if v == b else v
        vmap.append(w - 1 if w > b else w)
    new_edges = set()
    for i, (u, v) in enumerate(g.edges):
        if i == e:
            continue
        x, y = vmap[u], vmap[v]
        if x != y:
            new_edges.add((min(x, y), max(x, y)))
    return SimpleGraph(g.n - 1, tuple(sorted(new_edges))), tuple(vmap)


def subdivide_edge(g: SimpleGraph, e: int) -> SimpleGraph:
    """Replace edge e = (v, w) by a path v - z - w through a fresh vertex z = n."""
    if not 0 <= e < g.m:
        raise IndexError(f"edge index {e} out of range")
    u, v = g.edges[e]
    z = g.n
    edges = [p for i, p in enumerate(g.edges) if i != e]
    edges += [(u, z), (v, z)]
    return SimpleGraph(g.n + 1, tuple(edges))


def skeleton(graph: SimpleGraph) -> tuple[SimpleGraph, tuple[int, ...]]:
    """Contract every bridge; returns the bridgeless quotient and the vertex map.

    Quotient classes are the components of the bridge forest, numbered by
    their least vertex, and are read top down from one `_bridge_tree` pass:
    a vertex joins its parent's class when its edge up is a bridge.  Every
    other edge joins two classes, since it lies on a cycle, so the result
    has n - b(G) vertices and m - b(G) edges.  A tree collapses to a single
    vertex.  Precondition: connected.
    """
    layers, parent, cut = _bridge_tree(adjacency_masks(graph.n, graph.edges))
    top = list(range(graph.n))  # the shallowest vertex of each vertex's class
    for layer in layers[1:]:
        for v in _bits(layer & cut):
            top[v] = top[parent[v]]
    number: dict[int, int] = {}  # ascending v meets each class at its least vertex
    vmap = tuple(number.setdefault(r, len(number)) for r in top)
    edges = [(vmap[u], vmap[v]) for u, v in graph.edges if vmap[u] != vmap[v]]
    return SimpleGraph(len(number), tuple(edges)), vmap


def skeleton_two_terminal(g: TwoTerminalGraph) -> TwoTerminalGraph:
    """The skeleton with the projected terminals, the skeleton vertices whose
    bridge-forest classes hold s and t.  Raises ValueError when they coincide."""
    skel, vmap = skeleton(g.graph)
    if vmap[g.s] == vmap[g.t]:
        raise ValueError("both terminals project to the same skeleton vertex")
    return TwoTerminalGraph(skel, vmap[g.s], vmap[g.t])


def farthest_vertices(g: SimpleGraph, v: int) -> list[int]:
    """The vertices at the largest distance from v, ascending, from one
    breadth-first search; raises ValueError on a disconnected g."""
    layers = _bfs_layers(adjacency_masks(g.n, g.edges), 1 << v)
    if sum(layers) != (1 << g.n) - 1:
        raise ValueError("farthest vertices require a connected graph")
    return _bits(layers[-1])


# ---------------------------------------------------------------------------
# interchange formats

def to_json_dict(g: SimpleGraph | TwoTerminalGraph) -> dict:
    if isinstance(g, TwoTerminalGraph):
        return {
            "n": g.graph.n,
            "edges": [[u, v] for u, v in g.graph.edges],
            "terminals": [g.s, g.t],
        }
    return {"n": g.n, "edges": [[u, v] for u, v in g.edges]}


def _parse_int(value, field: str) -> int:
    try:
        if isinstance(value, (bool, float)):
            raise TypeError  # int() would truncate a float and read a bool as 0 or 1
        return int(value)
    except (TypeError, ValueError):
        raise ValueError(f"{field}: expected an integer, got {value!r}") from None


def _parse_pair(value, field: str) -> tuple[int, int]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ValueError(f"{field}: expected a pair of vertices, got {value!r}")
    return _parse_int(value[0], field), _parse_int(value[1], field)


def from_json_dict(doc: dict) -> SimpleGraph | TwoTerminalGraph:
    """Parse a graph document; a missing or malformed field raises ValueError
    naming it."""
    if not isinstance(doc, dict):
        raise ValueError("graph document: expected a JSON object")
    for key in ("n", "edges"):
        if key not in doc:
            raise ValueError(f"graph document: missing field {key!r}")
    if not isinstance(doc["edges"], list):
        raise ValueError("edges: expected a list of vertex pairs")
    edges = tuple(_parse_pair(e, f"edges[{i}]") for i, e in enumerate(doc["edges"]))
    g = SimpleGraph(_parse_int(doc["n"], "n"), edges)
    if doc.get("terminals") is not None:
        return TwoTerminalGraph(g, *_parse_pair(doc["terminals"], "terminals"))
    return g


def to_text(g: SimpleGraph | TwoTerminalGraph) -> str:
    graph = g.graph if isinstance(g, TwoTerminalGraph) else g
    lines = [f"{graph.n} {graph.m}"]
    lines += [f"{u} {v}" for u, v in graph.edges]
    if isinstance(g, TwoTerminalGraph):
        lines.append(f"T {g.s} {g.t}")
    return "\n".join(lines) + "\n"


def from_text(text: str) -> SimpleGraph | TwoTerminalGraph:
    """Parse the compact form: a header "n m", exactly m edge lines, and an
    optional last line "T s t"; a malformed line raises ValueError naming it."""
    rows = [ln.split() for ln in text.strip().splitlines() if ln.strip()]
    if not rows:
        raise ValueError("text graph: empty document")
    if len(rows[0]) != 2:
        raise ValueError(f"header: expected 'n m', got {' '.join(rows[0])!r}")
    n, m = (_parse_int(x, "header") for x in rows[0])
    body = rows[1:]
    terminals = None
    if body and body[-1][0].upper() == "T":
        terminals = _parse_pair(body.pop()[1:], "terminal line")
    if len(body) != m:
        raise ValueError(f"header: declares m={m} edges but {len(body)} edge lines follow")
    g = SimpleGraph(n, tuple(_parse_pair(r, f"edge line {i + 1}") for i, r in enumerate(body)))
    return g if terminals is None else TwoTerminalGraph(g, *terminals)


def loads(text: str) -> SimpleGraph | TwoTerminalGraph:
    """Parse either the JSON document or the compact text form."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return from_json_dict(json.loads(text))
    return from_text(text)


def dumps(g: SimpleGraph | TwoTerminalGraph, fmt: str = "json") -> str:
    if fmt == "json":
        return json.dumps(to_json_dict(g), indent=2) + "\n"
    if fmt == "text":
        return to_text(g)
    raise ValueError(f"unknown graph format {fmt!r}")
