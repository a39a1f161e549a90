"""Simple graphs with an optional terminal pair, and the structural primitives
everything else is built on: bridges, edge connectivity, contraction,
subdivision, skeletons, distances.

Vertices are 0..n-1.  Edges are unordered pairs stored as (u, v) with u < v,
sorted lexicographically; edge *indices* into that list are the stable handles
used by subset operations.  All values are immutable and all functions are
pure, so everything here is safe to share across workers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

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

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj

    def degree(self, v: int) -> int:
        return sum(1 for a, b in self.edges if v in (a, b))

    def has_edge(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        return (u, v) in set(self.edges)

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


# An EdgeSubset is a collection of indices into graph.edges.
EdgeSubset = Sequence[int]


class GuardError(RuntimeError):
    """Raised when an exhaustive search would exceed its configured size guard."""


def min_degree(g: SimpleGraph) -> int:
    degs = [0] * g.n
    for u, v in g.edges:
        degs[u] += 1
        degs[v] += 1
    return min(degs) if degs else 0


def degree(g: SimpleGraph, v: int) -> int:
    return g.degree(v)


def _union_find_components(n: int, pairs: Iterable[Edge]) -> list[int]:
    """Root label per vertex after merging all pairs (path-halving union-find)."""
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


def components(g: SimpleGraph, kept: EdgeSubset) -> list[list[int]]:
    """Connected components of the spanning subgraph keeping only `kept` edges.

    Isolated vertices appear as singleton components.  Components are sorted
    by their smallest vertex.
    """
    m = g.m
    pairs = []
    for i in kept:
        if not 0 <= i < m:
            raise IndexError(f"edge index {i} out of range for m={m}")
        pairs.append(g.edges[i])
    roots = _union_find_components(g.n, pairs)
    groups: dict[int, list[int]] = {}
    for v in range(g.n):
        groups.setdefault(roots[v], []).append(v)
    return [groups[r] for r in sorted(groups)]


def is_connected(g: SimpleGraph) -> bool:
    if g.n == 0:
        return False
    roots = _union_find_components(g.n, g.edges)
    return all(r == roots[0] for r in roots)


def is_split_subgraph(g: TwoTerminalGraph, kept: EdgeSubset) -> bool:
    """True iff keeping `kept` leaves exactly 2 components, one per terminal."""
    comps = components(g.graph, kept)
    if len(comps) != 2:
        return False
    first = set(comps[0])
    return (g.s in first) != (g.t in first)


def validate(g: TwoTerminalGraph | SimpleGraph) -> list[str]:
    """Diagnostics for a (two-terminal) graph payload; empty means valid.

    Checks simplicity, connectivity and, for two-terminal graphs, terminal
    distinctness and range.
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
    if not diags and graph.n >= 1 and not is_connected(graph):
        diags.append("not connected")
    if isinstance(g, TwoTerminalGraph):
        for lbl, x in (("s", g.s), ("t", g.t)):
            if not 0 <= x < graph.n:
                diags.append(f"terminal {lbl}={x} out of range")
        if g.s == g.t:
            diags.append("terminals must be distinct")
    return diags


def bridges(g: SimpleGraph) -> list[int]:
    """Indices of bridge edges (edges whose removal disconnects), via DFS low-links.

    Precondition: g connected.
    """
    if not is_connected(g):
        raise ValueError("bridges requires a connected graph")
    n = g.n
    # adjacency with edge indices; iterative DFS
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for idx, (u, v) in enumerate(g.edges):
        adj[u].append((v, idx))
        adj[v].append((u, idx))
    disc = [-1] * n
    low = [0] * n
    out: list[int] = []
    timer = 0
    stack: list[tuple[int, int, int]] = [(0, -1, 0)]  # (vertex, entry edge idx, child pos)
    disc[0] = low[0] = timer
    timer += 1
    while stack:
        v, pe, i = stack.pop()
        if i < len(adj[v]):
            stack.append((v, pe, i + 1))
            w, idx = adj[v][i]
            if idx == pe:
                continue
            if disc[w] == -1:
                disc[w] = low[w] = timer
                timer += 1
                stack.append((w, idx, 0))
            else:
                low[v] = min(low[v], disc[w])
        else:
            if pe != -1:
                u = g.edges[pe][0] if g.edges[pe][1] == v else g.edges[pe][1]
                low[u] = min(low[u], low[v])
                if low[v] > disc[u]:
                    out.append(pe)
    return sorted(out)


def _min_cuts(g: SimpleGraph) -> tuple[int, int]:
    """(lambda, number of vertex bipartitions whose cut has lambda edges): a
    Gray-code sweep with vertex 0 fixed, one vertex moved per step."""
    if g.n < 2:
        raise ValueError("edge connectivity needs n >= 2")
    if not is_connected(g):
        raise ValueError("edge connectivity requires a connected graph")
    adj = [0] * g.n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
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


def contract_edge(g: SimpleGraph, e: int) -> SimpleGraph:
    """Contract edge e: delete it and identify its endpoints.

    Parallel edges created by the identification are merged (simple quotient);
    the result has n-1 vertices.
    """
    g2, _ = contract_edge_with_map(g, e)
    return g2


def contract_edge_with_map(g: SimpleGraph, e: int) -> tuple[SimpleGraph, tuple[int, ...]]:
    """contract_edge plus the surjection old vertex -> new vertex."""
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


def skeleton(g: SimpleGraph | TwoTerminalGraph) -> tuple[SimpleGraph, tuple[int, ...]]:
    """Contract every bridge; returns the bridgeless quotient and the vertex map.

    Quotient classes are the components of the bridge forest; the result has
    n - b(G) vertices and m - b(G) edges.  A tree collapses to a single vertex.
    Precondition: connected.
    """
    graph = g.graph if isinstance(g, TwoTerminalGraph) else g
    bridge_idx = set(bridges(graph))
    roots = _union_find_components(graph.n, [graph.edges[i] for i in bridge_idx])
    order = sorted(set(roots))
    relabel = {r: i for i, r in enumerate(order)}
    vmap = tuple(relabel[roots[v]] for v in range(graph.n))
    new_edges = []
    for i, (u, v) in enumerate(graph.edges):
        if i in bridge_idx:
            continue
        x, y = vmap[u], vmap[v]
        if x == y:
            raise AssertionError("non-bridge edge inside a bridge-forest class")
        new_edges.append((min(x, y), max(x, y)))
    return SimpleGraph(len(order), tuple(new_edges)), vmap


def projected_terminals(g: TwoTerminalGraph) -> Optional[tuple[int, int]]:
    """Skeleton vertices nearest to the terminals, or None when they coincide."""
    _, vmap = skeleton(g.graph)
    s2, t2 = vmap[g.s], vmap[g.t]
    if s2 == t2:
        return None
    return (s2, t2)


def distance(g: SimpleGraph, u: int, v: int) -> int:
    """Shortest-path edge count; raises on disconnected pairs."""
    d = _bfs(g, u)
    if d[v] < 0:
        raise ValueError(f"vertices {u} and {v} are not connected")
    return d[v]


def _bfs(g: SimpleGraph, src: int) -> list[int]:
    adj = g.adjacency()
    dist = [-1] * g.n
    dist[src] = 0
    frontier = [src]
    while frontier:
        nxt = []
        for x in frontier:
            for y in adj[x]:
                if dist[y] < 0:
                    dist[y] = dist[x] + 1
                    nxt.append(y)
        frontier = nxt
    return dist


def diameter(g: SimpleGraph) -> int:
    best = 0
    for v in range(g.n):
        d = _bfs(g, v)
        m = max(d)
        if min(d) < 0:
            raise ValueError("diameter requires a connected graph")
        best = max(best, m)
    return best


def eccentric_pairs(g: SimpleGraph) -> list[tuple[int, int]]:
    """All vertex pairs (u < v) at distance exactly diameter(g)."""
    pairs = []
    dia = diameter(g)
    for u in range(g.n):
        d = _bfs(g, u)
        for v in range(u + 1, g.n):
            if d[v] == dia:
                pairs.append((u, v))
    return pairs


def relabel(g: SimpleGraph, perm: Sequence[int]) -> SimpleGraph:
    """Apply the vertex relabeling v -> perm[v]."""
    return SimpleGraph(g.n, tuple((perm[u], perm[v]) for u, v in g.edges))


def relabel_two_terminal(g: TwoTerminalGraph, perm: Sequence[int]) -> TwoTerminalGraph:
    return TwoTerminalGraph(relabel(g.graph, perm), perm[g.s], perm[g.t])


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
