"""Exhaustive enumeration of the connected-graph and two-terminal classes at
desk scale, the lexicographic refinement chain over failed-edge counts, and
the uniform-winner decision.

Generation descends from K_n by deleting one non-bridge edge at a time and
keeps one record per isomorphism orbit at each edge count: its canonical key
(the least leaf of `canon`'s search), |Aut| and the generators of Aut, each
level sorted by key.  A child is searched only if its deleted edge is one of
its best non-edges by end-degree sum (McKay's cheap-invariant test), once per
orbit of the parent's group.  A class is walked as its graphs, each with one
terminal pair per orbit of that group, so each two-terminal representative
is unique up to terminal-respecting isomorphism; the members are the walk
flattened, and each graph is classified once for all its pairs.

The uniform verdict has one route, `uniform_check`, which reads the walk, and
the verdict carries the members it names.  Its candidate is the first
locally-most member, which by thm1 has the balloon's counts.  Every member has
N_i = 0 for i < n - 2, so a member whose N_{n-2} beats the balloon's refutes
the class near p = 0; below the dense end every N_{n-2} comes from one
Gauss-Jordan pass per graph, and when the top one beats the balloon's only the
graphs that can hold the rival or the candidate are classified.

Conventions: "locally most split reliable" is the per-competitor form (for
each rival there is a neighborhood of p = 1 where the candidate is at least
as good); over a finite class this coincides with a single uniform
neighborhood.  The 3-vertex class is the triangle with any terminal pair, a
single representative.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Optional, Sequence

from . import canon
from .counting import (
    CoefficientVector,
    classify_subsets,
    split_coefficients,
    two_tree_count,
    two_tree_counts,
)
from .families import in_I, two_terminal_balloon
from .graphs import GuardError, SimpleGraph, TwoTerminalGraph, _reach, to_json_dict
from .signature import dominates_on_unit_interval

ENUM_GUARD_N = 8


# A class record: (canonical mask, |Aut|, generators of Aut), one per
# isomorphism class of connected graphs.
Record = tuple[int, int, list[tuple[int, ...]]]


@lru_cache(maxsize=None)
def _descent(n: int) -> tuple[tuple[Record, ...], ...]:
    """Per edge count m, the class records of the connected graphs on n
    vertices, sorted by canonical mask, by edge-deletion descent from K_n.

    A representative P at level m keeps the child P - e, searched by
    `canon.canonical_group`, when e is not a bridge, is a best non-edge of
    P - e by end-degree sum, and is the first such edge of its Aut(P) orbit.
    In P - e, e scores deg u + deg v - 2, and a non-edge of P, sharing at
    most one end with e, loses at most 1.  The levels are complete: let f be
    a best non-edge of a class C at level m - 1.  C + f is connected, so a
    representative P at level m is isomorphic to it by a map taking f to a
    non-bridge e of P with P - e isomorphic to C; the score is invariant
    under that map and under Aut(P), so e or an edge of its orbit passes.
    """
    size = comb(n, 2)
    pairs = canon.pair_list(n)
    star = [sum(1 << k for k, p in enumerate(pairs) if v in p) for v in range(n)]  # pairs at v
    levels: list[tuple[Record, ...]] = [()] * (size + 1)
    key, aut, perms, _ = canon.canonical_group(n, [(1 << n) - 1 ^ 1 << v for v in range(n)])
    levels[size] = ((key, aut, perms),)
    for m in range(size, 0, -1):
        below: dict[int, Record] = {}
        for mask, _, gens in levels[m]:
            adj = canon.mask_adjacency(n, mask)
            deg = [a.bit_count() for a in adj]
            top, best = 0, 0  # P's best non-edge score (0 for K_n), and those non-edges
            for k, (u, v) in enumerate(pairs):
                score = -1 if mask >> k & 1 else deg[u] + deg[v]
                if score > top:
                    top, best = score, 1 << k
                elif score == top:
                    best |= 1 << k
            taken = 0  # the Aut(P) orbits of the edges already tested
            for k, (u, v) in enumerate(pairs):
                if not mask >> k & 1 or taken >> k & 1:
                    continue
                gap = top + 2 - deg[u] - deg[v]  # does a best non-edge of P beat e in P - e?
                if gap > 1 or gap == 1 and best & ~(star[u] | star[v]):
                    continue
                taken |= canon.pair_orbit(n, gens, u, v)
                child = adj[:]
                child[u] ^= 1 << v
                child[v] ^= 1 << u
                if not _reach(child, 1 << u) >> v & 1:
                    continue  # e is a bridge of P
                key, aut, perms, _ = canon.canonical_group(n, child)
                if key not in below:
                    below[key] = (key, aut, perms)
        levels[m - 1] = tuple(sorted(below.values()))  # the masks are distinct
    return tuple(levels)


def _check_enum_guard(n: int) -> None:
    """Refuse a class enumeration on more than ENUM_GUARD_N vertices."""
    if n > ENUM_GUARD_N:
        raise GuardError(f"class enumeration guarded to n <= {ENUM_GUARD_N}, got n={n}")


def _level(n: int, m: int) -> tuple[Record, ...]:
    """The class records of the connected graphs with n vertices and m edges,
    sorted by canonical mask."""
    if n < 2:
        raise ValueError("enumeration needs n >= 2")
    _check_enum_guard(n)
    if not 0 <= m <= comb(n, 2):
        raise ValueError(f"no graphs with n={n}, m={m}")
    return _descent(n)[m]


def enumerate_graphs(n: int, m: int) -> list[SimpleGraph]:
    """One canonically labeled representative per isomorphism class of
    connected graphs with n vertices and m edges, sorted by canonical key."""
    return [canon.mask_to_graph(n, mask) for mask, _, _ in _level(n, m)]


def _class_walk(n: int, m: int) -> list[tuple[SimpleGraph, list[tuple[int, int]]]]:
    """T_{n,m} as (canonical graph, terminal pairs) in member order: one pair
    per Aut orbit on vertex pairs, the least in `pair_list` order."""
    walk = []
    for mask, _, gens in _level(n, m):
        pairs, seen = [], 0
        for k, (s, t) in enumerate(canon.pair_list(n)):
            if not seen >> k & 1:
                pairs.append((s, t))
                seen |= canon.pair_orbit(n, gens, s, t)
        walk.append((canon.mask_to_graph(n, mask), pairs))
    return walk


def enumerate_two_terminal(n: int, m: int) -> list[TwoTerminalGraph]:
    """Representatives of the two-terminal class: each underlying canonical
    graph equipped with one terminal pair per automorphism orbit.  Sorted by
    (underlying canonical mask, pair)."""
    return [TwoTerminalGraph(g, s, t) for g, pairs in _class_walk(n, m) for s, t in pairs]


# ---------------------------------------------------------------------------
# class ledger

@dataclass
class UniformVerdict:
    """Candidate is the index of the first locally-most representative.
    Winner holds it when the candidate dominates the whole class; otherwise
    rival is the first member with the largest counts the candidate does not
    dominate, with an exact point where the rival is strictly more reliable.
    Members maps each index named here to its member."""

    winner: Optional[int]
    candidate: int
    rival: Optional[int] = None
    witness: Optional[Fraction] = None
    members: dict[int, TwoTerminalGraph] = field(kw_only=True)

    def to_json_dict(self) -> dict:
        if self.winner is not None:
            return {
                "verdict": "winner",
                "winner_index": self.winner,
                "winner": to_json_dict(self.members[self.winner]),
            }
        return {
            "verdict": "none",
            "rival_index": self.rival,
            "witness": str(self.witness),
            "rival": to_json_dict(self.members[self.rival]),
            "candidate": to_json_dict(self.members[self.candidate]),
        }


@dataclass
class ClassLedger:
    """Everything computed for one (n, m) class: representatives with exact
    signatures, the split-equivalence partition and the failed-edge
    refinement chain, whose last level is the locally-most set."""

    n: int
    m: int
    members: list[TwoTerminalGraph]
    signatures: list[CoefficientVector]
    equivalence_classes: list[list[int]]
    chain_levels: list[list[int]]
    labeled_connected: int

    @property
    def early_stop_level(self) -> int:
        return len(self.chain_levels) - 1

    @property
    def locally_most(self) -> list[int]:
        return self.chain_levels[-1]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "members": [to_json_dict(g) for g in self.members],
            "signatures": [[str(c) for c in s.counts] for s in self.signatures],
            "equivalence_classes": self.equivalence_classes,
            "chain_levels": self.chain_levels,
            "early_stop_level": self.early_stop_level,
            "locally_most": self.locally_most,
            "labeled_connected": self.labeled_connected,
        }

    def to_csv(self) -> str:
        """One row per representative for spreadsheet inspection.  A member is
        its own two-terminal canonical form, so its key, written mask:s-t,
        is read from its edges and terminals."""
        eq_of = {}
        for ci, members in enumerate(self.equivalence_classes):
            for i in members:
                eq_of[i] = ci
        survives = {}
        for level, idxs in enumerate(self.chain_levels):
            for i in idxs:
                survives[i] = level
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["index", "canonical_key", "f_prefix", "equivalence_class", "survives_until"])
        for i, (g, sig) in enumerate(zip(self.members, self.signatures)):
            key = f"{canon.graph_mask(g.graph)}:{g.s}-{g.t}"
            prefix = ";".join(str(sig.f_value(j)) for j in range(1, min(self.m, 6) + 1))
            w.writerow([i, key, prefix, eq_of[i], survives[i]])
        return buf.getvalue()


def refine_members(signatures: Sequence[CoefficientVector]) -> list[list[int]]:
    """The refinement chain read off the lexicographically largest (F_1, ...,
    F_m): level i keeps the members of level i - 1 that share its F_i, up to
    the first level whose members are split-equivalent.  By level m only N_m
    can differ, and it is 0 in every connected class.
    """
    if not signatures:
        raise ValueError("no members to refine")
    best = max(sig.f_tuple()[1:] for sig in signatures)
    levels = [list(range(len(signatures)))]
    while len({signatures[j].counts for j in levels[-1]}) > 1:
        i = len(levels)
        if i > len(best):
            raise AssertionError("refinement did not converge by level m")
        levels.append([j for j in levels[-1] if signatures[j].f_value(i) == best[i - 1]])
    return levels


def _nonempty_walk(n: int, m: int) -> list[tuple[SimpleGraph, list[tuple[int, int]]]]:
    """The walk of T_{n,m}, refusing an empty class."""
    walk = _class_walk(n, m)
    if not walk:
        raise ValueError(
            f"T_{{{n},{m}}} has no members: m = {m} is below n - 1 = {n - 1}, "
            f"the fewest edges of a connected graph on {n} vertices"
        )
    return walk


def refine_chain(n: int, m: int) -> ClassLedger:
    """Full class ledger for (n, m): enumerate, classify signatures, refine."""
    members: list[TwoTerminalGraph] = []
    signatures: list[CoefficientVector] = []
    for g, pairs in _nonempty_walk(n, m):  # one classification per graph
        cls = classify_subsets(g)
        members += [TwoTerminalGraph(g, s, t) for s, t in pairs]
        signatures += [CoefficientVector(n, m, cls.split_counts(s, t)) for s, t in pairs]
    by_sig: dict[tuple[int, ...], list[int]] = {}
    for i, sig in enumerate(signatures):
        by_sig.setdefault(sig.counts, []).append(i)
    return ClassLedger(
        n=n,
        m=m,
        members=members,
        signatures=signatures,
        equivalence_classes=list(by_sig.values()),  # in first-member order
        chain_levels=refine_members(signatures),
        labeled_connected=sum(factorial(n) // a for _, a, _ in _level(n, m)),  # orbit-stabilizer
    )


def uniform_check(n: int, m: int) -> UniformVerdict:
    """Decide whether the class has a uniformly most split reliable graph.

    Any winner is locally most (dominance near p = 1 is necessary), so the
    candidate is the first member with the lexicographically largest
    (F_1, ..., F_m), the ledger's `locally_most[0]`; it is tested against
    every distinct classified count vector, largest first, and the first it
    does not dominate is the rival.

    The walk is read with a running member index, and only the members the
    verdict names are built.  Every member has N_i = 0 for i < n - 2 (a
    split subgraph keeps at least n - 2 edges), and by thm1 the candidate
    has the balloon's counts.  For (n, m) in I below the dense end,
    m < C(n,2) - n, every N_{n-2} is read from one Gauss-Jordan pass per
    graph (`two_tree_counts`).  If the top one beats the balloon's, its
    holders beat the candidate near p = 0, so only their graphs are
    classified, with the graphs holding the balloon's N_{n-2}, in member
    order, up to the candidate: the first member with the balloon's counts.
    Otherwise every graph is classified.
    """
    walk = _nonempty_walk(n, m)
    target = None  # the candidate's counts, once known
    if in_I(n, m) and m < comb(n, 2) - n:  # skipping the screen moves no verdict
        tables = (two_tree_counts(g) for g, _ in walk)  # one table per graph
        held = [{table[st] for st in pairs} for (_, pairs), table in zip(walk, tables)]
        balloon = two_terminal_balloon(n, m)
        top, base = max(map(max, held)), two_tree_count(balloon)
        if top > base:
            target = split_coefficients(balloon).counts
    first: dict[tuple[int, ...], tuple] = {}  # classified counts: (i, g, s, t) of the first member
    j = 0  # the index of the graph's first member
    for k, (g, pairs) in enumerate(walk):
        if target is None or top in held[k] or base in held[k] and target not in first:
            cls = classify_subsets(g)
            for i, (s, t) in enumerate(pairs, j):
                first.setdefault(cls.split_counts(s, t), (i, g, s, t))
        j += len(pairs)
    if target is None:
        target = max(first, key=lambda c: c[::-1])  # the largest (F_0, ..., F_m)
    elif target not in first:
        raise AssertionError(f"thm1 fails: no member of T_{{{n},{m}}} has the balloon's counts")
    candidate = first[target]
    for counts in sorted(first, reverse=True):
        res = dominates_on_unit_interval(target, counts)
        if not res.dominates:
            rival = first[counts]
            members = {i: TwoTerminalGraph(g, s, t) for i, g, s, t in (rival, candidate)}
            return UniformVerdict(
                winner=None, candidate=candidate[0], rival=rival[0], witness=res.witness,
                members=members,
            )
    i, g, s, t = candidate
    return UniformVerdict(winner=i, candidate=i, members={i: TwoTerminalGraph(g, s, t)})
