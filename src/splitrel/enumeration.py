"""Exhaustive enumeration of the connected-graph and two-terminal classes at
desk scale, the lexicographic refinement chain over failed-edge counts, and
the uniform-winner decision.

Generation descends from K_n by deleting one non-bridge edge at a time and
keeps one graph per isomorphism orbit at each edge count, labeled by its
canonical key (the least leaf of `canon`'s search) and the generators of its
automorphism group.  A child is searched only if its deleted edge is one of
its best non-edges by end-degree sum (McKay's cheap-invariant test), once per
orbit of the parent's group.  Terminal pairs are deduplicated by the orbits
of that group, so each two-terminal representative is unique up to
terminal-respecting isomorphism.  Signatures are computed once per underlying
graph (the subset classification is shared by all its terminal pairs);
nothing is stored between runs.

Conventions: "locally most split reliable" is the per-competitor form (for
each rival there is a neighborhood of p = 1 where the candidate is at least
as good); over a finite class this coincides with a single uniform
neighborhood.  The 3-vertex class is the triangle with any terminal pair, a
single representative.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from math import comb, factorial
from typing import Optional, Sequence

from . import canon
from .counting import classify_subsets
from .families import two_terminal_balloon
from .graphs import GuardError, SimpleGraph, TwoTerminalGraph, is_bridge, to_json_dict
from .signature import SplitSignature, dominates_on_unit_interval

ENUM_GUARD_N = 8


def _check_enum_guard(n: int) -> None:
    if n < 2:
        raise ValueError("enumeration needs n >= 2")
    if n > ENUM_GUARD_N:
        raise GuardError(f"class enumeration guarded to n <= {ENUM_GUARD_N}, got n={n}")


@lru_cache(maxsize=None)
def _descent(n: int) -> tuple[tuple[dict[int, int], ...], dict[int, list[tuple[int, ...]]]]:
    """Per edge count m, {canonical mask: automorphism group size} over the
    connected graphs on n vertices, by edge-deletion descent from K_n, and
    beside them {canonical mask: generators of its automorphism group}.

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
    levels: list[dict[int, int]] = [{} for _ in range(size + 1)]
    key, aut, perms, _ = canon.canonical_group(n, [(1 << n) - 1 ^ 1 << v for v in range(n)])
    levels[size], group = {key: aut}, {key: perms}
    for m in range(size, 0, -1):
        below = levels[m - 1]
        for mask in levels[m]:
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
                taken |= canon.pair_orbit(n, group[mask], u, v)
                if is_bridge(adj, u, v):
                    continue
                child = adj[:]
                child[u] ^= 1 << v
                child[v] ^= 1 << u
                key, aut, perms, _ = canon.canonical_group(n, child)
                if key not in below:
                    below[key], group[key] = aut, perms
    return tuple(levels), group


def _graph_orbits(n: int, m: int) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """(canonical masks, automorphism group sizes, labeled connected count);
    the labeled count is the sum of n!/|Aut| by orbit-stabilizer."""
    _check_enum_guard(n)
    if not 0 <= m <= comb(n, 2):
        raise ValueError(f"no graphs with n={n}, m={m}")
    level = _descent(n)[0][m]
    reps = tuple(sorted(level))
    auts = tuple(level[mask] for mask in reps)
    return reps, auts, sum(factorial(n) // a for a in auts)


def enumerate_graphs(n: int, m: int) -> list[SimpleGraph]:
    """One canonically labeled representative per isomorphism class of
    connected graphs with n vertices and m edges, sorted by canonical key."""
    reps, _, _ = _graph_orbits(n, m)
    return [canon.mask_to_graph(n, mask) for mask in reps]


def _pair_orbits(n: int, perms: Sequence[Sequence[int]]) -> list[tuple[int, int]]:
    """One representative pair, the least, per orbit on unordered vertex
    pairs of the group the permutations `perms` generate."""
    out, seen = [], 0
    for k, (s, t) in enumerate(canon.pair_list(n)):
        if not seen >> k & 1:
            out.append((s, t))
            seen |= canon.pair_orbit(n, perms, s, t)
    return out


def enumerate_two_terminal(n: int, m: int) -> list[TwoTerminalGraph]:
    """Representatives of the two-terminal class: each underlying canonical
    graph equipped with one terminal pair per automorphism orbit.  Sorted by
    (underlying canonical mask, pair)."""
    reps, _, _ = _graph_orbits(n, m)
    group = _descent(n)[1]
    graphs = [(canon.mask_to_graph(n, mask), group[mask]) for mask in reps]
    return [TwoTerminalGraph(g, s, t) for g, perms in graphs for s, t in _pair_orbits(n, perms)]


# ---------------------------------------------------------------------------
# class ledger

@dataclass
class UniformVerdict:
    """Winner holds the index of a locally-most representative that dominates
    the whole class; otherwise a rival index and an exact crossing point."""

    winner: Optional[int]
    rival: Optional[int] = None
    witness: Optional[Fraction] = None

    def to_json_dict(self) -> dict:
        if self.winner is not None:
            return {"verdict": "winner", "winner_index": self.winner}
        return {
            "verdict": "none",
            "rival_index": self.rival,
            "witness": str(self.witness),
        }


@dataclass
class ClassLedger:
    """Everything computed for one (n, m) class: representatives with exact
    signatures, the split-equivalence partition, the failed-edge refinement
    chain with its early-stop level and the locally-most set."""

    n: int
    m: int
    members: list[TwoTerminalGraph]
    signatures: list[SplitSignature]
    equivalence_classes: list[list[int]]
    chain_levels: list[list[int]]
    early_stop_level: int
    locally_most: list[int]
    labeled_connected: int

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

    def uniform_verdict(self) -> UniformVerdict:
        """Decide whether the class has a uniformly most split reliable graph.

        Any winner must be locally most (dominance near p=1 is necessary), so
        the candidate is the locally-most class; it is tested against every
        distinct rival signature, most promising first (lexicographically
        largest N-vector, the likely near-0 refuter).
        """
        candidate_idx = self.locally_most[0]
        cand_sig = self.signatures[candidate_idx]
        rivals = sorted(
            self.equivalence_classes,
            key=lambda cls: self.signatures[cls[0]].counts,
            reverse=True,
        )
        for cls in rivals:
            sig = self.signatures[cls[0]]
            if sig.counts == cand_sig.counts:
                continue
            res = dominates_on_unit_interval(cand_sig.counts, sig.counts)
            if not res.dominates:
                return UniformVerdict(winner=None, rival=cls[0], witness=res.witness)
        return UniformVerdict(winner=candidate_idx)


def refine_members(
    signatures: Sequence[SplitSignature],
) -> tuple[list[list[int]], int]:
    """Iteratively keep the maximizers of F_1, F_2, ... until all survivors are
    split-equivalent; returns the nested index levels and the stop level.

    The stop is guaranteed at level m at the latest (all F-values compared).
    """
    if not signatures:
        raise ValueError("no members to refine")
    m = signatures[0].m
    current = list(range(len(signatures)))
    levels = [current[:]]
    stop = 0
    if len({signatures[i].counts for i in current}) > 1:
        for i in range(1, m + 1):
            best = max(signatures[j].f_value(i) for j in current)
            current = [j for j in current if signatures[j].f_value(i) == best]
            levels.append(current[:])
            stop = i
            if len({signatures[j].counts for j in current}) == 1:
                break
        else:
            raise AssertionError("refinement did not converge by level m")
    return levels, stop


def refine_chain(n: int, m: int) -> ClassLedger:
    """Full class ledger for (n, m): enumerate, classify signatures, refine."""
    members = enumerate_two_terminal(n, m)
    signatures: list[SplitSignature] = []
    for g, pairs in groupby(members, key=lambda h: h.graph):  # one classification per graph
        cls = classify_subsets(g)
        signatures += [SplitSignature(n, m, cls.split_counts(h.s, h.t)) for h in pairs]
    levels, stop = refine_members(signatures)
    by_sig: dict[tuple[int, ...], list[int]] = {}
    for i, sig in enumerate(signatures):
        by_sig.setdefault(sig.counts, []).append(i)
    eq_classes = sorted(by_sig.values(), key=lambda c: c[0])
    return ClassLedger(
        n=n,
        m=m,
        members=members,
        signatures=signatures,
        equivalence_classes=eq_classes,
        chain_levels=levels,
        early_stop_level=stop,
        locally_most=levels[-1],
        labeled_connected=_graph_orbits(n, m)[2],
    )


def uniform_check(n: int, m: int) -> UniformVerdict:
    """Decide whether the class has a uniformly most split reliable graph
    (see ClassLedger.uniform_verdict)."""
    return refine_chain(n, m).uniform_verdict()


def balloon_member_index(ledger: ClassLedger) -> int:
    """Index of the two-terminal balloon's representative in the ledger: its
    canonical form, which is the member itself."""
    n, _, key, s, t = canon.canonical_form(two_terminal_balloon(ledger.n, ledger.m))
    return ledger.members.index(TwoTerminalGraph(canon.mask_to_graph(n, key), s, t))


def verify_balloon_characterization(n: int, m: int) -> dict:
    """Check that the locally-most set is exactly the split-equivalence class
    of the two-terminal balloon, and that the refinement's early stop was a
    genuine all-equivalent level."""
    ledger = refine_chain(n, m)
    bidx = balloon_member_index(ledger)
    balloon_sig = ledger.signatures[bidx]
    direct = [
        i for i, s in enumerate(ledger.signatures) if s.counts == balloon_sig.counts
    ]
    chain_ok = all(
        set(b) <= set(a) for a, b in zip(ledger.chain_levels, ledger.chain_levels[1:])
    )
    final_sigs = {ledger.signatures[i].counts for i in ledger.locally_most}
    ok = (
        sorted(ledger.locally_most) == sorted(direct)
        and bidx in ledger.locally_most
        and chain_ok
        and len(final_sigs) == 1
    )
    f_tuple = balloon_sig.f_tuple()
    return {
        "ok": ok,
        "class_size": len(ledger.locally_most),
        "balloon_index": bidx,
        "early_stop_level": ledger.early_stop_level,
        "shared_f_prefix": list(f_tuple[: min(len(f_tuple), 8)]),
    }


def near_zero_refuter(ledger: ClassLedger) -> tuple[int, Optional[int]]:
    """The N-lexicographically largest member and the first index where its
    N-vector differs from the locally-most candidate's (None if equal)."""
    sigs = ledger.signatures
    best = max(range(len(sigs)), key=lambda i: sigs[i].counts)
    cand = sigs[ledger.locally_most[0]].counts
    diff = (i for i, (a, b) in enumerate(zip(sigs[best].counts, cand)) if a != b)
    return best, next(diff, None)
