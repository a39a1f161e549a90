"""Exhaustive enumeration of the connected-graph and two-terminal classes at
desk scale, the lexicographic refinement chain over failed-edge counts, and
the uniform-winner decision.

Generation sweeps every labeled edge set, filters the connected ones, and
deduplicates by isomorphism orbit; the canonical representative of each orbit
is its minimum edge-mask labeling.  Terminal pairs are deduplicated by the
orbits of the automorphism group, so each two-terminal representative is
unique up to terminal-respecting isomorphism.  Signatures are computed once
per underlying graph (the subset classification is shared by all its terminal
pairs) and everything is cached as versioned JSON keyed by (n, m).

Conventions: "locally most split reliable" is the per-competitor form (for
each rival there is a neighborhood of p = 1 where the candidate is at least
as good); over a finite class this coincides with a single uniform
neighborhood.  The 3-vertex class is the triangle with any terminal pair, a
single representative.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import canon
from .counting import classify_subsets
from .families import two_terminal_balloon
from .graphs import Edge, GuardError, SimpleGraph, TwoTerminalGraph, from_json_dict, to_json_dict
from .signature import (
    Ordering,
    SplitSignature,
    compare_near_zero_index,
    dominates_on_unit_interval,
    sr_polynomial,
)

ENUM_GUARD_N = 7
FORMAT_VERSION = 2


def _propagate_labels(masks: np.ndarray, n: int, edges: Sequence[Edge]) -> np.ndarray:
    """Component label per vertex for every mask, by min-label flooding.

    n-1 full edge passes suffice: the minimum label advances at least one
    vertex along any path per pass.
    """
    labels = np.tile(np.arange(n, dtype=np.int8), (len(masks), 1))
    for _ in range(n - 1):
        for j, (u, v) in enumerate(edges):
            sel = ((masks >> j) & 1).astype(bool)
            lu = labels[sel, u]
            lv = labels[sel, v]
            mn = np.minimum(lu, lv)
            labels[sel, u] = mn
            labels[sel, v] = mn
    return labels


@lru_cache(maxsize=None)
def _connectivity_table(n: int) -> np.ndarray:
    """Component count of every labeled edge subset of the complete graph."""
    pairs = canon.pair_list(n)
    m = len(pairs)
    out = np.empty(1 << m, dtype=np.uint8)
    step = 1 << min(20, m)
    vidx = np.arange(n, dtype=np.int8)
    for lo in range(0, 1 << m, step):
        masks = np.arange(lo, min(lo + step, 1 << m), dtype=np.int64)
        labels = _propagate_labels(masks, n, pairs)
        out[lo : lo + len(masks)] = (labels == vidx).sum(axis=1).astype(np.uint8)
    return out


def _check_enum_guard(n: int) -> None:
    if n > ENUM_GUARD_N:
        raise GuardError(f"class enumeration guarded to n <= {ENUM_GUARD_N}, got n={n}")
    if n < 2:
        raise GuardError("enumeration needs n >= 2")


@lru_cache(maxsize=None)
def _graph_orbits(n: int, m: int) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """(canonical masks, automorphism group sizes, labeled connected count)."""
    _check_enum_guard(n)
    num_pairs = comb(n, 2)
    if not 0 <= m <= num_pairs:
        raise ValueError(f"no graphs with n={n}, m={m}")
    table = _connectivity_table(n)
    all_masks = np.nonzero(table == 1)[0]
    pops = np.bitwise_count(all_masks.astype(np.int64))
    cand = all_masks[pops == m]
    labeled = int(len(cand))
    seen: set[int] = set()
    reps: list[int] = []
    auts: list[int] = []
    for mask in cand:
        mask = int(mask)
        if mask in seen:
            continue
        images = canon.orbit_images(n, mask)
        uniq = np.unique(images)
        stab = int((images == mask).sum())
        assert len(uniq) * stab == factorial(n)
        seen.update(int(x) for x in uniq)
        reps.append(int(uniq[0]))
        auts.append(stab)
    order = sorted(range(len(reps)), key=lambda i: reps[i])
    return (
        tuple(reps[i] for i in order),
        tuple(auts[i] for i in order),
        labeled,
    )


def enumerate_graphs(n: int, m: int) -> list[SimpleGraph]:
    """One canonically labeled representative per isomorphism class of
    connected graphs with n vertices and m edges, sorted by canonical key."""
    reps, _, _ = _graph_orbits(n, m)
    return [canon.mask_to_graph(n, mask) for mask in reps]


def labeled_connected_count(n: int, m: int) -> int:
    """Number of labeled connected graphs (direct sweep; completeness oracle)."""
    return _graph_orbits(n, m)[2]


def automorphism_count(n: int, m: int) -> list[int]:
    return list(_graph_orbits(n, m)[1])


def _pair_orbits(n: int, mask: int) -> list[tuple[int, int]]:
    """One representative pair per orbit of Aut(G) on unordered vertex pairs."""
    perms = canon.stabilizer_perms(n, mask)
    seen: set[tuple[int, int]] = set()
    out = []
    for s in range(n):
        for t in range(s + 1, n):
            if (s, t) in seen:
                continue
            orbit = set()
            for p in perms:
                a, b = p[s], p[t]
                orbit.add((a, b) if a < b else (b, a))
            seen.update(orbit)
            out.append(min(orbit))
    return out


def enumerate_two_terminal(n: int, m: int) -> list[TwoTerminalGraph]:
    """Representatives of the two-terminal class: each underlying canonical
    graph equipped with one terminal pair per automorphism orbit.  Sorted by
    (underlying canonical mask, pair)."""
    reps, _, _ = _graph_orbits(n, m)
    out = []
    for mask in reps:
        g = canon.mask_to_graph(n, mask)
        for s, t in _pair_orbits(n, mask):
            out.append(TwoTerminalGraph(g, s, t))
    return out


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

    @classmethod
    def from_json_dict(cls, doc: dict) -> "UniformVerdict":
        if doc["verdict"] == "winner":
            return cls(winner=int(doc["winner_index"]))
        return cls(winner=None, rival=int(doc["rival_index"]), witness=Fraction(doc["witness"]))


@dataclass
class ClassLedger:
    """Everything computed for one (n, m) class: representatives with exact
    signatures, the split-equivalence partition, the failed-edge refinement
    chain with its early-stop level, the locally-most set, and (once decided)
    the uniform verdict."""

    n: int
    m: int
    members: list[TwoTerminalGraph]
    signatures: list[SplitSignature]
    equivalence_classes: list[list[int]]
    chain_levels: list[list[int]]
    early_stop_level: int
    locally_most: list[int]
    labeled_connected: int
    uniform: Optional[UniformVerdict] = None

    def to_json_dict(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "n": self.n,
            "m": self.m,
            "members": [to_json_dict(g) for g in self.members],
            "signatures": [[str(c) for c in s.counts] for s in self.signatures],
            "equivalence_classes": self.equivalence_classes,
            "chain_levels": self.chain_levels,
            "early_stop_level": self.early_stop_level,
            "locally_most": self.locally_most,
            "labeled_connected": self.labeled_connected,
            "uniform": None if self.uniform is None else self.uniform.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ClassLedger":
        members = [from_json_dict(d) for d in doc["members"]]
        n, m = int(doc["n"]), int(doc["m"])
        sigs = [
            SplitSignature(n, m, tuple(int(c) for c in row)) for row in doc["signatures"]
        ]
        return cls(
            n=n,
            m=m,
            members=members,
            signatures=sigs,
            equivalence_classes=[list(map(int, c)) for c in doc["equivalence_classes"]],
            chain_levels=[list(map(int, c)) for c in doc["chain_levels"]],
            early_stop_level=int(doc["early_stop_level"]),
            locally_most=list(map(int, doc["locally_most"])),
            labeled_connected=int(doc["labeled_connected"]),
            uniform=None
            if doc.get("uniform") is None
            else UniformVerdict.from_json_dict(doc["uniform"]),
        )

    def to_csv(self) -> str:
        """One row per representative for spreadsheet inspection."""
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
            key = canon.canonical_form(g)[2]
            prefix = ";".join(str(sig.f_value(j)) for j in range(1, min(self.m, 6) + 1))
            w.writerow([i, key, prefix, eq_of[i], survives[i]])
        return buf.getvalue()


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


def refine_chain(
    n: int,
    m: int,
    cache_dir: Optional[Path | str] = None,
) -> ClassLedger:
    """Full class ledger for (n, m): enumerate, classify signatures, refine."""
    cached = _load_ledger(cache_dir, n, m)
    if cached is not None:
        return cached
    _check_enum_guard(n)
    reps, _, labeled = _graph_orbits(n, m)
    members: list[TwoTerminalGraph] = []
    signatures: list[SplitSignature] = []
    for mask in reps:
        g = canon.mask_to_graph(n, mask)
        cls = classify_subsets(g)
        for s, t in _pair_orbits(n, mask):
            members.append(TwoTerminalGraph(g, s, t))
            signatures.append(SplitSignature(n, m, cls.split_counts(s, t)))
    levels, stop = refine_members(signatures)
    by_sig: dict[tuple[int, ...], list[int]] = {}
    for i, sig in enumerate(signatures):
        by_sig.setdefault(sig.counts, []).append(i)
    eq_classes = sorted(by_sig.values(), key=lambda c: c[0])
    ledger = ClassLedger(
        n=n,
        m=m,
        members=members,
        signatures=signatures,
        equivalence_classes=eq_classes,
        chain_levels=levels,
        early_stop_level=stop,
        locally_most=levels[-1],
        labeled_connected=labeled,
        uniform=None,
    )
    _store_ledger(cache_dir, ledger)
    return ledger


def uniform_check(
    n: int,
    m: int,
    cache_dir: Optional[Path | str] = None,
) -> UniformVerdict:
    """Decide whether the class has a uniformly most split reliable graph.

    Any winner must be locally most (dominance near p=1 is necessary), so the
    candidate is the locally-most class; it is tested against every distinct
    rival signature, most promising first (lexicographically largest
    N-vector, the likely near-0 refuter).
    """
    ledger = refine_chain(n, m, cache_dir)
    if ledger.uniform is not None:
        return ledger.uniform
    candidate_idx = ledger.locally_most[0]
    cand_sig = ledger.signatures[candidate_idx]
    cand_poly = sr_polynomial(cand_sig)
    rivals = sorted(
        ledger.equivalence_classes,
        key=lambda cls: ledger.signatures[cls[0]].counts,
        reverse=True,
    )
    verdict = UniformVerdict(winner=candidate_idx)
    for cls in rivals:
        sig = ledger.signatures[cls[0]]
        if sig.counts == cand_sig.counts:
            continue
        res = dominates_on_unit_interval(cand_poly, sr_polynomial(sig))
        if not res.dominates:
            verdict = UniformVerdict(winner=None, rival=cls[0], witness=res.witness)
            break
    ledger.uniform = verdict
    _store_ledger(cache_dir, ledger)
    return verdict


def balloon_member_index(ledger: ClassLedger) -> int:
    """Index of the two-terminal balloon's representative in the ledger."""
    target = canon.canonical_form(two_terminal_balloon(ledger.n, ledger.m))
    for i in ledger.locally_most:
        if canon.canonical_form(ledger.members[i]) == target:
            return i
    # fall back to scanning everything (the balloon must be present somewhere)
    for i, g in enumerate(ledger.members):
        if canon.canonical_form(g) == target:
            return i
    raise AssertionError("two-terminal balloon not found among representatives")


def verify_balloon_characterization(
    n: int, m: int, cache_dir: Optional[Path | str] = None
) -> dict:
    """Check that the locally-most set is exactly the split-equivalence class
    of the two-terminal balloon, and that the refinement's early stop was a
    genuine all-equivalent level."""
    ledger = refine_chain(n, m, cache_dir)
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


def near_zero_refuter(
    ledger: ClassLedger,
) -> tuple[int, Ordering, Optional[int]]:
    """The N-lexicographically largest rival and its comparison against the
    locally-most candidate (index of first difference included)."""
    candidate_idx = ledger.locally_most[0]
    best = max(range(len(ledger.signatures)), key=lambda i: ledger.signatures[i].counts)
    order, idx = compare_near_zero_index(
        ledger.signatures[best], ledger.signatures[candidate_idx]
    )
    return best, order, idx


# ---------------------------------------------------------------------------
# cache

def _ledger_path(cache_dir: Path | str, n: int, m: int) -> Path:
    return Path(cache_dir) / f"ledger_v{FORMAT_VERSION}_n{n}_m{m}.json"


def _load_ledger(cache_dir: Optional[Path | str], n: int, m: int) -> Optional[ClassLedger]:
    if cache_dir is None:
        return None
    path = _ledger_path(cache_dir, n, m)
    if not path.exists():
        return None
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    if doc.get("format_version") != FORMAT_VERSION:
        return None  # stale versions are ignored, never migrated
    return ClassLedger.from_json_dict(doc)


def _store_ledger(cache_dir: Optional[Path | str], ledger: ClassLedger) -> None:
    if cache_dir is None:
        return
    path = _ledger_path(cache_dir, ledger.n, ledger.m)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger.to_json_dict()))
    tmp.replace(path)
