"""Span-recording wrappers around the calls that cross between splitrel's
modules, installed from outside the package and only in a traced pass.

A wrapper replaces every module global of `splitrel.*` that is bound to the
wrapped function, so the defining module's own calls and every importer's
calls are seen alike (`enumeration.classify_subsets` and
`counting.classify_subsets` are one boundary).  That captures nesting such as
uniform_check > refine_chain > classify_subsets.

Each span records its name, start, end, parent span and the benchmark item
it ran under.  Spans stay in memory until the pass ends.  A layer's self time
is its spans' durations minus the time their child spans cover.

A boundary whose module or function does not exist at the measured commit is
reported as absent; its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from fractions import Fraction

BOUNDARIES = {
    "counting": [
        "classify_subsets",
        "split_coefficients",
        "connected_coefficients",
        "spanning_tree_count",
        "two_tree_count",
        "monte_carlo_sr",
    ],
    "signature": ["dominates_on_unit_interval", "sr_polynomial", "evaluate"],
    "enumeration": ["uniform_check", "refine_chain", "enumerate_graphs"],
    "canon": ["orbit_images", "stabilizer_perms", "isomorphic"],
    "graphs": ["bridges", "edge_connectivity", "count_min_separators", "skeleton"],
    "families": ["max_bridges", "variant_with_context", "sr_composition", "balloon_profile"],
    "checks": [
        "check_prop1",
        "check_prop2",
        "check_prop3",
        "check_thm2",
        "check_skeleton_characterization",
        "check_remark2",
        "check_remark3",
        "check_remark4",
        "check_lemma13",
        "check_lemma14",
        "check_lemma15",
        "check_bogdanowicz",
        "check_composition",
        "check_closed_forms",
    ],
}

# Boundaries that also report latency percentiles of their calls.
HOT = ("counting.classify_subsets", "signature.dominates_on_unit_interval")

# Witnesses the dominance decision's presample grid can return.
GRID = frozenset(
    [Fraction(0), Fraction(1), Fraction(1, 1024), Fraction(1023, 1024)]
    + [Fraction(k, 64) for k in range(1, 64)]
)


def boundary_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in BOUNDARIES.items() for fn in fns]


def metric_names() -> list[str]:
    """Every per-layer metric a traced pass reports, in a fixed order."""
    out = []
    for name in boundary_names():
        if name.startswith("checks."):
            out.append(f"{name}.self_s")
            continue
        out += [f"{name}.calls", f"{name}.self_s"]
        if name in HOT:
            out += [f"{name}.p50_us", f"{name}.p99_us"]
    return out + [
        "counting.subsets_swept",
        "counting.useful_subset_frac",
        "counting.mc_trials_per_s",
        "signature.dominance.crossings",
        "signature.dominance.grid_witnesses",
        "enumeration.members",
    ]


# Observers read a boundary's arguments and result into named counters.
# They tolerate a changed result shape: a counter they cannot read stays put.


def _observe_classify(counters, args, kwargs, result):
    counters["counting.subsets_swept"] += 1 << result.m
    useful = sum(result.connected) + sum(sum(c) for c in result.split_sides.values())
    counters["counting.useful_subsets"] += useful


def _observe_dominance(counters, args, kwargs, result):
    if not result.dominates:
        counters["signature.dominance.crossings"] += 1
        if result.witness in GRID:
            counters["signature.dominance.grid_witnesses"] += 1


def _observe_members(counters, args, kwargs, result):
    members = getattr(result, "members", result)
    counters["enumeration.members"] += len(members)


def _observe_mc(counters, args, kwargs, result):
    counters["counting.mc_trials"] += kwargs["trials"] if "trials" in kwargs else args[2]


OBSERVERS = {
    "counting.classify_subsets": _observe_classify,
    "signature.dominates_on_unit_interval": _observe_dominance,
    "enumeration.enumerate_graphs": _observe_members,
    "enumeration.refine_chain": _observe_members,
    "counting.monte_carlo_sr": _observe_mc,
}


class Tracer:
    """Installs the wrappers, records spans and counters, and computes the
    per-layer metrics.  Use as a context manager; leaving it restores every
    replaced binding."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, item]
        self.counters: dict[str, int] = defaultdict(int)
        self.item = None
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = OBSERVERS.get(name)
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                try:
                    observe(counters, args, kwargs, result)
                except (AttributeError, TypeError, IndexError, KeyError):
                    pass
            return result

        return wrapper

    def install(self) -> "Tracer":
        present = {}
        for mod_name, fns in BOUNDARIES.items():
            try:
                present[mod_name] = importlib.import_module(f"splitrel.{mod_name}")
            except ImportError:
                self.absent += [f"{mod_name}.{fn}" for fn in fns]
        modules = [m for k, m in sys.modules.items() if k == "splitrel" or k.startswith("splitrel.")]
        for mod_name, mod in present.items():
            for fn_name in BOUNDARIES[mod_name]:
                orig = getattr(mod, fn_name, None)
                if not callable(orig):
                    self.absent.append(f"{mod_name}.{fn_name}")
                    continue
                wrapper = self._wrap(f"{mod_name}.{fn_name}", orig)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is orig:
                            setattr(module, attr, wrapper)
                            self._restore.append((module, attr, orig))
        return self

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._restore):
            setattr(module, attr, orig)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics from the recorded spans and counters."""
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        durations: dict[str, list[float]] = defaultdict(list)
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        for (name, start, end, _, _), inner in zip(self.spans, child_s):
            calls[name] += 1
            self_s[name] += end - start - inner
            if name in HOT:
                durations[name].append(end - start)
        out: dict[str, float] = {}
        for name in boundary_names():
            if not name.startswith("checks."):
                out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        for name in HOT:
            out[f"{name}.p50_us"] = _percentile(durations[name], 50) * 1e6
            out[f"{name}.p99_us"] = _percentile(durations[name], 99) * 1e6
        c = self.counters
        swept = c["counting.subsets_swept"]
        mc_s = sum(e - s for n, s, e, _, _ in self.spans if n == "counting.monte_carlo_sr")
        out.update(
            {
                "counting.subsets_swept": swept,
                "counting.useful_subset_frac": c["counting.useful_subsets"] / swept if swept else 0.0,
                "counting.mc_trials_per_s": c["counting.mc_trials"] / mc_s if mc_s else 0.0,
                "signature.dominance.crossings": c["signature.dominance.crossings"],
                "signature.dominance.grid_witnesses": c["signature.dominance.grid_witnesses"],
                "enumeration.members": c["enumeration.members"],
            }
        )
        return {name: out[name] for name in metric_names()}

    def write_spans(self, path) -> None:
        """One JSON array per span: name, start, end, parent index, item."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]
