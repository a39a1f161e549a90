"""Fast tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from splitrel import counting, enumeration  # noqa: E402


def _run(workload, seed=1, reference=None, trace=None):
    items = workloads.build(workload, seed, "tiny")
    return workloads.run_items(items, reference or {}, trace)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_wrappers_do_not_change_outputs(workload):
    plain = _run(workload)
    original = counting.classify_subsets
    with tracer.Tracer() as tr:
        assert counting.classify_subsets is not original
        traced = _run(workload, trace=tr)
        layers = tr.metrics()
    assert counting.classify_subsets is original
    assert plain["failed"] == traced["failed"] == 0
    assert traced["digests"] == plain["digests"]
    assert tr.spans and not tr.absent
    assert list(layers) == tracer.metric_names()
    assert all(span[4] is not None for span in tr.spans)


def test_spans_nest_and_self_time_excludes_children():
    with tracer.Tracer() as tr:
        _run("table")
    names = [s[0] for s in tr.spans]
    assert "enumeration.uniform_check" in names
    inner = next(s for s in tr.spans if s[0] == "counting.classify_subsets")
    chain = []
    while inner[3] >= 0:
        inner = tr.spans[inner[3]]
        chain.append(inner[0])
    assert chain[0] == "enumeration.refine_chain"
    m = tr.metrics()
    total = sum(e - s for n, s, e, p, _ in tr.spans if p < 0)
    self_total = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert self_total == pytest.approx(total, rel=1e-6)
    assert m["counting.subsets_swept"] > 0
    assert 0 < m["counting.useful_subset_frac"] <= 1
    assert m["enumeration.members"] > 0


def test_missing_boundary_is_reported_absent(monkeypatch):
    bounds = {k: list(v) for k, v in tracer.BOUNDARIES.items()}
    bounds["counting"].append("no_such_function")
    bounds["no_such_module"] = ["anything"]
    monkeypatch.setattr(tracer, "BOUNDARIES", bounds)
    with tracer.Tracer() as tr:
        result = _run("coeffs", trace=tr)
    assert result["failed"] == 0
    assert set(tr.absent) == {"counting.no_such_function", "no_such_module.anything"}
    m = tr.metrics()
    assert m["counting.no_such_function.calls"] == 0
    assert m["no_such_module.anything.self_s"] == 0


def test_wrong_output_counts_as_failed(monkeypatch):
    real = counting.two_tree_count
    monkeypatch.setattr(counting, "two_tree_count", lambda g: real(g) + 1)
    result = _run("coeffs")
    assert result["attempted"] == len(workloads.build("coeffs", 1, "tiny"))
    assert result["failed"] == result["attempted"]
    assert all("two_tree_count" in f["problems"][0] for f in result["failures"])


def test_raising_item_counts_and_the_pass_goes_on(monkeypatch):
    real = enumeration.uniform_check

    def flaky(n, m, *args, **kwargs):
        if (n, m) == (5, 7):
            raise RuntimeError("injected")
        return real(n, m, *args, **kwargs)

    monkeypatch.setattr(enumeration, "uniform_check", flaky)
    result = _run("table")
    assert result["failed"] == 1
    assert result["failures"][0]["item"] == "table:5,7"
    assert "RuntimeError: injected" in result["failures"][0]["traceback"]
    assert len(result["digests"]) == result["attempted"] - 1


def test_reference_mismatch_counts_as_failed():
    good = _run("claims")["reference_digests"]
    bad = dict(good, **{"claims:prop3": "0" * 64})
    assert _run("claims", reference=good)["failed"] == 0
    result = _run("claims", reference=bad)
    assert [f["item"] for f in result["failures"]] == ["claims:prop3"]


def test_seed_fixes_inputs():
    def inputs(seed):
        return [(i, g.graph.edges, g.terminals) for i, g, _ in workloads.coeffs_inputs(seed, "tiny")]

    assert inputs(1) == inputs(1)
    assert inputs(1) != inputs(2)
    for w in workloads.WORKLOADS:
        order = [i.id for i in workloads.build(w, 7, "tiny")]
        assert order == [i.id for i in workloads.build(w, 7, "tiny")]


def test_passes_that_disagree_count_as_failed():
    def fake(digests, traced=False):
        return {"attempted": 2, "failed": 0, "digests": digests, "wall_s": 1.0,
                "setup_s": 0.1, "peak_rss_mb": 50.0, "traced": traced, "layers": {}}

    units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    same = {"record": {"setup_probes_s": [0.1]}, "plain": [fake({"a": "1", "b": "2"})] * 2, "traced": []}
    assert run.summarize(same, units)["failed"] == 0
    differ = dict(same, plain=[fake({"a": "1", "b": "2"}), fake({"a": "1", "b": "3"})])
    result = run.summarize(differ, units)
    assert result["failed"] == 1 and not result["correct"]


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == tracer.metric_names() + ["trace.overhead_frac"]
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_reference_pins_every_full_scale_item():
    reference = json.loads((HERE / "reference.json").read_text())
    for w in workloads.WORKLOADS:
        pinned = {i.id for i in workloads.build(w, 0) if i.in_reference}
        assert pinned <= reference.keys()


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
