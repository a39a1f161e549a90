"""Cold-run benchmark for splitrel.

    python3 perfbench/run.py --workload table --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

Each pass of a workload runs in a fresh interpreter (perfbench/worker.py), so
every cache starts empty.  Passes repeat while the next one still fits in
`--seconds` (at least one runs); before them, a few set-up-only interpreters
time the set-up again.  Each metric is the median over the passes.

With `--trace 0` the result holds the end-to-end metrics.  With `--trace 1`
every untraced pass is followed by a traced one, and the result holds the
per-layer metrics of the traced passes plus `trace.overhead_frac`.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.  The
run record (machine, versions, commit, load) goes to `.perfbench-out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("table", "claims", "coeffs")
SETUP_PROBES = 4
PASS_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """A pass could not run; the benchmark prints no result."""


def _pass(workload: str, seed: int, *extra: str) -> dict:
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
    )
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), *extra]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=PASS_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} pass exceeded {PASS_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_commit() -> str:
    """HEAD of the checkout, read without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """All passes of one run, with the run record."""
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "commit": _git_commit(),
        "loadavg_before": os.getloadavg(),
    }
    probes = [_pass(workload, seed, "--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]
    plain: list[dict] = []
    traced: list[dict] = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        plain.append(_pass(workload, seed))
        if trace:
            OUT.mkdir(exist_ok=True)
            spans = OUT / f"spans-{workload}-seed{seed}-pass{len(traced)}.jsonl"
            traced.append(_pass(workload, seed, "--trace", "--spans", str(spans)))
        took = time.perf_counter() - began
        if time.perf_counter() - start + took > seconds:
            break
    record["loadavg_after"] = os.getloadavg()
    record["numpy"] = plain[0]["numpy"]
    record["setup_probes_s"] = probes
    return {"record": record, "plain": plain, "traced": traced}


def summarize(run: dict, units: dict[str, str]) -> dict:
    """The result object: correctness over every pass, metric medians."""
    plain, traced = run["plain"], run["traced"]
    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    # every pass of one seed, traced or not, must produce the same outputs;
    # an item missing from a pass has already counted as failed there
    first = plain[0]["digests"]
    for p in passes[1:]:
        failed += sum(1 for k in first.keys() & p["digests"].keys() if first[k] != p["digests"][k])
    med = statistics.median
    if traced:
        values = {name: med(p["layers"][name] for p in traced) for name in traced[0]["layers"]}
        wall = med(p["wall_s"] for p in plain)
        values["trace.overhead_frac"] = med(p["wall_s"] for p in traced) / wall - 1
    else:
        values = {
            "wall_s": med(p["wall_s"] for p in plain),
            "setup_s": med(run["record"]["setup_probes_s"] + [p["setup_s"] for p in plain]),
            "peak_rss_mb": med(p["peak_rss_mb"] for p in plain),
        }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def report(workload: str, run: dict, result: dict) -> None:
    """Human-readable lines before the result; the run record is saved."""
    for p in run["plain"] + run["traced"]:
        kind = "traced" if p["traced"] else "pass"
        print(
            f"{workload} {kind}: wall_s {p['wall_s']:.3f} s, setup_s {p['setup_s']:.3f} s, "
            f"peak_rss_mb {p['peak_rss_mb']:.1f} MB, failed_frac {p['failed'] / p['attempted']:.4f} ratio"
        )
        for f in p["failures"]:
            print(f"  FAILED {f['item']}: {'; '.join(f['problems'])}")
    if run["traced"] and run["traced"][0]["absent"]:
        print(f"{workload} absent boundaries: {', '.join(run['traced'][0]['absent'])}")
    frac = result["failed"] / result["attempted"]
    print(f"{workload} failed_frac {frac:.4f} ratio over {result['attempted']} items")
    for name, m in result["metrics"].items():
        print(f"{workload} {name} {m['value']:.6g} {m['unit']}")
    OUT.mkdir(exist_ok=True)
    tag = f"{workload}-seed{run['record']['seed']}-trace{int(run['record']['trace'])}"
    (OUT / f"run-{tag}.json").write_text(json.dumps({**run, "result": result}, indent=1))
    print("record " + json.dumps(run["record"]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Cold-run benchmark for splitrel")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "splitrel" / "__init__.py").is_file():
        print(f"error: no splitrel sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in metrics}

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            run = measure(name, args.seed, args.seconds, bool(args.trace))
            results[name] = summarize(run, units)
            report(name, run, results[name])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    else:
        final = results[args.workload]
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
