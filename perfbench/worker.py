"""One cold pass of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload table --seed 1 [--trace --spans FILE]
    python3 perfbench/worker.py --workload table --seed 1 --setup-only
    python3 perfbench/worker.py --workload table --seed 0 --write-reference

Set-up (importing numpy and splitrel, generating the inputs) is timed from the
first line of this file; the measured section runs from the first library
call to the last output check.  The pass prints one JSON object on stdout.
`--write-reference` runs the pass untraced and stores the exact-output
digests of the pinned items in reference.json.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", help="file for the traced pass's spans")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)

    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    import numpy

    import workloads

    items = workloads.build(args.workload, args.seed)
    setup_s = time.perf_counter() - _START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if args.write_reference:
        reference = {}
    else:
        reference = json.loads(REFERENCE.read_text())

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer().install()
    start, cpu_start = time.perf_counter(), time.process_time()
    result = workloads.run_items(items, reference, tracer)
    wall_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu_start
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        result["absent"] = tracer.absent
        if args.spans:
            tracer.write_spans(args.spans)

    if args.write_reference:
        pinned = {i.id for i in items if i.in_reference}
        stored = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        stored.update({k: v for k, v in result["reference_digests"].items() if k in pinned})
        REFERENCE.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")

    result.update(
        workload=args.workload,
        seed=args.seed,
        traced=args.trace,
        setup_s=setup_s,
        wall_s=wall_s,
        cpu_s=cpu_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        numpy=numpy.__version__,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
