"""One round of one workload in a fresh interpreter; started by run.py.

Prints READY as soon as cusplab is imported and the model and grid are
built (run.py times set-up up to that line).  Unless --setup-only is given,
it then draws the inputs, makes the timed call once, checks the outputs,
and ends with one line, RESULT and a JSON object, for run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time

from spans import Tracer, round_summary
from workloads import WORKLOADS


def parse_args(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--src", required=True, help="directory that must hold the imported cusplab")
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload](args.out_dir)
    import_s = workload.setup()
    import cusplab

    src = os.path.realpath(args.src)
    if not os.path.realpath(cusplab.__file__).startswith(src + os.sep):
        print(f"cusplab was imported from {cusplab.__file__}, not from {src}", file=sys.stderr)
        return 2
    print("READY", flush=True)
    if args.setup_only:
        return 0

    workload.make_inputs(args.seed)
    tracer = Tracer() if args.trace else None
    with tracer.installed() if tracer else contextlib.nullcontext():
        t0 = time.perf_counter()
        out = workload.run_round()
        seconds = time.perf_counter() - t0
    figures, failures, failed = workload.check_round(out)
    result = {
        "seconds": seconds,
        "attempted": workload.ops_per_round,
        "failed": failed,
        "failures": failures,
        "figures": figures,
        "import_s": import_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {name: sys.modules[name].__version__ for name in ("numpy", "scipy")},
        "spans": None,
    }
    if tracer:
        tracer.write(os.path.join(args.out_dir, f"trace-{os.getpid()}.json"))
        result["spans"] = round_summary(tracer.spans)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
