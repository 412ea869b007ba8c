"""Benchmark entry point.

    python3 perfbench/run.py --workload picard_a5 --seed 1 --seconds 40 --trace 0

Run from the root of a checkout that holds `src/cusplab`.  Every round of a
workload runs in its own fresh single-threaded interpreter
(OPENBLAS_NUM_THREADS=1, OMP_NUM_THREADS=1), one process at a time, the way
a user starts the CLI.  Whole rounds run while the next one is expected to
end inside --seconds.  With --trace 0 the last line of standard output is
the JSON result with the end-to-end metrics; with --trace 1 it holds the
per-layer metrics of a traced run.  Run outputs go to
.perfbench_runs/<workload>/ under the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

from spans import layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
WORKLOAD_NAMES = ("picard_a5", "green_sweep", "picard_n3")
DEADLINE_S = 170.0


class ChildFailed(RuntimeError):
    pass


def child_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


def run_child(argv, env, deadline):
    """Start child.py and return (seconds until its READY line, its RESULT
    object or None).  The child is killed at `deadline` (a perf_counter
    value) and always waited for."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, CHILD] + argv, stdout=subprocess.PIPE, text=True, env=env)
    timer = threading.Timer(max(0.0, deadline - t0), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise ChildFailed(f"{argv[1]} child exited with code {proc.returncode}")
    result = None
    if rest.startswith("RESULT "):
        result = json.loads(rest[len("RESULT "):])
    return setup_s, result


def show(figures):
    return " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}" for k, v in figures.items())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cusplab benchmark")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "cusplab", "__init__.py")):
        print("no src/cusplab here: run from the root of a cusplab checkout", file=sys.stderr)
        return 2
    out_dir = os.path.abspath(os.path.join(".perfbench_runs", args.workload))
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    env = child_env(src)
    base = ["--workload", args.workload, "--seed", str(args.seed), "--trace", str(args.trace),
            "--out-dir", out_dir, "--src", src]

    setup_samples, rounds = [], []
    try:
        # untimed: fills the bytecode and file caches that a user's second launch finds warm
        run_child(base + ["--setup-only"], env, deadline)
        measure_start = time.perf_counter()
        round_wall = 0.0
        while not rounds or time.perf_counter() - measure_start + round_wall <= args.seconds:
            t0 = time.perf_counter()
            if not args.trace:
                # one extra set-up sample per round, so the median rests on
                # samples spread over the whole run
                setup_samples.append(run_child(base + ["--setup-only"], env, deadline)[0])
            setup_s, result = run_child(base, env, deadline)
            round_wall = time.perf_counter() - t0
            if result is None:
                raise ChildFailed(f"{args.workload} round printed no result")
            setup_samples.append(setup_s)
            rounds.append(result)
            print(
                f"round {len(rounds) - 1}: time_to_solution_s={result['seconds']:.4f} setup_s={setup_s:.4f} "
                f"peak_rss_mb={result['peak_rss_mb']:.1f} {show(result['figures'])}",
                flush=True,
            )
            if time.perf_counter() + round_wall > deadline - 5.0:
                break
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    versions = rounds[0]["versions"]
    print(f"machine: nproc={len(os.sched_getaffinity(0))} numpy={versions['numpy']} "
          f"scipy={versions['scipy']} python={sys.version.split()[0]}")
    failures = [f for r in rounds for f in r["failures"]]
    shas = {json.dumps(r["figures"].get("csv_sha256"), sort_keys=True) for r in rounds}
    if len(shas) > 1:
        failures.append(f"CSV output differs between rounds: {sorted(shas)}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)

    time_to_solution = statistics.median(r["seconds"] for r in rounds)
    print(f"time_to_solution_s: median {time_to_solution:.4f} of {len(rounds)} rounds")
    print(f"setup_s: median {statistics.median(setup_samples):.4f} of {len(setup_samples)} samples")
    if args.trace:
        metrics = {"setup.import_s": {"value": statistics.median(r["import_s"] for r in rounds), "unit": "s"}}
        for name, value in layer_metrics([r["spans"] for r in rounds]).items():
            unit = "s" if name.endswith("_s") or name.endswith(".s") else "count"
            metrics[name] = {"value": value, "unit": unit}
        for name, agg in sorted(rounds[0]["spans"].items()):
            print(f"round 0 span {name}: calls={agg['calls']} s={agg['s']:.4f} self_s={agg['self_s']:.4f} {agg['counts']}")
    else:
        metrics = {
            "time_to_solution_s": {"value": time_to_solution, "unit": "s"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in rounds), "unit": "MB"},
        }
    correct = not failures
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
