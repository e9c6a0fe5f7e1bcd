"""Measure a commit's baseline: repeated runs of every workload.

    python3 bench/baseline.py [--out FILE] [--compare EARLIER_FILE]

Runs ``run.py --trace 0`` ten times on each workload, each with another
seed (1..10), and ``run.py --trace 1`` three times, each run measuring
BENCHMARK.json's run_seconds.  For every
metric it records the quartiles of the run medians and their spread, the
distance between the first and third quartile as a share of the median,
and prints them for the end-to-end metrics.  The result, with provenance,
goes to FILE (default: bench/BASELINE.json).  With --compare it also prints
each end-to-end median's shift from an earlier baseline against the
metric's bound in BENCHMARK.json, in either direction: two sets of runs of
the same code agree only if the shift is within the bound both ways.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

import run
from workloads import WORKLOADS

RUNS = 10
TRACED_RUNS = 3


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run([sys.executable, str(run.BENCH / "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=run.ROOT, capture_output=True, text=True,
                          timeout=200, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def summarize(values: list) -> dict:
    q1, median, q3 = run.quartiles(values)
    return {"q1": q1, "median": median, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "values": values}


def compare(previous: dict, results: dict, spec: dict) -> None:
    """Print each end-to-end median's shift from an earlier baseline."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name, result in results.items():
        for metric, summary in result["end_to_end"].items():
            before = previous["workloads"][name]["end_to_end"][metric]["median"]
            shift = summary["median"] / before - 1.0
            within = abs(shift) <= bounds[metric]
            print(f"{name:18s} {metric:12s} median shift {shift:+.4f} "
                  f"(bound {bounds[metric]}: "
                  f"{'within' if within else 'OUTSIDE'})")


def main(argv=None) -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(run.BENCH / "BASELINE.json"))
    parser.add_argument("--compare", help="an earlier baseline file")
    args = parser.parse_args(argv)

    import numpy
    import scipy
    results = {}
    for name in WORKLOADS:
        runs = [one_run(name, seed, spec["run_seconds"], 0)
                for seed in range(1, RUNS + 1)]
        traced = [one_run(name, seed, spec["run_seconds"], 1)
                  for seed in range(1, TRACED_RUNS + 1)]
        end_to_end = {}
        for metric, unit in run.END_TO_END:
            end_to_end[metric] = dict(
                unit=unit, **summarize([r["metrics"][metric]["value"]
                                        for r in runs]))
            s = end_to_end[metric]
            print(f"{name:18s} {metric:12s} median {s['median']:10.5g} {unit:3s}"
                  f" q1 {s['q1']:.5g} q3 {s['q3']:.5g} spread {s['spread']:.4f}")
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        correct = all(r["correct"] for r in runs + traced)
        print(f"{name:18s} failed_ops_frac {failed / attempted:.4f} "
              f"({failed} of {attempted}); correct {correct}")
        results[name] = {
            "end_to_end": end_to_end,
            "failed_ops_frac": failed / attempted,
            "correct": correct,
            "per_layer": {metric: dict(unit=run.unit_of(metric), **summarize(
                [r["metrics"][metric]["value"] for r in traced]))
                for metric in run.PER_LAYER},
        }

    payload = {
        "commit": run.git_sha(),
        "environment": {"python": platform.python_version(),
                        "numpy": numpy.__version__, "scipy": scipy.__version__,
                        "nproc": os.cpu_count(), "threads": run.THREAD_ENV},
        "run_seconds": spec["run_seconds"],
        "seeds": list(range(1, RUNS + 1)),
        "traced_seeds": list(range(1, TRACED_RUNS + 1)),
        "workloads": results,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    if args.compare:
        with open(args.compare, encoding="utf-8") as fh:
            compare(json.load(fh), results, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
