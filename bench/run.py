"""The p-potential benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's job (its ops, in order) repeatedly for about S seconds.
Each repetition is a fresh single-threaded process (worker.py) that imports
p_potential from src/, generates the workload's graph file and times the
ops from outside, through p_potential.cli.main, checking every op's
outputs.  The run prints each metric by name and unit, with quartiles over
the repetitions, and as its last line one JSON object with the keys
correct, attempted, failed and metrics.

Every time is rescaled to one fixed machine speed (speed.py): multiplied by
speed.REFERENCE_S over the median time of the fixed calibration work the
worker timed just before and after the op, or, for set-up and per-layer
times, over the median of all the repetition's samples.  The wall times are
printed too.

With --trace 0 the metrics are the end-to-end ones (medians): setup_s,
job_s and peak_rss_mb; failed_ops_frac is printed and carried by
attempted/failed.  With --trace 1 repetitions alternate between untraced and
traced (spans.py); the metrics are the per-layer ones from the traced
repetitions, and trace.overhead_s is the traced minus the untraced median
job_s.  Spans go to .bench_out/traces/<workload>-seed<N>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import REFERENCE_S
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TRACES = ROOT / ".bench_out" / "traces"

# The one process measures the program, not the scheduler.
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

MIN_REPS = 5             # untraced repetitions with --trace 0
MIN_TRACE_PAIRS = 2      # (untraced, traced) pairs with --trace 1
RUN_LIMIT_S = 150.0      # no repetition starts that could end past this

END_TO_END = (("setup_s", "s"), ("job_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER = (
    "graphs.load_graph_s", "graphs.ball_profile_s", "graphs.ball_profile_calls",
    "dirichlet.minimize_calls", "dirichlet.newton_iters", "dirichlet.self_s",
    "dirichlet.splu_calls", "dirichlet.splu_s", "dirichlet.lu_nnz",
    "green.solve_green_calls", "green.solve_green_s", "green.capacity_calls",
    "green.capacity_s", "green.normalization_check_s", "green.probe_s",
    "flows.orient_flow_s", "flows.orient_flow_failures",
    "flows.decompose_paths_s", "flows.paths", "flows.path_vertices",
    "flows.audit_s", "flows.edge_marginals_s",
    "criterion.s", "verify.run_suites_s", "verify.shoot_s",
    "cli.self_s", "cli.output_bytes",
    "trace.job_s", "trace.overhead_s", "trace.count_s")


def unit_of(metric: str) -> str:
    return "s" if metric.endswith("_s") or metric == "criterion.s" else "count"


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() or "unknown"


def spawn(workload: str, seed: int, trace_file: Path | None,
          timeout: float) -> tuple:
    """Run one repetition; return (worker result, wall seconds)."""
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
            "--seed", str(seed)]
    if trace_file is not None:
        argv += ["--trace-file", str(trace_file)]
    env = dict(os.environ, **THREAD_ENV)
    start = time.perf_counter()
    done = subprocess.run(argv + ["--spawn-time", repr(start)], env=env,
                          capture_output=True, text=True, timeout=timeout,
                          check=False)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"worker exited {done.returncode}:\n"
                           + done.stderr[-4000:])
    return json.loads(done.stdout.splitlines()[-1]), wall


def repetitions(args) -> list:
    """Worker results, (result, traced) pairs, until the time is used."""
    trace_file = None
    if args.trace:
        TRACES.mkdir(parents=True, exist_ok=True)
        trace_file = TRACES / f"{args.workload}-seed{args.seed}.jsonl"
        trace_file.unlink(missing_ok=True)
    minimum = 2 * MIN_TRACE_PAIRS if args.trace else MIN_REPS
    start = time.perf_counter()
    reps, walls = [], []
    while True:
        elapsed = time.perf_counter() - start
        typical = statistics.median(walls) if walls else 0.0
        if len(reps) >= minimum and elapsed + typical > args.seconds:
            break
        if walls and elapsed + 1.5 * max(walls) > RUN_LIMIT_S:
            break
        traced = bool(args.trace) and len(reps) % 2 == 1
        result, wall = spawn(args.workload, args.seed,
                             trace_file if traced else None,
                             RUN_LIMIT_S + 20.0 - elapsed)
        reps.append((result, traced))
        walls.append(wall)
    return reps


def speed_factor(result: dict) -> float:
    """Multiplier from a repetition's wall seconds to reference seconds."""
    return REFERENCE_S / statistics.median(
        sample for point in result["speed_points"] for sample in point)


def rescaled_job(result: dict) -> float:
    """job_s in reference seconds, each op by the points around it."""
    points = result["speed_points"]
    return sum(op["seconds"] * REFERENCE_S
               / statistics.median(points[i] + points[i + 1])
               for i, op in enumerate(result["ops"]))


def quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "p_potential" / "__init__.py").is_file():
        print(f"p_potential sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        reps = repetitions(args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    ops = [op for result, _ in reps for op in result["ops"]]
    attempted = len(ops)
    failed = sum(not op["passed"] for op in ops)
    correct = not any(op["wrong_output"] for op in ops)
    plain = [result for result, traced in reps if not traced]
    traced = [result for result, is_traced in reps if is_traced]

    versions = reps[0][0]["versions"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}"
          f"  trace {args.trace}  repetitions {len(plain)} untraced, "
          f"{len(traced)} traced")
    print(f"provenance  git {git_sha()}  python {versions['python']}  "
          f"numpy {versions['numpy']}  scipy {versions['scipy']}  "
          f"nproc {os.cpu_count()}  seed {args.seed}  "
          + " ".join(f"{k}={v}" for k, v in THREAD_ENV.items()))

    metrics = {}

    def report(name: str, unit: str, values: list) -> None:
        q1, med, q3 = quartiles(values)
        metrics[name] = {"value": med, "unit": unit}
        print(f"{name:30s} {med:14.6g} {unit:6s} q1 {q1:.6g}  q3 {q3:.6g}  "
              f"n {len(values)}")

    def rescaled(result: dict, name: str, value: float) -> float:
        """A time in reference seconds; any other value as it is."""
        return value * speed_factor(result) if unit_of(name) == "s" else value

    if args.trace:
        # trace.job_s is rescaled like the self times, so that they sum to
        # it; the overhead compares job times rescaled op by op
        plain_job = statistics.median(rescaled_job(r) for r in plain)
        measured = {
            "trace.job_s": [rescaled(r, "job_s", r["job_s"]) for r in traced],
            "trace.overhead_s": [rescaled_job(r) - plain_job for r in traced]}
        for name in PER_LAYER:
            values = measured.get(name) or [
                rescaled(r, name, r["layers"][name]) for r in traced]
            report(name, unit_of(name), values)
    else:
        report("setup_s", "s", [rescaled(r, "setup_s", r["setup_s"])
                                for r in plain])
        report("job_s", "s", [rescaled_job(r) for r in plain])
        report("peak_rss_mb", "MB", [r["peak_rss_mb"] for r in plain])
        # printed only: the wall times and the factors that rescaled them
        for label, values in (("setup_s (wall)", [r["setup_s"] for r in plain]),
                              ("job_s (wall)", [r["job_s"] for r in plain]),
                              ("speed factor", [speed_factor(r) for r in plain])):
            q1, med, q3 = quartiles(values)
            print(f"{label:30s} {med:14.6g}        q1 {q1:.6g}  q3 {q3:.6g}")
    print(f"{'failed_ops_frac':30s} {failed / attempted:14.6g} fraction "
          f"({failed} of {attempted} ops)")
    for op in ops:
        if not op["passed"]:
            print(f"  failed op {op['key']}: {op['problems'][0]}"
                  + (f"; {op['error']}" if op["error"] else ""))
            break

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
