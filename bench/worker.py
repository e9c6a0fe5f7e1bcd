"""One repetition of a workload, in a fresh process.

run.py starts this script once per repetition, with BLAS and OpenMP thread
pools pinned to one thread.  It imports p_potential from the checkout's
src/, generates the workload's graph file with build_* and save_graph, runs
the ops in order through p_potential.cli.main, checks every op's outputs
against reference.json and prints one JSON object on stdout.

    python3 bench/worker.py --workload NAME --seed N --spawn-time T
                            [--trace-file PATH] [--workdir DIR]

--spawn-time is the parent's time.perf_counter() just before it started
this process (CLOCK_MONOTONIC, shared by all processes), so setup_s runs
from process start to the end of set-up.  The fixed work of speed.py is
timed before the first op and after every op, outside the ops' times.
With --trace-file the public functions of each module are wrapped
(spans.py) and the spans are appended to that file at the end.  With --workdir the outputs are written there and
kept; otherwise they go to a temporary directory that is removed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

import outputs
import speed
from workloads import GRAPH_FILE, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
MIN_SPEED_SAMPLES = 6


def load_reference(workload: str) -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)["workloads"][workload]


def run_op(main, op, tracer=None, op_id=None) -> dict:
    """Run one op through ``main``; a failure is recorded, never raised."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            if tracer is None:
                code = main(list(op.argv))
            else:
                code = tracer.run_op(op_id, main, list(op.argv))
        except SystemExit as exc:          # argparse rejects the argv
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception as exc:           # an error the CLI does not catch
            code = None
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if tracer is not None:
            # the op's root span, so that self times sum to job_s exactly
            seconds = tracer.op_seconds(op_id)
    return {"key": op.key, "exit": code, "seconds": seconds,
            "stdout_bytes": len(out.getvalue().encode()),
            "error": error or err.getvalue().strip() or None}


def check_op(op, result: dict, reference: dict) -> None:
    """Fill result["passed"] and result["problems"]; outputs are read from
    the current directory.  Only an op that exited 0 has outputs to check."""
    problems = []
    if result["exit"] != 0:
        problems.append(f"exit status {result['exit']}")
    elif op.key not in reference["ops"]:
        problems.append("no reference values recorded for this op")
    else:
        try:
            problems = outputs.compare(op, outputs.extract(op),
                                       reference["ops"][op.key])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"unreadable outputs: {type(exc).__name__}: {exc}")
    result["passed"] = not problems
    result["wrong_output"] = result["exit"] == 0 and bool(problems)
    result["problems"] = problems[:10]


def run_ops(main, ops, reference, tracer=None, calibration=None) -> list:
    """Run and check the ops in order; with a calibration, take a point
    of its samples before the first op and after every op, at least
    MIN_SPEED_SAMPLES samples in all."""
    per_point = -(-MIN_SPEED_SAMPLES // (len(ops) + 1))

    def calibrate():
        if calibration is not None:
            calibration.point(per_point)

    calibrate()
    results = []
    for op_id, op in enumerate(ops):
        result = run_op(main, op, tracer, op_id)
        calibrate()
        check_op(op, result, reference)
        results.append(result)
    return results


def output_bytes(workdir: Path, results: list) -> int:
    files = sum(path.stat().st_size for path in workdir.iterdir()
                if path.is_file() and path.name != GRAPH_FILE)
    return files + sum(r["stdout_bytes"] for r in results)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawn-time", type=float, required=True)
    parser.add_argument("--trace-file")
    parser.add_argument("--workdir")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    import p_potential
    from p_potential import cli

    workload = WORKLOADS[args.workload]
    reference = load_reference(workload.name)
    ops = workload.make_ops(args.seed)
    if args.workdir:
        workdir = Path(args.workdir).resolve()
        workdir.mkdir(parents=True, exist_ok=True)
    else:
        scratch = ROOT / ".bench_out" / "work"
        scratch.mkdir(parents=True, exist_ok=True)
        workdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        os.chdir(workdir)
        p_potential.save_graph(workload.build_graph(p_potential), GRAPH_FILE)
        tracer = None
        if args.trace_file:
            import spans
            tracer = spans.Tracer()
            tracer.install()
        setup_end = time.perf_counter()
        calibration = speed.Calibration()
        results = run_ops(cli.main, ops, reference, tracer, calibration)
        written = output_bytes(workdir, results)
    finally:
        os.chdir(ROOT)
        if not args.workdir:
            shutil.rmtree(workdir, ignore_errors=True)

    versions = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                "scipy": scipy.__version__}
    layers = self_sum = None
    if tracer is not None:
        tracer.counts["cli.output_bytes"] = written
        layers = tracer.layer_metrics()
        self_sum = sum(tracer.self_times())
        tracer.write(args.trace_file, {"workload": workload.name,
                                       "seed": args.seed, "pid": os.getpid(),
                                       "versions": versions})
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump({"setup_s": setup_end - args.spawn_time,
               "job_s": sum(r["seconds"] for r in results),
               "peak_rss_mb": peak_kib * 1024 / 1e6,
               "output_bytes": written,
               "ops": results, "versions": versions, "layers": layers,
               "self_sum_s": self_sum, "speed_points": calibration.points},
              sys.stdout, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
