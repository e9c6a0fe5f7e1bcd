"""Record the reference values the output check compares against.

    python3 bench/record_reference.py

Runs every workload's ops once through p_potential.cli.main (seed 0; no
checked field depends on the seed) and writes bench/reference.json with
each op's checked fields (see outputs.py), the ball size |B_R| of every
radius and the commit it ran at.  A flow op that exits non-zero cannot give
its values through the CLI; for it the same pipeline runs through the
library with a tighter Newton gradient tolerance (grad_tol=1e-14), and the
op's entry says so.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import outputs
from run import git_sha
from worker import REFERENCE, ROOT, SRC, run_op
from workloads import GRAPH_FILE, WORKLOADS

TIGHT_GRAD_TOL = 1e-14


def library_flow_row(pp, op) -> dict:
    """The fields `flow` would report, from a solve with TIGHT_GRAD_TOL."""
    graph = pp.load_graph(GRAPH_FILE)
    profile = pp.ball_profile(graph)
    params = pp.ExponentParams(p=op.p, sigma=op.sigma)
    (R,) = op.radii
    green = pp.solve_green(graph, profile, R, op.p,
                           options=pp.SolveOptions(grad_tol=TIGHT_GRAD_TOL))
    flow = pp.orient_flow(graph, profile, green)
    measure = pp.decompose_paths(flow)
    chain = pp.empirical_lower_bound(graph, profile, green, flow, measure,
                                     params)
    structural = pp.flow_checks(graph, profile, flow)
    row = {"L": chain.L, "lower_bound": chain.rhs,
           "chain": [{"name": c.name, "lower": c.lower, "upper": c.upper,
                      "margin": float(c.margin), "ok": bool(c.ok)}
                     for c in chain.checks],
           "probability_sum": float(measure.probabilities.sum()),
           "residual": max(structural["conservation_defect"],
                           outputs.RESIDUAL_FLOOR)}
    return {str(R): json.loads(json.dumps(row))}


def record_workload(pp, cli, workload) -> dict:
    graph = workload.build_graph(pp)
    pp.save_graph(graph, GRAPH_FILE)
    profile = pp.ball_profile(graph)
    entries = {}
    for op in workload.make_ops(0):
        result = run_op(cli.main, op)
        if result["exit"] == 0:
            rows, source = outputs.extract(op), "cli"
        elif op.kind == "flow":
            rows = library_flow_row(pp, op)
            source = (f"library, grad_tol={TIGHT_GRAD_TOL:g}: the CLI op "
                      f"exits {result['exit']} here ({result['error']})")
        else:
            raise SystemExit(f"{workload.name}/{op.key} failed: {result}")
        entries[op.key] = {
            "source": source,
            "ball_size": {str(R): int(profile.ball_mask(R).sum())
                          for R in op.radii},
            "rows": rows}
        print(f"{workload.name}/{op.key}: {source}", file=sys.stderr)
    return {"ops": entries}


def main() -> int:
    sys.path.insert(0, str(SRC))
    import p_potential as pp
    from p_potential import cli

    scratch = ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch)
    try:
        os.chdir(workdir)
        payload = {"commit": git_sha(),
                   "workloads": {name: record_workload(pp, cli, workload)
                                 for name, workload in WORKLOADS.items()}}
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
