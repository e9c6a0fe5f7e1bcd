"""The benchmark's own tests.

    python3 -m pytest -q bench/selftest.py

They run the real workloads through worker.py, one process per run, and
take about a minute on two cores.  The file name keeps them out of the
package's default test collection.
"""

from __future__ import annotations

import filecmp
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import outputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from workloads import GRAPH_FILE, WORKLOADS, Op  # noqa: E402

EXACT_COUNTS = ("dirichlet.newton_iters", "dirichlet.splu_calls",
                "dirichlet.lu_nnz", "flows.paths", "flows.path_vertices")


def _worker(workload: str, workdir: Path, trace_file: Path | None = None):
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
            "--seed", "5", "--spawn-time", "0", "--workdir", str(workdir)]
    if trace_file is not None:
        argv += ["--trace-file", str(trace_file)]
    done = subprocess.run(argv, env=dict(os.environ, **run.THREAD_ENV),
                          capture_output=True, text=True, timeout=170,
                          check=True)
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def runs(request, tmp_path_factory):
    """One untraced and two traced runs of a workload, same argv."""
    base = tmp_path_factory.mktemp(request.param)
    plain = _worker(request.param, base / "plain")
    traced = [_worker(request.param, base / f"traced{i}", base / "trace.jsonl")
              for i in range(2)]
    return base, plain, traced


def test_traced_and_untraced_outputs_are_byte_identical(runs):
    base, _, _ = runs
    names = sorted(path.name for path in (base / "plain").iterdir())
    assert names == sorted(path.name for path in (base / "traced0").iterdir())
    _, mismatch, errors = filecmp.cmpfiles(base / "plain", base / "traced0",
                                           names, shallow=False)
    assert mismatch == [] and errors == []


def test_traced_ops_pass_and_fail_as_untraced(runs):
    _, plain, traced = runs
    for result in traced:
        assert ([(op["key"], op["exit"], op["passed"]) for op in result["ops"]]
                == [(op["key"], op["exit"], op["passed"])
                    for op in plain["ops"]])
    assert not any(op["wrong_output"] for op in plain["ops"])


def test_every_run_times_the_calibration_work(runs):
    _, plain, traced = runs
    for result in [plain] + traced:
        points = result["speed_points"]
        assert len(points) == len(result["ops"]) + 1
        assert sum(map(len, points)) >= worker.MIN_SPEED_SAMPLES
        assert run.speed_factor(result) > 0 and run.rescaled_job(result) > 0


def test_counts_repeat_exactly(runs):
    _, _, (first, second) = runs
    for name in EXACT_COUNTS:
        assert first["layers"][name] == second["layers"][name], name


def test_self_times_sum_to_traced_job_time(runs):
    base, _, traced = runs
    for result in traced:
        assert abs(result["job_s"] - result["self_sum_s"]) < 1e-6
        assert set(result["layers"]) == {name for name in run.PER_LAYER
                                         if name not in ("trace.job_s",
                                                         "trace.overhead_s")}
    lines = (base / "trace.jsonl").read_text().splitlines()
    spans_written = [json.loads(line) for line in lines if '"name"' in line]
    assert {s["name"] for s in spans_written} >= {spans.OP_SPAN,
                                                  "graphs.load_graph"}


def _tree_ops():
    sys.path.insert(0, str(worker.SRC))
    import p_potential
    from p_potential import cli
    tree = WORKLOADS["tree-flow-p1.5"]
    p_potential.save_graph(tree.build_graph(p_potential), GRAPH_FILE)
    return cli, tree.make_ops(0), worker.load_reference(tree.name)


def test_failing_argv_is_counted_and_the_run_goes_on(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cli, ops, reference = _tree_ops()
    failing = [
        Op("missing-graph", ("green", "--graph", "absent.json", "--R", "2",
                             "--p", "3", "--out", "g.csv")),
        Op("bad-argv", ("green", "--R", "two")),
    ]
    results = worker.run_ops(cli.main, failing + ops[:2], reference)
    assert [r["exit"] for r in results] == [1, 2, 0, 0]
    assert [r["passed"] for r in results] == [False, False, True, True]
    assert not any(r["wrong_output"] for r in results)


def test_a_wrong_value_fails_the_output_check(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cli, ops, reference = _tree_ops()
    op = ops[3]
    row = reference["ops"][op.key]["rows"][str(op.radii[0])]
    row["L"] *= 1 + 1e-6
    (result,) = worker.run_ops(cli.main, [op], reference)
    assert result["exit"] == 0 and result["wrong_output"]
    assert any("L " in problem for problem in result["problems"])


def test_rounding_sized_change_passes_on_a_zero_defect_op(tmp_path,
                                                          monkeypatch):
    monkeypatch.chdir(tmp_path)
    cli, ops, reference = _tree_ops()
    op = ops[0]
    (result,) = worker.run_ops(cli.main, [op], reference)
    assert result["passed"]
    (row,) = outputs.extract(op).values()
    assert row["residual"] == outputs.RESIDUAL_FLOOR   # defect 0, floored
    reference["ops"][op.key]["rows"][str(op.radii[0])]["L"] *= 1 + 1e-13
    assert outputs.compare(op, outputs.extract(op),
                           reference["ops"][op.key]) == []


def test_tolerance_grows_with_the_reported_defect():
    tight = outputs.tolerance({"residual": 1e-13}, {"residual": 1e-13},
                              100, 3.0, 4.0)
    loose = outputs.tolerance({"residual": 1e-13}, {"residual": 1e-10},
                              100, 3.0, 4.0)
    assert loose > 100 * tight


def test_benchmark_json_lists_what_run_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == [(name, run.unit_of(name)) for name in run.PER_LAYER]


def test_without_sources_the_run_fails_without_a_result(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "tree-flow-p1.5", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=170, check=False)
    assert done.returncode != 0
    assert done.stdout == ""
