"""The command line: every subcommand, every error path, and determinism."""

import json
import os

import numpy as np
import pytest

from p_potential import (
    ball_profile,
    build_lattice,
    build_tree,
    load_graph,
    save_graph,
)
from p_potential.cli import main

CHAIN_ROW_KEYS = {"name", "lower", "upper", "margin", "ok"}
SHARED_BALL_KEYS = {"retained_edges", "path_count", "probability_sum",
                    "max_marginal_deviation", "conservation_defect", "L",
                    "lower_bound", "chain"}
FLOW_REPORT_KEYS = SHARED_BALL_KEYS | {
    "R", "p", "sigma", "min_tail_slack", "cut_margin",
    "boundary_tails_at_rim", "per_n"}
LADDER_ROW_KEYS = SHARED_BALL_KEYS | {
    "R", "g_center", "residual", "iterations", "normalization_dev",
    "capacity_center", "chain_ok", "upper_bound"}
CRITERION_KEYS = {"p", "sigma", "horizon", "classification", "fitted_beta",
                  "fitted_gamma", "fit_error", "partial_sum",
                  "exponent_identity", "terms_csv", "cut_series", "dyadic",
                  "cut_volume_margin", "midrange", "source"}
REPORT_KEYS = {"graph", "p", "sigma", "seed", "shoot", "ladder", "probe",
               "criterion", "verify", "ok"}


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    """A working directory holding a binary tree and a square lattice."""
    monkeypatch.chdir(tmp_path)
    save_graph(build_tree(2, 5), "tree.json")
    save_graph(build_lattice(2, 6), "square.json")
    return tmp_path


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# subcommands


@pytest.mark.parametrize("argv, vertex_count", [
    (["--family", "lattice", "--dimension", "2", "--half-side", "3"], 49),
    (["--family", "tree", "--branching", "3", "--depth", "2"], 13),
    (["--family", "radial", "--sphere-sizes", "1,2,4", "--weights", "1,2"], 7),
])
def test_gen_writes_a_loadable_graph(workdir, capsys, argv, vertex_count):
    code, out, _ = run(["gen"] + argv + ["--out", "g.json"], capsys)
    assert code == 0
    summary = json.loads(out)
    assert summary["vertex_count"] == vertex_count
    graph = load_graph("g.json")
    assert graph.vertex_count == vertex_count
    assert graph.edge_count == summary["edge_count"]


def test_green_writes_values_and_sidecar(workdir, capsys):
    code, out, _ = run(["green", "--graph", "tree.json", "--R", "3",
                        "--p", "2", "--out", "g.csv"], capsys)
    assert code == 0
    assert json.loads(out)["sidecar"] == "g.json"
    sidecar = read_json("g.json")
    assert set(sidecar) == {"R", "p", "center", "residual", "iterations",
                            "eps_schedule", "stage_iterations", "energy",
                            "value_at_center"}
    # binary tree, p = 2: g_R(o) = 1 - 2^-(R+1)
    assert sidecar["value_at_center"] == pytest.approx(15 / 16, rel=1e-12)
    assert sidecar["residual"] <= 1e-9
    with open("g.csv", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "vertex,value"
    assert len(lines) == 1 + build_tree(2, 5).vertex_count


def test_flow_writes_paths_and_audited_report(workdir, capsys):
    code, out, _ = run(["flow", "--graph", "tree.json", "--R", "3",
                        "--p", "2", "--sigma", "3", "--out-prefix", "f"],
                       capsys)
    assert code == 0
    summary = json.loads(out)
    report = read_json("f.report.json")
    paths = read_json("f.paths.json")
    assert set(report) == FLOW_REPORT_KEYS
    assert all(set(row) == CHAIN_ROW_KEYS and row["ok"]
               for row in report["chain"])
    assert report["path_count"] == len(paths["paths"]) == summary["path_count"]
    assert sum(p["probability"] for p in paths["paths"]) == pytest.approx(1.0)
    assert report["probability_sum"] == pytest.approx(1.0, abs=1e-12)
    assert report["max_marginal_deviation"] <= 1e-12
    assert 0.0 <= report["lower_bound"] <= report["L"]
    assert len(report["cut_margin"]) == 4
    assert report["boundary_tails_at_rim"] is True


def test_criterion_from_graph(workdir, capsys):
    code, out, _ = run(["criterion", "--graph", "tree.json", "--p", "2",
                        "--sigma", "3", "--out-prefix", "c"], capsys)
    assert code == 0
    assert json.loads(out)["terms_csv"] == "c.terms.csv"
    payload = read_json("c.json")
    assert set(payload) == CRITERION_KEYS
    assert payload["source"] == {"graph": "tree.json", "profile": None}
    assert payload["cut_series"]["R"] == ball_profile(build_tree(2, 5)).R_max
    assert payload["midrange"] is not None
    with open("c.terms.csv", encoding="utf-8") as fh:
        rows = fh.read().splitlines()
    assert rows[0] == "n,t_n,partial_sum"
    assert len(rows) == 1 + payload["horizon"]


def test_criterion_from_profile_csv(workdir, capsys):
    with open("W.csv", "w", encoding="utf-8") as fh:
        fh.write("n,W\n" + "".join(f"{n},{(n + 1) ** 2}\n" for n in range(80)))
    code, _, _ = run(["criterion", "--profile", "W.csv", "--p", "2",
                      "--sigma", "3", "--out-prefix", "c"], capsys)
    assert code == 0
    payload = read_json("c.json")
    assert set(payload) == CRITERION_KEYS
    assert payload["horizon"] == 79
    for key in ("cut_series", "dyadic", "cut_volume_margin", "midrange"):
        assert payload[key] is None


def test_verify_prints_suites(workdir, capsys):
    code, out, _ = run(["verify", "--suite", "hardy", "--trials", "300",
                        "--seed", "4"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert [s["name"] for s in payload["suites"]] == ["hardy"]
    assert payload["suites"][0]["trials"] == 300


def test_report_on_a_symmetric_graph(workdir, capsys):
    code, out, _ = run(["report", "--graph", "tree.json", "--p", "2",
                        "--sigma", "3", "--R", "2,3,4", "--trials", "200",
                        "--horizon", "100", "--out-prefix", "r"], capsys)
    assert code == 0
    assert json.loads(out) == {"out": "r.json", "csv": "r.csv", "ok": True}
    payload = read_json("r.json")
    assert set(payload) == REPORT_KEYS
    assert payload["shoot"]["success"] is True
    assert payload["shoot"]["u0"] == 0.1
    assert [row["R"] for row in payload["ladder"]] == [2, 3, 4]
    for row in payload["ladder"]:
        assert set(row) == LADDER_ROW_KEYS
        assert row["chain_ok"] is True
        assert row["lower_bound"] <= row["L"] <= row["upper_bound"]
        assert row["capacity_center"] == pytest.approx(
            row["g_center"] ** -1.0, rel=1e-9)
        assert row["normalization_dev"] <= 1e-9
    probe = payload["probe"]
    assert probe["radii"] == [2, 3, 4]
    assert probe["g_root"] == [row["g_center"] for row in payload["ladder"]]
    np.testing.assert_allclose(probe["cap_root"],
                               [row["capacity_center"]
                                for row in payload["ladder"]], rtol=1e-9)
    assert [s["name"] for s in payload["verify"]] == [
        "picone", "hardy", "positivity", "sandwich"]
    with open("r.csv", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == ("R,g_center,residual,capacity_center,L,lower_bound,"
                        "upper_bound,path_count,conservation_defect")
    assert len(lines) == 4


def test_report_on_an_asymmetric_graph_has_no_upper_bound(workdir, capsys):
    code, _, _ = run(["report", "--graph", "square.json", "--p", "2",
                      "--sigma", "3", "--R", "2,4", "--trials", "200",
                      "--horizon", "100", "--out-prefix", "r"], capsys)
    assert code == 0
    payload = read_json("r.json")
    assert payload["shoot"]["success"] is False
    assert "spherically symmetric" in payload["shoot"]["reason"]
    assert payload["probe"] is None  # fewer than three radii
    assert all(row["upper_bound"] is None for row in payload["ladder"])
    with open("r.csv", encoding="utf-8") as fh:
        assert fh.read().splitlines()[1].split(",")[6] == ""


# ---------------------------------------------------------------------------
# error paths: exit status 1 and one JSON object on stderr


def _malformed_profile():
    with open("bad.csv", "w", encoding="utf-8") as fh:
        fh.write("radius,volume\n0,1\n1,5\n")


@pytest.mark.parametrize("argv, prepare, error", [
    (["report", "--graph", "tree.json", "--p", "2", "--sigma", "3",
      "--R", "2,x"], None, "ValueError"),
    (["report", "--graph", "tree.json", "--p", "2", "--sigma", "3",
      "--R", "2,99"], None, "ValueError"),
    (["green", "--graph", "missing.json", "--R", "2", "--p", "2",
      "--out", "g.csv"], None, "FileNotFoundError"),
    (["criterion", "--profile", "bad.csv", "--p", "2", "--sigma", "3"],
     _malformed_profile, "ValueError"),
], ids=["bad-radius-list", "radius-above-R_max", "missing-graph",
        "malformed-profile"])
def test_errors_exit_1_with_json_on_stderr(workdir, capsys, argv, prepare,
                                           error):
    if prepare is not None:
        prepare()
    code, out, err = run(argv, capsys)
    assert code == 1
    assert out == ""
    payload = json.loads(err)
    assert set(payload) == {"error", "message"}
    assert payload["error"] == error
    assert payload["message"]


# ---------------------------------------------------------------------------
# determinism: the same argv writes the same bytes


def _run_in(directory, argvs, capsys):
    os.makedirs(directory)
    os.chdir(directory)
    save_graph(build_tree(2, 5), "tree.json")
    for argv in argvs:
        assert main(argv) == 0
    capsys.readouterr()
    files = {}
    for name in sorted(os.listdir(".")):
        with open(name, "rb") as fh:
            files[name] = fh.read()
    return files


def test_same_argv_writes_identical_bytes(workdir, capsys):
    argvs = [
        ["green", "--graph", "tree.json", "--R", "4", "--p", "3",
         "--out", "g.csv"],
        ["flow", "--graph", "tree.json", "--R", "4", "--p", "1.5",
         "--sigma", "2", "--out-prefix", "f"],
        ["criterion", "--graph", "tree.json", "--p", "3", "--sigma", "4",
         "--out-prefix", "c"],
        ["report", "--graph", "tree.json", "--p", "3", "--sigma", "4",
         "--R", "2,3,4", "--trials", "200", "--seed", "7",
         "--out-prefix", "r"],
    ]
    first = _run_in(workdir / "a", argvs, capsys)
    second = _run_in(workdir / "b", argvs, capsys)
    assert len(first) == 10
    assert first == second

