"""The command line: every subcommand, every error path, and determinism."""

import csv
import importlib
import io
import json
import os
import struct
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p_potential import (
    ball_profile,
    build_lattice,
    build_radial_model,
    build_tree,
    load_graph,
    save_graph,
    shoot_radial_supersolution,
)
from p_potential import cli, verify
from p_potential.cli import main
from p_potential.flows import PathMeasure
from p_potential.operators import ExponentParams
from test_irregular_growth import _family_graph

CHAIN_ROW_KEYS = {"name", "lower", "upper", "margin", "ok"}
# g_R(o), the upper side of the Nash-Williams check, is g_center
NASH_WILLIAMS_KEYS = CHAIN_ROW_KEYS - {"upper"}
SHARED_BALL_KEYS = {"retained_edges", "path_count", "probability_sum",
                    "max_marginal_deviation", "conservation_defect", "L",
                    "lower_bound", "chain", "g_center", "nash_williams"}
FLOW_REPORT_KEYS = SHARED_BALL_KEYS | {"R", "p", "sigma", "cut_margin", "per_n"}
LADDER_ROW_KEYS = SHARED_BALL_KEYS | {
    "R", "g_center", "residual", "iterations", "normalization_dev",
    "capacity_center", "chain_ok", "upper_bound"}
CRITERION_KEYS = {"p", "sigma", "horizon", "classification", "fitted_beta",
                  "fitted_gamma", "fit_error", "partial_sum",
                  "exponent_identity", "terms_csv", "cut_series", "dyadic",
                  "cut_volume_margin", "midrange", "source"}
REPORT_KEYS = {"graph", "p", "sigma", "shoot", "ladder", "probe", "criterion"}
PROBE_KEYS = {"increments", "label", "tail"}


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
    assert set(report["nash_williams"]) == NASH_WILLIAMS_KEYS
    assert report["nash_williams"]["ok"] is True
    # binary tree, p = 2: g_R(o) = 1 - 2^-(R+1), the cut sum's equality case
    assert report["g_center"] == pytest.approx(15 / 16, rel=1e-12)
    assert report["nash_williams"]["margin"] == pytest.approx(0.0, abs=1e-12)
    assert report["path_count"] == len(paths["paths"]) == summary["path_count"]
    assert sum(p["probability"] for p in paths["paths"]) == pytest.approx(1.0)
    assert report["probability_sum"] == pytest.approx(1.0, abs=1e-12)
    assert report["max_marginal_deviation"] <= 1e-12
    assert 0.0 <= report["lower_bound"] <= report["L"]
    assert len(report["cut_margin"]) == 4


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


def test_criterion_sums_over_the_whole_profile(workdir, capsys):
    # a profile of 12,000 terms: the series takes every one of them
    with open("W.csv", "w", encoding="utf-8") as fh:
        fh.write("n,W\n" + "".join(f"{n},{(n + 1) ** 2}\n"
                                   for n in range(12_001)))
    code, _, _ = run(["criterion", "--profile", "W.csv", "--p", "2",
                      "--sigma", "3", "--out-prefix", "c"], capsys)
    assert code == 0
    assert read_json("c.json")["horizon"] == 12_000
    with open("c.terms.csv", encoding="utf-8") as fh:
        rows = fh.read().splitlines()
    assert len(rows) == 1 + 12_000
    assert rows[-1].startswith("12000,")


@pytest.mark.parametrize("argv", [
    ["green", "--graph", "tree.json", "--R", "2", "--p", "2",
     "--center", "1", "--out", "g.csv"],
    ["criterion", "--graph", "tree.json", "--p", "2", "--sigma", "3",
     "--horizon", "3"],
    ["report", "--graph", "tree.json", "--p", "2", "--sigma", "3",
     "--R", "2,3,4", "--horizon", "3"],
])
def test_the_pole_and_the_horizon_are_not_options(workdir, capsys, argv):
    # the pole is the graph file's root; the series runs over the profile
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not os.path.exists("g.csv")


def test_verify_prints_suites(workdir, capsys):
    code, out, _ = run(["verify", "--suite", "hardy", "--trials", "300",
                        "--seed", "4"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert [s["name"] for s in payload["suites"]] == ["hardy"]
    assert payload["suites"][0]["trials"] == 300


def _strict_json(text):
    """json.loads that refuses Infinity and NaN, which are not JSON."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("suite,trials,expected", [
    ("picone", "1", {"trials": 1, "worst_margin": None}),
    ("positivity", "1", {"trials": 19, "worst_margin": None}),
])
def test_verify_writes_no_margin_as_null(workdir, capsys, suite, trials,
                                         expected):
    code, out, _ = run(["verify", "--suite", suite, "--trials", trials], capsys)
    assert code == 0
    [report] = _strict_json(out)["suites"]
    assert {key: report[key] for key in expected} == expected


def test_report_on_a_symmetric_graph(workdir, capsys):
    code, out, _ = run(["report", "--graph", "tree.json", "--p", "2",
                        "--sigma", "3", "--R", "2,3,4", "--out-prefix", "r"],
                       capsys)
    assert code == 0
    assert json.loads(out) == {"out": "r.json", "csv": "r.csv"}
    payload = read_json("r.json")
    assert set(payload) == REPORT_KEYS
    tree = build_tree(2, 5)
    assert payload["shoot"] == {
        "u0": shoot_radial_supersolution(
            tree, ExponentParams(p=2.0, sigma=3.0))[tree.root],
        "reason": None}
    assert [row["R"] for row in payload["ladder"]] == [2, 3, 4]
    for row in payload["ladder"]:
        assert set(row) == LADDER_ROW_KEYS
        assert row["chain_ok"] is True
        assert row["lower_bound"] <= row["L"] <= row["upper_bound"]
        assert row["capacity_center"] == pytest.approx(
            row["g_center"] ** -1.0, rel=1e-9)
        assert row["normalization_dev"] <= 1e-9
        assert set(row["nash_williams"]) == NASH_WILLIAMS_KEYS
        assert row["nash_williams"]["ok"] is True
    probe = payload["probe"]
    assert set(probe) == PROBE_KEYS
    assert probe["label"] == "looks-non-parabolic"
    assert probe["tail"]["model"] == "geometric"
    assert probe["increments"] == np.diff(
        [row["g_center"] for row in payload["ladder"]]).tolist()
    with open("r.csv", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == ("R,g_center,residual,capacity_center,L,lower_bound,"
                        "upper_bound,path_count,conservation_defect")
    assert len(lines) == 4


def test_report_on_an_asymmetric_graph_bounds_the_balls_it_certifies(
        workdir, capsys):
    # sphere 2 of the lattice mixes corners and axis points: the shot
    # misses equality there, and its shortfall is charged to the bounds
    # on B_2 and B_4 until it reaches all of u^sigma on B_8
    code, _, _ = run(["report", "--graph", "square.json", "--p", "2",
                      "--sigma", "3", "--R", "2,4,8", "--out-prefix", "r"],
                     capsys)
    assert code == 0
    payload = read_json("r.json")
    shoot = payload["shoot"]
    assert set(shoot) == {"u0", "reason"}
    assert 0.0 < shoot["u0"] < 1.0
    assert shoot["reason"].startswith(
        "u is not a supersolution on B_8: -lap_p u falls short of u^sigma "
        "by ")
    inner, outer = payload["ladder"][:2], payload["ladder"][2]
    assert all(row["L"] <= row["upper_bound"] for row in inner)
    assert outer["upper_bound"] is None
    with open("r.csv", encoding="utf-8") as fh:
        assert fh.read().splitlines()[3].split(",")[6] == ""


def test_report_charges_a_shortfall_relative_to_u_sigma(workdir, capsys):
    # at sigma = 2.1 the lattice's start is about 1e-38, so u^sigma is far
    # below an absolute 1e-10: the shortfall at radius 2, half of that
    # vertex's own u^sigma, is charged to the bound
    code, _, _ = run(["report", "--graph", "square.json", "--p", "3",
                      "--sigma", "2.1", "--R", "1,2,4", "--out-prefix", "r"],
                     capsys)
    assert code == 0
    payload = read_json("r.json")
    assert payload["shoot"]["reason"] is None
    bounds = [row["upper_bound"] for row in payload["ladder"]]
    assert [f"{bound:.4g}" for bound in bounds] == ["1.298e+05", "2.94e+05",
                                                    "3.036e+05"]
    assert all(row["L"] <= row["upper_bound"] for row in payload["ladder"])


def test_report_labels_the_binary_tree_non_parabolic(workdir, capsys):
    # g_R(o) = 1 - 2^-(R+1) stays bounded; the template fits the probe
    # used to run labelled this ladder looks-parabolic
    assert main(["gen", "--family", "tree", "--branching", "2", "--depth",
                 "12", "--out", "tree12.json"]) == 0
    code, _, _ = run(["report", "--graph", "tree12.json", "--p", "2",
                      "--sigma", "3", "--R", "3,5,7,9", "--out-prefix", "r"],
                     capsys)
    assert code == 0
    payload = read_json("r.json")
    assert payload["probe"]["label"] == "looks-non-parabolic"
    assert payload["probe"]["tail"]["extra"] == pytest.approx(2.0 ** -10)
    g = [row["g_center"] for row in payload["ladder"]]
    np.testing.assert_allclose(g, [1.0 - 2.0 ** -(R + 1) for R in (3, 5, 7, 9)],
                               rtol=1e-10)
    assert np.all(np.diff(g) > 0.0)
    # cap_R({o}) = g_R(o)^(1-p) is nonincreasing in R
    assert np.all(np.diff([row["capacity_center"]
                           for row in payload["ladder"]]) <= 0.0)
    for row in payload["ladder"]:
        # the tree is the equality case of the cut bound
        nash_williams = row["nash_williams"]
        assert nash_williams["lower"] == pytest.approx(
            1.0 - 2.0 ** -(row["R"] + 1), rel=1e-12)
        assert row["g_center"] == pytest.approx(
            nash_williams["lower"], rel=1e-10)


def _leaves(obj, path=()):
    """(path, value) for every leaf of a payload; every key is a str."""
    if isinstance(obj, dict):
        assert all(type(key) is str for key in obj)
        for key, value in obj.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _leaves(value, path + (i,))
    else:
        yield path, obj


def test_report_writes_each_ladder_value_once(workdir, capsys):
    # the probe used to copy R, g_R(o) and cap_R({o}) from the ladder, and
    # its cap_R({o}) at R = 11 differed from the row's in the last bit
    assert main(["gen", "--family", "tree", "--branching", "2", "--depth",
                 "12", "--out", "tree12.json"]) == 0
    code, _, _ = run(["report", "--graph", "tree12.json", "--p", "2.5",
                      "--sigma", "3", "--R", "3,5,7,9,10,11",
                      "--out-prefix", "r"], capsys)
    assert code == 0
    payload = read_json("r.json")
    assert set(payload["probe"]) == PROBE_KEYS
    numbers = [(path, x) for path, x in _leaves(payload)
               if isinstance(x, float)]
    for i, row in enumerate(payload["ladder"]):
        cap = [path for path, x in numbers
               if x == pytest.approx(row["capacity_center"], rel=1e-12)]
        assert cap == [("ladder", i, "capacity_center")]
        # g_R(o) is also the upper side of the Nash-Williams check, which
        # writes only its lower side and the margin.  That lower side, the
        # cut sum, is another number that the tree's equality case can make
        # equal g_R(o) to the last bit (at R = 9 here)
        cut_sum = ("ladder", i, "nash_williams", "lower")
        g = [path for path, x in numbers
             if x == row["g_center"] and path != cut_sum]
        assert g == [("ladder", i, "g_center")]
    # flow writes g_R(o) once too, as g_center
    assert main(["flow", "--graph", "tree12.json", "--R", "3", "--p", "2.5",
                 "--sigma", "3", "--out-prefix", "f"]) == 0
    report = read_json("f.report.json")
    g = [path for path, x in _leaves(report)
         if isinstance(x, float) and x == report["g_center"]]
    assert g == [("g_center",)]
    nash_williams = report["nash_williams"]
    assert nash_williams["margin"] == pytest.approx(
        report["g_center"] - nash_williams["lower"], rel=1e-12)


# the chain rows that do not depend on R: all of them at R = 0
CHAIN_ROWS_OF_EVERY_RADIUS = ["path mass expectation <= L",
                              "path mass identity (1e-9 relative)",
                              "one-path estimate (worst path)",
                              "cut-series lower bound for L"]


def test_report_when_the_start_is_below_the_doubles(workdir, capsys):
    # on lattice(1, 200) at p = 2, sigma = 1.01 the start is
    # (2 * 200^2)^(-100) = exp(-1129), which is 0 in doubles: u^sigma is
    # below the normal doubles on every ball
    save_graph(build_lattice(1, 200), "path.json")
    code, _, _ = run(["report", "--graph", "path.json", "--p", "2",
                      "--sigma", "1.01", "--R", "3,6,9", "--out-prefix", "r"],
                     capsys)
    assert code == 0
    payload = read_json("r.json")
    assert payload["shoot"] == {
        "u0": 0.0,
        "reason": "u is not a supersolution on B_3: -lap_p u falls short of "
                  "u^sigma by inf of it at vertex 0"}
    assert [row["upper_bound"] for row in payload["ladder"]] == [None] * 3


def test_report_records_a_shot_whose_drop_is_below_an_ulp(workdir, capsys):
    # at p = 1.1 the first radial drop, u0 / (2S) with S about 1.9e27 on
    # lattice(1, 200), is below ulp(u0): u is flat at the root, all of
    # u^sigma short, and the report runs on without an upper bound
    save_graph(build_lattice(1, 200), "path.json")
    code, _, _ = run(["report", "--graph", "path.json", "--p", "1.1",
                      "--sigma", "2", "--R", "2,3", "--out-prefix", "r"],
                     capsys)
    assert code == 0
    payload = read_json("r.json")
    assert payload["shoot"] == {
        "u0": 0.03534735942505839,
        "reason": "u is not a supersolution on B_2: -lap_p u falls short of "
                  "u^sigma by 1.000e+00 of it at vertex 0"}
    assert [row["upper_bound"] for row in payload["ladder"]] == [None, None]


def test_flow_at_radius_zero(workdir, capsys):
    code, _, _ = run(["flow", "--graph", "tree.json", "--R", "0", "--p", "2",
                      "--sigma", "3", "--out-prefix", "f"], capsys)
    assert code == 0
    report = read_json("f.report.json")
    assert report["per_n"] == []
    assert report["lower_bound"] == 0.0
    assert [row["name"] for row in report["chain"]] == \
        CHAIN_ROWS_OF_EVERY_RADIUS
    assert all(row["ok"] for row in report["chain"])


@pytest.fixture
def eccentricity_one(workdir, capsys):
    """The three-vertex path rooted at its middle: its volume series has
    one term."""
    assert main(["gen", "--family", "lattice", "--dimension", "1",
                 "--half-side", "1", "--out", "l11.json"]) == 0
    capsys.readouterr()


def test_criterion_on_a_graph_of_eccentricity_one(eccentricity_one, capsys):
    code, out, _ = run(["criterion", "--graph", "l11.json", "--p", "2",
                        "--sigma", "3", "--out-prefix", "c"], capsys)
    assert code == 0
    assert json.loads(out)["classification"] == "inconclusive"
    payload = read_json("c.json")
    assert payload["horizon"] == 1
    assert payload["cut_series"] is None  # R_max = 0


def test_report_on_a_graph_of_eccentricity_one(eccentricity_one, capsys):
    code, _, _ = run(["report", "--graph", "l11.json", "--p", "2",
                      "--sigma", "3", "--R", "0", "--out-prefix", "r"], capsys)
    assert code == 0
    payload = read_json("r.json")
    [row] = payload["ladder"]
    assert [c["name"] for c in row["chain"]] == CHAIN_ROWS_OF_EVERY_RADIUS
    assert row["lower_bound"] == 0.0
    assert payload["criterion"]["classification"] == "inconclusive"


def _terms_csv(path):
    with open(path, encoding="utf-8") as fh:
        return np.array([float(row.split(",")[1])
                         for row in fh.read().splitlines()[1:]])


def _true_terms(W, p, sigma):
    """n^g / W_n^e for n >= 1 in 40-digit arithmetic, rounded to doubles,
    with g and e the doubles the program uses."""
    params = ExponentParams(p=p, sigma=sigma)
    g = mpmath.mpf(params.growth_exponent)
    e = mpmath.mpf(params.eta / params.r)
    with mpmath.workdps(40):
        return np.array([float(mpmath.mpf(n) ** g / mpmath.mpf(w) ** e)
                         for n, w in enumerate(W[1:].tolist(), start=1)])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("source, p, sigma, underflow", [
    # t_n = n^109 / W_n^99 with W_n = (n + 1)^2: W_n^99 overflows from
    # n = 36 and n^109 from n = 674
    ("profile", 1.1, 10.0, 36),
    # W_16^29 overflows past the jump edge at 16
    ("graph", 2.0, 30.0, 16),
], ids=["profile-p1.1-sigma10", "path601-p2-sigma30"])
def test_volume_series_terms_past_an_overflowing_power(workdir, capsys,
                                                       source, p, sigma,
                                                       underflow):
    if source == "profile":
        W = (np.arange(12_001, dtype=np.float64) + 1.0) ** 2
        with open("W.csv", "w", encoding="utf-8") as fh:
            fh.write("n,W\n" + "".join(f"{n},{(n + 1) ** 2}\n"
                                       for n in range(12_001)))
        argv = ["--profile", "W.csv"]
    else:
        graph = _family_graph(3.0, 6.0)  # CI's 601-vertex path601.json
        save_graph(graph, "path601.json")
        W = ball_profile(graph).W
        argv = ["--graph", "path601.json"]
    code, out, _ = run(["criterion", *argv, "--p", str(p), "--sigma",
                        str(sigma), "--out-prefix", "c"], capsys)
    assert code == 0
    assert json.loads(out)["classification"] == "inconclusive"
    terms = _terms_csv("c.terms.csv")
    true = _true_terms(W, p, sigma)
    assert 0.0 < terms[underflow - 1] < 1e-140
    # within rounding of the true value; 0.0 only below the doubles
    np.testing.assert_allclose(terms, true, rtol=1e-12, atol=1e-323)


def _midrange_rows_by_mpmath(profile, params):
    """(lhs, rhs, ratio) per midrange row at N = R_max in 40-digit
    arithmetic, with the exponents the doubles the program forms."""
    N, r = profile.R_max, params.r
    inner, outer = mpmath.mpf(1.0 / r), mpmath.mpf(1.0 + 1.0 / r)
    rows = []
    with mpmath.workdps(40):
        M_N = mpmath.mpf(float(profile.M[N]))
        for m in range(int(np.ceil(N / 2.0)), int(np.floor(3.0 * N / 4.0)) + 1):
            lhs = sum(mpmath.mpf(b) ** -inner for b in profile.b[m:N + 1].tolist())
            rhs = mpmath.mpf(N - m + 1) ** outer / M_N ** inner
            rows.append((lhs, rhs, lhs / rhs))
    return rows


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("graph, p, sigma", [
    ("lattice18", 1.001, 2.0), ("path601", 1.01, 2.0), ("path601", 1.01, 30.0)])
def test_criterion_near_p_one(workdir, capsys, graph, p, sigma):
    # powers with exponents past 1,000: 2^pow, (N - m + 1)^(1 + 1/r) and
    # M_N^(1/r) leave the doubles, and each midrange quotient is taken
    # without them wherever a side does
    built = build_lattice(1, 8) if graph == "lattice18" else _family_graph(3.0, 6.0)
    save_graph(built, "g.json")
    code, _, _ = run(["criterion", "--graph", "g.json", "--p", str(p),
                      "--sigma", str(sigma), "--out-prefix", "c"], capsys)
    assert code == 0
    payload = read_json("c.json")
    params = ExponentParams(p=p, sigma=sigma)
    if params.growth_exponent > 1024:
        assert payload["dyadic"]["c_theory"] is None
    profile = ball_profile(built)
    N, r = profile.R_max, params.r
    # the largest log any power forms: the exp-log route loses about that
    # many ulps, a sum of k terms k
    logs = ((1.0 + 1.0 / r) * np.log(N) + np.abs(np.log(profile.b[1:N + 1])).max() / r
            + abs(np.log(profile.M[N])) / r)
    rtol = 8.0 * np.finfo(np.float64).eps * (N + logs)
    rows = payload["midrange"]
    exact = _midrange_rows_by_mpmath(profile, params)
    assert len(rows) == len(exact)
    for row, true in zip(rows, exact):
        for key, want in zip(("lhs", "rhs", "ratio"), true):
            got = row[key]
            if got is None:
                assert want > np.finfo(np.float64).max, (row, key)
            else:
                assert abs(got - float(want)) <= rtol * abs(want) + 1e-323, (row, key)
    if graph == "lattice18":
        # the true ratio at m = 4 is 2^1000, up to the rounding of 1/r
        assert rows[0]["m"] == 4 and rows[0]["rhs"] == 0.0
        assert rows[0]["ratio"] == pytest.approx(2.0 ** 1000, rel=1e-9)


@pytest.mark.filterwarnings("error")
def test_criterion_cut_series_past_the_doubles(workdir, capsys):
    # every b_k is positive, yet s_1..s_3 lie past the largest double
    # (about 1e469) and s_4 below the smallest (about 1e-1325): the terms
    # read null and 0.0 without an overflow warning
    graph = build_radial_model([1, 3, 9, 27, 27, 27], [1.0, 0.5, 2.0, 1e-3, 1e3])
    save_graph(graph, "radial.json")
    code, _, _ = run(["criterion", "--graph", "radial.json", "--p", "1.1",
                      "--sigma", "30", "--out-prefix", "c"], capsys)
    assert code == 0
    cut = read_json("c.json")["cut_series"]
    assert cut["terms"] == [None, None, None, 0.0]
    assert cut["has_infinite_terms"] is True
    # every b_k > 0, so the infinite terms are overflows and the sum is
    # past the doubles too; it used to leave them out and read 0.0
    assert cut["sum_truncated"] is None
    b, R = ball_profile(graph).b, cut["R"]
    params = ExponentParams(p=1.1, sigma=30.0)
    r, eta = mpmath.mpf(params.r), mpmath.mpf(params.eta)
    with mpmath.workdps(40):
        exact = [mpmath.mpf(n) ** r * sum(mpmath.mpf(x) ** (-1 / r)
                                          for x in b[n:R + 1].tolist()) ** eta
                 for n in range(1, R + 1)]
        assert all(x > np.finfo(np.float64).max for x in exact[:3])
        assert exact[3] < mpmath.mpf(
            float(np.finfo(np.float64).smallest_subnormal)) / 2
        assert abs(mpmath.fsum(exact) / mpmath.mpf("3.3554e469") - 1) < 1e-4


def test_an_overflow_exits_1_with_json_on_stderr(workdir, capsys):
    # no input reaches a Python float power past the doubles since the
    # criterion takes its powers in float64 (test_criterion_near_p_one), so
    # the series is made to raise one
    def overflowing_terms(W, params):
        return 2.0 ** 2001

    with mock.patch.object(cli.crit, "volume_series_terms", overflowing_terms):
        code, _, err = run(["criterion", "--graph", "tree.json", "--p", "2",
                            "--sigma", "3", "--out-prefix", "c"], capsys)
    assert code == 1
    assert json.loads(err)["error"] == "OverflowError"


# ---------------------------------------------------------------------------
# error paths: exit status 1 and one JSON object on stderr


def _write(name, text):
    def prepare():
        with open(name, "w", encoding="utf-8") as fh:
            fh.write(text)
    return prepare


_malformed_profile = _write("bad.csv", "radius,volume\n0,1\n1,5\n")
PROFILE_ARGV = ["criterion", "--profile", "bad.csv", "--p", "2", "--sigma", "3"]


@pytest.mark.parametrize("argv, prepare, error, message", [
    (["report", "--graph", "tree.json", "--p", "2", "--sigma", "3",
      "--R", "2,x"], None, "ValueError", None),
    (["report", "--graph", "tree.json", "--p", "2", "--sigma", "3",
      "--R", "2,99"], None, "ValueError", None),
    (["green", "--graph", "missing.json", "--R", "2", "--p", "2",
      "--out", "g.csv"], None, "FileNotFoundError", None),
    (PROFILE_ARGV, _malformed_profile, "ValueError", None),
    (PROFILE_ARGV, _write("bad.csv", "n,W\n1,4\n2\n"), "ValueError",
     "bad.csv: line 3: row ['2'] is malformed"),
    (PROFILE_ARGV, _write("bad.csv", "n,W\n1,4\n2,x\n"), "ValueError",
     "bad.csv: line 3: row ['2', 'x'] is malformed"),
    (PROFILE_ARGV, _write("bad.csv", "n,W\n1,4\n2,9\n2,9\n"), "ValueError",
     "bad.csv: line 4: row ['2', '9'] repeats n = 2"),
    (["verify", "--suite", "picone", "--trials", "0"], None, "ValueError",
     "trials must be at least 1, got 0"),
    (["verify", "--suite", "hardy", "--trials", "-3"], None, "ValueError",
     "trials must be at least 1, got -3"),
    (["verify", "--suite", "positivity", "--trials", "0"], None, "ValueError",
     "trials must be at least 1, got 0"),
    (["verify", "--suite", "picone", "--trials", "10", "--seed", "-1"], None,
     "ValueError", "--seed must be nonnegative, got -1"),
], ids=["bad-radius-list", "radius-above-R_max", "missing-graph",
        "malformed-profile", "short-profile-row", "unparsed-profile-row",
        "repeated-profile-n", "verify-zero-trials", "verify-negative-trials",
        "verify-positivity-zero-trials", "verify-negative-seed"])
def test_errors_exit_1_with_json_on_stderr(workdir, capsys, argv, prepare,
                                           error, message):
    if prepare is not None:
        prepare()
    before = sorted(os.listdir("."))
    code, out, err = run(argv, capsys)
    assert code == 1
    assert out == ""
    assert sorted(os.listdir(".")) == before  # no partial output
    payload = json.loads(err)
    assert set(payload) == {"error", "message"}
    assert payload["error"] == error
    assert payload["message"]
    if message is not None:
        assert payload["message"] == message


@pytest.mark.parametrize("argv, inputs, message", [
    (["green", "--graph", "g.json", "--R", "2", "--p", "2", "--out", "g.csv"],
     ["g.json"], "output 'g.json' is the same file as the input 'g.json'"),
    (["green", "--graph", "tree.json", "--R", "2", "--p", "2", "--out",
      "./tree.json"], ["tree.json"],
     "output './tree.json' is the same file as the input 'tree.json'"),
    (["green", "--graph", "tree.json", "--R", "2", "--p", "2", "--out",
      "x.json"], ["tree.json"],
     "output 'x.json' is the same file as the output 'x.json'"),
    (["flow", "--graph", "f.report.json", "--R", "2", "--p", "2",
      "--sigma", "3", "--out-prefix", "f"], ["f.report.json"],
     "output 'f.report.json' is the same file as the input 'f.report.json'"),
    (["criterion", "--graph", "x.json", "--p", "2", "--sigma", "3",
      "--out-prefix", "x"], ["x.json"],
     "output 'x.json' is the same file as the input 'x.json'"),
    (["criterion", "--profile", "x.terms.csv", "--p", "2", "--sigma", "3",
      "--out-prefix", "x"], ["x.terms.csv"],
     "output 'x.terms.csv' is the same file as the input 'x.terms.csv'"),
    (["report", "--graph", "x.json", "--p", "2", "--sigma", "3",
      "--R", "2,3,4", "--out-prefix", "x"], ["x.json"],
     "output 'x.json' is the same file as the input 'x.json'"),
], ids=["green-sidecar-over-graph", "green-csv-over-graph",
        "green-csv-and-sidecar", "flow-report-over-graph",
        "criterion-json-over-graph", "criterion-terms-over-profile",
        "report-json-over-graph"])
def test_outputs_never_overwrite_an_input_or_each_other(workdir, capsys, argv,
                                                        inputs, message):
    for name in inputs:
        if name.endswith(".csv"):
            _write(name, "n,W\n0,1\n1,4\n2,9\n")()
        elif name != "tree.json":
            save_graph(build_tree(2, 5), name)
    before = {name: Path(name).read_bytes() for name in os.listdir(".")}
    code, out, err = run(argv, capsys)
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "ValueError", "message": message}
    # nothing written, and every input byte unchanged
    assert {name: Path(name).read_bytes() for name in os.listdir(".")} == before


# ---------------------------------------------------------------------------
# non-finite values: JSON null, never Infinity or NaN


def _saved(name, make):
    def prepare():
        save_graph(make(), name)
    return prepare


NO_FIT = ("fitted_beta", "fitted_gamma", "fit_error")


@pytest.mark.parametrize("prepare, argv, out, nulls", [
    # lattice2d-report: an infinite extrapolated tail in the probe and in
    # the cut series
    (_saved("l240.json", lambda: build_lattice(2, 40)),
     ["report", "--graph", "l240.json", "--p", "3", "--sigma", "4",
      "--R", "8,16,24", "--out-prefix", "r"], "r.json",
     [("probe", "tail", "extra"),
      ("criterion", "cut_series", "tail_extrapolation", "extra")]),
    (_saved("l212.json", lambda: build_lattice(2, 12)),
     ["criterion", "--graph", "l212.json", "--p", "3", "--sigma", "4",
      "--out-prefix", "c"], "c.json",
     [("cut_series", "tail_extrapolation", "extra")]),
    # three terms are too few for the regression
    (_write("W.csv", "n,W\n0,1\n1,5\n2,13\n3,25\n"),
     ["criterion", "--profile", "W.csv", "--p", "2", "--sigma", "3",
      "--out-prefix", "c"], "c.json", [(key,) for key in NO_FIT]),
    (_saved("t3.json", lambda: build_tree(2, 3)),
     ["report", "--graph", "t3.json", "--p", "2", "--sigma", "3",
      "--R", "1,2", "--out-prefix", "r"], "r.json",
     [("criterion", key) for key in NO_FIT]),
], ids=["report-infinite-tail", "criterion-infinite-tail",
        "criterion-profile-no-fit", "report-no-fit"])
def test_non_finite_values_are_written_as_null(workdir, capsys, prepare, argv,
                                               out, nulls):
    prepare()
    code, _, _ = run(argv, capsys)
    assert code == 0
    with open(out, encoding="utf-8") as fh:
        payload = _strict_json(fh.read())
    for keys in nulls:
        value = payload
        for key in keys:
            value = value[key]
        assert value is None, keys


def test_numpy_scalars_take_the_same_rule(workdir):
    # a numpy scalar other than float64 used to reach json.dump as it was,
    # so a float32 inf failed the dump
    cli._dump_json("x.json", {"x": np.float32("inf"), "n": np.int32(3),
                              "ok": np.bool_(True), "y": np.float32(0.5)})
    assert _strict_json(Path("x.json").read_text()) == {
        "x": None, "n": 3, "ok": True, "y": 0.5}


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
         "--R", "2,3,4", "--seed", "7", "--out-prefix", "r"],
    ]
    first = _run_in(workdir / "a", argvs, capsys)
    second = _run_in(workdir / "b", argvs, capsys)
    assert len(first) == 10
    assert first == second


def test_report_reads_no_seed_and_runs_no_suite(workdir, capsys, monkeypatch):
    # the verify batteries read no graph, p or sigma, so report runs none
    # of them and draws nothing at random: its --seed is inert
    def no_suites(*args, **kwargs):
        raise AssertionError("report ran the verify suites")

    monkeypatch.setattr(verify, "run_suites", no_suites)
    monkeypatch.setattr(cli, "run_suites", no_suites)
    argv = ["report", "--graph", "tree.json", "--p", "3", "--sigma", "4",
            "--R", "2,3,4", "--out-prefix", "r"]
    files = []
    for seed in ("0", "7"):
        assert main(argv + ["--seed", seed]) == 0
        files.append([Path("r" + suffix).read_bytes()
                      for suffix in (".json", ".csv", ".terms.csv")])
    assert files[0] == files[1]
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--trials", "10"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --trials" in capsys.readouterr().err



def _refuse_lapack(monkeypatch):
    """Replace every public numpy.linalg function, numpy.polyfit and
    scipy.linalg.lstsq with one that raises."""
    import scipy.linalg

    def raiser(name):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{name} was called")
        return refuse

    names = [name for name in np.linalg.__all__
             if not isinstance(getattr(np.linalg, name), type)]
    assert "lstsq" in names and "norm" in names
    for name in names:
        monkeypatch.setattr(np.linalg, name, raiser(f"numpy.linalg.{name}"))
    monkeypatch.setattr(np, "polyfit", raiser("numpy.polyfit"))
    monkeypatch.setattr(scipy.linalg, "lstsq", raiser("scipy.linalg.lstsq"))


def test_report_and_criterion_call_no_lapack(tmp_path, monkeypatch, capsys):
    # the probe's and the series' fits are solved by criterion's own
    # least squares, so the report path never loads LAPACK
    monkeypatch.chdir(tmp_path)
    save_graph(build_lattice(2, 40), "lattice.json")
    _refuse_lapack(monkeypatch)
    code, _, err = run(["report", "--graph", "lattice.json", "--p", "3",
                        "--sigma", "4", "--R", "8,16,24", "--out-prefix", "r"],
                       capsys)
    assert code == 0, err
    report = read_json("r.json")
    assert report["probe"]["tail"] is not None
    assert np.isfinite(report["criterion"]["fitted_beta"])
    code, _, err = run(["criterion", "--graph", "lattice.json", "--p", "3",
                        "--sigma", "4", "--out-prefix", "c"], capsys)
    assert code == 0, err
    criterion = read_json("c.json")
    assert criterion["cut_series"]["tail_extrapolation"] is not None
    assert np.isfinite(criterion["fitted_beta"])


# ---------------------------------------------------------------------------
# the JSON writer and the console script


def test_every_payload_reaches_the_dump_as_plain_values(workdir, capsys,
                                                        monkeypatch):
    """Every payload json.dump receives holds str keys and plain Python
    values only, so it needs no default= hook."""
    with open("W.csv", "w", encoding="utf-8") as fh:
        fh.write("n,W\n" + "".join(f"{n},{(n + 1) ** 2}\n" for n in range(80)))
    payloads = []
    real_dump = json.dump

    def recording(obj, fh, **kwargs):
        payloads.append(obj)
        return real_dump(obj, fh, **kwargs)

    monkeypatch.setattr(json, "dump", recording)
    for argv in (
            ["gen", "--family", "tree", "--branching", "2", "--depth", "3",
             "--out", "t.json"],
            ["green", "--graph", "tree.json", "--R", "3", "--p", "3",
             "--out", "g.csv"],
            ["flow", "--graph", "tree.json", "--R", "3", "--p", "1.5",
             "--sigma", "2", "--out-prefix", "f"],
            ["criterion", "--graph", "square.json", "--p", "3", "--sigma", "4",
             "--out-prefix", "c"],
            ["criterion", "--profile", "W.csv", "--p", "2", "--sigma", "3",
             "--out-prefix", "w"],
            ["verify", "--trials", "300", "--seed", "2"],
            ["report", "--graph", "square.json", "--p", "3", "--sigma", "4",
             "--R", "2,3", "--out-prefix", "r"]):
        assert main(argv) == 0, argv
    capsys.readouterr()
    # flow's paths file is written from the packed arrays, not through
    # json.dump: test_paths_file_is_the_json_dump_of_the_old_payload
    assert len(payloads) == 12
    plain = (str, int, float, bool, type(None))
    for payload in payloads:
        assert all(type(leaf) in plain for _, leaf in _leaves(payload))


def _paths_by_json_dump(measure, R, p, sigma) -> bytes:
    """flow's paths file as _dump_json wrote its payload (reference)."""
    payload = {
        "R": R, "p": p, "sigma": sigma,
        "center": measure.center, "boundary": measure.boundary_id,
        "paths": [{"vertices": list(path), "probability": float(prob)}
                  for path, prob in zip(measure.paths, measure.probabilities)],
    }
    buf = io.StringIO()
    cli._print_json(payload, buf)
    return buf.getvalue().encode("utf-8")


def _double(bits):
    return struct.unpack("<d", struct.pack("<q", bits))[0]


@st.composite
def _packed_paths(draw):
    """A PathMeasure of 0 to 12 paths (no paths is the minimal example) of
    1 to 20 ids up to 10**12, with probabilities from the bit patterns of
    positive finite doubles."""
    ids = st.integers(0, 10 ** 12)
    paths = draw(st.lists(st.lists(ids, min_size=1, max_size=20), max_size=12))
    probs = draw(st.lists(st.integers(1, 0x7FEFFFFFFFFFFFFF).map(_double),
                          min_size=len(paths), max_size=len(paths)))
    lengths = [len(path) for path in paths]
    return PathMeasure(
        vertices=np.array([v for path in paths for v in path], dtype=np.int64),
        offsets=np.cumsum([0, *lengths], dtype=np.int64),
        probabilities=np.array(probs, dtype=np.float64),
        center=draw(ids), boundary_id=draw(ids))


@settings(max_examples=300, deadline=None)
@given(measure=_packed_paths(), R=st.integers(0, 10 ** 6),
       p=st.floats(allow_nan=False, allow_infinity=False),
       sigma=st.floats(allow_nan=False, allow_infinity=False))
def test_paths_bytes_are_the_json_dump_of_the_payload(measure, R, p, sigma):
    assert b"".join(cli._paths_bytes(measure, R, p, sigma)) == _paths_by_json_dump(
        measure, R, p, sigma)


def _terms_by_csv_writer(terms, partial_sums) -> bytes:
    """criterion's terms file as the csv.writer loop wrote it (reference)."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "t_n", "partial_sum"])
    for i, (t, s) in enumerate(zip(terms, partial_sums)):
        writer.writerow([i + 1, repr(float(t)), repr(float(s))])
    return buf.getvalue().encode("utf-8")


# positive finite doubles by bit pattern, subnormals and the largest
# doubles among them; partial sums of the largest overflow to inf
_POSITIVE_DOUBLES = st.one_of(
    st.integers(1, 0x7FEFFFFFFFFFFFFF).map(_double),
    st.sampled_from([5e-324, 2.2250738585072009e-308, 1.7976931348623157e308,
                     8.98846567431158e307]))


@settings(max_examples=300, deadline=None)
@given(terms=st.lists(_POSITIVE_DOUBLES, min_size=2, max_size=80))
def test_terms_csv_is_the_csv_writer_bytes(tmp_path_factory, terms):
    terms = np.array(terms, dtype=np.float64)
    path = tmp_path_factory.getbasetemp() / "t.terms.csv"
    with mock.patch.object(cli.crit, "volume_series_terms",
                           lambda W, params: terms), \
            np.errstate(over="ignore"):
        cli._criterion_payload(np.ones(3), None, ExponentParams(2.0, 3.0),
                               path)
        partial_sums = np.cumsum(terms)
    assert path.read_bytes() == _terms_by_csv_writer(terms, partial_sums)


@pytest.mark.parametrize("argv", [
    ["--graph", "tree.json", "--R", "3", "--p", "1.5", "--sigma", "2"],
    ["--graph", "square.json", "--R", "5", "--p", "3", "--sigma", "4"],
], ids=["tree", "square"])
def test_paths_file_is_the_json_dump_of_the_old_payload(workdir, capsys,
                                                        monkeypatch, argv):
    balls = []
    real = cli.analyze_ball
    monkeypatch.setattr(cli, "analyze_ball",
                        lambda *args: balls.append(real(*args)) or balls[-1])
    assert main(["flow", *argv, "--out-prefix", "f"]) == 0
    capsys.readouterr()
    (ball,) = balls
    with open("f.paths.json", "rb") as fh:
        data = fh.read()
    assert data == _paths_by_json_dump(ball.measure, ball.flow.R, ball.flow.p,
                                       float(argv[-1]))
    assert (ball.measure.center, ball.measure.boundary_id) == (
        ball.flow.center, ball.flow.boundary_id)


def test_console_script_is_cli_main():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["p-potential"]
    module, _, name = target.partition(":")
    assert getattr(importlib.import_module(module), name) is main
