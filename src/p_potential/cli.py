"""Command line entry point.

Subcommands: gen (graph files), green (one Dirichlet solve), flow (the
lower-bound chain on one ball: orient and decompose the unit current and
audit the chain), criterion (series reports), verify (the property
suites, which read no graph file), report (the same chain over a radius
ladder, with the probe, the upper bound from one radial shot and the
series: only what its graph, p and sigma determine).  flow and report
both run flows.analyze_ball and only serialize its fields; report derives
capacity_center = g_center^(1-p) and the probe from the ladder's solves.
Beside its chain, every analyzed ball writes g_center = g_R(o) and a
nash_williams row with the chain rows' keys but upper (name, lower,
margin, ok): the cut sum NW_R = sum_{k=0}^R b_k^(-1/(p-1)) as lower, and
g_R(o) - NW_R as margin, so g_R(o) is written once.  The probe labels
growth from the extrapolated tail of that sum.  report shoots once, and
sandwich_upper_bound judges the shot on each ladder ball: a ball it
refuses writes upper_bound null.  report's shoot entry writes the shot's
start u0, which the ball profile fixes, and as reason the refusal of the
first refused ladder row, or null.  The shortfall only grows with the
ball, so that one reason explains every null row.

Every ball is centered at the graph file's root, which is also the pole of
every Green function; another pole is another graph file's root.  criterion
and report sum the volume series over every n the profile holds, so its
horizon is the profile's last n.

No subcommand writes over its input or over another of its outputs.

Determinism contract: identical argv produce byte-identical output files.
All JSON is written with sorted keys and no timestamps.  Only verify draws
at random, every draw from its single --seed; report's files depend on no
seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import criterion as crit
from .errors import PotentialError
from .flows import BallAnalysis, PathMeasure, _path_blocks, analyze_ball
from .graphs import (BallProfile, _text_rows, ball_profile, build_lattice,
                     build_radial_model, build_tree, load_graph, save_graph)
from .green import (green_normalization_check, parabolicity_probe,
                    sandwich_upper_bound, solve_green)
from .operators import ExponentParams, save_vertex_function
from .verify import check_trials, run_suites, shoot_radial_supersolution

REPORT_CSV_COLUMNS = ("R", "g_center", "residual", "capacity_center", "L",
                      "lower_bound", "upper_bound", "path_count",
                      "conservation_defect")


def _finite(obj):
    """The payload as plain JSON values: arrays as lists, numpy scalars as
    Python ones, and every non-finite float as None, JSON null: no finite
    tail remainder (extra), no fit (nan fitted_beta, fitted_gamma,
    fit_error), or a cut-series term past the largest double.  Every
    payload key is a str."""
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _finite(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(value) for value in obj]
    return obj


def _dump_json(path: str, payload) -> None:
    with open(path, "w") as fh:
        _print_json(payload, fh)


def _print_json(payload, fh=None) -> None:
    """Every JSON output, to fh or stdout: sorted keys, indented, _finite."""
    fh = sys.stdout if fh is None else fh
    json.dump(_finite(payload), fh, sort_keys=True, indent=2, allow_nan=False)
    fh.write("\n")


def _paths_bytes(measure: PathMeasure, R: int, p: float, sigma: float):
    """The bytes _dump_json writes for flow's paths payload {"R", "p",
    "sigma", "center", "boundary", "paths": [{"vertices": [...],
    "probability": ...}, ...]}, made from the packed arrays, in pieces: the
    head, one piece per block of whole paths (flows._path_blocks), and the
    tail.

    json writes an int as its repr and a finite float with float.__repr__
    (p, sigma and every probability are finite).  Each block is formatted
    on its own, so no piece and no temporary grows with the measure, and a
    writer that writes each piece as it comes holds one block.  A block's
    vertex rows come from _text_rows; each path's header and footer are
    spliced in at the byte offset of its end.  Every path has at least one
    vertex.
    """
    yield ('{\n  "R": %d,\n  "boundary": %d,\n  "center": %d,\n  "p": %s,\n'
           '  "paths": [' % (R, measure.boundary_id, measure.center,
                             float.__repr__(p))).encode()
    for paths, offsets, vertices in _path_blocks(measure):
        rows = _text_rows(b" " * 8, vertices, b",\n")
        flat = rows[rows != 0].tobytes()
        # byte offsets of the paths' ends in flat, each path's last ",\n" cut off
        ends = np.cumsum(np.count_nonzero(rows, axis=1))[offsets[1:] - 1]
        starts, stops = [0, *ends[:-1].tolist()], (ends - 2).tolist()
        chunks = []
        for prob, start, stop in zip(measure.probabilities[paths].tolist(),
                                     starts, stops):
            chunks += (b'\n    {\n      "probability": %s,\n      "vertices": [\n'
                       % float.__repr__(prob).encode(), flat[start:stop],
                       b"\n      ]\n    },")
        if paths.stop == len(measure):
            chunks[-1] = b"\n      ]\n    }\n  ],"
        yield b"".join(chunks)
    if len(measure) == 0:
        yield b"],"  # the empty paths list's close
    yield ('\n  "sigma": %s\n}\n' % float.__repr__(sigma)).encode()


def _csv_cell(value):
    """Integers as they are, None as an empty cell, other numbers in full."""
    if value is None:
        return ""
    return value if isinstance(value, int) else repr(float(value))


def _check_rows(checks) -> list:
    return [{**asdict(c), "margin": c.margin} for c in checks]


def _ball_fields(ball: BallAnalysis) -> dict:
    """The fields that flow and report both write for one analyzed ball.
    g_R(o) is written once, as g_center: the nash_williams row, whose upper
    side it is, keeps only the cut sum and the margin."""
    nash_williams = _check_rows([ball.nash_williams])[0]
    g_center = nash_williams.pop("upper")
    return {
        "retained_edges": ball.flow.edge_count,
        "path_count": len(ball.measure),
        "probability_sum": float(ball.measure.probabilities.sum()),
        "max_marginal_deviation": ball.marginal_deviation,
        "conservation_defect": ball.margins["conservation_defect"],
        "L": ball.chain.L,
        "lower_bound": ball.chain.rhs,
        "chain": _check_rows(ball.chain.checks),
        "g_center": g_center,
        "nash_williams": nash_williams,
    }


def _check_outputs(inputs, outputs) -> None:
    """ValueError if an output path is (by realpath) an input or another output."""
    seen = {os.path.realpath(path): f"input {path!r}"
            for path in inputs if path is not None}
    for path in outputs:
        real = os.path.realpath(path)
        if real in seen:
            raise ValueError(f"output {path!r} is the same file as the {seen[real]}")
        seen[real] = f"output {path!r}"


def _parse_list(text: str, kind, noun: str) -> list:
    """Comma-separated values of type `kind`; noun names one in errors."""
    try:
        values = [kind(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise ValueError(f"expected comma-separated {noun}s, got {text!r}") from exc
    if not values:
        raise ValueError(f"empty {noun} list")
    return values


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen(args) -> int:
    if args.family == "lattice":
        graph = build_lattice(args.dimension, args.half_side)
    elif args.family == "tree":
        graph = build_tree(args.branching, args.depth)
    else:
        sizes = _parse_list(args.sphere_sizes, int, "integer")
        weights = _parse_list(args.weights, float, "number")
        graph = build_radial_model(sizes, weights)
    save_graph(graph, args.out)
    _print_json({"family": args.family, "out": args.out,
                 "vertex_count": graph.vertex_count,
                 "edge_count": graph.edge_count})
    return 0


def _cmd_green(args) -> int:
    sidecar = os.path.splitext(args.out)[0] + ".json"
    _check_outputs([args.graph], [args.out, sidecar])
    graph = load_graph(args.graph)
    profile = ball_profile(graph)
    green = solve_green(graph, profile, args.R, args.p)
    save_vertex_function(green.values, args.out)
    stages = green.solver_report.stages
    value_at_center = float(green.values[graph.root])
    _dump_json(sidecar, {
        "R": green.R,
        "p": green.p,
        "center": graph.root,
        "residual": green.residual,
        "iterations": green.solver_report.total_iterations,
        "eps_schedule": [st.eps for st in stages],
        "stage_iterations": [st.iterations for st in stages],
        "energy": green.solver_report.energy,
        "value_at_center": value_at_center,
    })
    _print_json({"out": args.out, "sidecar": sidecar,
                 "residual": green.residual,
                 "value_at_center": value_at_center})
    return 0


def _cmd_flow(args) -> int:
    paths_path = args.out_prefix + ".paths.json"
    report_path = args.out_prefix + ".report.json"
    _check_outputs([args.graph], [paths_path, report_path])
    graph = load_graph(args.graph)
    profile = ball_profile(graph)
    params = ExponentParams(p=args.p, sigma=args.sigma)
    ball = analyze_ball(graph, profile, args.R, params)
    flow = ball.flow

    with open(paths_path, "wb") as fh:
        fh.writelines(_paths_bytes(ball.measure, flow.R, flow.p, params.sigma))
    _dump_json(report_path, {
        **_ball_fields(ball),
        "R": flow.R, "p": flow.p, "sigma": params.sigma,
        "cut_margin": ball.margins["cut_margin"],
        "per_n": ball.chain.per_n,
    })
    _print_json({"paths": paths_path, "report": report_path,
                 "path_count": len(ball.measure), "L": ball.chain.L,
                 "lower_bound": ball.chain.rhs})
    return 0


def _row_error(path, line: int, row: list, what: str) -> ValueError:
    return ValueError(f"{path}: line {line}: row {row!r} {what}")


def _load_profile_csv(path: str) -> np.ndarray:
    """Volume profile CSV with header n,W -> array indexed by n.

    A row that does not start with an integer n and a number W, or that
    repeats an n, raises ValueError naming the path, the line and the row.
    """
    volumes = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["n", "W"]:
            raise ValueError(f"{path}: expected header 'n,W'")
        for row in reader:
            if not row:
                continue
            try:
                n, value = int(row[0]), float(row[1])
            except (IndexError, ValueError):
                raise _row_error(path, reader.line_num, row,
                                 "is malformed") from None
            if n in volumes:
                raise _row_error(path, reader.line_num, row, f"repeats n = {n}")
            volumes[n] = value
    if not volumes:
        raise ValueError(f"{path}: no data rows")
    ns = sorted(volumes)
    if ns[0] not in (0, 1) or ns != list(range(ns[0], ns[0] + len(ns))):
        raise ValueError(f"{path}: n must be contiguous from 0 or 1")
    W = np.empty(ns[-1] + 1)
    W[0] = volumes[ns[0]]  # placeholder when the file starts at n = 1
    W[ns] = [volumes[n] for n in ns]
    return W


def _criterion_payload(W: np.ndarray, profile: BallProfile | None,
                       params: ExponentParams, terms_path: str) -> dict:
    """Volume series of W over every n it holds, so the horizon is
    len(W) - 1; with a graph's profile, also its cut series.  The terms
    CSV holds csv.writer's bytes for [n, repr(t_n), repr(partial sum)]."""
    series = crit.classify(crit.volume_series_terms(W, params))
    rows = _text_rows(np.arange(1, series.horizon + 1), b",", series.terms,
                      b",", series.partial_sums, b"\n")
    with open(terms_path, "wb") as fh:
        fh.write(b"n,t_n,partial_sum\n" + rows[rows != 0].tobytes())
    beta, gamma = series.fitted_exponents
    payload = {
        "p": params.p, "sigma": params.sigma,
        "horizon": series.horizon,
        "classification": series.classification,
        "fitted_beta": beta, "fitted_gamma": gamma,
        "fit_error": series.fit_error,
        "partial_sum": float(series.partial_sums[-1]),
        "exponent_identity": list(crit.exponent_identity(params)),
        "terms_csv": terms_path,
        "cut_series": None, "dyadic": None,
        "cut_volume_margin": None, "midrange": None,
    }
    if profile is not None:
        R = profile.R_max
        if R >= 1:
            # every b_k > 0 on a graph's profile, so an infinite term is an
            # overflow (cut_series_terms), and the sum is past the doubles
            s_terms = crit.cut_series_terms(profile.b, params, R)
            with np.errstate(over="ignore"):
                sum_truncated = float(s_terms.sum())
            cut = {
                "R": R,
                "terms": s_terms,
                "sum_truncated": sum_truncated,
                "has_infinite_terms": bool(np.any(~np.isfinite(s_terms))),
                "tail_extrapolation": None,
            }
            if R >= 4:
                tail = crit.extrapolate_cut_tail(profile.b, params, R)
                cut["tail_extrapolation"] = asdict(tail)
            payload["cut_series"] = cut
            payload["dyadic"] = asdict(crit.dyadic_blocks(profile.M, params))
            payload["cut_volume_margin"] = crit.cut_volume_check(profile)
            if R >= 4:
                payload["midrange"] = [asdict(row) for row in
                                       crit.midrange_cut_bound(profile, params, R)]
    return payload


def _cmd_criterion(args) -> int:
    terms_path = args.out_prefix + ".terms.csv"
    out = args.out_prefix + ".json"
    _check_outputs([args.graph, args.profile], [terms_path, out])
    params = ExponentParams(p=args.p, sigma=args.sigma)
    if args.graph is not None:
        profile = ball_profile(load_graph(args.graph))
        W = profile.W
    else:
        profile = None
        W = _load_profile_csv(args.profile)
    payload = _criterion_payload(W, profile, params, terms_path)
    payload["source"] = {"graph": args.graph, "profile": args.profile}
    _dump_json(out, payload)
    _print_json({"out": out, "terms_csv": terms_path,
                 "classification": payload["classification"]})
    return 0


def _cmd_verify(args) -> int:
    check_trials(args.trials)
    if args.seed < 0:
        raise ValueError(f"--seed must be nonnegative, got {args.seed}")
    reports = run_suites(args.suite, trials=args.trials, seed=args.seed)
    payload = {
        "suites": [asdict(rep) for rep in reports],
        "ok": all(rep.ok for rep in reports),
    }
    _print_json(payload)
    return 0 if payload["ok"] else 1


def _cmd_report(args) -> int:
    terms_path = args.out_prefix + ".terms.csv"
    json_path = args.out_prefix + ".json"
    csv_path = args.out_prefix + ".csv"
    _check_outputs([args.graph], [terms_path, json_path, csv_path])
    graph = load_graph(args.graph)
    profile = ball_profile(graph)
    params = ExponentParams(p=args.p, sigma=args.sigma)
    radii = _parse_list(args.R, int, "integer")
    if any(R < 0 or R > profile.R_max for R in radii):
        raise ValueError(f"radii must lie in [0, {profile.R_max}]")

    shot = shoot_radial_supersolution(graph, params, profile)
    refusal = None
    ladder = []
    for R in radii:
        ball = analyze_ball(graph, profile, R, params)
        green = ball.green
        fields = _ball_fields(ball)
        try:
            upper = sandwich_upper_bound(graph, profile, green, shot, params)
        except ValueError as exc:
            upper = None
            refusal = refusal or str(exc)
        ladder.append({
            **fields,
            "R": R,
            "residual": green.residual,
            "iterations": green.solver_report.total_iterations,
            "normalization_dev": green_normalization_check(graph, green),
            "capacity_center": fields["g_center"] ** (1.0 - params.p),
            "chain_ok": ball.chain.ok,
            "upper_bound": upper,
        })

    probe = None
    if len(radii) >= 3 and all(b > a for a, b in zip(radii, radii[1:])):
        probe = asdict(parabolicity_probe(
            radii, [row["g_center"] for row in ladder], profile.b, params))

    criterion_payload = _criterion_payload(profile.W, profile, params,
                                           terms_path)
    payload = {
        "graph": {"path": args.graph, "vertex_count": graph.vertex_count,
                  "edge_count": graph.edge_count, "root": graph.root,
                  "eccentricity": profile.eccentricity},
        "p": params.p, "sigma": params.sigma,
        "shoot": {"u0": shot[graph.root], "reason": refusal},
        "ladder": ladder,
        "probe": probe,
        "criterion": criterion_payload,
    }
    _dump_json(json_path, payload)

    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(REPORT_CSV_COLUMNS)
        for row in ladder:
            writer.writerow([_csv_cell(row[key]) for key in REPORT_CSV_COLUMNS])
    _print_json({"out": json_path, "csv": csv_path})
    return 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="p-potential",
        description="Discrete nonlinear potential theory on weighted graphs: "
                    "Green functions, unit currents, path decompositions, and "
                    "volume-growth series reports.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a graph file")
    gen.add_argument("--family", required=True,
                     choices=["lattice", "tree", "radial"])
    gen.add_argument("--dimension", type=int, default=1)
    gen.add_argument("--half-side", type=int, default=8, dest="half_side")
    gen.add_argument("--branching", type=int, default=2)
    gen.add_argument("--depth", type=int, default=4)
    gen.add_argument("--sphere-sizes", default="1,2,4", dest="sphere_sizes",
                     help="comma-separated sphere sizes, first must be 1")
    gen.add_argument("--weights", default="1,1",
                     help="comma-separated radial edge weights")
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_gen)

    green = sub.add_parser("green", help="solve one ball Dirichlet problem")
    green.add_argument("--graph", required=True)
    green.add_argument("--R", type=int, required=True)
    green.add_argument("--p", type=float, required=True)
    green.add_argument("--out", required=True,
                       help="CSV output path; a JSON sidecar lands beside it")
    green.set_defaults(func=_cmd_green)

    flow = sub.add_parser("flow", help="orient and decompose the unit current")
    flow.add_argument("--graph", required=True)
    flow.add_argument("--R", type=int, required=True)
    flow.add_argument("--p", type=float, required=True)
    flow.add_argument("--sigma", type=float, required=True)
    flow.add_argument("--out-prefix", default="flow", dest="out_prefix")
    flow.set_defaults(func=_cmd_flow)

    criterion = sub.add_parser("criterion", help="series report")
    group = criterion.add_mutually_exclusive_group(required=True)
    group.add_argument("--graph")
    group.add_argument("--profile", help="CSV with header n,W")
    criterion.add_argument("--p", type=float, required=True)
    criterion.add_argument("--sigma", type=float, required=True)
    criterion.add_argument("--out-prefix", default="criterion",
                           dest="out_prefix")
    criterion.set_defaults(func=_cmd_criterion)

    verify = sub.add_parser("verify", help="run property suites")
    verify.add_argument("--suite", default="all",
                        choices=["picone", "hardy", "positivity", "sandwich",
                                 "all"])
    verify.add_argument("--trials", type=int, default=100_000)
    verify.add_argument("--seed", type=int, default=0)
    verify.set_defaults(func=_cmd_verify)

    report = sub.add_parser(
        "report", help="the chain, shot and series over a radius ladder")
    report.add_argument("--graph", required=True)
    report.add_argument("--p", type=float, required=True)
    report.add_argument("--sigma", type=float, required=True)
    report.add_argument("--R", required=True,
                        help="comma-separated radius ladder, e.g. 2,4,6")
    report.add_argument("--seed", type=int, default=0,
                        help="ignored; kept so existing command lines parse")
    report.add_argument("--out-prefix", default="report", dest="out_prefix")
    report.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PotentialError, ValueError, OverflowError, OSError) as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)},
                  sys.stderr, sort_keys=True)
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
