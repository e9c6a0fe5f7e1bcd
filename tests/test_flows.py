"""Unit currents, path decompositions, and the lower-bound chain."""

import dataclasses

import numpy as np
import pytest

from p_potential import (
    ConsistencyError,
    ExponentParams,
    PathMeasure,
    VerificationError,
    VertexFunction,
    WeightedGraph,
    analyze_ball,
    ball_profile,
    build_lattice,
    build_radial_model,
    build_tree,
    compute_L,
    decompose_paths,
    edge_marginals,
    empirical_lower_bound,
    first_exit_indices,
    flow_checks,
    orient_flow,
    parallel_sum,
    path_hardy_check,
    solve_green,
)

CHAIN_CHECK_NAMES = [
    "path mass expectation <= L",
    "path mass identity (1e-9 relative)",
    "one-path estimate (worst path)",
    "exit drops form a sub-sum (worst path, n)",
    "step indices dominate radii (worst path)",
    "exit moment <= cut conductance (worst n, k)",
    "convexity step (worst n)",
    "cut-series lower bound for L",
]


def _solve_flow(graph, R, p):
    prof = ball_profile(graph)
    green = solve_green(graph, prof, R, p)
    return prof, green, orient_flow(graph, prof, green)


# ---------------------------------------------------------------------------
# orientation


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_symmetric_chain_splits_in_half(p):
    graph = build_lattice(1, 4)
    prof, green, flow = _solve_flow(graph, 2, p)
    assert flow.edge_count == 6  # 4 interior edges + 2 collapsed rim edges
    np.testing.assert_allclose(flow.theta, 0.5, atol=1e-9)
    assert flow.boundary_id == graph.vertex_count
    # drops decrease along g: every retained edge points down the potential
    g = np.append(green.values.values, 0.0)
    assert np.all(g[flow.tails] > g[flow.heads])


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_star_of_rays_spokes_carry_equal_shares(p):
    k = 5
    graph = build_radial_model([1, k, k], [1.0, 1.0])
    _, _, flow = _solve_flow(graph, 1, p)
    spokes = flow.tails == graph.root
    assert spokes.sum() == k
    np.testing.assert_allclose(flow.theta[spokes], 1.0 / k, atol=1e-9)
    np.testing.assert_allclose(flow.theta[~spokes], 1.0 / k, atol=1e-9)


def test_flat_crossbar_is_dropped():
    # a zero-drop edge between twin mid vertices carries no current
    graph = WeightedGraph(4, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0),
                              (1, 3, 1.0), (2, 3, 1.0)])
    _, _, flow = _solve_flow(graph, 1, 2.0)
    assert flow.edge_count == 4
    pairs = set(zip(flow.tails.tolist(), flow.heads.tolist()))
    assert (1, 2) not in pairs and (2, 1) not in pairs


def test_oriented_flow_is_conservative_and_acyclic():
    graph = build_tree(2, 5)
    prof, green, flow = _solve_flow(graph, 3, 2.0)
    checks = flow_checks(graph, prof, flow)
    assert checks["conservation_defect"] <= 100.0 * green.residual
    assert checks["min_tail_slack"] >= -1e-12
    assert np.all(checks["cut_margin"] >= -1e-12)
    assert checks["boundary_tails_at_rim"]


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_conservation_defect_is_the_largest_net_imbalance(p):
    graph = build_lattice(2, 5)
    _, _, flow = _solve_flow(graph, 3, p)
    net = np.zeros(flow.boundary_id + 1)
    np.add.at(net, flow.tails, flow.theta)
    np.subtract.at(net, flow.heads, flow.theta)
    net[flow.center] -= 1.0
    net[flow.boundary_id] += 1.0
    assert flow.conservation_defect == float(np.abs(net).max())


def test_chain_flow_saturates_every_cut():
    # on the path all conductance is used, so the cut margins vanish
    graph = build_lattice(1, 4)
    prof, _, flow = _solve_flow(graph, 2, 2.0)
    checks = flow_checks(graph, prof, flow)
    np.testing.assert_allclose(checks["cut_margin"], 0.0, atol=1e-12)
    assert checks["min_tail_slack"] == pytest.approx(0.0, abs=1e-12)


def test_orient_rejects_tampered_values():
    graph = build_lattice(1, 4)
    prof = ball_profile(graph)
    green = solve_green(graph, prof, 2, 2.0)
    broken = green.values.values.copy()
    broken[1] = 0.0  # kill an interior value: conservation must break
    bad = dataclasses.replace(green, values=VertexFunction(graph, broken))
    with pytest.raises(ConsistencyError):
        orient_flow(graph, prof, bad)


def test_orient_rejects_all_edges_below_threshold():
    graph = build_lattice(1, 3)
    prof = ball_profile(graph)
    green = solve_green(graph, prof, 1, 2.0)
    with pytest.raises(ConsistencyError):
        orient_flow(graph, prof, green, zero_drop_threshold=10.0)


# ---------------------------------------------------------------------------
# path decomposition


def test_single_chain_is_one_sure_path():
    graph = build_radial_model([1, 1, 1], [1.0, 1.0])
    _, _, flow = _solve_flow(graph, 1, 2.0)
    measure = decompose_paths(flow)
    assert measure.paths == [(0, 1, 3)]
    assert measure.probabilities.tolist() == [1.0]


def test_two_parallel_chains_split_evenly():
    graph = build_radial_model([1, 2, 2], [1.0, 1.0])
    _, _, flow = _solve_flow(graph, 1, 2.0)
    measure = decompose_paths(flow)
    # the solver may leave the two rays an ulp apart, so the order between
    # them is not pinned here (see the exact-tie test below)
    assert sorted(measure.paths) == [(0, 1, 5), (0, 2, 5)]
    np.testing.assert_allclose(measure.probabilities, [0.5, 0.5], atol=1e-12)


def test_exact_ties_break_toward_smaller_head():
    from p_potential import UnitFlow

    graph = build_radial_model([1, 2, 2], [1.0, 1.0])
    ones = np.ones(4)
    flow = UnitFlow(graph=graph, R=1, p=2.0, center=0, boundary_id=5,
                    tails=np.array([0, 0, 1, 2]),
                    heads=np.array([1, 2, 5, 5]),
                    theta=np.full(4, 0.5), delta=ones * 0.5,
                    conductance=ones, residual=1e-13,
                    conservation_defect=0.0, drop_threshold=0.0)
    measure = decompose_paths(flow)
    assert measure.paths == [(0, 1, 5), (0, 2, 5)]
    assert measure.probabilities.tolist() == [0.5, 0.5]


def test_unbalanced_diamond_paths_match_branch_flows():
    graph = WeightedGraph(4, [(0, 1, 2.0), (0, 2, 1.0),
                              (1, 3, 2.0), (2, 3, 1.0)])
    _, _, flow = _solve_flow(graph, 1, 2.0)
    measure = decompose_paths(flow)
    assert measure.paths == [(0, 1, 4), (0, 2, 4)]
    np.testing.assert_allclose(measure.probabilities, [2 / 3, 1 / 3],
                               atol=1e-12)


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_marginals_recover_the_flow_exactly(p):
    graph = build_tree(2, 5)
    _, _, flow = _solve_flow(graph, 3, p)
    measure = decompose_paths(flow)
    marg = edge_marginals(flow, measure)
    assert np.abs(marg - flow.theta).max() <= 1e-9
    assert len(measure) <= flow.edge_count
    assert measure.probabilities.sum() == pytest.approx(1.0, abs=1e-10)
    assert np.all(measure.probabilities > 0.0)
    for path in measure.paths:
        assert path[0] == flow.center
        assert path[-1] == flow.boundary_id


def test_paths_descend_the_green_function():
    graph = build_lattice(2, 4)
    prof = ball_profile(graph)
    green = solve_green(graph, prof, 3, 2.0)
    flow = orient_flow(graph, prof, green)
    measure = decompose_paths(flow)
    g = np.append(green.values.values, 0.0)
    for path in measure.paths:
        vals = g[np.asarray(path)]
        assert np.all(np.diff(vals) < 0.0)


# ---------------------------------------------------------------------------
# the one-path estimate


def test_path_hardy_constant_p2_sigma3():
    assert ExponentParams(p=2, sigma=3).c_hardy == 0.5


def test_path_hardy_two_values_has_zero_rhs():
    params = ExponentParams(p=2, sigma=3)
    lhs, rhs = path_hardy_check([1.0, 0.25], params)
    assert rhs == 0.0
    assert lhs == pytest.approx(1.0 / 0.75, rel=1e-14)


def test_path_hardy_geometric_example():
    params = ExponentParams(p=2, sigma=3)
    values = [2.0 ** (-i) for i in range(6)]
    lhs, rhs = path_hardy_check(values, params)
    # drops are 2^-(i+1): lhs = sum_{i<5} 2^(1-2i), rhs = 0.5 sum j 4^-j
    assert lhs == pytest.approx(682.0 / 256.0, rel=1e-14)
    assert rhs == pytest.approx(56.0 / 256.0, rel=1e-14)
    assert lhs >= rhs


def test_path_hardy_holds_on_random_descents():
    rng = np.random.default_rng(4)
    for _ in range(500):
        m = int(rng.integers(2, 12))
        drops = rng.uniform(0.01, 1.0, size=m)
        tail = float(rng.uniform(0.0, 0.5))
        values = tail + np.concatenate([[0.0], np.cumsum(drops)])[::-1]
        p = float(rng.uniform(1.2, 4.0))
        sigma = float(rng.uniform(p - 1.0 + 0.05, 6.0))
        lhs, rhs = path_hardy_check(values, ExponentParams(p=p, sigma=sigma))
        assert lhs >= rhs * (1.0 - 1e-12)


def test_path_hardy_input_validation():
    params = ExponentParams(p=2, sigma=3)
    with pytest.raises(ValueError):
        path_hardy_check([1.0], params)
    with pytest.raises(ValueError):
        path_hardy_check([1.0, 1.0, 0.5], params)  # not strictly decreasing
    with pytest.raises(ValueError):
        path_hardy_check([1.0, -0.1], params)


# ---------------------------------------------------------------------------
# parallel sums


def test_parallel_sum_examples():
    assert parallel_sum([2.0, 2.0], 1.0) == pytest.approx(1.0, rel=1e-14)
    assert parallel_sum([7.0], 3.3) == pytest.approx(7.0, rel=1e-14)


def test_parallel_sum_monotone_and_midpoint_concave():
    rng = np.random.default_rng(9)
    for _ in range(200):
        r = float(rng.uniform(0.2, 4.0))
        y1 = rng.uniform(0.1, 5.0, size=6)
        y2 = rng.uniform(0.1, 5.0, size=6)
        mid = parallel_sum((y1 + y2) / 2.0, r)
        avg = 0.5 * (parallel_sum(y1, r) + parallel_sum(y2, r))
        assert mid >= avg - 1e-12
        bumped = y1.copy()
        bumped[0] += 0.1
        assert parallel_sum(bumped, r) > parallel_sum(y1, r)


def test_parallel_sum_validation():
    with pytest.raises(ValueError):
        parallel_sum([], 1.0)
    with pytest.raises(ValueError):
        parallel_sum([1.0, 0.0], 1.0)
    with pytest.raises(ValueError):
        parallel_sum([1.0], -1.0)


# ---------------------------------------------------------------------------
# first exits


def test_first_exits_on_monotone_path():
    graph = build_lattice(1, 5)
    prof = ball_profile(graph)
    # ids 0, 2, 4, 6, 8 are coordinates 0..4; then the boundary sentinel
    path = (0, 2, 4, 6, graph.vertex_count)
    alphas = first_exit_indices(path, prof, 1, 3)
    assert alphas.tolist() == [1, 2, 3]
    assert first_exit_indices(path, prof, 2, 3).tolist() == [2, 3]


def _exits_by_scan(radii, n, R):
    """Brute-force oracle: first index at or after the first visit to
    radius n whose step leaves B_k."""
    tau = radii.index(n)
    out = []
    for k in range(n, R + 1):
        for i in range(tau, len(radii) - 1):
            if radii[i] <= k < radii[i + 1]:
                out.append(i)
                break
    return out


def test_first_exits_on_backtracking_walk():
    graph = build_lattice(2, 4)
    prof = ball_profile(graph)
    # rebuild the generator's coordinate order to address vertices by point
    coords = sorted(
        ((x, y) for x in range(-4, 5) for y in range(-4, 5)),
        key=lambda c: (abs(c[0]) + abs(c[1]), c))
    at = {c: i for i, c in enumerate(coords)}
    walk = [at[(0, 0)], at[(1, 0)], at[(1, 1)], at[(1, 0)], at[(2, 0)],
            at[(2, 1)], graph.vertex_count]
    radii = [0, 1, 2, 1, 2, 3, 4]
    assert [prof.radius_of[v] for v in walk[:-1]] == radii[:-1]
    for n in (1, 2, 3):
        got = first_exit_indices(walk, prof, n, 3).tolist()
        assert got == _exits_by_scan(radii, n, 3)
    # the backtrack forces the exit from B_2 to wait until index 4
    assert first_exit_indices(walk, prof, 1, 3).tolist() == [1, 4, 5]


def test_first_exit_indices_are_distinct_and_increasing():
    graph = build_tree(2, 5)
    prof = ball_profile(graph)
    _, green, flow = _solve_flow(graph, 3, 2.0)
    measure = decompose_paths(flow)
    g = np.append(green.values.values, 0.0)
    for path in measure.paths:
        for n in (1, 2, 3):
            alphas = first_exit_indices(path, prof, n, 3)
            assert np.all(np.diff(alphas) > 0)
            # drops along distinct exit edges never exceed the value at tau_n
            vals = g[np.asarray(path)]
            drops = vals[alphas] - vals[alphas + 1]
            tau = next(i for i, v in enumerate(path[:-1])
                       if prof.radius_of[v] == n)
            assert drops.sum() <= vals[tau] + 1e-12
            # on a radially monotone path the sub-sum telescopes exactly
            assert drops.sum() == pytest.approx(vals[tau], rel=1e-12)


def test_first_exit_validation():
    graph = build_lattice(1, 5)
    prof = ball_profile(graph)
    path = (0, 2, 4, 6, graph.vertex_count)
    with pytest.raises(ValueError):
        first_exit_indices(path, prof, 0, 3)
    with pytest.raises(ValueError):
        first_exit_indices(path, prof, 3, 2)
    with pytest.raises(ValueError):
        first_exit_indices((0, 2), prof, 2, 3)  # never reaches radius 2


# ---------------------------------------------------------------------------
# the assembled chain


@pytest.mark.parametrize("graph_factory, R", [
    (lambda: build_tree(2, 5), 3),
    (lambda: build_lattice(1, 4), 2),
    (lambda: build_lattice(2, 4), 3),
])
def test_lower_bound_chain_passes(graph_factory, R):
    graph = graph_factory()
    params = ExponentParams(p=2, sigma=3)
    prof = ball_profile(graph)
    green = solve_green(graph, prof, R, 2.0)
    flow = orient_flow(graph, prof, green)
    measure = decompose_paths(flow)
    report = empirical_lower_bound(graph, prof, green, flow, measure, params)
    assert report.ok
    assert [c.name for c in report.checks] == CHAIN_CHECK_NAMES
    assert report.failures == []
    assert 0.0 < report.rhs <= report.L
    assert report.L == pytest.approx(compute_L(graph, prof, green, 3.0),
                                     rel=1e-12)
    assert [row["n"] for row in report.per_n] == list(range(1, R + 1))
    for row in report.per_n:
        assert row["term"] > 0.0
        assert row["cut_tail"] <= row["exit_moment"] + 1e-12


def test_chain_with_p3_sigma4():
    graph = build_tree(2, 4)
    params = ExponentParams(p=3, sigma=4)
    prof = ball_profile(graph)
    green = solve_green(graph, prof, 2, 3.0)
    flow = orient_flow(graph, prof, green)
    measure = decompose_paths(flow)
    report = empirical_lower_bound(graph, prof, green, flow, measure, params)
    assert report.ok
    assert report.rhs <= report.L


def test_chain_exit_moment_is_tight_on_the_line():
    # one path per arm, drop exactly 1/2 per edge: E delta^-r == b_k == 2
    graph = build_lattice(1, 4)
    params = ExponentParams(p=2, sigma=3)
    prof = ball_profile(graph)
    green = solve_green(graph, prof, 2, 2.0)
    flow = orient_flow(graph, prof, green)
    measure = decompose_paths(flow)
    report = empirical_lower_bound(graph, prof, green, flow, measure, params)
    moment = next(c for c in report.checks
                  if c.name == "exit moment <= cut conductance (worst n, k)")
    assert moment.ok
    assert moment.lower == pytest.approx(moment.upper, rel=1e-9)


def test_chain_rejects_tampered_measure():
    graph = build_tree(2, 4)
    params = ExponentParams(p=2, sigma=3)
    prof = ball_profile(graph)
    green = solve_green(graph, prof, 2, 2.0)
    flow = orient_flow(graph, prof, green)
    measure = decompose_paths(flow)
    shaved = PathMeasure(paths=measure.paths,
                         probabilities=measure.probabilities * 0.5,
                         center=measure.center,
                         boundary_id=measure.boundary_id)
    with pytest.raises(VerificationError, match="path mass identity"):
        empirical_lower_bound(graph, prof, green, flow, shaved, params)


# ---------------------------------------------------------------------------
# the pipeline on one ball


@pytest.mark.parametrize("p, sigma", [(2.0, 3.0), (1.5, 2.0), (3.0, 4.0)])
def test_analyze_ball_runs_the_chain_step_by_step(p, sigma):
    graph = build_tree(2, 5)
    params = ExponentParams(p=p, sigma=sigma)
    prof = ball_profile(graph)
    ball = analyze_ball(graph, prof, 3, params)

    green = solve_green(graph, prof, 3, p)
    flow = orient_flow(graph, prof, green)
    measure = decompose_paths(flow)
    chain = empirical_lower_bound(graph, prof, green, flow, measure, params)
    np.testing.assert_array_equal(ball.green.values.values,
                                  green.values.values)
    np.testing.assert_array_equal(ball.flow.theta, flow.theta)
    assert ball.measure.paths == measure.paths
    assert ball.chain.ok and ball.chain.checks == chain.checks
    assert ball.chain.L == compute_L(graph, prof, green, sigma)
    margins = flow_checks(graph, prof, flow)
    assert ball.margins["conservation_defect"] == flow.conservation_defect
    np.testing.assert_array_equal(ball.margins["cut_margin"],
                                  margins["cut_margin"])
    assert ball.marginal_deviation == float(
        np.abs(edge_marginals(flow, measure) - flow.theta).max())


def test_analyze_ball_propagates_a_failed_step():
    graph = build_tree(2, 3)
    with pytest.raises(ValueError, match="radius"):
        analyze_ball(graph, ball_profile(graph), -1,
                     ExponentParams(p=2.0, sigma=3.0))
