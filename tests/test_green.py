"""Green functions on balls: closed forms, capacity, L, and the probe."""

import dataclasses

import numpy as np
import pytest

from p_potential import (
    INCONCLUSIVE,
    ExponentParams,
    LOOKS_NON_PARABOLIC,
    LOOKS_PARABOLIC,
    SolveOptions,
    SolverError,
    VertexFunction,
    ball_profile,
    build_lattice,
    build_tree,
    compute_L,
    dirichlet_pairing,
    green_normalization_check,
    p_laplacian_all,
    parabolicity_probe,
    sandwich_upper_bound,
    solve_green,
)
from p_potential.green import capacity
from p_potential.verify import shoot_radial_supersolution

PS = (1.5, 2.0, 3.0)


def path_green_at_root(R: int, p: float) -> float:
    # unit current splits in half; each of the R+1 edges per arm drops
    # (1/2)^(1/(p-1))
    return (R + 1) * 0.5 ** (1.0 / (p - 1.0))


def tree_green_at_root(R: int, p: float) -> float:
    # the current through each depth-k edge is 2^-k
    return sum(2.0 ** (-k / (p - 1.0)) for k in range(1, R + 2))


# ---------------------------------------------------------------------------
# closed forms


@pytest.mark.parametrize("p", PS)
@pytest.mark.parametrize("R", [1, 2, 4])
def test_path_closed_form(p, R):
    graph = build_lattice(1, R + 1)
    green = solve_green(graph, ball_profile(graph), R, p)
    got = green.values[graph.root]
    assert got == pytest.approx(path_green_at_root(R, p), rel=1e-6)


@pytest.mark.parametrize("p", PS)
@pytest.mark.parametrize("R", [1, 3])
def test_tree_closed_form(p, R):
    graph = build_tree(2, R + 1)
    green = solve_green(graph, ball_profile(graph), R, p)
    got = green.values[graph.root]
    assert got == pytest.approx(tree_green_at_root(R, p), rel=1e-6)


def test_tree_p2_value_is_exact_dyadic():
    graph = build_tree(2, 4)
    green = solve_green(graph, ball_profile(graph), 3, 2.0)
    assert green.values[0] == pytest.approx(15.0 / 16.0, abs=1e-12)


@pytest.mark.parametrize("p", PS)
def test_ball_zero_closed_form(p):
    # B_0 = {root}: the single unknown solves mu(o) * g^(p-1) = 1
    for graph in (build_lattice(1, 2), build_tree(2, 2), build_lattice(2, 2)):
        prof = ball_profile(graph)
        green = solve_green(graph, prof, 0, p)
        mu = graph.vertex_measure[graph.root]
        assert green.values[graph.root] == pytest.approx(
            mu ** (-1.0 / (p - 1.0)), rel=1e-9)


# ---------------------------------------------------------------------------
# qualitative structure


@pytest.mark.parametrize("p", PS)
def test_green_support_and_maximum(p):
    graph = build_tree(2, 4)
    prof = ball_profile(graph)
    green = solve_green(graph, prof, 2, p)
    ball = prof.ball_mask(2)
    v = green.values.values
    assert np.all(v[~ball] == 0.0)
    assert np.all(v[ball] > 0.0)
    assert np.argmax(v) == green.center
    # radially decreasing on the tree
    order = np.argsort(prof.radius_of[ball], kind="stable")
    by_radius = v[ball][order]
    assert np.all(np.diff(by_radius) <= 1e-12)


def test_green_monotone_in_radius():
    graph = build_lattice(2, 4)
    prof = ball_profile(graph)
    for p in PS:
        values = [solve_green(graph, prof, R, p).values[graph.root]
                  for R in (0, 1, 2, 3)]
        assert np.all(np.diff(values) >= -1e-8)


def test_normalization_check_small():
    graph = build_tree(2, 4)
    prof = ball_profile(graph)
    for p in (2.0, 3.0):
        green = solve_green(graph, prof, 3, p)
        dev = green_normalization_check(graph, green)
        assert dev <= 1e-8


def _perturbed_green(p: float):
    """A Green function of tree(2, 5) on B_4 with its values jittered by
    up to 1%, so that the normalization defect is far above rounding."""
    graph = build_tree(2, 5)
    prof = ball_profile(graph)
    green = solve_green(graph, prof, 4, p)
    jitter = np.random.default_rng(5).uniform(0.99, 1.01, graph.vertex_count)
    values = VertexFunction(graph, green.values.values * jitter)
    return graph, prof, dataclasses.replace(green, values=values)


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_normalization_check_is_attained_at_the_defect_sign(p):
    graph, prof, green = _perturbed_green(p)
    dev = green_normalization_check(graph, green)
    defect = (-p_laplacian_all(graph, green.values, p)
              * graph.vertex_measure)
    defect[green.center] -= 1.0
    psi = np.where(prof.ball_mask(4), np.sign(defect), 0.0)
    pairing = dirichlet_pairing(graph, green.values, psi, p)
    assert dev > 1e-3
    assert pairing - psi[green.center] == pytest.approx(dev, rel=1e-10)


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_normalization_check_bounds_random_test_functions(p):
    graph, prof, green = _perturbed_green(p)
    dev = green_normalization_check(graph, green)
    ball = prof.ball_mask(4)
    rng = np.random.default_rng(11)
    for _ in range(5):
        psi = np.where(ball, rng.uniform(-1.0, 1.0, graph.vertex_count), 0.0)
        sampled = abs(dirichlet_pairing(graph, green.values, psi, p)
                      - psi[green.center])
        assert sampled <= dev * (1.0 + 1e-10)


def test_center_outside_ball_rejected():
    graph = build_tree(2, 3)
    prof = ball_profile(graph)
    leaf = graph.vertex_count - 1
    with pytest.raises(ValueError):
        solve_green(graph, prof, 1, 2.0, center=leaf)


def test_off_root_center():
    graph = build_lattice(1, 3)
    prof = ball_profile(graph)
    # id 1 sits at coordinate -1, inside B_1
    green = solve_green(graph, prof, 1, 2.0, center=1)
    v = green.values.values
    assert np.argmax(v) == 1
    assert v[1] > v[0] > 0.0


def test_unreachable_residual_target_raises_with_best():
    graph = build_tree(2, 3)
    prof = ball_profile(graph)
    with pytest.raises(SolverError) as err:
        solve_green(graph, prof, 2, 3.0,
                    options=SolveOptions(residual_target=0.0))
    best = err.value.best
    assert best is not None
    assert best.values[graph.root] == pytest.approx(
        tree_green_at_root(2, 3.0), rel=1e-6)


# ---------------------------------------------------------------------------
# capacity


@pytest.mark.parametrize("p", PS)
def test_capacity_of_center_is_reciprocal_green(p):
    graph = build_lattice(1, 4)
    prof = ball_profile(graph)
    for R in (1, 2, 3):
        g = solve_green(graph, prof, R, p).values[graph.root]
        cap = capacity(graph, prof, [graph.root], R, p)
        assert cap == pytest.approx(g ** (1.0 - p), rel=1e-6)


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_capacity_of_full_ball_counts_rim_edges(p):
    # the potential is forced to 1 on all of B_2 and 0 outside, so the
    # energy is the total conductance of the two rim edges
    graph = build_lattice(1, 3)
    prof = ball_profile(graph)
    target = np.flatnonzero(prof.ball_mask(2))
    assert capacity(graph, prof, target, 2, p) == pytest.approx(2.0, abs=1e-12)


def test_capacity_nonincreasing_in_radius():
    graph = build_tree(2, 4)
    prof = ball_profile(graph)
    caps = [capacity(graph, prof, [0], R, 2.0) for R in (1, 2, 3)]
    assert np.all(np.diff(caps) <= 1e-10)


def test_capacity_validation():
    graph = build_tree(2, 3)
    prof = ball_profile(graph)
    with pytest.raises(ValueError):
        capacity(graph, prof, [], 1, 2.0)
    with pytest.raises(ValueError):
        capacity(graph, prof, [99], 1, 2.0)
    with pytest.raises(ValueError):
        capacity(graph, prof, [graph.vertex_count - 1], 1, 2.0)  # outside B_1


# ---------------------------------------------------------------------------
# the integral L


def test_L_on_seven_path():
    graph = build_lattice(1, 3)
    prof = ball_profile(graph)
    green = solve_green(graph, prof, 2, 2.0)
    # g = (1.5, 1, 1, 0.5, 0.5, 0, 0), all interior measures 2:
    # L = 2 * 1.5^3 + 4 * 1 + 4 * 0.125
    assert compute_L(graph, prof, green, 3.0) == pytest.approx(11.25,
                                                               abs=1e-10)


def test_L_at_radius_zero():
    graph = build_tree(2, 2)
    prof = ball_profile(graph)
    green = solve_green(graph, prof, 0, 2.0)
    mu = graph.vertex_measure[0]
    assert compute_L(graph, prof, green, 3.0) == pytest.approx(
        mu * (1.0 / mu) ** 3.0, rel=1e-12)


def test_L_requires_sigma_above_r():
    graph = build_lattice(1, 3)
    prof = ball_profile(graph)
    green = solve_green(graph, prof, 1, 3.0)
    with pytest.raises(ValueError):
        compute_L(graph, prof, green, 2.0)  # sigma = p - 1 exactly


# ---------------------------------------------------------------------------
# upper bound preconditions


def test_sandwich_upper_bound_rejects_bad_candidates():
    graph = build_tree(2, 4)
    prof = ball_profile(graph)
    green = solve_green(graph, prof, 2, 2.0)
    params = ExponentParams(p=2, sigma=3)
    ones = np.ones(graph.vertex_count)
    with pytest.raises(ValueError, match="not a supersolution"):
        sandwich_upper_bound(graph, prof, green, ones, params)
    with pytest.raises(ValueError, match="params.p"):
        sandwich_upper_bound(graph, prof, green, ones,
                             ExponentParams(p=3, sigma=4))
    # a shot supersolution passes, and the return value is the bound alone
    shot = shoot_radial_supersolution(graph, params, 0.1, profile=prof)
    bound = sandwich_upper_bound(graph, prof, green, shot.values, params)
    ratio = green.values.values[graph.root] / shot.values.values[graph.root]
    assert bound == (params.sigma / params.eta) * ratio ** params.eta
    assert compute_L(graph, prof, green, params.sigma) < bound


# ---------------------------------------------------------------------------
# parabolicity probe


def _probe(graph, p, radii):
    prof = ball_profile(graph)
    g_root = [solve_green(graph, prof, R, p).values[graph.root]
              for R in radii]
    return parabolicity_probe(radii, g_root, prof.b,
                              ExponentParams(p=p, sigma=p))


def test_probe_labels_line_as_parabolic():
    report = _probe(build_lattice(1, 26), 2.0, (4, 8, 12, 16, 20, 24))
    assert report.label == LOOKS_PARABOLIC
    assert report.tail.extra == np.inf
    assert np.all(report.increments > 0.0)
    assert np.all(np.diff(report.cap_root) <= 1e-10)


def test_probe_labels_square_lattice_as_parabolic():
    report = _probe(build_lattice(2, 13), 2.0, (2, 4, 6, 8, 10, 12))
    assert report.label == LOOKS_PARABOLIC


def test_probe_labels_tree_as_transient():
    # g_R(o) = 15/16, 31/32, ... saturates toward 1, and the cut sum
    # sum_k 2^-(k+1) has a finite tail
    radii = (3, 4, 5, 6, 7, 8, 9, 10)
    report = _probe(build_tree(2, 11), 2.0, radii)
    assert report.label == LOOKS_NON_PARABOLIC
    assert report.tail.extra == pytest.approx(2.0 ** -11, rel=1e-9)
    assert list(report.radii) == list(radii)
    assert np.all(np.diff(report.g_root) > 0.0)
    expected = [tree_green_at_root(R, 2.0) for R in radii]
    np.testing.assert_allclose(report.g_root, expected, rtol=1e-10)


@pytest.mark.parametrize("p", PS)
@pytest.mark.parametrize("dimension, half_side, radii", [
    (1, 26, (8, 16, 24)), (2, 13, (4, 8, 12)), (3, 8, (3, 5, 7))])
def test_probe_reads_lattice_parabolicity(dimension, half_side, radii, p):
    # Z^d is p-parabolic exactly when p >= d
    report = _probe(build_lattice(dimension, half_side), p, radii)
    expected = LOOKS_PARABOLIC if p >= dimension else LOOKS_NON_PARABOLIC
    assert report.label == expected


def test_probe_is_inconclusive_below_radius_4():
    report = _probe(build_tree(2, 5), 2.0, (1, 2, 3))
    assert report.label == INCONCLUSIVE
    assert report.tail is None


def test_probe_needs_increasing_ladder():
    b = np.ones(8)
    params = ExponentParams(p=2.0, sigma=2.0)
    with pytest.raises(ValueError):
        parabolicity_probe((1, 2), (1.0, 2.0), b, params)
    with pytest.raises(ValueError):
        parabolicity_probe((1, 3, 2), (1.0, 3.0, 2.0), b, params)
    with pytest.raises(ValueError):
        parabolicity_probe((1, 2, 3), (1.0, 2.0), b, params)
