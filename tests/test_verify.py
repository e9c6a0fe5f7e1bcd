"""Zero propagation, radial shooting and the supersolution bound that
judges it, the sandwich suite, the two scalar checks the random suites
sample, and the random suites against those checks.  The lemma batteries
(Picone, Hardy, positivity) live in the test helper _lemmas; the program
keeps only the shot, beside the bound in green, and the sandwich."""

import copy
import dataclasses
import math
import re
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import _lemmas
from _lemmas import (IDENTICALLY_ZERO, STRICTLY_POSITIVE, defect_tolerance,
                     hardy_check, hardy_suite, picone_check, picone_suite,
                     positivity_propagation, positivity_suite)
from p_potential import (
    ExponentParams,
    VerificationError,
    WeightedGraph,
    ball_profile,
    build_lattice,
    build_radial_model,
    build_tree,
    compute_L,
    p_laplacian_all,
    sandwich_upper_bound,
    shoot_radial_supersolution,
    solve_green,
)
from p_potential import verify
from p_potential.errors import SolverError
from p_potential.operators import (_interior_mask, as_values,
                                   supersolution_shortfall)
from p_potential.verify import run_suites, sandwich_suite


# ---------------------------------------------------------------------------
# zero propagation, one outcome at a time

PATH5 = WeightedGraph(5, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)])


def test_positivity_zero_function_is_identically_zero():
    assert positivity_propagation(PATH5, np.zeros(5), 2.0) == IDENTICALLY_ZERO


def test_positivity_positive_function_is_strictly_positive():
    u = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
    assert positivity_propagation(PATH5, u, 3.0) == STRICTLY_POSITIVE


def test_positivity_rejects_a_zero_where_superharmonicity_fails():
    # -lap_p u(0) = -phi_2(1 - 0) = -1 at the zero
    u = np.array([0.0, 1.0, 1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="zero at vertex 0 .* superharmonicity fails"):
        positivity_propagation(PATH5, u, 2.0)


def test_positivity_rejects_a_superharmonic_zero_with_a_positive_neighbor():
    # p = 3: -lap_p u at vertex 1 is -phi_3(1e-6) / 2 = -5e-13, within
    # defect_tolerance (1e-10), yet its neighbor 2 is positive
    u = np.array([0.0, 0.0, 1e-6, 0.0, 0.0])
    with pytest.raises(VerificationError, match="strictly positive neighbor 2"):
        positivity_propagation(PATH5, u, 3.0)


def test_positivity_names_the_first_witness_in_row_order():
    # zeros 1 and 3, each between positive values within defect_tolerance
    # (-lap_2 u = -1e-11): the descending scan meets vertex 3 first, and
    # its row lists neighbor 2 before neighbor 4
    u = np.array([1e-11, 0.0, 1e-11, 0.0, 1e-11])
    message = ("superharmonic zero at vertex 3 has strictly positive neighbor "
               "2 (u = 1.000e-11): zero propagation is violated")
    with pytest.raises(VerificationError, match=f"^{re.escape(message)}$"):
        positivity_propagation(PATH5, u, 2.0)


def test_positivity_rejects_a_region_its_zero_set_does_not_connect():
    # region {0, 4}: the zeros 0 and 1 never reach vertex 4
    u = np.array([0.0, 0.0, 1.0, 1.0, 1.0])
    region = np.array([True, False, False, False, True])
    with pytest.raises(VerificationError, match="not connected"):
        positivity_propagation(PATH5, u, 2.0, interior=region)


@pytest.mark.parametrize("interior", [
    np.ones(4, dtype=bool), np.ones(6, dtype=bool), np.array([0, 4]),
], ids=["short-mask", "long-mask", "vertex-ids"])
def test_positivity_takes_only_a_boolean_mask_of_the_graph(interior):
    with pytest.raises(ValueError, match="interior must be a boolean mask"):
        positivity_propagation(PATH5, np.zeros(5), 2.0, interior=interior)


def _positivity_by_rows(graph, u, p, interior=None):
    """positivity_propagation as a loop over the zeros in descending id,
    each walking its row of scipy's symmetric CSR adjacency in order
    (reference)."""
    values = as_values(u, graph)
    region = _interior_mask(graph, interior)
    if np.any(values[region] < 0.0):
        raise ValueError("u must be nonnegative on the region")
    scale = float(np.abs(values).max())
    ztol = 1e-12 * max(scale, 1e-300)
    dtol = defect_tolerance(scale, p)
    neg_lap = -p_laplacian_all(graph, values, p)
    zero = (values <= ztol) & region
    if not zero.any():
        return STRICTLY_POSITIVE
    n, tails, heads = graph.vertex_count, graph.edge_tails, graph.edge_heads
    adjacency = sp.csr_matrix((np.ones(2 * tails.size),
                               (np.concatenate([tails, heads]),
                                np.concatenate([heads, tails]))), shape=(n, n))
    for x in np.flatnonzero(zero)[::-1]:
        if neg_lap[x] < -dtol:
            raise ValueError(
                f"u has a zero at vertex {x} where -lap_p u = "
                f"{neg_lap[x]:.3e} < 0; superharmonicity fails there")
        for y in adjacency.indices[adjacency.indptr[x]:adjacency.indptr[x + 1]]:
            if values[y] > ztol:
                raise VerificationError(
                    f"superharmonic zero at vertex {x} has strictly positive "
                    f"neighbor {y} (u = {values[y]:.3e}): zero propagation "
                    f"is violated")
    if zero[region].all():
        return IDENTICALLY_ZERO
    raise VerificationError(
        "zeros propagate on part of the region only; the region is not "
        "connected through its zero set")


def _outcome(check, *args):
    try:
        return check(*args)
    except (ValueError, VerificationError) as exc:
        return type(exc).__name__, str(exc)


def test_positivity_is_the_row_loop():
    # random zero patterns beside positive values far below, near and
    # above the zero tolerance, on graphs whose rows hold several smaller
    # and larger neighbors; every outcome occurs
    rng = np.random.default_rng(20261020)
    graphs = [PATH5, build_lattice(2, 3), build_tree(3, 3),
              build_radial_model([1, 2, 4, 4], [1.0, 0.5, 2.0])]
    seen = set()
    for _ in range(600):
        graph = graphs[rng.integers(len(graphs))]
        n = graph.vertex_count
        levels = np.array([0.0, 0.0, 1e-13, 1e-11, 1e-6, 1.0])
        u = levels[rng.integers(levels.size, size=n)]
        p = float(rng.choice([1.5, 2.0, 3.0]))
        interior = None if rng.random() < 0.5 else rng.random(n) < 0.7
        got = _outcome(positivity_propagation, graph, u, p, interior)
        assert got == _outcome(_positivity_by_rows, graph, u, p, interior)
        seen.add(got if isinstance(got, str) else (got[0], got[1].split()[0]))
    assert seen == {STRICTLY_POSITIVE, IDENTICALLY_ZERO, ("ValueError", "u"),
                    ("VerificationError", "superharmonic"),
                    ("VerificationError", "zeros")}, seen


def _radial(values, profile):
    """The one value of a radial function on each sphere S_0, S_1, ..."""
    radial = np.empty(profile.eccentricity + 1)
    radial[profile.radius_of] = values
    return radial


def _refusal(graph, profile, R, u, params):
    """sandwich_upper_bound's refusal of u on B_R, as a message, or None
    when it certifies u there."""
    green = solve_green(graph, profile, R, params.p)
    try:
        sandwich_upper_bound(graph, profile, green, u, params)
    except ValueError as exc:
        return str(exc)
    return None


def test_shooting_gives_a_supersolution_on_the_interior():
    graph = build_tree(2, 6)
    profile = ball_profile(graph)
    params = ExponentParams(p=3.0, sigma=4.0)
    shot = shoot_radial_supersolution(graph, params, profile=profile)
    assert shot.dtype == np.float64 and not shot.flags.writeable
    radial = _radial(shot, profile)
    np.testing.assert_array_equal(shot, radial[profile.radius_of])
    assert np.all(np.diff(radial) < 0.0) and radial[-1] > 0.0
    interior = profile.ball_mask(profile.R_max)
    defects = -p_laplacian_all(graph, shot, params.p) - shot ** params.sigma
    assert np.all(np.abs(defects[interior]) <= 1e-12)  # equality there
    assert supersolution_shortfall(graph, shot, params, interior).max() \
        < 1e-9


def _derived_start(graph, params):
    """(2S)^(-r/eta) with S = sum_{k < ecc} (W_k / b_k)^(1/r), summed
    directly (reference)."""
    profile = ball_profile(graph)
    ratios = profile.W[:profile.eccentricity] / profile.b
    S = np.sum(ratios ** (1.0 / params.r))
    return (2.0 * S) ** (-params.r / params.eta)


@pytest.mark.parametrize("make, p, sigma", [
    (lambda: build_tree(2, 6), 2.0, 3.0),
    (lambda: build_tree(3, 5), 3.0, 3.0),
    (lambda: build_lattice(1, 8), 1.1, 2.0),
    (lambda: build_radial_model([1, 3, 6, 6, 12], [0.7, 1 / 3, 2.5, 1e-3]),
     1.5, 0.6),
    (lambda: build_lattice(2, 5), 5.0, 10.0),
], ids=["tree-2-6", "tree-3-5", "lattice-1-8-near-1", "radial", "lattice-2-5"])
def test_shot_starts_where_the_profile_says(make, p, sigma):
    """The shot's start is (2S)^(-r/eta), summed in logarithms, and u stays
    at least half of it everywhere."""
    graph = make()
    params = ExponentParams(p=p, sigma=sigma)
    shot = shoot_radial_supersolution(graph, params)
    u0 = shot[graph.root]
    assert u0 == pytest.approx(_derived_start(graph, params), rel=1e-13)
    assert 0.0 < u0 < 1.0
    assert shot.min() >= u0 / 2.0


def test_shooting_fails_where_the_start_is_below_the_doubles():
    # lattice(1, 200) at p = 2: W_k / b_k = 2k + 1, so S = 200^2, and at
    # sigma = 1.01 the start (2S)^(-1/0.01) = exp(-1128.98) is 0 in
    # doubles, and so is every u^sigma: refused on every ball
    graph = build_lattice(1, 200)
    profile = ball_profile(graph)
    params = ExponentParams(p=2.0, sigma=1.01)
    shot = shoot_radial_supersolution(graph, params, profile)
    np.testing.assert_array_equal(shot, 0.0)
    for R in (0, 3):
        assert _refusal(graph, profile, R, shot, params) == (
            f"u is not a supersolution on B_{R}: -lap_p u falls short of "
            f"u^sigma by inf of it at vertex {graph.root}")


def test_shooting_fails_where_the_source_is_below_the_doubles():
    # tree(2, 6) at p = 3, sigma = 2.01: the start exp(-579.5) = 2.2e-252
    # is a double, but u0^sigma about 1e-507 is not, so the recurrence
    # adds up no source and u stays flat; below the normal doubles the
    # shortfall is inf, so the shot is refused on every ball
    graph = build_tree(2, 6)
    profile = ball_profile(graph)
    params = ExponentParams(p=3.0, sigma=2.01)
    shot = shoot_radial_supersolution(graph, params, profile)
    u0 = shot[graph.root]
    assert u0 == pytest.approx(_derived_start(graph, params), rel=1e-12)
    assert f"{u0:.1e}" == "2.2e-252"
    np.testing.assert_array_equal(shot, u0)
    for R in (0, 4):
        assert _refusal(graph, profile, R, shot, params).endswith(
            f"by inf of it at vertex {graph.root}")


def test_shooting_fails_where_the_drop_is_below_an_ulp():
    # the first drop is u0^(sigma/r) = u0 / (2S); at p = 1.1 on
    # lattice(1, 200), S = sum_{k < 200} (2k + 1)^10 is about 1.9e27, so it
    # lies below ulp(u0): u stays flat at the root, which is then
    # harmonic, all of u^sigma short, and the shot is refused
    graph = build_lattice(1, 200)
    profile = ball_profile(graph)
    params = ExponentParams(p=1.1, sigma=2.0)
    shot = shoot_radial_supersolution(graph, params, profile)
    u0 = shot[graph.root]
    assert _radial(shot, profile)[1] == u0
    drop = u0 / (2.0 * np.sum(np.arange(1.0, 400.0, 2.0) ** 10))
    assert f"{drop:.3e}" == "9.271e-30"
    assert _refusal(graph, profile, 2, shot, params) == (
        f"u is not a supersolution on B_2: -lap_p u falls short of u^sigma "
        f"by 1.000e+00 of it at vertex {graph.root}")


def test_shooting_fails_on_a_wrong_recurrence():
    # halving each sphere's measure in the recurrence halves every current:
    # -lap_p u is half of u^sigma, which the bound is charged; dropping
    # the source leaves u flat, harmonic, and refused at the root
    graph = build_tree(2, 6)
    params = ExponentParams(p=3.0, sigma=4.0)
    profile = ball_profile(graph)
    wrong = copy.copy(profile)
    for scale, shortfall in ((0.5, "5.000e-01"), (0.0, "1.000e+00")):
        wrong.sphere_measure = profile.sphere_measure * scale
        shot = shoot_radial_supersolution(graph, params, profile=wrong)
        delta = supersolution_shortfall(graph, shot, params,
                                        profile.ball_mask(profile.R_max))
        assert f"{delta.max():.3e}" == shortfall
        refusal = _refusal(graph, profile, 3, shot, params)
        if scale:
            assert refusal is None
        else:
            assert refusal.startswith("u is not a supersolution on B_3: ")
            assert refusal.endswith(f"at vertex {graph.root}")


def test_shooting_edge_cases():
    params = ExponentParams(p=2.0, sigma=3.0)
    tree = build_tree(2, 3)
    shot = shoot_radial_supersolution(tree, params)
    assert not shot.flags.writeable
    # a graph that is not spherically symmetric: the shot misses equality
    # from sphere 2 on, and is charged that shortfall until it reaches all
    # of u^sigma on B_4
    graph = build_lattice(2, 3)
    profile = ball_profile(graph)
    shot = shoot_radial_supersolution(graph, params, profile)
    shortfalls = [supersolution_shortfall(graph, shot, params,
                                          profile.ball_mask(R)).max()
                  for R in range(profile.R_max + 1)]
    assert max(shortfalls[:2]) < 1e-9
    assert [f"{delta:.4e}" for delta in shortfalls[2:]] == [
        "5.5887e-01", "5.5887e-01", "1.0016e+00", "1.0016e+00"]
    green = solve_green(graph, profile, 2, params.p)
    bare = (params.sigma / params.eta) \
        * (green.values[graph.root] / shot[graph.root]) ** params.eta
    assert sandwich_upper_bound(graph, profile, green, shot, params) \
        == bare / (1.0 - shortfalls[2])
    assert _refusal(graph, profile, 4, shot, params).startswith(
        "u is not a supersolution on B_4: ")


def test_shooting_judges_each_defect_by_its_own_vertex():
    # at sigma = 2.1 the lattice's start is about 1e-38 and u^sigma about
    # 1e-80, so its defect at radius 2 is far above -defect_tolerance
    # (1e-10), yet half of u^sigma there: the shortfall is a fraction of
    # each vertex's u^sigma, and the bound on B_2 is charged it
    graph = build_lattice(2, 6)
    profile = ball_profile(graph)
    params = ExponentParams(p=3.0, sigma=2.1)
    shot = shoot_radial_supersolution(graph, params, profile)
    sphere = profile.radius_of == 2
    defect = (-p_laplacian_all(graph, shot, 3.0) - shot ** 2.1)[sphere].min()
    u0, u2 = _radial(shot, profile)[[0, 2]]
    assert -defect_tolerance(u0, 3.0) < defect < -u2 ** 2.1 / 10
    delta = supersolution_shortfall(graph, shot, params, sphere).max()
    assert f"{delta:.3f}" == "0.547"
    assert supersolution_shortfall(graph, shot, params,
                                   profile.ball_mask(2)).max() == delta
    green = solve_green(graph, profile, 2, params.p)
    bare = (params.sigma / params.eta) \
        * (green.values[graph.root] / u0) ** params.eta
    assert sandwich_upper_bound(graph, profile, green, shot, params) \
        == bare / (1.0 - delta)


def _layer_weights_by_edge_loop(graph, profile):
    """Per-sphere (inward, outward, measure) conductances of one vertex,
    from a loop over the edges; ValueError unless every vertex of a sphere
    has the same three, which makes the per-vertex recurrence of
    _shoot_by_layers exact (reference)."""
    ecc = profile.eccentricity
    rad = profile.radius_of
    w_in = np.zeros(graph.vertex_count)
    w_out = np.zeros(graph.vertex_count)
    u, v, w = graph.edge_tails, graph.edge_heads, graph.edge_weights
    for a, b, weight, ra, rb in zip(u, v, w, rad[u], rad[v]):
        if ra + 1 == rb:
            w_out[a] += weight
            w_in[b] += weight
        elif rb + 1 == ra:
            w_out[b] += weight
            w_in[a] += weight
    layer_in = np.empty(ecc + 1)
    layer_out = np.empty(ecc + 1)
    layer_mu = np.empty(ecc + 1)
    for k in range(ecc + 1):
        sphere = np.flatnonzero(rad == k)
        for arr, per_vertex in ((layer_in, w_in), (layer_out, w_out),
                                (layer_mu, graph.vertex_measure)):
            vals = per_vertex[sphere]
            if np.ptp(vals) > 1e-12 * max(1.0, np.abs(vals).max()):
                raise ValueError(
                    f"graph is not spherically symmetric: sphere {k} mixes "
                    f"conductance patterns")
            arr[k] = vals[0]
    return layer_in, layer_out, layer_mu


def _shoot_by_layers(graph, params, u0):
    """The radial values of the per-vertex recurrence
    Phi_p(drop_k) = (in_k Phi_p(drop_{k-1}) + mu_k U_k^sigma) / out_k on
    _layer_weights_by_edge_loop's weights, which raises unless the graph
    is spherically symmetric (reference)."""
    profile = ball_profile(graph)
    layer_in, layer_out, layer_mu = _layer_weights_by_edge_loop(graph,
                                                                profile)
    p, sigma = params.p, params.sigma
    U = [u0]
    phi_drop = 0.0
    for k in range(profile.eccentricity):
        phi_drop = (layer_in[k] * phi_drop + layer_mu[k] * U[k] ** sigma) \
            / layer_out[k]
        U.append(U[k] - phi_drop ** (1.0 / (p - 1.0)))
    return np.array(U)


def _shoot_by_flux(profile, params, u0):
    """Radial values of the flux recurrence
    b_k Phi_p(U_k - U_{k+1}) = sum_{j <= k} mu(S_j) U_j^sigma from a given
    start, through every sphere of any graph, unchecked (reference)."""
    U = [u0]
    flux = 0.0
    for k in range(profile.eccentricity):
        flux += profile.sphere_measure[k] * U[k] ** params.sigma
        U.append(U[k] - (flux / profile.b[k]) ** (1.0 / params.r))
    return np.array(U)


def test_sandwich_upper_bound_charges_the_shortfall():
    """The lattice's radial values from u0 = 0.01 at p = 3, sigma = 6 miss
    equality at radius 2 by about -5e-13: inside an absolute 1e-10, which
    took them for a supersolution with the bound 1.67e8, yet 0.534 of
    u^sigma there.  c u with c^eta = 1 - 0.534 is a supersolution, and the
    bound is its bound, on every ball that holds radius 2."""
    graph = build_lattice(2, 6)
    profile = ball_profile(graph)
    params = ExponentParams(p=3.0, sigma=6.0)
    U = _shoot_by_flux(profile, params, 0.01)
    assert U[-1] > 0.0
    values = U[profile.radius_of]
    for R in (2, 4):
        ball = profile.ball_mask(R)
        green = solve_green(graph, profile, R, params.p)
        delta = supersolution_shortfall(graph, values, params, ball).max()
        assert f"{delta:.3f}" == "0.534"
        bare = (params.sigma / params.eta) \
            * (green.values[graph.root] / 0.01) ** params.eta
        if R == 2:
            assert f"{bare:.3g}" == "1.67e+08"
        bound = sandwich_upper_bound(graph, profile, green, values, params)
        assert bound == bare / (1.0 - delta)
        scaled = (1.0 - delta) ** (1.0 / params.eta) * values
        assert supersolution_shortfall(graph, scaled, params, ball).max() \
            < 1e-9
        assert sandwich_upper_bound(graph, profile, green, scaled, params) \
            == pytest.approx(bound, rel=1e-9)


def _thinned_leaf_tree(weight=0.5):
    """tree(2, 4) with one leaf edge of the given weight: spheres 3 and 4
    mix unless it is within the 1e-12 relative tolerance of 1."""
    base = build_tree(2, 4)
    weights = base.edge_weights.copy()
    weights[-1] = weight
    return WeightedGraph._from_columns(base.vertex_count, base.edge_tails,
                                       base.edge_heads, weights)


def _irregular_path():
    """The irregular-growth path of the CI report, weights (k+1)^2.75 with
    three jump edges."""
    w = np.arange(1, 601, dtype=np.float64) ** 2.75
    w[[2, 16, 512]] = [16.0 ** 4.5, 512.0 ** 4.5, 65536.0 ** 4.5]
    return build_radial_model([1] * 601, w)


LAYER_GRAPHS = [
    (lambda: build_tree(2, 6), True),
    (lambda: build_tree(3, 5), True),
    (lambda: build_radial_model([1, 3, 6, 6, 12], [0.7, 1 / 3, 2.5, 1e-3]), True),
    # rooted 5-cycle: the edge (2, 3) joins two vertices of sphere 2
    (lambda: WeightedGraph(5, [(0, 1, 1.5), (1, 2, 0.3), (2, 3, 7.0),
                               (3, 4, 0.3), (4, 0, 1.5)]), True),
    (lambda: build_lattice(2, 3), False),
    (_thinned_leaf_tree, False),
    (lambda: _thinned_leaf_tree(1.0 + 1e-9), False),
    (lambda: _thinned_leaf_tree(1.0 + 1e-14), True),
]
LAYER_IDS = ["tree-2-6", "tree-3-5", "radial", "5-cycle", "lattice-2-3",
             "thinned-leaf", "leaf-off-by-1e-9", "leaf-off-by-1e-14"]


@pytest.mark.parametrize("make, symmetric", LAYER_GRAPHS, ids=LAYER_IDS)
def test_layer_weights_equal_the_edge_loop(make, symmetric):
    """Summed over each sphere, the edge loop's per-vertex conductances
    are the profile's cut conductances and sphere measures, which the flux
    recurrence reads: sphere k takes b_{k-1} in and sends b_k out.  On a
    symmetric graph each is the sphere size times the one vertex's."""
    graph = make()
    profile = ball_profile(graph)
    sizes = np.bincount(profile.radius_of)
    try:
        layers = _layer_weights_by_edge_loop(graph, profile)
    except ValueError as exc:
        assert not symmetric and "mixes conductance patterns" in str(exc)
        return
    assert symmetric
    layer_in, layer_out, layer_mu = (sizes * layer for layer in layers)
    assert layer_in[0] == 0.0 and layer_out[-1] == 0.0
    np.testing.assert_allclose(layer_in[1:], profile.b, rtol=1e-14)
    np.testing.assert_allclose(layer_out[:-1], profile.b, rtol=1e-14)
    np.testing.assert_allclose(layer_mu, profile.sphere_measure, rtol=1e-14)


def test_layer_weights_name_the_first_mixed_sphere():
    """The shot is equality, to rounding, on the ball inside the sphere the
    edge loop names first, and misses it on that sphere."""
    params = ExponentParams(p=2.0, sigma=3.0)
    for graph, k in ((build_lattice(2, 3), 2), (_thinned_leaf_tree(), 3)):
        profile = ball_profile(graph)
        with pytest.raises(ValueError, match=f"sphere {k} mixes"):
            _layer_weights_by_edge_loop(graph, profile)
        shot = shoot_radial_supersolution(graph, params, profile)
        shortfall = supersolution_shortfall(graph, shot, params)
        assert shortfall[profile.ball_mask(k - 1)].max() < 1e-9
        assert shortfall[profile.radius_of == k].max() > 0.1


# how the flux recurrence meets the per-vertex one on each graph: bitwise
# where each sphere's totals are its vertex's times a power of two, or
# where every sphere is one vertex; within a few ulps where the sphere
# sizes (3^k on tree(3, 5)) or the weights make the two round differently;
# where the graph is not spherically symmetric the reference refuses it
SHOT_CASES = dict(zip(LAYER_IDS, zip(
    (make for make, _ in LAYER_GRAPHS),
    ("bitwise", "ulps", "ulps", "bitwise", "asymmetric", "asymmetric",
     "asymmetric", "ulps"))))
SHOT_CASES["lattice-1-200"] = (lambda: build_lattice(1, 200), "bitwise")
SHOT_CASES["irregular-path"] = (_irregular_path, "bitwise")


@pytest.mark.parametrize("p, sigma", [(2.0, 3.0), (3.0, 4.0), (1.5, 3.0)])
@pytest.mark.parametrize("case", SHOT_CASES)
def test_shot_follows_the_per_vertex_recurrence(case, p, sigma):
    """The shot's values are the flux recurrence's from its own start on
    every graph, and the per-vertex recurrence's on every symmetric one."""
    make, agreement = SHOT_CASES[case]
    graph = make()
    profile = ball_profile(graph)
    params = ExponentParams(p=p, sigma=sigma)
    shot = shoot_radial_supersolution(graph, params, profile)
    u0 = shot[graph.root]
    np.testing.assert_array_equal(
        shot, _shoot_by_flux(profile, params, u0)[profile.radius_of])
    if agreement == "asymmetric":
        with pytest.raises(ValueError, match="mixes"):
            _shoot_by_layers(graph, params, u0)
        return
    U = _shoot_by_layers(graph, params, u0)[profile.radius_of]
    if agreement == "bitwise":
        np.testing.assert_array_equal(shot, U)
    else:
        np.testing.assert_allclose(shot, U, rtol=16 * np.finfo(float).eps)


@st.composite
def _radial_models(draw):
    """A radial model of up to 12 spheres with nondecreasing sizes and
    weights within four decades, and p in [1.1, 5], sigma in (p-1, 10]."""
    steps = draw(st.lists(st.integers(0, 3), min_size=1, max_size=11))
    sizes = np.cumsum([1, *steps]).tolist()
    weights = draw(st.lists(st.floats(0.0, 4.0), min_size=len(steps),
                            max_size=len(steps)))
    p = draw(st.floats(1.1, 5.0))
    sigma = draw(st.floats(p - 1.0, 10.0, exclude_min=True)
                 .filter(lambda sigma: sigma - p + 1.0 > 0.0))
    return (build_radial_model(sizes, (10.0 ** np.array(weights)).tolist()),
            ExponentParams(p=p, sigma=sigma))


@settings(max_examples=300, deadline=None)
@given(_radial_models())
def test_shot_keeps_half_its_start(model):
    """The shot's values are the flux recurrence's from its own start.
    While U_j <= u0 the flux out of B_k is at most u0^sigma W_k, so the
    drops sum to at most u0^(sigma/r) S = u0/2: wherever u0 is a positive
    double, u never falls below u0/2.  With one cut the bound is equality,
    so the doubles may miss it by the rounding of u0 = exp(log u0), which
    u0^(sigma/r) amplifies by sigma/r |log u0|, and of the 1/r-th power of
    each drop."""
    graph, params = model
    profile = ball_profile(graph)
    shot = shoot_radial_supersolution(graph, params, profile)
    u0 = shot[graph.root]
    np.testing.assert_array_equal(
        shot, _shoot_by_flux(profile, params, u0)[profile.radius_of])
    if u0 > 0.0:
        rounding = 4.0 * np.finfo(np.float64).eps * (
            params.sigma / params.r * abs(np.log(u0))
            + profile.eccentricity / params.r + 1.0)
        assert shot.min() >= u0 / 2.0 * (1.0 - rounding)


# nested ladders: each graph's radii run out to where the shot is refused
# (lattices) or to its last ball (trees); the irregular path's stop short
# of the jump edge at radius 512, across which the Green solve fails
SANDWICH_GRAPHS = {
    "lattice-2-3": (lambda: build_lattice(2, 3), (1, 2, 3, 5)),
    "lattice-2-6": (lambda: build_lattice(2, 6), (2, 5, 8, 11)),
    "lattice-2-10": (lambda: build_lattice(2, 10), (2, 6, 12, 19)),
    "lattice-3-3": (lambda: build_lattice(3, 3), (2, 4, 8)),
    "lattice-3-6": (lambda: build_lattice(3, 6), (2, 4, 6, 9)),
    "tree-2-6": (lambda: build_tree(2, 6), (1, 3, 5)),
    "tree-3-5": (lambda: build_tree(3, 5), (1, 3, 4)),
    "irregular-path": (_irregular_path, (10, 20, 40, 100)),
}
# ROADMAP item 5: on the irregular path the Green solve misses its
# residual target across the jump edge at radius 2 at p = 1.5, and across
# the one at radius 16 at p = 2
_JUMP_EDGE_SOLVES = pytest.mark.xfail(
    raises=SolverError, strict=True,
    reason="the Green solve loses relative precision across the irregular "
           "path's jump edges (ROADMAP item 5)")


@pytest.mark.parametrize("case, p", [
    pytest.param(case, p, id=f"{case}-p{p}", marks=(
        _JUMP_EDGE_SOLVES if case == "irregular-path" and p <= 2.0 else ()))
    for case in SANDWICH_GRAPHS for p in (1.5, 2.0, 3.0, 5.0)])
def test_every_ladder_row_is_refused_or_bounds_L(case, p):
    """sandwich_upper_bound refuses the shot on a ball or bounds L_R on it,
    at every sigma of the grid; the shortfall on a ball is at most that on
    any ball around it, so once refused, the shot stays refused."""
    make, radii = SANDWICH_GRAPHS[case]
    graph = make()
    profile = ball_profile(graph)
    greens = {R: solve_green(graph, profile, R, p) for R in radii}
    for sigma in (p - 0.5, p, 2.0 * p):
        params = ExponentParams(p=p, sigma=sigma)
        shot = shoot_radial_supersolution(graph, params, profile)
        refused = None
        for R in radii:
            try:
                bound = sandwich_upper_bound(graph, profile, greens[R], shot,
                                             params)
            except ValueError as exc:
                assert str(exc).startswith(
                    f"u is not a supersolution on B_{R}: "), exc
                refused = R
                continue
            assert refused is None, (sigma, R, refused)
            assert compute_L(graph, profile, greens[R], sigma) <= bound, \
                (sigma, R)


def test_sandwich_suite_squeezes_L():
    report = sandwich_suite()
    assert report.name == "sandwich"
    assert report.ok and report.violations == 0
    assert report.trials == len(report.details) == 6
    graphs = {"tree": build_tree(2, 6), "lattice-2d": build_lattice(2, 5)}
    for key, case in report.details.items():
        assert case["lower"] < case["L"] < case["upper"]
        family, p, sigma, _ = key.rsplit("-", 3)
        params = ExponentParams(p=float(p[1:]), sigma=float(sigma[5:]))
        assert case["u0"] == pytest.approx(
            _derived_start(graphs[family], params), rel=1e-13)
    assert report.worst_margin == pytest.approx(min(
        min(c["L"] - c["lower"], c["upper"] - c["L"])
        for c in report.details.values()))
    # lattice(2, 5) is not spherically symmetric: its bounds are charged
    # the shot's shortfall, and still above L
    lattice = {key: case for key, case in report.details.items()
               if key.startswith("lattice-2d-")}
    assert [f"{c['L']:.3g}" for c in lattice.values()] == ["0.296", "0.475"]
    assert [f"{c['upper']:.4g}" for c in lattice.values()] == ["125", "154.7"]


def test_sandwich_suite_shoots_once_per_exponent_pair(monkeypatch):
    starts = []
    real = verify.shoot_radial_supersolution

    def recording(graph, params, profile=None):
        starts.append((graph.vertex_count, params.p))
        return real(graph, params, profile=profile)

    monkeypatch.setattr(verify, "shoot_radial_supersolution", recording)
    assert sandwich_suite().ok
    assert starts == [(127, 2.0), (127, 3.0), (121, 2.0)]


def test_sandwich_suite_counts_a_failed_side(monkeypatch):
    # an upper bound below L fails the upper side of every ball; the suite
    # counts it and does not raise
    monkeypatch.setattr(verify, "sandwich_upper_bound",
                        lambda *args: 0.0)
    report = sandwich_suite()
    assert (report.trials, report.violations, report.ok) == (6, 6, False)
    assert report.worst_margin == min(-c["L"] for c in report.details.values())


def test_sandwich_suite_counts_failed_shots(monkeypatch):
    # a shot of zeros at p = 2 is refused on every ball it would bound
    real = verify.shoot_radial_supersolution

    def failing(graph, params, profile):
        shot = real(graph, params, profile)
        return np.zeros_like(shot) if params.p == 2.0 else shot

    monkeypatch.setattr(verify, "shoot_radial_supersolution", failing)
    report = sandwich_suite()
    assert (report.trials, report.violations, report.ok) == (6, 5, False)
    ball = report.details.pop("tree-p3.0-sigma4.0-R3")
    assert report.worst_margin == min(ball["L"] - ball["lower"],
                                      ball["upper"] - ball["L"]) > 0.0
    assert report.details == {
        f"{family}-p2.0-sigma3.0-R{R}":
            f"no certified bound: u is not a supersolution on B_{R}: -lap_p "
            f"u falls short of u^sigma by inf of it at vertex {root}"
        for family, root, radii in (("tree", 0, (2, 3, 4)),
                                    ("lattice-2d", 0, (2, 3)))
        for R in radii}


def test_sandwich_suite_propagates_errors_of_the_bounds(monkeypatch):
    # the lower bound's errors propagate; the upper bound's refusals are
    # violations (test_sandwich_suite_counts_failed_shots)
    def refuse(*args):
        raise SolverError("no Green function")

    monkeypatch.setattr(verify, "analyze_ball", refuse)
    with pytest.raises(SolverError, match="no Green function"):
        sandwich_suite()


def test_positivity_suite_details_every_case():
    report = positivity_suite()
    assert report.trials == len(report.details) == 19
    assert (report.violations, report.ok, report.worst_margin) == (0, True, None)
    zeros = [key for key, verdict in report.details.items()
             if verdict == IDENTICALLY_ZERO]
    assert zeros == ["lattice-1d-zero", "tree-zero", "lattice-2d-zero"]
    assert report.details["lattice-1d-zero-beside-positive"] == "rejected"
    assert sum(v == STRICTLY_POSITIVE for v in report.details.values()) == 15


def test_positivity_suite_counts_every_wrong_verdict(monkeypatch):
    # a harness that calls everything strictly positive misses the three
    # zero functions and accepts the zero beside a positive value
    monkeypatch.setattr(_lemmas, "positivity_propagation",
                        lambda *args, **kwargs: STRICTLY_POSITIVE)
    report = positivity_suite()
    assert (report.trials, report.violations, report.ok) == (19, 4, False)


def test_positivity_suite_rejects_with_the_witness(monkeypatch):
    # the rejection case must get past the superharmonicity precondition
    # (a ValueError) to the positive-neighbour witness
    raised = []

    def recording(*args, **kwargs):
        try:
            return positivity_propagation(*args, **kwargs)
        except (ValueError, VerificationError) as exc:
            raised.append(exc)
            raise

    monkeypatch.setattr(_lemmas, "positivity_propagation", recording)
    assert positivity_suite().ok
    [error] = raised
    assert type(error) is VerificationError
    assert "strictly positive neighbor" in str(error)


def test_positivity_suite_does_not_read_a_value_error_as_a_rejection(
        monkeypatch):
    # right on every case but the rejection one, where the precondition
    # fails: the suite must not call that "rejected"
    def refuse(graph, u, p, interior=None):
        if interior is not None:
            return STRICTLY_POSITIVE
        if u.any():
            raise ValueError("superharmonicity fails")
        return IDENTICALLY_ZERO

    monkeypatch.setattr(_lemmas, "positivity_propagation", refuse)
    with pytest.raises(ValueError, match="superharmonicity fails"):
        positivity_suite()


def test_suite_report_stores_an_inf_margin_as_none():
    report = verify.SuiteReport(name="x", trials=1, violations=0,
                                worst_margin=np.inf, ok=True)
    assert report.worst_margin is None
    assert picone_suite(trials=1, seed=0).worst_margin is None


def test_run_suites_is_the_sandwich_suite(monkeypatch):
    monkeypatch.setattr(verify, "sandwich_suite", lambda: "sandwich")
    assert run_suites() == ["sandwich"]


# each battery's (trials, violations, worst_margin) as the program's verify
# subcommand reported it before the lemma batteries left the program: at
# its default --trials 100000 --seed 0, the Picone battery also at its own
# default of a million draws and at one draw
BATTERY_RESULTS = {
    "picone-1000000": (picone_suite, (1_000_000, 0, 8.335377001888793e-08)),
    "picone-100000": (lambda: picone_suite(100_000, 0),
                      (100_000, 0, 2.4149531722642765e-06)),
    "picone-1": (lambda: picone_suite(1, 0), (1, 0, None)),
    "hardy-100000": (lambda: hardy_suite(100_000, 0),
                     (100_000, 0, 0.5014367391889815)),
    "positivity": (positivity_suite, (19, 0, None)),
    "sandwich": (sandwich_suite, (6, 0, 0.28434726271460964)),
}


@pytest.mark.parametrize("case", BATTERY_RESULTS)
def test_batteries_keep_their_results(case):
    run, expected = BATTERY_RESULTS[case]
    report = run()
    assert report.ok
    got = (report.trials, report.violations, report.worst_margin)
    # repr tells a float from an equal-valued neighbour and None from 0.0
    assert repr(got) == repr(expected)


# ---------------------------------------------------------------------------
# the scalar checks on the suites' parameter boxes; the slack is the
# suites' own, 1e-12 * max(1, |lhs|, |rhs|)


def _log_uniform():
    """Magnitudes log-uniform on [1e-6, 1e3], as the suites draw them."""
    return st.floats(np.log(1e-6), np.log(1e3)).map(np.exp)


@st.composite
def _picone_tuples(draw):
    """p on (1, 4], sigma on (p - 1 + 1e-3, 6], a, b, s, t log-uniform,
    and sometimes t = s, the equality case picone_suite also hits."""
    p = draw(st.floats(1.0, 4.0, exclude_min=True))
    sigma = draw(st.floats(p - 1.0 + 1e-3, 6.0))
    a, b, s, t = (draw(_log_uniform()) for _ in range(4))
    if draw(st.booleans()):
        t = s
    return ExponentParams(p=p, sigma=sigma), a, b, s, t


@settings(max_examples=300, deadline=None)
@given(_picone_tuples())
def test_picone_check_holds_on_the_suite_box(case):
    params, a, b, s, t = case
    lhs, rhs = picone_check(a, b, s, t, params)
    assert lhs <= rhs + 1e-12 * max(1.0, abs(lhs), abs(rhs))


def _exact_sides(a, b, s, t, p, sigma):
    """(lhs, rhs) of picone_check with mpmath at 60 digits, from the same
    binary inputs."""
    with mpmath.workdps(60):
        a, b, s, t, p, sigma = map(mpmath.mpf, (a, b, s, t, p, sigma))
        eta = sigma - p + 1

        def phi(z):
            return mpmath.sign(z) * abs(z) ** (p - 1)

        lhs = phi(a - b) * (s ** sigma - t ** sigma)
        rhs = sigma / eta * phi(a * s - b * t) * (s ** eta - t ** eta)
        return lhs, rhs


@pytest.mark.parametrize("a, b, s, t, p, sigma", [
    # s and t a relative 1e-9 apart: the plain differences of powers put
    # rhs - lhs at -7.25e-12, a false violation; the exact value is +1.07e-16
    (math.exp(2.0), 1.0, 1.0, math.exp(1e-9), 3.0, 2.001),
    # widely separated bases with a tiny eta = 1e-4
    (2.0, 1.0, 1e300, 1e-10, 2.0, 1.0001),
    (2.0, 1.0, 1e-10, 1e300, 2.0, 1.0001),
], ids=["near-tie", "wide-apart", "wide-apart-swapped"])
def test_picone_check_matches_mpmath(a, b, s, t, p, sigma):
    lhs, rhs = picone_check(a, b, s, t, ExponentParams(p=p, sigma=sigma))
    exact_lhs, exact_rhs = _exact_sides(a, b, s, t, p, sigma)
    assert abs(lhs - exact_lhs) <= 1e-15 * abs(exact_lhs)
    assert abs(rhs - exact_rhs) <= 1e-15 * abs(exact_rhs)
    assert lhs <= rhs


def test_picone_near_tie_margin_is_the_exact_one():
    a, b, s, t, p, sigma = math.exp(2.0), 1.0, 1.0, math.exp(1e-9), 3.0, 2.001
    lhs, rhs = picone_check(a, b, s, t, ExponentParams(p=p, sigma=sigma))
    exact_lhs, exact_rhs = _exact_sides(a, b, s, t, p, sigma)
    exact_margin = float((exact_rhs - exact_lhs) / abs(exact_lhs))
    assert float(exact_rhs - exact_lhs) == pytest.approx(1.07e-16, rel=1e-2)
    assert rhs - lhs == pytest.approx(float(exact_rhs - exact_lhs), rel=1e-2)
    # the block evaluation takes the same gaps, and its relative margin is
    # the exact one, not a violation
    worst, violations = _lemmas._picone_block(
        *(np.array([v]) for v in (p, sigma, a, b, s, t)))
    assert violations == 0
    assert worst == pytest.approx(exact_margin, rel=1e-6)


@pytest.mark.parametrize("s, t, x", [
    (1.0, math.exp(1e-9), 2.001), (1.0, math.exp(1e-9), 0.001),
    (1e300, 1e-10, 1e-4), (1e-10, 1e300, 1e-4), (1.5, 1.4999999, 0.3),
    (2.0, 1.0, 3.0), (3.0, 0.0, 2.0), (0.0, 3.0, 2.0), (5.0, 5.0, 2.0),
])
def test_power_gap_matches_mpmath(s, t, x):
    gap = float(_lemmas._power_gap(s, t, x))
    with mpmath.workdps(60):
        exact = mpmath.mpf(s) ** mpmath.mpf(x) - mpmath.mpf(t) ** mpmath.mpf(x)
        assert abs(gap - exact) <= 4e-16 * abs(exact)


@settings(max_examples=300, deadline=None)
@given(a=st.lists(_log_uniform(), min_size=1, max_size=200),
       r=st.floats(0.001, 5.0))
def test_hardy_check_holds_on_the_suite_box(a, r):
    lhs, rhs = hardy_check(a, r)
    assert lhs >= rhs - 1e-12 * max(1.0, lhs, rhs)


# ---------------------------------------------------------------------------
# the random suites against the scalar checks and the shard-wide code they
# replaced


def _log_uniform_draw(rng, lo, hi, size):
    return np.exp(rng.uniform(np.log(lo), np.log(hi), size=size))


def _hardy_shards(trials, seed):
    """hardy_suite's draws, shard by shard: (lengths, r, blocks), where
    blocks maps each length, ascending, to the (count, length) block of
    the shard's arrays of that length, in shard order."""
    rng = np.random.default_rng(seed)
    for done in range(0, trials, 5_000):
        lengths = rng.integers(1, 201, size=min(5_000, trials - done))
        r = rng.uniform(0.001, 5.0, size=lengths.size)
        blocks = {int(n): _log_uniform_draw(
            rng, 1e-6, 1e3, (np.count_nonzero(lengths == n), int(n)))
            for n in np.unique(lengths)}
        yield lengths, r, blocks


def _hardy_by_shard(a, r, lengths):
    """The shard-wide evaluation hardy_suite used to run on the packed
    arrays: the prefix sums are differences of one running sum over the
    whole shard."""
    total = a.size
    ends = np.cumsum(lengths)
    starts = ends - lengths
    r_rep = np.repeat(r, lengths)

    lhs_terms = a ** (-r_rep)
    lhs = np.add.reduceat(lhs_terms, starts)

    csum = np.cumsum(a)
    offset = np.repeat(csum[starts] - a[starts], lengths)
    prefix = csum - offset
    j = np.arange(total) - np.repeat(starts, lengths) + 1.0
    rhs_terms = (j / prefix) ** r_rep
    rhs = 2.0 ** (-(r + 1.0)) * np.add.reduceat(rhs_terms, starts)
    return lhs, rhs


def _hardy_check_each(block, r):
    sides = [hardy_check(a, float(r_i)) for a, r_i in zip(block, r)]
    return tuple(np.array(side) for side in zip(*sides))


def test_hardy_sides_are_hardy_check_bitwise():
    lengths, r, blocks = next(_hardy_shards(5_000, 0))
    checks = []
    for n, block in blocks.items():
        lhs_check, rhs_check = _hardy_check_each(block, r[lengths == n])
        lhs, rhs = _lemmas._hardy_sides(block, r[lengths == n])
        assert lhs.tobytes() == lhs_check.tobytes()
        assert rhs.tobytes() == rhs_check.tobytes()
        checks.append(rhs_check)

    # packed one after another, the shard-wide running sum, which reaches
    # ~2.4e7, cancels in its prefix differences
    rhs_check = np.concatenate(checks)
    _, rhs_shard = _hardy_by_shard(
        np.concatenate([block.ravel() for block in blocks.values()]),
        np.concatenate([r[lengths == n] for n in blocks]),
        np.repeat(list(blocks), [len(block) for block in blocks.values()]))
    off = np.abs(rhs_shard - rhs_check) > 1e-6 * rhs_check
    assert np.count_nonzero(off) > 1_000


@pytest.mark.parametrize("trials", [1, 4_999, 5_000, 5_001, 12_345])
@pytest.mark.parametrize("seed", [0, 2, 11])
def test_hardy_suite_equals_a_hardy_check_loop(trials, seed):
    worst = np.inf
    violations = 0
    for lengths, r, blocks in _hardy_shards(trials, seed):
        for n, block in blocks.items():
            for a, r_i in zip(block, r[lengths == n]):
                lhs, rhs = hardy_check(a, float(r_i))
                worst = min(worst, (lhs - rhs) / max(lhs, rhs))
                violations += bool(lhs < rhs - 1e-12 * max(1.0, lhs, rhs))
    report = hardy_suite(trials=trials, seed=seed)
    assert (report.name, report.trials) == ("hardy", trials)
    assert report.worst_margin == worst
    assert report.violations == violations
    assert report.ok == (violations == 0)


def test_hardy_margin_is_relative_when_the_sides_are_below_one(monkeypatch):
    # every array gets the sides of a = (1e3, 2e3) at r = 1, both below 1,
    # where the absolute margin lhs - rhs would read the bound as tight
    lhs, rhs = hardy_check(np.array([1e3, 2e3]), 1.0)
    assert rhs < lhs < 1.0
    monkeypatch.setattr(_lemmas, "_hardy_sides", lambda block, r: (
        np.full(r.size, lhs), np.full(r.size, rhs)))
    report = hardy_suite(trials=50, seed=0)
    assert report.worst_margin == (lhs - rhs) / lhs
    assert (report.violations, report.ok) == (0, True)


@pytest.mark.parametrize("suite", [picone_suite, hardy_suite])
@pytest.mark.parametrize("trials", [0, -3])
def test_random_suites_reject_fewer_than_one_trial(suite, trials):
    with pytest.raises(ValueError, match=f"trials must be at least 1, got {trials}"):
        suite(trials=trials, seed=0)


def test_random_suites_run_a_single_trial():
    for suite in (picone_suite, hardy_suite):
        report = suite(trials=1, seed=0)
        assert (report.trials, report.violations, report.ok) == (1, 0, True)


def _traced_peak(run):
    """Peak bytes traced while run() executes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_hardy_suite_peak_is_the_draws_plus_one_length_block():
    trials, seed = 10_000, 0
    bound = 0
    for lengths, _, blocks in _hardy_shards(trials, seed):
        largest_block = max(block.size for block in blocks.values())
        # in bytes: at most eight vectors of one float64 or int64 per array
        # (lengths, r, lhs, rhs, scale, margin, one temporary, the mask of
        # one length); four blocks of the largest length (the block, two
        # temporaries, and slack for the vectors of one entry per row)
        bound = max(bound, 8 * (8 * lengths.size + 4 * largest_block))
    assert _traced_peak(lambda: hardy_suite(trials, seed)) <= bound

    # a whole shard's entries drawn at once do not fit
    assert _traced_peak(lambda: list(_hardy_shards(5_000, seed))) > bound


def _picone_draws(rng, n, first=0):
    """n tuples drawn as picone_suite draws a block: p, sigma, a, b, s, t,
    with t = s at the tuples whose index first + i is a multiple of 10."""
    p = rng.uniform(1.0, 4.0, size=n)
    sigma = rng.uniform(p - 1.0 + 1e-3, 6.0)
    a, b, s, t = (_log_uniform_draw(rng, 1e-6, 1e3, n) for _ in range(4))
    tie = (first + np.arange(n)) % 10 == 0
    t[tie] = s[tie]
    return p, sigma, a, b, s, t


def _gap_by_cases(s, t, x):
    """s^x - t^x as _lemmas._power_gap takes it, one case at a time by
    boolean selection: 0 at s = t, s^x at t = 0, -t^x at s = 0, and
    otherwise sign(L) max(s, t)^x (-expm1(-x |L|)) with
    L = log1p((s - t) / t) for t/2 <= s <= 2t and log s - log t beyond."""
    gap = np.zeros_like(s)
    apart = s != t
    t_zero = apart & (t == 0.0)
    s_zero = apart & (s == 0.0)
    gap[t_zero] = s[t_zero] ** x[t_zero]
    gap[s_zero] = -(t[s_zero] ** x[s_zero])
    both = apart & ~t_zero & ~s_zero
    near = both & (0.5 * t <= s) & (s <= 2.0 * t)
    far = both & ~near
    L = np.zeros_like(s)
    L[near] = np.log1p((s[near] - t[near]) / t[near])
    L[far] = np.log(s[far]) - np.log(t[far])
    m, x, L = np.maximum(s, t)[both], x[both], L[both]
    gap[both] = np.sign(L) * m ** x * -np.expm1(-x * np.abs(L))
    return gap


def _picone_sides(p, sigma, a, b, s, t):
    """(worst relative margin over the tuples with s != t and a nonzero
    side, violations), by boolean selection; a tuple with t = s is a
    violation unless lhs == rhs == 0."""
    eta = sigma - p + 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        diff = a - b
        lhs = np.abs(diff) ** (p - 2.0) * diff * _gap_by_cases(s, t, sigma)
        cross = a * s - b * t
        rhs = (sigma / eta) * np.abs(cross) ** (p - 2.0) * cross \
            * _gap_by_cases(s, t, eta)
    lhs = np.where(diff == 0.0, 0.0, lhs)
    rhs = np.where(cross == 0.0, 0.0, rhs)

    size = np.maximum(np.abs(lhs), np.abs(rhs))
    tie = s == t
    counted = ~tie & (size != 0.0)
    worst = np.inf
    if counted.any():
        worst = float(((rhs - lhs)[counted] / size[counted]).min())
    violations = int(np.count_nonzero(tie & ((lhs != 0.0) | (rhs != 0.0))))
    violations += int(np.count_nonzero(
        ~tie & (lhs > rhs + 1e-12 * np.maximum(1.0, size))))
    return worst, violations


def _picone_by_chunk(trials, seed, chunk=200_000):
    """picone_suite with its tuples drawn and evaluated chunk at a time:
    200,000, as it used to, or _lemmas._PICONE_BLOCK, as it does."""
    rng = np.random.default_rng(seed)
    worst = np.inf
    violations = 0
    for done in range(0, trials, chunk):
        chunk_worst, chunk_violations = _picone_sides(
            *_picone_draws(rng, min(chunk, trials - done), done))
        worst = min(worst, chunk_worst)
        violations += chunk_violations
    return verify.SuiteReport(name="picone", trials=trials,
                              violations=violations, worst_margin=worst,
                              ok=violations == 0)


@pytest.mark.parametrize("trials,seed", [(1_000, 0), (200_000, 3)])
def test_picone_worst_margin_skips_the_equality_tuples(trials, seed):
    """At t = s both sides are exactly 0, which used to pin worst_margin
    at 0.0 on every run."""
    report = picone_suite(trials=trials, seed=seed)
    assert report.ok and 0.0 < report.worst_margin < 1.0


def test_picone_tie_violates_unless_both_sides_are_zero():
    # s == t in both tuples; the second overflows to lhs = inf * 0 = nan
    p, sigma = np.array([2.0, 4.0]), np.array([3.0, 5.0])
    a, b = np.array([2.0, 1e300]), np.array([1.0, 0.0])
    s = t = np.array([1.5, 1.5])
    with np.errstate(over="ignore", invalid="ignore"):
        worst, violations = _lemmas._picone_block(p, sigma, a, b, s, t)
    assert (worst, violations) == (np.inf, 1)


def test_picone_margin_is_unchanged_by_scaling_a_and_b():
    """Both sides are homogeneous of degree p - 1 in (a, b), so the
    relative margin stays put when a and b shrink by 2^-40.  A margin
    scaled by max(1, |lhs|, |rhs|) is absolute below 1 and shrinks too."""
    rng = np.random.default_rng(0)
    p, sigma, a, b, s, t = _picone_draws(rng, _lemmas._PICONE_BLOCK)
    worst, violations = _lemmas._picone_block(p, sigma, a, b, s, t)
    small = 2.0 ** -40
    scaled = _lemmas._picone_block(p, sigma, a * small, b * small, s, t)
    assert scaled[0] == pytest.approx(worst, rel=1e-9, abs=0.0)
    assert violations == scaled[1] == 0
    assert 0.0 < worst < 2.0


def test_picone_margin_skips_tuples_with_both_sides_zero():
    # a = b = 0 on the first tuple: both sides vanish although s != t, and
    # their 0 / 0 would be a nan margin
    p, sigma = np.array([2.0, 2.0]), np.array([3.0, 3.0])
    a, b = np.array([0.0, 2.0]), np.array([0.0, 1.0])
    s, t = np.array([2.0, 2.0]), np.array([1.0, 1.0])
    with np.errstate(invalid="raise"):
        worst, violations = _lemmas._picone_block(p, sigma, a, b, s, t)
    lhs, rhs = picone_check(2.0, 1.0, 2.0, 1.0, ExponentParams(2.0, 3.0))
    assert violations == 0
    assert worst == (rhs - lhs) / max(abs(lhs), abs(rhs))


@pytest.mark.parametrize("trials,seed", [
    (1, 0), (16_384, 1), (16_385, 1), (100_000, 0), (200_001, 3),
    (None, 0),  # the function's own default, 1,000,000
])
def test_picone_suite_equals_the_chunk_evaluation(monkeypatch, trials, seed):
    """Up to one block the draws are those of the 200,000-tuple chunks;
    beyond it, each block is drawn on its own."""
    sizes = []
    real = _lemmas._picone_block

    def recording(p, *rest):
        sizes.append(p.size)
        return real(p, *rest)

    monkeypatch.setattr(_lemmas, "_picone_block", recording)
    if trials is None:
        report = picone_suite(seed=seed)
        trials = 1_000_000
    else:
        report = picone_suite(trials=trials, seed=seed)
    block = _lemmas._PICONE_BLOCK
    chunk = 200_000 if trials <= block else block
    expected = _picone_by_chunk(trials, seed, chunk)
    assert dataclasses.astuple(report) == dataclasses.astuple(expected)
    assert sum(sizes) == trials and max(sizes) <= block


def test_picone_suite_peak_is_a_few_blocks():
    trials, seed = 1_000_000, 0
    # in bytes: twenty vectors of one float64 per tuple of a block (the six
    # draws, and the temporaries of _picone_block, each its inputs' size)
    bound = 8 * 20 * _lemmas._PICONE_BLOCK
    assert _traced_peak(lambda: picone_suite(trials, seed)) <= bound

    # tuples drawn 200,000 at a time do not fit
    assert _traced_peak(lambda: _picone_by_chunk(trials, seed)) > bound
