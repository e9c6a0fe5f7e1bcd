"""Zero propagation, radial shooting, the sandwich suite, the two scalar
checks the random suites sample, and the random suites against those
checks."""

import dataclasses
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p_potential import (
    IDENTICALLY_ZERO,
    STRICTLY_POSITIVE,
    ConsistencyError,
    ExponentParams,
    VerificationError,
    WeightedGraph,
    ball_profile,
    build_lattice,
    build_radial_model,
    build_tree,
    positivity_propagation,
    supersolution_defect,
)
from p_potential import verify
from p_potential.verify import (hardy_check, hardy_suite, picone_check,
                                picone_suite, positivity_suite, run_suites,
                                sandwich_suite, shoot_radial_supersolution)


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


def test_shooting_gives_a_supersolution_on_the_interior():
    graph = build_tree(2, 6)
    profile = ball_profile(graph)
    params = ExponentParams(p=3.0, sigma=4.0)
    shot = shoot_radial_supersolution(graph, params, 0.1, profile=profile)
    assert shot.success and shot.break_radius is None
    assert shot.interior_radius == profile.eccentricity - 1
    assert np.all(np.diff(shot.radial_values) < 0.0)
    assert shot.radial_values[-1] > 0.0
    interior = profile.ball_mask(shot.interior_radius)
    defects = supersolution_defect(graph, shot.values, params,
                                   interior=interior)
    assert defects.min() == pytest.approx(shot.worst_defect)
    assert np.all(np.abs(defects) <= 1e-12)  # equality on the interior
    assert shot.values.dtype == np.float64 and not shot.values.flags.writeable


def test_shooting_breaks_from_a_large_start():
    graph = build_tree(2, 6)
    shot = shoot_radial_supersolution(graph, ExponentParams(p=2.0, sigma=3.0),
                                      10.0)
    assert not shot.success
    assert shot.values is None and shot.worst_defect is None
    assert shot.break_radius == 1
    assert shot.radial_values[-1] <= 0.0
    assert shot.reason == "positivity breaks at radius 1"


def test_shooting_fails_where_the_drop_is_below_an_ulp():
    # at p = 1.1 the first drop, (u0^2)^10 on the line, is below ulp(u0):
    # u stays flat and no double makes equality hold at the root
    graph = build_lattice(1, 8)
    profile = ball_profile(graph)
    params = ExponentParams(p=1.1, sigma=2.0)
    shot = shoot_radial_supersolution(graph, params, 0.1, profile=profile)
    assert not shot.success
    assert shot.values is None and shot.worst_defect is None
    assert shot.break_radius == 1
    np.testing.assert_array_equal(shot.radial_values, [0.1, 0.1])
    assert shot.reason == ("drop 1.000e-20 into radius 1 is below an ulp of "
                           "u = 1.000e-01")
    u0, last = verify.shoot_with_fallback(graph, params, profile)
    assert u0 == verify.SHOOT_STARTS[-1] and not last.success


def test_shooting_still_raises_on_a_wrong_recurrence(monkeypatch):
    # halving each sphere's measure in the recurrence makes every drop too
    # small: the shot stays positive, and its defect check catches it
    real = verify._radial_layer_weights

    def halved_measure(graph, profile):
        w_in, w_out, mu = real(graph, profile)
        return w_in, w_out, mu / 2.0

    monkeypatch.setattr(verify, "_radial_layer_weights", halved_measure)
    with pytest.raises(ConsistencyError, match="shooting recurrence produced"):
        shoot_radial_supersolution(build_tree(2, 6),
                                   ExponentParams(p=3.0, sigma=4.0), 0.1)


def test_shooting_edge_cases():
    params = ExponentParams(p=2.0, sigma=3.0)
    tree = build_tree(2, 3)
    zero = shoot_radial_supersolution(tree, params, 0.0)
    assert zero.success and not np.any(zero.values)
    assert not zero.values.flags.writeable
    with pytest.raises(ValueError, match="nonnegative"):
        shoot_radial_supersolution(tree, params, -1.0)
    with pytest.raises(ValueError, match="spherically symmetric"):
        shoot_radial_supersolution(build_lattice(2, 3), params, 0.1)


def _layer_weights_by_edge_loop(graph, profile):
    """_radial_layer_weights as a loop over the edges (reference)."""
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
            if vals.size == 0:
                raise ConsistencyError(f"empty sphere at radius {k}")
            if np.ptp(vals) > 1e-12 * max(1.0, np.abs(vals).max()):
                raise ValueError(
                    f"graph is not spherically symmetric: sphere {k} mixes "
                    f"conductance patterns")
            arr[k] = vals[0]
    return layer_in, layer_out, layer_mu


def _outcome(compute, graph):
    try:
        return [layer.tobytes() for layer in compute(graph, ball_profile(graph))]
    except (ValueError, ConsistencyError) as exc:
        return type(exc), str(exc)


def _thinned_leaf_tree(weight=0.5):
    """tree(2, 4) with one leaf edge of the given weight: spheres 3 and 4
    mix unless it is within the 1e-12 relative tolerance of 1."""
    base = build_tree(2, 4)
    weights = base.edge_weights.copy()
    weights[-1] = weight
    return WeightedGraph._from_columns(base.vertex_count, base.edge_tails,
                                       base.edge_heads, weights)


@pytest.mark.parametrize("make, symmetric", [
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
], ids=["tree-2-6", "tree-3-5", "radial", "5-cycle", "lattice-2-3",
        "thinned-leaf", "leaf-off-by-1e-9", "leaf-off-by-1e-14"])
def test_layer_weights_equal_the_edge_loop(make, symmetric):
    """Bitwise the same three layers, or the same error and message."""
    graph = make()
    got = _outcome(verify._radial_layer_weights, graph)
    assert got == _outcome(_layer_weights_by_edge_loop, graph)
    assert isinstance(got, list) == symmetric


def test_layer_weights_name_the_first_mixed_sphere():
    for graph, k in ((build_lattice(2, 3), 2), (_thinned_leaf_tree(), 3)):
        with pytest.raises(ValueError, match=f"sphere {k} mixes"):
            verify._radial_layer_weights(graph, ball_profile(graph))


def test_sandwich_suite_squeezes_L():
    report = sandwich_suite()
    assert report.name == "sandwich"
    assert report.ok and report.violations == 0
    assert report.trials == len(report.details) == 4
    for case in report.details.values():
        assert case["lower"] < case["L"] < case["upper"]
        assert case["u0"] == 0.1
    assert report.worst_margin == pytest.approx(min(
        min(c["L"] - c["lower"], c["upper"] - c["L"])
        for c in report.details.values()))


def test_sandwich_suite_shoots_once_per_exponent_pair(monkeypatch):
    starts = []
    real = verify.shoot_radial_supersolution

    def recording(graph, params, u0, profile=None):
        starts.append((params.p, u0))
        return real(graph, params, u0, profile=profile)

    monkeypatch.setattr(verify, "shoot_radial_supersolution", recording)
    assert sandwich_suite().ok
    assert starts == [(2.0, 0.1), (3.0, 0.1)]


def test_sandwich_suite_counts_a_failed_side(monkeypatch):
    # an upper bound below L fails the upper side of every ball; the suite
    # counts it and does not raise
    monkeypatch.setattr(verify, "sandwich_upper_bound",
                        lambda *args: 0.0)
    report = sandwich_suite()
    assert (report.trials, report.violations, report.ok) == (4, 4, False)
    assert report.worst_margin == min(-c["L"] for c in report.details.values())


def test_sandwich_suite_counts_failed_shots_and_short_interiors(monkeypatch):
    real = verify.shoot_with_fallback

    def failing_or_short(graph, params, profile):
        u0, shot = real(graph, params, profile)
        if params.p == 2.0:
            return u0, dataclasses.replace(shot, success=False, values=None,
                                           break_radius=1, worst_defect=None)
        return u0, dataclasses.replace(shot, interior_radius=2)

    monkeypatch.setattr(verify, "shoot_with_fallback", failing_or_short)
    report = sandwich_suite()
    assert (report.trials, report.violations, report.ok) == (4, 4, False)
    assert report.worst_margin is None
    assert report.details == {
        "p2.0-sigma3.0-R2": "shooting failed for all tried u0",
        "p2.0-sigma3.0-R3": "shooting failed for all tried u0",
        "p2.0-sigma3.0-R4": "shooting failed for all tried u0",
        "p3.0-sigma4.0-R3": "R exceeds the verified interior radius 2",
    }


def test_sandwich_suite_propagates_errors_of_the_bounds(monkeypatch):
    def refuse(*args):
        raise ValueError("candidate refused")

    monkeypatch.setattr(verify, "sandwich_upper_bound", refuse)
    with pytest.raises(ValueError, match="candidate refused"):
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
    monkeypatch.setattr(verify, "positivity_propagation",
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

    monkeypatch.setattr(verify, "positivity_propagation", recording)
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

    monkeypatch.setattr(verify, "positivity_propagation", refuse)
    with pytest.raises(ValueError, match="superharmonicity fails"):
        positivity_suite()


def test_run_suites_seeds_only_the_random_suites(monkeypatch):
    calls = []
    for name in ("picone", "hardy", "positivity", "sandwich"):
        monkeypatch.setattr(verify, f"{name}_suite",
                            lambda *args, name=name, **kwargs: calls.append(
                                (name, args, kwargs)) or name)
    assert run_suites("all", trials=7, seed=3) == [
        "picone", "hardy", "positivity", "sandwich"]
    assert calls == [("picone", (), {"trials": 7, "seed": 3}),
                     ("hardy", (), {"trials": 7, "seed": 3}),
                     ("positivity", (), {}), ("sandwich", (), {})]


def test_suite_report_stores_an_inf_margin_as_none():
    report = verify.SuiteReport(name="x", trials=1, violations=0,
                                worst_margin=np.inf, ok=True)
    assert report.worst_margin is None
    assert picone_suite(trials=1, seed=0).worst_margin is None


def test_run_suites_runs_one_suite_by_name():
    [report] = run_suites("hardy", trials=10, seed=3)
    assert report == hardy_suite(trials=10, seed=3)
    with pytest.raises(ValueError, match="unknown suite 'nope'"):
        run_suites("nope", trials=10, seed=0)


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
    worst, violations = verify._picone_block(
        *(np.array([v]) for v in (p, sigma, a, b, s, t)))
    assert violations == 0
    assert worst == pytest.approx(exact_margin, rel=1e-6)


@pytest.mark.parametrize("s, t, x", [
    (1.0, math.exp(1e-9), 2.001), (1.0, math.exp(1e-9), 0.001),
    (1e300, 1e-10, 1e-4), (1e-10, 1e300, 1e-4), (1.5, 1.4999999, 0.3),
    (2.0, 1.0, 3.0), (3.0, 0.0, 2.0), (0.0, 3.0, 2.0), (5.0, 5.0, 2.0),
])
def test_power_gap_matches_mpmath(s, t, x):
    gap = float(verify._power_gap(s, t, x))
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
        lhs, rhs = verify._hardy_sides(block, r[lengths == n])
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
    monkeypatch.setattr(verify, "_hardy_sides", lambda block, r: (
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
    """s^x - t^x as verify._power_gap takes it, one case at a time by
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
    200,000, as it used to, or verify._PICONE_BLOCK, as it does."""
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
        worst, violations = verify._picone_block(p, sigma, a, b, s, t)
    assert (worst, violations) == (np.inf, 1)


def test_picone_margin_is_unchanged_by_scaling_a_and_b():
    """Both sides are homogeneous of degree p - 1 in (a, b), so the
    relative margin stays put when a and b shrink by 2^-40.  A margin
    scaled by max(1, |lhs|, |rhs|) is absolute below 1 and shrinks too."""
    rng = np.random.default_rng(0)
    p, sigma, a, b, s, t = _picone_draws(rng, verify._PICONE_BLOCK)
    worst, violations = verify._picone_block(p, sigma, a, b, s, t)
    small = 2.0 ** -40
    scaled = verify._picone_block(p, sigma, a * small, b * small, s, t)
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
        worst, violations = verify._picone_block(p, sigma, a, b, s, t)
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
    real = verify._picone_block

    def recording(p, *rest):
        sizes.append(p.size)
        return real(p, *rest)

    monkeypatch.setattr(verify, "_picone_block", recording)
    if trials is None:
        report = picone_suite(seed=seed)
        trials = 1_000_000
    else:
        report = picone_suite(trials=trials, seed=seed)
    chunk = 200_000 if trials <= verify._PICONE_BLOCK else verify._PICONE_BLOCK
    expected = _picone_by_chunk(trials, seed, chunk)
    assert dataclasses.astuple(report) == dataclasses.astuple(expected)
    assert sum(sizes) == trials and max(sizes) <= verify._PICONE_BLOCK


def test_picone_suite_peak_is_a_few_blocks():
    trials, seed = 1_000_000, 0
    # in bytes: twenty vectors of one float64 per tuple of a block (the six
    # draws, and the temporaries of _picone_block, each its inputs' size)
    bound = 8 * 20 * verify._PICONE_BLOCK
    assert _traced_peak(lambda: picone_suite(trials, seed)) <= bound

    # tuples drawn 200,000 at a time do not fit
    assert _traced_peak(lambda: _picone_by_chunk(trials, seed)) > bound
