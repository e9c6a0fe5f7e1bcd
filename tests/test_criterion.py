"""Series terms, dyadic comparisons, and the divergence classifier."""

import mpmath
import numpy as np
import pytest

from p_potential import (
    CONVERGES,
    DIVERGES,
    INCONCLUSIVE,
    ExponentParams,
    ball_profile,
    build_lattice,
    build_radial_model,
    build_tree,
    classify,
    cut_series_terms,
    cut_volume_check,
    dyadic_blocks,
    exponent_identity,
    extrapolate_cut_tail,
    midrange_cut_bound,
    volume_series_terms,
)

from p_potential import criterion
from _rounding import gamma as _gamma
from test_irregular_growth import _family_graph

P23 = ExponentParams(p=2, sigma=3)


# ---------------------------------------------------------------------------
# term formulas


def test_volume_terms_for_cubic_growth():
    n = np.arange(0, 50)
    W = (n ** 3).astype(float)
    W[0] = 1.0  # placeholder, ignored
    terms = volume_series_terms(W, P23)
    # exponent 5 over W^2 = n^6 leaves exactly 1/n
    np.testing.assert_allclose(terms, 1.0 / np.arange(1, 50), rtol=1e-13)


def test_volume_terms_validation():
    with pytest.raises(ValueError):
        volume_series_terms([1.0], P23)
    with pytest.raises(ValueError):
        volume_series_terms([1.0, 0.0], P23)
    with pytest.raises(ValueError):
        volume_series_terms([1.0, np.inf], P23)


def test_cut_terms_constant_conductance():
    b = np.full(11, 2.0)
    s = cut_series_terms(b, P23, 10)
    assert s.shape == (10,)
    # s_n = n * ((11 - n)/2)^2
    assert s[4] == 45.0
    assert s[9] == 2.5
    expected = np.arange(1, 11) * ((11 - np.arange(1, 11)) / 2.0) ** 2
    np.testing.assert_allclose(s, expected, rtol=1e-13)


def test_cut_terms_single_level():
    s = cut_series_terms(np.array([5.0, 4.0]), P23, 1)
    assert s.tolist() == [1.0 / 16.0]  # 1^1 * (1/4)^2


def test_cut_terms_zero_conductance_is_infinite():
    b = np.array([1.0, 2.0, 0.0, 2.0, 2.0])
    s = cut_series_terms(b, P23, 4)
    assert np.isinf(s[0]) and np.isinf(s[1])
    assert np.isfinite(s[2]) and np.isfinite(s[3])


def test_cut_terms_validation():
    with pytest.raises(ValueError):
        cut_series_terms(np.array([1.0, -2.0]), P23, 1)
    with pytest.raises(ValueError):
        cut_series_terms(np.array([1.0, 2.0]), P23, 5)
    with pytest.raises(ValueError):
        cut_series_terms(np.array([1.0, 2.0]), P23, 0)


def test_exponent_identity_closed_forms():
    for p, sigma in [(2.0, 3.0), (3.0, 4.0), (1.5, 2.0), (2.7, 5.1)]:
        lhs, rhs = exponent_identity(ExponentParams(p=p, sigma=sigma))
        assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(lhs)))
    assert exponent_identity(P23) == (5.0, 5.0)


# ---------------------------------------------------------------------------
# cut volume comparison


def test_cut_volume_margin_nonnegative_on_families():
    for graph in (build_lattice(1, 6), build_lattice(2, 3),
                  build_tree(2, 5), build_tree(3, 4)):
        assert cut_volume_check(ball_profile(graph)) >= 0.0


def test_cut_volume_margin_tight_at_the_root():
    # every root edge crosses the first cut, so the N = 0 margin vanishes
    assert cut_volume_check(ball_profile(build_tree(2, 4))) == 0.0
    assert cut_volume_check(ball_profile(build_lattice(1, 5))) == 0.0


# ---------------------------------------------------------------------------
# dyadic blocks


def test_dyadic_blocks_linear_cut_growth():
    n = np.arange(0, 70, dtype=float)
    M = 2.0 * n
    M[0] = 1.0
    report = dyadic_blocks(M, P23)
    assert report.N.tolist() == [1, 2, 4, 8, 16, 32]
    np.testing.assert_allclose(report.D, report.N.astype(float) ** 4 / 4.0,
                               rtol=1e-13)
    assert report.c_theory == 32.0
    assert np.all(report.ratio <= 32.0 * (1.0 + 1e-12))


def test_dyadic_blocks_critical_profile_is_flat():
    # M ~ n^3 makes D_N identically one for these exponents
    n = np.arange(0, 40, dtype=float)
    M = n ** 3
    M[0] = 1.0
    report = dyadic_blocks(M, P23)
    np.testing.assert_allclose(report.D, 1.0, rtol=1e-13)


def test_dyadic_blocks_bound_holds_on_random_profiles():
    rng = np.random.default_rng(12)
    for _ in range(50):
        steps = rng.uniform(0.0, 3.0, size=64)
        M = np.concatenate([[1.0], 0.5 + np.cumsum(steps)])
        p = float(rng.uniform(1.2, 3.5))
        params = ExponentParams(p=p, sigma=p + 1.0)
        report = dyadic_blocks(M, params)
        assert np.all(report.ratio <= report.c_theory * (1.0 + 1e-12))


def _scalar_quotient(n, g, w, e):
    """criterion._power_quotient on NumPy scalars: n^g / w^e, or its
    exp-log form where a power leaves the doubles."""
    n, w = np.float64(n), np.float64(w)
    with np.errstate(over="ignore", invalid="ignore"):
        q = n ** g / w ** e
        if np.isfinite(q) and q != 0.0:
            return q
        return np.exp(g * np.log(n) - e * np.log(w))


def _dyadic_blocks_loop(M, params):
    """The per-N loop dyadic_blocks replaced: (N, D, block_sum, ratio)
    with D_N a scalar power and each block an np.sum."""
    pow_, exp_m = params.growth_exponent, params.eta / params.r
    t = volume_series_terms(M, params)
    rows = []
    N = 1
    while 2 * N - 1 <= M.size - 1:
        D = float(_scalar_quotient(N, pow_ + 1.0, M[N], exp_m))
        block = float(np.sum(t[N - 1:2 * N - 1]))
        if min(D, block) >= np.finfo(np.float64).tiny and max(D, block) < np.inf:
            ratio = block / D
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                q = (np.arange(N, 2 * N) / N) ** pow_ / (M[N:2 * N] / M[N]) ** exp_m
                q = np.where(np.isfinite(q) & (q != 0.0), q, np.exp(
                    pow_ * np.log(np.arange(N, 2 * N) / N)
                    - exp_m * np.log(M[N:2 * N] / M[N])))
            ratio = float(np.sum(q)) / N
        rows.append((N, D, block, ratio))
        N *= 2
    return [np.array(col) for col in zip(*rows)]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("M, p, sigma", [
    (np.maximum(2.0 * np.arange(70.0), 1.0), 2.0, 3.0),
    (np.concatenate([[1.0], 0.5 + np.cumsum(
        np.random.default_rng(3).uniform(0.0, 3.0, size=200))]), 2.7, 4.1),
    (np.maximum(1e12 * np.arange(300.0) ** 2, 1.0), 1.1, 10.0),
    (ball_profile(build_lattice(1, 8)).M, 1.001, 2.0),
], ids=["linear", "random", "underflow", "lattice18-p1.001"])
def test_dyadic_blocks_equal_the_per_n_loop(M, p, sigma):
    # the block sums are the loop's terms added in another order, D_N
    # two powers and a quotient, the ratio both (the scaled fallback adds
    # the loop's terms too), so each field is within rounding of the loop
    params = ExponentParams(p=p, sigma=sigma)
    report = dyadic_blocks(M, params)
    N, D, block, ratio = _dyadic_blocks_loop(M, params)
    assert report.N.tolist() == N.tolist()
    for got, want, ops in ((report.block_sum, block, N),
                           (report.D, D, 5),
                           (report.ratio, ratio, N + 6)):
        bound = 2.0 * _gamma(ops) * np.maximum(np.abs(got), np.abs(want))
        assert np.all((got == want) | (np.abs(got - want) <= bound)), (got, want)


@pytest.mark.filterwarnings("error")
def test_dyadic_ratio_where_both_sides_underflow():
    # M_N^99 overflows for every N, so D_N and every block sum read 0.0
    params = ExponentParams(p=1.1, sigma=10.0)
    M = 1e12 * np.arange(0, 300, dtype=float) ** 2
    M[0] = 1.0
    report = dyadic_blocks(M, params)
    assert np.all(report.D == 0.0) and np.all(report.block_sum == 0.0)
    g = mpmath.mpf(params.growth_exponent)
    e = mpmath.mpf(params.eta / params.r)
    with mpmath.workdps(40):
        exact = [float(sum(mpmath.mpf(n) ** g / mpmath.mpf(M[n]) ** e
                           for n in range(N, 2 * N))
                       / (mpmath.mpf(N) ** (g + 1) / mpmath.mpf(M[N]) ** e))
                 for N in report.N.tolist()]
    np.testing.assert_allclose(report.ratio, exact, rtol=1e-12)
    assert np.all(report.ratio <= report.c_theory)


def test_dyadic_blocks_validation():
    with pytest.raises(ValueError):
        dyadic_blocks([1.0, 2.0, 1.5], P23)  # decreasing
    with pytest.raises(ValueError):
        dyadic_blocks([1.0, 0.0, 1.0], P23)
    with pytest.raises(ValueError):
        dyadic_blocks([1.0], P23)


# ---------------------------------------------------------------------------
# midrange bound


def test_midrange_bound_on_the_line():
    prof = ball_profile(build_lattice(1, 10))
    rows = midrange_cut_bound(prof, P23, 8)
    assert [row.m for row in rows] == [4, 5, 6]
    first = rows[0]
    # b = 2 throughout: lhs = (8 - 4 + 1)/2, M_8 = 18
    assert first.lhs == pytest.approx(2.5, rel=1e-13)
    assert first.rhs == pytest.approx(25.0 / 18.0, rel=1e-13)
    assert first.ratio == pytest.approx(1.8, rel=1e-13)
    for row in rows:
        assert row.lhs >= row.rhs * (1.0 - 1e-12)


def test_midrange_bound_on_tree_and_square():
    for graph, N in ((build_tree(2, 7), 5), (build_lattice(2, 8), 6)):
        prof = ball_profile(graph)
        for params in (P23, ExponentParams(p=3, sigma=4)):
            for row in midrange_cut_bound(prof, params, N):
                assert row.lhs >= row.rhs * (1.0 - 1e-12)


def test_midrange_weakest_case_single_level():
    # the same Holder step at m = N degenerates to b_N <= M_N, which holds
    # because M_N already contains b_N
    prof = ball_profile(build_tree(2, 7))
    params = ExponentParams(p=3, sigma=4)
    for N in (4, 5, 6):
        lhs = prof.b[N] ** (-1.0 / params.r)
        rhs = prof.M[N] ** (-1.0 / params.r)
        assert lhs >= rhs


def _midrange_loop(profile, params, N):
    """The per-m loop midrange_cut_bound replaced: (m, lhs, rhs, ratio)
    with each lhs an np.sum and each rhs a scalar power quotient."""
    r, M_N = params.r, profile.M[N]
    rows = []
    for m in range(int(np.ceil(N / 2.0)), int(np.floor(3.0 * N / 4.0)) + 1):
        with np.errstate(over="ignore"):
            lhs = float(np.sum(profile.b[m:N + 1] ** (-1.0 / r)))
        rhs = float(_scalar_quotient(N - m + 1.0, 1.0 + 1.0 / r, M_N, 1.0 / r))
        if min(lhs, rhs) >= np.finfo(np.float64).tiny and max(lhs, rhs) < np.inf:
            ratio = lhs / rhs
        else:
            ratio = float(np.sum([
                _scalar_quotient(M_N / b, 1.0 / r, N - m + 1.0, 1.0 + 1.0 / r)
                for b in profile.b[m:N + 1]]))
        rows.append((m, lhs, rhs, ratio))
    return rows


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("graph, N, p, sigma", [
    (build_lattice(1, 10), 8, 2.0, 3.0),
    (build_tree(2, 7), 5, 3.0, 4.0),
    (build_lattice(2, 8), 6, 1.5, 3.0),
    (build_lattice(3, 6), 5, 2.5, 4.0),
    (build_lattice(1, 8), 7, 1.001, 2.0),
], ids=["line", "tree", "square", "cube", "lattice18-p1.001"])
def test_midrange_sides_equal_the_per_m_loop(graph, N, p, sigma):
    # lhs adds the loop's N - m + 1 terms in another order; rhs is two
    # powers and a quotient; the ratio is their quotient, or a sum of
    # N - m + 1 such quotients where a side is not a normal double
    params = ExponentParams(p=p, sigma=sigma)
    rows = midrange_cut_bound(ball_profile(graph), params, N)
    loop = _midrange_loop(ball_profile(graph), params, N)
    assert [row.m for row in rows] == [m for m, *_ in loop]
    for row, (m, *want) in zip(rows, loop):
        for got, w, ops in zip((row.lhs, row.rhs, row.ratio), want,
                               (N - m + 1, 5, N - m + 7)):
            assert got == w or abs(got - w) <= (
                2.0 * _gamma(ops) * max(abs(got), abs(w))), (row, want)


def test_midrange_validation():
    prof = ball_profile(build_lattice(1, 10))
    with pytest.raises(ValueError):
        midrange_cut_bound(prof, P23, 3)
    with pytest.raises(ValueError):
        midrange_cut_bound(prof, P23, prof.R_max + 1)


# ---------------------------------------------------------------------------
# tail extrapolation


def test_tail_extrapolation_geometric_tree():
    b = ball_profile(build_tree(2, 10)).b  # b_k = 2^(k+1)
    est = extrapolate_cut_tail(b, P23, 8)
    assert est.model == "geometric"
    assert est.slope == pytest.approx(np.log(2.0), rel=1e-9)
    assert est.extra == pytest.approx(2.0 ** -9, rel=1e-9)
    assert est.fit_error <= 1e-12


def test_tail_extrapolation_power_growth():
    k = np.arange(0, 17, dtype=float)
    b = np.maximum(k, 1.0) ** 2
    est = extrapolate_cut_tail(b, P23, 16)
    assert est.model == "power"
    assert est.slope == pytest.approx(2.0, rel=1e-9)
    # remainder of sum k^-2 beyond 16 sits between the integral bounds
    assert 1.0 / 17.0 <= est.extra <= 1.0 / 16.0


def test_tail_extrapolation_flat_profile_diverges():
    b = ball_profile(build_lattice(1, 10)).b  # constant 2
    est = extrapolate_cut_tail(b, P23, 8)
    assert est.extra == np.inf


def test_tail_extrapolation_degenerate_and_validation():
    b = np.array([1.0, 2.0, 0.0, 2.0, 2.0, 2.0])
    est = extrapolate_cut_tail(b, P23, 5)
    assert est.model == "degenerate"
    assert est.extra == np.inf
    with pytest.raises(ValueError):
        extrapolate_cut_tail(np.ones(10), P23, 3)


# ---------------------------------------------------------------------------
# the fits' least squares against LAPACK

_EPS = np.finfo(np.float64).eps


def _backward_error(design):
    """The backward error m n u that Householder QR, and modified
    Gram-Schmidt with the data carried as one more column, commit on an
    m x n least-squares problem (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., Thms 19.13 and 20.3), with their small
    constant taken as 1.  It also covers the few roundings that make the
    design's columns and the data from exact values."""
    return design.size * _EPS


def _perturbation_bounds(design, y, coef, residual_norm):
    """Bounds on |x' - x| and on | |r'| - |r| | for the solution x and the
    residual r of a backward stable solve, by Wedin's theorem (Higham,
    Thm 20.1) with relative perturbations eps = _backward_error(design):

        |x' - x| <= kappa eps / (1 - kappa eps)
                    * (2 |x| + (kappa + 1) |r| / |A|),
        |r' - r| <= (1 + 2 kappa) eps |y|,

    from the design's condition number kappa and the data's norm |y|."""
    eps = _backward_error(design)
    singular = np.linalg.svd(design, compute_uv=False)
    kappa = singular[0] / singular[-1]
    assert kappa * eps < 0.5, (kappa, eps)
    coef_bound = (kappa * eps / (1.0 - kappa * eps)
                  * (2.0 * np.linalg.norm(coef)
                     + (kappa + 1.0) * residual_norm / singular[0]))
    return coef_bound, (1.0 + 2.0 * kappa) * eps * np.linalg.norm(y)


def _assert_agrees_with_lstsq(columns, y, coef, residual):
    """A fit (coef, residual) of criterion._least_squares against numpy's
    LAPACK lstsq on the same design [1, columns...]: both are backward
    stable, so each lies within the perturbation bounds of the exact
    solution, and they lie within twice those bounds of each other."""
    design = np.column_stack([np.ones_like(y)] + list(columns))
    want, *_ = np.linalg.lstsq(design, y, rcond=None)
    want_norm = np.linalg.norm(y - design @ want)
    coef_bound, residual_bound = _perturbation_bounds(design, y, want,
                                                      want_norm)
    assert np.linalg.norm(coef - want) <= 2.0 * coef_bound, (coef, want)
    assert abs(np.linalg.norm(residual) - want_norm) <= 2.0 * residual_bound
    # the residual is y minus the fit, to the same bound
    np.testing.assert_allclose(residual, y - design @ coef, rtol=0.0,
                               atol=2.0 * residual_bound)


def _recorded_fits(monkeypatch):
    """Every (columns, y, coef, residual) of a call of _least_squares
    inside criterion."""
    calls = []
    solve = criterion._least_squares

    def recording(columns, y):
        coef, residual = solve(columns, y)
        calls.append((list(columns), y, coef, residual))
        return coef, residual

    monkeypatch.setattr(criterion, "_least_squares", recording)
    return calls


_PROBE_GRAPHS = {
    "lattice1": build_lattice(1, 40),
    "lattice2": build_lattice(2, 20),
    "lattice3": build_lattice(3, 10),
    "lattice4": build_lattice(4, 4),
    "tree": build_tree(2, 12),
    "irregular-path": _family_graph(3.0, 6.0),
    "radial": build_radial_model([1, 3, 9] + [27] * 60,
                                 np.geomspace(1.0, 1e-6, 62)),
}


@pytest.mark.parametrize("name", sorted(_PROBE_GRAPHS))
def test_the_probe_fits_agree_with_lapack(name, monkeypatch):
    profile = ball_profile(_PROBE_GRAPHS[name])
    calls = _recorded_fits(monkeypatch)
    radii = range(4, profile.R_max + 1)
    for R in radii:
        extrapolate_cut_tail(profile.b, P23, R)
    assert len(calls) == 2 * len(radii)  # a geometric and a power fit each
    for call in calls:
        _assert_agrees_with_lstsq(*call)


_SERIES = {
    "harmonic": lambda n: 1.0 / n,
    "log-squared": lambda n: 1.0 / (n * np.log(n + 1.0) ** 2),
    "log-boundary": lambda n: 1.0 / (n * np.log(n + 1.0)),
    "power-1.03": lambda n: n ** -1.03,
    "power-1.07": lambda n: n ** -1.07,
    "power-1.4": lambda n: 7.3 * n ** -1.4,
    "cubic-volume": lambda n: volume_series_terms(
        np.concatenate(([1.0], n ** 3)), P23),
}
_HORIZONS = np.unique(np.geomspace(64, 4096, 25).astype(int)).tolist()


@pytest.mark.parametrize("name", sorted(_SERIES))
def test_the_classify_fits_agree_with_lapack(name, monkeypatch):
    calls = _recorded_fits(monkeypatch)
    for horizon in _HORIZONS:
        classify(_SERIES[name](np.arange(1.0, horizon + 1.0)))
    assert len(calls) == len(_HORIZONS)
    for call in calls:
        _assert_agrees_with_lstsq(*call)


def _assert_recovers(columns, y, exact):
    """A fit of data the model holds exactly lies within Wedin's bound
    (zero residual) of the exact coefficients."""
    coef, residual = criterion._least_squares(columns, y)
    design = np.column_stack([np.ones_like(y)] + list(columns))
    coef_bound, residual_bound = _perturbation_bounds(design, y, exact, 0.0)
    assert np.linalg.norm(coef - exact) <= coef_bound, (coef, exact)
    assert np.linalg.norm(residual) <= residual_bound


def test_the_fits_recover_exact_data():
    # b_k = 2^(k+1) on every window of the probe, geometric and power
    # fits of exact lines, and t_n = 1/n on every window of classify
    for R in range(4, 400):
        k0 = max(1, R - max(3, R // 4))
        ks = np.arange(k0, R + 1, dtype=np.float64)
        log2 = np.log(2.0)
        _assert_recovers([ks], (ks + 1.0) * log2, np.array([log2, log2]))
        _assert_recovers([np.log(ks)], 3.0 - 2.5 * np.log(ks),
                         np.array([3.0, -2.5]))
    for horizon in _HORIZONS:
        n = np.arange(max(2, horizon // 2), horizon + 1, dtype=np.float64)
        _assert_recovers([-np.log(n), -np.log(np.log(n))], -np.log(n),
                         np.array([0.0, 1.0, 0.0]))


# ---------------------------------------------------------------------------
# classification


def test_classify_harmonic_series_diverges():
    n = np.arange(1, 4097, dtype=float)
    report = classify(1.0 / n)
    assert report.classification == DIVERGES
    beta, gamma = report.fitted_exponents
    assert beta == pytest.approx(1.0, abs=1e-6)
    assert abs(gamma) <= 1e-5


def test_classify_log_squared_converges():
    n = np.arange(1, 4097, dtype=float)
    report = classify(1.0 / (n * np.log(n + 1.0) ** 2))
    assert report.classification == CONVERGES


def test_classify_log_boundary_is_inconclusive():
    n = np.arange(1, 4097, dtype=float)
    report = classify(1.0 / (n * np.log(n + 1.0)))
    assert report.classification == INCONCLUSIVE


def test_classify_short_horizon_forced_inconclusive():
    n = np.arange(1, 33, dtype=float)
    report = classify(1.0 / n ** 2)
    assert report.classification == INCONCLUSIVE
    assert report.horizon == 32


def test_classify_margin_controls_the_split():
    # CLASSIFY_MARGIN = 0.05: beta = 1.03 lies inside it, 1.07 outside
    n = np.arange(1, 2049, dtype=float)
    assert classify(n ** -1.03).classification == DIVERGES
    assert classify(n ** -1.07).classification == CONVERGES


def test_classify_is_scale_invariant():
    n = np.arange(1, 2049, dtype=float)
    terms = n ** -1.4
    a = classify(terms)
    b = classify(7.3 * terms)
    assert a.classification == b.classification == CONVERGES
    assert a.fitted_exponents[0] == pytest.approx(b.fitted_exponents[0],
                                                  abs=1e-9)
    assert a.fitted_exponents[1] == pytest.approx(b.fitted_exponents[1],
                                                  abs=1e-9)


def test_volume_rescaling_does_not_change_verdict():
    # W -> lambda W multiplies every term by the same constant
    n = np.arange(0, 2049, dtype=float)
    W = n ** 3
    W[0] = 1.0
    base = classify(volume_series_terms(W, P23))
    scaled = classify(volume_series_terms(123.0 * W, P23))
    assert base.classification == scaled.classification == DIVERGES


def test_classify_report_bookkeeping():
    terms = 1.0 / np.arange(1, 201, dtype=float)
    report = classify(terms[:100])
    assert report.horizon == 100
    assert report.terms.shape == (100,)
    np.testing.assert_allclose(report.partial_sums, np.cumsum(terms[:100]),
                               rtol=1e-15)
    with pytest.raises(ValueError):
        report.terms[0] = 5.0


def test_classify_validation():
    with pytest.raises(ValueError):
        classify([])
    with pytest.raises(ValueError):
        classify([1.0, -1.0])
    with pytest.raises(ValueError):
        classify([[1.0, 1.0], [1.0, 1.0]])


@pytest.mark.filterwarnings("error")
def test_classify_without_a_fit_window_is_inconclusive():
    # one term has no window; a 0.0 term (an underflow) has no logarithm
    n = np.arange(1.0, 201.0)
    for terms in ([1.0], np.where(n > 150, 0.0, n ** -3.0)):
        report = classify(terms)
        assert report.classification == INCONCLUSIVE
        assert np.isnan(report.fit_error)
        assert np.isnan(report.fitted_exponents).all()


def test_verdict_strings():
    assert DIVERGES == "diverges"
    assert CONVERGES == "converges"
    assert INCONCLUSIVE == "inconclusive"
