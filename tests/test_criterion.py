"""Series terms, dyadic comparisons, and the divergence classifier."""

import numpy as np
import pytest

from p_potential import (
    CONVERGES,
    DIVERGES,
    INCONCLUSIVE,
    ExponentParams,
    ball_profile,
    build_lattice,
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
        classify([1.0])
    with pytest.raises(ValueError):
        classify([1.0, -1.0])
    with pytest.raises(ValueError):
        classify([[1.0, 1.0], [1.0, 1.0]])


def test_verdict_strings():
    assert DIVERGES == "diverges"
    assert CONVERGES == "converges"
    assert INCONCLUSIVE == "inconclusive"
