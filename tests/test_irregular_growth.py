"""An irregular-growth family: the series criterion holds where no
pointwise volume bound does.

A weighted path (every sphere of size 1) with base weights
w_k = (k + 1)^(p - 1 + delta), delta = (a - p) / 2, where
a = p sigma / (sigma - p + 1) is the critical volume exponent,
crit(n) = n^a.  At the radii n_j = 2^(j^2) (2, 16, 512, 65536) the edge
leaving B_{n_j} weighs crit(n_{j+1}), so W jumps: W_{n_j} / crit(n_j)
grows without bound along j and the pointwise volume threshold fails.
Yet each plateau [n_j, n_{j+1}) adds about 2^(-e) / (q + 1) to the volume
series, e = (sigma - p + 1)/(p - 1) and q + 1 = p sigma / (p - 1), so the
series diverges.

On a path, b_k = w_k, mu_n = w_{n-1} + w_n and W_n = 2 sum_{k<n} w_k + w_n.
"""

import mpmath
import numpy as np
import pytest

from p_potential import (
    CONVERGES,
    ExponentParams,
    SolverError,
    analyze_ball,
    ball_profile,
    build_radial_model,
    classify,
    volume_series_terms,
)

JUMPS = (2, 16, 512, 65536)
PATH_LENGTH = 600  # edges of the built graph
FAMILY = [(p, sigma) for p in (1.5, 3.0) for sigma in (p, 2.0 * p)]


def _critical_exponent(p, sigma):
    return p * sigma / (sigma - p + 1.0)


def _base_exponent(p, sigma):
    """p - 1 + delta: the base weights' power."""
    return p - 1.0 + (_critical_exponent(p, sigma) - p) / 2.0


def _weights(p, sigma, count):
    """w_0 .. w_{count-1}: the base weights with the jump edges in place."""
    a = _critical_exponent(p, sigma)
    w = np.arange(1, count + 1, dtype=np.float64) ** _base_exponent(p, sigma)
    for n_j, n_next in zip(JUMPS, JUMPS[1:]):
        if n_j < count:
            w[n_j] = float(n_next) ** a
    return w


def _volumes(w):
    """W_0 .. W_{len(w)-1} of the weighted path with edge weights w."""
    W = np.empty(w.size)
    W[0] = w[0]
    W[1:] = 2.0 * np.cumsum(w)[:-1] + w[1:]
    return W


def _family_graph(p, sigma):
    return build_radial_model([1] * (PATH_LENGTH + 1),
                              _weights(p, sigma, PATH_LENGTH))


def _plateau_bound(p, sigma, j):
    """A closed-form lower bound for sum_{n=n_j}^{n_{j+1}-1} t_n.

    On the plateau W_n <= 2 sum_{k < n_{j+1}} w_k <= U, with the jump
    edges so far counted in full and the base weights bounded by
    sum_{m=1}^N m^g <= (N + 1)^(g+1) / (g + 1).  Then t_n >= n^q / U^e,
    and sum_{n=lo}^{hi-1} n^q >= ((hi - 1)^(q+1) - (lo - 1)^(q+1)) / (q + 1).
    """
    with mpmath.workdps(50):
        p, sigma = mpmath.mpf(p), mpmath.mpf(sigma)
        a = p * sigma / (sigma - p + 1)
        g = p - 1 + (a - p) / 2
        q1 = p * sigma / (p - 1)
        e = (sigma - p + 1) / (p - 1)
        lo, hi = mpmath.mpf(JUMPS[j]), mpmath.mpf(JUMPS[j + 1])
        jumps = sum(mpmath.mpf(JUMPS[i + 1]) ** a for i in range(j + 1))
        U = 2 * (jumps + (hi + 1) ** (g + 1) / (g + 1))
        return ((hi - 1) ** q1 - (lo - 1) ** q1) / (q1 * U ** e)


# ---------------------------------------------------------------------------
# series side


@pytest.mark.parametrize("p, sigma", FAMILY)
def test_the_graph_has_the_volumes_of_its_weights(p, sigma):
    W = _volumes(_weights(p, sigma, PATH_LENGTH))
    profile = ball_profile(_family_graph(p, sigma))
    np.testing.assert_allclose(profile.W[:PATH_LENGTH], W[:PATH_LENGTH],
                               rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("p, sigma", FAMILY)
def test_the_pointwise_volume_ratio_grows_along_the_jumps(p, sigma):
    W = ball_profile(_family_graph(p, sigma)).W
    a = _critical_exponent(p, sigma)
    ratios = [W[n_j] / float(n_j) ** a for n_j in JUMPS[:3]]
    assert 1.0 < ratios[0] < ratios[1] < ratios[2]
    # W_{n_j} >= crit(n_{j+1}), the weight of the jump edge
    for n_j, n_next, ratio in zip(JUMPS, JUMPS[1:], ratios):
        assert ratio >= (n_next / n_j) ** a


def test_the_pointwise_ratios_at_p3_sigma6():
    # about 1.2e4, 5.9e6 and 3.0e9: the jump edge dominates W_{n_j}
    W = ball_profile(_family_graph(3.0, 6.0)).W
    ratios = [W[n_j] / float(n_j) ** 4.5 for n_j in JUMPS[:3]]
    np.testing.assert_allclose(ratios, [8.0 ** 4.5, 32.0 ** 4.5, 128.0 ** 4.5],
                               rtol=1e-3)


@pytest.mark.parametrize("p, sigma", FAMILY)
def test_every_full_plateau_passes_the_closed_form_bound(p, sigma):
    params = ExponentParams(p=p, sigma=sigma)
    W = _volumes(_weights(p, sigma, JUMPS[-1] + 1))
    terms = volume_series_terms(W, params)  # terms[n - 1] = t_n
    limit = 2.0 ** (-params.eta / params.r) / (params.growth_exponent + 1.0)
    for j in range(len(JUMPS) - 1):
        plateau = float(terms[JUMPS[j] - 1:JUMPS[j + 1] - 1].sum())
        bound = _plateau_bound(p, sigma, j)
        assert plateau >= bound > 0.0
        # the bound tends to a fixed amount per plateau: the sum diverges
        assert bound < limit
    assert float(_plateau_bound(p, sigma, 2)) > 0.5 * limit


@pytest.mark.xfail(strict=True,
                   reason="classify fits a power law over the top half of the "
                          "horizon, [300, 600], which holds the jump at 512; "
                          "it reads beta = 3305.9 with fit_error 9.06")
def test_classify_does_not_call_the_diverging_series_convergent():
    params = ExponentParams(p=3.0, sigma=6.0)
    W = ball_profile(_family_graph(3.0, 6.0)).W
    terms = volume_series_terms(W, params)[:PATH_LENGTH]
    assert classify(terms).classification != CONVERGES


# ---------------------------------------------------------------------------
# ball side


@pytest.mark.parametrize("p, sigma, R", [
    (3.0, 6.0, 10), (3.0, 6.0, 20), (3.0, 6.0, 40), (3.0, 6.0, 100),
    (1.5, 1.5, 10), (1.5, 3.0, 10), (3.0, 3.0, 10),
])
def test_the_chain_and_the_cut_bound_pass_on_the_family(p, sigma, R):
    params = ExponentParams(p=p, sigma=sigma)
    graph = _family_graph(p, sigma)
    ball = analyze_ball(graph, ball_profile(graph), R, params)
    assert ball.chain.ok
    assert all(check.ok for check in ball.chain.checks)
    assert ball.nash_williams.ok


@pytest.mark.xfail(raises=SolverError, strict=True,
                   reason="the Green solve loses relative precision across "
                          "the jump edge at radius 16")
@pytest.mark.parametrize("p, sigma", [(1.5, 1.5), (1.5, 3.0), (3.0, 3.0)])
def test_the_chain_past_the_first_heavy_jump(p, sigma):
    params = ExponentParams(p=p, sigma=sigma)
    graph = _family_graph(p, sigma)
    ball = analyze_ball(graph, ball_profile(graph), 20, params)
    assert ball.chain.ok and ball.nash_williams.ok
