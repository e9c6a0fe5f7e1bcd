"""The float Green solve against the exact p = 2 oracle of _exact, the
identities the exact unit current satisfies on four balls (it never steps
inward in hop radius, and every cut edge carries it), and the chain's L_R
and cut-series lower bound against their exact values."""

from fractions import Fraction

import numpy as np
import pytest

from _exact import green_exact
from p_potential import (ExponentParams, analyze_ball, ball_profile,
                         build_lattice, build_tree, solve_green)

# (graph, R, exact g_R(o)); on the tree g_R(o) is the Nash-Williams sum
# sum_{k <= 4} 2^-(k + 1) = 31/32
EXACT_BALLS = {
    "tree-2-6-R4": (lambda: build_tree(2, 6), 4, Fraction(31, 32)),
    "lattice-2-5-R3": (lambda: build_lattice(2, 5), 3, Fraction(52, 119)),
    "lattice-3-5-R3": (lambda: build_lattice(3, 5), 3, Fraction(142, 637)),
    "lattice-2-12-R8": (lambda: build_lattice(2, 12), 8,
                        Fraction(240959203, 426965644)),
}


@pytest.fixture(scope="module", params=EXACT_BALLS)
def ball(request):
    make, R, center = EXACT_BALLS[request.param]
    graph = make()
    profile = ball_profile(graph)
    return graph, profile, R, center, green_exact(graph, profile, R)


def test_exact_green_at_the_pole(ball):
    graph, _, _, center, exact = ball
    assert exact[graph.root] == center


def test_float_green_is_within_its_residual_bound(ball):
    # A defect of sup-norm r at each of the |B_R| equations moves g(o) by at
    # most r sum_x G(o, x) <= r |B_R| g(o), since G(o, x) = g(x) <= g(o) by
    # the maximum principle; 64 eps covers the rounding of the sums.  This
    # is bench/outputs.py's tolerance with an exact reference (no defect)
    # at p = 2 and no sigma.
    graph, profile, R, center, exact = ball
    green = solve_green(graph, profile, R, 2.0)
    tol = green.residual * len(exact) + 64 * np.finfo(np.float64).eps
    error = abs(Fraction(float(green.values[graph.root])) - center)
    assert error <= Fraction(tol) * center


def test_exact_current_steps_outward_across_every_cut_edge(ball):
    # the current w (g(x) - g(y)), with g = 0 outside B_R: no edge carries
    # it inward in hop radius or along a sphere, and the edges that carry
    # it across cut k have total conductance b_k, so each cut's retained
    # conductance is all of it
    graph, profile, R, _, exact = ball
    radius = profile.radius_of.tolist()
    retained = [Fraction(0)] * (R + 1)
    for x, y, w in zip(graph.edge_tails.tolist(), graph.edge_heads.tolist(),
                       graph.edge_weights.tolist()):
        if radius[x] > radius[y]:
            x, y = y, x
        if radius[x] > R:
            continue
        drop = exact[x] - exact.get(y, Fraction(0))
        if radius[x] == radius[y]:
            assert drop == 0, (x, y)
        else:
            assert drop >= 0, (x, y)
            if drop > 0:
                retained[radius[x]] += Fraction(w)
    assert retained == [Fraction(b) for b in profile.b[:R + 1].tolist()]


def _exact_L_and_rhs(graph, R, exact, sigma):
    """L_R = sum_{B_R} g^sigma mu and the cut-series lower bound
    c sum_{n=1}^R n^r (sum_{k=n}^R b_k^(-1/r))^eta at p = 2, exactly: there
    r = 1, eta = sigma - 1 and c = 2^-p (eta/r)^r = eta/4, so with an
    integer sigma both are rational.  mu and b_k are exact sums of the
    weights."""
    mu = {x: Fraction(0) for x in exact}
    b = [Fraction(0)] * (R + 1)
    radius = ball_profile(graph).radius_of.tolist()
    for x, y, w in zip(graph.edge_tails.tolist(), graph.edge_heads.tolist(),
                       graph.edge_weights.tolist()):
        for v in (x, y):
            if v in mu:
                mu[v] += Fraction(w)
        k = min(radius[x], radius[y])
        if radius[x] != radius[y] and k <= R:
            b[k] += Fraction(w)
    eta = sigma - 1
    L = sum(g ** sigma * mu[x] for x, g in exact.items())
    rhs = sum(Fraction(eta, 4) * n * sum(1 / b_k for b_k in b[n:]) ** eta
              for n in range(1, R + 1))
    return L, rhs


@pytest.mark.parametrize("sigma", [2, 3, 5])
def test_chain_L_and_lower_bound_are_within_the_bound(ball, sigma):
    # bench/outputs.py's tolerance, r |B_R| max(1, sigma) / (p - 1) + 64
    # eps relative, with an exact reference (no defect of its own): a
    # defect of r moves g by at most r |B_R| relative (above), and L, a sum
    # of g^sigma, by sigma times that.  The lower bound reads only b.
    graph, profile, R, _, exact = ball
    analysis = analyze_ball(graph, profile, R, ExponentParams(2.0, sigma))
    tol = Fraction(analysis.green.residual * len(exact) * max(1, sigma)
                   + 64 * np.finfo(np.float64).eps)
    L, rhs = _exact_L_and_rhs(graph, R, exact, sigma)
    assert 0 < rhs < L
    for value, want in ((analysis.chain.L, L), (analysis.chain.rhs, rhs)):
        assert abs(Fraction(value) - want) <= tol * want
