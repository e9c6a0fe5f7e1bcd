"""The float Green solve against the exact p = 2 oracle of _exact, and the
identities the exact unit current satisfies on four balls: it never steps
inward in hop radius, and every cut edge carries it."""

from fractions import Fraction

import numpy as np
import pytest

from _exact import green_exact
from p_potential import ball_profile, build_lattice, build_tree, solve_green

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
