"""Green functions of the p-Laplacian on balls, capacities, and L_R.

solve_green minimizes the strictly convex functional

    J(v) = (1/p) sum_edges w |v(x) - v(y)|^p  -  v(o)

over functions vanishing outside B_R, where o is the graph's root, the
center of every ball.  Its Euler-Lagrange equations say v is p-harmonic
on B_R minus o and carries a unit point source at o, i.e.
mu(x) * (-lap_p v)(x) = 1_{x = o}; the reported residual is the maximum
absolute defect of that equation over B_R.  A pole elsewhere is the root
of another graph file.

Also here: the p-capacity of a set inside B_R, the weighted power sum
L_R = sum_{B_R} g_R^sigma mu, the supersolution upper bound
L_R <= (sigma/eta) (g_R(o)/u(o))^eta, and a finite-scale parabolicity
probe.  The probe reads the Nash-Williams cut bound

    g_R(o) >= NW_R = sum_{k=0}^R b_k^(-1/(p-1)),

Holder's inequality applied to the unit current on each cut between B_k
and its complement: an infinite extrapolated tail of NW means g_R(o) is
unbounded (looks-parabolic); a finite tail with shrinking increments of
g_R(o) reads looks-non-parabolic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .criterion import INCONCLUSIVE, TailEstimate, extrapolate_cut_tail
from .dirichlet import MinimizeReport, SolveOptions, minimize_p_dirichlet
from .errors import ConsistencyError, SolverError
from .graphs import BallProfile, WeightedGraph
from .operators import (ExponentParams, as_values, p_energy, p_laplacian_all,
                        supersolution_shortfall)

# Reported residuals never drop below this: at machine-precision convergence
# the defect evaluation itself carries rounding noise of this order, and
# downstream tolerances are multiples of the residual.
RESIDUAL_FLOOR = 1e-13
# solve_green and capacity raise SolverError when the solver's final
# defect (its grad_inf) exceeds this
RESIDUAL_TARGET = 1e-9

LOOKS_PARABOLIC = "looks-parabolic"
LOOKS_NON_PARABOLIC = "looks-non-parabolic"


@dataclass(frozen=True)
class GreenFunction:
    """Solution of the ball Dirichlet problem with a unit point source at
    the graph's root; values is a read-only float64 array, zero outside
    B_R."""

    values: np.ndarray
    R: int
    p: float
    residual: float
    solver_report: MinimizeReport


def solve_green(graph: WeightedGraph, profile: BallProfile, R: int, p: float,
                options: SolveOptions | None = None) -> GreenFunction:
    """Solve the p-Green Dirichlet problem on B_R with its pole at the
    root o, the center of the ball.

    The minimizer vanishes outside B_R, is strictly positive on B_R, and
    satisfies mu(x)(-lap_p v)(x) = 1_{x=o} up to the reported residual.
    options sets the solver's grad_tol (SolveOptions() when None).  Raises
    SolverError (carrying the best iterate) if the defect exceeds
    RESIDUAL_TARGET = 1e-9, ConsistencyError if positivity fails, and
    ValueError (as_values) if the iterate is not finite.
    """
    ball = profile.ball_mask(R)
    source = np.zeros(graph.vertex_count)
    source[graph.root] = 1.0
    fixed = np.zeros(graph.vertex_count)
    values, report = minimize_p_dirichlet(graph, ball, fixed, source, p, options)
    values = as_values(values, graph)
    values.setflags(write=False)

    residual = max(report.grad_inf, RESIDUAL_FLOOR)
    green = GreenFunction(values=values, R=int(R), p=float(p),
                          residual=residual, solver_report=report)
    if report.grad_inf > RESIDUAL_TARGET:
        raise SolverError(
            f"Green solve residual {report.grad_inf:.3e} exceeds target "
            f"{RESIDUAL_TARGET:.1e} (R={R}, p={p})", best=green)
    interior_min = values[ball].min()
    if interior_min <= 0.0:
        raise ConsistencyError(
            f"Green function not strictly positive on B_{R}: min {interior_min}")
    return green


def green_normalization_check(graph: WeightedGraph,
                              green: GreenFunction) -> float:
    """sup of |pairing(g, psi) - psi(o)| over test functions psi
    supported in B_R with sup|psi| <= 1, where o is the root.

    Summation by parts gives pairing(g, psi) - psi(o) = sum over B_R
    of defect * psi with defect = mu (-lap_p g) - 1_{o}, so the
    supremum is the l1 norm of that defect on B_R, attained at
    psi = sign(defect).
    """
    ball = green.values != 0.0
    ball[graph.root] = True  # support of g is exactly B_R
    defect = -p_laplacian_all(graph, green.values, green.p) \
        * graph.vertex_measure
    defect[graph.root] -= 1.0
    return float(np.abs(defect[ball]).sum())


def capacity(graph: WeightedGraph, profile: BallProfile, target_set, R: int,
             p: float) -> float:
    """p-capacity of `target_set` relative to B_R.

    Minimizes the p-energy over v with v = 1 on the set and v = 0 outside
    B_R, with the solver's default SolveOptions; returns the energy of the
    minimizer (which lies in [0, 1]).  Nonincreasing in R.

    Not exported by the package: report derives cap_R({o}) = g_R(o)^(1-p)
    from its own solves.  It stays because the benchmark's tracer
    (bench/spans.py) wraps green.capacity by name, and the traced
    bench self-test fails without it.
    """
    ball = profile.ball_mask(R)
    ids = np.atleast_1d(np.asarray(target_set, dtype=np.int64))
    if ids.size == 0:
        raise ValueError("target set is empty")
    if ids.min() < 0 or ids.max() >= graph.vertex_count:
        raise ValueError("target set contains out-of-range vertex ids")
    if not ball[ids].all():
        outside = int(ids[~ball[ids]][0])
        raise ValueError(f"target vertex {outside} lies outside B_{R}")

    in_set = np.zeros(graph.vertex_count, dtype=bool)
    in_set[ids] = True
    free = ball & ~in_set
    fixed = np.where(in_set, 1.0, 0.0)
    source = np.zeros(graph.vertex_count)
    values, report = minimize_p_dirichlet(graph, free, fixed, source, p)

    if report.grad_inf > RESIDUAL_TARGET:
        raise SolverError(
            f"capacity solve defect {report.grad_inf:.3e} exceeds target "
            f"{RESIDUAL_TARGET:.1e} (R={R}, p={p})")
    if values.min() < -1e-8 or values.max() > 1.0 + 1e-8:
        raise ConsistencyError(
            f"equilibrium potential left [0, 1]: range "
            f"[{values.min():.3e}, {values.max():.3e}]")
    return p_energy(graph, values, p)


def compute_L(graph: WeightedGraph, profile: BallProfile,
              green: GreenFunction, sigma: float) -> float:
    """L_R = sum over x in B_R of g_R(x)^sigma * mu(x)."""
    sigma = float(sigma)
    if sigma <= green.p - 1.0:
        raise ValueError(f"sigma must exceed p - 1 = {green.p - 1}, got {sigma}")
    ball = profile.ball_mask(green.R)
    g = green.values
    return float(np.dot(g[ball] ** sigma, graph.vertex_measure[ball]))


def sandwich_upper_bound(graph: WeightedGraph, profile: BallProfile,
                         green: GreenFunction, u, params: ExponentParams):
    """The upper bound (sigma/eta) (g_R(o)/u(o))^eta / (1 - delta) on L_R,
    that of the supersolution c u, c^eta = 1 - delta, where delta >= 0 is
    u's largest supersolution_shortfall on B_R.  This is the one check of
    a candidate u, the radial shot included, on the ball it bounds: u must
    be nonnegative, positive on B_R, and have delta < 1, or a ValueError
    refuses it, naming the vertex of the largest shortfall.  The shortfall
    on B_R is at most that on any larger ball, so a refusal on B_R holds
    on every ball that contains it.
    """
    if params.p != green.p:
        raise ValueError(f"params.p = {params.p} but the Green function has p = {green.p}")
    u_values = as_values(u, graph)
    ball = profile.ball_mask(green.R)
    shortfall = supersolution_shortfall(graph, u_values, params, interior=ball)
    worst = int(np.argmax(shortfall))
    delta = max(float(shortfall[worst]), 0.0)
    if not delta < 1.0:
        raise ValueError(f"u is not a supersolution on B_{green.R}: -lap_p u "
                         f"falls short of u^sigma by {delta:.3e} of it at "
                         f"vertex {np.flatnonzero(ball)[worst]}")
    if u_values[ball].min() <= 0.0:
        raise ValueError("u must be strictly positive on the ball")

    ratio = green.values[graph.root] / u_values[graph.root]
    return (params.sigma / params.eta) * ratio ** params.eta / (1.0 - delta)


# ---------------------------------------------------------------------------
# parabolicity probe


@dataclass
class ProbeReport:
    """Finite-scale parabolicity probe: the increments of g_R(o) along the
    ladder, the extrapolated Nash-Williams tail and a three-way label.

    The radii and g_R(o) are the caller's inputs, so the report holds no
    copy of them or of cap_R({o}): report writes all three in its ladder
    rows.  tail is extrapolate_cut_tail's estimate of
    sum_{k>R} b_k^(-1/(p-1)) at the last radius R of the ladder, or None
    when R < 4.  The label suggests, it does not decide: boundedness of
    g_R(o) over all R is not observable from finitely many radii.
    """

    increments: np.ndarray
    label: str
    tail: TailEstimate | None


def parabolicity_probe(radii, g_root, b, params: ExponentParams) -> ProbeReport:
    """Label the growth of g_R(o) over a ladder of radii by the
    Nash-Williams cut bound.

    g_root holds the Green values at the center, solved on B_R for each
    radius of the ladder.  b holds the cut conductances (b[k] separates
    B_k from its complement).

    Holder on each cut k gives g_R(o) >= NW_R = sum_{k=0}^R b_k^(-1/(p-1)),
    so an unbounded NW_R forces g_R(o) -> infinity, and a bounded g_R(o)
    needs a finite NW tail.  Label: looks-parabolic when the tail
    extrapolated from the last radius is infinite; looks-non-parabolic
    when it is finite and the increments of g_R(o) per unit radius
    strictly decrease along the ladder; inconclusive otherwise, and
    whenever the last radius is below 4.
    """
    radii = [int(R) for R in radii]
    g_root = np.asarray(g_root, dtype=np.float64)
    if len(radii) < 3:
        raise ValueError("need at least three radii to compare increments")
    if any(hi <= lo for lo, hi in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly increasing")
    if g_root.shape != (len(radii),):
        raise ValueError("need one Green value per radius")
    increments = np.diff(g_root)

    tail = None
    label = INCONCLUSIVE
    if radii[-1] >= 4:
        tail = extrapolate_cut_tail(b, params, radii[-1])
        if np.isinf(tail.extra):
            label = LOOKS_PARABOLIC
        elif np.all(np.diff(increments / np.diff(radii)) < 0.0):
            label = LOOKS_NON_PARABOLIC
    return ProbeReport(increments=increments, label=label, tail=tail)
