"""Green functions of the p-Laplacian on balls, capacities, and L_R.

solve_green minimizes the strictly convex functional

    J(v) = (1/p) sum_edges w |v(x) - v(y)|^p  -  v(center)

over functions vanishing outside B_R.  Its Euler-Lagrange equations say v
is p-harmonic on B_R minus the center and carries a unit point source at
the center, i.e. mu(x) * (-lap_p v)(x) = 1_{x = center}; the reported
residual is the maximum absolute defect of that equation over B_R.

Also here: the p-capacity of a set inside B_R, a finite-scale parabolicity
probe (bounded vs unbounded g_R(o)), the weighted power sum
L_R = sum_{B_R} g_R^sigma mu, and the supersolution upper bound
L_R <= (sigma/eta) (g_R(o)/u(o))^eta.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .criterion import INCONCLUSIVE
from .dirichlet import MinimizeReport, SolveOptions, minimize_p_dirichlet
from .errors import ConsistencyError, SolverError
from .graphs import BallProfile, WeightedGraph
from .operators import (ExponentParams, VertexFunction, as_values,
                        defect_tolerance, p_energy, p_laplacian_all,
                        supersolution_defect)

# Reported residuals never drop below this: at machine-precision convergence
# the defect evaluation itself carries rounding noise of this order, and
# downstream tolerances are multiples of the residual.
RESIDUAL_FLOOR = 1e-13

LOOKS_PARABOLIC = "looks-parabolic"
LOOKS_NON_PARABOLIC = "looks-non-parabolic"


@dataclass(frozen=True)
class GreenFunction:
    """Solution of the ball Dirichlet problem with a unit point source."""

    values: VertexFunction
    R: int
    center: int
    p: float
    residual: float
    solver_report: MinimizeReport

    @property
    def graph(self) -> WeightedGraph:
        return self.values.graph


def solve_green(graph: WeightedGraph, profile: BallProfile, R: int, p: float,
                center: int | None = None,
                options: SolveOptions | None = None) -> GreenFunction:
    """Solve the p-Green Dirichlet problem on B_R.

    The minimizer vanishes outside B_R, is strictly positive on B_R, and
    satisfies mu(x)(-lap_p v)(x) = 1_{x=center} up to the reported residual.
    Raises SolverError (carrying the best iterate) if the residual target
    is not met, ConsistencyError if positivity fails.
    """
    if options is None:
        options = SolveOptions()
    if center is None:
        center = graph.root
    ball = profile.ball_mask(R)
    if not ball[center]:
        raise ValueError(f"center {center} lies outside B_{R}")

    source = np.zeros(graph.vertex_count)
    source[center] = 1.0
    fixed = np.zeros(graph.vertex_count)
    values, report = minimize_p_dirichlet(graph, ball, fixed, source, p, options)

    residual = max(report.grad_inf, RESIDUAL_FLOOR)
    green = GreenFunction(values=VertexFunction(graph, values), R=int(R),
                          center=int(center), p=float(p),
                          residual=residual, solver_report=report)
    if report.grad_inf > options.residual_target:
        raise SolverError(
            f"Green solve residual {report.grad_inf:.3e} exceeds target "
            f"{options.residual_target:.1e} (R={R}, p={p})", best=green)
    interior_min = values[ball].min()
    if interior_min <= 0.0:
        raise ConsistencyError(
            f"Green function not strictly positive on B_{R}: min {interior_min}")
    return green


def green_normalization_check(graph: WeightedGraph,
                              green: GreenFunction) -> float:
    """sup of |pairing(g, psi) - psi(center)| over test functions psi
    supported in B_R with sup|psi| <= 1.

    Summation by parts gives pairing(g, psi) - psi(center) = sum over B_R
    of defect * psi with defect = mu (-lap_p g) - 1_{center}, so the
    supremum is the l1 norm of that defect on B_R, attained at
    psi = sign(defect).
    """
    ball = green.values.values != 0.0
    ball[green.center] = True  # support of g is exactly B_R
    defect = -p_laplacian_all(graph, green.values, green.p) \
        * graph.vertex_measure
    defect[green.center] -= 1.0
    return float(np.abs(defect[ball]).sum())


def capacity(graph: WeightedGraph, profile: BallProfile, target_set, R: int,
             p: float, options: SolveOptions | None = None) -> float:
    """p-capacity of `target_set` relative to B_R.

    Minimizes the p-energy over v with v = 1 on the set and v = 0 outside
    B_R; returns the energy of the minimizer (which lies in [0, 1]).
    Nonincreasing in R.
    """
    if options is None:
        options = SolveOptions()
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
    values, report = minimize_p_dirichlet(graph, free, fixed, source, p, options)

    if report.grad_inf > options.residual_target:
        raise SolverError(
            f"capacity solve defect {report.grad_inf:.3e} exceeds target "
            f"{options.residual_target:.1e} (R={R}, p={p})")
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
    g = green.values.values
    return float(np.dot(g[ball] ** sigma, graph.vertex_measure[ball]))


def sandwich_upper_bound(graph: WeightedGraph, profile: BallProfile,
                         green: GreenFunction, u, params: ExponentParams):
    """The upper bound (sigma/eta) * (g_R(o)/u(o))^eta on L_R, for a
    verified supersolution u.

    u must be nonnegative everywhere, strictly positive on B_R, and satisfy
    -lap_p u >= u^sigma on B_R (checked via supersolution_defect); otherwise
    a ValueError describes the failure.
    """
    if params.p != green.p:
        raise ValueError(f"params.p = {params.p} but the Green function has p = {green.p}")
    u_values = as_values(u, graph)
    ball = profile.ball_mask(green.R)
    tol = defect_tolerance(np.abs(u_values).max(), params.p, params.sigma)
    defects = supersolution_defect(graph, u_values, params, interior=ball)
    if defects.min() < -tol:
        ids = np.flatnonzero(ball)
        worst = int(ids[np.argmin(defects)])
        raise ValueError(
            f"u is not a supersolution on B_{green.R}: defect "
            f"{defects.min():.3e} at vertex {worst} (tolerance {tol:.1e})")
    if u_values[ball].min() <= 0.0:
        raise ValueError("u must be strictly positive on the ball")

    ratio = green.values.values[green.center] / u_values[green.center]
    return (params.sigma / params.eta) * ratio ** params.eta


# ---------------------------------------------------------------------------
# parabolicity probe


@dataclass
class TemplateFit:
    name: str
    params: tuple
    sse: float
    rel_err: float
    growth_per_doubling: float


@dataclass
class ProbeReport:
    """Finite-scale parabolicity probe: data, fits, and a three-way label.

    This suggests, it does not decide: boundedness of g_R(o) over all R is
    not observable from finitely many radii.
    """

    radii: list
    g_root: np.ndarray
    cap_root: np.ndarray
    increments: np.ndarray
    label: str
    fits: dict = field(default_factory=dict)


def _fit_constant(r: np.ndarray, v: np.ndarray) -> TemplateFit:
    c = float(v.mean())
    sse = float(np.sum((v - c) ** 2))
    rel = np.sqrt(sse / np.sum(v ** 2))
    return TemplateFit("constant", (c,), sse, float(rel), 0.0)


def _fit_log(r: np.ndarray, v: np.ndarray) -> TemplateFit:
    design = np.column_stack([np.ones_like(r), np.log(r)])
    coef, *_ = np.linalg.lstsq(design, v, rcond=None)
    a, b = float(coef[0]), float(coef[1])
    sse = float(np.sum((design @ coef - v) ** 2))
    rel = np.sqrt(sse / np.sum(v ** 2))
    return TemplateFit("log", (a, b), sse, float(rel), b * np.log(2.0))


def _fit_power(r: np.ndarray, v: np.ndarray) -> TemplateFit:
    best = None
    for beta in np.arange(0.1, 3.01, 0.05):
        design = np.column_stack([np.ones_like(r), r ** beta])
        coef, *_ = np.linalg.lstsq(design, v, rcond=None)
        sse = float(np.sum((design @ coef - v) ** 2))
        if best is None or sse < best[0]:
            best = (sse, beta, float(coef[0]), float(coef[1]))
    sse, beta, a, b = best
    r_last = float(r[-1])
    growth = b * ((2.0 * r_last) ** beta - r_last ** beta)
    rel = np.sqrt(sse / np.sum(v ** 2))
    return TemplateFit("power", (a, b, beta), sse, float(rel), growth)


def parabolicity_probe(radii, g_root, p: float) -> ProbeReport:
    """Label the growth of g_R(o) over a ladder of radii.

    g_root holds the Green values at the center, solved on B_R for each
    radius of the ladder; cap_root is derived from them exactly, as
    cap_R({o}) = g_R(o)^(1-p).

    Label rule (a calibrated reading of "which template wins"; the
    2-parameter templates nest the constant one, so raw SSE cannot pick it):
    looks-non-parabolic when the constant template fits to < 1% relative
    error and the last increment is < 1e-3 * g(o); looks-parabolic when an
    unbounded template fits to < 10% relative error with positive slope and
    predicted growth per doubling of R at least 1% of the last value;
    otherwise inconclusive.
    """
    radii = [int(R) for R in radii]
    g_root = np.asarray(g_root, dtype=np.float64)
    if len(radii) < 3:
        raise ValueError("need at least three radii to fit growth templates")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly increasing")
    if g_root.shape != (len(radii),):
        raise ValueError("need one Green value per radius")
    cap_root = g_root ** (1.0 - p)
    increments = np.diff(g_root)

    # fit on the largest half of the radii, at least three points
    start = min(len(radii) // 2, len(radii) - 3)
    window_r = np.asarray(radii[start:], dtype=np.float64)
    window_v = g_root[start:]
    fits = {
        "constant": _fit_constant(window_r, window_v),
        "log": _fit_log(window_r, window_v),
        "power": _fit_power(window_r, window_v),
    }

    g_last = float(g_root[-1])
    last_inc = float(g_root[-1] - g_root[-2])
    const_ok = fits["constant"].rel_err < 0.01
    inc_small = last_inc < 1e-3 * g_last

    if const_ok and inc_small:
        label = LOOKS_NON_PARABOLIC
    else:
        unbounded = min((fits["log"], fits["power"]), key=lambda f: f.sse)
        slope = unbounded.params[1]
        if (unbounded.rel_err < 0.10 and slope > 0.0
                and unbounded.growth_per_doubling >= 0.01 * g_last):
            label = LOOKS_PARABOLIC
        else:
            label = INCONCLUSIVE

    return ProbeReport(radii=radii, g_root=g_root, cap_root=cap_root,
                       increments=increments, label=label, fits=fits)
