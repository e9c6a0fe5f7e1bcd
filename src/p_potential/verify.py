"""Property harnesses for the standalone inequalities, radial shooting for
test supersolutions, and the two-sided sandwich on L_R.

Each check returns both sides of its inequality so callers see margins,
not booleans.  The batch suites drive large random samples with a single
seed and report worst cases; they are what the `verify` CLI subcommand
runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConsistencyError, VerificationError
from .flows import analyze_ball
from .graphs import (BallProfile, WeightedGraph, ball_profile, build_lattice,
                     build_tree)
from .green import sandwich_upper_bound, solve_green
from .operators import (ExponentParams, VertexFunction, as_values,
                        defect_tolerance, p_laplacian_all, phi_p,
                        supersolution_defect)

STRICTLY_POSITIVE = "strictly positive"
IDENTICALLY_ZERO = "identically zero on component"

# starting values u(o) for radial shooting, tried in this order
SHOOT_STARTS = (0.1, 0.05, 0.01)


# ---------------------------------------------------------------------------
# pointwise inequality checks


def picone_check(a: float, b: float, s: float, t: float,
                 params: ExponentParams):
    """Four-point inequality behind the comparison argument:

        Phi_p(a-b) (s^sigma - t^sigma)
            <= (sigma/eta) Phi_p(a s - b t) (s^eta - t^eta)

    for nonnegative a, b, s, t.  Returns (lhs, rhs).
    """
    if min(a, b, s, t) < 0.0:
        raise ValueError("picone_check requires nonnegative inputs")
    p, sigma, eta = params.p, params.sigma, params.eta
    lhs = phi_p(a - b, p) * (s ** sigma - t ** sigma)
    rhs = (sigma / eta) * phi_p(a * s - b * t, p) * (s ** eta - t ** eta)
    return float(lhs), float(rhs)


def hardy_check(a, r: float):
    """Discrete Hardy-type bound: with A_j the prefix sums of a,

        sum_i a_i^(-r)  >=  2^(-(r+1)) sum_j (j / A_j)^r.

    Returns (lhs, rhs); holds for every ordering of a.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 1 or a.size == 0:
        raise ValueError("a must be a nonempty 1-D array")
    if np.any(a <= 0.0) or not np.all(np.isfinite(a)):
        raise ValueError("entries must be positive and finite")
    if r <= 0.0:
        raise ValueError("r must be positive")
    lhs = float(np.sum(a ** (-r)))
    j = np.arange(1, a.size + 1, dtype=np.float64)
    rhs = float(2.0 ** (-(r + 1.0)) * np.sum((j / np.cumsum(a)) ** r))
    return lhs, rhs


# ---------------------------------------------------------------------------
# zero-set propagation


def positivity_propagation(graph: WeightedGraph, u, p: float,
                           interior=None) -> str:
    """Dichotomy for nonnegative p-superharmonic functions on a region.

    At a zero of u where -lap_p u >= 0, every neighbor value is pinched to
    zero; sweeping that argument across the region forces u to vanish
    identically or to have had no zero at all.  Returns one of the two
    verdict strings; a strictly positive neighbor of a superharmonic zero
    raises VerificationError with the witness pair, and a zero where
    superharmonicity itself fails raises ValueError.
    """
    values = as_values(u, graph)
    if interior is None:
        region = np.ones(graph.vertex_count, dtype=bool)
    else:
        region = np.asarray(interior)
        if region.dtype != np.bool_:
            mask = np.zeros(graph.vertex_count, dtype=bool)
            mask[np.asarray(interior, dtype=np.int64)] = True
            region = mask
    if np.any(values[region] < 0.0):
        raise ValueError("u must be nonnegative on the region")

    scale = float(np.abs(values).max())
    ztol = 1e-12 * max(scale, 1e-300)
    dtol = defect_tolerance(scale, p)
    neg_lap = -p_laplacian_all(graph, values, p)

    zero = (values <= ztol) & region
    if not zero.any():
        return STRICTLY_POSITIVE

    queue = list(np.flatnonzero(zero))
    visited = np.zeros(graph.vertex_count, dtype=bool)
    visited[queue] = True
    while queue:
        x = queue.pop()
        if neg_lap[x] < -dtol:
            raise ValueError(
                f"u has a zero at vertex {x} where -lap_p u = "
                f"{neg_lap[x]:.3e} < 0; superharmonicity fails there")
        for y in graph.neighbors(x)[0]:
            if values[y] > ztol:
                raise VerificationError(
                    f"superharmonic zero at vertex {x} has strictly positive "
                    f"neighbor {y} (u = {values[y]:.3e}): zero propagation "
                    f"is violated")
            if not visited[y] and region[y]:
                visited[y] = True
                queue.append(y)

    if visited[region].all():
        return IDENTICALLY_ZERO
    raise VerificationError(
        "zeros propagate on part of the region only; the region is not "
        "connected through its zero set")


# ---------------------------------------------------------------------------
# radial shooting


@dataclass(frozen=True)
class ShootReport:
    """Outcome of radial equality shooting for -lap_p u = u^sigma.

    Failure (positivity breaking at some radius) is a normal outcome, not
    an exception.  On success, `values` is a verified supersolution on the
    interior ball B_{interior_radius}; equality at the outermost sphere is
    impossible (no outward edges), which is why the interior stops one
    short of the eccentricity.
    """

    success: bool
    values: VertexFunction | None
    radial_values: np.ndarray
    break_radius: int | None
    interior_radius: int
    worst_defect: float | None


def _radial_layer_weights(graph: WeightedGraph, profile: BallProfile):
    """Per-sphere (inward, outward, measure) conductances.

    Raises ValueError unless every vertex of a sphere has the same inward
    and outward conductance: that is what makes a one-dimensional
    recurrence exact.
    """
    ecc = profile.eccentricity
    rad = profile.radius_of
    w_in = np.zeros(graph.vertex_count)
    w_out = np.zeros(graph.vertex_count)
    u, v, w = graph.edge_tails, graph.edge_heads, graph.edge_weights
    ru, rv = rad[u], rad[v]
    for a, b, weight, ra, rb in zip(u, v, w, ru, rv):
        if ra + 1 == rb:
            w_out[a] += weight
            w_in[b] += weight
        elif rb + 1 == ra:
            w_out[b] += weight
            w_in[a] += weight
        # same-radius edges carry no radial current and do not enter

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


def shoot_radial_supersolution(graph: WeightedGraph, params: ExponentParams,
                               u0: float,
                               profile: BallProfile | None = None) -> ShootReport:
    """Shoot a radial solution of -lap_p u = u^sigma outward from u(o) = u0.

    Each radial drop is chosen to make equality hold on the previous
    sphere, which maximizes reach among radially dominated supersolutions
    (a heuristic, not a theorem).  Succeeds if u stays positive through
    the outermost sphere; the result is then a supersolution on
    B_{eccentricity-1}, checked against supersolution_defect.
    """
    if u0 < 0.0:
        raise ValueError("u0 must be nonnegative")
    if profile is None:
        profile = ball_profile(graph)
    ecc = profile.eccentricity
    interior_radius = ecc - 1

    if u0 == 0.0:
        zero = VertexFunction(graph, np.zeros(graph.vertex_count))
        return ShootReport(success=True, values=zero,
                           radial_values=np.zeros(ecc + 1), break_radius=None,
                           interior_radius=interior_radius, worst_defect=0.0)

    layer_in, layer_out, layer_mu = _radial_layer_weights(graph, profile)
    p, sigma = params.p, params.sigma
    U = np.empty(ecc + 1)
    U[0] = u0
    phi_drop = 0.0  # Phi_p of the drop entering the current sphere
    for k in range(ecc):
        phi_drop = (layer_in[k] * phi_drop + layer_mu[k] * U[k] ** sigma) \
            / layer_out[k]
        drop = phi_drop ** (1.0 / (p - 1.0))
        U[k + 1] = U[k] - drop
        if U[k + 1] <= 0.0:
            return ShootReport(success=False, values=None,
                               radial_values=U[:k + 2].copy(),
                               break_radius=k + 1,
                               interior_radius=interior_radius,
                               worst_defect=None)

    values = U[profile.radius_of]
    interior = profile.ball_mask(interior_radius) if interior_radius >= 0 \
        else np.zeros(graph.vertex_count, dtype=bool)
    defects = supersolution_defect(graph, values, params, interior=interior)
    worst = float(defects.min()) if defects.size else 0.0
    tol = max(1e-10, defect_tolerance(u0, p, sigma))
    if worst < -tol:
        raise ConsistencyError(
            f"shooting recurrence produced defect {worst:.3e} on the "
            f"interior; expected equality within {tol:.1e}")
    return ShootReport(success=True, values=VertexFunction(graph, values),
                       radial_values=U.copy(), break_radius=None,
                       interior_radius=interior_radius, worst_defect=worst)


def shoot_with_fallback(graph: WeightedGraph, params: ExponentParams,
                        profile: BallProfile) -> tuple:
    """Shoot from each u0 in SHOOT_STARTS until one succeeds.

    Returns (u0, ShootReport) for the first start that succeeds, or for the
    last start when none does.  A graph that is not spherically symmetric
    raises ValueError at the first start.
    """
    for u0 in SHOOT_STARTS:
        shot = shoot_radial_supersolution(graph, params, u0, profile=profile)
        if shot.success:
            break
    return u0, shot


# ---------------------------------------------------------------------------
# the two-sided sandwich


@dataclass(frozen=True)
class SandwichReport:
    R: int
    p: float
    sigma: float
    u0: float
    lower: float
    L: float
    upper: float

    @property
    def margin_lower(self) -> float:
        return self.L - self.lower

    @property
    def margin_upper(self) -> float:
        return self.upper - self.L


def sandwich_demo(graph: WeightedGraph, params: ExponentParams, R: int,
                  profile: BallProfile | None = None) -> SandwichReport:
    """Squeeze L_R between the cut-series lower bound and the
    supersolution upper bound on one instance.

    The supersolution comes from radial shooting (shoot_with_fallback); the
    lower bound from analyze_ball.  Raises ValueError unless shooting
    succeeds from some start in SHOOT_STARTS (the shot function is then a
    verified supersolution on B_R for R below the eccentricity), and
    VerificationError naming the side if either inequality fails.
    """
    if profile is None:
        profile = ball_profile(graph)
    u0, shot = shoot_with_fallback(graph, params, profile)
    if not shot.success:
        raise ValueError(
            f"shooting failed at radius {shot.break_radius}; no radial "
            f"supersolution available for u0 in {SHOOT_STARTS}")
    if R > shot.interior_radius:
        raise ValueError(
            f"R = {R} exceeds the verified interior radius "
            f"{shot.interior_radius}")

    ball = analyze_ball(graph, profile, R, params)
    L = ball.chain.L
    upper = sandwich_upper_bound(graph, profile, ball.green, shot.values,
                                 params)

    report = SandwichReport(R=int(R), p=params.p, sigma=params.sigma,
                            u0=float(u0), lower=ball.chain.rhs, L=L,
                            upper=upper)
    slack = 1e-8 * max(1.0, abs(L))
    if report.lower > L + slack:
        raise VerificationError(
            f"lower side violated: cut-series bound {report.lower:.6g} "
            f"exceeds L = {L:.6g}")
    if L > upper + slack:
        raise VerificationError(
            f"upper side violated: L = {L:.6g} exceeds supersolution bound "
            f"{upper:.6g}")
    return report


# ---------------------------------------------------------------------------
# batch suites


@dataclass
class SuiteReport:
    name: str
    trials: int
    violations: int
    worst_margin: float
    ok: bool
    details: dict = field(default_factory=dict)


def _log_uniform(rng: np.random.Generator, lo: float, hi: float,
                 size) -> np.ndarray:
    return np.exp(rng.uniform(np.log(lo), np.log(hi), size=size))


# elements per block of picone_suite's elementwise evaluation; its draws
# stay one chunk at a time, so blocking changes no rounding
_PICONE_BLOCK = 1 << 14


def picone_suite(trials: int = 1_000_000, seed: int = 0) -> SuiteReport:
    """Random-tuple check of picone_check across the parameter box.

    p is uniform on (1, 4], sigma uniform on (p-1, 6] bounded away from
    the degenerate edge by 1e-3, magnitudes log-uniform on [1e-6, 1e3];
    every tenth tuple sets t = s to hit the equality case.  The tuples are
    drawn 200,000 at a time and evaluated _PICONE_BLOCK at a time.

    At t = s both sides are exactly 0, so such a tuple is a violation
    unless lhs == rhs == 0, and worst_margin is taken over the tuples with
    s != t (inf when there are none).
    """
    rng = np.random.default_rng(seed)
    worst = np.inf
    violations = 0
    done = 0
    chunk = 200_000
    while done < trials:
        n = min(chunk, trials - done)
        p = rng.uniform(1.0, 4.0, size=n)
        sigma = rng.uniform(p - 1.0 + 1e-3, 6.0)
        a, b, s, t = (_log_uniform(rng, 1e-6, 1e3, n) for _ in range(4))
        t[::10] = s[::10]
        for lo in range(0, n, _PICONE_BLOCK):
            block = slice(lo, lo + _PICONE_BLOCK)
            block_worst, block_violations = _picone_block(
                p[block], sigma[block], a[block], b[block], s[block],
                t[block])
            worst = min(worst, block_worst)
            violations += block_violations
        done += n
    return SuiteReport(name="picone", trials=trials, violations=violations,
                       worst_margin=worst, ok=violations == 0)


def _picone_block(p, sigma, a, b, s, t):
    """(worst scaled margin over the tuples with s != t, violations) of
    picone_check over aligned arrays of tuples, elementwise; a tuple with
    t = s violates unless lhs == rhs == 0."""
    eta = sigma - p + 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        diff = a - b
        lhs = np.abs(diff) ** (p - 2.0) * diff * (s ** sigma - t ** sigma)
        cross = a * s - b * t
        rhs = (sigma / eta) * np.abs(cross) ** (p - 2.0) * cross \
            * (s ** eta - t ** eta)
    lhs = np.where(diff == 0.0, 0.0, lhs)
    rhs = np.where(cross == 0.0, 0.0, rhs)

    scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    margin = (rhs - lhs) / scale
    tie = s == t
    violated = np.where(tie, (lhs != 0.0) | (rhs != 0.0),
                        lhs > rhs + 1e-12 * scale)
    return (float(np.min(margin, where=~tie, initial=np.inf)),
            int(np.count_nonzero(violated)))


def hardy_suite(trials: int = 100_000, seed: int = 0) -> SuiteReport:
    """Random-array check of hardy_check: lengths 1..200, r in (0, 5],
    log-uniform magnitudes.

    The arrays are drawn 5,000 at a time.  Each array's (lhs, rhs) is
    bitwise hardy_check(a_i, r_i), so the result equals a loop over
    hardy_check.
    """
    rng = np.random.default_rng(seed)
    worst = np.inf
    violations = 0
    done = 0
    shard = 5_000
    while done < trials:
        n_arrays = min(shard, trials - done)
        shard_worst, shard_violations = _hardy_shard(rng, n_arrays)
        worst = min(worst, shard_worst)
        violations += shard_violations
        done += n_arrays
    return SuiteReport(name="hardy", trials=trials, violations=violations,
                       worst_margin=worst, ok=violations == 0)


def _hardy_shard(rng: np.random.Generator, n_arrays: int):
    """Draw n_arrays arrays and return (worst scaled margin, violations).

    The draws are one length vector, one packed array of all entries and
    one r per array; they and every temporary are released on return.
    """
    lengths = rng.integers(1, 201, size=n_arrays)
    a = _log_uniform(rng, 1e-6, 1e3, int(lengths.sum()))
    r = rng.uniform(0.001, 5.0, size=n_arrays)
    lhs, rhs = _hardy_sides(a, r, lengths)

    scale = np.maximum(1.0, np.maximum(lhs, rhs))
    margin = (lhs - rhs) / scale
    return (float(margin.min()),
            int(np.count_nonzero(lhs < rhs - 1e-12 * scale)))


def _hardy_sides(a: np.ndarray, r: np.ndarray, lengths: np.ndarray):
    """Arrays (lhs, rhs) with entry i bitwise hardy_check(a_i, r[i]), where
    a_i is the i-th run of lengths[i] entries of the packed array a.

    It takes one array length at a time: rows of one length, stacked, add
    along each row exactly as np.sum and np.cumsum add one array (the
    idiom of flows._path_sums).  No sum runs across two arrays, and no
    temporary is larger than the arrays of one length.
    """
    starts = np.cumsum(lengths) - lengths
    lhs = np.empty(lengths.size)
    rhs = np.empty(lengths.size)
    for width in np.unique(lengths):
        rows = np.flatnonzero(lengths == width)
        block = a[starts[rows, None] + np.arange(width)]
        r_rows = r[rows, None]
        lhs[rows] = (block ** -r_rows).sum(axis=1)
        j = np.arange(1, width + 1, dtype=np.float64)
        sums = ((j / np.cumsum(block, axis=1)) ** r_rows).sum(axis=1)
        # hardy_check takes this factor with a scalar pow
        factor = [math.pow(2.0, -(x + 1.0)) for x in r[rows].tolist()]
        rhs[rows] = np.asarray(factor) * sums
    return lhs, rhs


def positivity_suite(trials: int = 0, seed: int = 0) -> SuiteReport:
    """Fixed battery of zero-propagation cases (trials is accepted for
    interface uniformity; the battery is deterministic)."""
    del trials, seed
    cases = 0
    violations = 0
    details = {}

    for family, graph, radii in (
            ("lattice-1d", build_lattice(1, 12), (4, 8)),
            ("tree", build_tree(2, 4), (2, 3)),
            ("lattice-2d", build_lattice(2, 5), (3,))):
        profile = ball_profile(graph)
        zero = VertexFunction(graph, np.zeros(graph.vertex_count))
        verdict = positivity_propagation(graph, zero, 2.0)
        cases += 1
        if verdict != IDENTICALLY_ZERO:
            violations += 1
        for p in (1.5, 2.0, 3.0):
            for R in radii:
                green = solve_green(graph, profile, R, p)
                verdict = positivity_propagation(
                    graph, green.values, p, interior=profile.ball_mask(R))
                cases += 1
                key = f"{family}-p{p}-R{R}"
                details[key] = verdict
                if verdict != STRICTLY_POSITIVE:
                    violations += 1

    # a zero with a positive neighbor must be rejected with a witness
    graph = build_lattice(1, 3)
    bad = np.zeros(graph.vertex_count)
    bad[int(graph.neighbors(graph.root)[0][0])] = 1.0
    cases += 1
    try:
        positivity_propagation(graph, bad, 2.0)
        violations += 1
    except (ValueError, VerificationError):
        pass
    return SuiteReport(name="positivity", trials=cases, violations=violations,
                       worst_margin=float(violations == 0), ok=violations == 0,
                       details=details)


def sandwich_suite(trials: int = 0, seed: int = 0) -> SuiteReport:
    """Sandwich battery on the binary tree, linear and nonlinear."""
    del trials, seed
    graph = build_tree(2, 6)
    profile = ball_profile(graph)
    details = {}
    violations = 0
    cases = []
    for p, sigma, radii in ((2.0, 3.0, (2, 3, 4)), (3.0, 4.0, (3,))):
        params = ExponentParams(p=p, sigma=sigma)
        for R in radii:
            cases.append((params, R))
    worst = np.inf
    for params, R in cases:
        key = f"p{params.p}-sigma{params.sigma}-R{R}"
        try:
            report = sandwich_demo(graph, params, R, profile=profile)
        except ValueError:
            violations += 1
            details[key] = "shooting failed for all tried u0"
            continue
        margin = min(report.margin_lower, report.margin_upper)
        worst = min(worst, margin)
        details[key] = {"lower": report.lower, "L": report.L,
                        "upper": report.upper, "u0": report.u0}
        if margin <= 0.0:
            violations += 1
    return SuiteReport(name="sandwich", trials=len(cases),
                       violations=violations, worst_margin=float(worst),
                       ok=violations == 0, details=details)


SUITES = {
    "picone": picone_suite,
    "hardy": hardy_suite,
    "positivity": positivity_suite,
    "sandwich": sandwich_suite,
}


def run_suites(names, trials: int, seed: int) -> list:
    """Run the named suites (or all) and return their reports."""
    if isinstance(names, str):
        names = [names]
    expanded = []
    for name in names:
        if name == "all":
            expanded.extend(SUITES)
        elif name in SUITES:
            expanded.append(name)
        else:
            raise ValueError(f"unknown suite {name!r}")
    return [SUITES[name](trials=trials, seed=seed) for name in expanded]
