"""Property harnesses for the standalone inequalities, radial shooting for
test supersolutions, and the suites of the `verify` CLI subcommand.

Each check returns both sides of its inequality so callers see margins,
not booleans.  The random suites drive large samples from a single seed
and report worst cases; the fixed batteries check zero propagation and
the sandwich lower <= L_R <= upper.
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
from .operators import (ExponentParams, VertexFunction, _interior_mask,
                        as_values, defect_tolerance, p_laplacian_all, phi_p,
                        supersolution_defect)

STRICTLY_POSITIVE = "strictly positive"
IDENTICALLY_ZERO = "identically zero on component"

# starting values u(o) for radial shooting, tried in this order
SHOOT_STARTS = (0.1, 0.05, 0.01)


# ---------------------------------------------------------------------------
# pointwise inequality checks


def _power_gap(s, t, x):
    """s^x - t^x elementwise (s, t >= 0, x > 0) in relative precision, as
    sign(L) max(s, t)^x (-expm1(-x |L|)) with L = log(s / t): log1p((s - t)
    / t) when t/2 <= s <= 2t, where s - t is exact, else log s - log t.
    expm1's argument is never positive, so it cannot overflow.  A zero
    base makes L infinite and the gap s^x or -t^x; s = t gives exactly 0."""
    s, t, x = (np.asarray(v, dtype=np.float64) for v in (s, t, x))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        near = (0.5 * t <= s) & (s <= 2.0 * t)
        L = np.where(near, np.log1p((s - t) / t), np.log(s) - np.log(t))
        gap = np.sign(L) * np.maximum(s, t) ** x * -np.expm1(-x * np.abs(L))
    return np.where(s == t, 0.0, gap)


def picone_check(a: float, b: float, s: float, t: float,
                 params: ExponentParams):
    """Four-point inequality behind the comparison argument:

        Phi_p(a-b) (s^sigma - t^sigma)
            <= (sigma/eta) Phi_p(a s - b t) (s^eta - t^eta)

    for nonnegative a, b, s, t.  Returns (lhs, rhs), with the power gaps
    of _power_gap.
    """
    if min(a, b, s, t) < 0.0:
        raise ValueError("picone_check requires nonnegative inputs")
    p, sigma, eta = params.p, params.sigma, params.eta
    lhs = phi_p(a - b, p) * _power_gap(s, t, sigma)
    rhs = (sigma / eta) * phi_p(a * s - b * t, p) * _power_gap(s, t, eta)
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

    The region is the boolean vertex mask interior (every vertex when
    None).  At a zero of u where -lap_p u >= 0, every neighbor value is
    pinched to zero; sweeping that argument across the region forces u to
    vanish identically or to have had no zero at all.  Returns one of the
    two verdict strings.  A positive neighbor of a superharmonic zero, or
    a region its zero set does not connect, raises VerificationError; a
    zero where superharmonicity fails raises ValueError.
    """
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
    recurrence exact.  The spheres are checked in ascending radius.

    Each vertex's outward (inward) conductance is one np.bincount over the
    radial edges in edge order: it adds from 0.0 in input order, the sum a
    loop over the edges makes, so every layer weight is bitwise that sum.
    """
    ecc = profile.eccentricity
    rad = profile.radius_of
    # same-radius edges carry no radial current and do not enter
    radial = np.abs(rad[graph.edge_tails] - rad[graph.edge_heads]) == 1
    u, v = graph.edge_tails[radial], graph.edge_heads[radial]
    outward = rad[u] < rad[v]
    inner, outer = np.where(outward, u, v), np.where(outward, v, u)
    weights = graph.edge_weights[radial]
    n = graph.vertex_count
    w_out = np.bincount(inner, weights=weights, minlength=n)
    w_in = np.bincount(outer, weights=weights, minlength=n)

    # spheres as runs of the vertices sorted by radius, ids ascending
    order = np.argsort(rad, kind="stable")
    sizes = np.bincount(rad, minlength=ecc + 1)
    nonempty = sizes > 0
    starts = (np.cumsum(sizes) - sizes)[nonempty]
    bad = ~nonempty
    layers = []
    for per_vertex in (w_in, w_out, graph.vertex_measure):
        vals = per_vertex[order]
        hi = np.maximum.reduceat(vals, starts)
        lo = np.minimum.reduceat(vals, starts)
        scale = np.maximum(1.0, np.maximum(np.abs(hi), np.abs(lo)))
        bad[nonempty] |= hi - lo > 1e-12 * scale
        layer = np.empty(ecc + 1)
        layer[nonempty] = vals[starts]
        layers.append(layer)
    if bad.any():
        k = int(bad.argmax())
        if sizes[k] == 0:
            raise ConsistencyError(f"empty sphere at radius {k}")
        raise ValueError(
            f"graph is not spherically symmetric: sphere {k} mixes "
            f"conductance patterns")
    return tuple(layers)


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
    tol = defect_tolerance(u0, p, sigma)
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
# batch suites


@dataclass
class SuiteReport:
    name: str
    trials: int
    violations: int
    worst_margin: float
    ok: bool
    details: dict = field(default_factory=dict)


def check_trials(trials: int) -> None:
    """ValueError unless a random suite's trial count is at least 1."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")


def _log_uniform(rng: np.random.Generator, lo: float, hi: float,
                 size) -> np.ndarray:
    draw = rng.uniform(np.log(lo), np.log(hi), size=size)
    return np.exp(draw, out=draw)


# tuples per block of picone_suite: each block is drawn and checked on its
# own, so no array is longer than this
_PICONE_BLOCK = 1 << 14


def picone_suite(trials: int = 1_000_000, seed: int = 0) -> SuiteReport:
    """Random-tuple check of picone_check across the parameter box.

    p is uniform on (1, 4], sigma uniform on (p-1, 6] bounded away from
    the degenerate edge by 1e-3, magnitudes log-uniform on [1e-6, 1e3];
    every tenth tuple (index 0, 10, 20, ...) sets t = s to hit the
    equality case.  The tuples are drawn and checked _PICONE_BLOCK at a
    time; each block draws p, sigma, a, b, s and t in that order.

    At t = s both sides are exactly 0, so such a tuple is a violation
    unless lhs == rhs == 0.  worst_margin is the least relative margin
    (rhs - lhs) / max(|lhs|, |rhs|), in [-2, 2], over the tuples with
    s != t and a nonzero side (inf when there are none).  trials < 1
    raises ValueError.
    """
    check_trials(trials)
    rng = np.random.default_rng(seed)
    worst = np.inf
    violations = 0
    for done in range(0, trials, _PICONE_BLOCK):
        n = min(_PICONE_BLOCK, trials - done)
        p = rng.uniform(1.0, 4.0, size=n)
        sigma = rng.uniform(p - 1.0 + 1e-3, 6.0)
        a, b, s, t = (_log_uniform(rng, 1e-6, 1e3, n) for _ in range(4))
        tie = slice(-done % 10, None, 10)
        t[tie] = s[tie]
        block_worst, block_violations = _picone_block(p, sigma, a, b, s, t)
        worst = min(worst, block_worst)
        violations += block_violations
    return SuiteReport(name="picone", trials=trials, violations=violations,
                       worst_margin=worst, ok=violations == 0)


def _picone_block(p, sigma, a, b, s, t):
    """(worst relative margin, violations) of picone_check over aligned
    arrays of tuples, elementwise, with the same power gaps (_power_gap).

    The margin is (rhs - lhs) / max(|lhs|, |rhs|), taken over the tuples
    with s != t and a nonzero side; a tuple with t = s violates unless
    lhs == rhs == 0, any other when lhs > rhs + 1e-12 max(1, |lhs|, |rhs|).
    """
    eta = sigma - p + 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        diff = a - b
        lhs = np.abs(diff) ** (p - 2.0) * diff * _power_gap(s, t, sigma)
        cross = a * s - b * t
        rhs = (sigma / eta) * np.abs(cross) ** (p - 2.0) * cross \
            * _power_gap(s, t, eta)
    lhs = np.where(diff == 0.0, 0.0, lhs)
    rhs = np.where(cross == 0.0, 0.0, rhs)

    size = np.maximum(np.abs(lhs), np.abs(rhs))
    tie = s == t
    violated = np.where(tie, (lhs != 0.0) | (rhs != 0.0),
                        lhs > rhs + 1e-12 * np.maximum(1.0, size))
    counted = ~tie & (size != 0.0)
    margin = np.divide(rhs - lhs, size, where=counted,
                       out=np.full_like(size, np.inf))
    return float(margin.min(initial=np.inf)), int(np.count_nonzero(violated))


def hardy_suite(trials: int = 100_000, seed: int = 0) -> SuiteReport:
    """Random-array check of hardy_check: lengths 1..200, r in (0, 5],
    log-uniform magnitudes.

    The arrays are drawn 5,000 at a time.  Each shard draws its lengths,
    then its r, then the entries of its arrays one length at a time, in
    ascending length: the arrays of one length, in shard order, as one
    (count, length) block.  Each array's (lhs, rhs) is bitwise
    hardy_check(a_i, r_i), so the result equals a loop over hardy_check.
    trials < 1 raises ValueError.
    """
    check_trials(trials)
    rng = np.random.default_rng(seed)
    worst = np.inf
    violations = 0
    for done in range(0, trials, 5_000):
        shard_worst, shard_violations = _hardy_shard(
            rng, min(5_000, trials - done))
        worst = min(worst, shard_worst)
        violations += shard_violations
    return SuiteReport(name="hardy", trials=trials, violations=violations,
                       worst_margin=worst, ok=violations == 0)


def _hardy_shard(rng: np.random.Generator, n_arrays: int):
    """Draw n_arrays arrays and return (worst scaled margin, violations).

    Besides a few vectors of one entry per array, no array outlives the
    block of one length, which is drawn, checked and released in turn.
    """
    lengths = rng.integers(1, 201, size=n_arrays)
    r = rng.uniform(0.001, 5.0, size=n_arrays)
    lhs = np.empty(n_arrays)
    rhs = np.empty(n_arrays)
    for width in np.unique(lengths):
        rows = np.flatnonzero(lengths == width)
        block = _log_uniform(rng, 1e-6, 1e3, (rows.size, width))
        lhs[rows], rhs[rows] = _hardy_sides(block, r[rows])

    scale = np.maximum(1.0, np.maximum(lhs, rhs))
    margin = (lhs - rhs) / scale
    return (float(margin.min()),
            int(np.count_nonzero(lhs < rhs - 1e-12 * scale)))


def _hardy_sides(block: np.ndarray, r: np.ndarray):
    """Arrays (lhs, rhs) with entry i bitwise hardy_check(block[i], r[i]).

    The rows of one length, stacked, add along each row exactly as np.sum
    and np.cumsum add one array (the idiom of flows._path_sums), so no
    sum runs across two arrays.
    """
    r_rows = r[:, None]
    lhs = (block ** -r_rows).sum(axis=1)
    j = np.arange(1, block.shape[1] + 1, dtype=np.float64)
    sums = ((j / np.cumsum(block, axis=1)) ** r_rows).sum(axis=1)
    # hardy_check takes this factor with a scalar pow
    factor = [math.pow(2.0, -(x + 1.0)) for x in r.tolist()]
    return lhs, np.asarray(factor) * sums


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
    """Squeeze L_R between analyze_ball's cut-series bound and the
    supersolution bound on tree(2, 6): p=2, sigma=3 at R = 2, 3, 4 and
    p=3, sigma=4 at R=3 (trials and seed are ignored).

    Each (p, sigma) shoots once; the shot is a verified supersolution up
    to its interior radius.  A ball violates when shooting failed, when R
    exceeds that radius, or when lower <= L <= upper fails.  worst_margin
    is the least min(L - lower, upper - L).  Errors of the bounds propagate.
    """
    del trials, seed
    graph = build_tree(2, 6)
    profile = ball_profile(graph)
    details = {}
    violations = 0
    worst = np.inf
    for p, sigma, radii in ((2.0, 3.0, (2, 3, 4)), (3.0, 4.0, (3,))):
        params = ExponentParams(p=p, sigma=sigma)
        u0, shot = shoot_with_fallback(graph, params, profile)
        for R in radii:
            key = f"p{params.p}-sigma{params.sigma}-R{R}"
            if not shot.success or R > shot.interior_radius:
                violations += 1
                details[key] = ("shooting failed for all tried u0" if not shot.success
                                else f"R exceeds the verified interior radius "
                                     f"{shot.interior_radius}")
                continue
            ball = analyze_ball(graph, profile, R, params)
            lower, L = ball.chain.rhs, ball.chain.L
            upper = sandwich_upper_bound(graph, profile, ball.green,
                                         shot.values, params)
            margin = min(L - lower, upper - L)
            worst = min(worst, margin)
            details[key] = {"lower": lower, "L": L, "upper": upper,
                            "u0": float(u0)}
            if margin <= 0.0:
                violations += 1
    return SuiteReport(name="sandwich", trials=len(details), violations=violations,
                       worst_margin=float(worst), ok=violations == 0,
                       details=details)


SUITES = {
    "picone": picone_suite,
    "hardy": hardy_suite,
    "positivity": positivity_suite,
    "sandwich": sandwich_suite,
}


def run_suites(name: str, trials: int, seed: int) -> list:
    """Reports of the suite called name, or of every suite when name is
    "all"."""
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    names = SUITES if name == "all" else [name]
    return [SUITES[each](trials=trials, seed=seed) for each in names]
