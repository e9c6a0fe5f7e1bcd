"""Property harnesses for the standalone inequalities, radial shooting for
test supersolutions, and the suites of the `verify` CLI subcommand.

The shot is one flux recurrence on the ball profile's cut conductances
b_k and sphere measures, from a start the profile fixes, and nothing
else: green.sandwich_upper_bound judges it on each ball it bounds, by
the one rule supersolution_shortfall, and charges its shortfall to the
bound or refuses it.  On a graph that is not spherically symmetric the
shot misses equality on and past the first sphere that mixes
conductance patterns, so its bound there is charged more, or refused.

Each check returns both sides of its inequality so callers see margins,
not booleans.  Each side formula is written once, over arrays
(_picone_sides, _hardy_sides); a check is its one-row case.  The random
suites run blocks of large samples from a single seed through one driver
and report worst cases; the fixed batteries check zero propagation and
the sandwich lower <= L_R <= upper.  No margin at all reads as None.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import VerificationError
from .flows import analyze_ball
from .graphs import (BallProfile, WeightedGraph, ball_profile, build_lattice,
                     build_tree)
from .green import sandwich_upper_bound, solve_green
from .operators import (ExponentParams, _interior_mask, as_values,
                        defect_tolerance, p_laplacian_all)

STRICTLY_POSITIVE = "strictly positive"
IDENTICALLY_ZERO = "identically zero on component"

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


def _picone_sides(p, sigma, a, b, s, t):
    """Arrays (lhs, rhs) of the Picone inequality of picone_check,
    elementwise over aligned arrays (or scalars), with the power gaps of
    _power_gap.  Phi_p(x) is |x|^(p-2) x, and a side whose Phi_p argument
    is 0 is exactly 0."""
    eta = sigma - p + 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        diff = a - b
        lhs = np.abs(diff) ** (p - 2.0) * diff * _power_gap(s, t, sigma)
        cross = a * s - b * t
        rhs = (sigma / eta) * np.abs(cross) ** (p - 2.0) * cross \
            * _power_gap(s, t, eta)
    return (np.where(diff == 0.0, 0.0, lhs),
            np.where(cross == 0.0, 0.0, rhs))


def picone_check(a: float, b: float, s: float, t: float,
                 params: ExponentParams):
    """Four-point inequality behind the comparison argument:

        Phi_p(a-b) (s^sigma - t^sigma)
            <= (sigma/eta) Phi_p(a s - b t) (s^eta - t^eta)

    for nonnegative a, b, s, t.  Returns (lhs, rhs) as floats: the one
    row of _picone_sides, the evaluation picone_suite runs.
    """
    if min(a, b, s, t) < 0.0:
        raise ValueError("picone_check requires nonnegative inputs")
    lhs, rhs = _picone_sides(params.p, params.sigma,
                             *(np.float64(v) for v in (a, b, s, t)))
    return float(lhs), float(rhs)


def hardy_check(a, r: float):
    """Discrete Hardy-type bound: with A_j the prefix sums of a,

        sum_i a_i^(-r)  >=  2^(-(r+1)) sum_j (j / A_j)^r.

    Returns (lhs, rhs) as floats: the one row of _hardy_sides, the
    evaluation hardy_suite runs.  Holds for every ordering of a.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 1 or a.size == 0:
        raise ValueError("a must be a nonempty 1-D array")
    if np.any(a <= 0.0) or not np.all(np.isfinite(a)):
        raise ValueError("entries must be positive and finite")
    if r <= 0.0:
        raise ValueError("r must be positive")
    lhs, rhs = _hardy_sides(a[None, :], np.array([r], dtype=np.float64))
    return float(lhs[0]), float(rhs[0])


# ---------------------------------------------------------------------------
# zero-set propagation


def positivity_propagation(graph: WeightedGraph, u, p: float,
                           interior=None) -> str:
    """Dichotomy for nonnegative p-superharmonic functions on a region.

    The region is the boolean vertex mask interior (every vertex when
    None).  At a zero of u where -lap_p u >= 0, every neighbor value is
    pinched to zero; on a connected region that one step forces u to vanish
    identically or to have had no zero at all.  So the step is checked once
    at every zero of the region, over the edge columns at once, and no
    sweep is needed: a region neighbor it pinches is itself a zero.
    Returns one of the two verdict strings.  The largest zero where the
    step fails decides: where superharmonicity fails it raises ValueError;
    otherwise a positive neighbor (its smallest-id one, the first in the
    row that lists smaller neighbors, then larger ones) raises
    VerificationError.  So does a region its zero set does not cover.
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

    tails, heads = graph.edge_tails, graph.edge_heads
    positive = values > ztol
    beside = np.zeros(graph.vertex_count, dtype=bool)
    beside[tails[positive[heads]]] = True
    beside[heads[positive[tails]]] = True
    failing = zero & (neg_lap < -dtol)
    deciding = np.flatnonzero(failing | (zero & beside))
    if deciding.size:
        x = int(deciding[-1])
        if failing[x]:
            raise ValueError(
                f"u has a zero at vertex {x} where -lap_p u = "
                f"{neg_lap[x]:.3e} < 0; superharmonicity fails there")
        # x's row: its smaller neighbors, then its larger ones, each ascending
        row = np.concatenate((tails[heads == x], heads[tails == x]))
        y = int(row[positive[row]][0])
        raise VerificationError(
            f"superharmonic zero at vertex {x} has strictly positive "
            f"neighbor {y} (u = {values[y]:.3e}): zero propagation "
            f"is violated")

    if zero[region].all():
        return IDENTICALLY_ZERO
    raise VerificationError(
        "zeros propagate on part of the region only; the region is not "
        "connected through its zero set")


# ---------------------------------------------------------------------------
# radial shooting


def shoot_radial_supersolution(graph: WeightedGraph, params: ExponentParams,
                               profile: BallProfile | None = None) -> np.ndarray:
    """The radial candidate supersolution u = U_k on the sphere S_k, shot
    outward from u(o) = U_0 = u0 = (2S)^(-r/eta), with
    S = sum_{k < ecc} (W_k / b_k)^(1/r), as a read-only float64 array of
    one value per vertex.

    Each radial drop balances the flux across a cut,

        b_k Phi_p(U_k - U_{k+1}) = sum_{j <= k} mu(S_j) U_j^sigma,

    which is equality on the sphere S_k when the graph is spherically
    symmetric.  While U_j <= u0 the flux out of B_k is at most
    u0^sigma W_k, so the drops sum to at most u0^(sigma/r) S = u0/2, and u
    stays >= u0/2.  W_0 = b_0 makes S >= 1 and u0 < 1.  S is summed in
    logarithms, as it can overflow near p = 1 while u0 is a double.

    Nothing here checks u: sandwich_upper_bound certifies it on each ball
    by its supersolution_shortfall, or refuses it.  A drop lost to
    rounding leaves u flat, and a u^sigma below the normal doubles is
    refused there.
    """
    if profile is None:
        profile = ball_profile(graph)
    sigma, ecc = params.sigma, profile.eccentricity
    log_s = np.logaddexp.reduce(
        (np.log(profile.W[:ecc]) - np.log(profile.b)) / params.r)
    U = np.empty(ecc + 1)
    U[0] = np.exp(-params.r / params.eta * (np.log(2.0) + log_s))
    flux = 0.0  # out of the ball B_k
    for k in range(ecc):
        flux += profile.sphere_measure[k] * U[k] ** sigma
        U[k + 1] = U[k] - (flux / profile.b[k]) ** (1.0 / params.r)
    values = as_values(U[profile.radius_of], graph)
    values.setflags(write=False)
    return values


# ---------------------------------------------------------------------------
# batch suites


@dataclass
class SuiteReport:
    """Outcome of one suite: worst_margin is the least margin over the
    cases that have one, and None (JSON null) when none has: a battery of
    verdicts, or a running minimum left at its starting inf, which is
    stored as None."""

    name: str
    trials: int
    violations: int
    worst_margin: float | None
    ok: bool
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.worst_margin == np.inf:
            self.worst_margin = None


def check_trials(trials: int) -> None:
    """ValueError unless a random suite's trial count is at least 1."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")


def _log_uniform(rng: np.random.Generator, lo: float, hi: float,
                 size) -> np.ndarray:
    draw = rng.uniform(np.log(lo), np.log(hi), size=size)
    return np.exp(draw, out=draw)


def _random_suite(name: str, trials: int, seed: int, block: int,
                  check_block) -> SuiteReport:
    """The random suites' driver: check_block(rng, first, n) draws cases
    first..first+n-1 from the one seeded rng and returns their (worst
    margin, violations), at most block cases at a time."""
    check_trials(trials)
    rng = np.random.default_rng(seed)
    worst = np.inf
    violations = 0
    for first in range(0, trials, block):
        block_worst, block_violations = check_block(
            rng, first, min(block, trials - first))
        worst = min(worst, block_worst)
        violations += block_violations
    return SuiteReport(name=name, trials=trials, violations=violations,
                       worst_margin=worst, ok=violations == 0)


# tuples per block of picone_suite: each block is drawn and checked on its
# own, so no array is longer than this
_PICONE_BLOCK = 1 << 14


def picone_suite(trials: int = 1_000_000, seed: int = 0) -> SuiteReport:
    """Random-tuple check of picone_check across the parameter box.

    p is uniform on (1, 4], sigma uniform on (p-1, 6] bounded away from
    the degenerate edge by 1e-3, magnitudes log-uniform on [1e-6, 1e3];
    every tenth tuple (index 0, 10, 20, ...) sets t = s to hit the
    equality case.  _random_suite draws and checks the tuples
    _PICONE_BLOCK at a time; each block draws p, sigma, a, b, s and t in
    that order, and _picone_block evaluates it with _picone_sides.

    At t = s both sides are exactly 0, so such a tuple is a violation
    unless lhs == rhs == 0.  worst_margin is the least relative margin
    (rhs - lhs) / max(|lhs|, |rhs|), in [-2, 2], over the tuples with
    s != t and a nonzero side, and None when there are none (a single
    trial: its one tuple is a tie).  trials < 1 raises ValueError.
    """
    return _random_suite("picone", trials, seed, _PICONE_BLOCK, _picone_draw)


def _picone_draw(rng: np.random.Generator, first: int, n: int):
    """_picone_block of tuples first..first+n-1, drawn from rng."""
    p = rng.uniform(1.0, 4.0, size=n)
    sigma = rng.uniform(p - 1.0 + 1e-3, 6.0)
    a, b, s, t = (_log_uniform(rng, 1e-6, 1e3, n) for _ in range(4))
    tie = slice(-first % 10, None, 10)
    t[tie] = s[tie]
    return _picone_block(p, sigma, a, b, s, t)


def _picone_block(p, sigma, a, b, s, t):
    """(worst relative margin, violations) of picone_check over aligned
    arrays of tuples, elementwise, with the sides of _picone_sides.

    The margin is (rhs - lhs) / max(|lhs|, |rhs|), taken over the tuples
    with s != t and a nonzero side; a tuple with t = s violates unless
    lhs == rhs == 0, any other when lhs > rhs + 1e-12 max(1, |lhs|, |rhs|).
    """
    lhs, rhs = _picone_sides(p, sigma, a, b, s, t)
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

    _random_suite draws the arrays 5,000 at a time.  Each shard draws its
    lengths, then its r, then the entries of its arrays one length at a
    time, in ascending length: the arrays of one length, in shard order,
    as one (count, length) block.  _hardy_sides evaluates each block, and
    hardy_check is its one-row case, so the result equals a loop over
    hardy_check.  worst_margin is the least relative margin
    (lhs - rhs) / max(lhs, rhs), as Picone's; an array violates when
    lhs < rhs - 1e-12 max(1, lhs, rhs).  trials < 1 raises ValueError.
    """
    return _random_suite("hardy", trials, seed, 5_000,
                         lambda rng, _first, n: _hardy_shard(rng, n))


def _hardy_shard(rng: np.random.Generator, n_arrays: int):
    """Draw n_arrays arrays and return (worst relative margin, violations).

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

    size = np.maximum(lhs, rhs)
    violated = lhs < rhs - 1e-12 * np.maximum(1.0, size)
    return float(((lhs - rhs) / size).min()), int(np.count_nonzero(violated))


def _hardy_sides(block: np.ndarray, r: np.ndarray):
    """Arrays (lhs, rhs) of hardy_check's bound for each row block[i],
    with exponent r[i]; hardy_check is the one-row case.

    The rows of one length, stacked, add along each row exactly as np.sum
    and np.cumsum add one array (the idiom of flows._path_sums), so no
    sum runs across two arrays.
    """
    r_rows = r[:, None]
    lhs = (block ** -r_rows).sum(axis=1)
    j = np.arange(1, block.shape[1] + 1, dtype=np.float64)
    sums = ((j / np.cumsum(block, axis=1)) ** r_rows).sum(axis=1)
    return lhs, 2.0 ** -(r + 1.0) * sums


def positivity_suite() -> SuiteReport:
    """Fixed battery of zero-propagation verdicts: zero functions, Green
    functions on balls, and a superharmonic zero beside a positive value,
    which must be rejected with positivity_propagation's witness, a
    VerificationError; any other error propagates, as in every other
    case.  details holds every case's verdict, trials counts them, and
    worst_margin is None."""
    cases = []  # (key, verdict, expected verdict)
    for family, graph, radii in (
            ("lattice-1d", build_lattice(1, 12), (4, 8)),
            ("tree", build_tree(2, 4), (2, 3)),
            ("lattice-2d", build_lattice(2, 5), (3,))):
        profile = ball_profile(graph)
        verdict = positivity_propagation(graph, np.zeros(graph.vertex_count), 2.0)
        cases.append((f"{family}-zero", verdict, IDENTICALLY_ZERO))
        for p in (1.5, 2.0, 3.0):
            for R in radii:
                green = solve_green(graph, profile, R, p)
                verdict = positivity_propagation(
                    graph, green.values, p, interior=profile.ball_mask(R))
                cases.append((f"{family}-p{p}-R{R}", verdict, STRICTLY_POSITIVE))

    # a zero beside a positive value, superharmonic within tolerance at
    # p = 3 (-lap_3 u = -phi_3(1e-6) / 2 = -5e-13 at the root), must reach
    # the witness
    graph = build_lattice(1, 3)
    bad = np.zeros(graph.vertex_count)
    # edge 0 joins the root, vertex 0, to its first neighbor
    bad[graph.edge_heads[0]] = 1e-6
    try:
        verdict = positivity_propagation(graph, bad, 3.0)
    except VerificationError:
        verdict = "rejected"
    cases.append(("lattice-1d-zero-beside-positive", verdict, "rejected"))

    details = {key: verdict for key, verdict, _ in cases}
    violations = sum(verdict != expected for _, verdict, expected in cases)
    return SuiteReport(name="positivity", trials=len(details),
                       violations=violations, worst_margin=None,
                       ok=violations == 0, details=details)


def sandwich_suite() -> SuiteReport:
    """Squeeze L_R between analyze_ball's cut-series bound and the
    supersolution bound: on tree(2, 6) at p=2, sigma=3 with R = 2, 3, 4
    and at p=3, sigma=4 with R=3, and on lattice(2, 5), which is not
    spherically symmetric, at p=2, sigma=3 with R = 2, 3.

    Each graph and (p, sigma) shoots once, from the start u0 details
    records, and sandwich_upper_bound judges the shot on each ball.  A
    ball violates when that refuses the shot (details hold "no certified
    bound: " and its message) or lower <= L <= upper fails.  worst_margin
    is the least min(L - lower, upper - L), and None when no ball got that
    far.  Errors of the lower bound propagate.
    """
    details = {}
    violations = 0
    worst = np.inf
    for family, graph, cases in (
            ("tree", build_tree(2, 6),
             ((2.0, 3.0, (2, 3, 4)), (3.0, 4.0, (3,)))),
            ("lattice-2d", build_lattice(2, 5), ((2.0, 3.0, (2, 3)),))):
        profile = ball_profile(graph)
        for p, sigma, radii in cases:
            params = ExponentParams(p=p, sigma=sigma)
            shot = shoot_radial_supersolution(graph, params, profile)
            for R in radii:
                key = f"{family}-p{params.p}-sigma{params.sigma}-R{R}"
                ball = analyze_ball(graph, profile, R, params)
                try:
                    upper = sandwich_upper_bound(graph, profile, ball.green,
                                                 shot, params)
                except ValueError as exc:
                    violations += 1
                    details[key] = f"no certified bound: {exc}"
                    continue
                lower, L = ball.chain.rhs, ball.chain.L
                margin = min(L - lower, upper - L)
                worst = min(worst, margin)
                details[key] = {"lower": lower, "L": L, "upper": upper,
                                "u0": float(shot[graph.root])}
                if margin <= 0.0:
                    violations += 1
    return SuiteReport(name="sandwich", trials=len(details), violations=violations,
                       worst_margin=float(worst), ok=violations == 0,
                       details=details)


def run_suites(name: str, trials: int, seed: int) -> list:
    """Reports of the suite called name, or of every suite when name is
    "all", in the order picone, hardy, positivity, sandwich.  trials and
    seed go to the random suites; the fixed batteries take nothing."""
    suites = {
        "picone": lambda: picone_suite(trials=trials, seed=seed),
        "hardy": lambda: hardy_suite(trials=trials, seed=seed),
        "positivity": positivity_suite,
        "sandwich": sandwich_suite,
    }
    if name != "all" and name not in suites:
        raise ValueError(f"unknown suite {name!r}")
    names = suites if name == "all" else [name]
    return [suites[each]() for each in names]
