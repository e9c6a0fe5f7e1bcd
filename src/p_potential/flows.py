"""Unit p-current of a Green function, path decomposition, and the
cut-conductance lower bound for L_R.

Orienting every edge of B_R from the larger Green value to the smaller one
turns the solved potential into a unit flow from the center (the graph's
root o, where every ball is centered and every Green function has its pole)
to a collapsed absorbing boundary vertex.  g strictly decreases along every
edge kept, so the flow is acyclic by construction; orient_flow checks its
conservation and that no edge enters the center.  That flow decomposes
into a probability measure on center-to-boundary paths whose edge marginals
equal the edge flows.  Averaging a deterministic Hardy-type estimate along
each path, then pushing first-exit drops through a parallel-sum convexity
step, yields

    L_R >= c * sum_{n=1}^R n^r (sum_{k=n}^R b_k^(-1/r))^eta

entirely in terms of the ball profile's cut conductances b_k.  Every
intermediate inequality is checked numerically, not assumed.  analyze_ball
runs the whole chain on one ball: solve, orient, decompose, audit, and
then checks the Nash-Williams cut bound g_R(o) >= sum_{k=0}^R b_k^(-1/r).

A PathMeasure holds its paths packed: one flat vertex array, path offsets
and probabilities, the layout the audit and the edge marginals read in
whole-array passes; tuples of vertex ids are a derived view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .criterion import _cut_tails
from .errors import ConsistencyError, VerificationError
from .graphs import BallProfile, WeightedGraph, _distinct_values
from .green import GreenFunction, compute_L, solve_green
from .operators import ExponentParams

# residual flow below this fraction of the largest edge flow is treated as
# floating point dust during path extraction
CRUMB_FRACTION = 1e-13


@dataclass(frozen=True)
class UnitFlow:
    """Acyclic unit flow from the center to the collapsed boundary.

    Arrays are aligned: edge i runs tails[i] -> heads[i] carrying flow
    theta[i] = conductance[i] * delta[i]^(p-1), where delta[i] is the
    drop of the Green function along the edge.  The boundary vertex is a
    sentinel id equal to the host graph's vertex count.
    conservation_defect is the largest net-flow imbalance over all
    vertices, the source and the sink included.
    """

    R: int
    p: float
    center: int
    boundary_id: int
    tails: np.ndarray
    heads: np.ndarray
    theta: np.ndarray
    delta: np.ndarray
    conductance: np.ndarray
    conservation_defect: float
    drop_threshold: float

    @property
    def edge_count(self) -> int:
        return self.tails.size


def _collapse_edges(graph: WeightedGraph, ball: np.ndarray, g: np.ndarray):
    """Directed candidate edges of B_R with the complement collapsed.

    Returns (tails, heads, drops, conductances) before thresholding, with
    parallel boundary edges from the same vertex merged (their drops agree,
    so merging conductances preserves both flow and energy).
    """
    u, v, w = graph.edge_tails, graph.edge_heads, graph.edge_weights
    in_u, in_v = ball[u], ball[v]

    both = in_u & in_v
    bu, bv, bw = u[both], v[both], w[both]
    drop = g[bu] - g[bv]
    tails = np.where(drop >= 0.0, bu, bv)
    heads = np.where(drop >= 0.0, bv, bu)
    drops = np.abs(drop)

    one = in_u ^ in_v
    inner = np.where(in_u[one], u[one], v[one])
    order = np.argsort(inner, kind="stable")
    inner, bw_one = inner[order], w[one][order]
    uniq, start = np.unique(inner, return_index=True)
    merged = np.add.reduceat(bw_one, start)

    boundary = graph.vertex_count
    tails = np.concatenate([tails, uniq])
    heads = np.concatenate([heads, np.full(uniq.shape, boundary, dtype=np.int64)])
    drops = np.concatenate([drops, g[uniq]])
    conds = np.concatenate([bw, merged])
    return tails, heads, drops, conds


def orient_flow(graph: WeightedGraph, profile: BallProfile,
                green: GreenFunction) -> UnitFlow:
    """Orient the p-current of a Green function into a unit flow.

    Vertices outside B_R collapse to a single absorbing boundary vertex
    (sentinel id = vertex_count).  Edges whose drop is at or below
    1e-12 * max drop (the flow's drop_threshold) are discarded; profile is
    the graph's and R <= R_max, so some edge leaves B_R.  A conservation
    defect beyond 100 * residual, or an edge entering the center, signals a
    bad solve and raises ConsistencyError.  The center is the graph's root,
    the pole of every Green function.  By construction the flow is acyclic
    (a kept fl(g[tail] - g[head]) > threshold >= 0 means g[tail] > g[head],
    the boundary at 0) and nothing leaves the boundary (tails lie in B_R).
    """
    R = green.R
    ball = profile.ball_mask(R)
    g = green.values
    tails, heads, drops, conds = _collapse_edges(graph, ball, g)

    zero_drop_threshold = 1e-12 * drops.max()
    keep = drops > zero_drop_threshold
    tails, heads, drops, conds = tails[keep], heads[keep], drops[keep], conds[keep]

    order = np.lexsort((heads, tails))
    tails, heads = tails[order], heads[order]
    drops, conds = drops[order], conds[order]
    theta = conds * drops ** (green.p - 1.0)

    boundary = graph.vertex_count
    net = np.zeros(boundary + 1)
    np.add.at(net, tails, theta)
    np.subtract.at(net, heads, theta)
    net[graph.root] -= 1.0
    net[boundary] += 1.0
    worst = float(np.abs(net).max())
    if worst > 100.0 * green.residual:
        raise ConsistencyError(
            f"flow conservation defect {worst:.3e} exceeds "
            f"100 * residual = {100.0 * green.residual:.3e}")
    if np.any(heads == graph.root):
        raise ConsistencyError("a retained edge enters the center")

    for arr in (tails, heads, drops, conds, theta):
        arr.setflags(write=False)
    return UnitFlow(R=R, p=green.p, center=graph.root,
                    boundary_id=boundary, tails=tails, heads=heads,
                    theta=theta, delta=drops, conductance=conds,
                    conservation_defect=worst,
                    drop_threshold=float(zero_drop_threshold))


def flow_checks(graph: WeightedGraph, profile: BallProfile,
                flow: UnitFlow) -> dict:
    """Structural margins of a unit flow, for reports and tests.

    Returns the conservation defect orient_flow measured, per-tail
    conductance slack (retained outgoing conductance never exceeds the
    vertex measure), boundary-edge tail radii, and per-cut margins
    b_k - (retained conductance crossing cut k outward).
    """
    boundary = flow.boundary_id
    out_cond = np.bincount(flow.tails, weights=flow.conductance,
                           minlength=boundary + 1)[:boundary]
    tail_slack = graph.vertex_measure - out_cond

    rad = profile.radius_of
    tail_rad = rad[flow.tails]
    head_rad = np.where(flow.heads == boundary, flow.R + 1,
                        rad[np.minimum(flow.heads, boundary - 1)])

    R = flow.R
    crossing = head_rad == tail_rad + 1
    cut_margin = profile.b[:R + 1] - np.bincount(
        tail_rad[crossing], weights=flow.conductance[crossing], minlength=R + 1)

    boundary_tails_at_rim = bool(np.all(tail_rad[flow.heads == boundary] == R))
    return {
        "conservation_defect": flow.conservation_defect,
        "min_tail_slack": float(tail_slack.min()),
        "cut_margin": cut_margin,
        "boundary_tails_at_rim": boundary_tails_at_rim,
    }


@dataclass(frozen=True)
class PathMeasure:
    """Probability measure on center-to-boundary paths, packed as CSR arrays.

    Path i is vertices[offsets[i]:offsets[i + 1]] (vertex ids from the
    center to the boundary sentinel) and carries probabilities[i].  paths
    is a derived read-only view with each path a tuple of Python ints; it
    is rebuilt on every call, not stored.
    """

    vertices: np.ndarray
    offsets: np.ndarray
    probabilities: np.ndarray
    center: int
    boundary_id: int

    def __len__(self) -> int:
        return self.offsets.size - 1

    @property
    def paths(self) -> list:
        flat, cuts = self.vertices.tolist(), self.offsets.tolist()
        return [tuple(flat[a:b]) for a, b in zip(cuts, cuts[1:])]


def _step_starts(offsets: np.ndarray) -> np.ndarray:
    """Flat indices i whose step i -> i + 1 stays inside one packed path."""
    inside = np.ones(int(offsets[-1]), dtype=bool)
    inside[offsets[1:] - 1] = False
    return np.flatnonzero(inside)


def decompose_paths(flow: UnitFlow) -> PathMeasure:
    """Greedy path decomposition of an acyclic unit flow.

    Repeatedly walks from the center choosing the outgoing edge with the
    largest residual flow (ties broken by smaller head id), extracts the
    path with probability equal to the minimum residual along it, and
    subtracts.  Each extraction zeroes at least one edge exactly, so at
    most edge_count paths come out.  Residual dust at or below
    CRUMB_FRACTION * max flow is dropped: a walk that reaches only dust
    zeroes the edge it came in on.  The walk runs on Python lists (the
    same float arithmetic as on arrays) and writes the packed arrays of
    PathMeasure directly.
    """
    m = flow.edge_count
    if m == 0:
        raise ConsistencyError("flow has no retained edges to decompose")
    crumb_threshold = CRUMB_FRACTION * float(flow.theta.max())

    # tails are sorted, so out-edges of v occupy indptr[v]:indptr[v+1]
    indptr = np.searchsorted(flow.tails, np.arange(flow.boundary_id + 2)).tolist()
    residual = flow.theta.tolist()
    heads = flow.heads.tolist()
    center, boundary = int(flow.center), int(flow.boundary_id)

    vertices: list = []
    offsets = [0]
    probs: list = []
    rounds = 0
    while True:
        rounds += 1
        if rounds > 2 * m + 4:
            raise ConsistencyError(
                "residual flow not exhausted after edge-count rounds")
        cur = center
        edge_idx: list = []
        dead_end = False
        while cur != boundary:
            lo = indptr[cur]
            seg = residual[lo:indptr[cur + 1]]
            best = max(seg) if seg else 0.0
            if best <= crumb_threshold:
                dead_end = True
                break
            pick = lo + seg.index(best)  # first maximum: the smaller head
            edge_idx.append(pick)
            cur = heads[pick]
            if len(edge_idx) > m:
                raise ConsistencyError("walk exceeded edge count; flow not acyclic")
        if dead_end:
            if not edge_idx:
                break  # center exhausted: decomposition complete
            residual[edge_idx[-1]] = 0.0  # conservation says this is dust
            continue
        prob = min(map(residual.__getitem__, edge_idx))
        for e in edge_idx:
            residual[e] -= prob
        vertices.append(center)
        vertices.extend(map(heads.__getitem__, edge_idx))
        offsets.append(len(vertices))
        probs.append(prob)
        if len(probs) > m:
            raise ConsistencyError(
                "residual flow not exhausted after edge-count rounds")

    packed = (np.asarray(vertices, dtype=np.int64),
              np.asarray(offsets, dtype=np.int64),
              np.asarray(probs, dtype=np.float64))
    for arr in packed:
        arr.setflags(write=False)
    return PathMeasure(*packed, center=center, boundary_id=boundary)


def edge_marginals(flow: UnitFlow, measure: PathMeasure) -> np.ndarray:
    """Per-edge mass sum_{paths through e} prob, aligned with flow arrays.

    Raises ConsistencyError naming the first path step that is not a
    retained edge of the flow.
    """
    # orient_flow sorts edges by (tail, head), so these keys are sorted
    width = flow.boundary_id + 1
    keys = flow.tails * width + flow.heads
    starts = _step_starts(measure.offsets)
    tails, heads = measure.vertices[starts], measure.vertices[starts + 1]
    wanted = tails * width + heads
    ids = np.searchsorted(keys, wanted)
    missing = keys[np.minimum(ids, keys.size - 1)] != wanted
    if missing.any():
        i = int(np.argmax(missing))
        raise ConsistencyError(
            f"path step {tails[i]} -> {heads[i]} is not a retained edge "
            f"of the flow")
    weights = np.repeat(measure.probabilities, np.diff(measure.offsets) - 1)
    return np.bincount(ids, weights=weights, minlength=flow.edge_count)


def _first_exits(radii: np.ndarray, offsets: np.ndarray, R: int) -> np.ndarray:
    """alpha[i, k], k = 0..R: flat index of the first step of packed path i
    from radius k to radius k + 1, or -1 where the path has none.

    radii holds the radius of every packed vertex, in [0, R + 1].  Shifting
    path i's radii by i * (R + 2) lets one running maximum restart at each
    path; with radii moving by at most one per step, the running maximum
    rises exactly at these first outward steps.
    """
    owner = np.repeat(np.arange(offsets.size - 1), np.diff(offsets))
    level = np.maximum.accumulate(radii + owner * (R + 2))
    rises = np.flatnonzero((level[1:] > level[:-1]) & (owner[1:] == owner[:-1]))
    rises = rises[radii[rises] <= R]
    alpha = np.full((offsets.size - 1, R + 1), -1, dtype=np.int64)
    alpha[owner[rises], radii[rises]] = rises
    return alpha


def _path_sums(terms: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sum of each consecutive run of counts[i] entries of terms.

    Each run is added exactly as np.sum adds a 1-D array of that length
    (pairwise): runs of one length are stacked into a contiguous 2-D block
    and summed along rows.  Sequential sums (reduceat, cumsum) would round
    differently.
    """
    starts = np.cumsum(counts) - counts
    out = np.zeros(counts.size)
    for width in np.unique(counts[counts > 0]):
        rows = np.flatnonzero(counts == width)
        out[rows] = terms[starts[rows, None] + np.arange(width)].sum(axis=1)
    return out


def _pow_each(x: np.ndarray, exponent: float) -> np.ndarray:
    """math.pow(v, exponent) for every entry v of x, in x's shape.

    math.pow runs once per distinct float64 bit pattern of x and is
    scattered back, so each entry is bitwise the scalar pow of its value.
    """
    distinct, which = _distinct_values(x)
    powers = np.array([math.pow(v, exponent) for v in distinct], dtype=np.float64)
    return powers[which].reshape(x.shape)


@dataclass(frozen=True)
class CheckRecord:
    """One verified inequality: require lower <= upper (within slack)."""

    name: str
    lower: float
    upper: float
    ok: bool

    @property
    def margin(self) -> float:
        return self.upper - self.lower


@dataclass(frozen=True)
class ChainReport:
    """Result of the flow-path lower bound with its full audit trail."""

    L: float
    rhs: float
    checks: list
    per_n: list

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> list:
        return [c.name for c in self.checks if not c.ok]


def _witness(name: str, lower, upper) -> CheckRecord:
    """The row of lower <= upper at the first minimum of upper - lower in
    C order, over aligned arrays of candidates (or scalars, one candidate);
    ok when lower <= upper + 1e-8 max(1, |lower|, |upper|)."""
    lower, upper = np.asarray(lower), np.asarray(upper)
    w = np.unravel_index(np.argmin(upper - lower), upper.shape)
    lower, upper = float(lower[w]), float(upper[w])
    scale = max(1.0, abs(lower), abs(upper))
    return CheckRecord(name=name, lower=lower, upper=upper,
                       ok=lower <= upper + 1e-8 * scale)


def empirical_lower_bound(graph: WeightedGraph, profile: BallProfile,
                          green: GreenFunction, flow: UnitFlow,
                          measure: PathMeasure,
                          params: ExponentParams) -> ChainReport:
    """Verify the whole lower-bound chain and return its audit.

    Checks, in proof order: the path measure's edge mass is at most L_R;
    the exact path-mass identity; the one-path estimate on every path;
    step indices dominate radii; exit drops are a sub-sum of the value at
    first reach; first-exit moments are bounded by cut conductances; the
    convexity step; and finally

        L_R >= c * sum_n n^r (sum_{k=n}^R b_k^(-1/r))^eta.

    Every path starts at the center, the profile's root.  The first exit
    alpha_k across cut k (first step from radius k to k + 1) then does not
    depend on n, and the first reach of radius n is tau_n = alpha_{n-1} + 1,
    so one pass over the packed paths finds every alpha_k, and the exit
    moment E[delta_{alpha_k}^-r] is checked once per k.  The one-path lhs
    is the per-path mass.  Each record is bitwise what a loop over
    (path, n) gives, since exact ties decide several witnesses: per-path
    sums add pairwise like np.sum, powers of single values use math.pow
    (scalar pow, as the loop did; math.pow runs once per distinct value,
    and the same input gives the same output) and powers of arrays stay
    array powers, and each witness is the first minimum in the loop's
    order (path-major, then n; ascending k; ascending n), which is the C
    order in which _witness, the one witness rule of every row, takes it.

    Raises VerificationError naming the first failing step.
    """
    if params.p != green.p:
        raise ValueError("params.p differs from the Green function's p")
    R, r, sigma, eta = green.R, params.r, params.sigma, params.eta
    g = green.values
    probs = measure.probabilities
    offsets = measure.offsets
    lengths = np.diff(offsets)
    checks: list = []

    # packed per-vertex values (the boundary sentinel is vertex_count: 0)
    # and drops[i] = values[i] - values[i + 1] for every step start i
    values = np.append(g, 0.0)[measure.vertices]
    drops = -np.diff(values)
    starts = _step_starts(offsets)
    step_drops = drops[starts]
    if np.any(step_drops <= 0.0):
        raise ValueError("path values must be strictly decreasing")

    mass = _path_sums(values[starts] ** sigma / step_drops ** r, lengths - 1)
    expected_mass = float(np.dot(probs, mass))
    L = compute_L(graph, profile, green, sigma)
    checks.append(_witness("path mass expectation <= L", expected_mass, L))

    edge_mass = float(np.sum(flow.theta * g[flow.tails] ** sigma
                             / flow.delta ** r))
    identity_gap = abs(expected_mass - edge_mass)
    checks.append(_witness("path mass identity (1e-9 relative)", identity_gap,
                           1e-9 * max(1.0, abs(edge_mass))))

    # sum_{j=1}^{m-2} j^r V_j^eta per path: the one-path rhs without c
    j = (np.arange(offsets[-1]) - np.repeat(offsets[:-1], lengths)
         ).astype(np.float64)
    inner = starts[j[starts] > 0.0]
    steps = _path_sums(j[inner] ** r * values[inner] ** eta, lengths - 2)
    hardy_rhs = params.c_hardy * steps
    checks.append(_witness("one-path estimate (worst path)", hardy_rhs, mass))

    if R >= 1:
        radii = np.append(profile.radius_of, R + 1)[measure.vertices]
        alpha = _first_exits(radii, offsets, R)
        if np.any(alpha < 0):
            raise ConsistencyError(
                "a path from the center never crosses some cut k <= R outward")
        g_tau = values[alpha[:, :-1].T + 1]       # (R, paths): V at tau_n
        exit_drop = drops[alpha[:, 1:]]            # (paths, R): k = 1..R

        sub = np.empty((len(measure), R))
        for n in range(1, R + 1):
            sub[:, n - 1] = np.ascontiguousarray(exit_drop[:, n - 1:]).sum(axis=1)
        checks.append(_witness("exit drops form a sub-sum (worst path, n)",
                               sub, g_tau.T))

        dominated = np.zeros(len(measure))
        for n, row in enumerate(_pow_each(g_tau, eta), start=1):
            dominated += float(n) ** r * row
        checks.append(_witness("step indices dominate radii (worst path)",
                               dominated, steps))

        ey = np.array([float(np.dot(probs, row))
                       for row in _pow_each(exit_drop.T, -r)])
        bounds = profile.b[1:R + 1]
        checks.append(_witness("exit moment <= cut conductance (worst n, k)",
                               ey, bounds))

        per_n = []
        rhs = 0.0
        for n in range(1, R + 1):
            tail = np.sum(profile.b[n:R + 1] ** (-1.0 / r)) ** eta
            moment = float(np.dot(probs, g_tau[n - 1] ** eta))
            term = params.c_hardy * float(n) ** r * tail
            rhs += term
            per_n.append({"n": n, "cut_tail": float(tail),
                          "exit_moment": moment, "term": term})
        checks.append(_witness("convexity step (worst n)",
                               [row["cut_tail"] for row in per_n],
                               [row["exit_moment"] for row in per_n]))
    else:
        per_n = []
        rhs = 0.0

    checks.append(_witness("cut-series lower bound for L", rhs, L))

    report = ChainReport(L=L, rhs=float(rhs), checks=checks, per_n=per_n)
    if not report.ok:
        raise VerificationError(
            "lower-bound chain failed at: " + ", ".join(report.failures))
    return report


@dataclass(frozen=True)
class BallAnalysis:
    """The lower-bound chain on one ball B_R, with its by-products.

    margins is flow_checks' dict; marginal_deviation is the largest
    |edge marginal of the path measure - edge flow| over retained edges;
    nash_williams is the check NW_R = sum_{k=0}^R b_k^(-1/r) <= g_R(o).
    """

    green: GreenFunction
    flow: UnitFlow
    measure: PathMeasure
    chain: ChainReport
    margins: dict
    marginal_deviation: float
    nash_williams: CheckRecord


def analyze_ball(graph: WeightedGraph, profile: BallProfile, R: int,
                 params: ExponentParams) -> BallAnalysis:
    """Solve g_R, orient its unit current, decompose it into paths and
    audit the lower-bound chain for L_R; then check the Nash-Williams cut
    bound g_R(o) >= NW_R = sum_{k=0}^R b_k^(-1/r), Holder's inequality for
    the unit current on each of the disjoint cuts k = 0..R.

    Raises what each step raises: SolverError from the solve,
    ConsistencyError from orientation or decomposition, VerificationError
    from the audit or the cut bound.
    """
    green = solve_green(graph, profile, R, params.p)
    flow = orient_flow(graph, profile, green)
    measure = decompose_paths(flow)
    chain = empirical_lower_bound(graph, profile, green, flow, measure, params)
    deviation = np.abs(edge_marginals(flow, measure) - flow.theta).max()
    nash_williams = _witness("Nash-Williams cut sum <= g_R(o)",
                             _cut_tails(profile.b, params.r, 0, R)[0],
                             green.values[graph.root])
    if not nash_williams.ok:
        raise VerificationError(
            f"Nash-Williams cut sum {nash_williams.lower!r} exceeds "
            f"g_R(o) = {nash_williams.upper!r} on B_{R}")
    return BallAnalysis(green=green, flow=flow, measure=measure, chain=chain,
                        margins=flow_checks(graph, profile, flow),
                        marginal_deviation=float(deviation),
                        nash_williams=nash_williams)
