"""Unit p-current of a Green function, path decomposition, and the
cut-conductance lower bound for L_R.

Orienting every edge of B_R from the larger Green value to the smaller one
turns the solved potential into an acyclic unit flow from the center to a
collapsed absorbing boundary vertex.  That flow decomposes into a
probability measure on center-to-boundary paths whose edge marginals equal
the edge flows.  Averaging a deterministic Hardy-type estimate along each
path, then pushing first-exit drops through a parallel-sum convexity step,
yields

    L_R >= c * sum_{n=1}^R n^r (sum_{k=n}^R b_k^(-1/r))^eta

entirely in terms of the ball profile's cut conductances b_k.  Every
intermediate inequality is checked numerically, not assumed.  analyze_ball
runs the whole chain on one ball: solve, orient, decompose, audit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, VerificationError
from .graphs import BallProfile, WeightedGraph
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

    graph: WeightedGraph
    R: int
    p: float
    center: int
    boundary_id: int
    tails: np.ndarray
    heads: np.ndarray
    theta: np.ndarray
    delta: np.ndarray
    conductance: np.ndarray
    residual: float
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
    if inner.size:
        uniq, start = np.unique(inner, return_index=True)
        merged = np.add.reduceat(bw_one, start)
    else:
        uniq = inner
        merged = bw_one

    boundary = graph.vertex_count
    tails = np.concatenate([tails, uniq])
    heads = np.concatenate([heads, np.full(uniq.shape, boundary, dtype=np.int64)])
    drops = np.concatenate([drops, g[uniq]])
    conds = np.concatenate([bw, merged])
    return tails, heads, drops, conds


def _assert_acyclic(tails: np.ndarray, heads: np.ndarray, n_ids: int) -> None:
    indegree = np.bincount(heads, minlength=n_ids)
    out_lists = [[] for _ in range(n_ids)]
    for i, t in enumerate(tails):
        out_lists[t].append(heads[i])
    stack = list(np.flatnonzero(indegree == 0))
    seen = 0
    while stack:
        x = stack.pop()
        seen += 1
        for h in out_lists[x]:
            indegree[h] -= 1
            if indegree[h] == 0:
                stack.append(h)
    if seen != n_ids:
        raise ConsistencyError(
            f"oriented flow contains a directed cycle "
            f"({n_ids - seen} vertices unresolved)")


def orient_flow(graph: WeightedGraph, profile: BallProfile,
                green: GreenFunction,
                zero_drop_threshold: float | None = None) -> UnitFlow:
    """Orient the p-current of a Green function into a unit flow.

    Vertices outside B_R collapse to a single absorbing boundary vertex
    (sentinel id = vertex_count).  Edges whose drop is at or below the
    threshold (default 1e-12 * max drop) are discarded.  Conservation,
    acyclicity, and the source/sink facts (nothing enters the center,
    nothing leaves the boundary) are checked; violations beyond
    100 * residual signal a bad solve and raise ConsistencyError.
    """
    R = green.R
    ball = profile.ball_mask(R)
    g = green.values.values
    tails, heads, drops, conds = _collapse_edges(graph, ball, g)

    if drops.size == 0:
        raise ConsistencyError("ball has no incident edges to orient")
    if zero_drop_threshold is None:
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
    net[green.center] -= 1.0
    net[boundary] += 1.0
    worst = float(np.abs(net).max())
    if worst > 100.0 * green.residual:
        raise ConsistencyError(
            f"flow conservation defect {worst:.3e} exceeds "
            f"100 * residual = {100.0 * green.residual:.3e}")
    if np.any(heads == green.center):
        raise ConsistencyError("a retained edge enters the center")
    if np.any(tails == boundary):
        raise ConsistencyError("a retained edge leaves the boundary")
    _assert_acyclic(tails, heads, boundary + 1)

    for arr in (tails, heads, drops, conds, theta):
        arr.setflags(write=False)
    return UnitFlow(graph=graph, R=R, p=green.p, center=green.center,
                    boundary_id=boundary, tails=tails, heads=heads,
                    theta=theta, delta=drops, conductance=conds,
                    residual=green.residual, conservation_defect=worst,
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
    cut_margin = np.empty(R + 1)
    for k in range(R + 1):
        crossing = (tail_rad == k) & (head_rad == k + 1)
        cut_margin[k] = profile.b[k] - flow.conductance[crossing].sum()

    boundary_tails_at_rim = bool(np.all(tail_rad[flow.heads == boundary] == R))
    return {
        "conservation_defect": flow.conservation_defect,
        "min_tail_slack": float(tail_slack.min()),
        "cut_margin": cut_margin,
        "boundary_tails_at_rim": boundary_tails_at_rim,
    }


@dataclass(frozen=True)
class PathMeasure:
    """Probability measure on center-to-boundary paths."""

    paths: list
    probabilities: np.ndarray
    center: int
    boundary_id: int

    def __len__(self) -> int:
        return len(self.paths)

    def items(self):
        return zip(self.paths, self.probabilities)


def decompose_paths(flow: UnitFlow) -> PathMeasure:
    """Greedy path decomposition of an acyclic unit flow.

    Repeatedly walks from the center choosing the outgoing edge with the
    largest residual flow (ties broken by smaller head id), extracts the
    path with probability equal to the minimum residual along it, and
    subtracts.  Each extraction zeroes at least one edge exactly, so at
    most edge_count paths come out.  Residual dust at or below
    CRUMB_FRACTION * max flow is dropped: a walk that reaches only dust
    zeroes the edge it came in on.
    """
    m = flow.edge_count
    if m == 0:
        raise ConsistencyError("flow has no retained edges to decompose")
    crumb_threshold = CRUMB_FRACTION * float(flow.theta.max())

    # tails are sorted, so out-edges of v occupy indptr[v]:indptr[v+1]
    indptr = np.searchsorted(flow.tails, np.arange(flow.boundary_id + 2))
    residual = flow.theta.copy()
    heads = flow.heads

    paths: list = []
    probs: list = []
    rounds = 0
    while True:
        rounds += 1
        if rounds > 2 * m + 4:
            raise ConsistencyError(
                "residual flow not exhausted after edge-count rounds")
        cur = flow.center
        edge_idx: list = []
        vertices = [cur]
        dead_end = False
        while cur != flow.boundary_id:
            lo, hi = indptr[cur], indptr[cur + 1]
            seg = residual[lo:hi]
            if hi == lo or seg.max() <= crumb_threshold:
                dead_end = True
                break
            pick = lo + int(np.argmax(seg))
            edge_idx.append(pick)
            cur = int(heads[pick])
            vertices.append(cur)
            if len(edge_idx) > m:
                raise ConsistencyError("walk exceeded edge count; flow not acyclic")
        if dead_end:
            if not edge_idx:
                break  # center exhausted: decomposition complete
            residual[edge_idx[-1]] = 0.0  # conservation says this is dust
            continue
        idx = np.asarray(edge_idx)
        prob = float(residual[idx].min())
        residual[idx] -= prob
        paths.append(tuple(vertices))
        probs.append(prob)
        if len(paths) > m:
            raise ConsistencyError(
                "residual flow not exhausted after edge-count rounds")

    probabilities = np.asarray(probs)
    probabilities.setflags(write=False)
    return PathMeasure(paths=paths, probabilities=probabilities,
                       center=flow.center, boundary_id=flow.boundary_id)


def edge_marginals(flow: UnitFlow, measure: PathMeasure) -> np.ndarray:
    """Per-edge mass sum_{paths through e} prob, aligned with flow arrays."""
    index = {(int(t), int(h)): i
             for i, (t, h) in enumerate(zip(flow.tails, flow.heads))}
    out = np.zeros(flow.edge_count)
    for path, prob in measure.items():
        for t, h in zip(path[:-1], path[1:]):
            out[index[(t, h)]] += prob
    return out


def path_hardy_check(values, params: ExponentParams):
    """Deterministic one-path estimate: (lhs, rhs) with lhs >= rhs.

    values are the Green values along a path, strictly decreasing, final
    entry >= 0 (zero at the boundary).  With drops d_i = V_i - V_{i+1},

        lhs = sum_{i=0}^{m-1} V_i^sigma / d_i^r
        rhs = c * sum_{j=1}^{m-1} j^r V_j^eta,   c = 2^-p (eta/r)^r.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size < 2:
        raise ValueError("need at least two values along the path")
    drops = -np.diff(v)
    if np.any(drops <= 0.0):
        raise ValueError("path values must be strictly decreasing")
    if v[-1] < 0.0:
        raise ValueError("final path value must be nonnegative")
    r, sigma, eta = params.r, params.sigma, params.eta
    lhs = float(np.sum(v[:-1] ** sigma / drops ** r))
    j = np.arange(1, v.size - 1, dtype=np.float64)
    rhs = params.c_hardy * float(np.sum(j ** r * v[1:-1] ** eta))
    return lhs, rhs


def parallel_sum(values, r: float) -> float:
    """(sum_k y_k^(-1/r))^(-r): increasing and concave in each argument."""
    y = np.asarray(values, dtype=np.float64)
    if y.size == 0:
        raise ValueError("parallel_sum needs at least one value")
    if np.any(y <= 0.0) or not np.all(np.isfinite(y)):
        raise ValueError("parallel_sum requires positive finite values")
    if r <= 0.0:
        raise ValueError("r must be positive")
    return float(np.sum(y ** (-1.0 / r)) ** (-r))


def _path_radii(path, profile: BallProfile, R: int, boundary_id: int) -> np.ndarray:
    rad = np.empty(len(path), dtype=np.int64)
    for i, v in enumerate(path):
        rad[i] = R + 1 if v == boundary_id else profile.radius_of[v]
    return rad


def first_exit_indices(path, profile: BallProfile, n: int, R: int,
                       boundary_id: int | None = None) -> np.ndarray:
    """Edge indices alpha_k, k = n..R: the first exit from B_k at or after
    the path's first visit to radius n.

    alpha_k is the first index i >= tau_n with radius(x_i) <= k <
    radius(x_{i+1}).  Since radii move by at most one per step the indices
    are distinct across k and each such edge crosses cut k outward.
    """
    if boundary_id is None:
        boundary_id = profile.graph.vertex_count
    if not 1 <= n <= R:
        raise ValueError(f"need 1 <= n <= R, got n={n}, R={R}")
    rad = _path_radii(path, profile, R, boundary_id)
    hits = np.flatnonzero(rad == n)
    if hits.size == 0:
        raise ValueError(f"path never reaches radius {n}")
    tau = int(hits[0])
    alphas = np.empty(R - n + 1, dtype=np.int64)
    for k in range(n, R + 1):
        found = -1
        for i in range(tau, len(path) - 1):
            if rad[i] <= k < rad[i + 1]:
                found = i
                break
        if found < 0:
            raise ConsistencyError(
                f"path reached radius {n} but never exits B_{k}")
        alphas[k - n] = found
    return alphas


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


def _record(checks: list, name: str, lower: float, upper: float) -> None:
    scale = max(1.0, abs(lower), abs(upper))
    checks.append(CheckRecord(name=name, lower=float(lower), upper=float(upper),
                              ok=lower <= upper + 1e-8 * scale))


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

    Raises VerificationError naming the first failing step.
    """
    if params.p != green.p:
        raise ValueError("params.p differs from the Green function's p")
    R, r, sigma, eta = green.R, params.r, params.sigma, params.eta
    g = green.values.values
    boundary = flow.boundary_id
    probs = measure.probabilities
    checks: list = []

    def value_at(vertex: int) -> float:
        return 0.0 if vertex == boundary else float(g[vertex])

    # per-path quantities
    path_values = []
    path_drops = []
    for path in measure.paths:
        vals = np.array([value_at(v) for v in path])
        path_values.append(vals)
        path_drops.append(-np.diff(vals))

    mass = np.array([np.sum(v[:-1] ** sigma / d ** r)
                     for v, d in zip(path_values, path_drops)])
    expected_mass = float(np.dot(probs, mass))
    L = compute_L(graph, profile, green, sigma)
    _record(checks, "path mass expectation <= L", expected_mass, L)

    edge_mass = float(np.sum(flow.theta * g[flow.tails] ** sigma
                             / flow.delta ** r))
    identity_gap = abs(expected_mass - edge_mass)
    _record(checks, "path mass identity (1e-9 relative)", identity_gap,
            1e-9 * max(1.0, abs(edge_mass)))

    hardy_worst = None
    for vals in path_values:
        lhs, rhs_h = path_hardy_check(vals, params)
        if hardy_worst is None or lhs - rhs_h < hardy_worst[0] - hardy_worst[1]:
            hardy_worst = (lhs, rhs_h)
    _record(checks, "one-path estimate (worst path)", hardy_worst[1],
            hardy_worst[0])

    # first exits, per starting radius n
    if R >= 1:
        n_range = range(1, R + 1)
        g_tau = np.empty((R, len(measure.paths)))
        drop_tail_ok_lower = None
        index_dom_worst = None
        exit_drop = {}
        for pi, path in enumerate(measure.paths):
            rad = _path_radii(path, profile, R, boundary)
            vals = path_values[pi]
            drops = path_drops[pi]
            dominated = 0.0
            for n in n_range:
                tau = int(np.flatnonzero(rad == n)[0])
                g_tau[n - 1, pi] = vals[tau]
                alphas = first_exit_indices(path, profile, n, R, boundary)
                sub = float(drops[alphas].sum())
                if (drop_tail_ok_lower is None
                        or vals[tau] - sub < drop_tail_ok_lower[1] - drop_tail_ok_lower[0]):
                    drop_tail_ok_lower = (sub, vals[tau])
                exit_drop[(n, pi)] = drops[alphas]
                dominated += float(n) ** r * vals[tau] ** eta
            j = np.arange(1, vals.size - 1, dtype=np.float64)
            steps = float(np.sum(j ** r * vals[1:-1] ** eta))
            if index_dom_worst is None or steps - dominated < index_dom_worst[1] - index_dom_worst[0]:
                index_dom_worst = (dominated, steps)
        _record(checks, "exit drops form a sub-sum (worst path, n)",
                drop_tail_ok_lower[0], drop_tail_ok_lower[1])
        _record(checks, "step indices dominate radii (worst path)",
                index_dom_worst[0], index_dom_worst[1])

        moment_worst = None
        for n in n_range:
            for k in range(n, R + 1):
                y = np.array([exit_drop[(n, pi)][k - n] ** (-r)
                              for pi in range(len(measure.paths))])
                ey = float(np.dot(probs, y))
                bound = float(profile.b[k])
                if moment_worst is None or bound - ey < moment_worst[1] - moment_worst[0]:
                    moment_worst = (ey, bound)
        _record(checks, "exit moment <= cut conductance (worst n, k)",
                moment_worst[0], moment_worst[1])

        per_n = []
        jensen_worst = None
        rhs = 0.0
        for n in n_range:
            tail = np.sum(profile.b[n:R + 1] ** (-1.0 / r)) ** eta
            moment = float(np.dot(probs, g_tau[n - 1] ** eta))
            if jensen_worst is None or moment - tail < jensen_worst[1] - jensen_worst[0]:
                jensen_worst = (tail, moment)
            term = params.c_hardy * float(n) ** r * tail
            rhs += term
            per_n.append({"n": n, "cut_tail": float(tail),
                          "exit_moment": moment, "term": term})
        _record(checks, "convexity step (worst n)", jensen_worst[0],
                jensen_worst[1])
    else:
        per_n = []
        rhs = 0.0

    _record(checks, "cut-series lower bound for L", rhs, L)

    report = ChainReport(L=L, rhs=float(rhs), checks=checks, per_n=per_n)
    if not report.ok:
        raise VerificationError(
            "lower-bound chain failed at: " + ", ".join(report.failures))
    return report


@dataclass(frozen=True)
class BallAnalysis:
    """The lower-bound chain on one ball B_R, with its by-products.

    margins is flow_checks' dict; marginal_deviation is the largest
    |edge marginal of the path measure - edge flow| over retained edges.
    """

    green: GreenFunction
    flow: UnitFlow
    measure: PathMeasure
    chain: ChainReport
    margins: dict
    marginal_deviation: float


def analyze_ball(graph: WeightedGraph, profile: BallProfile, R: int,
                 params: ExponentParams) -> BallAnalysis:
    """Solve g_R, orient its unit current, decompose it into paths and
    audit the lower-bound chain for L_R.

    Raises what each step raises: SolverError from the solve,
    ConsistencyError from orientation or decomposition, VerificationError
    from the audit.
    """
    green = solve_green(graph, profile, R, params.p)
    flow = orient_flow(graph, profile, green)
    measure = decompose_paths(flow)
    chain = empirical_lower_bound(graph, profile, green, flow, measure, params)
    deviation = np.abs(edge_marginals(flow, measure) - flow.theta).max()
    return BallAnalysis(green=green, flow=flow, measure=measure, chain=chain,
                        margins=flow_checks(graph, profile, flow),
                        marginal_deviation=float(deviation))
