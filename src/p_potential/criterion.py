"""Volume-growth and cut-conductance series, dyadic comparison, and a
finite-horizon divergence heuristic.

The nonexistence criterion rests on divergence of

    sum_n  n^(p*sigma/(p-1) - 1) / W_n^((sigma-p+1)/(p-1)),

where W_n is the weighted ball volume.  The route from the flow-path lower
bound to that series replaces W by the cumulative cut conductance M, groups
terms into dyadic blocks, and applies a Holder step on mid-range cuts; each
of those moves is implemented here with its constant computed explicitly.

No finite computation decides divergence, so classify() fits
t_n ~ c * n^(-beta) (log n)^(-gamma) and reports a three-way verdict with
declared margins, never a bare boolean.

Both growth fits here, classify()'s and extrapolate_cut_tail()'s, are
least-squares problems of one or two regressors and an intercept over at
most a few thousand points.  _least_squares solves them in closed form
(centring, then modified Gram-Schmidt) with dot products alone, so no
LAPACK routine is called: the first call of one (numpy's lstsq, which
polyfit calls too, or scipy's) maps close to a megabyte of its library
into the process, more than either fit needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import VerificationError
from .graphs import BallProfile
from .operators import ExponentParams

DIVERGES = "diverges"
CONVERGES = "converges"
INCONCLUSIVE = "inconclusive"

CLASSIFY_MARGIN = 0.05
MIN_HORIZON = 64

_TINY = np.finfo(np.float64).tiny


@dataclass(frozen=True)
class SeriesReport:
    """Series terms with partial sums and a heuristic verdict.

    fitted_exponents = (beta, gamma) from the regression
    log t_n ~ log c - beta log n - gamma log log n on the top half of the
    horizon; fit_error is the RMS regression residual.  All three are nan
    (JSON null) when that half holds under three terms or a 0.0 term: there
    is no fit.
    """

    terms: np.ndarray
    partial_sums: np.ndarray
    horizon: int
    classification: str
    fitted_exponents: tuple
    fit_error: float


def _power_quotient(n, g: float, w, e: float):
    """n^g / w^e, or exp(g ln n - e ln w) where a power over- or underflows
    it to a value not finite and nonzero: 0.0 and inf only past the doubles."""
    n = np.asarray(n, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        q = n ** g / w ** e
        return np.where(np.isfinite(q) & (q != 0.0), q,
                        np.exp(g * np.log(n) - e * np.log(w)))


def volume_series_terms(W, params: ExponentParams) -> np.ndarray:
    """t_n = n^(p*sigma/(p-1)-1) / W_n^(eta/r) for n = 1..len(W)-1.

    W is indexed by radius; W[0] is ignored (the series starts at n = 1).
    Through _power_quotient, a term reads 0.0 only where its true value is
    below the smallest double.
    """
    W = np.asarray(W, dtype=np.float64)
    if W.ndim != 1 or W.size < 2:
        raise ValueError("W must be a 1-D array with entries for n >= 1")
    body = W[1:]
    if np.any(body <= 0.0) or not np.all(np.isfinite(body)):
        raise ValueError("volumes W_n must be positive and finite for n >= 1")
    n = np.arange(1, W.size, dtype=np.float64)
    return _power_quotient(n, params.growth_exponent, body,
                           params.eta / params.r)


def _cut_tails(b: np.ndarray, r: float, lo: int, hi: int) -> np.ndarray:
    """sum_{k=n}^{hi} b_k^(-1/r) for n = lo..hi, from one reversed cumsum;
    +inf through a zero b_k or past the largest double."""
    with np.errstate(divide="ignore", over="ignore"):
        inv = b[lo:hi + 1] ** (-1.0 / r)
        return np.cumsum(inv[::-1])[::-1]


def cut_series_terms(b, params: ExponentParams, R: int) -> np.ndarray:
    """s_n = n^r * (sum_{k=n}^R b_k^(-1/r))^eta for n = 1..R.

    b is indexed by cut level k (b[k] separates B_k from its complement).
    An s_n reads +inf in two cases, returned rather than raised: a zero
    b_k at a level k >= n makes its inner sum infinite, which witnesses
    divergence; or a finite term lies past the largest double, which does
    not.  The result does not tell the two apart, but its input can: on a
    connected graph's profile every b_k with k <= R_max is positive (each
    vertex of sphere k + 1 has an edge of positive weight into sphere k),
    so there every +inf is an overflow.
    """
    b = np.asarray(b, dtype=np.float64)
    if R < 1:
        raise ValueError("R must be >= 1")
    if b.size < R + 1:
        raise ValueError(f"need cut conductances through level {R}, got {b.size}")
    if np.any(b[1:R + 1] < 0.0) or not np.all(np.isfinite(b[1:R + 1])):
        raise ValueError("cut conductances must be nonnegative and finite")
    n = np.arange(1, R + 1, dtype=np.float64)
    with np.errstate(over="ignore"):
        return n ** params.r * _cut_tails(b, params.r, 1, R) ** params.eta


def _least_squares(columns, y):
    """Least-squares fit of y by an intercept plus the given columns, as
    (coef, residual): coef[0] is the intercept, coef[j] the weight of
    columns[j - 1], and residual is y minus the fit.

    The columns and y are centred, which takes the intercept out of the
    problem; the centred columns are orthogonalized by modified
    Gram-Schmidt, with y carried along as one more column, so that what
    is left of y is the residual; the weights come from back substitution
    on the triangular factor, and the intercept from the means.  With
    y's column carried along, this is backward stable like a Householder
    QR solve (Bjorck, BIT 7, 1967), and it takes only dot products: no
    LAPACK routine is called, so none is loaded into the process.
    """
    y = np.asarray(y, dtype=np.float64)
    m = len(columns)
    means = np.array([column.mean() for column in columns])
    tri = np.zeros((m, m))
    projected = np.empty(m)
    basis = []
    centre = y.mean()
    residual = y - centre
    for j, column in enumerate(columns):
        v = column - means[j]
        for i, q in enumerate(basis):
            tri[i, j] = q @ v
            v = v - tri[i, j] * q
        tri[j, j] = np.sqrt(v @ v)
        q = v / tri[j, j]
        basis.append(q)
        projected[j] = q @ residual
        residual = residual - projected[j] * q
    weights = np.empty(m)
    for j in range(m - 1, -1, -1):
        weights[j] = (projected[j] - tri[j, j + 1:] @ weights[j + 1:]) / tri[j, j]
    return np.concatenate(([centre - means @ weights], weights)), residual


@dataclass(frozen=True)
class TailEstimate:
    """Extrapolated continuation of sum_{k>R} b_k^(-1/r).

    model is "geometric" (log b linear in k) or "power" (log b linear in
    log k), whichever fits the last quarter of the data better; extra is
    the estimated remainder, +inf when the fitted growth is too slow for
    the tail to converge (null in JSON: no finite remainder).
    """

    model: str
    slope: float
    extra: float
    fit_error: float


def extrapolate_cut_tail(b, params: ExponentParams, R: int) -> TailEstimate:
    """Fit the tail growth of b on the last quarter of levels 1..R and
    estimate the truncated remainder of the inner sums.

    Each model is a line through the points (k, log b_k) or
    (log k, log b_k), fitted by _least_squares, with no LAPACK call; the
    model with the smaller sum of squared residuals is kept.
    """
    b = np.asarray(b, dtype=np.float64)
    if R < 4 or b.size < R + 1:
        raise ValueError("need at least levels 1..4 to extrapolate")
    if np.any(b[1:R + 1] <= 0.0):
        return TailEstimate(model="degenerate", slope=0.0, extra=np.inf,
                            fit_error=np.nan)
    k0 = max(1, R - max(3, R // 4))
    ks = np.arange(k0, R + 1, dtype=np.float64)
    logs = np.log(b[k0:R + 1])

    geo, geo_residual = _least_squares([ks], logs)
    geo_sse = float(np.sum(geo_residual ** 2))
    pow_, pow_residual = _least_squares([np.log(ks)], logs)
    pow_sse = float(np.sum(pow_residual ** 2))

    r = params.r
    if geo_sse <= pow_sse:
        slope = float(geo[1])
        ratio = np.exp(-slope / r)
        if slope <= 0.0 or ratio >= 1.0:  # flat to fp precision: no decay
            extra = np.inf
        else:
            first = np.exp(-(geo[0] + slope * (R + 1.0)) / r)
            extra = float(first / (1.0 - ratio))
        return TailEstimate(model="geometric", slope=slope, extra=extra,
                            fit_error=np.sqrt(geo_sse / ks.size))
    slope = float(pow_[1])
    if slope / r <= 1.0:
        extra = np.inf
    else:
        amp = np.exp(-pow_[0] / r)
        extra = float(amp * (R + 0.5) ** (1.0 - slope / r) / (slope / r - 1.0))
    return TailEstimate(model="power", slope=slope, extra=extra,
                        fit_error=np.sqrt(pow_sse / ks.size))


def exponent_identity(params: ExponentParams):
    """Both sides of p*sigma/(p-1) - 1 = r + eta + eta/r."""
    lhs = params.p * params.sigma / (params.p - 1.0) - 1.0
    rhs = params.r + params.eta + params.eta / params.r
    return lhs, rhs


def cut_volume_check(profile: BallProfile) -> float:
    """min over N of W_N - M_N; every cut edge has an endpoint inside B_N,
    so the cumulative cut conductance never exceeds the ball volume."""
    upto = profile.b.size  # M_N defined for N = 0..eccentricity-1
    return float(np.min(profile.W[:upto] - profile.M))


@dataclass(frozen=True)
class DyadicReport:
    """Dyadic block sums against the closed-form comparison D_N.

    For each dyadic N: block_sum = sum_{n=N}^{2N-1} n^pow / M_n^(eta/r)
    and D = N^(pow+1) / M_N^(eta/r); the bound block_sum <= c_theory * D
    holds for nondecreasing M with c_theory = 2^pow.  Where a side is not a
    normal double, ratio is the same quotient with nothing to under- or
    overflow: (1/N) sum_n (n/N)^pow / (M_n/M_N)^(eta/r).
    """

    N: np.ndarray
    D: np.ndarray
    block_sum: np.ndarray
    ratio: np.ndarray
    c_theory: float


def dyadic_blocks(M, params: ExponentParams) -> DyadicReport:
    """Evaluate D_N = N^(r+eta+eta/r+1) / M_N^(eta/r) over dyadic N and
    verify the block comparison empirically.

    M is indexed by n (M[0] ignored) and must be positive and
    nondecreasing for n >= 1.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 1 or M.size < 2:
        raise ValueError("M must be a 1-D array with entries for n >= 1")
    body = M[1:]
    if np.any(body <= 0.0) or not np.all(np.isfinite(body)):
        raise ValueError("M_n must be positive and finite for n >= 1")
    if np.any(np.diff(body) < 0.0):
        raise ValueError("M must be nondecreasing")

    pow_ = params.growth_exponent
    exp_m = params.eta / params.r
    N = 2 ** np.arange((M.size // 2).bit_length(), dtype=np.int64)
    D = _power_quotient(N, pow_ + 1.0, M[N], exp_m)
    # the blocks [N, 2N) tile n = 1..2 N_last - 1
    n = np.arange(1, 2 * N[-1])
    N_of = np.repeat(N, N)
    block = np.add.reduceat(volume_series_terms(M, params)[:n.size], N - 1)
    scaled = np.add.reduceat(_power_quotient(
        n / N_of, pow_, M[n] / M[N_of], exp_m), N - 1) / N
    normal = (np.minimum(D, block) >= _TINY) & (np.maximum(D, block) < np.inf)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = np.where(normal, block / D, scaled)
    with np.errstate(over="ignore"):
        c_theory = np.float64(2.0) ** pow_  # inf past the doubles
    if np.any(ratio > c_theory * (1.0 + 1e-12)):
        raise VerificationError(
            f"dyadic block bound violated: max ratio {ratio.max():.6g} "
            f"exceeds 2^pow = {c_theory:.6g}")
    return DyadicReport(N=N, D=D, block_sum=block, ratio=ratio,
                        c_theory=c_theory)


@dataclass(frozen=True)
class MidrangeRow:
    m: int
    lhs: float
    rhs: float
    ratio: float


def midrange_cut_bound(profile: BallProfile, params: ExponentParams,
                       N: int) -> list:
    """Holder lower bound on mid-range inner sums.

    For m in [N/2, 3N/4], applying Holder with exponents r+1 and (r+1)/r
    to the N-m+1 cuts between levels m and N gives

        sum_{k=m}^N b_k^(-1/r)  >=  (N-m+1)^(1+1/r) / M_N^(1/r),

    i.e. the constant is c_m = ((N-m+1)/N)^(1+1/r) in front of
    N^(1+1/r)/M_N^(1/r).  Returns one row per m with the measured ratio.
    Where a side is not a normal double, ratio is the same quotient with
    nothing to under- or overflow first:
    sum_k (M_N/b_k)^(1/r) / (N-m+1)^(1+1/r).
    """
    if N < 4:
        raise ValueError("N must be >= 4")
    if N > profile.R_max:
        raise ValueError(f"N = {N} exceeds R_max = {profile.R_max}")
    r = params.r
    m = np.arange(int(np.ceil(N / 2.0)), int(np.floor(3.0 * N / 4.0)) + 1)
    M_N = profile.M[N]
    lhs = _cut_tails(profile.b, r, int(m[0]), N)[:m.size]
    rhs = _power_quotient(N - m + 1.0, 1.0 + 1.0 / r, M_N, 1.0 / r)
    rows = []
    for m_i, lhs_i, rhs_i in zip(m.tolist(), lhs.tolist(), rhs.tolist()):
        if min(lhs_i, rhs_i) >= _TINY and max(lhs_i, rhs_i) < np.inf:
            ratio = lhs_i / rhs_i
        else:  # a side left the normal doubles
            ratio = float(np.sum(_power_quotient(
                M_N / profile.b[m_i:N + 1], 1.0 / r, N - m_i + 1.0,
                1.0 + 1.0 / r)))
        rows.append(MidrangeRow(m=m_i, lhs=lhs_i, rhs=rhs_i, ratio=ratio))
    return rows


def classify(terms) -> SeriesReport:
    """Fit t_n ~ c * n^(-beta) (log n)^(-gamma) and call the series.

    The horizon is len(terms); the regression of log t_n on log n and
    log log n runs on its top half, solved by _least_squares with no
    LAPACK call.
    With margin = CLASSIFY_MARGIN = 0.05 the verdict is: diverges when
    beta < 1 - margin, or beta is within margin of 1 and
    gamma <= 1 - margin; converges when beta > 1 + margin, or beta is
    within margin of 1 and gamma >= 1 + margin; otherwise inconclusive.
    Horizons below MIN_HORIZON = 64 are always inconclusive: the window is
    too short to separate log corrections from the power.  So are a
    one-term series and a window holding a 0.0 term (one below the smallest
    double): neither has a fit.  Terms must be finite and >= 0.
    """
    terms = np.asarray(terms, dtype=np.float64)
    if terms.ndim != 1 or terms.size < 1:
        raise ValueError("need at least one term")
    horizon = terms.size
    if np.any(terms < 0.0) or not np.all(np.isfinite(terms)):
        raise ValueError("terms must be nonnegative and finite")
    partial = np.cumsum(terms)

    lo = max(2, horizon // 2)
    n = np.arange(lo, horizon + 1, dtype=np.float64)
    window = terms[lo - 1:]
    if n.size >= 3 and window.all():
        coef, residual = _least_squares([-np.log(n), -np.log(np.log(n))],
                                        np.log(window))
        beta, gamma = float(coef[1]), float(coef[2])
        fit_error = float(np.sqrt(np.mean(residual ** 2)))
    else:
        beta, gamma, fit_error = np.nan, np.nan, np.nan

    margin = CLASSIFY_MARGIN
    if horizon < MIN_HORIZON or not np.isfinite(beta):
        verdict = INCONCLUSIVE
    elif beta < 1.0 - margin or (abs(beta - 1.0) <= margin
                                 and gamma <= 1.0 - margin):
        verdict = DIVERGES
    elif beta > 1.0 + margin or (abs(beta - 1.0) <= margin
                                 and gamma >= 1.0 + margin):
        verdict = CONVERGES
    else:
        verdict = INCONCLUSIVE

    terms = terms.copy()
    terms.setflags(write=False)
    partial.setflags(write=False)
    return SeriesReport(terms=terms, partial_sums=partial, horizon=int(horizon),
                        classification=verdict,
                        fitted_exponents=(beta, gamma), fit_error=fit_error)
