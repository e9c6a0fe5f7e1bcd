"""Constrained minimization of discrete p-Dirichlet energies.

Solves  min_v  (1/p) sum_e w_e |v(x) - v(y)|^p  -  <source, v>
subject to v held at prescribed values outside a free vertex set.  The
Euler-Lagrange equations are the p-Laplace equations driven by `source`,
so the gradient of the objective at a free vertex x is exactly the local
equation defect  mu(x) * (-lap_p v)(x) - source(x).

Strategy: the |t|^p term is smoothed to (t^2 + eps^2)^(p/2), which keeps
the Hessian bounded (p < 2) and nondegenerate (p > 2).  A damped Newton
iteration runs through the fixed schedule EPS_SCHEDULE = (1e-2, 1e-6,
1e-10), warm started from the p = 2 solution (one exact Newton step of the
quadratic problem), and a final unsmoothed stage with a floored Hessian
coefficient polishes the iterate so the reported defect refers to the
exact phi_p operator.  For p = 2 the smoothed stages are skipped and only
the exact stage runs.  Each stage takes at most MAX_ITERATIONS steps; the
one setting a caller may change is the gradient target, SolveOptions.

Factorization rule: the Hessian's sparsity pattern is fixed for the whole
solve, so the first factorization (the warm start) runs `splu(H)` and keeps
its COLAMD column order, postordered.  Every later step factors H with its
columns already in that order and `permc_spec="NATURAL"`, and uses that
factor whatever pivots SuperLU picks.  Its threshold pivoting prefers the
diagonal (Demmel et al., SIAM J. Matrix Anal. Appl. 20(3), 1999), so when
every pivot is the original diagonal, the factors and the direction are
bit for bit those of `splu(H)`.  An exact diagonal/off-diagonal tie, as
at a vertex of degree 1 inside the ball, may pivot off the diagonal; the
direction then differs from `splu(H)`'s only by rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .graphs import WeightedGraph
from .operators import check_p

ARMIJO_SLOPE = 1e-4
MAX_BACKTRACKS = 60
# smoothing levels, run in order before the exact stage (p != 2 only)
EPS_SCHEDULE = (1e-2, 1e-6, 1e-10)
# Newton iteration cap per stage
MAX_ITERATIONS = 100


@dataclass(frozen=True)
class SolveOptions:
    """The one setting of the Newton continuation.

    grad_tol: per-stage gradient sup-norm target, scaled by
        max(1, max |source|).  A stage stops once the sup norm of its
        gradient is at or below it (or after MAX_ITERATIONS steps).
    """

    grad_tol: float = 1e-12


@dataclass
class StageReport:
    """One smoothing level of the continuation, with the fallbacks it took.

    shift_retries: singular Hessians refactored with a diagonal shift.
    steepest_descent_steps: steps along -grad, the Newton direction being
        non-finite or not a descent direction.
    stalled_line_searches: Armijo searches that found no step, which ends
        the stage.
    """

    eps: float          # 0.0 marks the exact stage
    iterations: int
    grad_inf: float
    shift_retries: int = 0
    steepest_descent_steps: int = 0
    stalled_line_searches: int = 0


@dataclass
class MinimizeReport:
    """warm_start_failed: the p = 2 warm-start Hessian was singular, so the
    stages started from the fixed values with zeros on the free set."""

    p: float
    stages: list = field(default_factory=list)
    grad_inf: float = np.inf
    energy: float = np.nan
    warm_start_failed: bool = False

    @property
    def total_iterations(self) -> int:
        return sum(s.iterations for s in self.stages)


class _Smoothing:
    """Edge energy density, its derivative phi, and second derivative."""

    def __init__(self, p: float, eps: float):
        self.p = p
        self.eps = eps

    def density(self, t):
        if self.eps == 0.0:
            return np.abs(t) ** self.p
        return (t * t + self.eps * self.eps) ** (self.p / 2.0)

    def phi(self, t):
        if self.eps == 0.0:
            return np.sign(t) * np.abs(t) ** (self.p - 1.0)
        return t * (t * t + self.eps * self.eps) ** ((self.p - 2.0) / 2.0)

    def second(self, t):
        p, eps = self.p, self.eps
        if eps == 0.0:
            # floor |t| so the coefficient stays positive and finite
            mags = np.abs(t)
            floor = 1e-12 + 1e-9 * (mags.max() if mags.size else 0.0)
            return (p - 1.0) * np.maximum(mags, floor) ** (p - 2.0)
        s = t * t + eps * eps
        return s ** ((p - 4.0) / 2.0) * ((p - 1.0) * t * t + eps * eps)


class _Problem:
    """The objective, gradient and Hessian of one constrained solve.

    The Hessian is a reweighted Laplacian of the free vertices, so its
    sparsity pattern is fixed for the whole solve; the constructor works it
    out once and every Newton step only fills `data`.

    - Gradient: one `np.bincount` over the tail terms and then the negated
      head terms, the additions `np.add.at` then `np.subtract.at` make, in
      the same order.
    - Hessian: only diagonal slots receive several terms (the graph is
      simple).  One `np.bincount` sums them in edge order, tail terms first
      and then head terms.  That is the order in which `tocsc()` sums the
      COO assembly (diagonal terms of the tails, then of the heads, then
      the two off-diagonal blocks) in any column of at most 16 COO entries,
      where scipy's in-column sort is stable.  Off-diagonal entries are
      placed directly.
    - Newton directions: see the factorization rule in the module
      docstring.  `_pattern` lays out H and, once the first `splu(H)` has
      fixed the column order, the column-permuted matrix that later steps
      factor; both are filled from the same terms in the same order.
    """

    def __init__(self, graph: WeightedGraph, free_mask: np.ndarray,
                 source: np.ndarray):
        self.free_ids = np.flatnonzero(free_mask)
        self.n_free = self.free_ids.size
        position = np.full(graph.vertex_count, -1, dtype=np.int64)
        position[self.free_ids] = np.arange(self.n_free)

        relevant = free_mask[graph.edge_tails] | free_mask[graph.edge_heads]
        self.eu = graph.edge_tails[relevant]
        self.ev = graph.edge_heads[relevant]
        self.ew = graph.edge_weights[relevant]
        self.pu = position[self.eu]
        self.pv = position[self.ev]
        self.u_free = self.pu >= 0
        self.v_free = self.pv >= 0
        self.source_free = source[self.free_ids]

        # diagonal terms in edge order: (edge, free position) per term
        tail_terms = np.flatnonzero(self.u_free)
        head_terms = np.flatnonzero(self.v_free)
        self._n_tail_terms = tail_terms.size
        self._term_edges = np.concatenate([tail_terms, head_terms])
        self._term_rows = np.concatenate([self.pu[tail_terms], self.pv[head_terms]])
        # off-diagonal entries: (pu, pv) of each edge inside, then (pv, pu)
        both = np.flatnonzero(self.u_free & self.v_free)
        self._off_edges = np.concatenate([both, both])
        self._indptr, self._indices, self._slots = self._pattern(
            np.arange(self.n_free))
        self._perm_c = None      # the first factorization's column order
        self._permuted = None    # H with column j moved to perm_c[j]
        self._permuted_slots = None

    def _pattern(self, perm_c: np.ndarray):
        """The CSC pattern of the Hessian's entries (the diagonal terms, then
        both off-diagonal blocks) with column j moved to perm_c[j]: indptr,
        indices and each entry's data slot."""
        n = self.n_free
        both = self._off_edges[:self._off_edges.size // 2]
        rows = np.concatenate([self._term_rows, self.pu[both], self.pv[both]])
        cols = perm_c[np.concatenate([self._term_rows, self.pv[both], self.pu[both]])]
        index_dtype = np.int32 if max(rows.size, n) <= np.iinfo(np.int32).max else np.int64
        by_slot = np.lexsort((rows, cols))
        row_of, col_of = rows[by_slot], cols[by_slot]
        first = np.ones(by_slot.size, dtype=bool)
        first[1:] = (row_of[1:] != row_of[:-1]) | (col_of[1:] != col_of[:-1])
        slots = np.empty(by_slot.size, dtype=np.int64)
        slots[by_slot] = np.cumsum(first) - 1
        indptr = np.zeros(n + 1, dtype=index_dtype)
        np.cumsum(np.bincount(col_of[first], minlength=n), out=indptr[1:])
        return indptr, row_of[first].astype(index_dtype), slots

    def objective(self, values: np.ndarray, sm: _Smoothing) -> float:
        drops = values[self.eu] - values[self.ev]
        return (float(np.dot(self.ew, sm.density(drops))) / sm.p
                - float(np.dot(self.source_free, values[self.free_ids])))

    def gradient(self, values: np.ndarray, sm: _Smoothing) -> np.ndarray:
        drops = values[self.eu] - values[self.ev]
        terms = (self.ew * sm.phi(drops))[self._term_edges]
        np.negative(terms[self._n_tail_terms:], out=terms[self._n_tail_terms:])
        grad = np.bincount(self._term_rows, weights=terms, minlength=self.n_free)
        return grad - self.source_free

    def _hessian_data(self, values: np.ndarray, sm: _Smoothing,
                      slots: np.ndarray) -> np.ndarray:
        drops = values[self.eu] - values[self.ev]
        coeff = self.ew * sm.second(drops)
        n_terms = self._term_edges.size
        data = np.bincount(slots[:n_terms], weights=coeff[self._term_edges],
                           minlength=self._indices.size)
        data[slots[n_terms:]] = -coeff[self._off_edges]
        return data

    def hessian(self, values: np.ndarray, sm: _Smoothing) -> sp.csc_matrix:
        data = self._hessian_data(values, sm, self._slots)
        hess = sp.csc_matrix((data, self._indices, self._indptr),
                             shape=(self.n_free, self.n_free))
        hess.has_canonical_format = True
        return hess

    def newton_direction(self, values: np.ndarray, sm: _Smoothing,
                         rhs: np.ndarray) -> np.ndarray:
        """Solve H x = rhs for the Hessian H at `values`; RuntimeError where
        the factorization finds H singular."""
        if self._permuted is None:
            lu = spla.splu(self.hessian(values, sm))
            # a copy: the view would keep this factor alive for the solve
            self._perm_c = lu.perm_c.copy()
            indptr, indices, self._permuted_slots = self._pattern(self._perm_c)
            self._permuted = sp.csc_matrix(
                (np.zeros(indices.size), indices, indptr),
                shape=(self.n_free, self.n_free))
            self._permuted.has_canonical_format = True
            return lu.solve(rhs)
        self._permuted.data = self._hessian_data(values, sm, self._permuted_slots)
        lu = spla.splu(self._permuted, permc_spec="NATURAL")
        return lu.solve(rhs)[self._perm_c]


def _newton_stage(problem: _Problem, values: np.ndarray, sm: _Smoothing,
                  grad_tol: float) -> StageReport:
    """Damped Newton on one smoothing level; mutates `values` in place."""
    report = StageReport(eps=sm.eps, iterations=0, grad_inf=0.0)
    grad = problem.gradient(values, sm)
    grad_inf = float(np.abs(grad).max()) if grad.size else 0.0
    fp_slack = 4.0 * np.finfo(np.float64).eps
    j0 = problem.objective(values, sm)

    while grad_inf > grad_tol and report.iterations < MAX_ITERATIONS:
        try:
            step = problem.newton_direction(values, sm, -grad)
        except RuntimeError:
            report.shift_retries += 1
            hess = problem.hessian(values, sm)
            shift = 1e-12 * float(hess.diagonal().max()) + 1e-300
            step = spla.splu(hess + shift * sp.identity(problem.n_free,
                                                        format="csc")).solve(-grad)
        slope = float(np.dot(grad, step))
        if not np.all(np.isfinite(step)) or slope >= 0.0:
            report.steepest_descent_steps += 1
            step = -grad
            slope = -float(np.dot(grad, grad))

        budget = fp_slack * max(1.0, abs(j0))
        t = 1.0
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            trial = values.copy()
            trial[problem.free_ids] += t * step
            j_trial = problem.objective(trial, sm)
            if j_trial <= j0 + ARMIJO_SLOPE * t * slope + budget:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            report.stalled_line_searches += 1
            break  # below floating-point resolution; stop the stage
        values[:] = trial
        j0 = j_trial
        report.iterations += 1
        grad = problem.gradient(values, sm)
        grad_inf = float(np.abs(grad).max()) if grad.size else 0.0

    report.grad_inf = grad_inf
    return report


def minimize_p_dirichlet(graph: WeightedGraph, free_mask, fixed_values,
                         source, p: float,
                         options: SolveOptions | None = None):
    """Minimize the constrained p-Dirichlet objective.

    Parameters
    ----------
    free_mask : boolean array; True where v may move.
    fixed_values : full-length array; used (exactly) outside the free set.
    source : full-length array; the linear term, read on the free set only.
    p : exponent, > 1.
    options : SolveOptions (its grad_tol); the default when None.

    The free values start at 0 and take one exact Newton step of the p = 2
    problem; then, for p != 2, one damped Newton stage per level of
    EPS_SCHEDULE, and for every p a final exact stage (eps = 0).

    Returns (values, MinimizeReport); `values` is a full-length array whose
    fixed entries equal fixed_values bit-for-bit.  The report's grad_inf is
    measured with the exact (unsmoothed) phi_p, so it equals the maximum
    Euler-Lagrange defect over the free set.
    """
    if options is None:
        options = SolveOptions()
    p = check_p(p)
    free_mask = np.asarray(free_mask, dtype=bool)
    if free_mask.shape != (graph.vertex_count,):
        raise ValueError("free_mask has wrong length")
    fixed_values = np.asarray(fixed_values, dtype=np.float64)
    source = np.asarray(source, dtype=np.float64)
    if fixed_values.shape != (graph.vertex_count,) or source.shape != (graph.vertex_count,):
        raise ValueError("fixed_values and source must be full-length arrays")

    values = fixed_values.copy()
    values[free_mask] = 0.0
    report = MinimizeReport(p=p)
    problem = _Problem(graph, free_mask, source)
    exact = _Smoothing(p, 0.0)

    if problem.n_free == 0:
        report.stages.append(StageReport(eps=0.0, iterations=0, grad_inf=0.0))
        report.grad_inf = 0.0
        report.energy = problem.objective(values, exact)
        return values, report

    scale = max(1.0, float(np.abs(problem.source_free).max()))
    grad_tol = options.grad_tol * scale

    # warm start: one exact Newton step on the p = 2 quadratic
    warm = _Smoothing(2.0, 0.0)
    grad2 = problem.gradient(values, warm)
    try:
        values[problem.free_ids] += problem.newton_direction(values, warm, -grad2)
    except RuntimeError:
        report.warm_start_failed = True  # the damped stages still converge

    schedule = EPS_SCHEDULE if p != 2.0 else ()
    for eps in (*schedule, 0.0):
        report.stages.append(_newton_stage(problem, values, _Smoothing(p, eps),
                                           grad_tol))

    final_grad = problem.gradient(values, exact)
    report.grad_inf = float(np.abs(final_grad).max())
    report.energy = problem.objective(values, exact)
    return values, report
