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

Factorization rule: every Newton direction is bit for bit the one
`splu(H).solve(rhs)` gives.  The Hessian's sparsity pattern is fixed for the
whole solve, so the first factorization (the warm start) runs `splu(H)` and
keeps its COLAMD column order, postordered.  Every later step factors the
Hessian with its columns already in that order and
`permc_spec="NATURAL"`.  SuperLU's threshold pivoting
prefers the diagonal (Demmel et al., SIAM J. Matrix Anal. Appl. 20(3),
1999), so when every pivot of that factor is the original diagonal, the
pivots `splu(H)` would choose are the same and so are the factors.  A factor
with a pivot off the diagonal (an exact diagonal/off-diagonal tie, as at a
vertex of degree 1 inside the ball) is discarded, and that step and the
rest of the solve call `splu(H)`.
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

    pivot_fallbacks: factors in the first factorization's column order
        discarded for a pivot off the diagonal (at most one per solve).
    shift_retries: singular Hessians refactored with a diagonal shift.
    steepest_descent_steps: steps along -grad, the Newton direction being
        non-finite or not a descent direction.
    stalled_line_searches: Armijo searches that found no step, which ends
        the stage.
    """

    eps: float          # 0.0 marks the exact stage
    iterations: int
    grad_inf: float
    pivot_fallbacks: int = 0
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
    out once and every Newton step only fills `data`.  The pattern and the
    order of every sum reproduce, bit for bit, the assembly as one COO
    matrix (diagonal terms of the edges' tails, then of their heads, then
    the two off-diagonal blocks) converted with `tocsc()`.  That matters:
    a last-bit change in g moves which of several exactly tied candidates
    the path audit reports and which path the decomposition takes, so the
    written outputs would change.

    - Gradient: one `np.bincount` over the tail terms and then the negated
      head terms, the additions `np.add.at` then `np.subtract.at` make, in
      the same order.
    - Hessian: only diagonal slots receive several terms (the graph is
      simple).  They are summed in the order in which `tocsc()` sums them:
      COO order after scipy's in-column index sort, which is not stable in
      columns of more than 16 entries, so the order is read off that sort
      once, here.  Off-diagonal entries are placed directly.
    - Newton directions: see the factorization rule in the module
      docstring.  The first `splu(H)` fixes `order`; the diagonal and
      off-diagonal slots are then remapped once into the pattern of
      `H[:, order]`, and each later step fills that matrix's `data`.
      Relabelling the slots keeps every sum's order.
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

        # diagonal terms in COO order: (edge, free position) per term
        tail_terms = np.flatnonzero(self.u_free)
        head_terms = np.flatnonzero(self.v_free)
        self._n_tail_terms = tail_terms.size
        self._term_edges = np.concatenate([tail_terms, head_terms])
        self._term_rows = np.concatenate([self.pu[tail_terms], self.pv[head_terms]])
        self._build_hessian_pattern()
        self._order = None       # the first factorization's column order
        self._reordered = None   # H[:, order], while its pivots hold
        self.pivot_fallbacks = 0

    def _build_hessian_pattern(self):
        both = np.flatnonzero(self.u_free & self.v_free)
        rows = np.concatenate([self._term_rows, self.pu[both], self.pv[both]])
        cols = np.concatenate([self._term_rows, self.pv[both], self.pu[both]])
        n, n_terms = self.n_free, self._term_rows.size
        index_dtype = np.int32 if max(rows.size, n) <= np.iinfo(np.int32).max else np.int64
        # what tocsc() does to the COO entries: a stable bucket by column,
        # then scipy's in-column sort; the data carry the COO entry numbers
        by_col = np.argsort(cols, kind="stable")
        indptr = np.zeros(n + 1, dtype=index_dtype)
        np.cumsum(np.bincount(cols, minlength=n), out=indptr[1:])
        sorted_entries = sp.csc_matrix(
            (by_col.astype(np.float64), rows[by_col].astype(index_dtype), indptr),
            shape=(n, n))
        sorted_entries.sort_indices()
        entry = sorted_entries.data.astype(np.int64)
        row_of, col_of = rows[entry], cols[entry]
        first = np.ones(entry.size, dtype=bool)
        first[1:] = (row_of[1:] != row_of[:-1]) | (col_of[1:] != col_of[:-1])
        slot = np.cumsum(first) - 1

        self._nnz = int(first.sum())
        self._indices = row_of[first].astype(index_dtype)
        self._indptr = np.zeros(n + 1, dtype=index_dtype)
        np.cumsum(np.bincount(col_of[first], minlength=n), out=self._indptr[1:])
        is_term = entry < n_terms
        self._diag_slots = slot[is_term]
        self._diag_edges = self._term_edges[entry[is_term]]
        self._off_slots = slot[~is_term]
        self._off_edges = np.concatenate([both, both])[entry[~is_term] - n_terms]

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
                      diag_slots: np.ndarray, off_slots: np.ndarray) -> np.ndarray:
        drops = values[self.eu] - values[self.ev]
        coeff = self.ew * sm.second(drops)
        data = np.bincount(diag_slots, weights=coeff[self._diag_edges],
                           minlength=self._nnz)
        data[off_slots] = -coeff[self._off_edges]
        return data

    def hessian(self, values: np.ndarray, sm: _Smoothing) -> sp.csc_matrix:
        data = self._hessian_data(values, sm, self._diag_slots, self._off_slots)
        hess = sp.csc_matrix((data, self._indices, self._indptr),
                             shape=(self.n_free, self.n_free))
        hess.has_canonical_format = True
        return hess

    def _reorder(self, perm_c: np.ndarray) -> None:
        """Fix the column order and the slots of H[:, order]."""
        order = np.argsort(perm_c)
        counts = np.diff(self._indptr)[order]
        indptr = np.zeros_like(self._indptr)
        np.cumsum(counts, out=indptr[1:])
        # slot k of the reordered matrix holds slot source[k] of H
        source = (np.repeat(self._indptr[order] - indptr[:-1], counts)
                  + np.arange(self._nnz, dtype=self._indptr.dtype))
        slot_of = np.empty(self._nnz, dtype=np.int64)
        slot_of[source] = np.arange(self._nnz)
        self._order = order
        self._reordered = sp.csc_matrix(
            (np.zeros(self._nnz), self._indices[source], indptr),
            shape=(self.n_free, self.n_free))
        self._reordered.has_canonical_format = True
        self._reordered_diag = slot_of[self._diag_slots]
        self._reordered_off = slot_of[self._off_slots]

    def newton_direction(self, values: np.ndarray, sm: _Smoothing,
                         rhs: np.ndarray) -> np.ndarray:
        """Solve H x = rhs for the Hessian H at `values`: bit for bit
        `splu(H).solve(rhs)`, and RuntimeError where `splu(H)` raises it."""
        if self._reordered is not None:
            self._reordered.data = self._hessian_data(
                values, sm, self._reordered_diag, self._reordered_off)
            try:
                lu = spla.splu(self._reordered, permc_spec="NATURAL")
                diagonal = np.array_equal(lu.perm_r[self._order],
                                          np.arange(self.n_free))
            except RuntimeError:
                diagonal = False
            if diagonal:
                step = np.empty_like(rhs)
                step[self._order] = lu.solve(rhs)
                return step
            self._reordered = None
            self.pivot_fallbacks += 1
        lu = spla.splu(self.hessian(values, sm))
        if self._order is None:
            self._reorder(lu.perm_c)
        return lu.solve(rhs)


def _newton_stage(problem: _Problem, values: np.ndarray, sm: _Smoothing,
                  grad_tol: float) -> StageReport:
    """Damped Newton on one smoothing level; mutates `values` in place."""
    report = StageReport(eps=sm.eps, iterations=0, grad_inf=0.0)
    fallbacks_before = problem.pivot_fallbacks
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
    report.pivot_fallbacks = problem.pivot_fallbacks - fallbacks_before
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
