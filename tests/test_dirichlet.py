"""Direct checks of the Dirichlet energy minimizer."""

import sys

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from p_potential import (
    SolveOptions,
    WeightedGraph,
    ball_profile,
    build_lattice,
    build_radial_model,
    build_tree,
    minimize_p_dirichlet,
    p_laplacian_all,
)
from p_potential.dirichlet import _Problem, _Smoothing


def _linear_oracle(graph, ball, center):
    """Independent p = 2 solution: assemble the weighted Laplacian from the
    edge list and solve the reduced system directly."""
    n = graph.vertex_count
    rows, cols, vals = [], [], []
    for u, v, w in graph.edges:
        rows += [u, v, u, v]
        cols += [u, v, v, u]
        vals += [w, w, -w, -w]
    lap = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    ids = np.flatnonzero(ball)
    rhs = np.zeros(ids.size)
    rhs[np.searchsorted(ids, center)] = 1.0
    sol = spla.spsolve(lap[np.ix_(ids, ids)].tocsc(), rhs)
    full = np.zeros(n)
    full[ids] = sol
    return full


def test_p2_solution_matches_linear_oracle():
    graph = build_lattice(2, 3)
    prof = ball_profile(graph)
    ball = prof.ball_mask(2)
    source = np.zeros(graph.vertex_count)
    source[graph.root] = 1.0
    values, report = minimize_p_dirichlet(graph, ball,
                                          np.zeros(graph.vertex_count),
                                          source, 2.0, SolveOptions())
    expected = _linear_oracle(graph, ball, graph.root)
    np.testing.assert_allclose(values, expected, atol=1e-12)
    assert report.total_iterations == 0  # quadratic case: one exact solve
    assert report.grad_inf < 1e-12


def test_fixed_values_pass_through_untouched():
    graph = build_tree(2, 3)
    prof = ball_profile(graph)
    ball = prof.ball_mask(2)
    fixed = np.where(prof.radius_of == 0, 1.0, 0.0)
    free = ball & (prof.radius_of > 0)
    values, _ = minimize_p_dirichlet(graph, free, fixed,
                                     np.zeros(graph.vertex_count), 3.0,
                                     SolveOptions())
    assert values[graph.root] == 1.0
    assert np.all(values[~ball & (prof.radius_of > 0)] == 0.0)
    assert np.all((values[free] > 0.0) & (values[free] < 1.0))


def test_gradient_report_agrees_with_operator():
    # the reported defect is exactly mu * (-lap_p v) - source on the free set
    graph = build_lattice(1, 4)
    prof = ball_profile(graph)
    ball = prof.ball_mask(3)
    source = np.zeros(graph.vertex_count)
    source[graph.root] = 1.0
    values, report = minimize_p_dirichlet(graph, ball,
                                          np.zeros(graph.vertex_count),
                                          source, 3.0, SolveOptions())
    defect = (graph.vertex_measure * (-p_laplacian_all(graph, values, 3.0))
              - source)
    assert np.abs(defect[ball]).max() == pytest.approx(report.grad_inf,
                                                       abs=1e-15)
    assert report.grad_inf <= 1e-9


def test_stage_schedule_is_respected():
    graph = build_lattice(1, 3)
    ball = ball_profile(graph).ball_mask(2)
    source = np.zeros(graph.vertex_count)
    source[0] = 1.0
    _, report = minimize_p_dirichlet(graph, ball, np.zeros(graph.vertex_count),
                                     source, 2.5, SolveOptions())
    assert [st.eps for st in report.stages] == [1e-2, 1e-6, 1e-10, 0.0]

    _, report = minimize_p_dirichlet(graph, ball, np.zeros(graph.vertex_count),
                                     source, 2.0, SolveOptions())
    assert [st.eps for st in report.stages] == [0.0]


def test_energy_beats_zero_function():
    # v = 0 is feasible with objective 0, so the minimum is negative
    graph = build_lattice(2, 2)
    ball = ball_profile(graph).ball_mask(1)
    source = np.zeros(graph.vertex_count)
    source[0] = 1.0
    for p in (1.5, 2.0, 3.0):
        _, report = minimize_p_dirichlet(graph, ball,
                                         np.zeros(graph.vertex_count),
                                         source, p, SolveOptions())
        assert report.energy < 0.0


# ---------------------------------------------------------------------------
# Newton assembly against the COO / np.add.at assembly it replaced


def _hessian_by_coo(problem, values, sm):
    """The Hessian as one COO matrix converted with tocsc(), kept as the
    reference for the fixed-pattern assembly."""
    drops = values[problem.eu] - values[problem.ev]
    coeff = problem.ew * sm.second(drops)
    rows, cols, vals = [], [], []
    uf, vf = problem.u_free, problem.v_free
    both = uf & vf
    rows.append(problem.pu[uf]); cols.append(problem.pu[uf]); vals.append(coeff[uf])
    rows.append(problem.pv[vf]); cols.append(problem.pv[vf]); vals.append(coeff[vf])
    rows.append(problem.pu[both]); cols.append(problem.pv[both]); vals.append(-coeff[both])
    rows.append(problem.pv[both]); cols.append(problem.pu[both]); vals.append(-coeff[both])
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(problem.n_free, problem.n_free)).tocsc()


def _hessian_by_add_at(problem, values, sm):
    """The Hessian with its diagonal summed by np.add.at in edge order, tail
    terms first and then head terms (reference)."""
    drops = values[problem.eu] - values[problem.ev]
    coeff = problem.ew * sm.second(drops)
    uf, vf = problem.u_free, problem.v_free
    both = uf & vf
    diag = np.zeros(problem.n_free)
    np.add.at(diag, problem.pu[uf], coeff[uf])
    np.add.at(diag, problem.pv[vf], coeff[vf])
    ids = np.arange(problem.n_free)
    rows = np.concatenate([ids, problem.pu[both], problem.pv[both]])
    cols = np.concatenate([ids, problem.pv[both], problem.pu[both]])
    vals = np.concatenate([diag, -coeff[both], -coeff[both]])
    return sp.coo_matrix((vals, (rows, cols)),
                         shape=(problem.n_free, problem.n_free)).tocsc()


def _gradient_by_add_at(problem, values, sm):
    """The gradient scattered with np.add.at / np.subtract.at (reference)."""
    drops = values[problem.eu] - values[problem.ev]
    flux = problem.ew * sm.phi(drops)
    grad = np.zeros(problem.n_free)
    np.add.at(grad, problem.pu[problem.u_free], flux[problem.u_free])
    np.subtract.at(grad, problem.pv[problem.v_free], flux[problem.v_free])
    return grad - problem.source_free


# (graph, R); the radial models give the root 12 and 40 children, so its
# Hessian column holds 24 and 80 COO entries, past the 16 up to which
# tocsc()'s in-column sort is stable and sums them in COO order
EDGE_ORDER_ONLY = ("radial", "radial-fan")
ASSEMBLY_BALLS = {
    "lattice1": (lambda: build_lattice(1, 8), 6),
    "lattice2": (lambda: build_lattice(2, 6), 4),
    "lattice3": (lambda: build_lattice(3, 4), 3),
    "tree": (lambda: build_tree(2, 6), 4),
    "radial": (lambda: build_radial_model([1, 12, 24, 24], [1.0, 1 / 3, 2.5]), 2),
    "radial-fan": (lambda: build_radial_model([1, 40, 40], [0.7, 1.3]), 1),
}


def _assembly_iterates(name, p):
    """(problem, values) at the warm start (all free values 0), at the
    converged Green iterate and at a seeded random iterate, for the ball
    and for the ball without its center."""
    make, R = ASSEMBLY_BALLS[name]
    graph = make()
    ball = ball_profile(graph).ball_mask(R)
    n = graph.vertex_count
    source = np.zeros(n)
    source[graph.root] = 1.0
    converged, _ = minimize_p_dirichlet(graph, ball, np.zeros(n), source, p)
    rng = np.random.default_rng(7)
    shaken = np.where(ball, rng.uniform(0.0, 1.0, n), 0.0)
    rimless = ball.copy()
    rimless[graph.root] = False
    root_at_one = np.where(ball & ~rimless, 1.0, 0.0)
    for free, start in ((ball, np.zeros(n)), (rimless, root_at_one)):
        problem = _Problem(graph, free, source)
        for values in (start, converged, shaken):
            yield problem, values


@pytest.mark.parametrize("name", list(ASSEMBLY_BALLS))
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_assembly_is_bitwise_the_coo_assembly(name, p):
    # bitwise the COO assembly wherever tocsc() sums in edge order, and the
    # edge-order sums everywhere
    for problem, values in _assembly_iterates(name, p):
        for eps in (1e-2, 1e-6, 1e-10, 0.0):
            sm = _Smoothing(p, eps)
            coo = _hessian_by_coo(problem, values, sm)
            hess = problem.hessian(values, sm)
            if name in EDGE_ORDER_ONLY:
                ref = _hessian_by_add_at(problem, values, sm)
                # two orders of a sum of k positive terms: (k - 1) eps apart
                k = np.bincount(problem._term_rows).max()
                np.testing.assert_allclose(hess.toarray(), coo.toarray(),
                                           rtol=(k - 1) * np.finfo(np.float64).eps,
                                           atol=0.0)
            else:
                ref = coo
            assert hess.format == "csc" and hess.shape == ref.shape
            for attr in ("indptr", "indices", "data"):
                got, want = getattr(hess, attr), getattr(ref, attr)
                assert got.dtype == want.dtype, attr
                assert got.tobytes() == want.tobytes(), attr
            grad = problem.gradient(values, sm)
            assert grad.tobytes() == _gradient_by_add_at(problem, values, sm).tobytes()


# ---------------------------------------------------------------------------
# Newton directions in the first factorization's column order against splu(H)


def _pendant_lattice():
    """lattice(2, 5) with a vertex of degree 1 hung on each vertex of
    radius <= 2, so the ball of radius 3 holds 13 pendant vertices."""
    base = build_lattice(2, 5)
    near = np.flatnonzero(ball_profile(base).radius_of <= 2)
    n = base.vertex_count
    pendants = [(int(x), n + j, 1.0 + 0.25 * j) for j, x in enumerate(near)]
    return WeightedGraph(n + near.size, base.edges + pendants, root=base.root)


DIRECTION_BALLS = {**ASSEMBLY_BALLS, "pendant": (_pendant_lattice, 3)}


def _direction_problem(name):
    """(graph, ball, _Problem) for the Green solve on DIRECTION_BALLS[name]."""
    make, R = DIRECTION_BALLS[name]
    graph = make()
    ball = ball_profile(graph).ball_mask(R)
    n = graph.vertex_count
    source = np.zeros(n)
    source[graph.root] = 1.0
    return graph, ball, _Problem(graph, ball, source)


@pytest.mark.parametrize("name", list(DIRECTION_BALLS))
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_newton_direction_is_bitwise_splu(name, p, monkeypatch):
    graph, ball, problem = _direction_problem(name)
    n = graph.vertex_count
    splu = spla.splu
    factored = []

    def recording_splu(matrix, permc_spec="COLAMD"):
        factored.append((matrix, permc_spec))
        return splu(matrix, permc_spec=permc_spec)

    monkeypatch.setattr(spla, "splu", recording_splu)
    rng = np.random.default_rng(11)
    iterates = [np.zeros(n)] + [np.where(ball, rng.uniform(0.0, 1.0, n), 0.0)
                                for _ in range(4)]
    smoothings = [_Smoothing(2.0, 0.0)] + [_Smoothing(p, eps)
                                           for eps in (1e-2, 1e-10, 0.0)]
    for values in iterates:
        for sm in smoothings:
            rhs = -problem.gradient(values, sm)
            hess = problem.hessian(values, sm)
            want = splu(hess).solve(rhs)
            got = problem.newton_direction(values, sm, rhs)
            assert got.dtype == want.dtype
            if name == "pendant":
                # exact ties between a pendant's diagonal and its one
                # off-diagonal may pivot off the diagonal: two backward
                # stable solves, apart by rounding times the condition
                bound = (problem.n_free * np.finfo(np.float64).eps
                         * np.linalg.cond(hess.toarray()))
                assert (np.linalg.norm(got - want)
                        <= bound * np.linalg.norm(want))
            else:
                assert got.tobytes() == want.tobytes()
    # every step after the first factored the permuted matrix
    assert factored[0][1] == "COLAMD"
    assert all(matrix is problem._permuted and spec == "NATURAL"
               for matrix, spec in factored[1:])
    assert len(factored) == len(iterates) * len(smoothings)


def test_no_factor_outlives_its_newton_step(monkeypatch):
    # A SuperLU object takes no weak reference, so count references: a
    # factor that nothing but `factors` holds has the count of a fresh one
    # held the same way.  A stored `lu.perm_c` would hold its factor, since
    # the view's base is the SuperLU object.
    splu = spla.splu
    factors = []

    def recording_splu(matrix, permc_spec="COLAMD"):
        factors.append(splu(matrix, permc_spec=permc_spec))
        return factors[-1]

    monkeypatch.setattr(spla, "splu", recording_splu)
    fresh = [splu(sp.identity(2, format="csc"))]
    superlu = type(fresh[0])

    def held_elsewhere():
        return [k for k in range(len(factors))
                if sys.getrefcount(factors[k]) != sys.getrefcount(fresh[0])]

    def bases(value):
        arrays = [value]
        if sp.issparse(value):
            arrays = [value.data, value.indices, value.indptr]
        for array in arrays:
            while isinstance(array, np.ndarray):
                array = array.base
                yield array

    graph, ball, problem = _direction_problem("pendant")
    rng = np.random.default_rng(5)
    for p in (2.0, 1.5, 3.0):
        values = np.where(ball, rng.uniform(0.0, 1.0, graph.vertex_count), 0.0)
        sm = _Smoothing(p, 1e-6)
        problem.newton_direction(values, sm, -problem.gradient(values, sm))
        assert held_elsewhere() == []
        assert not any(isinstance(base, superlu) for value in vars(problem).values()
                       for base in bases(value))
    assert len(factors) == 3

    factors.clear()
    source = np.zeros(graph.vertex_count)
    source[graph.root] = 1.0
    _, report = minimize_p_dirichlet(graph, ball, np.zeros(graph.vertex_count),
                                     source, 1.5)
    assert len(factors) == report.total_iterations + 1
    assert held_elsewhere() == []



def _pattern_by_lexsort(problem, perm_c):
    """The Hessian's CSC pattern with column j moved to perm_c[j], by a
    lexsort of the (row, column) pairs and a flag on each pair's first
    entry (reference)."""
    n = problem.n_free
    both = problem._both
    rows = np.concatenate([problem._term_rows, problem.pu[both], problem.pv[both]])
    cols = perm_c[np.concatenate([problem._term_rows, problem.pv[both], problem.pu[both]])]
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


def _assert_same_pattern(problem, perm_c):
    for got, want in zip(problem._pattern(perm_c), _pattern_by_lexsort(problem, perm_c)):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def _perm_cs(n, seed):
    """The identity order and a random int32 order, SuperLU's perm_c dtype."""
    rng = np.random.default_rng(seed)
    return np.arange(n), rng.permutation(n).astype(np.int32)


@pytest.mark.parametrize("name", list(DIRECTION_BALLS))
def test_pattern_is_the_lexsort_pattern(name):
    _, _, problem = _direction_problem(name)
    for perm_c in _perm_cs(problem.n_free, 3):
        _assert_same_pattern(problem, perm_c)


def test_pattern_of_an_empty_free_set():
    graph = build_lattice(2, 3)
    problem = _Problem(graph, np.zeros(graph.vertex_count, bool),
                       np.zeros(graph.vertex_count))
    assert problem.n_free == 0 and problem._indptr.tolist() == [0]
    _assert_same_pattern(problem, np.arange(0))


def test_pattern_past_the_int32_keys():
    # 47,125 unknowns: col * n + row passes 2**31 - 1, so keys formed in
    # SuperLU's int32 would wrap
    graph = build_lattice(2, 160)
    ball = ball_profile(graph).ball_mask(153)
    source = np.zeros(graph.vertex_count)
    source[graph.root] = 1.0
    problem = _Problem(graph, ball, source)
    assert problem.n_free == 47_125
    assert (problem.n_free - 1) * problem.n_free > np.iinfo(np.int32).max
    for perm_c in _perm_cs(problem.n_free, 4):
        _assert_same_pattern(problem, perm_c)


def test_fallback_counts():
    graph = build_lattice(2, 6)
    ball = ball_profile(graph).ball_mask(4)
    source = np.zeros(graph.vertex_count)
    source[graph.root] = 1.0
    _, report = minimize_p_dirichlet(graph, ball, np.zeros(graph.vertex_count),
                                     source, 1.5)
    assert not report.warm_start_failed
    assert all((st.shift_retries, st.steepest_descent_steps,
                st.stalled_line_searches) == (0, 0, 0) for st in report.stages)

    graph = _pendant_lattice()
    ball = ball_profile(graph).ball_mask(3)
    source = np.zeros(graph.vertex_count)
    source[graph.root] = 1.0
    _, report = minimize_p_dirichlet(graph, ball, np.zeros(graph.vertex_count),
                                     source, 1.5)
    assert report.grad_inf <= 1e-9

    # nothing held fixed: the Hessians are Laplacians, singular, so the
    # warm start fails and the first step needs a diagonal shift
    graph = build_lattice(1, 2)
    source = np.zeros(graph.vertex_count)
    source[[0, -1]] = 1.0, -1.0
    _, report = minimize_p_dirichlet(graph, np.ones(graph.vertex_count, bool),
                                     np.zeros(graph.vertex_count), source, 3.0)
    assert report.warm_start_failed
    assert report.stages[0].shift_retries == 1
