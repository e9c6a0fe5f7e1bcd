"""Exponent bookkeeping, the nonlinearity, and the discrete operators."""

import csv
import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p_potential import (
    ExponentParams,
    as_values,
    build_lattice,
    build_tree,
    ball_profile,
    p_energy,
    p_laplacian_all,
    phi_p,
    save_vertex_function,
    solve_green,
    WeightedGraph,
)
from p_potential.operators import (_vertex_function_bytes,
                                  supersolution_shortfall)
from _lemmas import defect_tolerance
from test_graphs import SUM_GRAPHS


# ---------------------------------------------------------------------------
# exponent parameters


def test_exponent_params_p2_sigma3():
    params = ExponentParams(p=2, sigma=3)
    assert params.r == 1.0
    assert params.eta == 2.0
    assert params.c_hardy == 0.5
    assert params.growth_exponent == 5.0


def test_exponent_params_p3_sigma4():
    params = ExponentParams(p=3, sigma=4)
    assert params.r == 2.0
    assert params.eta == 2.0
    assert params.c_hardy == 0.125
    assert params.growth_exponent == 5.0


def test_exponent_params_fractional():
    params = ExponentParams(p=1.5, sigma=3)
    assert params.r == 0.5
    assert params.eta == 2.5
    assert params.c_hardy == pytest.approx(np.sqrt(5.0 / 8.0), rel=1e-15)
    assert params.growth_exponent == pytest.approx(8.0, rel=1e-15)


def test_growth_exponent_identity_random():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        p = float(rng.uniform(1.01, 5.0))
        sigma = float(rng.uniform(p - 1.0 + 1e-6, 8.0))
        params = ExponentParams(p=p, sigma=sigma)
        lhs = params.growth_exponent
        rhs = params.r + params.eta + params.eta / params.r
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


# sigma = 0.25000000000000006 exceeds p - 1 = 0.25, yet sigma - p + 1
# rounds to 0
@pytest.mark.parametrize("p, sigma", [(1.0, 2.0), (0.5, 2.0), (2.0, 1.0),
                                      (2.0, 0.99), (np.nan, 2.0), (2.0, np.inf),
                                      (1.25, 0.25000000000000006)])
def test_exponent_params_validation(p, sigma):
    with pytest.raises(ValueError):
        ExponentParams(p=p, sigma=sigma)


# ---------------------------------------------------------------------------
# phi_p


def test_phi_p_values():
    assert phi_p(0.5, 1.5) == pytest.approx(np.sqrt(0.5), rel=1e-15)
    assert phi_p(-2.0, 3.0) == -4.0
    assert phi_p(0.0, 1.5) == 0.0
    assert phi_p(1.0, 2.7) == 1.0


def test_phi_p_is_odd_and_homogeneous():
    rng = np.random.default_rng(0)
    t = rng.normal(size=50)
    for p in (1.5, 2.0, 3.0, 4.2):
        np.testing.assert_allclose(phi_p(-t, p), -phi_p(t, p), atol=1e-14)
        np.testing.assert_allclose(phi_p(2.0 * t, p),
                                   2.0 ** (p - 1.0) * phi_p(t, p), rtol=1e-13)


def test_phi_p_rejects_p_at_most_one():
    with pytest.raises(ValueError):
        phi_p(1.0, 1.0)
    with pytest.raises(ValueError):
        phi_p(1.0, 0.5)


# ---------------------------------------------------------------------------
# vertex functions


def test_as_values_coercion():
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    out = as_values([1, 2, 3], g)
    assert out.dtype == np.float64
    assert out.tolist() == [1.0, 2.0, 3.0]
    assert as_values(out, g) is out
    for bad in ([1, 2], [[1, 2, 3]], [1.0, np.nan, 3.0], [1.0, 2.0, -np.inf]):
        with pytest.raises(ValueError):
            as_values(bad, g)


# ---------------------------------------------------------------------------
# operators on tiny graphs


def test_vertex_function_csv_is_the_csv_writer_bytes(tmp_path):
    # the bytes csv.writer (excel dialect, \r\n rows) wrote, kept as the reference
    g = build_tree(2, 3)
    rng = np.random.default_rng(5)
    values = rng.standard_normal(g.vertex_count) * 10.0 ** rng.integers(-300, 300, g.vertex_count)
    values[:4] = [0.0, -0.0, 1 / 3, 5e-324]
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["vertex", "value"])
    for i, v in enumerate(values):
        writer.writerow([i, repr(float(v))])
    path = tmp_path / "f.csv"
    save_vertex_function(values, path)
    assert path.read_bytes() == buf.getvalue().encode("utf-8")


def _csv_by_f_strings(values) -> bytes:
    """save_vertex_function's bytes as the f-string writer made them
    (reference)."""
    rows = "".join(f"{i},{v!r}\r\n" for i, v in enumerate(values.tolist()))
    return ("vertex,value\r\n" + rows).encode("utf-8")


# any float64 bit pattern, and the values whose text is special (two more
# nan bit patterns, which repr writes as nan too)
_ANY_DOUBLES = st.one_of(
    st.integers(0, 2 ** 64 - 1).map(
        lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]),
    st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf"),
                     5e-324, -5e-324, 2.2250738585072009e-308, 1e16, 1e-5,
                     *np.array([0xFFF8000000000000, 0x7FF0000000000001],
                               dtype=np.uint64).view(np.float64).tolist()]))


@settings(max_examples=300, deadline=None)
@given(values=st.lists(_ANY_DOUBLES, min_size=1, max_size=300))
def test_vertex_function_bytes_are_the_f_string_writer_bytes(values):
    values = np.array(values, dtype=np.float64)
    assert _vertex_function_bytes(values) == _csv_by_f_strings(values)


def test_p_laplacian_single_edge():
    g = WeightedGraph(2, [(0, 1, 1.0)])
    f = [0.0, 2.0]
    assert p_laplacian_all(g, f, 3.0)[0] == 4.0
    assert p_laplacian_all(g, f, 3.0)[1] == -4.0


def test_p_laplacian_weight_and_measure_cancel():
    # single edge: the measure at each endpoint equals the edge weight,
    # so the weight cancels and only the drop matters
    g = WeightedGraph(2, [(0, 1, 0.25)])
    assert p_laplacian_all(g, [0.0, 3.0], 3.0)[0] == 9.0


def test_p2_laplacian_matches_dense_oracle():
    g = build_lattice(2, 2)
    rng = np.random.default_rng(3)
    f = rng.normal(size=g.vertex_count)
    # independent dense assembly straight from the edge list
    n = g.vertex_count
    A = np.zeros((n, n))
    for u, v, w in g.edges:
        A[u, v] += w
        A[v, u] += w
    mu = A.sum(axis=1)
    expected = (A @ f - mu * f) / mu
    np.testing.assert_allclose(p_laplacian_all(g, f, 2.0), expected,
                               rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("make", SUM_GRAPHS)
def test_p_laplacian_sums_are_the_bincounts(make, p):
    """np.add.at sums each vertex's currents in the order np.bincount does,
    bit for bit (reference)."""
    g = make()
    f = np.random.default_rng(5).uniform(-2.0, 2.0, size=g.vertex_count)
    tails, heads, n = g.edge_tails, g.edge_heads, g.vertex_count
    currents = g.edge_weights * phi_p(f[tails] - f[heads], p)
    want = (np.bincount(heads, weights=currents, minlength=n)
            - np.bincount(tails, weights=currents, minlength=n)) / g.vertex_measure
    assert p_laplacian_all(g, f, p).tobytes() == want.tobytes()


def dirichlet_pairing(graph, f, psi, p: float) -> float:
    """sum over edges of w * phi_p(f(u) - f(v)) * (psi(u) - psi(v)): the
    Dirichlet pairing, the summation-by-parts oracle for p_laplacian_all
    and green_normalization_check."""
    f, psi = np.asarray(f, dtype=np.float64), np.asarray(psi, dtype=np.float64)
    tails, heads = graph.edge_tails, graph.edge_heads
    return float(np.dot(graph.edge_weights * phi_p(f[tails] - f[heads], p),
                        psi[tails] - psi[heads]))


def test_pairing_with_self_is_energy():
    g = build_tree(2, 3)
    rng = np.random.default_rng(5)
    f = rng.normal(size=g.vertex_count)
    for p in (1.5, 2.0, 3.0):
        assert dirichlet_pairing(g, f, f, p) == pytest.approx(
            p_energy(g, f, p), rel=1e-12)


def test_pairing_is_integration_by_parts():
    # sum_x psi(x) mu(x) (-lap_p f)(x) telescopes to the edge pairing
    g = build_tree(2, 3)
    rng = np.random.default_rng(11)
    f = rng.normal(size=g.vertex_count)
    psi = rng.normal(size=g.vertex_count)
    for p in (1.5, 2.0, 3.0):
        lhs = dirichlet_pairing(g, f, psi, p)
        rhs = float(np.dot(psi, g.vertex_measure * (-p_laplacian_all(g, f, p))))
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)


def test_p_energy_explicit():
    g = WeightedGraph(3, [(0, 1, 2.0), (1, 2, 0.5)])
    #  drops 1 and 2: energy = 2*1^3 + 0.5*2^3 = 6
    assert p_energy(g, [1.0, 0.0, -2.0], 3.0) == pytest.approx(6.0, rel=1e-14)


# ---------------------------------------------------------------------------
# supersolution bookkeeping


def test_defect_tolerance_scales_with_sup():
    assert defect_tolerance(1.0, 2.0) == 1e-10
    assert defect_tolerance(10.0, 2.0) == pytest.approx(1e-9)
    assert defect_tolerance(10.0, 3.0) == pytest.approx(1e-8)
    assert defect_tolerance(0.1, 3.0) == 1e-10  # never below base


def test_supersolution_defect_matches_direct_formula():
    """supersolution_shortfall, the defect as a fraction of u^sigma, is
    (u^sigma + lap_p u + 1e-10 (u^sigma + (1/mu) sum_y w |du|^r)) / u^sigma,
    summed here over each vertex's neighbors, and inf where u^sigma is 0."""
    g = build_lattice(1, 4)
    rng = np.random.default_rng(2)
    u = rng.uniform(0.1, 2.0, size=g.vertex_count)
    params = ExponentParams(p=2.5, sigma=3.0)
    lap = p_laplacian_all(g, u, 2.5)
    direct = np.empty(g.vertex_count)
    for x in range(g.vertex_count):
        # x's edges, in canonical order: its smaller neighbours, then its larger
        at = (g.edge_tails == x) | (g.edge_heads == x)
        ys = np.where(g.edge_tails[at] == x, g.edge_heads[at], g.edge_tails[at])
        ws = g.edge_weights[at]
        charge = 1e-10 * np.sum(ws * np.abs(u[ys] - u[x]) ** 1.5) \
            / g.vertex_measure[x]
        direct[x] = (u[x] ** 3.0 + lap[x] + 1e-10 * u[x] ** 3.0 + charge) \
            / u[x] ** 3.0
    interior = np.zeros(g.vertex_count, dtype=bool)
    interior[[0, 1, 2]] = True
    np.testing.assert_allclose(
        supersolution_shortfall(g, u, params, interior=interior), direct[:3],
        rtol=1e-13)
    np.testing.assert_allclose(supersolution_shortfall(g, u, params), direct,
                               rtol=1e-13)
    u[4] = 0.0
    assert supersolution_shortfall(g, u, params)[4] == np.inf
    with pytest.raises(ValueError, match="nonnegative"):
        supersolution_shortfall(g, u - 5.0, params)


@pytest.mark.parametrize("graph", [build_lattice(2, 8), build_tree(2, 6)],
                         ids=["lattice", "tree"])
@pytest.mark.parametrize("p, sigma", [(1.5, 2.0), (2.0, 3.0), (3.0, 4.7)])
def test_shortfall_on_a_ball_is_bitwise_the_whole_graphs(graph, p, sigma):
    """On B_R the shortfall sums over the edges at B_R alone, yet each ball
    vertex gets bitwise the value it has when every edge is summed."""
    prof = ball_profile(graph)
    u = np.random.default_rng(5).uniform(0.1, 2.0, size=graph.vertex_count)
    params = ExponentParams(p=p, sigma=sigma)
    whole = supersolution_shortfall(graph, u, params)
    for R in (0, 1, 3, 5):
        ball = prof.ball_mask(R)
        assert supersolution_shortfall(graph, u, params, ball).tobytes() \
            == whole[ball].tobytes()


@pytest.mark.parametrize("interior", [
    [0, 1, 2],                                   # vertex ids
    np.array([0, 1, 2]),
    np.ones(8, dtype=bool),                      # one entry short
    np.ones(10, dtype=bool),                     # one entry too many
    np.ones(9, dtype=np.int64),                  # 0/1 integers
], ids=["id-list", "id-array", "short-mask", "long-mask", "integer-mask"])
def test_supersolution_defect_takes_only_a_boolean_mask(interior):
    g = build_lattice(1, 4)  # 9 vertices
    params = ExponentParams(p=2.5, sigma=3.0)
    with pytest.raises(ValueError, match="interior must be a boolean mask"):
        supersolution_shortfall(g, np.ones(g.vertex_count), params,
                                interior=interior)


def test_green_function_is_superharmonic_inside_only():
    g = build_lattice(1, 4)
    prof = ball_profile(g)
    green = solve_green(g, prof, 2, 2.0)
    neg_lap = -p_laplacian_all(g, green.values, 2.0)
    tol = defect_tolerance(np.abs(green.values).max(), 2.0)
    inside = prof.ball_mask(2)
    assert neg_lap[inside].min() >= -tol
    # outside B_2 the first zero layer has a positive inner neighbor
    worst = int(np.argmin(neg_lap))
    assert neg_lap[worst] < -tol
    assert prof.radius_of[worst] == 3
