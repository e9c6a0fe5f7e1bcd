"""Graph construction, radial profiles, generators, and (de)serialization."""

import fractions
import gc
import io
import itertools
import json
import struct
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse import csgraph
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import p_potential.graphs as graphs_module
from p_potential import (
    BallProfile,
    GraphFormatError,
    GraphValidationError,
    ResourceLimitError,
    WeightedGraph,
    ball_profile,
    build_lattice,
    build_radial_model,
    build_tree,
    load_graph,
    save_graph,
)
from test_verify import _traced_peak


# ---------------------------------------------------------------------------
# constructor and validation


def test_edges_are_canonicalized():
    g = WeightedGraph(3, [(2, 1, 0.5), (1, 0, 2.0)])
    assert g.edges == [(0, 1, 2.0), (1, 2, 0.5)]
    assert g.edge_count == 2


def test_vertex_measure_is_weighted_degree():
    g = WeightedGraph(3, [(0, 1, 2.0), (1, 2, 0.5)])
    assert g.vertex_measure.tolist() == [2.0, 2.5, 0.5]


def test_graph_holds_its_edges_once_and_the_hop_radii():
    g = WeightedGraph(4, [(2, 3, 2.0), (0, 2, 3.0), (1, 0, 1.0)])
    assert g.edge_tails.tolist() == [0, 0, 2]
    assert g.edge_heads.tolist() == [1, 2, 3]
    assert g.edge_weights.tolist() == [1.0, 3.0, 2.0]
    assert g.radius_of.dtype == np.int64
    assert g.radius_of.tolist() == [0, 1, 1, 2]
    assert WeightedGraph(4, g.edges, root=3).radius_of.tolist() == [2, 3, 1, 0]
    assert not hasattr(g, "adjacency") and not hasattr(g, "neighbors")


def test_graph_is_immutable():
    g = WeightedGraph(2, [(0, 1, 1.0)])
    with pytest.raises(AttributeError):
        g.root = 1
    with pytest.raises(ValueError):
        g.edge_weights[0] = 2.0


def test_graph_measure_and_radii_are_read_only():
    g = build_lattice(2, 2)
    for arr in (g.vertex_measure, g.radius_of):
        with pytest.raises(ValueError):
            arr[0] = 5


@pytest.mark.parametrize("bad", [
    dict(vertex_count=1, edges=[(0, 0, 1.0)]),
    dict(vertex_count=2, edges=[]),
    dict(vertex_count=2, edges=[(0, 0, 1.0)]),          # self loop
    dict(vertex_count=2, edges=[(0, 1, 0.0)]),          # zero weight
    dict(vertex_count=2, edges=[(0, 1, -1.0)]),
    dict(vertex_count=2, edges=[(0, 1, np.inf)]),
    dict(vertex_count=2, edges=[(0, 1, np.nan)]),
    dict(vertex_count=2, edges=[(0, 2, 1.0)]),          # endpoint range
    dict(vertex_count=2, edges=[(0, 1, 1.0), (1, 0, 2.0)]),  # duplicate
    dict(vertex_count=4, edges=[(0, 1, 1.0), (2, 3, 1.0)]),  # disconnected
    dict(vertex_count=2, edges=[(0, 1, 1.0)], root=5),
    dict(vertex_count=3, edges=[(0.7, 1, 1.0), (1, 2.9, 2.0)]),  # float endpoints
    dict(vertex_count=2, edges=[(np.float64(0), 1, 1.0)]),
    dict(vertex_count=2, edges=[(0, 1, True)]),          # bool weight
    dict(vertex_count=2, edges=[(False, True, 1.0)]),    # bool endpoints
    dict(vertex_count=2, edges=[(0, 1, "1.0")]),         # string weight
    dict(vertex_count=2, edges=[(0, 1)]),                # short edge
    dict(vertex_count=2, edges=[(0, 1, 1.0, 2.0)]),      # long edge
    dict(vertex_count=2, edges=[(0, 2 ** 70, 1.0)]),     # beyond int64
    dict(vertex_count=2, edges=[(0, 1, 10 ** 400)]),     # beyond float64
    dict(vertex_count=2, edges=[(0, 1, 1.0)], root=True),
])
def test_constructor_rejects_bad_input(bad):
    with pytest.raises(GraphValidationError):
        WeightedGraph(bad["vertex_count"], bad["edges"], root=bad.get("root", 0))


@pytest.mark.parametrize("edges, message", [
    ([(0, 1, 1.0), (1, 2, 0.0), (0, 5, 1.0)],
     "edge 1: weight must be finite and > 0, got 0.0"),
    ([(0, 1, 1.0), (1, 2, 1.0), (2, 2, 1.0), (0.5, 1, 1.0)], "edge 2: self loop at 2"),
    ([(0, 1, 1.0), (0.5, 1, 1.0), (2, 2, 1.0)],
     "edge 1: endpoints must be integers, got (0.5, 1)"),
    ([(0, 1, 1.0), (1, 2, True)], "edge 1: weight must be an int or a float, got True"),
    ([(0, 1, 1.0), (1, 3, 1.0)], "edge 1: endpoint outside 0..2: (1, 3)"),
    ([(0, 1, 1.0), (1, 2)], "edge 1: expected (u, v, weight)"),
])
def test_constructor_names_the_first_bad_edge(edges, message):
    with pytest.raises(GraphValidationError) as info:
        WeightedGraph(3, edges)
    assert str(info.value) == message


@pytest.mark.parametrize("vertex_count, edges, message", [
    (3, [(0, 1, 1.7e308), (1, 2, 1.7e308)],
     "vertex 1: measure (sum of incident weights) is not finite"),
    (4, [(0, 1, 1.0), (1, 3, 1.7e308), (2, 3, 1.7e308), (0, 2, 1.7e308)],
     "vertex 2: measure (sum of incident weights) is not finite"),
    (2, [(0, 1, 1.7976931348623157e308)],
     "total measure (sum of the vertex measures) overflows"),
    (4, [(0, 1, 8e307), (1, 2, 1.0), (2, 3, 8e307)],
     "total measure (sum of the vertex measures) overflows"),
])
def test_constructor_rejects_a_measure_that_overflows(vertex_count, edges, message):
    # every weight is finite and > 0, but a vertex measure or W_n is not
    with pytest.raises(GraphValidationError) as info:
        WeightedGraph(vertex_count, edges)
    assert str(info.value) == message
    columns = [np.array(column) for column in zip(*edges)]
    with pytest.raises(GraphValidationError) as info:
        WeightedGraph._from_columns(vertex_count, *columns)
    assert str(info.value) == message


def test_constructor_keeps_a_total_measure_that_fits():
    g = WeightedGraph(3, [(0, 1, 4e307), (1, 2, 4e307)])
    assert g.vertex_measure.tolist() == [4e307, 8e307, 4e307]
    assert ball_profile(g).W.tolist() == [4e307, 1.2e308, 1.6e308]


def test_constructor_accepts_numpy_integers_and_floats():
    g = WeightedGraph(np.int64(3), [(np.int64(2), np.int32(1), np.float64(0.5)),
                                    (np.uint8(1), 0, 2)], root=np.int64(1))
    assert g.edges == [(0, 1, 2.0), (1, 2, 0.5)]
    assert g.root == 1


def test_validation_errors_are_value_errors():
    # callers that only know ValueError still catch format/validation issues
    assert issubclass(GraphValidationError, ValueError)
    assert issubclass(GraphFormatError, ValueError)


# ---------------------------------------------------------------------------
# generators against hand counts


def test_path_lattice_profile():
    # seven-vertex path: the root has measure 2, each sphere adds two
    # vertices of measure 2 except the endpoints of measure 1
    g = build_lattice(1, 3)
    assert g.vertex_count == 7
    assert g.edge_count == 6
    prof = ball_profile(g)
    assert prof.eccentricity == 3
    assert prof.R_max == 2
    assert prof.W.tolist() == [2.0, 6.0, 10.0, 12.0]
    assert prof.b.tolist() == [2.0, 2.0, 2.0]
    assert prof.M.tolist() == [2.0, 4.0, 6.0]


def test_square_lattice_counts():
    g = build_lattice(2, 1)
    assert g.vertex_count == 9
    assert g.edge_count == 12
    prof = ball_profile(g)
    assert prof.W.tolist() == [4.0, 16.0, 24.0]
    assert prof.b.tolist() == [4.0, 8.0]
    assert prof.M.tolist() == [4.0, 12.0]


def test_cubic_lattice_counts():
    g = build_lattice(3, 1)
    assert g.vertex_count == 27
    assert g.edge_count == 54
    assert ball_profile(g).W[0] == 6.0


def test_lattice_ids_are_radial():
    g = build_lattice(2, 3)
    rad = ball_profile(g).radius_of
    assert rad[0] == 0
    assert np.all(np.diff(rad) >= 0)  # ids sorted by radius first


def test_binary_tree_profile():
    g = build_tree(2, 3)
    assert g.vertex_count == 15
    assert g.edge_count == 14
    prof = ball_profile(g)
    assert prof.W.tolist() == [2.0, 8.0, 20.0, 28.0]
    assert prof.b.tolist() == [2.0, 4.0, 8.0]
    assert prof.M.tolist() == [2.0, 6.0, 14.0]
    # breadth-first ids: sphere k is a contiguous id block of size 2^k
    for k in range(4):
        assert np.flatnonzero(prof.radius_of == k).tolist() == \
            list(range(2 ** k - 1, 2 ** (k + 1) - 1))


def test_ternary_tree_count():
    assert build_tree(3, 2).vertex_count == 13


def test_radial_model_layout():
    g = build_radial_model([1, 2, 2], [1.0, 0.5])
    assert g.vertex_count == 5
    assert g.edges == [(0, 1, 1.0), (0, 2, 1.0), (1, 3, 0.5), (2, 4, 0.5)]
    prof = ball_profile(g)
    assert prof.radius_of.tolist() == [0, 1, 1, 2, 2]
    assert prof.b.tolist() == [2.0, 1.0]
    assert prof.W.tolist() == [2.0, 5.0, 6.0]


@pytest.mark.parametrize("sizes, weights", [
    ([2, 2], [1.0]),          # first sphere must be the root alone
    ([1, 2, 1], [1.0, 1.0]),  # shrinking spheres
    ([1, 2], [1.0, 1.0]),     # weight count mismatch
    ([1, 2], [-1.0]),
    ([1], []),
])
def test_radial_model_rejects_bad_shape(sizes, weights):
    with pytest.raises(ValueError):
        build_radial_model(sizes, weights)


@pytest.mark.parametrize("sizes, weights, message", [
    ([1, 2.7, 4], [1, 1], r"sphere_sizes\[1\] must be an integer"),
    (["1", "2"], ["1.0"], r"sphere_sizes\[0\] must be an integer"),
    ([1, 2], ["1.0"], r"edge_weight_profile\[0\] must be a number"),
    # an int past the doubles is an infinite weight, not an OverflowError
    ([1, 2], [10 ** 400],
     r"edge_weight_profile\[0\] must be finite and > 0, got inf"),
], ids=["truncated-size", "parsed-sizes", "parsed-weight",
        "overflowing-weight"])
def test_radial_model_neither_truncates_nor_parses(sizes, weights, message):
    with pytest.raises(ValueError, match=message):
        build_radial_model(sizes, weights)


@pytest.mark.parametrize("factory, args", [
    (build_lattice, (5, 2)),
    (build_lattice, (2, 0)),
    (build_tree, (1, 3)),
    (build_tree, (2, 0)),
])
def test_generator_parameter_validation(factory, args):
    with pytest.raises(ValueError):
        factory(*args)


@pytest.mark.parametrize("call, message", [
    (lambda: build_lattice(True, 2), "dimension"),
    (lambda: build_lattice(2, True), "half_side"),
    (lambda: build_tree(2, True), "depth"),
    (lambda: build_radial_model([1, 2], [True]),
     r"edge_weight_profile\[0\] must be a number"),
    (lambda: ball_profile(build_lattice(1, 3)).ball_mask(True),
     "radius must be a nonnegative integer"),
], ids=["lattice-dimension", "lattice-half-side", "tree-depth",
        "radial-weight", "ball-mask"])
def test_no_bool_counts_as_an_integer(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_vertex_budget_env(monkeypatch):
    monkeypatch.setenv("P_POTENTIAL_MAX_VERTICES", "100")
    with pytest.raises(ResourceLimitError):
        build_lattice(2, 10)
    build_lattice(1, 40)  # 81 vertices still fits
    monkeypatch.setenv("P_POTENTIAL_MAX_VERTICES", "banana")
    with pytest.raises(ResourceLimitError):
        build_lattice(1, 2)
    monkeypatch.setenv("P_POTENTIAL_MAX_VERTICES", "-3")
    with pytest.raises(ResourceLimitError):
        build_lattice(1, 2)


# ---------------------------------------------------------------------------
# profiles


def test_ball_mask_and_radius_validation():
    prof = ball_profile(build_lattice(1, 3))
    assert prof.ball_mask(0).sum() == 1
    assert prof.ball_mask(2).sum() == 5
    with pytest.raises(ValueError):
        prof.ball_mask(3)  # R_max is 2: B_3 has empty exterior
    with pytest.raises(ValueError):
        prof.ball_mask(-1)


def test_profile_arrays_read_only():
    prof = ball_profile(build_tree(2, 2))
    for arr in (prof.W, prof.b, prof.M, prof.radius_of):
        with pytest.raises(ValueError):
            arr[0] = 0


def test_profile_type():
    assert isinstance(ball_profile(build_tree(2, 2)), BallProfile)


def _random_weighted_graph(seed):
    """A random spanning tree with extra edges, weights over twelve decades,
    each edge in a random orientation, in random order, with a random root."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 300))
    pairs = {(int(rng.integers(v)), v) for v in range(1, n)}
    pairs |= {(min(a, b), max(a, b)) for a, b
              in rng.integers(0, n, size=(int(rng.integers(0, 2 * n)), 2)).tolist()
              if a != b}
    edges = [(v, u, w) if flip else (u, v, w) for (u, v), flip, w in zip(
        sorted(pairs), rng.random(len(pairs)) < 0.5,
        (10.0 ** rng.uniform(-6, 6, len(pairs))).tolist())]
    edges = [edges[k] for k in rng.permutation(len(edges))]
    return WeightedGraph(n, edges, root=int(rng.integers(n)))


# lattices of dimension 1-4, trees, a radial model and random weighted graphs
SUM_GRAPHS = [
    pytest.param(lambda: build_lattice(1, 7), id="lattice-1-7"),
    pytest.param(lambda: build_lattice(2, 6), id="lattice-2-6"),
    pytest.param(lambda: build_lattice(3, 4), id="lattice-3-4"),
    pytest.param(lambda: build_lattice(4, 3), id="lattice-4-3"),
    pytest.param(lambda: build_tree(2, 6), id="tree-2-6"),
    pytest.param(lambda: build_tree(3, 4), id="tree-3-4"),
    pytest.param(lambda: build_radial_model([1, 3, 3, 6, 12],
                                            [1 / 3, 1e-7, 123.456, 2.5]),
                 id="radial"),
    *(pytest.param(lambda seed=seed: _random_weighted_graph(seed),
                   id=f"random-{seed}") for seed in range(8)),
]


@pytest.mark.parametrize("make", SUM_GRAPHS)
def test_profile_sums_are_the_bincounts(make):
    """np.add.at sums each sphere and cut in the order np.bincount does,
    bit for bit (reference)."""
    graph = make()
    prof = ball_profile(graph)
    rad, ecc = graph.radius_of, prof.eccentricity
    sphere = np.bincount(rad, weights=graph.vertex_measure, minlength=ecc + 1)
    ru, rv = rad[graph.edge_tails], rad[graph.edge_heads]
    level = np.where(ru == rv, ecc, np.minimum(ru, rv))
    b = np.bincount(level, weights=graph.edge_weights, minlength=ecc + 1)[:ecc]
    for got, want in ((prof.sphere_measure, sphere), (prof.W, np.cumsum(sphere)),
                      (prof.b, b), (prof.M, np.cumsum(b))):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# round trips


def test_save_load_round_trip(tmp_path):
    g = build_radial_model([1, 3, 3, 3], [1 / 3, 1e-7, 123.456])
    path = tmp_path / "g.json"
    save_graph(g, path)
    assert load_graph(path) == g  # exact floats, canonical edge order


def test_load_graph_format_errors(tmp_path):
    cases = {
        "not-json.json": "{oops",
        "top-level.json": "[1, 2]",
        "missing-key.json": '{"vertex_count": 2, "root": 0}',
        "bad-count.json": '{"vertex_count": "2", "root": 0, "edges": [[0, 1, 1.0]]}',
        "bad-root.json": '{"vertex_count": 2, "root": null, "edges": [[0, 1, 1.0]]}',
        "bad-edges.json": '{"vertex_count": 2, "root": 0, "edges": 7}',
        "bad-edge-row.json": '{"vertex_count": 2, "root": 0, "edges": [[0, 1]]}',
        "bool-weight.json": '{"vertex_count": 2, "root": 0, "edges": [[0, 1, true]]}',
        "float-endpoint.json": '{"vertex_count": 2, "root": 0, "edges": [[0.5, 1, 1.0]]}',
        "bool-endpoints.json": '{"vertex_count": 2, "root": 0, "edges": [[false, true, 1.0]]}',
        "bool-count.json": '{"vertex_count": true, "root": 0, "edges": [[0, 1, 1.0]]}',
        "bool-root.json": '{"vertex_count": 2, "root": false, "edges": [[0, 1, 1.0]]}',
        "string-weight.json": '{"vertex_count": 2, "root": 0, "edges": [[0, 1, "1.0"]]}',
        "long-edge-row.json": '{"vertex_count": 2, "root": 0, "edges": [[0, 1, 1.0, 1]]}',
        "edge-not-a-list.json": '{"vertex_count": 2, "root": 0, "edges": [{"u": 0}]}',
    }
    for name, text in cases.items():
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(GraphFormatError):
            load_graph(path)


def test_load_graph_names_the_first_bad_edge(tmp_path):
    path = tmp_path / "g.json"
    path.write_text('{"vertex_count": 3, "root": 0,'
                    ' "edges": [[0, 1, 1.0], [1, 2, 2], [true, 2, 1.0], [0, 2]]}')
    with pytest.raises(GraphFormatError,
                       match=r"edges\[2\] must be \[int, int, number\], got \[True, 2, 1.0\]"):
        load_graph(path)


def test_load_graph_names_a_bad_shape_before_a_bad_value(tmp_path):
    path = tmp_path / "g.json"
    path.write_text('{"vertex_count": 3, "root": 0,'
                    ' "edges": [[0, 1, 1.0], [1, 1, 1.0], [0, 2, "x"]]}')
    with pytest.raises(GraphFormatError, match=r"edges\[2\] must be"):
        load_graph(path)
    path.write_text('{"vertex_count": 3, "root": 0,'
                    ' "edges": [[0, 1, 1.0], [1, 1, 1.0], [0, 2, 0]]}')
    with pytest.raises(GraphValidationError, match="edge 1: self loop at 1"):
        load_graph(path)


def test_load_graph_structural_errors(tmp_path):
    path = tmp_path / "dup.json"
    path.write_text('{"vertex_count": 2, "root": 0,'
                    ' "edges": [[0, 1, 1.0], [1, 0, 1.0]]}')
    with pytest.raises(GraphValidationError):
        load_graph(path)


# ---------------------------------------------------------------------------
# array constructor and writer against the per-edge code they replaced


def _graph_by_edge_loop(vertex_count, edges, root=0):
    """The per-edge constructor loop, kept as the reference: the same
    arrays, built one edge at a time, in an instance made without
    WeightedGraph.__init__."""
    edge_list = list(edges)
    tails = np.empty(len(edge_list), dtype=np.int64)
    heads = np.empty(len(edge_list), dtype=np.int64)
    weights = np.empty(len(edge_list), dtype=np.float64)
    for i, edge in enumerate(edge_list):
        u, v, w = edge
        u, v, w = int(u), int(v), float(w)
        assert 0 <= u < vertex_count and 0 <= v < vertex_count and u != v
        assert np.isfinite(w) and w > 0.0
        if u > v:
            u, v = v, u
        tails[i], heads[i], weights[i] = u, v, w
    order = np.lexsort((heads, tails))
    tails, heads, weights = tails[order], heads[order], weights[order]
    adjacency = _coo_adjacency(vertex_count, tails, heads, weights)
    graph = object.__new__(WeightedGraph)
    for name, value in (("vertex_count", vertex_count), ("root", root),
                        ("edge_tails", tails), ("edge_heads", heads),
                        ("edge_weights", weights),
                        ("vertex_measure",
                         np.asarray(adjacency.sum(axis=1)).ravel()),
                        ("radius_of", _radii_by_search(adjacency, root))):
        object.__setattr__(graph, name, value)
    return graph


def _coo_adjacency(vertex_count, tails, heads, weights):
    """scipy's COO -> CSR conversion of both orientations of the edges
    (reference): the adjacency whose row sums give the vertex measure's
    bits."""
    return sp.csr_matrix((np.concatenate([weights, weights]),
                          (np.concatenate([tails, heads]),
                           np.concatenate([heads, tails]))),
                         shape=(vertex_count, vertex_count))


def _radii_by_search(adjacency, root):
    """csgraph's unweighted undirected search from the root (reference)."""
    return csgraph.dijkstra(adjacency, directed=False, unweighted=True,
                            indices=root).astype(np.int64)


def _save_by_json_dump(graph) -> bytes:
    """save_graph's bytes as json.dump wrote them (reference)."""
    return _json_dump_bytes(graph.vertex_count, graph.root, graph.edge_tails,
                            graph.edge_heads, graph.edge_weights)


def _json_dump_bytes(vertex_count, root, tails, heads, weights) -> bytes:
    payload = {
        "vertex_count": vertex_count,
        "root": root,
        "edges": [[int(u), int(v), float(w)] for u, v, w
                  in zip(tails, heads, weights)],
    }
    buf = io.StringIO()
    json.dump(payload, buf, sort_keys=True)
    buf.write("\n")
    return buf.getvalue().encode("utf-8")


def _assert_same_graph(graph, ref):
    """The same arrays, bit for bit, and the constructor's CSR of the
    graph's edges is scipy's COO -> CSR conversion of the reference's."""
    assert graph == ref
    for name in ("edge_tails", "edge_heads", "edge_weights", "vertex_measure",
                 "radius_of"):
        got, want = getattr(graph, name), getattr(ref, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    adjacency = graphs_module._symmetric_csr(
        graph.vertex_count, graph.edge_tails, graph.edge_heads,
        graph.edge_weights)
    reference = _coo_adjacency(ref.vertex_count, ref.edge_tails,
                               ref.edge_heads, ref.edge_weights)
    for name in ("indptr", "indices", "data"):
        got, want = getattr(adjacency, name), getattr(reference, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


GENERATOR_CALLS = [
    (build_lattice, (1, 5)),
    (build_lattice, (2, 4)),
    (build_lattice, (3, 3)),
    (build_lattice, (4, 2)),
    (build_tree, (2, 5)),
    (build_tree, (3, 3)),
    (build_radial_model, ([1, 3, 3, 6], [1 / 3, 1e-7, 123.456])),
]


@pytest.mark.parametrize("factory, args", GENERATOR_CALLS)
def test_generators_build_the_edge_loop_graph(monkeypatch, factory, args):
    calls = []
    real = WeightedGraph._from_columns

    def recording(vertex_count, tails, heads, weights, root=0):
        calls.append((vertex_count, tails, heads, weights, root))
        return real(vertex_count, tails, heads, weights, root)

    with monkeypatch.context() as patch:
        patch.setattr(WeightedGraph, "_from_columns", recording)
        graph = factory(*args)
    (vertex_count, tails, heads, weights, root), = calls
    assert (tails.dtype, heads.dtype, weights.dtype) == (np.int64, np.int64,
                                                         np.float64)
    edges = list(zip(tails.tolist(), heads.tolist(), weights.tolist()))
    _assert_same_graph(graph, _graph_by_edge_loop(vertex_count, edges, root))


def test_shuffled_reversed_edges_build_the_edge_loop_graph():
    rng = np.random.default_rng(3)
    base = build_lattice(2, 4)
    edges = [(v, u, w) if k % 2 else (u, v, w) for k, (u, v, _) in enumerate(base.edges)
             for w in [float(rng.uniform(1e-3, 1e3))]]
    order = rng.permutation(len(edges))
    edges = [edges[k] for k in order]
    assert any(u > v for u, v, _ in edges)
    graph = WeightedGraph(base.vertex_count, edges, root=5)
    _assert_same_graph(graph, _graph_by_edge_loop(base.vertex_count, edges, 5))


@pytest.mark.parametrize("factory, args", GENERATOR_CALLS)
def test_save_graph_writes_the_json_dump_bytes(tmp_path, factory, args):
    graph = factory(*args)
    path = tmp_path / "g.json"
    save_graph(graph, path)
    assert path.read_bytes() == _save_by_json_dump(graph)
    assert load_graph(path) == graph


def _lattice_by_sorted_tuples(dimension, half_side):
    """build_lattice's edge list as it was built from coordinate tuples
    (reference): ids by sorting (l1 radius, coordinates), neighbours by a
    dict lookup."""
    coords = sorted(itertools.product(range(-half_side, half_side + 1),
                                      repeat=dimension),
                    key=lambda c: (sum(abs(x) for x in c), c))
    index = {c: i for i, c in enumerate(coords)}
    edges = []
    for c, i in index.items():
        for axis in range(dimension):
            shifted = list(c)
            shifted[axis] += 1
            if shifted[axis] <= half_side:
                edges.append((i, index[tuple(shifted)], 1.0))
    return edges


@pytest.mark.parametrize("dimension, half_side", [
    (1, 1), (1, 7), (2, 1), (2, 6), (3, 1), (3, 4), (4, 1), (4, 3)])
def test_build_lattice_equals_the_sorted_tuple_build(monkeypatch, dimension,
                                                     half_side):
    calls = []
    real = WeightedGraph._from_columns

    def recording(vertex_count, tails, heads, weights, root=0):
        assert (tails.dtype, heads.dtype, weights.dtype) == (np.int64, np.int64,
                                                             np.float64)
        calls.append(list(zip(tails.tolist(), heads.tolist(), weights.tolist())))
        return real(vertex_count, tails, heads, weights, root)

    with monkeypatch.context() as patch:
        patch.setattr(WeightedGraph, "_from_columns", recording)
        graph = build_lattice(dimension, half_side)
    edges = _lattice_by_sorted_tuples(dimension, half_side)
    assert calls == [edges]
    _assert_same_graph(graph,
                       WeightedGraph((2 * half_side + 1) ** dimension, edges))


@pytest.mark.parametrize("enabled", [True, False])
def test_graph_io_restores_the_collector_state(tmp_path, enabled):
    path = tmp_path / "g.json"
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    was_enabled = gc.isenabled()
    try:
        if not enabled:
            gc.disable()
        save_graph(build_tree(2, 3), path)
        assert gc.isenabled() == enabled
        load_graph(path)
        assert gc.isenabled() == enabled
        with pytest.raises(GraphFormatError):
            load_graph(bad)
        assert gc.isenabled() == enabled
    finally:
        if was_enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# the certified reader against the json.load reader it sits in front of


def _load_by_json(path):
    """load_graph as it parsed every file with json.load (reference)."""
    def integer(value):
        return isinstance(value, (int, np.integer)) and not isinstance(value, bool)

    def edge_ok(item):
        return (type(item) is list and len(item) == 3 and integer(item[0])
                and integer(item[1]) and isinstance(item[2], (int, float))
                and not isinstance(item[2], bool))

    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise GraphFormatError(f"{path}: not valid JSON "
                                   f"(line {exc.lineno}, column {exc.colno})") from exc
    if not isinstance(raw, dict):
        raise GraphFormatError(f"{path}: top level must be an object")
    for key in ("vertex_count", "root", "edges"):
        if key not in raw:
            raise GraphFormatError(f"{path}: missing key {key!r}")
    if not integer(raw["vertex_count"]):
        raise GraphFormatError(f"{path}: vertex_count must be an integer")
    if not integer(raw["root"]):
        raise GraphFormatError(f"{path}: root must be an integer")
    edges = raw["edges"]
    if not isinstance(edges, list):
        raise GraphFormatError(f"{path}: edges must be a list")
    try:
        return WeightedGraph(raw["vertex_count"], edges, root=raw["root"])
    except GraphValidationError:
        bad = next(((i, item) for i, item in enumerate(edges)
                    if not edge_ok(item)), None)
        if bad is None:
            raise
        i, item = bad
        raise GraphFormatError(
            f"{path}: edges[{i}] must be [int, int, number], got {item!r}") from None


def _outcome(load, path):
    try:
        return load(path)
    except Exception as exc:  # the class and the words are what is compared
        return type(exc), str(exc)


def _assert_loads_as_json_does(path):
    got, want = _outcome(load_graph, path), _outcome(_load_by_json, path)
    if isinstance(want, WeightedGraph):
        assert isinstance(got, WeightedGraph), got
        _assert_same_graph(got, want)
    else:
        assert got == want


def _double(bits):
    return struct.unpack("<d", struct.pack("<q", bits))[0]


_LARGEST = fractions.Fraction(1.7976931348623157e308)
_EPS = fractions.Fraction(2) ** -52

# every finite positive double, from bit patterns, subnormals included
_POSITIVE_DOUBLES = st.one_of(
    st.integers(1, 0x7FEFFFFFFFFFFFFF).map(_double),
    st.sampled_from([5e-324, 2.0, 1e16, 1.7976931348623157e308]))


@st.composite
def _connected_edge_lists(draw):
    """(n, edges, root): a random spanning tree plus random extra edges,
    each edge in a random orientation, with weights drawn from a few random
    doubles."""
    n = draw(st.integers(2, 150))
    weights = draw(st.lists(_POSITIVE_DOUBLES, min_size=1, max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pairs = {(int(rng.integers(v)), v) for v in range(1, n)}
    pairs |= {(min(a, b), max(a, b)) for a, b
              in rng.integers(0, n, size=(rng.integers(0, 21), 2)).tolist() if a != b}
    edges = []
    for u, v in sorted(pairs):
        w = weights[rng.integers(len(weights))]
        edges.append((u, v, w) if rng.random() < 0.5 else (v, u, w))
    return n, edges, int(rng.integers(n))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_connected_edge_lists())
def test_random_graphs_round_trip_through_the_json_bytes(tmp_path, case):
    n, edges, root = case
    path = tmp_path / "g.json"
    # the exact total measure 2 * sum(w) decides whether the graph fits,
    # up to the constructor's allowance of 2n roundings
    total = 2 * sum(fractions.Fraction(w) for _, _, w in edges)
    try:
        graph = WeightedGraph(n, edges, root=root)
    except GraphValidationError as exc:
        assert total * (1 + 4 * n * _EPS) > _LARGEST, exc
        # the canonical file of these edges certifies and is rejected alike
        rows = sorted((min(u, v), max(u, v), w) for u, v, w in edges)
        path.write_bytes(_json_dump_bytes(n, root, *zip(*rows)))
        assert graphs_module._canonical_columns(path.read_bytes()) is not None
        assert _outcome(load_graph, path) == (GraphValidationError, str(exc))
        return
    assert total <= _LARGEST
    save_graph(graph, path)
    assert path.read_bytes() == _save_by_json_dump(graph)
    assert graphs_module._canonical_columns(path.read_bytes()) is not None
    _assert_same_graph(load_graph(path), graph)


def _many_weights(largest):
    """lattice(3, 8)'s edge arrays, 13,872 edges, with log-uniform weights,
    the smallest double and the given largest weight."""
    base = build_lattice(3, 8)
    weights = np.exp(np.random.default_rng(5).uniform(-700.0, 700.0, base.edge_count))
    weights[:3] = 5e-324, largest, 2.0
    return base.vertex_count, base.edge_tails, base.edge_heads, weights


def _many_weights_graph():
    """The graph of _many_weights with a quarter of the largest double,
    whose repr is as long: the total measure stays finite."""
    vertex_count, tails, heads, weights = _many_weights(4.4942328371557893e307)
    return WeightedGraph(vertex_count, list(zip(
        tails.tolist(), heads.tolist(), weights.tolist())))


def test_an_overflowing_measure_is_rejected_on_both_load_routes(tmp_path):
    """The largest double on lattice(3, 8): the certified file and the
    indented one give the constructor's error."""
    vertex_count, tails, heads, weights = _many_weights(1.7976931348623157e308)
    with pytest.raises(GraphValidationError) as info:
        WeightedGraph(vertex_count, list(zip(
            tails.tolist(), heads.tolist(), weights.tolist())))
    assert "measure" in str(info.value)
    want = (GraphValidationError, str(info.value))
    data = b"".join(graphs_module._graph_blocks(vertex_count, 0, tails,
                                                heads, weights))
    assert data == _json_dump_bytes(vertex_count, 0, tails, heads, weights)
    assert graphs_module._canonical_columns(data) is not None
    path = tmp_path / "g.json"
    path.write_bytes(data)
    assert _outcome(load_graph, path) == want
    path.write_text(json.dumps(json.loads(data), indent=2))
    assert graphs_module._canonical_columns(path.read_bytes()) is None
    assert _outcome(load_graph, path) == want


@pytest.mark.parametrize("make", [
    lambda: build_lattice(3, 16), lambda: build_lattice(2, 40),
    lambda: build_tree(2, 12), _many_weights_graph,
], ids=["lattice-3-16", "lattice-2-40", "tree-2-12", "many-weights"])
def test_save_graph_output_takes_the_certified_path(tmp_path, monkeypatch, make):
    graph = make()
    path = tmp_path / "g.json"
    save_graph(graph, path)
    assert path.read_bytes() == _save_by_json_dump(graph)
    parsed = []
    real = graphs_module._canonical_columns
    monkeypatch.setattr(graphs_module, "_canonical_columns",
                        lambda data: parsed.append(real(data)) or parsed[-1])
    _assert_same_graph(load_graph(path), graph)
    (columns,) = parsed
    assert columns is not None


_BASE = {"vertex_count": 4, "root": 1,
         "edges": [[0, 1, 1 / 3], [1, 2, 1e-7], [2, 3, 123.456], [0, 3, 2.0]]}
_CANONICAL = json.dumps(_BASE, sort_keys=True) + "\n"


def _variant(**changes):
    return json.dumps({**_BASE, **changes}, sort_keys=True) + "\n"


NON_CANONICAL_FILES = {
    "indent-2": json.dumps(_BASE, sort_keys=True, indent=2) + "\n",
    "keys-reordered": json.dumps(_BASE) + "\n",
    "int-weight": _CANONICAL.replace("2.0]", "2]"),
    "no-newline": _CANONICAL[:-1],
    "crlf": _CANONICAL[:-1] + "\r\n",
    "bom": "\ufeff" + _CANONICAL,
    "trailing-space": _CANONICAL + " ",
    "no-spaces": json.dumps(_BASE, sort_keys=True, separators=(",", ":")) + "\n",
    "root-true": _CANONICAL.replace('"root": 1', '"root": true'),
    "root-leading-zero": _CANONICAL.replace('"root": 1', '"root": 01'),
    "huge-id": _variant(edges=[[0, 10 ** 20, 1.0]]),
    "huge-count": _variant(vertex_count=10 ** 19),
    "huge-root": _variant(root=10 ** 19),
    "thousands-of-digits": _variant(vertex_count=int("9" * 4000)),
    "negative-id": _variant(edges=[[-1, 1, 1.0], [1, 2, 1.0], [2, 3, 1.0]]),
    "leading-zero-id": _CANONICAL.replace("[2, 3,", "[02, 3,"),
    "leading-zero-head": _CANONICAL.replace("[0, 3,", "[0, 03,"),
    "count-leading-zero": _CANONICAL.replace('"vertex_count": 4', '"vertex_count": 04'),
    "exponent-weight": _CANONICAL.replace("2.0]", "2e0]"),
    "underscore-one-weight": _CANONICAL.replace("2.0]", "1_0]"),
    "plus-weight": _CANONICAL.replace("2.0]", "+1.0]"),
    "trailing-zero-weight": _CANONICAL.replace("2.0]", "1.00]"),
    "one-exponent-weight": _CANONICAL.replace("2.0]", "1e0]"),
    "leading-zero-weight": _CANONICAL.replace("2.0]", "01.0]"),
    "spaced-weight": _CANONICAL.replace("2.0]", " 1.0]"),
    "nul-after-weight": _CANONICAL.replace("2.0]", "2.0\0]"),
    "space-before-rows": _CANONICAL.replace('[[', '[ ['),
    "joiner-no-space": _CANONICAL.replace("], [1,", "],[1,"),
    "joiner-space-before-comma": _CANONICAL.replace("], [1,", "] ,[1,"),
    "comma-after-last-row": _CANONICAL.replace("2.0]]", "2.0], ]"),
    "upper-exponent": _CANONICAL.replace("1e-07", "1E-07"),
    "overflow-weight": _CANONICAL.replace("2.0]", "1e400]"),
    "nan-weight": _CANONICAL.replace("2.0]", "NaN]"),
    "infinity-weight": _CANONICAL.replace("2.0]", "Infinity]"),
    "python-inf-weight": _CANONICAL.replace("2.0]", "inf]"),
    "underscore-weight": _CANONICAL.replace("123.456", "12_3.456"),
    "long-weight": _CANONICAL.replace("2.0]", "2.00000000000000000000000000000]"),
    "rounded-subnormal": _CANONICAL.replace("2.0]", "2.5e-324]"),
    "string-weight": _CANONICAL.replace("2.0]", '"2.0"]'),
    "bool-weight": _CANONICAL.replace("2.0]", "true]"),
    "short-row": _CANONICAL.replace("[0, 3, 2.0]", "[0, 3]"),
    "long-row": _CANONICAL.replace("[0, 3, 2.0]", "[0, 3, 2.0, 1.0]"),
    "nested-row": _CANONICAL.replace("[0, 3, 2.0]", "[[0, 3], 2.0]"),
    "no-edges": _variant(edges=[]),
    "extra-data": _CANONICAL + _CANONICAL,
    "truncated": _CANONICAL[:30],
    "empty": "",
}

# save_graph's layout, but values that json parses and the constructor
# rejects: the certified parse must raise the same error
CANONICAL_INVALID_FILES = {
    "self-loop": _variant(edges=[[0, 1, 1.0], [1, 1, 1.0], [2, 3, 1.0]]),
    "duplicate": _variant(edges=[[0, 1, 1.0], [0, 1, 2.0], [1, 2, 1.0], [2, 3, 1.0]]),
    "outside": _variant(edges=[[0, 1, 1.0], [1, 2, 1.0], [7, 3, 1.0]]),
    "disconnected": _variant(edges=[[0, 1, 1.0], [2, 3, 1.0]]),
    "zero-weight": _variant(edges=[[0, 1, 1.0], [1, 2, 0.0], [2, 3, 1.0]]),
    "negative-zero-weight": _variant(edges=[[0, 1, -0.0], [1, 2, 1.0], [2, 3, 1.0]]),
    "negative-weight": _variant(edges=[[0, 1, 1.0], [1, 2, -1.5], [2, 3, 1.0]]),
    "count-one": _variant(vertex_count=1),
    "count-zero": _variant(vertex_count=0),
    "root-outside": _variant(root=4),
    "reversed-unsorted": _variant(edges=[[3, 2, 1.0], [1, 0, 1.0], [2, 1, 1.0]]),
}


@pytest.mark.parametrize("name", [*NON_CANONICAL_FILES, *CANONICAL_INVALID_FILES])
def test_load_graph_matches_the_json_reader(tmp_path, name):
    text = {**NON_CANONICAL_FILES, **CANONICAL_INVALID_FILES}[name]
    path = tmp_path / f"{name}.json"
    path.write_bytes(text.encode("utf-8"))
    certified = graphs_module._canonical_columns(path.read_bytes()) is not None
    assert certified == (name in CANONICAL_INVALID_FILES)
    _assert_loads_as_json_does(path)


_EDIT_BYTES = st.sampled_from(list(b'0123456789-+.,:[]{}" eEtrufalsnNIy\n'))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=st.lists(st.tuples(st.sampled_from(["replace", "insert", "delete"]),
                                st.integers(0, len(_CANONICAL)), _EDIT_BYTES),
                      min_size=1, max_size=3))
def test_edited_files_load_as_json_loads_them(tmp_path, edits):
    data = bytearray(_CANONICAL.encode())
    for kind, at, byte in edits:
        at = min(at, len(data) - 1)
        if kind == "replace":
            data[at] = byte
        elif kind == "insert":
            data.insert(at, byte)
        elif len(data) > 1:
            del data[at]
    path = tmp_path / "g.json"
    path.write_bytes(bytes(data))
    _assert_loads_as_json_does(path)


# ---------------------------------------------------------------------------
# the layout certificate against the write-back certificate it replaced


def _ids_by_digits(body, starts, stops):
    """The digits of each field as an int64, leading zeros allowed."""
    lengths = stops - starts
    if lengths.min() < 1 or lengths.max() > graphs_module._ID_DIGITS:
        return None
    values = np.zeros(starts.size, dtype=np.int64)
    for k in range(int(lengths.max())):
        inside = k < lengths
        digit = body[np.minimum(starts + k, body.size - 1)].astype(np.int64) - 48
        if (inside & ((digit < 0) | (digit > 9))).any():
            return None
        values = np.where(inside, values * 10 + digit, values)
    return values


def _weights_by_float(body, starts, stops):
    """float() of each token, any spelling float() takes."""
    lengths = stops - starts
    if lengths.min() < 1 or lengths.max() > graphs_module._WEIGHT_CHARS:
        return None
    width = int(lengths.max())
    columns = np.arange(width)
    tokens = body[np.minimum(starts[:, None] + columns, body.size - 1)]
    tokens[columns >= lengths[:, None]] = 0
    distinct, which = np.unique(tokens.view(f"S{width}").ravel(),
                                return_inverse=True)
    try:
        values = np.array([float(token) for token in distinct.tolist()])
    except ValueError:
        return None
    if not np.isfinite(values).all():
        return None
    return values[which]


def _rows_by_separator_counts(body, opens):
    """The rows' columns, with the commas only counted, not placed."""
    closes = np.flatnonzero(body == ord("]"))
    commas = np.flatnonzero(body == ord(","))
    count = opens.size
    if closes.size != count or commas.size not in (3 * count - 1, 3 * count):
        return None
    first, second = commas[0::3], commas[1::3]
    tails = _ids_by_digits(body, opens + 1, first)
    heads = _ids_by_digits(body, first + 2, second)
    weights = _weights_by_float(body, second + 2, closes)
    if tails is None or heads is None or weights is None:
        return None
    return tails, heads, weights


def _canonical_columns_by_write_back(data):
    """_canonical_columns as it certified a lenient parse by writing the
    arrays back with _graph_blocks and comparing bytes (reference)."""
    end = data.rfind(b'], "root": ')
    if end < len(graphs_module._HEAD) or not data.startswith(graphs_module._HEAD):
        return None
    tail = graphs_module._TAIL.fullmatch(data, end)
    if tail is None:
        return None
    body = np.frombuffer(data, dtype=np.uint8, count=end - len(graphs_module._HEAD),
                         offset=len(graphs_module._HEAD))
    opens = np.flatnonzero(body == ord("["))
    count = opens.size
    if count == 0:
        return None
    tails = np.empty(count, dtype=np.int64)
    heads = np.empty(count, dtype=np.int64)
    weights = np.empty(count)
    block = graphs_module._BLOCK_EDGES
    for start in range(0, count, block):
        stop = min(start + block, count)
        first = opens[start]
        last = opens[stop] if stop < count else body.size
        rows = _rows_by_separator_counts(body[first:last], opens[start:stop] - first)
        if rows is None:
            return None
        tails[start:stop], heads[start:stop], weights[start:stop] = rows
    vertex_count, root = int(tail[2]), int(tail[1])
    at = 0
    for piece in graphs_module._graph_blocks(vertex_count, root, tails, heads, weights):
        if not data.startswith(piece, at):
            return None
        at += len(piece)
    if at != len(data):
        return None
    return vertex_count, tails, heads, weights, root


def _assert_same_columns(got, want):
    if want is None:
        assert got is None
        return
    assert got is not None
    assert got[0] == want[0] and got[4] == want[4]
    assert all(type(g) is int for g in (got[0], got[4]))
    for g, w in zip(got[1:4], want[1:4]):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


def _path_of_600_decades():
    """A path of 13 edges whose weights run from 1e-300 to 1e300."""
    return build_radial_model([1] * 14, np.geomspace(1e-300, 1e300, 13) / 3.0)


_FUZZ_GRAPHS = {
    "lattice-2-5": lambda: build_lattice(2, 5),
    "tree-2-4": lambda: build_tree(2, 4),
    "radial-1e-300": lambda: build_radial_model([1, 3, 9, 27], [1.0, 0.5, 1e-300]),
    "path-600-decades": _path_of_600_decades,
}
_FUZZ_BYTES = np.frombuffer(b'0123456789[],. -+e_"xInfaN:E\n', dtype=np.uint8)


@pytest.mark.parametrize("block", [None, 7], ids=["one-block", "blocks-of-7"])
@pytest.mark.parametrize("name", list(_FUZZ_GRAPHS))
def test_layout_certificate_is_the_write_back(monkeypatch, name, block):
    """1-3 random byte edits (replace, insert, delete) of a canonical file:
    both certificates give None, or the same counts and the same arrays."""
    if block is not None:
        monkeypatch.setattr(graphs_module, "_BLOCK_EDGES", block)
    graph = _FUZZ_GRAPHS[name]()
    canonical = b"".join(graphs_module._graph_blocks(
        graph.vertex_count, graph.root, graph.edge_tails, graph.edge_heads,
        graph.edge_weights))
    want = _canonical_columns_by_write_back(canonical)
    assert want is not None
    _assert_same_columns(graphs_module._canonical_columns(canonical), want)
    rng = np.random.default_rng([list(_FUZZ_GRAPHS).index(name), block or 0])
    accepted = 0
    for _ in range(400):
        data = bytearray(canonical)
        for _ in range(rng.integers(1, 4)):
            at = int(rng.integers(len(data)))
            kind = rng.integers(3)
            if kind == 0:
                data[at] = rng.choice(_FUZZ_BYTES)
            elif kind == 1:
                data.insert(at, rng.choice(_FUZZ_BYTES))
            else:
                del data[at]
        data = bytes(data)
        want = _canonical_columns_by_write_back(data)
        _assert_same_columns(graphs_module._canonical_columns(data), want)
        accepted += want is not None
    assert accepted > 0  # some edits keep the layout: ids and weights


# ---------------------------------------------------------------------------
# the direct CSR against scipy's COO -> CSR conversion it replaced


def _adjacency_by_coo(vertex_count, edges):
    """The adjacency and vertex measure as scipy's COO -> CSR conversion
    of both orientations of the canonical edges built them (reference)."""
    rows = sorted((min(u, v), max(u, v), w) for u, v, w in edges)
    adjacency = _coo_adjacency(vertex_count,
                               *(np.array(column) for column in zip(*rows)))
    return adjacency, np.asarray(adjacency.sum(axis=1)).ravel()


# with at most 60 vertices every measure of these weights is finite
_WIDE_WEIGHTS = st.floats(1e-300, 1e300)


@st.composite
def _shaped_edge_lists(draw):
    """(n, edges): a star about a random centre, a path through the
    vertices in a random order, or a random spanning tree with extra edges;
    weights from a few wide-range doubles, so they repeat.  The edges come
    in canonical order, or reversed at random and shuffled.  Vertex n - 1
    has only smaller neighbours, vertex 0 only larger ones."""
    n = draw(st.integers(2, 60))
    shape = draw(st.sampled_from(["star", "path", "random"]))
    weights = draw(st.lists(_WIDE_WEIGHTS, min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if shape == "star":
        centre = draw(st.sampled_from([0, n - 1, int(rng.integers(n))]))
        pairs = {(min(centre, x), max(centre, x)) for x in range(n) if x != centre}
    elif shape == "path":
        order = rng.permutation(n).tolist()
        pairs = {(min(a, b), max(a, b)) for a, b in zip(order, order[1:])}
    else:
        pairs = {(int(rng.integers(v)), v) for v in range(1, n)}
        pairs |= {(min(a, b), max(a, b)) for a, b
                  in rng.integers(0, n, size=(rng.integers(0, 3 * n), 2)).tolist()
                  if a != b}
    edges = [(u, v, weights[rng.integers(len(weights))]) for u, v in sorted(pairs)]
    if not draw(st.booleans()):
        edges = [(v, u, w) if rng.random() < 0.5 else (u, v, w) for u, v, w in edges]
        edges = [edges[k] for k in rng.permutation(len(edges))]
    return n, edges


def _case_of(graph):
    return graph.vertex_count, graph.edges


_RADIAL_BRANCHING = build_radial_model([1, 3, 9, 27] + [81] * 60,
                                       np.geomspace(1.0, 1e3, 63))

# a hub of 200 leaves, 100 on each side of it, whose distinct weights span
# six decades: past numpy's 8-way pairwise reduce, the hub's measure
# depends on the order of its row
_STAR_200 = (201, [(min(100, x), max(100, x), 10.0 ** (6 * (37 * x % 201) / 200))
                   for x in range(201) if x != 100])


@settings(max_examples=300, deadline=None)
@given(case=_shaped_edge_lists())
@example(case=_case_of(build_lattice(3, 16)))
@example(case=_case_of(_RADIAL_BRANCHING))
@example(case=_STAR_200)
def test_direct_csr_is_the_coo_conversion(case):
    n, edges = case
    tails, heads, weights = (np.array(column) for column in zip(*edges))
    graph = WeightedGraph._from_columns(n, tails.astype(np.int64),
                                        heads.astype(np.int64),
                                        weights.astype(np.float64))
    in_order = edges == sorted((min(u, v), max(u, v), w) for u, v, w in edges)
    assert graphs_module._in_canonical_order(tails, heads) == in_order
    adjacency, measure = _adjacency_by_coo(n, edges)
    direct = graphs_module._symmetric_csr(n, graph.edge_tails, graph.edge_heads,
                                          graph.edge_weights)
    for name in ("indptr", "indices", "data"):
        got, want = getattr(direct, name), getattr(adjacency, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    assert direct.has_canonical_format == adjacency.has_canonical_format
    assert direct.has_canonical_format
    assert (graph.vertex_measure.dtype == measure.dtype
            and graph.vertex_measure.tobytes() == measure.tobytes())
    assert graph == WeightedGraph(n, edges)


# the 4001-vertex path from its centre and from an end, a radial path of
# 4001 vertices and a branching radial model: up to 12 doubling rounds
@settings(max_examples=300, deadline=None)
@given(case=_shaped_edge_lists(), pick=st.integers(0, 2 ** 32))
@example(case=_case_of(build_lattice(1, 2000)), pick=2000)
@example(case=_case_of(build_lattice(1, 2000)), pick=0)
@example(case=_case_of(build_radial_model([1] * 4001, np.ones(4000))), pick=0)
@example(case=_case_of(_RADIAL_BRANCHING), pick=0)
@example(case=_case_of(_RADIAL_BRANCHING), pick=4000)
def test_radius_of_is_the_search_on_the_coo_conversion(case, pick):
    n, edges = case
    root = pick % n
    graph = WeightedGraph(n, edges, root=root)
    want = _radii_by_search(_adjacency_by_coo(n, edges)[0], root)
    assert graph.radius_of.dtype == np.int64
    assert graph.radius_of.tobytes() == want.tobytes()


@pytest.mark.parametrize("reverse", [False, True], ids=["canonical", "reversed"])
def test_from_columns_leaves_the_callers_arrays_alone(reverse):
    base = build_lattice(2, 4)
    tails, heads = np.array(base.edge_tails), np.array(base.edge_heads)
    if reverse:
        tails, heads = heads, tails
    weights = np.linspace(1.0, 2.0, base.edge_count)
    kept = [column.copy() for column in (tails, heads, weights)]
    graph = WeightedGraph._from_columns(base.vertex_count, tails, heads, weights)
    owned = (graph.edge_tails, graph.edge_heads, graph.edge_weights,
             graph.vertex_measure, graph.radius_of)
    for column, copy in zip((tails, heads, weights), kept):
        assert column.flags.writeable
        assert not any(np.shares_memory(column, array) for array in owned)
        column[:] = column[::-1]  # the graph keeps its own values
        np.testing.assert_array_equal(column[::-1], copy)
    assert all(not array.flags.writeable for array in owned)
    _assert_same_graph(graph, WeightedGraph(base.vertex_count, list(zip(
        kept[0].tolist(), kept[1].tolist(), kept[2].tolist()))))


@pytest.mark.parametrize("vertex_count, edges", [
    (4, [(0, 1, 1.0), (2, 3, 1.0)]),
    (7, [(5, 1, 1.0), (1, 3, 2.0), (3, 5, 1.0), (0, 6, 1.0)]),
    (6, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0)]),
], ids=["too-few-edges", "untouched-vertices", "enough-edges"])
def test_disconnected_graphs_name_their_components(vertex_count, edges):
    u, v, w = (np.array(column) for column in zip(*edges))
    components = csgraph.connected_components(
        sp.coo_matrix((w, (u, v)), shape=(vertex_count, vertex_count)),
        directed=False, return_labels=False)
    with pytest.raises(GraphValidationError,
                       match=rf"^graph is disconnected \({components} components\)$"):
        WeightedGraph(vertex_count, edges)


def test_a_file_claiming_many_vertices_holds_no_array_per_vertex(tmp_path):
    vertex_count = 2_000_000
    path = tmp_path / "g.json"
    path.write_text(_variant(vertex_count=vertex_count,
                             edges=[[0, 1, 1.0], [1, 2, 1.0]]))
    outcome = []
    peak = _traced_peak(lambda: outcome.append(_outcome(load_graph, path)))
    assert outcome == [(GraphValidationError,
                        f"graph is disconnected ({vertex_count - 2} components)")]
    assert peak < vertex_count  # not one byte per claimed vertex
    _assert_loads_as_json_does(path)


# ---------------------------------------------------------------------------
# files of several blocks of rows


@pytest.fixture(scope="module")
def two_blocks_and_one_edge():
    """The file of a weighted path of 2 * _BLOCK_EDGES + 1 edges, each
    weight a different non-dyadic double, and the offset where its second
    block of rows starts."""
    count = 2 * graphs_module._BLOCK_EDGES + 1
    graph = build_radial_model([1] * (count + 1), 1.0 / (np.arange(count) + 3.0))
    head, block1, block2, block3, tail = graphs_module._graph_blocks(
        graph.vertex_count, graph.root, graph.edge_tails, graph.edge_heads,
        graph.edge_weights)
    data = b"".join((head, block1, block2, block3, tail))
    assert data == _save_by_json_dump(graph)
    return data, len(head) + len(block1)


def _first_comma(data, row):
    return data.index(b", ", row)


# (where, offset of the byte from a landmark, new byte): a space made a
# newline keeps the file JSON; the other edits do not
_BLOCK_EDITS = {
    "block-1-last-row-space": ("last-row", 1, b"\n"),
    "block-1-last-row-digit": ("last-row", -1, b"x"),
    "block-2-first-row-space": ("first-row", 1, b"\n"),
    "block-2-first-row-digit": ("first-row", -1, b"x"),
    "separator-space": ("boundary", -1, b"\n"),
    "separator-comma": ("boundary", -2, b" "),
    "block-2-first-row-leading-zero": ("boundary", 1, b"0"),
    "tail-space": ("tail", len(b'], "root":'), b"\n"),
    "tail-brace": ("end", -2, b"]"),
}


@pytest.mark.parametrize("name", [*_BLOCK_EDITS, "cut-at-boundary"])
def test_block_boundary_edits_are_not_certified(tmp_path, two_blocks_and_one_edge,
                                                name):
    data, boundary = two_blocks_and_one_edge
    assert data[boundary - 2:boundary + 1] == b", ["
    if name == "cut-at-boundary":
        edited = data[:boundary]
    else:
        where, offset, byte = _BLOCK_EDITS[name]
        at = offset + {
            "last-row": _first_comma(data, data.rindex(b"[", 0, boundary)),
            "first-row": _first_comma(data, boundary),
            "boundary": boundary,
            "tail": data.rindex(b'], "root": '),
            "end": len(data),
        }[where]
        edited = data[:at] + byte + data[at + 1:]
        assert edited != data
    assert graphs_module._canonical_columns(edited) is None
    path = tmp_path / "g.json"
    path.write_bytes(edited)
    _assert_loads_as_json_does(path)


def test_two_blocks_and_one_edge_are_certified(tmp_path, two_blocks_and_one_edge):
    data, _ = two_blocks_and_one_edge
    columns = graphs_module._canonical_columns(data)
    assert columns is not None
    path = tmp_path / "g.json"
    path.write_bytes(data)
    _assert_same_graph(load_graph(path), _load_by_json(path))


# ---------------------------------------------------------------------------
# memory


def _graph_nbytes(graph):
    return sum(array.nbytes for array in (
        graph.edge_tails, graph.edge_heads, graph.edge_weights,
        graph.vertex_measure, graph.radius_of))


def test_graph_io_holds_one_block_beyond_the_file_and_the_graph(tmp_path,
                                                                monkeypatch):
    graph = build_lattice(3, 16)
    path = tmp_path / "g.json"
    widest = max(len(repr(w)) for w in np.unique(graph.edge_weights).tolist())
    row_width = len(b"[%d, %d, " % ((graph.vertex_count - 1,) * 2)) + widest + 3
    # one block's row matrix, and its index and parse arrays at no more than
    # one int64 per byte of it
    block = graphs_module._BLOCK_EDGES * row_width * (1 + 8)

    at_build = []
    real = WeightedGraph._from_columns

    def recording(vertex_count, tails, heads, weights, root=0):
        at_build.append((tracemalloc.get_traced_memory()[0],
                         tails.nbytes + heads.nbytes + weights.nbytes))
        return real(vertex_count, tails, heads, weights, root)

    save_peak = _traced_peak(lambda: save_graph(graph, path))
    size = path.stat().st_size
    assert path.read_bytes() == _save_by_json_dump(graph)
    monkeypatch.setattr(WeightedGraph, "_from_columns", recording)
    loaded = []
    load_peak = _traced_peak(lambda: loaded.append(load_graph(path)))
    _assert_same_graph(loaded[0], graph)

    assert save_peak < block
    assert load_peak < size + _graph_nbytes(loaded[0]) + block
    # the file's bytes are gone before the graph is built
    ((traced, columns),) = at_build
    assert traced < columns + size


def test_a_graph_retains_its_columns_measure_and_radii():
    """Once built, a graph holds three edge columns and two per-vertex
    arrays of 8 bytes an entry, and no adjacency."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        graph = build_lattice(3, 16)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained <= 8 * (3 * graph.edge_count + 2 * graph.vertex_count) + 65536


def test_ball_profile_makes_no_copy_of_the_adjacency():
    """The profile reads the graph's radii, runs no search and builds no
    adjacency, and sums over the graph's read-only arrays in place: its
    peak stays below one edge column's bytes."""
    graph = build_lattice(3, 16)
    profiles = []
    peak = _traced_peak(lambda: profiles.append(ball_profile(graph)))
    assert peak < graph.edge_tails.nbytes
    assert profiles[0].radius_of is graph.radius_of
