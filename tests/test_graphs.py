"""Graph construction, radial profiles, generators, and (de)serialization."""

import gc
import io
import itertools
import json

import numpy as np
import pytest
import scipy.sparse as sp

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


# ---------------------------------------------------------------------------
# constructor and validation


def test_edges_are_canonicalized():
    g = WeightedGraph(3, [(2, 1, 0.5), (1, 0, 2.0)])
    assert g.edges == [(0, 1, 2.0), (1, 2, 0.5)]
    assert g.edge_count == 2


def test_vertex_measure_is_weighted_degree():
    g = WeightedGraph(3, [(0, 1, 2.0), (1, 2, 0.5)])
    assert g.vertex_measure.tolist() == [2.0, 2.5, 0.5]


def test_neighbors_returns_ids_and_weights():
    g = WeightedGraph(4, [(0, 1, 1.0), (0, 2, 3.0), (2, 3, 2.0)])
    ids, weights = g.neighbors(0)
    assert ids.tolist() == [1, 2]
    assert weights.tolist() == [1.0, 3.0]
    ids, weights = g.neighbors(3)
    assert ids.tolist() == [2]
    assert weights.tolist() == [2.0]


def test_graph_is_immutable():
    g = WeightedGraph(2, [(0, 1, 1.0)])
    with pytest.raises(AttributeError):
        g.root = 1
    with pytest.raises(ValueError):
        g.edge_weights[0] = 2.0


def test_graph_measure_and_adjacency_are_read_only():
    g = build_lattice(2, 2)
    for arr in (g.vertex_measure, g.adjacency.data, g.adjacency.indices,
                g.adjacency.indptr):
        with pytest.raises(ValueError):
            arr[0] = 5
    with pytest.raises(ValueError):
        g.neighbors(0)[1][0] = 5.0


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
        assert prof.sphere(k).tolist() == list(range(2 ** k - 1, 2 ** (k + 1) - 1))


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


@pytest.mark.parametrize("factory, args", [
    (build_lattice, (5, 2)),
    (build_lattice, (2, 0)),
    (build_tree, (1, 3)),
    (build_tree, (2, 0)),
])
def test_generator_parameter_validation(factory, args):
    with pytest.raises(ValueError):
        factory(*args)


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
    with pytest.raises(ValueError):
        prof.sphere(4)


def test_profile_arrays_read_only():
    prof = ball_profile(build_tree(2, 2))
    for arr in (prof.W, prof.b, prof.M, prof.radius_of):
        with pytest.raises(ValueError):
            arr[0] = 0


def test_profile_type():
    assert isinstance(ball_profile(build_tree(2, 2)), BallProfile)


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
    adjacency = sp.csr_matrix((np.concatenate([weights, weights]),
                               (np.concatenate([tails, heads]),
                                np.concatenate([heads, tails]))),
                              shape=(vertex_count, vertex_count))
    graph = object.__new__(WeightedGraph)
    for name, value in (("vertex_count", vertex_count), ("root", root),
                        ("edge_tails", tails), ("edge_heads", heads),
                        ("edge_weights", weights), ("adjacency", adjacency),
                        ("vertex_measure",
                         np.asarray(adjacency.sum(axis=1)).ravel())):
        object.__setattr__(graph, name, value)
    return graph


def _save_by_json_dump(graph) -> bytes:
    """save_graph's bytes as json.dump wrote them (reference)."""
    payload = {
        "vertex_count": graph.vertex_count,
        "root": graph.root,
        "edges": [[int(u), int(v), float(w)] for u, v, w
                  in zip(graph.edge_tails, graph.edge_heads, graph.edge_weights)],
    }
    buf = io.StringIO()
    json.dump(payload, buf, sort_keys=True)
    buf.write("\n")
    return buf.getvalue().encode("utf-8")


def _assert_same_graph(graph, ref):
    assert graph == ref
    for name in ("edge_tails", "edge_heads", "edge_weights", "vertex_measure"):
        got, want = getattr(graph, name), getattr(ref, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    for name in ("indptr", "indices", "data"):
        got, want = getattr(graph.adjacency, name), getattr(ref.adjacency, name)
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
    real = graphs_module.WeightedGraph

    def recording(vertex_count, edges, root=0):
        edges = list(edges)
        calls.append((vertex_count, edges, root))
        return real(vertex_count, edges, root)

    with monkeypatch.context() as patch:
        patch.setattr(graphs_module, "WeightedGraph", recording)
        graph = factory(*args)
    (vertex_count, edges, root), = calls
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
    real = graphs_module.WeightedGraph

    def recording(vertex_count, edges, root=0):
        calls.append(edges)
        return real(vertex_count, edges, root)

    with monkeypatch.context() as patch:
        patch.setattr(graphs_module, "WeightedGraph", recording)
        graph = build_lattice(dimension, half_side)
    edges = _lattice_by_sorted_tuples(dimension, half_side)
    assert calls == [edges]
    assert all(type(u) is int and type(v) is int for u, v, _ in calls[0])
    _assert_same_graph(graph, real((2 * half_side + 1) ** dimension, edges))


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
