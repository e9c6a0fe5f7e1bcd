"""Weighted graphs, rooted ball structure, and model-family generators.

A graph here is finite, connected, undirected, simple, with strictly
positive edge weights (conductances).  The vertex measure is the weighted
degree mu(x) = sum of incident edge weights.  All radial quantities are
measured from a designated root by hop distance: B_R is the closed ball,
S_k the sphere, W_n the measure of B_n, b_k the total conductance of edges
leaving B_k, and M_N the prefix sums of b_k.

Generators build finite truncations of standard infinite families
(lattice boxes, rooted regular trees, layered radial models).  Quantities
indexed by a radius R are only meaningful for R <= R_max, the largest
radius whose ball still has a nonempty exterior in the truncation.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import json
import math
import os
from operator import itemgetter

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .errors import GraphFormatError, GraphValidationError, ResourceLimitError

MAX_VERTICES_ENV = "P_POTENTIAL_MAX_VERTICES"
DEFAULT_MAX_VERTICES = 200_000


def max_vertex_budget() -> int:
    """Vertex budget for generators, read from the environment at call time."""
    raw = os.environ.get(MAX_VERTICES_ENV)
    if raw is None:
        return DEFAULT_MAX_VERTICES
    try:
        value = int(raw)
    except ValueError as exc:
        raise ResourceLimitError(
            f"{MAX_VERTICES_ENV} must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise ResourceLimitError(f"{MAX_VERTICES_ENV} must be positive, got {value}")
    return value


def _integer_type(kind: type) -> bool:
    """The type rule for vertex ids: an int or a numpy integer, never a bool."""
    return issubclass(kind, (int, np.integer)) and not issubclass(kind, bool)


def _number_type(kind: type) -> bool:
    """The type rule for edge weights: an int or a float (Python or numpy),
    never a bool."""
    return (issubclass(kind, (int, float, np.integer, np.floating))
            and not issubclass(kind, bool))


def _column_is(column, rule) -> bool:
    """Whether every item of a column has a type that passes the rule; one
    C-level scan of the types, then the rule once per distinct type."""
    return all(map(rule, set(map(type, column))))


_EDGE_FIELDS = (itemgetter(0), itemgetter(1), itemgetter(2))


def _edge_error(i: int, edge, vertex_count: int):
    """What is wrong with edge i, as the constructor words it, or None."""
    try:
        if len(edge) != 3:
            raise ValueError
        u, v, w = edge[0], edge[1], edge[2]
    except (TypeError, KeyError, IndexError, ValueError):
        return f"edge {i}: expected (u, v, weight)"
    if not (_integer_type(type(u)) and _integer_type(type(v))):
        return f"edge {i}: endpoints must be integers, got ({u!r}, {v!r})"
    if not _number_type(type(w)):
        return f"edge {i}: weight must be an int or a float, got {w!r}"
    u, v = int(u), int(v)
    try:
        w = float(w)
    except OverflowError:
        w = math.inf
    if not (0 <= u < vertex_count and 0 <= v < vertex_count):
        return f"edge {i}: endpoint outside 0..{vertex_count - 1}: ({u}, {v})"
    if u == v:
        return f"edge {i}: self loop at {u}"
    if not math.isfinite(w) or w <= 0.0:
        return f"edge {i}: weight must be finite and > 0, got {w}"
    return None


def _first_edge_error(edge_list, vertex_count: int) -> str:
    """_edge_error's words for the first bad edge of a list that has one."""
    for i, edge in enumerate(edge_list):
        message = _edge_error(i, edge, vertex_count)
        if message is not None:
            return message


def _edge_columns(edge_list, vertex_count: int):
    """The edges as canonical (tails, heads, weights) arrays, validated as
    arrays; a bad edge raises GraphValidationError with _edge_error's words
    for the first bad edge in list order."""
    count = len(edge_list)
    try:
        if set(map(len, edge_list)) != {3}:
            raise ValueError("not all edges have three fields")
        columns = [list(map(field, edge_list)) for field in _EDGE_FIELDS]
        if not (_column_is(columns[0], _integer_type)
                and _column_is(columns[1], _integer_type)
                and _column_is(columns[2], _number_type)):
            raise TypeError("an endpoint or a weight has the wrong type")
        tails = np.fromiter(columns[0], dtype=np.int64, count=count)
        heads = np.fromiter(columns[1], dtype=np.int64, count=count)
        weights = np.fromiter(columns[2], dtype=np.float64, count=count)
    except (TypeError, KeyError, IndexError, ValueError, OverflowError):
        raise GraphValidationError(_first_edge_error(edge_list, vertex_count)) from None
    bad = ((tails < 0) | (tails >= vertex_count) | (heads < 0)
           | (heads >= vertex_count) | (tails == heads)
           | ~(np.isfinite(weights) & (weights > 0.0)))
    if bad.any():
        i = int(bad.argmax())
        raise GraphValidationError(_edge_error(i, edge_list[i], vertex_count))
    return np.minimum(tails, heads), np.maximum(tails, heads), weights


class WeightedGraph:
    """Immutable connected weighted graph with dense vertex ids 0..n-1.

    Edges are stored once in canonical form (u < v, sorted lexicographically).
    The constructor validates structure and precomputes the symmetric CSR
    adjacency and the vertex measure.  Every array the graph holds (the
    edge columns, `vertex_measure` and the `data`, `indices` and `indptr`
    of `adjacency`) is read-only.

    Each edge is a sequence (u, v, weight).  The endpoints, vertex_count and
    root are ints or numpy integers, never bools; a weight is an int or a
    float (Python or numpy), never a bool, finite and > 0.  Nothing is
    truncated or parsed: (0.7, 1, 1.0) and (0, 1, True) are rejected.  The
    edges are checked as three arrays at once, and a GraphValidationError
    names the first bad edge.
    """

    __slots__ = ("vertex_count", "root", "edge_tails", "edge_heads",
                 "edge_weights", "adjacency", "vertex_measure")

    def __init__(self, vertex_count: int, edges, root: int = 0):
        if not _integer_type(type(vertex_count)) or vertex_count < 2:
            raise GraphValidationError(
                f"vertex_count must be an integer >= 2, got {vertex_count!r}")
        vertex_count = int(vertex_count)
        if not _integer_type(type(root)) or not 0 <= root < vertex_count:
            raise GraphValidationError(f"root {root!r} outside 0..{vertex_count - 1}")

        edge_list = list(edges)
        if not edge_list:
            raise GraphValidationError("graph has no edges")
        tails, heads, weights = _edge_columns(edge_list, vertex_count)

        order = np.lexsort((heads, tails))
        tails, heads, weights = tails[order], heads[order], weights[order]
        dup = (tails[1:] == tails[:-1]) & (heads[1:] == heads[:-1])
        if dup.any():
            j = int(np.flatnonzero(dup)[0])
            raise GraphValidationError(
                f"duplicate edge ({tails[j]}, {heads[j]})")

        both_u = np.concatenate([tails, heads])
        both_v = np.concatenate([heads, tails])
        both_w = np.concatenate([weights, weights])
        adjacency = sp.csr_matrix((both_w, (both_u, both_v)),
                                  shape=(vertex_count, vertex_count))

        n_comp = csgraph.connected_components(adjacency, directed=False,
                                              return_labels=False)
        if n_comp != 1:
            raise GraphValidationError(f"graph is disconnected ({n_comp} components)")

        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "root", int(root))
        object.__setattr__(self, "edge_tails", tails)
        object.__setattr__(self, "edge_heads", heads)
        object.__setattr__(self, "edge_weights", weights)
        vertex_measure = np.asarray(adjacency.sum(axis=1)).ravel()
        object.__setattr__(self, "adjacency", adjacency)
        object.__setattr__(self, "vertex_measure", vertex_measure)
        for arr in (tails, heads, weights, vertex_measure,
                    adjacency.data, adjacency.indices, adjacency.indptr):
            arr.setflags(write=False)

    def __setattr__(self, name, value):
        raise AttributeError("WeightedGraph is immutable")

    @property
    def edge_count(self) -> int:
        return self.edge_tails.size

    @property
    def edges(self):
        """Canonical edge list as (u, v, weight) tuples with u < v."""
        return list(zip(self.edge_tails.tolist(), self.edge_heads.tolist(),
                        self.edge_weights.tolist()))

    def neighbors(self, x: int):
        """Neighbor ids and the corresponding edge weights of vertex x."""
        row = self.adjacency
        start, stop = row.indptr[x], row.indptr[x + 1]
        return row.indices[start:stop], row.data[start:stop]

    def __eq__(self, other):
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return (self.vertex_count == other.vertex_count
                and self.root == other.root
                and np.array_equal(self.edge_tails, other.edge_tails)
                and np.array_equal(self.edge_heads, other.edge_heads)
                and np.array_equal(self.edge_weights, other.edge_weights))

    def __hash__(self):
        return hash((self.vertex_count, self.root, self.edge_tails.tobytes(),
                     self.edge_heads.tobytes(), self.edge_weights.tobytes()))

    def __repr__(self):
        return (f"WeightedGraph(vertices={self.vertex_count}, "
                f"edges={self.edge_count}, root={self.root})")


class BallProfile:
    """Radial structure of a rooted graph.

    Attributes
    ----------
    radius_of : int array, hop distance from the root per vertex.
    eccentricity : largest radius present in the host.
    R_max : largest radius whose ball has a nonempty exterior
        (= eccentricity - 1).
    W : float array of length eccentricity + 1; W[n] is the vertex measure
        of the closed ball B_n.
    b : float array of length eccentricity; b[k] is the total conductance
        of edges from B_k to its complement.
    M : float array, prefix sums of b (cut-volume sums M_N).
    """

    __slots__ = ("graph", "radius_of", "eccentricity", "R_max", "W", "b", "M")

    def __init__(self, graph: WeightedGraph):
        dist = csgraph.dijkstra(graph.adjacency, directed=False,
                                unweighted=True, indices=graph.root)
        radius_of = dist.astype(np.int64)
        ecc = int(radius_of.max())

        ru = radius_of[graph.edge_tails]
        rv = radius_of[graph.edge_heads]
        if np.abs(ru - rv).max() > 1:
            # cannot happen for a hop metric; guards against internal misuse
            raise GraphValidationError("adjacent vertices with radii differing by > 1")

        sphere_measure = np.bincount(radius_of, weights=graph.vertex_measure,
                                     minlength=ecc + 1)
        W = np.cumsum(sphere_measure)

        crossing = ru != rv
        cut_level = np.minimum(ru, rv)[crossing]
        b = np.bincount(cut_level, weights=graph.edge_weights[crossing],
                        minlength=max(ecc, 1))[:ecc]
        M = np.cumsum(b)

        self.graph = graph
        self.radius_of = radius_of
        self.eccentricity = ecc
        self.R_max = ecc - 1
        self.W = W
        self.b = b
        self.M = M
        radius_of.setflags(write=False)
        W.setflags(write=False)
        b.setflags(write=False)
        M.setflags(write=False)

    def ball_mask(self, R: int) -> np.ndarray:
        """Boolean mask of the closed ball B_R."""
        self._check_radius(R)
        return self.radius_of <= R

    def sphere(self, k: int) -> np.ndarray:
        """Vertex ids at hop distance exactly k, ascending."""
        if not 0 <= k <= self.eccentricity:
            raise ValueError(f"sphere index {k} outside 0..{self.eccentricity}")
        return np.flatnonzero(self.radius_of == k)

    def _check_radius(self, R: int):
        if not isinstance(R, (int, np.integer)) or R < 0:
            raise ValueError(f"radius must be a nonnegative integer, got {R!r}")
        if R > self.R_max:
            raise ValueError(f"radius {R} exceeds R_max = {self.R_max}")

    def __repr__(self):
        return (f"BallProfile(vertices={self.graph.vertex_count}, "
                f"eccentricity={self.eccentricity}, R_max={self.R_max})")


def ball_profile(graph: WeightedGraph) -> BallProfile:
    """Compute the radial profile (radii, W, b, M, R_max) of a rooted graph."""
    return BallProfile(graph)


def _check_budget(requested: int, what: str):
    budget = max_vertex_budget()
    if requested > budget:
        raise ResourceLimitError(
            f"{what} needs {requested} vertices, over the budget of {budget} "
            f"(set {MAX_VERTICES_ENV} to raise it)")


def build_lattice(dimension: int, half_side: int) -> WeightedGraph:
    """Integer lattice box [-half_side, half_side]^dimension, unit weights.

    The root is the origin (id 0).  Vertex ids are assigned by
    (hop radius, lexicographic coordinates), so ids are deterministic and
    radial structure is id-ordered.  Balls B_n agree with the infinite
    lattice for n <= half_side - 1 in every dimension.
    """
    if dimension not in (1, 2, 3, 4):
        raise ValueError(f"dimension must be in 1..4, got {dimension!r}")
    if not isinstance(half_side, (int, np.integer)) or half_side < 1:
        raise ValueError(f"half_side must be a positive integer, got {half_side!r}")
    count = (2 * half_side + 1) ** dimension
    _check_budget(count, f"lattice({dimension}, {half_side})")

    side = 2 * half_side + 1
    # columns of coords run through the box in lexicographic order; a
    # stable sort by l1 radius gives the ids
    coords = np.indices((side,) * dimension).reshape(dimension, -1) - half_side
    order = np.argsort(np.abs(coords).sum(axis=0), kind="stable")
    ids = np.empty(count, dtype=np.int64)
    ids[order] = np.arange(count)
    # one step up along an axis moves the lexicographic index by a stride
    strides = side ** np.arange(dimension - 1, -1, -1)
    tails, axes = np.nonzero(coords[:, order].T < half_side)
    heads = ids[order[tails] + strides[axes]]
    edges = list(zip(tails.tolist(), heads.tolist(), itertools.repeat(1.0)))
    return WeightedGraph(count, edges, root=0)


def build_tree(branching: int, depth: int) -> WeightedGraph:
    """Rooted tree where every vertex above the leaf level has `branching`
    children; unit weights; ids in breadth-first order (root 0)."""
    if not isinstance(branching, (int, np.integer)) or branching < 2:
        raise ValueError(f"branching must be an integer >= 2, got {branching!r}")
    if not isinstance(depth, (int, np.integer)) or depth < 1:
        raise ValueError(f"depth must be a positive integer, got {depth!r}")
    count = (branching ** (depth + 1) - 1) // (branching - 1)
    _check_budget(count, f"tree({branching}, {depth})")

    edges = []
    level_start, level_size = 0, 1
    next_id = 1
    for _ in range(depth):
        for parent in range(level_start, level_start + level_size):
            for _ in range(branching):
                edges.append((parent, next_id, 1.0))
                next_id += 1
        level_start += level_size
        level_size *= branching
    return WeightedGraph(count, edges, root=0)


def build_radial_model(sphere_sizes, edge_weight_profile) -> WeightedGraph:
    """Layered graph with prescribed sphere sizes and per-layer edge weights.

    sphere_sizes[k] vertices sit at radius k (sphere_sizes[0] must be 1, the
    root); every radius-(k+1) vertex is joined to exactly one radius-k parent
    by round-robin matching, with weight edge_weight_profile[k].  Sphere
    sizes must be nondecreasing so the matching covers each child once.
    """
    sizes = [int(s) for s in sphere_sizes]
    weights = [float(w) for w in edge_weight_profile]
    if len(sizes) < 2:
        raise ValueError("need at least two spheres")
    if len(weights) != len(sizes) - 1:
        raise ValueError(
            f"need one weight per consecutive-sphere layer: "
            f"{len(sizes)} spheres require {len(sizes) - 1} weights, got {len(weights)}")
    if sizes[0] != 1:
        raise ValueError(f"sphere_sizes[0] must be 1 (the root), got {sizes[0]}")
    for k, s in enumerate(sizes):
        if s < 1:
            raise ValueError(f"sphere_sizes[{k}] must be positive, got {s}")
    for k in range(len(sizes) - 1):
        if sizes[k + 1] < sizes[k]:
            raise ValueError(
                f"sphere_sizes must be nondecreasing; shrinks at layer {k}: "
                f"{sizes[k]} -> {sizes[k + 1]}")
    for k, w in enumerate(weights):
        if not np.isfinite(w) or w <= 0.0:
            raise ValueError(f"edge_weight_profile[{k}] must be finite and > 0, got {w}")
    count = sum(sizes)
    _check_budget(count, "radial model")

    starts = np.concatenate([[0], np.cumsum(sizes)])
    edges = []
    for k, w in enumerate(weights):
        parent_base, child_base = starts[k], starts[k + 1]
        for j in range(sizes[k + 1]):
            edges.append((parent_base + j % sizes[k], child_base + j, w))
    return WeightedGraph(count, edges, root=0)


@contextlib.contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector while JSON builds or walks one
    Python object per edge: none of them can form a cycle, and each
    collection would scan them all again.  The collector's previous state
    is restored on exit."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def save_graph(graph: WeightedGraph, path) -> None:
    """Write a graph as JSON: {"vertex_count", "root", "edges": [[u, v, w]...]}
    with the canonical (u < v, sorted) edge order and full float precision."""
    with _collector_paused():
        payload = {
            "vertex_count": graph.vertex_count,
            "root": graph.root,
            "edges": graph.edges,
        }
        text = json.dumps(payload, sort_keys=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _json_edge_ok(item) -> bool:
    return (type(item) is list and len(item) == 3 and _integer_type(type(item[0]))
            and _integer_type(type(item[1])) and _number_type(type(item[2])))


def load_graph(path) -> WeightedGraph:
    """Read a graph written by save_graph, validating structure.

    vertex_count, root and the edge endpoints must be JSON integers (not
    true/false), the weights JSON numbers (not true/false): the
    constructor's type rule, which the constructor checks in its one scan
    of the edges.  Only a file the constructor rejects is walked item by
    item, to name the first edge of the wrong JSON shape or type.

    Raises GraphFormatError naming the offending field on malformed input,
    GraphValidationError on structural problems.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            with _collector_paused():
                raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise GraphFormatError(f"{path}: not valid JSON "
                                   f"(line {exc.lineno}, column {exc.colno})") from exc
    if not isinstance(raw, dict):
        raise GraphFormatError(f"{path}: top level must be an object")
    for key in ("vertex_count", "root", "edges"):
        if key not in raw:
            raise GraphFormatError(f"{path}: missing key {key!r}")
    if not _integer_type(type(raw["vertex_count"])):
        raise GraphFormatError(f"{path}: vertex_count must be an integer")
    if not _integer_type(type(raw["root"])):
        raise GraphFormatError(f"{path}: root must be an integer")
    edges = raw["edges"]
    if not isinstance(edges, list):
        raise GraphFormatError(f"{path}: edges must be a list")
    try:
        return WeightedGraph(raw["vertex_count"], edges, root=raw["root"])
    except GraphValidationError:
        # of JSON values the constructor takes exactly the [int, int,
        # number] lists, so a rejected file either has a malformed edge,
        # named here, or a bad value, raised as it is
        bad = next(((i, item) for i, item in enumerate(edges)
                    if not _json_edge_ok(item)), None)
        if bad is None:
            raise
        i, item = bad
        raise GraphFormatError(
            f"{path}: edges[{i}] must be [int, int, number], got {item!r}") from None
