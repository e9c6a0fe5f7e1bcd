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

A graph holds its three edge columns, the vertex measure and the hop
radius of every vertex, and nothing else.  The sorted edge arrays are
already the CSR of the adjacency's upper triangle, and scipy's sum of that
triangle and its transpose is the constructor's symmetric adjacency; one
breadth-first search along it from the root gives a tree of shortest paths,
whose depths, by pointer doubling over its parents, are the radii; the
adjacency's row sums give the measure, and then it is dropped.
A graph file holds the bytes json.dumps writes for the graph.  save_graph
writes them and load_graph parses them, one block of _BLOCK_EDGES rows at a
time, so neither holds a second byte string of the whole file.  load_graph
certifies the layout from the bytes it parses: each separator where the
writer puts it, each number its repr.  That holds exactly when the file is
the writer's bytes for the parsed arrays.  load_graph drops the file's
bytes before it builds the graph.
Every array file's rows (graph, Green CSV, paths, terms) come from _text_rows.
"""

from __future__ import annotations

import io
import json
import math
import os
import re
from operator import itemgetter

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .errors import GraphFormatError, GraphValidationError, ResourceLimitError

_EPS = float(np.finfo(np.float64).eps)

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


def _as_float(w) -> float:
    """A weight of _number_type as a float: an int past the doubles is an
    infinite weight, which the finiteness checks then refuse."""
    try:
        return float(w)
    except OverflowError:
        return math.inf if w > 0 else -math.inf


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
    u, v, w = int(u), int(v), _as_float(w)
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
    """The edges as (tails, heads, weights) arrays in list order and
    orientation, type-checked in one scan; an edge of the wrong shape or
    type raises GraphValidationError with _edge_error's words for the first
    bad edge in list order."""
    count = len(edge_list)
    try:
        if not set(map(len, edge_list)) <= {3}:
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
    return tails, heads, weights


def _check_count_and_root(vertex_count, root) -> None:
    if not _integer_type(type(vertex_count)) or vertex_count < 2:
        raise GraphValidationError(
            f"vertex_count must be an integer >= 2, got {vertex_count!r}")
    if not _integer_type(type(root)) or not 0 <= root < vertex_count:
        raise GraphValidationError(f"root {root!r} outside 0..{vertex_count - 1}")


def _in_canonical_order(tails: np.ndarray, heads: np.ndarray) -> bool:
    """Whether u < v on every edge and the edges strictly increase in (u, v),
    the order a graph stores them in."""
    later = tails[1:] > tails[:-1]
    later |= (tails[1:] == tails[:-1]) & (heads[1:] > heads[:-1])
    return bool(later.all() and (tails < heads).all())


def _symmetric_csr(vertex_count: int, tails: np.ndarray, heads: np.ndarray,
                   weights: np.ndarray) -> sp.csr_matrix:
    """The symmetric adjacency of edges in canonical order, with the bytes of
    scipy's COO -> CSR conversion of both orientations: sorted rows, int32
    index arrays where the counts fit.

    Canonical edges are already the rows of the upper triangle, each row's
    heads in increasing order, so their CSR is the edge columns themselves
    with `indptr` from a count of the tails.  scipy's sum of that triangle
    and its transpose builds the rest: the triangles share no entry, so
    every weight is copied, never added.
    """
    indptr = np.zeros(vertex_count + 1, dtype=np.int64)
    np.cumsum(np.bincount(tails, minlength=vertex_count), out=indptr[1:])
    upper = sp.csr_matrix((weights, heads, indptr),
                          shape=(vertex_count, vertex_count))
    return upper + upper.T


def _disconnected(vertex_count: int, tails: np.ndarray, heads: np.ndarray,
                  weights: np.ndarray) -> GraphValidationError:
    """The error for canonical edges that leave the graph disconnected.
    Its components are those of the vertices the edges touch, renumbered
    in order, and one for each vertex they miss."""
    touched, ids = np.unique(np.concatenate((tails, heads)), return_inverse=True)
    ids = ids.reshape(2, -1)
    pieces = csgraph.connected_components(
        _symmetric_csr(touched.size, ids[0], ids[1], weights),
        directed=False, return_labels=False)
    return GraphValidationError(f"graph is disconnected "
                                f"({pieces + vertex_count - touched.size} components)")


def _depths(ancestor: np.ndarray, root: int) -> np.ndarray:
    """The int64 depth of every vertex of a tree given by its parents
    (ancestor[root] is overwritten), by pointer doubling (Wyllie's list
    ranking): each round adds the depth so far of a vertex's ancestor to
    its own and jumps to the ancestor's ancestor, until every ancestor is
    the root, so ceil(log2(height)) rounds over whole arrays.

    The result is a copy made once the rounds' arrays are freed, so the
    array a graph keeps is not left among their holes: without it, the
    peak resident memory of four green solves on lattice(3,16) varied by
    up to 0.8 MB from one process to the next.
    """
    ancestor[root] = root
    depth = np.ones(ancestor.size, dtype=np.int64)
    depth[root] = 0
    while (ancestor != root).any():
        depth += depth[ancestor]
        ancestor = ancestor[ancestor]
    del ancestor
    return depth.copy()


class WeightedGraph:
    """Immutable connected weighted graph with dense vertex ids 0..n-1.

    Edges are stored once in canonical form (u < v, sorted lexicographically).
    The constructor validates structure and computes the vertex measure and
    `radius_of`, the int64 hop distance of every vertex from the root.  Both
    come from a symmetric CSR adjacency that lives only inside the
    constructor: scipy's sum of the upper triangle, whose CSR the canonical
    edge columns are, and its transpose (_symmetric_csr).  One
    breadth-first search from the root gives each vertex's parent in a
    tree of shortest paths, and the radii are the tree's depths, by
    pointer doubling over the parents (_depths); a vertex the search
    leaves out means the graph is disconnected.  The measure is the
    adjacency's row sums, with the bits of scipy's COO -> CSR conversion.
    Every array the graph holds (the edge columns, `vertex_measure` and
    `radius_of`) is its own and read-only.

    Each edge is a sequence (u, v, weight).  The endpoints, vertex_count and
    root are ints or numpy integers, never bools; a weight is an int or a
    float (Python or numpy), never a bool, finite and > 0.  Nothing is
    truncated or parsed: (0.7, 1, 1.0) and (0, 1, True) are rejected.  The
    edges are checked as three arrays at once, and a GraphValidationError
    names the first bad edge.  Every vertex measure and the total measure
    must be finite too: a GraphValidationError names the first vertex
    whose incident weights overflow, or the total measure.
    """

    __slots__ = ("vertex_count", "root", "edge_tails", "edge_heads",
                 "edge_weights", "vertex_measure", "radius_of")

    def __init__(self, vertex_count: int, edges, root: int = 0):
        # the count is checked before the scan, whose messages name it
        _check_count_and_root(vertex_count, root)
        edge_list = list(edges)
        self._set_columns(vertex_count,
                          *_edge_columns(edge_list, int(vertex_count)), root)

    @classmethod
    def _from_columns(cls, vertex_count: int, tails: np.ndarray,
                      heads: np.ndarray, weights: np.ndarray,
                      root: int = 0) -> "WeightedGraph":
        """The graph of the edges (tails[i], heads[i], weights[i]), given as
        int64 and float64 arrays in any order and orientation; the
        constructor's checks, run on the arrays."""
        graph = object.__new__(cls)
        graph._set_columns(vertex_count, tails, heads, weights, root)
        return graph

    def _set_columns(self, vertex_count, tails, heads, weights, root):
        """Validate the edge columns and set every attribute.

        Columns that arrive in canonical order, as a certified file's do,
        are not sorted again; the graph stores copies of them, made once the
        adjacency is dropped.  Otherwise the sort makes new arrays.  Either
        way the caller's arrays stay writable, and no array of the graph
        shares their memory.
        """
        _check_count_and_root(vertex_count, root)
        vertex_count = int(vertex_count)
        if tails.size == 0:
            raise GraphValidationError("graph has no edges")
        bad = ((tails < 0) | (tails >= vertex_count) | (heads < 0)
               | (heads >= vertex_count) | (tails == heads)
               | ~(np.isfinite(weights) & (weights > 0.0)))
        if bad.any():
            i = int(bad.argmax())
            raise GraphValidationError(
                _edge_error(i, (tails[i], heads[i], weights[i]), vertex_count))

        canonical = _in_canonical_order(tails, heads)
        if not canonical:
            tails, heads = np.minimum(tails, heads), np.maximum(tails, heads)
            order = np.lexsort((heads, tails))
            tails, heads, weights = tails[order], heads[order], weights[order]
            del order
            dup = (tails[1:] == tails[:-1]) & (heads[1:] == heads[:-1])
            if dup.any():
                j = int(np.flatnonzero(dup)[0])
                raise GraphValidationError(
                    f"duplicate edge ({tails[j]}, {heads[j]})")

        # n vertices need n - 1 edges to connect them; a file may claim far
        # more vertices than its edges touch, and no array per vertex is made
        # for it
        if tails.size < vertex_count - 1:
            raise _disconnected(vertex_count, tails, heads, weights)
        adjacency = _symmetric_csr(vertex_count, tails, heads, weights)
        # the adjacency is symmetric, so a search along its rows needs no
        # transposed copy, and the vertices it leaves out are those outside
        # the root's component
        order, parent = csgraph.breadth_first_order(
            adjacency, root, directed=True, return_predecessors=True)
        if order.size < vertex_count:
            raise _disconnected(vertex_count, tails, heads, weights)
        radius_of = _depths(parent.astype(np.intp), root)
        del order, parent

        with np.errstate(over="ignore"):
            vertex_measure = np.asarray(adjacency.sum(axis=1)).ravel()
            total = float(vertex_measure.sum())
        del adjacency
        overflows = ~np.isfinite(vertex_measure)
        if overflows.any():
            raise GraphValidationError(
                f"vertex {int(overflows.argmax())}: measure (sum of incident "
                f"weights) is not finite")
        # W_n adds these measures in another order; every order stays finite
        # when the pairwise sum does with room for 2n roundings
        if not math.isfinite(total * (1.0 + 2.0 * vertex_count * _EPS)):
            raise GraphValidationError(
                "total measure (sum of the vertex measures) overflows")
        if canonical:
            # the caller's arrays stay its own and writable; copied last, when
            # the adjacency is gone
            tails, heads, weights = tails.copy(), heads.copy(), weights.copy()

        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "root", int(root))
        object.__setattr__(self, "edge_tails", tails)
        object.__setattr__(self, "edge_heads", heads)
        object.__setattr__(self, "edge_weights", weights)
        object.__setattr__(self, "vertex_measure", vertex_measure)
        object.__setattr__(self, "radius_of", radius_of)
        for arr in (tails, heads, weights, vertex_measure, radius_of):
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

    def __eq__(self, other):
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return (self.vertex_count == other.vertex_count
                and self.root == other.root
                and np.array_equal(self.edge_tails, other.edge_tails)
                and np.array_equal(self.edge_heads, other.edge_heads)
                and np.array_equal(self.edge_weights, other.edge_weights))

    def __repr__(self):
        return (f"WeightedGraph(vertices={self.vertex_count}, "
                f"edges={self.edge_count}, root={self.root})")


class BallProfile:
    """Radial structure of a rooted graph, read from the radii its
    constructor found: the profile runs no search of its own.  The sphere
    and cut sums add each bin's terms in vertex and edge order with
    np.add.at, which reads the graph's read-only arrays in place (bincount
    would copy them) and gives bincount's bits.

    Attributes
    ----------
    radius_of : the graph's read-only int64 array, hop distance from the
        root per vertex.
    eccentricity : largest radius present in the host.
    R_max : largest radius whose ball has a nonempty exterior
        (= eccentricity - 1).
    sphere_measure : float array of length eccentricity + 1; entry k is
        the vertex measure of the sphere S_k.
    W : float array, prefix sums of sphere_measure; W[n] is the vertex
        measure of the closed ball B_n.
    b : float array of length eccentricity; b[k] is the total conductance
        of edges from B_k to its complement.
    M : float array, prefix sums of b (cut-volume sums M_N).
    """

    __slots__ = ("radius_of", "eccentricity", "R_max", "sphere_measure", "W",
                 "b", "M")

    def __init__(self, graph: WeightedGraph):
        radius_of = graph.radius_of
        ecc = int(radius_of.max())

        # narrowest type for every radius: edge arrays stay small beside the
        # edge columns.  Adjacent radii differ by at most one (a hop metric).
        radii = radius_of.astype(np.min_scalar_type(ecc))
        ru, rv = radii[graph.edge_tails], radii[graph.edge_heads]

        sphere_measure = np.zeros(ecc + 1)
        np.add.at(sphere_measure, radius_of, graph.vertex_measure)
        W = np.cumsum(sphere_measure)

        # edges inside a sphere cross no cut: bin ecc, dropped
        cut_level = np.minimum(ru, rv)
        cut_level[ru == rv] = ecc
        b = np.zeros(ecc + 1)
        np.add.at(b, cut_level, graph.edge_weights)
        b = b[:ecc]
        M = np.cumsum(b)

        self.radius_of = radius_of
        self.eccentricity = ecc
        self.R_max = ecc - 1
        self.sphere_measure = sphere_measure
        self.W = W
        self.b = b
        self.M = M
        for arr in (sphere_measure, W, b, M):
            arr.setflags(write=False)

    def ball_mask(self, R: int) -> np.ndarray:
        """Boolean mask of the closed ball B_R."""
        _check_radius(R, self.R_max)
        return self.radius_of <= R

    def __repr__(self):
        return (f"BallProfile(vertices={self.radius_of.size}, "
                f"eccentricity={self.eccentricity}, R_max={self.R_max})")


def ball_profile(graph: WeightedGraph) -> BallProfile:
    """Compute the radial profile (radii, sphere measures, W, b, M, R_max)
    of a rooted graph."""
    return BallProfile(graph)


def _check_radius(R, R_max: int) -> None:
    """The one radius check: ValueError unless R is an integer in [0, R_max]."""
    if not _integer_type(type(R)) or R < 0:
        raise ValueError(f"radius must be a nonnegative integer, got {R!r}")
    if R > R_max:
        raise ValueError(f"radius {R} exceeds R_max = {R_max}")


def _ball_graph(graph: WeightedGraph, R: int):
    """The subgraph induced by B_{R+1}, read from the graph's radii, and
    the host id of each of its vertices, in increasing order; ValueError
    (_check_radius) for an R outside [0, R_max].

    Its vertex i is host vertex host_ids[i].  The renumbering is monotone,
    so the edges stay in canonical order, and the root's shortest paths
    stay inside the ball, so every radius is the host's.  Every edge with
    an endpoint in B_R lies in the subgraph, so the Dirichlet problem on
    B_R is the host's; only the measure of the rim S_{R+1} differs.
    """
    _check_radius(R, int(graph.radius_of.max()) - 1)
    inside = graph.radius_of <= R + 1
    host_ids = np.flatnonzero(inside)
    new_id = np.cumsum(inside) - 1
    keep = inside[graph.edge_tails] & inside[graph.edge_heads]
    ball = WeightedGraph._from_columns(
        host_ids.size, new_id[graph.edge_tails[keep]],
        new_id[graph.edge_heads[keep]], graph.edge_weights[keep],
        root=int(new_id[graph.root]))
    return ball, host_ids


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
    if not _integer_type(type(dimension)) or dimension not in (1, 2, 3, 4):
        raise ValueError(f"dimension must be in 1..4, got {dimension!r}")
    if not _integer_type(type(half_side)) or half_side < 1:
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
    del coords, order, ids, axes  # only the edge columns go on
    return WeightedGraph._from_columns(count, tails, heads,
                                       np.ones(tails.size), root=0)


def build_tree(branching: int, depth: int) -> WeightedGraph:
    """Rooted tree where every vertex above the leaf level has `branching`
    children; unit weights; ids in breadth-first order (root 0)."""
    if not _integer_type(type(branching)) or branching < 2:
        raise ValueError(f"branching must be an integer >= 2, got {branching!r}")
    if not _integer_type(type(depth)) or depth < 1:
        raise ValueError(f"depth must be a positive integer, got {depth!r}")
    count = (branching ** (depth + 1) - 1) // (branching - 1)
    _check_budget(count, f"tree({branching}, {depth})")

    # in breadth-first order the children of vertex x are b*x+1 .. b*x+b
    heads = np.arange(1, count, dtype=np.int64)
    tails = (heads - 1) // branching
    return WeightedGraph._from_columns(count, tails, heads,
                                       np.ones(heads.size), root=0)


def build_radial_model(sphere_sizes, edge_weight_profile) -> WeightedGraph:
    """Layered graph with prescribed sphere sizes and per-layer edge weights.

    sphere_sizes[k] vertices sit at radius k (sphere_sizes[0] must be 1, the
    root); every radius-(k+1) vertex is joined to exactly one radius-k parent
    by round-robin matching, with weight edge_weight_profile[k].  Sphere
    sizes must be nondecreasing so the matching covers each child once.
    """
    sizes, weights = list(sphere_sizes), list(edge_weight_profile)
    for name, values, rule, kind in (
            ("sphere_sizes", sizes, _integer_type, "an integer"),
            ("edge_weight_profile", weights, _number_type, "a number")):
        for k, value in enumerate(values):
            if not rule(type(value)):
                raise ValueError(f"{name}[{k}] must be {kind}, got {value!r}")
    weights = [_as_float(w) for w in weights]
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

    sizes = np.array(sizes, dtype=np.int64)
    starts = np.concatenate([[0], np.cumsum(sizes)])
    # every vertex but the root, layer by layer; child j of layer k + 1
    # hangs from parent j mod sizes[k] of layer k
    heads = np.arange(1, count, dtype=np.int64)
    layer = np.repeat(np.arange(len(weights)), sizes[1:])
    tails = starts[layer] + (heads - starts[layer + 1]) % sizes[layer]
    return WeightedGraph._from_columns(count, tails, heads,
                                       np.array(weights)[layer], root=0)


# ids of more than 18 digits may not fit an int64 and are left to json
_ID_DIGITS = 18
_HEAD = b'{"edges": ['
# json.dumps writes "root" and "vertex_count" after "edges" under sort_keys
_TAIL = re.compile(rb'\], "root": ([0-9]{1,%d}), "vertex_count": ([0-9]{1,%d})\}\n'
                   % (_ID_DIGITS, _ID_DIGITS))
# the longest float.__repr__, as of -2.2250738585072014e-308; a longer
# weight token is not save_graph's
_WEIGHT_CHARS = 24
# edges per block of rows that save_graph formats and load_graph parses at
# a time
_BLOCK_EDGES = 16384


def _distinct_values(x: np.ndarray) -> tuple:
    """The distinct float64 bit patterns of x as Python floats, and the
    index of each entry of x (flattened) into them.  Unlike equality,
    bit patterns keep 0.0 and -0.0 apart and group every nan.  The
    writers' repr and flows._pow_each both run once per entry of it."""
    bits, which = np.unique(np.ascontiguousarray(x, dtype=np.float64)
                            .reshape(-1).view(np.int64), return_inverse=True)
    return bits.view(np.float64).tolist(), which.reshape(-1)


def _text_rows(*columns) -> np.ndarray:
    """The zero-padded byte matrix of a table's rows, one per array entry;
    rows[rows != 0].tobytes() is the text.  A column is a bytes constant,
    repeated on every row; an integer array, as the digits of its
    nonnegative entries; or a float array, as the repr of its entries, run
    once per distinct float64 bit pattern.  Each field is right-aligned
    and padded on the left with zero bytes.  No constant may hold a NUL
    byte, and no array may be empty.
    """
    count = next(column.size for column in columns
                 if not isinstance(column, bytes))
    fields = []
    for column in columns:
        if isinstance(column, bytes):
            field = np.broadcast_to(np.frombuffer(column, dtype=np.uint8),
                                    (count, len(column)))
        elif column.dtype.kind == "f":
            distinct, which = _distinct_values(column)
            texts = np.array([repr(v) for v in distinct], dtype="S")
            field = texts.view(np.uint8).reshape(len(distinct), -1)[which]
        else:
            width = len(str(int(column.max())))
            field = np.zeros((count, width), dtype=np.uint8)
            rest = column
            for place in range(width - 1, -1, -1):
                field[:, place] = np.where(rest > 0, rest % 10 + 48, 0)
                rest = rest // 10
            field[column == 0, -1] = 48
        fields.append(field)
    return np.hstack(fields)


def _graph_blocks(vertex_count: int, root: int, tails: np.ndarray,
                  heads: np.ndarray, weights: np.ndarray):
    """json.dumps({"vertex_count": vertex_count, "root": root, "edges":
    [[u, v, w], ...]}, sort_keys=True) + "\n" as bytes, in pieces: the
    head, the rows of each block of _BLOCK_EDGES edges, and the tail.

    json writes ints and finite floats as their repr, as _text_rows does.
    Each block's rows are formatted on their own, so no piece and no
    temporary grows with the edge count.
    """
    yield _HEAD
    count = tails.size
    for start in range(0, count, _BLOCK_EDGES):
        stop = start + _BLOCK_EDGES
        rows = _text_rows(b"[", tails[start:stop], b", ", heads[start:stop],
                          b", ", weights[start:stop], b"], ")
        text = rows[rows != 0].tobytes()
        yield text if stop < count else text[:-2]  # no ", " after the last row
    yield b'], "root": %d, "vertex_count": %d}\n' % (root, vertex_count)


def _parse_ids(body: np.ndarray, starts: np.ndarray, stops: np.ndarray):
    """The decimal integers body[starts[i]:stops[i]], or None when a field
    is not their repr: empty, longer than _ID_DIGITS, holding a byte that is
    not a digit, or starting with a 0 that is not the whole field."""
    lengths = stops - starts
    if lengths.min() < 1 or lengths.max() > _ID_DIGITS:
        return None
    if ((body[starts] == ord("0")) & (lengths > 1)).any():
        return None
    values = np.zeros(starts.size, dtype=np.int64)
    for k in range(int(lengths.max())):
        inside = k < lengths
        digit = body[np.minimum(starts + k, body.size - 1)].astype(np.int64) - 48
        if (inside & ((digit < 0) | (digit > 9))).any():
            return None
        values = np.where(inside, values * 10 + digit, values)
    return values


def _parse_weights(body: np.ndarray, starts: np.ndarray, stops: np.ndarray):
    """float() of each token body[starts[i]:stops[i]], each distinct token
    parsed once, or None when a token is not the repr of that float (which
    rules out "1_0", "+1.0", "1.00", "1e0", " 1.0" and a NUL byte) or the
    float is not finite."""
    lengths = stops - starts
    if lengths.min() < 1 or lengths.max() > _WEIGHT_CHARS:
        return None
    width = int(lengths.max())
    columns = np.arange(width)
    tokens = body[np.minimum(starts[:, None] + columns, body.size - 1)]
    tokens[columns >= lengths[:, None]] = 0
    distinct, which = np.unique(tokens.view(f"S{width}").ravel(),
                                return_inverse=True)
    texts = distinct.tolist()
    try:
        values = [float(token) for token in texts]
    except ValueError:
        return None
    # texts lose a token's trailing NUL bytes; its length keeps them
    if ([repr(value).encode() for value in values] != texts
            or not np.array_equal(np.char.str_len(distinct)[which], lengths)):
        return None
    values = np.array(values)
    if not np.isfinite(values).all():
        return None
    return values[which]


def _parse_rows(body: np.ndarray, opens: np.ndarray, ends_file: bool):
    """(tails, heads, weights) of the rows "[u, v, w]" that start at the
    offsets opens of body, or None unless body is exactly the rows
    save_graph writes for them, each followed by ", " but the file's last.

    Each row's "]" must sit 3 bytes before the next row's "[" or, in the
    file's last block, be the last byte; there must be 3 commas a row, less
    the file's last ", ", each followed by a space; and every token must be
    its value's repr, so it holds neither a bracket nor a comma.  Then, row
    by row from offset 0, each row's first two commas follow its tail and
    head, and its third can only be the byte after its "]": one byte later
    no space would follow it, and past the next "[" that row's tail would
    hold it.  So body is the writer's bytes.
    """
    closes = np.flatnonzero(body == ord("]"))
    commas = np.flatnonzero(body == ord(","))
    count = opens.size
    if closes.size != count or commas.size != 3 * count - ends_file:
        return None
    if (body.take(commas + 1, mode="clip") != ord(" ")).any():
        return None
    if not np.array_equal(closes + 3, np.append(opens[1:], body.size + 2 * ends_file)):
        return None
    first, second = commas[0::3], commas[1::3]
    tails = _parse_ids(body, opens + 1, first)
    heads = _parse_ids(body, first + 2, second)
    weights = _parse_weights(body, second + 2, closes)
    if tails is None or heads is None or weights is None:
        return None
    return tails, heads, weights


def _canonical_columns(data: bytes):
    """(vertex_count, tails, heads, weights, root) if data is exactly the
    bytes _graph_blocks writes for them, else None.

    The rows are found by their "[" and parsed a block of _BLOCK_EDGES at a
    time: the separators are found with numpy, the endpoints parsed by
    digit arithmetic and each distinct weight token by float().  The parse
    certifies the layout as it reads it: the file is _HEAD, then rows from
    its first byte on, each joined to the next by ", " (_parse_rows), then
    _TAIL; every id and count is its int's repr and every weight its
    float's.  Those are the only bytes json.dumps writes for these values,
    so the checks hold exactly when the file equals the writer's bytes.
    Certified data json-parses to exactly these values, because an int's
    repr is exact and a finite float's repr round-trips.
    """
    end = data.rfind(b'], "root": ')
    if end < len(_HEAD) or not data.startswith(_HEAD):
        return None
    tail = _TAIL.fullmatch(data, end)
    if tail is None or any(b"%d" % int(x) != x for x in tail.groups()):
        return None
    body = np.frombuffer(data, dtype=np.uint8, count=end - len(_HEAD),
                         offset=len(_HEAD))
    opens = np.flatnonzero(body == ord("["))
    count = opens.size
    if count == 0 or opens[0] != 0:
        return None
    tails = np.empty(count, dtype=np.int64)
    heads = np.empty(count, dtype=np.int64)
    weights = np.empty(count)
    for start in range(0, count, _BLOCK_EDGES):
        stop = min(start + _BLOCK_EDGES, count)
        first = opens[start]
        last = opens[stop] if stop < count else body.size
        rows = _parse_rows(body[first:last], opens[start:stop] - first,
                           stop == count)
        if rows is None:
            return None
        tails[start:stop], heads[start:stop], weights[start:stop] = rows
    return int(tail[2]), tails, heads, weights, int(tail[1])


def save_graph(graph: WeightedGraph, path) -> None:
    """Write a graph as JSON: {"vertex_count", "root", "edges": [[u, v, w]...]}
    with the canonical (u < v, sorted) edge order and full float precision.

    The file holds the bytes of json.dumps(payload, sort_keys=True) and a
    newline, made from the edge arrays without a Python object per edge.
    The rows are formatted and written one block of _BLOCK_EDGES edges at a
    time, so beyond the graph the writer holds one block's row matrix.
    """
    with open(path, "wb") as fh:
        fh.writelines(_graph_blocks(graph.vertex_count, graph.root,
                                    graph.edge_tails, graph.edge_heads,
                                    graph.edge_weights))


def _json_edge_ok(item) -> bool:
    return (type(item) is list and len(item) == 3 and _integer_type(type(item[0]))
            and _integer_type(type(item[1])) and _number_type(type(item[2])))


def load_graph(path) -> WeightedGraph:
    """Read a graph written by save_graph, validating structure.

    A file in save_graph's exact layout is parsed from its bytes, one block
    of rows at a time, and certified by the same pass: each separator must
    sit where save_graph puts it and each id, count and weight must be its
    value's repr, which holds exactly when the file is save_graph's bytes
    for the parsed values.  It gives the graph, or the error, that the JSON
    route below gives.
    The file's bytes are dropped before that graph is built, so the peak
    beyond the file and the graph is one block's parse.  Any other file is
    parsed with json.load.

    vertex_count, root and the edge endpoints must be JSON integers (not
    true/false), the weights JSON numbers (not true/false): the
    constructor's type rule, which the constructor checks in its one scan
    of the edges.  Only a file the constructor rejects is walked item by
    item, to name the first edge of the wrong JSON shape or type.

    Raises GraphFormatError naming the offending field on malformed input,
    GraphValidationError on structural problems.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    columns = _canonical_columns(data)
    if columns is not None:
        del data  # the graph is built from the parsed arrays alone
        return WeightedGraph._from_columns(*columns)
    # the text that open(path, "r", encoding="utf-8") reads
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8") as fh:
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
