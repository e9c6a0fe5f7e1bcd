"""The discrete p-Laplacian and its associated forms.

For 1 < p < infinity write phi_p(t) = |t|^(p-2) t.  On a weighted graph the
p-Laplacian of f at x is

    lap_p f(x) = (1/mu(x)) * sum_{y ~ x} w(x,y) phi_p(f(y) - f(x)),

the Dirichlet pairing of f against a test function psi is

    sum_{edges {x,y}} w(x,y) phi_p(f(x) - f(y)) (psi(x) - psi(y)),

and the p-energy is the pairing of f with itself, sum w |df|^p.  Summation
by parts makes pairing(f, psi) = sum_x (-lap_p f)(x) psi(x) mu(x) exactly
on a finite graph.  p_laplacian_all evaluates lap_p at every vertex at
once.  One rule, supersolution_shortfall, judges every candidate
supersolution of -lap_p u >= u^sigma, the radial shot included; it sums
the same terms over the edges of its interior alone.

A function on the vertices is a plain float64 array, one value per
vertex id.  Every operator here takes an array-like and passes it through
as_values, the one check of its shape and finiteness; the Green function
and the radial shot hold theirs as read-only arrays.

Exponent bookkeeping for the source problem -lap_p u >= u^sigma lives in
ExponentParams: r = p - 1 (degree of the current nonlinearity),
eta = sigma - p + 1 (must be positive), and the path Hardy constant
c_hardy = 2^(-p) (eta/r)^r.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import WeightedGraph, _text_rows


@dataclass(frozen=True)
class ExponentParams:
    """Exponent pair (p, sigma) with the derived quantities used throughout.

    Requires p > 1 and eta = sigma - p + 1 > 0 in doubles (so sigma > p - 1).
    """

    p: float
    sigma: float

    def __post_init__(self):
        p, sigma = check_p(self.p), float(self.sigma)
        if not np.isfinite(sigma) or not sigma - p + 1.0 > 0.0:
            raise ValueError(f"sigma must be finite and > p - 1 = {p - 1} (eta > 0), got {sigma!r}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "sigma", sigma)

    @property
    def r(self) -> float:
        """Degree of the p-current nonlinearity, p - 1."""
        return self.p - 1.0

    @property
    def eta(self) -> float:
        """sigma - p + 1, the exponent surplus over the p-harmonic case."""
        return self.sigma - self.p + 1.0

    @property
    def c_hardy(self) -> float:
        """Path Hardy constant 2^(-p) * (eta/r)^r."""
        return 2.0 ** (-self.p) * (self.eta / self.r) ** self.r

    @property
    def growth_exponent(self) -> float:
        """p*sigma/(p-1) - 1, the power of n in the volume series terms.

        Algebraically equal to r + eta + eta/r.
        """
        return self.p * self.sigma / (self.p - 1.0) - 1.0


def as_values(f, graph: WeightedGraph) -> np.ndarray:
    """f as a float64 array of one finite value per vertex of graph, or
    ValueError: the one shape and finiteness check of vertex functions.
    A float64 array of that shape comes back as itself, not a copy."""
    values = np.asarray(f, dtype=np.float64)
    if values.shape != (graph.vertex_count,):
        raise ValueError(
            f"expected {graph.vertex_count} vertex values, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError("vertex values must all be finite")
    return values


def _vertex_function_bytes(values: np.ndarray) -> bytes:
    """The CSV of save_vertex_function for these values, as bytes: the rows
    csv.writer's excel dialect writes for [i, repr(v)] under the header
    vertex,value (CRLF line ends; an int and a float repr never need
    quoting), laid out by _text_rows: -0.0, nan and inf keep their text."""
    rows = _text_rows(np.arange(values.size), b",", values, b"\r\n")
    return b"vertex,value\r\n" + rows[rows != 0].tobytes()


def save_vertex_function(values: np.ndarray, path) -> None:
    """Write one value per vertex as CSV with header vertex,value (full
    precision): the bytes of _vertex_function_bytes, in one write."""
    with open(path, "wb") as fh:
        fh.write(_vertex_function_bytes(values))


def check_p(p: float) -> float:
    """The one validation of the exponent: p as a float, finite and > 1."""
    p = float(p)
    if not np.isfinite(p) or p <= 1.0:
        raise ValueError(f"p must be finite and > 1, got {p!r}")
    return p


def phi_p(t, p: float):
    """phi_p(t) = |t|^(p-2) t, elementwise; odd and (p-1)-homogeneous."""
    p = check_p(p)
    t = np.asarray(t, dtype=np.float64)
    result = np.sign(t) * np.abs(t) ** (p - 1.0)
    return result if result.ndim else float(result)


def _net_currents(values: np.ndarray, p: float, tails: np.ndarray,
                  heads: np.ndarray, weights: np.ndarray,
                  vertex_count: int) -> np.ndarray:
    """sum_y w(x,y) phi_p(values[y] - values[x]) at every vertex x, over
    the given edges: the currents into x minus those out of x, each sum
    added in the order the edges are given.  np.add.at adds them as
    bincount does, and reads a graph's read-only columns in place where
    bincount would copy them."""
    currents = weights * phi_p(values[tails] - values[heads], p)
    # current flows tail -> head when values[tail] > values[head]
    into, out = np.zeros(vertex_count), np.zeros(vertex_count)
    np.add.at(into, heads, currents)
    np.add.at(out, tails, currents)
    return into - out


def p_laplacian_all(graph: WeightedGraph, f, p: float) -> np.ndarray:
    """lap_p f at every vertex (vectorized over edges)."""
    p = check_p(p)
    values = as_values(f, graph)
    return _net_currents(values, p, graph.edge_tails, graph.edge_heads,
                         graph.edge_weights, graph.vertex_count) \
        / graph.vertex_measure


def p_energy(graph: WeightedGraph, f, p: float) -> float:
    """sum over edges of w * |f(u) - f(v)|^p (always >= 0)."""
    p = check_p(p)
    values = as_values(f, graph)
    drops = values[graph.edge_tails] - values[graph.edge_heads]
    return float(np.dot(graph.edge_weights, np.abs(drops) ** p))


def defect_tolerance(u_sup: float, p: float) -> float:
    """Absolute tolerance for -lap_p u >= 0 at a zero of u: 1e-10 scaled
    by max(1, ||u||_inf ^ (p-1)), so never below 1e-10."""
    return 1e-10 * max(1.0, float(u_sup) ** (p - 1.0))


def _interior_mask(graph: WeightedGraph, interior) -> np.ndarray:
    """interior as a boolean vertex mask (every vertex when None), or ValueError."""
    if interior is None:
        return np.ones(graph.vertex_count, dtype=bool)
    mask = np.asarray(interior)
    if mask.dtype != np.bool_ or mask.shape != (graph.vertex_count,):
        raise ValueError(f"interior must be a boolean mask of {graph.vertex_count} vertices")
    return mask


def supersolution_shortfall(graph: WeightedGraph, u, params: ExponentParams,
                            interior=None) -> np.ndarray:
    """The supersolution defect of u as a fraction of u^sigma: how far
    -lap_p u may fall short of u^sigma on the interior, a boolean vertex
    mask (every vertex when None), in vertex order.  That is (u^sigma +
    lap_p u + e) / u^sigma, with e = 1e-10 (u^sigma + (1/mu) sum_y w
    |Phi_p(du)|) charged for rounding the evaluation, and +inf wherever
    u^sigma is below the normal doubles, which hold it to less than the
    relative precision that charge assumes.  Where all are < 1, c u with
    c^eta = 1 - max(0, largest) is a supersolution.  Requires u >= 0.

    Both sums run over the edges incident to the interior alone, in
    canonical order, so each interior vertex adds the same terms in the
    same order as over every edge."""
    values = as_values(u, graph)
    if values.min() < 0.0:
        raise ValueError(f"u must be nonnegative everywhere; min is {values.min()}")
    mask = _interior_mask(graph, interior)
    near = mask[graph.edge_tails] | mask[graph.edge_heads]
    tails, heads = graph.edge_tails[near], graph.edge_heads[near]
    weights, n = graph.edge_weights[near], graph.vertex_count
    charge = 1e-10 * np.abs(values[tails] - values[heads]) ** params.r
    charge = np.bincount(np.concatenate((tails, heads)),
                         weights=np.tile(weights * charge, 2), minlength=n)
    measure = graph.vertex_measure[mask]
    lap = _net_currents(values, params.p, tails, heads, weights, n)[mask] / measure
    source = values[mask] ** params.sigma
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        delta = (1.0 + 1e-10) + (lap + charge[mask] / measure) / source
    sound = (source >= np.finfo(np.float64).tiny) & ~np.isnan(delta)
    return np.where(sound, delta, np.inf)
