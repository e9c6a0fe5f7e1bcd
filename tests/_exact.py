"""Exact p = 2 Green functions on balls, in rational arithmetic.

At p = 2 the Green problem on B_R is one linear system,

    sum_y w(x, y) (g(x) - g(y)) = 1_{x = o}   for x in B_R,   g = 0 outside,

whose coefficients are the edge weights.  A float weight is an exact
rational, so fractions.Fraction solves the system exactly.  green_exact
eliminates the unknowns from the rim inward, so the pole is the last
pivot, then substitutes back.  The matrix is symmetric and weakly
diagonally dominant, strictly on the rows of the rim, and irreducible on
a connected ball, so it is positive definite: every pivot is positive and
none needs a search.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def _ball_system(graph, ball: np.ndarray) -> dict:
    """{x: {y: coefficient}} for the rows x of B_R, over its columns."""
    rows = {int(x): {int(x): Fraction(0)} for x in np.flatnonzero(ball)}
    for x, y, w in zip(graph.edge_tails.tolist(), graph.edge_heads.tolist(),
                       graph.edge_weights.tolist()):
        w = Fraction(w)
        for a, b in ((x, y), (y, x)):
            if a in rows:
                rows[a][a] += w
                if b in rows:
                    rows[a][b] = rows[a].get(b, Fraction(0)) - w
    return rows


def green_exact(graph, profile, R: int) -> dict:
    """{x: g_R(x)} for every vertex x of B_R, as exact Fractions, with the
    pole at the graph's root."""
    ball = profile.ball_mask(R)
    rows = _ball_system(graph, ball)
    rhs = {x: Fraction(int(x == graph.root)) for x in rows}
    ids = np.flatnonzero(ball)
    order = ids[np.argsort(-profile.radius_of[ids], kind="stable")].tolist()
    order.remove(graph.root)
    order.append(graph.root)

    # row k holds only the columns not yet eliminated; the pattern stays
    # symmetric, so those are exactly the rows left that hold column k.
    # Each of them drops column k, and row k keeps its own for the back
    # substitution.
    for k in order:
        row = rows[k]
        for j in row:
            if j == k:
                continue
            target = rows[j]
            factor = target.pop(k) / row[k]
            for c, value in row.items():
                if c != k:
                    target[c] = target.get(c, Fraction(0)) - factor * value
            rhs[j] -= factor * rhs[k]
    g = {}
    for k in reversed(order):
        row = rows[k]
        later = sum(value * g[c] for c, value in row.items() if c != k)
        g[k] = (rhs[k] - later) / row[k]
    return g
