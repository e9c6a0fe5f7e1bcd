"""The sandwich battery of the `verify` CLI subcommand: it squeezes L_R
between the chain's lower bound and the upper bound that the radial shot
(green.shoot_radial_supersolution) gives on fixed small balls, and reports
the least margin; no margin at all reads as None.  Nothing here draws at
random.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .flows import analyze_ball
from .graphs import ball_profile, build_lattice, build_tree
from .green import sandwich_upper_bound, shoot_radial_supersolution
from .operators import ExponentParams


# ---------------------------------------------------------------------------
# the sandwich battery


@dataclass
class SuiteReport:
    """Outcome of one suite: worst_margin is the least margin over the
    cases that have one, and None (JSON null) when none has: a running
    minimum left at its starting inf is stored as None."""

    name: str
    trials: int
    violations: int
    worst_margin: float | None
    ok: bool
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.worst_margin == np.inf:
            self.worst_margin = None


def sandwich_suite() -> SuiteReport:
    """Squeeze L_R between analyze_ball's cut-series bound and the
    supersolution bound: on tree(2, 6) at p=2, sigma=3 with R = 2, 3, 4
    and at p=3, sigma=4 with R=3, and on lattice(2, 5), which is not
    spherically symmetric, at p=2, sigma=3 with R = 2, 3.

    Each graph and (p, sigma) shoots once, from the start u0 details
    records, and sandwich_upper_bound judges the shot on each ball.  A
    ball violates when that refuses the shot (details hold "no certified
    bound: " and its message) or lower <= L <= upper fails.  worst_margin
    is the least min(L - lower, upper - L), and None when no ball got that
    far.  Errors of the lower bound propagate.

    Tests check the same sandwich on every ladder row of report, so this
    battery, run_suites and the `verify` subcommand that prints it stay
    only because the benchmark's tracer (bench/spans.py) wraps
    verify.run_suites by name; they go when the tracer stops naming it.
    """
    details = {}
    violations = 0
    worst = np.inf
    for family, graph, cases in (
            ("tree", build_tree(2, 6),
             ((2.0, 3.0, (2, 3, 4)), (3.0, 4.0, (3,)))),
            ("lattice-2d", build_lattice(2, 5), ((2.0, 3.0, (2, 3)),))):
        profile = ball_profile(graph)
        for p, sigma, radii in cases:
            params = ExponentParams(p=p, sigma=sigma)
            shot = shoot_radial_supersolution(graph, params, profile)
            for R in radii:
                key = f"{family}-p{params.p}-sigma{params.sigma}-R{R}"
                ball = analyze_ball(graph, profile, R, params)
                try:
                    upper = sandwich_upper_bound(graph, profile, ball.green,
                                                 shot, params)
                except ValueError as exc:
                    violations += 1
                    details[key] = f"no certified bound: {exc}"
                    continue
                lower, L = ball.chain.rhs, ball.chain.L
                margin = min(L - lower, upper - L)
                worst = min(worst, margin)
                details[key] = {"lower": lower, "L": L, "upper": upper,
                                "u0": float(shot[graph.root])}
                if margin <= 0.0:
                    violations += 1
    return SuiteReport(name="sandwich", trials=len(details), violations=violations,
                       worst_margin=float(worst), ok=violations == 0,
                       details=details)


def run_suites() -> list:
    """The reports the `verify` subcommand prints: [sandwich_suite()].

    It stays only because the benchmark's tracer (bench/spans.py) wraps
    verify.run_suites by name, and a traced run fails without it.
    """
    return [sandwich_suite()]
