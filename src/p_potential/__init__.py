"""Numerical potential theory for the p-Laplacian on weighted graphs.

Green functions on balls, capacities, unit-current path decompositions,
and volume-growth series reports, with every inequality in the chain from
local estimates to the nonexistence criterion checked numerically.
"""

from .criterion import (CONVERGES, DIVERGES, INCONCLUSIVE, DyadicReport,
                        MidrangeRow, SeriesReport, TailEstimate, classify,
                        cut_series_terms, cut_volume_check, dyadic_blocks,
                        exponent_identity, extrapolate_cut_tail,
                        midrange_cut_bound, volume_series_terms)
from .dirichlet import (MinimizeReport, SolveOptions, StageReport,
                        minimize_p_dirichlet)
from .errors import (ConsistencyError, GraphFormatError, GraphValidationError,
                     PotentialError, ResourceLimitError, SolverError,
                     VerificationError)
from .flows import (BallAnalysis, ChainReport, CheckRecord, PathMeasure,
                    UnitFlow, analyze_ball, decompose_paths, edge_marginals,
                    empirical_lower_bound, flow_checks, orient_flow)
from .graphs import (BallProfile, WeightedGraph, ball_profile, build_lattice,
                     build_radial_model, build_tree, load_graph, save_graph)
from .green import (LOOKS_NON_PARABOLIC, LOOKS_PARABOLIC, GreenFunction,
                    ProbeReport, compute_L, green_normalization_check,
                    parabolicity_probe, sandwich_upper_bound,
                    shoot_radial_supersolution, solve_green)
from .operators import (ExponentParams, as_values, p_energy, p_laplacian_all,
                        phi_p, save_vertex_function)
from .verify import SuiteReport, run_suites, sandwich_suite

__version__ = "0.1.0"

__all__ = [
    "BallAnalysis", "BallProfile", "ChainReport", "CheckRecord",
    "ConsistencyError", "CONVERGES", "DIVERGES", "DyadicReport",
    "ExponentParams", "GraphFormatError", "GraphValidationError",
    "GreenFunction", "INCONCLUSIVE", "LOOKS_NON_PARABOLIC",
    "LOOKS_PARABOLIC", "MidrangeRow", "MinimizeReport", "PathMeasure",
    "PotentialError", "ProbeReport", "ResourceLimitError", "SeriesReport",
    "SolveOptions", "SolverError", "StageReport",
    "SuiteReport", "TailEstimate", "UnitFlow",
    "VerificationError", "WeightedGraph", "analyze_ball",
    "as_values", "ball_profile", "build_lattice", "build_radial_model",
    "build_tree", "classify", "compute_L", "cut_series_terms",
    "cut_volume_check", "decompose_paths", "dyadic_blocks", "edge_marginals",
    "empirical_lower_bound", "exponent_identity", "extrapolate_cut_tail",
    "flow_checks", "green_normalization_check",
    "load_graph", "midrange_cut_bound", "minimize_p_dirichlet", "orient_flow",
    "p_energy", "p_laplacian_all", "parabolicity_probe", "phi_p",
    "run_suites", "sandwich_suite", "sandwich_upper_bound",
    "save_graph", "save_vertex_function", "shoot_radial_supersolution",
    "solve_green", "volume_series_terms",
]
