"""Radial shooting and the sandwich suite."""

import numpy as np
import pytest

from p_potential import (
    ExponentParams,
    ball_profile,
    build_lattice,
    build_tree,
    supersolution_defect,
)
from p_potential.verify import sandwich_suite, shoot_radial_supersolution


def test_shooting_gives_a_supersolution_on_the_interior():
    graph = build_tree(2, 6)
    profile = ball_profile(graph)
    params = ExponentParams(p=3.0, sigma=4.0)
    shot = shoot_radial_supersolution(graph, params, 0.1, profile=profile)
    assert shot.success and shot.break_radius is None
    assert shot.interior_radius == profile.eccentricity - 1
    assert np.all(np.diff(shot.radial_values) < 0.0)
    assert shot.radial_values[-1] > 0.0
    interior = profile.ball_mask(shot.interior_radius)
    defects = supersolution_defect(graph, shot.values, params,
                                   interior=interior)
    assert defects.min() == pytest.approx(shot.worst_defect)
    assert np.all(np.abs(defects) <= 1e-12)  # equality on the interior


def test_shooting_breaks_from_a_large_start():
    graph = build_tree(2, 6)
    shot = shoot_radial_supersolution(graph, ExponentParams(p=2.0, sigma=3.0),
                                      10.0)
    assert not shot.success
    assert shot.values is None and shot.worst_defect is None
    assert shot.break_radius == 1
    assert shot.radial_values[-1] <= 0.0


def test_shooting_edge_cases():
    params = ExponentParams(p=2.0, sigma=3.0)
    tree = build_tree(2, 3)
    zero = shoot_radial_supersolution(tree, params, 0.0)
    assert zero.success and not np.any(zero.values.values)
    with pytest.raises(ValueError, match="nonnegative"):
        shoot_radial_supersolution(tree, params, -1.0)
    with pytest.raises(ValueError, match="spherically symmetric"):
        shoot_radial_supersolution(build_lattice(2, 3), params, 0.1)


def test_sandwich_suite_squeezes_L():
    report = sandwich_suite()
    assert report.name == "sandwich"
    assert report.ok and report.violations == 0
    assert report.trials == len(report.details) == 4
    for case in report.details.values():
        assert case["lower"] < case["L"] < case["upper"]
        assert case["u0"] == 0.1
    assert report.worst_margin == pytest.approx(min(
        min(c["L"] - c["lower"], c["upper"] - c["L"])
        for c in report.details.values()))
