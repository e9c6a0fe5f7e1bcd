"""Radial shooting, the sandwich suite, and the two scalar checks the
random suites sample."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p_potential import (
    ExponentParams,
    ball_profile,
    build_lattice,
    build_tree,
    supersolution_defect,
)
from p_potential.verify import (hardy_check, picone_check, sandwich_suite,
                                shoot_radial_supersolution)


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


# ---------------------------------------------------------------------------
# the scalar checks on the suites' parameter boxes; the slack is the
# suites' own, 1e-12 * max(1, |lhs|, |rhs|)


def _log_uniform():
    """Magnitudes log-uniform on [1e-6, 1e3], as the suites draw them."""
    return st.floats(np.log(1e-6), np.log(1e3)).map(np.exp)


@st.composite
def _picone_tuples(draw):
    """p on (1, 4], sigma on (p - 1 + 1e-3, 6], a, b, s, t log-uniform,
    and sometimes t = s, the equality case picone_suite also hits."""
    p = draw(st.floats(1.0, 4.0, exclude_min=True))
    sigma = draw(st.floats(p - 1.0 + 1e-3, 6.0))
    a, b, s, t = (draw(_log_uniform()) for _ in range(4))
    if draw(st.booleans()):
        t = s
    return ExponentParams(p=p, sigma=sigma), a, b, s, t


@settings(max_examples=300, deadline=None)
@given(_picone_tuples())
def test_picone_check_holds_on_the_suite_box(case):
    params, a, b, s, t = case
    lhs, rhs = picone_check(a, b, s, t, params)
    assert lhs <= rhs + 1e-12 * max(1.0, abs(lhs), abs(rhs))


@settings(max_examples=300, deadline=None)
@given(a=st.lists(_log_uniform(), min_size=1, max_size=200),
       r=st.floats(0.001, 5.0))
def test_hardy_check_holds_on_the_suite_box(a, r):
    lhs, rhs = hardy_check(a, r)
    assert lhs >= rhs - 1e-12 * max(1.0, lhs, rhs)
