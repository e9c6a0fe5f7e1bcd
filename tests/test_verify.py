"""Radial shooting, the sandwich suite, the two scalar checks the random
suites sample, and the random suites against those checks."""

import dataclasses
import tracemalloc

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
from p_potential import verify
from p_potential.verify import (hardy_check, hardy_suite, picone_check,
                                picone_suite, sandwich_suite,
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


# ---------------------------------------------------------------------------
# the random suites against the scalar checks and the shard-wide code they
# replaced


def _log_uniform_draw(rng, lo, hi, size):
    return np.exp(rng.uniform(np.log(lo), np.log(hi), size=size))


def _hardy_draws(rng, n_arrays):
    """One hardy_suite shard's draws: (lengths, packed entries, r)."""
    lengths = rng.integers(1, 201, size=n_arrays)
    a = _log_uniform_draw(rng, 1e-6, 1e3, int(lengths.sum()))
    r = rng.uniform(0.001, 5.0, size=n_arrays)
    return lengths, a, r


def _hardy_shards(trials, seed):
    """hardy_suite's draws, shard by shard."""
    rng = np.random.default_rng(seed)
    for done in range(0, trials, 5_000):
        yield _hardy_draws(rng, min(5_000, trials - done))


def _hardy_by_shard(a, r, lengths):
    """The shard-wide evaluation hardy_suite used to run: the prefix sums
    are differences of one running sum over the whole shard."""
    total = a.size
    ends = np.cumsum(lengths)
    starts = ends - lengths
    r_rep = np.repeat(r, lengths)

    lhs_terms = a ** (-r_rep)
    lhs = np.add.reduceat(lhs_terms, starts)

    csum = np.cumsum(a)
    offset = np.repeat(csum[starts] - a[starts], lengths)
    prefix = csum - offset
    j = np.arange(total) - np.repeat(starts, lengths) + 1.0
    rhs_terms = (j / prefix) ** r_rep
    rhs = 2.0 ** (-(r + 1.0)) * np.add.reduceat(rhs_terms, starts)
    return lhs, rhs


def _hardy_check_each(a, r, lengths):
    ends = np.cumsum(lengths)
    sides = [hardy_check(a[end - n:end], float(r_i))
             for end, n, r_i in zip(ends, lengths, r)]
    return tuple(np.array(side) for side in zip(*sides))


def test_hardy_sides_are_hardy_check_bitwise():
    lengths, a, r = next(_hardy_shards(5_000, 0))
    lhs_check, rhs_check = _hardy_check_each(a, r, lengths)

    lhs, rhs = verify._hardy_sides(a, r, lengths)
    assert lhs.tobytes() == lhs_check.tobytes()
    assert rhs.tobytes() == rhs_check.tobytes()

    # the shard-wide running sum, which reaches ~2.4e7, cancels in its
    # prefix differences
    _, rhs_shard = _hardy_by_shard(a, r, lengths)
    off = np.abs(rhs_shard - rhs_check) > 1e-6 * rhs_check
    assert np.count_nonzero(off) > 1_000


@pytest.mark.parametrize("trials", [1, 4_999, 5_000, 5_001, 12_345])
@pytest.mark.parametrize("seed", [0, 2, 11])
def test_hardy_suite_equals_a_hardy_check_loop(trials, seed):
    worst = np.inf
    violations = 0
    for lengths, a, r in _hardy_shards(trials, seed):
        for lhs, rhs in zip(*_hardy_check_each(a, r, lengths)):
            scale = max(1.0, lhs, rhs)
            worst = min(worst, (lhs - rhs) / scale)
            violations += bool(lhs < rhs - 1e-12 * scale)
    report = hardy_suite(trials=trials, seed=seed)
    assert (report.name, report.trials) == ("hardy", trials)
    assert report.worst_margin == worst
    assert report.violations == violations
    assert report.ok == (violations == 0)


def _traced_peak(run):
    """Peak bytes traced while run() executes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_hardy_suite_peak_is_the_draws_plus_one_length_block(monkeypatch):
    trials, seed = 10_000, 0
    bound = 0
    for lengths, a, _ in _hardy_shards(trials, seed):
        largest_block = max(n * np.count_nonzero(lengths == n)
                            for n in np.unique(lengths))
        # in bytes: the uniform draw and its exp, both live while a is
        # drawn; at most eight vectors of one float64 or int64 per array
        # (lengths, r, starts, lhs, rhs, scale, margin, one temporary);
        # four blocks of the largest length (indices, entries, two
        # temporaries)
        bound = max(bound, 8 * (2 * a.size + 8 * lengths.size
                                + 4 * largest_block))
    assert _traced_peak(lambda: hardy_suite(trials, seed)) <= bound

    monkeypatch.setattr(verify, "_hardy_sides", _hardy_by_shard)
    assert _traced_peak(lambda: hardy_suite(trials, seed)) > bound


def _picone_by_chunk(trials, seed):
    """picone_suite as it evaluated each whole chunk of 200,000 tuples:
    the worst margin over the tuples with s != t, and a tuple with t = s a
    violation unless lhs == rhs == 0."""
    rng = np.random.default_rng(seed)
    worst = np.inf
    violations = 0
    done = 0
    while done < trials:
        n = min(200_000, trials - done)
        p = rng.uniform(1.0, 4.0, size=n)
        sigma = rng.uniform(p - 1.0 + 1e-3, 6.0)
        eta = sigma - p + 1.0
        a, b, s, t = (_log_uniform_draw(rng, 1e-6, 1e3, n) for _ in range(4))
        t[::10] = s[::10]

        with np.errstate(divide="ignore", invalid="ignore"):
            diff = a - b
            lhs = np.abs(diff) ** (p - 2.0) * diff * (s ** sigma - t ** sigma)
            cross = a * s - b * t
            rhs = (sigma / eta) * np.abs(cross) ** (p - 2.0) * cross \
                * (s ** eta - t ** eta)
        lhs = np.where(diff == 0.0, 0.0, lhs)
        rhs = np.where(cross == 0.0, 0.0, rhs)

        scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
        margin = (rhs - lhs) / scale
        tie = s == t
        if not tie.all():
            worst = min(worst, float(margin[~tie].min()))
        violations += int(np.count_nonzero(tie & ((lhs != 0.0) | (rhs != 0.0))))
        violations += int(np.count_nonzero(~tie & (lhs > rhs + 1e-12 * scale)))
        done += n
    return verify.SuiteReport(name="picone", trials=trials,
                              violations=violations, worst_margin=worst,
                              ok=violations == 0)


@pytest.mark.parametrize("trials,seed", [(1_000, 0), (200_000, 3)])
def test_picone_worst_margin_skips_the_equality_tuples(trials, seed):
    """At t = s both sides are exactly 0, which used to pin worst_margin
    at 0.0 on every run."""
    report = picone_suite(trials=trials, seed=seed)
    assert report.ok and 0.0 < report.worst_margin < 1.0


def test_picone_tie_violates_unless_both_sides_are_zero():
    # s == t in both tuples; the second overflows to lhs = inf * 0 = nan
    p, sigma = np.array([2.0, 4.0]), np.array([3.0, 5.0])
    a, b = np.array([2.0, 1e300]), np.array([1.0, 0.0])
    s = t = np.array([1.5, 1.5])
    with np.errstate(over="ignore", invalid="ignore"):
        worst, violations = verify._picone_block(p, sigma, a, b, s, t)
    assert (worst, violations) == (np.inf, 1)


@pytest.mark.parametrize("trials,seed", [
    (1, 0), (16_384, 1), (16_385, 1), (100_000, 0), (200_001, 3),
    (None, 0),  # the function's own default, 1,000,000
])
def test_picone_suite_equals_the_chunk_evaluation(monkeypatch, trials, seed):
    sizes = []
    real = verify._picone_block

    def recording(p, *rest):
        sizes.append(p.size)
        return real(p, *rest)

    monkeypatch.setattr(verify, "_picone_block", recording)
    if trials is None:
        report = picone_suite(seed=seed)
        trials = 1_000_000
    else:
        report = picone_suite(trials=trials, seed=seed)
    expected = _picone_by_chunk(trials, seed)
    assert dataclasses.astuple(report) == dataclasses.astuple(expected)
    assert sum(sizes) == trials and max(sizes) <= verify._PICONE_BLOCK
