"""Tests for distribution fitting, correlation, CDFs, and grids.

scipy.stats serves as the independent oracle for the likelihoods and the
maximum-likelihood fits.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from tripmatch import stats
from tripmatch.model import ScaleContext, Trip
from tripmatch.stats import (
    DegenerateFitError,
    empirical_cdf,
    fit_gamma,
    fit_lognormal,
    grid_duration_stats,
    grid_unique_counts,
    pearson,
)

from conftest import make_trip


class TestFitLognormal:
    def test_two_point_exact(self):
        fit = fit_lognormal([1.0, math.e ** 2])
        assert math.isclose(fit.params[0], 1.0, abs_tol=1e-12)
        assert math.isclose(fit.params[1], 1.0, abs_tol=1e-12)

    def test_constant_samples_degenerate(self):
        with pytest.raises(DegenerateFitError):
            fit_lognormal([math.e] * 4)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fit_lognormal([1.0, -2.0])

    def test_generate_and_recover(self):
        rng = np.random.default_rng(42)
        samples = rng.lognormal(1.0, 0.5, 10_000)
        fit = fit_lognormal(samples)
        assert abs(fit.params[0] - 1.0) < 0.02
        assert abs(fit.params[1] - 0.5) < 0.02

    def test_loglik_matches_scipy(self):
        rng = np.random.default_rng(7)
        samples = rng.lognormal(0.5, 0.8, 500)
        fit = fit_lognormal(samples)
        mu, sigma = fit.params
        oracle = scipy.stats.lognorm.logpdf(samples, s=sigma, scale=math.exp(mu)).sum()
        assert math.isclose(fit.log_likelihood, oracle, rel_tol=1e-10)


class TestFitGamma:
    def test_generate_and_recover(self):
        rng = np.random.default_rng(42)
        samples = rng.gamma(2.0, 300.0, 10_000)
        fit = fit_gamma(samples)
        assert abs(fit.params[0] - 2.0) < 0.1

    def test_exponential_shape_near_one(self):
        rng = np.random.default_rng(43)
        samples = rng.exponential(1.0, 10_000)
        fit = fit_gamma(samples)
        assert 0.93 <= fit.params[0] <= 1.07

    def test_constant_samples_degenerate(self):
        with pytest.raises(DegenerateFitError):
            fit_gamma([5.0] * 10)

    def test_loglik_matches_scipy(self):
        rng = np.random.default_rng(9)
        samples = rng.gamma(3.0, 2.0, 500)
        fit = fit_gamma(samples)
        k, theta = fit.params
        oracle = scipy.stats.gamma.logpdf(samples, a=k, scale=theta).sum()
        assert math.isclose(fit.log_likelihood, oracle, rel_tol=1e-10)

    def test_newton_solves_shape_equation(self):
        rng = np.random.default_rng(10)
        samples = rng.gamma(0.7, 5.0, 2_000)
        fit = fit_gamma(samples)
        k = fit.params[0]
        s = math.log(samples.mean()) - np.log(samples).mean()
        assert abs(math.log(k) - scipy.special.digamma(k) - s) < 1e-9

    def test_gamma_beats_lognormal_on_gamma_data(self):
        rng = np.random.default_rng(11)
        samples = rng.gamma(2.0, 300.0, 10_000)
        assert fit_gamma(samples).log_likelihood >= fit_lognormal(samples).log_likelihood

    def test_matches_scipy_mle_across_regimes(self):
        rng = np.random.default_rng(12)
        for k_true in (0.05, 0.5, 2.0, 80.0, 500.0):
            samples = rng.gamma(k_true, 3.0, 3_000)
            fit = fit_gamma(samples)
            k_ref, _, theta_ref = scipy.stats.gamma.fit(samples, floc=0)
            assert abs(fit.params[0] - k_ref) <= 1e-6 * k_ref
            assert abs(fit.params[1] - theta_ref) <= 1e-6 * theta_ref


class TestPearson:
    def test_perfect_linear(self):
        xs = np.arange(10.0)
        assert math.isclose(pearson(xs, 2 * xs + 1), 1.0, abs_tol=1e-12)

    def test_perfect_negative(self):
        xs = np.arange(10.0)
        assert math.isclose(pearson(xs, -xs), -1.0, abs_tol=1e-12)

    def test_zero_variance(self):
        with pytest.raises(ValueError, match="variance"):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_against_numpy(self):
        rng = np.random.default_rng(3)
        xs = rng.normal(size=200)
        ys = 0.4 * xs + rng.normal(size=200)
        assert math.isclose(pearson(xs, ys), np.corrcoef(xs, ys)[0, 1], rel_tol=1e-12)


class TestEmpiricalCdf:
    def test_single_value(self):
        assert empirical_cdf([5.0]) == [(5.0, 1.0)]

    def test_two_values(self):
        assert empirical_cdf([1.0, 2.0]) == [(1.0, 0.5), (2.0, 1.0)]

    def test_ties_collapse(self):
        steps = empirical_cdf([2.0, 1.0, 2.0])
        assert steps[0] == (1.0, pytest.approx(1 / 3))
        assert steps[1] == (2.0, 1.0)

    def test_monotone_and_complete(self):
        rng = np.random.default_rng(4)
        steps = empirical_cdf(rng.normal(size=500))
        probs = [p for _, p in steps]
        assert probs == sorted(probs)
        assert probs[-1] == 1.0


class TestGrids:
    BOX = ScaleContext(0, 100, 0, 100, 0, 1000)

    def test_single_trip_single_cell(self):
        trips = [make_trip("a", [(10, 10, 0.0), (12, 12, 5.0)])]
        grid = grid_unique_counts(trips, self.BOX, 4, 4)
        assert grid[0, 0] == 1
        assert grid.sum() == 1

    def test_revisit_counts_once(self):
        # visits cell A, then B, then A again
        trips = [make_trip("a", [(10, 10, 0.0), (90, 10, 5.0), (10, 10, 9.0)])]
        grid = grid_unique_counts(trips, self.BOX, 2, 2)
        assert grid[0, 0] == 1
        assert grid[0, 1] == 1

    def test_three_trips_through_one_cell(self):
        trips = [make_trip(n, [(20, 20, 0.0), (30, 30, 5.0)]) for n in "abc"]
        grid = grid_unique_counts(trips, self.BOX, 2, 2)
        assert grid[0, 0] == 3

    def test_covers_all_trips(self, synth_trips):
        box = ScaleContext.from_trips(synth_trips)
        grid = grid_unique_counts(synth_trips, box, 5, 5)
        assert grid.sum() >= len(synth_trips)

    def test_duration_quartiles_single_trip(self):
        trips = [make_trip("a", [(10, 10, 0.0), (80, 80, 100.0)])]
        grid = grid_duration_stats(trips, self.BOX, 2, 2)
        assert list(grid[0, 0]) == [100.0] * 5

    def test_empty_cells_flagged(self):
        trips = [make_trip("a", [(10, 10, 0.0), (12, 12, 100.0)])]
        grid = grid_duration_stats(trips, self.BOX, 2, 2)
        assert np.isnan(grid[1, 1]).all()

    def test_median_of_three(self):
        trips = [make_trip(str(i), [(10, 10, 0.0), (12, 12, d)])
                 for i, d in enumerate([10.0, 20.0, 30.0])]
        grid = grid_duration_stats(trips, self.BOX, 2, 2)
        assert grid[0, 0][2] == 20.0
        assert list(grid[0, 0]) == [10.0, 15.0, 20.0, 25.0, 30.0]


# -- the grids against their per-waypoint predecessors ----------------------

def _scalar_cell(x: float, y: float, ctx: ScaleContext, rows: int, cols: int) -> tuple[int, int]:
    col = int((x - ctx.x_min) / ctx.x_span * cols)
    row = int((y - ctx.y_min) / ctx.y_span * rows)
    return min(max(row, 0), rows - 1), min(max(col, 0), cols - 1)


def scalar_unique_counts(trips: list[Trip], ctx: ScaleContext, rows: int, cols: int) -> np.ndarray:
    counts = np.zeros((rows, cols), dtype=int)
    for trip in trips:
        for r, c in {_scalar_cell(x, y, ctx, rows, cols) for x, y, _ in trip.xyt().tolist()}:
            counts[r, c] += 1
    return counts


def scalar_duration_stats(trips: list[Trip], ctx: ScaleContext, rows: int, cols: int
                          ) -> np.ndarray:
    buckets: dict[tuple[int, int], list[float]] = {}
    for trip in trips:
        cell = _scalar_cell(trip.origin.x, trip.origin.y, ctx, rows, cols)
        buckets.setdefault(cell, []).append(trip.duration)
    values = np.full((rows, cols, 5), np.nan)
    for (r, c), durations in buckets.items():
        values[r, c] = np.percentile(durations, [0, 25, 50, 75, 100])
    return values


class TestGridsMatchScalarOracle:
    @settings(max_examples=200)
    @given(st.lists(st.lists(st.tuples(st.floats(-50, 150), st.floats(-50, 150),
                                       st.floats(0, 2000)), min_size=1, max_size=6),
                    max_size=8),
           st.integers(1, 5), st.integers(1, 5))
    def test_bit_equal_to_per_waypoint_loops(self, trips, rows, cols):
        """Points outside the box clamp into the edge cells in both versions."""
        box = TestGrids.BOX
        trips = [make_trip(f"t{i}", sorted(pts, key=lambda p: p[2]))
                 for i, pts in enumerate(trips)]
        unique = grid_unique_counts(trips, box, rows, cols)
        assert np.array_equal(unique, scalar_unique_counts(trips, box, rows, cols))
        quart = grid_duration_stats(trips, box, rows, cols)
        expected = scalar_duration_stats(trips, box, rows, cols)
        assert quart.tobytes() == expected.tobytes()


class TestGridHelpersMatchNumpy:
    """The grids' sort-based helper against np.unique."""

    @settings(max_examples=200)
    @given(st.lists(st.integers(0, 40), max_size=60))
    def test_distinct_is_np_unique(self, keys):
        keys = np.array(keys, dtype=np.intp)
        assert stats._distinct(keys).tolist() == np.unique(keys).tolist()
