"""Tests for the similarity score and the trajectory comparison metrics.

The dynamic programs are checked against their recursive definitions on
short random sequences.
"""

from __future__ import annotations

import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import tripmatch.metrics as metrics
from tripmatch.metrics import (
    MetricParams,
    PointRole,
    TimeMode,
    WgmWeights,
    DP_METRICS,
    car_score,
    dp_batch,
    dtw,
    frechet_discrete,
    laplacian_kernel,
    lcss,
    psim,
    wgm_batch,
    wgm_sim,
)

W = WgmWeights(0.6, 0.4)

#: Points of up to three scaled units per axis, and weight pairs that may
#: zero one term but not both.
POINTS = st.tuples(*[st.floats(0.0, 3.0)] * 3)
WEIGHTS = st.tuples(*[st.one_of(st.just(0.0), st.floats(1e-3, 5.0))] * 2).filter(any)


def car_feasible(rider: np.ndarray, ride: np.ndarray) -> bool:
    """True when the ride starts at/after the rider and ends at/before it."""
    return bool(ride[0][2] >= rider[0][2] and ride[-1][2] <= rider[-1][2])


def cp_feasible(a: np.ndarray, b: np.ndarray) -> bool:
    """Transpose of car_feasible: b's window must contain a's."""
    return car_feasible(b, a)


def random_seq(rng, n):
    pts = rng.random((n, 3))
    pts[:, 2] = np.sort(pts[:, 2])
    return pts


# --- recursive-definition oracles -----------------------------------------
# Each call memoizes its own recursion over (i, j); the expressions are the
# definitions', so the values are those of the plain recursion.

def lcss_rec(t1, t2, params):
    @functools.cache
    def rec(i, j):
        if i < 0 or j < 0:
            return 0
        d = math.hypot(t1[i][0] - t2[j][0], t1[i][1] - t2[j][1])
        if d <= params.eps_space and abs(t1[i][2] - t2[j][2]) <= params.eps_time:
            return 1 + rec(i - 1, j - 1)
        return max(rec(i - 1, j), rec(i, j - 1))
    return rec(len(t1) - 1, len(t2) - 1)


def dtw_rec(t1, t2, with_time):
    @functools.cache
    def rec(i, j):
        cost = math.hypot(t1[i][0] - t2[j][0], t1[i][1] - t2[j][1])
        if with_time:
            cost *= abs(t1[i][2] - t2[j][2])
        if i == 0 and j == 0:
            return cost
        best = math.inf
        if i > 0:
            best = min(best, rec(i - 1, j))
        if j > 0:
            best = min(best, rec(i, j - 1))
        if i > 0 and j > 0:
            best = min(best, rec(i - 1, j - 1))
        return cost + best
    return rec(len(t1) - 1, len(t2) - 1)


def frechet_rec(t1, t2):
    @functools.cache
    def rec(i, j):
        d = math.hypot(t1[i][0] - t2[j][0], t1[i][1] - t2[j][1])
        if i == 0 and j == 0:
            return d
        best = math.inf
        if i > 0:
            best = min(best, rec(i - 1, j))
        if j > 0:
            best = min(best, rec(i, j - 1))
        if i > 0 and j > 0:
            best = min(best, rec(i - 1, j - 1))
        return max(d, best)
    return rec(len(t1) - 1, len(t2) - 1)


# ---------------------------------------------------------------------------

class TestPsim:
    def test_identical_points_are_one(self):
        for w in (W, WgmWeights(1, 1), WgmWeights(0.2, 5.0)):
            assert psim((0.3, 0.4, 0.5), (0.3, 0.4, 0.5), w) == 1.0

    def test_half_at_unit_distance_and_time(self):
        for w in (W, WgmWeights(2, 3), WgmWeights(1, 0.01)):
            assert math.isclose(psim((0, 0, 0), (1, 0, 1), w), 0.5, rel_tol=1e-12)

    def test_space_only_weights(self):
        assert math.isclose(
            psim((0, 0, 0), (3, 0, 0.9), WgmWeights(1, 0)), 0.25, rel_tol=1e-12)

    def test_weighted_closed_form(self):
        # d = 1, tau = 0 with weights (0.6, 0.4) reduces to 0.5 ** 0.6
        got = psim((0, 0, 0.2), (1, 0, 0.2), W)
        assert math.isclose(got, 0.5 ** 0.6, rel_tol=1e-12)
        assert math.isclose(got, 0.6597539553864471, rel_tol=1e-12)

    @settings(max_examples=300)
    @given(POINTS, POINTS, WEIGHTS, st.floats(1e-3, 1e3), st.sampled_from(TimeMode),
           st.sampled_from(PointRole))
    def test_weight_scaling_invariance(self, p, q, w, c, mode, role):
        a = psim(p, q, WgmWeights(*w), mode, role)
        b = psim(p, q, WgmWeights(c * w[0], c * w[1]), mode, role)
        assert math.isclose(a, b, rel_tol=1e-12)

    def test_symmetric_in_absolute_mode(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            p, q = rng.random(3), rng.random(3)
            assert psim(p, q, W) == psim(q, p, W)

    def test_monotone_in_distance_and_time(self):
        scores_d = [psim((0, 0, 0), (d, 0, 0.1), W) for d in np.linspace(0, 2, 20)]
        assert scores_d == sorted(scores_d, reverse=True)
        scores_t = [psim((0, 0, 0), (0.1, 0, t), W) for t in np.linspace(0, 2, 20)]
        assert scores_t == sorted(scores_t, reverse=True)

    @settings(max_examples=300)
    @given(POINTS, POINTS, WEIGHTS, st.sampled_from(TimeMode), st.sampled_from(PointRole))
    def test_in_unit_interval(self, p, q, w, mode, role):
        assert 0.0 < psim(p, q, WgmWeights(*w), mode, role) <= 1.0

    def test_signed_car_roles(self):
        early, late = (0, 0, 0.2), (0, 0, 0.5)
        # origin: positive when the second point is later
        assert psim(early, late, W, TimeMode.SIGNED_CAR, PointRole.ORIGIN) < 1.0
        assert psim(late, early, W, TimeMode.SIGNED_CAR, PointRole.ORIGIN) == 1.0
        # destination: positive when the second point is earlier
        assert psim(late, early, W, TimeMode.SIGNED_CAR, PointRole.DESTINATION) < 1.0
        assert psim(early, late, W, TimeMode.SIGNED_CAR, PointRole.DESTINATION) == 1.0
        # interior always absolute
        assert psim(early, late, W, TimeMode.SIGNED_CAR, PointRole.INTERIOR) == \
            psim(late, early, W, TimeMode.SIGNED_CAR, PointRole.INTERIOR)

    def test_signed_cp_swaps_roles(self):
        # the carpool orientation scores (q, p): swapping the points swaps the roles
        p, q = (0.1, 0.2, 0.3), (0.4, 0.5, 0.6)
        for role, mirrored in ((PointRole.ORIGIN, PointRole.DESTINATION),
                               (PointRole.DESTINATION, PointRole.ORIGIN)):
            assert psim(q, p, W, TimeMode.SIGNED_CAR, role) == \
                psim(p, q, W, TimeMode.SIGNED_CAR, mirrored)

    def test_negative_signed_time_clamps(self):
        # wrong-order pair scores as if the time term were zero
        late, early = (0, 0, 0.5), (0, 0, 0.2)
        assert psim(late, early, W, TimeMode.SIGNED_CAR, PointRole.ORIGIN) == 1.0


class TestWgmSim:
    def test_identical_trips(self):
        t = np.array([[0.1, 0.2, 0.0], [0.3, 0.4, 0.5], [0.5, 0.6, 1.0]])
        assert wgm_sim(t, t, W) == 1.0

    def test_mean_of_od_psims(self):
        # origin pair identical (psim 1.0), destination at d = 1, dt = 1 (psim 0.5)
        t1 = np.array([[0, 0, 0], [0, 0, 0]], dtype=float)
        t2 = np.array([[0, 0, 0], [1, 0, 1]], dtype=float)
        assert math.isclose(wgm_sim(t1, t2, W), 0.75, rel_tol=1e-12)

    def test_needs_a_stacked_input(self):
        with pytest.raises(ValueError, match="stacks"):
            wgm_batch(np.zeros((2, 3)), np.zeros((2, 3)), W)
        with pytest.raises(ValueError, match="stacks"):
            wgm_batch(np.zeros((4, 2, 3)), np.zeros((4, 2, 2)), W)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            wgm_sim(np.zeros((2, 3)), np.zeros((3, 3)), W)

    def test_single_point_pair_scored_as_origins(self):
        # signed origin rule applies to a length-1 sequence
        t1 = np.array([[0.0, 0.0, 0.5]])
        t2 = np.array([[0.0, 0.0, 0.2]])
        assert wgm_sim(t1, t2, W, TimeMode.SIGNED_CAR) == \
            psim(t1[0], t2[0], W, TimeMode.SIGNED_CAR, PointRole.ORIGIN)

    def test_exactly_n_psim_calls(self, monkeypatch):
        calls = []
        original = metrics.psim

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(metrics, "psim", counting)
        rng = np.random.default_rng(3)
        for n in (1, 2, 50):
            calls.clear()
            wgm_sim(random_seq(rng, n), random_seq(rng, n), W)
            assert len(calls) == n


def _reps(count: int, k: int):
    return arrays(float, (count, k, 3), elements=st.floats(0.0, 1.0))


@st.composite
def kernel_cases(draw):
    """Stacks A (n, k, 3) and B (m, k, 3), weights with either one possibly 0,
    a mode, and a tile small enough that n is often not a multiple of it."""
    k = draw(st.integers(1, 5))
    n, m = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    weight = st.one_of(st.just(0.0), st.floats(0.01, 5.0))
    w_space, w_time = draw(st.tuples(weight, weight).filter(lambda w: sum(w) > 0))
    return (draw(_reps(n, k)), draw(_reps(m, k)), WgmWeights(w_space, w_time),
            draw(st.sampled_from(list(TimeMode))), draw(st.integers(1, 4 * m * k)))


class TestWgmBatch:
    @settings(max_examples=300)
    @given(kernel_cases())
    def test_matches_scalar_wgm_sim(self, case):
        a, b, w, mode, tile = case
        with mock.patch.object(metrics, "TILE_POINTS", tile):
            matrix = wgm_batch(a[:, None], b[None, :], w, mode)
            pairs = wgm_batch(a, b[np.arange(len(a)) % len(b)], w, mode)
        oracle = np.array([[wgm_sim(x, y, w, mode) for y in b] for x in a])
        assert matrix.shape == (len(a), len(b))
        np.testing.assert_allclose(matrix, oracle, rtol=0, atol=1e-12)
        np.testing.assert_allclose(pairs, oracle[np.arange(len(a)), np.arange(len(a)) % len(b)],
                                   rtol=0, atol=1e-12)

    @settings(max_examples=100)
    @given(kernel_cases())
    def test_exact_identities(self, case):
        a, b, w, _, tile = case
        with mock.patch.object(metrics, "TILE_POINTS", tile):
            sym = wgm_batch(a[:, None], a[None, :], w)
            car = wgm_batch(b[:, None], a[None, :], w, TimeMode.SIGNED_CAR)
            i, j = np.divmod(np.arange(len(b) * len(a)), len(a))
            pairs = wgm_batch(b[i], a[j], w, TimeMode.SIGNED_CAR)
        assert np.array_equal(sym, sym.T)
        # the matrix and the stacked-pair forms take the same steps per element
        assert np.array_equal(pairs.reshape(car.shape), car)

    def test_ragged_last_tile(self):
        rng = np.random.default_rng(5)
        a, b = random_seq(rng, 21).reshape(7, 3, 3), random_seq(rng, 15).reshape(5, 3, 3)
        oracle = np.array([[car_score(x, y, W) for y in b] for x in a])
        with mock.patch.object(metrics, "TILE_POINTS", 3 * 5 * 3):  # tiles of 3, 3, 1 rows
            got = wgm_batch(a[:, None], b[None, :], W, TimeMode.SIGNED_CAR)
        np.testing.assert_allclose(got, oracle, rtol=0, atol=1e-12)

    def test_needs_a_stacked_input(self):
        with pytest.raises(ValueError, match="stacks"):
            wgm_batch(np.zeros((2, 3)), np.zeros((2, 3)), W)
        with pytest.raises(ValueError, match="stacks"):
            wgm_batch(np.zeros((4, 2, 3)), np.zeros((4, 2, 2)), W)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            wgm_batch(np.zeros((4, 2, 3)), np.zeros((4, 3, 3)), W)


class TestCarCpScores:
    def test_identical_is_one_and_feasible(self):
        t = np.array([[0.1, 0.1, 0.2], [0.6, 0.6, 0.7]])
        assert car_score(t, t, W) == 1.0
        assert car_feasible(t, t)

    def test_ride_starting_early_is_infeasible(self):
        rider = np.array([[0, 0, 0.2], [1, 1, 0.8]])
        ride = np.array([[0, 0, 0.1], [1, 1, 0.7]])
        assert not car_feasible(rider, ride)
        nested = np.array([[0, 0, 0.3], [1, 1, 0.7]])
        assert car_feasible(rider, nested)
        # carpool flips the nesting: the ride's window must contain the rider's
        assert cp_feasible(nested, rider)
        assert not cp_feasible(rider, nested)

    def test_nested_window_derived_value(self):
        rider = np.array([[0, 0, 0.0], [1, 0, 0.5]])
        ride = np.array([[0, 0, 0.1], [1, 0, 0.4]])
        expected = math.exp(0.4 * math.log(1 / 1.1))  # both endpoint psims equal
        assert math.isclose(car_score(rider, ride, W), expected, rel_tol=1e-12)
        assert car_feasible(rider, ride)

    def test_cp_is_transpose(self):
        # the carpool score car_score(b, a) is car on (a, b) with the signed roles swapped
        rng = np.random.default_rng(4)
        for _ in range(50):
            a, b = random_seq(rng, 2), random_seq(rng, 2)
            swapped = (psim(a[0], b[0], W, TimeMode.SIGNED_CAR, PointRole.DESTINATION)
                       + psim(a[1], b[1], W, TimeMode.SIGNED_CAR, PointRole.ORIGIN))
            assert car_score(b, a, W) == swapped / 2
            assert cp_feasible(a, b) == car_feasible(b, a)

    def test_cp_matrix_is_transpose_of_car_matrix(self):
        rng = np.random.default_rng(5)
        seqs = [random_seq(rng, 2) for _ in range(6)]
        car = np.array([[car_score(a, b, W) for b in seqs] for a in seqs])
        cp = np.array([[car_score(b, a, W) for b in seqs] for a in seqs])
        assert np.array_equal(cp, car.T)
        stacked = np.stack(seqs)
        kernel = wgm_batch(stacked[None, :], stacked[:, None], W, TimeMode.SIGNED_CAR)
        np.testing.assert_allclose(kernel, cp, rtol=0, atol=1e-12)


class TestLcss:
    PARAMS = MetricParams(eps_space=0.1, eps_time=0.1)

    def test_identical(self):
        rng = np.random.default_rng(6)
        t = random_seq(rng, 5)
        assert lcss(t, t, self.PARAMS) == 5

    def test_everything_far_apart(self):
        t1 = np.array([[0, 0, 0], [0, 0, 1]], dtype=float)
        t2 = np.array([[5, 5, 0], [5, 5, 1]], dtype=float)
        assert lcss(t1, t2, self.PARAMS) == 0

    def test_matches_recursive_oracle(self):
        rng = np.random.default_rng(7)
        params = MetricParams(eps_space=0.4, eps_time=0.5)
        for _ in range(100):
            t1 = random_seq(rng, int(rng.integers(1, 7)))
            t2 = random_seq(rng, int(rng.integers(1, 7)))
            assert lcss(t1, t2, params) == lcss_rec(t1, t2, params)

    def test_bounded_by_shorter_length(self):
        rng = np.random.default_rng(8)
        t1, t2 = random_seq(rng, 4), random_seq(rng, 9)
        assert 0 <= lcss(t1, t2, MetricParams(5.0, 5.0)) <= 4


class TestDtw:
    def test_identical_is_zero(self):
        rng = np.random.default_rng(9)
        t = random_seq(rng, 6)
        assert dtw(t, t) == 0.0

    def test_single_points(self):
        p = np.array([[0, 0, 0]], dtype=float)
        q = np.array([[3, 4, 2]], dtype=float)
        assert dtw(p, q) == 5.0
        assert dtw(p, q, "distance_times_time") == 10.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dtw(np.zeros((0, 3)), np.zeros((1, 3)))

    def test_matches_recursive_oracle(self):
        rng = np.random.default_rng(10)
        for mode in ("distance", "distance_times_time"):
            for _ in range(60):
                t1 = random_seq(rng, int(rng.integers(1, 8)))
                t2 = random_seq(rng, int(rng.integers(1, 8)))
                got = dtw(t1, t2, mode)
                want = dtw_rec(t1, t2, mode == "distance_times_time")
                assert math.isclose(got, want, rel_tol=0, abs_tol=1e-12)


class TestFrechet:
    def test_identical_is_zero(self):
        rng = np.random.default_rng(11)
        t = random_seq(rng, 6)
        assert frechet_discrete(t, t) == 0.0

    def test_parallel_offset(self):
        t1 = np.array([[0, 0, 0], [0.5, 0, 0.5], [1, 0, 1]])
        t2 = np.array([[0, 0.2, 0], [0.5, 0.2, 0.5], [1, 0.2, 1]])
        assert math.isclose(frechet_discrete(t1, t2), 0.2, rel_tol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            frechet_discrete(np.zeros((1, 3)), np.zeros((0, 3)))

    def test_matches_recursive_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            t1 = random_seq(rng, int(rng.integers(1, 8)))
            t2 = random_seq(rng, int(rng.integers(1, 8)))
            got = frechet_discrete(t1, t2)
            assert math.isclose(got, frechet_rec(t1, t2), rel_tol=0, abs_tol=1e-12)


class TestCellCounts:
    def test_dp_metrics_fill_m_by_n_cells(self, monkeypatch):
        calls = []
        original = metrics._xy_dist

        def counting(p, q):
            calls.append(1)
            return original(p, q)

        monkeypatch.setattr(metrics, "_xy_dist", counting)
        rng = np.random.default_rng(13)
        params = MetricParams(0.3, 0.3)
        for m, n in ((2, 5), (7, 3), (8, 8)):
            t1, t2 = random_seq(rng, m), random_seq(rng, n)
            for run in (lambda: lcss(t1, t2, params),
                        lambda: dtw(t1, t2),
                        lambda: dtw(t1, t2, "distance_times_time"),
                        lambda: frechet_discrete(t1, t2)):
                calls.clear()
                run()
                assert len(calls) == m * n


def scalar_dp(a, b, params) -> np.ndarray:
    """The scalar lcss, dtw (both cost modes) and frechet_discrete of each pair, as (4, P)."""
    rows = [[float(lcss(x, y, params)), dtw(x, y), dtw(x, y, "distance_times_time"),
             frechet_discrete(x, y)] for x, y in zip(a, b)]
    return np.array(rows, dtype=float).reshape(-1, len(DP_METRICS)).T


@st.composite
def dp_cases(draw):
    """P pairs of (m, 3) and (n, 3) sequences and LCSS thresholds.

    Coordinates often come from three values, so points repeat and
    distances tie; each threshold is often a distance or time gap that some
    cell realises, so the <= gates are hit on their boundary.
    """
    p, m, n = draw(st.integers(0, 6)), draw(st.integers(1, 12)), draw(st.integers(1, 12))
    value = st.one_of(st.sampled_from((0.0, 0.5, 1.0)), st.floats(0.0, 1.0))
    a = draw(arrays(float, (p, m, 3), elements=value))
    b = draw(arrays(float, (p, n, 3), elements=value))
    dists = {math.hypot(*(x[:2] - y[:2])) for k in range(p) for x in a[k] for y in b[k]}
    gaps = {abs(x[2] - y[2]) for k in range(p) for x in a[k] for y in b[k]}

    def threshold(realised):
        positive = sorted(v for v in realised if v > 0)
        if positive and draw(st.booleans()):
            return draw(st.sampled_from(positive))
        return draw(st.floats(1e-3, 1.5))

    return a, b, MetricParams(threshold(dists), threshold(gaps))


class TestDpBatch:
    @settings(max_examples=150)
    @given(dp_cases())
    def test_bit_equal_to_scalar_metrics(self, case):
        a, b, params = case
        got = dp_batch(a, b, range(len(a)), range(len(b)), params)
        assert list(got) == list(DP_METRICS)
        assert np.array_equal(np.array(list(got.values())), scalar_dp(a, b, params))

    def test_bit_equal_on_uniform_sequences(self):
        # np.hypot and math.hypot differ in the last bit on about 0.6% of
        # uniform pairs; against a one-point sequence every cell is on the
        # DTW and Frechet paths, so a switch to np.hypot would show here
        rng = np.random.default_rng(23)
        a, b = rng.random((300, 1, 3)), rng.random((300, 12, 3))
        params = MetricParams(0.3, 0.2)
        got = dp_batch(a, b, range(len(a)), range(len(b)), params)
        assert np.array_equal(np.array(list(got.values())), scalar_dp(a, b, params))

    def test_tiles_equal_one_tile(self, monkeypatch):
        rng = np.random.default_rng(17)
        a = np.stack([random_seq(rng, 6) for _ in range(5)])
        b = np.stack([random_seq(rng, 4) for _ in range(4)])
        i, j = rng.integers(0, 5, 11), rng.integers(0, 4, 11)
        params = MetricParams(0.4, 0.3)
        whole = dp_batch(a, b, i, j, params)
        assert np.array_equal(np.array(list(whole.values())), scalar_dp(a[i], b[j], params))
        for tile in (1, 6 * 4 * 2, 6 * 4 * 3 - 1):  # tiles of 1, 2 and 2 pairs
            monkeypatch.setattr(metrics, "DP_TILE_CELLS", tile)
            tiled = dp_batch(a, b, i, j, params)
            assert all(np.array_equal(tiled[name], whole[name]) for name in DP_METRICS)

    def test_shapes_checked(self):
        params = MetricParams(0.3, 0.3)
        with pytest.raises(ValueError, match="non-empty"):
            dp_batch(np.zeros((2, 0, 3)), np.zeros((2, 3, 3)), [0], [1], params)
        with pytest.raises(ValueError, match="stacks"):
            dp_batch(np.zeros((2, 3)), np.zeros((2, 3)), [0], [1], params)
        with pytest.raises(ValueError, match="equal length"):
            dp_batch(np.zeros((2, 3, 3)), np.zeros((3, 3, 3)), [0, 1], [2], params)


class TestLaplacianKernel:
    def test_fixed_points(self):
        assert laplacian_kernel(1.0) == 1.0
        assert math.isclose(laplacian_kernel(0.0, 1.0), math.exp(-1.0), rel_tol=1e-15)

    def test_preserves_order(self):
        rng = np.random.default_rng(14)
        scores = rng.random(50)
        mapped = [laplacian_kernel(s, 3.0) for s in scores]
        assert np.array_equal(np.argsort(scores), np.argsort(mapped))

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            laplacian_kernel(0.5, 0.0)


class TestWeights:
    def test_validation(self):
        with pytest.raises(ValueError):
            WgmWeights(-0.1, 0.5)
        with pytest.raises(ValueError):
            WgmWeights(0.0, 0.0)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            MetricParams(0.0, 1.0)
