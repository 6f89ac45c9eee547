"""Tests for trip construction, OD extraction, scaling, and sampling."""

from __future__ import annotations

import math
import re
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tripmatch import model
from tripmatch.model import (
    ScaleContext,
    Trip,
    Waypoint,
    check_points,
    od_points,
    od_rep,
    path_lengths,
    sample_points,
    scale_points,
    space_time_pairs,
    spatial_distance,
    within_distance,
)

from conftest import make_trip


def scale_point(w: Waypoint, ctx: ScaleContext) -> tuple[float, float, float]:
    """Per-point scaling in plain floats, clamped into [0, 1]."""
    return tuple(min(max((v - lo) / span, 0.0), 1.0) for v, lo, span in (
        (w.x, ctx.x_min, ctx.x_span), (w.y, ctx.y_min, ctx.y_span), (w.t, ctx.t_min, ctx.t_span)))


def per_trip_path_length(trip: Trip) -> float:
    """The sum of one trip's segment lengths, a trip at a time."""
    xy = trip.xyt()[:, :2]
    if len(xy) == 1:
        return 0.0
    return float(np.hypot(*np.diff(xy, axis=0).T).sum())


def point_trip(*points: tuple[float, float, float]) -> Trip:
    return make_trip("p", list(points))


def extract_od(trip: Trip) -> tuple[Waypoint, Waypoint]:
    """Origin/destination endpoints: the first and last waypoints of the trip."""
    return trip.origin, trip.destination


def sample_waypoints(trip: Trip, k: int) -> Trip:
    """Reduce one trip to k waypoints by uniform index selection.

    Picks the waypoints at indices round(i * (n-1) / (k-1)) for i in 0..k-1,
    which always keeps the endpoints. Trips with n <= k are returned
    unchanged (no upsampling).
    """
    if k < 2:
        raise ValueError(f"sample size must be >= 2, got {k}")
    n = len(trip.xyt())
    if n <= k:
        return trip
    step = (n - 1) / (k - 1)
    indices = np.floor(np.arange(k) * step + 0.5).astype(np.intp)
    return Trip(trip.id, trip.xyt()[indices])


def od_displacement(trip: Trip) -> float:
    """Straight-line origin-to-destination distance in meters."""
    o, d = extract_od(trip)
    return spatial_distance(o, d)


class TestWaypoint:
    def test_rejects_negative_time(self):
        with pytest.raises(ValueError, match="time"):
            Waypoint(0.0, 0.0, -1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Waypoint(float("nan"), 0.0, 0.0)
        with pytest.raises(ValueError):
            Waypoint(0.0, float("inf"), 0.0)


class TestTrip:
    def test_needs_a_waypoint(self):
        with pytest.raises(ValueError, match="no waypoints"):
            Trip("t", [])

    def test_rejects_unsorted_times(self):
        with pytest.raises(ValueError, match="sorted"):
            make_trip("t", [(0, 0, 5.0), (1, 1, 2.0)])

    def test_equal_times_allowed(self):
        trip = make_trip("t", [(0, 0, 5.0), (1, 1, 5.0)])
        assert trip.duration == 0.0

    def test_endpoints_and_duration(self):
        trip = make_trip("t", [(0, 0, 10.0), (5, 5, 20.0), (9, 0, 40.0)])
        assert trip.origin == Waypoint(0, 0, 10.0)
        assert trip.destination == Waypoint(9, 0, 40.0)
        assert trip.duration == 30.0


class TestExtractOd:
    def test_first_and_last(self):
        trip = make_trip("t", [(1, 1, 0.0), (2, 2, 5.0), (3, 3, 9.0)])
        o, d = extract_od(trip)
        assert o.t == 0.0 and d.t == 9.0

    def test_single_point_trip(self):
        trip = make_trip("t", [(4, 4, 7.0)])
        o, d = extract_od(trip)
        assert o == d == Waypoint(4, 4, 7.0)


class TestSampleWaypoints:
    def test_identity_when_sizes_match(self):
        trip = make_trip("t", [(i, 0, float(i)) for i in range(50)])
        assert np.array_equal(sample_points([trip], 50)[0], trip.xyt())

    def test_endpoints_only(self):
        trip = make_trip("t", [(0, 0, 0.0), (1, 0, 1.0), (2, 0, 2.0)])
        assert sample_points([trip], 2)[0, :, 0].tolist() == [0, 2]

    def test_uniform_indices_99_to_50(self):
        trip = make_trip("t", [(i, 0, float(i)) for i in range(99)])
        # index formula evaluated directly: round(i * 98 / 49) = 2i
        assert sample_points([trip], 50)[0, :, 0].tolist() == list(range(0, 99, 2))

    def test_no_upsampling(self):
        # a trip shorter than k repeats its own waypoints; no point is made up
        trip = make_trip("t", [(0, 0, 0.0), (1, 0, 1.0)])
        assert sample_points([trip], 10)[0, :, 0].tolist() == [0] * 5 + [1] * 5

    def test_rejects_small_k(self):
        trip = make_trip("t", [(0, 0, 0.0), (1, 0, 1.0)])
        with pytest.raises(ValueError, match=r"^rep_len: must be at least 2, got 1$"):
            sample_points([trip], 1)

    def test_empty_population(self):
        assert sample_points([], 7).shape == (0, 7, 3)
        assert od_points([]).shape == (0, 2, 3)

    def test_preserves_order_and_endpoints(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            k = int(rng.integers(2, 60))
            sizes = rng.integers(1, 120, int(rng.integers(1, 6))).tolist()
            trips = [make_trip(f"t{i}", [(j, 0, float(j)) for j in range(n)])
                     for i, n in enumerate(sizes)]
            sampled = sample_points(trips, k)
            assert sampled.shape == (len(trips), k, 3)
            for n, xs in zip(sizes, sampled[:, :, 0].tolist()):
                assert xs == sorted(xs)
                assert xs[0] == 0 and xs[-1] == n - 1
                assert len(set(xs)) == min(n, k)

    @settings(max_examples=200)
    @given(st.lists(st.integers(1, 40), max_size=6), st.integers(2, 30), st.integers(0, 2**32 - 1))
    def test_equals_per_trip_oracle(self, sizes, k, seed):
        rng = np.random.default_rng(seed)
        trips = [Trip(f"t{i}", np.column_stack(
                     [rng.uniform(-1e4, 1e4, (n, 2)), np.sort(rng.uniform(0, 1e5, n))]))
                 for i, n in enumerate(sizes)]
        sampled = sample_points(trips, k)
        assert sampled.shape == (len(trips), k, 3)
        for trip, rows in zip(trips, sampled):
            if len(trip.xyt()) >= k:
                assert np.array_equal(rows, sample_waypoints(trip, k).xyt())
        ends = od_points(trips)
        assert ends.shape == (len(trips), 2, 3)
        for trip, (o, d) in zip(trips, ends):
            assert np.array_equal(o, trip.xyt()[0]) and np.array_equal(d, trip.xyt()[-1])


class TestScaling:
    def test_corners_and_midpoint(self, ctx):
        rep = od_rep(point_trip((0, 0, 0), (5000, 5000, 1800), (10_000, 10_000, 3600)), ctx)
        assert rep.tolist() == [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]
        mid = scale_points(point_trip((5000, 5000, 1800)).xyt(), ctx)
        assert mid.tolist() == [[0.5, 0.5, 0.5]]

    def test_round_trip(self, ctx):
        rng = np.random.default_rng(1)
        raw = np.column_stack([np.sort(rng.uniform(0, b, 200)) for b in (10_000, 10_000, 3600)])
        scaled = scale_points(make_trip("t", [tuple(r) for r in raw]).xyt(), ctx)
        back = scaled * [ctx.x_span, ctx.y_span, ctx.t_span] + [ctx.x_min, ctx.y_min, ctx.t_min]
        np.testing.assert_allclose(back, raw, rtol=1e-9, atol=1e-9)

    def test_out_of_bounds_clamps(self, ctx):
        rep = od_rep(point_trip((20_000, -5, 0), (-1, 20_000, 99_999)), ctx)
        assert rep.tolist() == [[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]

    def test_scale_trip_counts_clamped(self, ctx):
        trip = make_trip("t", [(100, 100, 0.0), (20_000, 100, 10.0), (100, 100, 99_999.0)])
        arr = scale_points(trip.xyt(), ctx)
        assert arr.tolist() == [list(scale_point(Waypoint(*p), ctx)) for p in trip.xyt().tolist()]
        unclamped = (trip.xyt() - [ctx.x_min, ctx.y_min, ctx.t_min]) / [
            ctx.x_span, ctx.y_span, ctx.t_span]
        assert int((arr != unclamped).any(axis=1).sum()) == 2
        assert arr.min() >= 0.0 and arr.max() <= 1.0

    def test_strictly_monotone_inside_bounds(self, ctx):
        rng = np.random.default_rng(2)
        xs = np.unique(rng.uniform(0, 10_000, 50))
        scaled = scale_points(od_points([point_trip((x, 0, 0)) for x in xs]), ctx)[:, 0, 0]
        assert all(b > a for a, b in zip(scaled, scaled[1:]))

    @settings(max_examples=200)
    @given(st.lists(st.lists(st.tuples(st.floats(-5e4, 5e4), st.floats(-5e4, 5e4),
                                       st.floats(0, 2e5)), min_size=1, max_size=4),
                    max_size=6),
           st.tuples(st.floats(-1e4, 1e4), st.floats(1e-3, 3e4), st.floats(-1e4, 1e4),
                     st.floats(1e-3, 3e4), st.floats(0, 1e5), st.floats(1e-3, 1e5)))
    def test_od_reps_bit_equal_to_per_point_scaling(self, trips, box):
        x0, xs, y0, ys, t0, ts = box
        ctx = ScaleContext(x0, x0 + xs, y0, y0 + ys, t0, t0 + ts)
        trips = [make_trip(f"t{i}", sorted(pts, key=lambda p: p[2]))
                 for i, pts in enumerate(trips)]
        reps = scale_points(od_points(trips), ctx)
        assert reps.shape == (len(trips), 2, 3)
        expected = [[scale_point(t.origin, ctx), scale_point(t.destination, ctx)] for t in trips]
        assert reps.tolist() == [[list(p) for p in pair] for pair in expected]
        for trip, rep in zip(trips, reps):
            assert np.array_equal(rep, scale_points(trip.xyt(), ctx)[[0, -1]])
            assert np.array_equal(rep, od_rep(trip, ctx))

    def test_degenerate_context_rejected(self):
        with pytest.raises(ValueError, match="span"):
            ScaleContext(0, 0, 0, 1, 0, 1)

    def test_from_trips_bounds(self):
        trips = [make_trip("a", [(1, 2, 3.0), (7, 5, 9.0)]),
                 make_trip("b", [(0, 8, 4.0), (3, 3, 6.0)])]
        box = ScaleContext.from_trips(trips)
        assert (box.x_min, box.x_max) == (0, 7)
        assert (box.y_min, box.y_max) == (2, 8)
        assert (box.t_min, box.t_max) == (3, 9)

    def test_from_trips_gives_a_shared_value_a_unit_span(self):
        trips = [make_trip("a", [(1000, 1000, 100.0), (1000, 5000, 100.0)])]
        box = ScaleContext.from_trips(trips)
        assert (box.x_min, box.x_max) == (1000, 1001)
        assert (box.y_min, box.y_max) == (1000, 5000)
        assert (box.t_min, box.t_max) == (100, 101)
        assert scale_points(trips[0].xyt(), box).tolist() == [[0, 0, 0], [0, 1, 0]]


class TestPathLength:
    def test_three_four_five(self):
        trip = make_trip("t", [(0, 0, 0.0), (3, 4, 1.0)])
        assert path_lengths([trip]).tolist() == [5.0]

    def test_single_point(self):
        assert path_lengths([make_trip("t", [(2, 2, 0.0)])]).tolist() == [0.0]

    def test_unit_steps(self):
        trip = make_trip("t", [(0, 0, 0.0), (1, 0, 1.0), (1, 1, 2.0)])
        assert path_lengths([trip]).tolist() == [2.0]

    def test_at_least_displacement(self, synth_trips):
        for trip, length in zip(synth_trips, path_lengths(synth_trips).tolist()):
            assert length >= od_displacement(trip) - 1e-9

    @settings(max_examples=60)
    @given(st.lists(st.one_of(st.sampled_from([1, 2, 7]), st.integers(1, 400)), max_size=16),
           st.integers(0, 2**32 - 1))
    def test_population_equals_per_trip_sums(self, sizes, seed):
        # a few point counts repeat, so most groups stack several trips
        rng = np.random.default_rng(seed)
        trips = [Trip(f"t{n}", np.column_stack([rng.uniform(-2e4, 2e4, (m, 2)),
                                                np.sort(rng.uniform(0, 9e4, m))]))
                 for n, m in enumerate(sizes)]
        lengths = path_lengths(trips)
        assert lengths.shape == (len(trips),)
        assert lengths.tolist() == [per_trip_path_length(t) for t in trips]

    def test_spatial_distance(self):
        assert spatial_distance(Waypoint(0, 0, 0), Waypoint(3, 4, 9)) == 5.0


@st.composite
def screens(draw):
    """Arguments for space_time_pairs: keys, windows, j points, i points and a reach.

    Small integer keys give many ties and windows that end on a key; a window
    runs forward from its key, [t, t + w], or back, [t - w, t]. The points lie
    anywhere within 1e7 of the origin, all at one place, or on and next to the
    grid's cell borders, at whole multiples of the reach.
    """
    keys = np.array(draw(st.lists(st.integers(0, 20), max_size=30)), dtype=float)
    windows = draw(st.lists(st.tuples(st.integers(-2, 22), st.integers(0, 8)), max_size=12))
    t = np.array([a for a, _ in windows], dtype=float)
    w = np.array([b for _, b in windows], dtype=float)
    lo, hi = (t - w, t) if draw(st.booleans()) else (t, t + w)
    reach = draw(st.one_of(st.floats(1e-3, 1e7), st.just(math.inf)))
    size = len(keys) + len(windows)
    coord = st.floats(-1e7, 1e7)
    layout = draw(st.sampled_from(["anywhere", "one place", "borders"]))
    if layout == "anywhere":
        xy = np.array(draw(st.lists(st.tuples(coord, coord), min_size=size, max_size=size)))
    elif layout == "one place":
        xy = np.tile(draw(st.tuples(coord, coord)), (size, 1))
    else:
        steps = draw(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4),
                                        st.sampled_from([1.0, 1 + 1e-9, 1 - 2**-52])),
                              min_size=size, max_size=size))
        unit = reach if reach < math.inf else 1.0
        xy = draw(st.tuples(coord, coord)) + np.array(
            [(a * f, b * f) for a, b, f in steps]).reshape(size, 2) * unit
    xy = xy.reshape(size, 2)
    return keys, lo, hi, xy[:len(keys)], xy[len(keys):], reach


#: A pair exactly reach apart whose quotients, from a corner at x = -276.19, round
#: to 0.9999999999999999 and 2.0: cells of side reach alone would part them.
BORDER_PAIR = (np.zeros(2), np.zeros(1), np.zeros(1),
               np.array([[-276.1882295969321, 0.0], [1156.2617604249385, 0.0]]),
               np.array([[440.0367654140031, 0.0]]), 716.2249950109353)


class TestSpaceTimePairs:
    @settings(max_examples=300)
    @given(screens())
    @example(BORDER_PAIR)
    def test_holds_every_near_pair_of_a_scan_of_every_pair(self, args):
        keys, lo, hi, points, at, reach = args
        window = {(i, j) for i in range(len(lo)) for j in range(len(keys))
                  if lo[i] <= keys[j] <= hi[i]}
        near = {(i, j) for i, j in window if np.hypot(*(points[j] - at[i])) <= reach}
        i, j = map(np.concatenate, zip(*space_time_pairs(keys, lo, hi, points, at, reach)))
        assert i.dtype == j.dtype == np.intp
        got = list(zip(i.tolist(), j.tolist()))
        assert len(set(got)) == len(got)
        assert near <= set(got) <= window
        assert (np.diff(i) >= 0).all()
        if reach < math.inf and len(got):
            # neighbour cells only: within two cells' sides on each axis
            box = np.concatenate([points, at])
            side = max(reach * (1 + 1e-9), np.ptp(box, axis=0).max() * 2.0**-20)
            assert np.abs(points[j] - at[i]).max() <= 2 * side * (1 + 1e-9)

    @settings(max_examples=200)
    @given(screens(), st.integers(1, 12))
    def test_blocks_hold_whole_groups_up_to_the_cap(self, args, cap):
        whole = [np.concatenate(a) for a in zip(*space_time_pairs(*args))]
        with mock.patch.object(model, "WINDOW_BLOCK_PAIRS", cap):
            blocks = list(space_time_pairs(*args))
        assert blocks
        for i, _ in blocks:
            assert len(i) <= cap or len(set(i.tolist())) == 1
        groups = [set(i.tolist()) for i, _ in blocks]
        assert all(a.isdisjoint(b) for a, b in zip(groups, groups[1:]))
        for got, want in zip(map(np.concatenate, zip(*blocks)), whole):
            assert got.tolist() == want.tolist()

    def test_a_box_wider_than_floats_reach_is_one_cell(self):
        keys = np.arange(4.0)
        points = np.array([[-1.5e308, 0.0], [1.5e308, 0.0], [0.0, -1.5e308], [0.0, 1.5e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            i, j = map(np.concatenate, zip(*space_time_pairs(
                keys, keys - 3, keys + 3, points, points, 1.0)))
        assert sorted(zip(i.tolist(), j.tolist())) == [(a, b) for a in range(4) for b in range(4)]


class TestWithinDistance:
    """within_distance is np.hypot(dx, dy) <= d, pair for pair."""

    @staticmethod
    def check(dx, dy, d):
        dx, dy = np.array(dx, dtype=float), np.array(dy, dtype=float)
        copies = dx.copy(), dy.copy()
        with np.errstate(over="ignore"):  # hypot overflows past about 1.3e308
            got, want = within_distance(dx, dy, d), np.hypot(dx, dy) <= d
        assert got.dtype == bool
        assert got.tolist() == want.tolist()
        assert np.array_equal(dx, copies[0]) and np.array_equal(dy, copies[1])

    @staticmethod
    def near(h: float) -> list[float]:
        """h and its neighbours, those of them that are positive, or else inf."""
        with np.errstate(over="ignore"):
            values = [h, np.nextafter(h, math.inf), np.nextafter(h, -math.inf)]
        return [float(v) for v in values if v > 0] or [math.inf]

    @settings(max_examples=300)
    @given(st.lists(st.tuples(st.floats(allow_nan=False), st.floats(allow_nan=False)),
                    min_size=1, max_size=8), st.data())
    def test_equals_hypot(self, offsets, data):
        # d sits at, just above or just below one pair's distance, or anywhere
        with np.errstate(over="ignore"):
            h = float(np.hypot(*data.draw(st.sampled_from(offsets))))
        d = data.draw(st.sampled_from(self.near(h)) | st.floats(5e-324, allow_nan=False))
        self.check(*zip(*offsets), d)

    @settings(max_examples=60)
    @given(st.sampled_from([(-545, -505), (505, 520), (-545, 520)]), st.integers(0, 2**32 - 1))
    def test_equals_hypot_where_squares_are_subnormal_or_overflow(self, exponents, seed):
        # offsets of 2^-545 to 2^-505 have squares below the smallest normal
        # float, where they round coarsely; those above 2^512 overflow
        rng = np.random.default_rng(seed)
        dx, dy = rng.uniform(-1, 1, (2, 64)) * 2.0 ** rng.integers(*exponents, (2, 64))
        for h in np.hypot(dx, dy)[:8].tolist():
            for d in self.near(h):
                self.check(dx, dy, d)

    @pytest.mark.parametrize("dx, dy, d", [
        ([3.0, 0.0, -5.0], [-4.0, 5.0, 0.0], 5.0),  # exactly at d
        ([3.0], [4.0], float(np.nextafter(5.0, -math.inf))),
        ([3.0], [4.0], float(np.nextafter(5.0, math.inf))),
        # squares in the subnormal range, where d^2 rounds coarsely
        ([2.9971189053738477e-162], [3.5614482571417294e-162], 4.654743324958659e-162),
        ([5e-324, 0.0, 1e-320], [5e-324, 5e-324, 0.0], 5e-324),
        # squares that overflow, against finite and overflowing d^2
        ([1e154, 2e154, 1e200, -1e300], [1e154, 0.0, 0.0, 1e300], 1.5e154),
        ([1e200, 1e300, 1e308], [1e200, 1e300, 1e308], 1e300),
        ([1e308, math.inf, -math.inf, 0.0], [1e308, 0.0, 1.0, 0.0], math.inf),
        ([], [], 1.0),
    ])
    def test_edge_cases(self, dx, dy, d):
        self.check(dx, dy, d)


class TestCheckPoints:
    #: Three stacked trips: a's rows 0-1, b's rows 2-3 and c's row 4.
    STACK = np.array([[0.0, 0.0, 5.0], [0.0, 0.0, 6.0], [1.0, 1.0, 1.0], [1.0, 1.0, 2.0],
                      [2.0, 2.0, 0.0]])
    STARTS = np.array([0, 2, 4])

    def test_a_trip_may_start_before_the_previous_one_ends(self):
        check_points(self.STACK, self.STARTS, "abc")

    @pytest.mark.parametrize("row, col, value, message", [
        (3, 2, 0.5, "trip 'b' waypoints are not sorted by time"),
        (4, 0, np.nan, "trip 'c' has a non-finite coordinate or time"),
        (1, 2, -1.0, "trip 'a' has a waypoint time below 0"),  # also unsorted
        (2, 1, np.inf, "trip 'b' has a non-finite coordinate or time"),
    ])
    def test_names_the_trip_that_breaks_the_first_rule_broken(self, row, col, value, message):
        xyt = self.STACK.copy()
        xyt[row, col] = value
        with pytest.raises(ValueError, match=re.escape(message)):
            check_points(xyt, self.STARTS, "abc")

    @pytest.mark.parametrize("starts, empty", [([0, 2, 2], "b"), ([0, 2, 5], "c"),
                                               ([0, 0, 4], "a")])
    def test_names_a_trip_with_no_rows(self, starts, empty):
        with pytest.raises(ValueError, match=f"trip '{empty}' has no waypoints"):
            check_points(self.STACK, np.array(starts), "abc")


@pytest.mark.parametrize("message", ["affinity needs at least two trips",
                                     "waypoints are not sorted by time"])
def test_a_data_rule_message_is_written_once(message):
    sources = Path(model.__file__).parent.glob("*.py")
    assert sum(path.read_text(encoding="utf-8").count(message) for path in sources) == 1
