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
    """Arguments for space_time_pairs: keys, window starts t, a span, j points, i points, a reach.

    Small integer keys and starts give many ties and windows that end on a
    key; other starts and spans are any floats, so t + span rounds. Some keys
    sit at t[i] + span and one or two ulps either side of it. The span is
    forward or back, zero or infinite. The points lie anywhere within 1e7 of
    the origin, all at one place, or on and next to the grid's cell borders,
    at whole multiples of the reach.
    """
    whole = st.integers(-2, 22).map(float)
    t = np.array(draw(st.lists(st.one_of(whole, st.floats(0, 1e4)), max_size=12)))
    span = draw(st.one_of(st.integers(-8, 8).map(float), st.floats(-1e4, 1e4),
                          st.sampled_from([0.0, -0.0, math.inf, -math.inf])))
    keys = draw(st.lists(st.integers(0, 20).map(float), max_size=30))
    for i in draw(st.lists(st.integers(0, len(t) - 1), max_size=4)) if len(t) else ():
        edge = t[i] + span
        if math.isfinite(edge):
            keys.append(draw(st.sampled_from(
                [edge, *np.nextafter(edge, [np.inf, -np.inf]), *np.nextafter(
                    np.nextafter(edge, [np.inf, -np.inf]), [np.inf, -np.inf])])))
    keys = np.array(keys, dtype=float)
    reach = draw(st.one_of(st.floats(1e-3, 1e7), st.just(math.inf)))
    size = len(keys) + len(t)
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
    return keys, t, span, xy[:len(keys)], xy[len(keys):], reach


def scan_every_pair(keys, t, span, points, at, reach) -> list[tuple[int, int]]:
    """The near pairs of space_time_pairs, by a scalar test of every (i, j) in (i, j) order."""
    def in_time(key: float, start: float) -> bool:
        gap = key - start if span >= 0 else start - key
        return 0 <= gap <= abs(span)

    return [(i, j) for i in range(len(t)) for j in range(len(keys))
            if in_time(keys[j], t[i]) and np.hypot(*(points[j] - at[i])) <= reach]


#: A pair exactly reach apart whose quotients, from a corner at x = -276.19, round
#: to 0.9999999999999999 and 2.0: cells of side reach alone would part them.
BORDER_PAIR = (np.zeros(2), np.zeros(1), 0.0,
               np.array([[-276.1882295969321, 0.0], [1156.2617604249385, 0.0]]),
               np.array([[440.0367654140031, 0.0]]), 716.2249950109353)

#: A key one ulp past 463.7997569242769 + 523.2 in floats, though the key minus
#: the start is 523.2 exactly: only a window widened for rounding holds it.
ROUNDED_EDGE = (np.array([986.999756924277]), np.array([463.7997569242769]), 523.2,
                np.zeros((1, 2)), np.zeros((1, 2)), 1.0)

#: ROUNDED_EDGE looking back: the key lies one ulp below 986.999756924277 - 523.2.
ROUNDED_BACK = (np.array([463.7997569242769]), np.array([986.999756924277]), -523.2,
                np.zeros((1, 2)), np.zeros((1, 2)), 1.0)


def at_reach(k: int, out: bool) -> tuple:
    """A pair offset (3, 4) 2^k, whose hypot is 5 2^k exactly, at that reach or one ulp below.

    At k = -540 the offset's squares underflow to 0; at k = 600 they overflow.
    """
    reach = 5.0 * 2.0**k
    return (np.zeros(1), np.zeros(1), 0.0, np.array([[3.0, 4.0]]) * 2.0**k, np.zeros((1, 2)),
            float(np.nextafter(reach, 0)) if out else reach)


class TestSpaceTimePairs:
    @settings(max_examples=600)
    @given(screens())
    @example(BORDER_PAIR)
    @example(ROUNDED_EDGE)
    @example(ROUNDED_BACK)
    @example(at_reach(0, False))
    @example(at_reach(0, True))
    @example(at_reach(-540, False))
    @example(at_reach(-540, True))
    @example(at_reach(600, False))
    @example(at_reach(600, True))
    def test_equals_a_scan_of_every_pair(self, args):
        i, j = space_time_pairs(*args)
        assert i.dtype == j.dtype == np.intp
        assert list(zip(i.tolist(), j.tolist())) == scan_every_pair(*args)

    @settings(max_examples=200)
    @given(screens(), st.integers(1, 12))
    def test_does_not_depend_on_the_block_cap(self, args, cap):
        whole = space_time_pairs(*args)
        with mock.patch.object(model, "WINDOW_BLOCK_PAIRS", cap):
            blocked = space_time_pairs(*args)
        for got, want in zip(blocked, whole):
            assert got.tolist() == want.tolist()

    def test_a_box_wider_than_floats_reach_is_one_cell(self):
        keys = np.arange(6.0)
        points = np.array([[-1.5e308, 0.0], [1.5e308, 0.0], [0.0, -1.5e308], [0.0, 1.5e308],
                           [0.0, 0.0], [0.5, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            i, j = space_time_pairs(keys, keys - 5, 10.0, points, points, 1.0)
        assert list(zip(i.tolist(), j.tolist())) == [
            (a, a) for a in range(5)] + [(4, 5), (5, 4), (5, 5)]


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
