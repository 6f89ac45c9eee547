"""A TripSet and the plain list of its trips give every consumer the same result."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripmatch import carshare, matching, stats
from tripmatch.metrics import WgmWeights
from tripmatch.model import (ScaleContext, Trip, TripSet, od_points, path_lengths,
                             sample_points)

#: Coordinates and times on a coarse grid, so axes often hold one value and
#: trips share points; the thresholds below let some pairs match and chain.
COORD = st.integers(0, 3).map(lambda v: 1500.0 * v)


@st.composite
def trip_lists(draw, prefix: str, min_size: int = 0, max_size: int = 6) -> list[Trip]:
    """Trips of one to seven waypoints, with distinct ids."""
    n = draw(st.integers(min_size, max_size))
    trips = []
    for i in range(n):
        m = draw(st.integers(1, 7))
        times = sorted(draw(st.lists(st.integers(0, 40), min_size=m, max_size=m)))
        trips.append(Trip(f"{prefix}{i}", [(draw(COORD), draw(COORD), 60.0 * t) for t in times]))
    return trips


def outcome(fn, *args):
    """fn(*args), or the type and text of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def assert_same(fn, *args):
    """fn gives equal results on each population as a list and as a TripSet."""
    stacked = [TripSet.of(a) if isinstance(a, list) else a for a in args]
    want, got = outcome(fn, *args), outcome(fn, *stacked)
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray) and got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)
    else:
        assert got == want


SCENARIO = dict(dist_threshold=2500.0, time_threshold=900.0)


class TestTripSet:
    @settings(max_examples=100)
    @given(trip_lists("t"))
    def test_holds_each_trip_once(self, trips):
        population = TripSet.of(trips)
        assert TripSet.of(population) is population
        assert len(population) == len(trips) and population.ids == tuple(t.id for t in trips)
        assert [population[i] for i in range(len(trips))] == trips
        assert population.xyt.shape == (sum(len(t.xyt()) for t in trips), 3)
        assert not population.xyt.flags.writeable

    def test_a_generator_is_stacked_once(self, synth_trips):
        population = TripSet.of(iter(synth_trips))
        assert [population[i] for i in range(len(synth_trips))] == synth_trips


class TestModelConsumers:
    @settings(max_examples=150)
    @given(trip_lists("t"), st.integers(2, 6))
    def test_samples_lengths_and_box(self, trips, rep_len):
        assert_same(sample_points, trips, rep_len)
        assert_same(od_points, trips)
        assert_same(path_lengths, trips)
        assert_same(ScaleContext.from_trips, trips)

    @settings(max_examples=150)
    @given(trip_lists("a"), trip_lists("b"))
    def test_the_box_of_two_populations_is_the_box_of_their_union(self, a, b):
        assert outcome(ScaleContext.from_trips, a, b) == outcome(ScaleContext.from_trips, a + b)
        assert_same(ScaleContext.from_trips, a, b)

    def test_the_unit_span_rule_applies_to_the_union(self):
        def trip(tid, x):
            return Trip(tid, [(x, 0.0, 0.0), (x, 500.0, 60.0)])

        # one x value in each population, two in their union: a real span
        ctx = ScaleContext.from_trips([trip("a", 0.0)], TripSet.of([trip("b", 3000.0)]))
        assert (ctx.x_min, ctx.x_span) == (0.0, 3000.0)
        # one x value in the union: the unit span
        ctx = ScaleContext.from_trips(TripSet.of([trip("a", 700.0)]), [trip("b", 700.0)])
        assert (ctx.x_min, ctx.x_span, ctx.y_span) == (700.0, 1.0, 500.0)


class TestStatsConsumers:
    @settings(max_examples=100)
    @given(trip_lists("t", min_size=1), st.integers(1, 4), st.integers(1, 4))
    def test_grids(self, trips, rows, cols):
        ctx = ScaleContext.from_trips(trips)
        assert_same(lambda t: stats.grid_unique_counts(t, ctx, rows, cols), trips)
        assert_same(lambda t: stats.grid_duration_stats(t, ctx, rows, cols), trips)

    def test_no_trips(self, ctx):
        assert_same(lambda t: stats.grid_unique_counts(t, ctx, 2, 3), [])
        assert_same(lambda t: stats.grid_duration_stats(t, ctx, 2, 3), [])


class TestMatchingConsumers:
    @settings(max_examples=100)
    @given(trip_lists("req-"), trip_lists("ride-"), st.sampled_from(["car", "carpool"]))
    def test_greedy_match_and_curve(self, requests, rides, mode):
        scenario = matching.MatchScenario(mode=mode, **SCENARIO)
        assert_same(lambda r, d: matching.greedy_match(r, d, scenario), requests, rides)
        assert_same(lambda r, d: matching.match_counts_curve(
            r, d, scenario, sweep_dist=[800.0, 3000.0], sweep_time=[300.0], sweep_l=[1, 2]),
            requests, rides)

    @settings(max_examples=60)
    @given(trip_lists("req-"), trip_lists("ride-"), st.integers(2, 4))
    def test_compare_metrics(self, requests, rides, rep_len):
        scenarios = matching.compare_scenarios(matching.MatchScenario(**SCENARIO),
                                               ["wgm", "lcss", "dtw", "frechet"], [0.3])
        assert_same(lambda r, d: matching.compare_metrics(r, d, scenarios, rep_len),
                    requests, rides)

    def test_one_valued_union_axis(self):
        # every trip of both populations lies on x = 4000: the box gives x a unit span
        requests = [Trip("r", [(4000.0, 0.0, 0.0), (4000.0, 3000.0, 600.0)])]
        rides = [Trip("d", [(4000.0, 500.0, 100.0), (4000.0, 2800.0, 500.0)])]
        scenario = matching.MatchScenario(**SCENARIO)
        report = matching.greedy_match(TripSet.of(requests), TripSet.of(rides), scenario)
        assert report == matching.greedy_match(requests, rides, scenario)
        assert report.n_matched == 1


class TestCarshareConsumers:
    @settings(max_examples=100)
    @given(trip_lists("t"))
    def test_dag_schedule_and_chain_stats(self, trips):
        weights = WgmWeights(0.5, 0.5)

        def dag(t):
            d = carshare.build_trip_dag(t, 2500.0, 1200.0, weights)
            return d.trip_ids, d.edges.tolist(), d.weights.tolist()

        assert_same(dag, trips)
        assert_same(lambda t: carshare.schedule_trips(t, 2500.0, 1200.0, weights)[1], trips)
        if trips:
            schedule = carshare.schedule_trips(trips, 2500.0, 1200.0, weights)[1]
            assert_same(lambda t: carshare.chain_stats(schedule, t), trips)

    def test_build_trip_dag_takes_the_length_of_its_population(self, synth_trips):
        population = TripSet.of(synth_trips)
        assert carshare.build_trip_dag(population).n == len(population) == len(synth_trips)


@pytest.mark.parametrize("consumer", [path_lengths, od_points])
def test_one_trip_of_one_waypoint(consumer):
    assert_same(consumer, [Trip("a", [(1.0, 2.0, 3.0)])])
