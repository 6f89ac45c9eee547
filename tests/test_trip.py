"""Tests for the array-backed Trip: immutability, equality, and its checks."""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from tripmatch.model import Trip, Waypoint

from conftest import make_trip

POINTS = [(0.0, 1.0, 10.0), (2.0, 3.0, 20.0), (4.0, 5.0, 20.0)]


class TestImmutable:
    def test_points_array_is_read_only(self):
        trip = make_trip("a", POINTS)
        with pytest.raises(ValueError, match="read-only"):
            trip.xyt()[0, 0] = 99.0
        assert trip.xyt()[0, 0] == 0.0

    @pytest.mark.parametrize("name", ["id", "_xyt", "speed"])
    def test_attributes_cannot_be_set_or_deleted(self, name):
        trip = make_trip("a", POINTS)
        with pytest.raises(AttributeError):
            setattr(trip, name, "b")
        with pytest.raises(AttributeError):
            delattr(trip, name)
        assert trip.id == "a"

    def test_from_xyt_keeps_a_private_copy(self):
        source = np.array(POINTS)
        trip = Trip("a", source)
        source[0, 0] = 99.0
        assert trip.xyt()[0, 0] == 0.0

    def test_equal_ids_and_points_compare_equal(self):
        a = make_trip("a", POINTS)
        b = Trip("a", np.array(POINTS))
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != make_trip("b", POINTS)
        assert a != make_trip("a", POINTS[:2])
        assert a != make_trip("a", [(0.0, 1.0, 10.0), (2.0, 3.0, 20.0), (4.0, 5.5, 20.0)])

    def test_pickle_and_copy_round_trip(self):
        trip = make_trip("a", POINTS)
        for other in (pickle.loads(pickle.dumps(trip)), copy.copy(trip), copy.deepcopy(trip)):
            assert other == trip
            assert not other.xyt().flags.writeable


class TestViews:
    def test_waypoints_rebuilt_from_the_array(self):
        trip = make_trip("a", POINTS)
        assert trip.origin == Waypoint(*POINTS[0])
        assert trip.destination == Waypoint(*POINTS[-1])
        assert (trip.start_time, trip.end_time, trip.duration) == (10.0, 20.0, 10.0)
        assert trip.xyt().tolist() == [list(p) for p in POINTS]

    def test_repr_evaluates_to_an_equal_trip(self):
        trip = make_trip("a", [(0.1, -2.5e-7, 0.0), (1e300, 3.0, 7.25), (-0.0, 5.0, 7.25)])
        again = eval(repr(trip))
        assert again == trip
        assert again.xyt().tobytes() == trip.xyt().tobytes()


class TestFromXytChecks:
    @pytest.mark.parametrize("points, message", [
        (np.empty((0, 3)), "no waypoints"),
        ([(0.0, 1.0)], "shape"),
        ([(0.0, 1.0, 2.0, 3.0)], "shape"),
        ([0.0, 1.0, 2.0], "shape"),
        ([(np.nan, 0.0, 0.0)], "non-finite"),
        ([(0.0, np.inf, 0.0)], "non-finite"),
        ([(0.0, 0.0, np.inf)], "non-finite"),
        ([(0.0, 0.0, -1.0)], "below 0"),
        ([(0.0, 0.0, 5.0), (0.0, 0.0, 4.0)], "sorted"),
    ])
    def test_rejects_what_waypoints_reject(self, points, message):
        with pytest.raises(ValueError, match=message):
            Trip("a", points)

    def test_negative_zero_time_and_equal_times_accepted(self):
        trip = Trip("a", [(0.0, 0.0, -0.0), (1.0, 1.0, 0.0), (2.0, 2.0, 0.0)])
        assert trip.duration == 0.0
