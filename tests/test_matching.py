"""Tests for candidate filtering, greedy matching, accounting, and comparison."""

from __future__ import annotations

import dataclasses
import itertools
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tripmatch.metrics as metrics
from tripmatch import model
from tripmatch.matching import (
    MatchReport,
    MatchRow,
    MatchScenario,
    UndefinedReportError,
    _candidate_indices,
    _match,
    compare_metrics,
    compare_scenarios,
    greedy_match,
    match_counts_curve,
    savings_accounting,
)
from tripmatch.metrics import (
    METRIC_NAMES,
    TIME_HEAVY_WEIGHTS,
    MetricParams,
    WgmWeights,
    car_score,
    dtw,
    frechet_discrete,
    lcss,
)
from tripmatch.model import (
    ScaleContext, Trip, od_points, od_rep, path_lengths, sample_points,
    scale_points, spatial_distance,
)

from conftest import rider_ride_population, straight_trip


def passes_filter(request: Trip, ride: Trip, scenario: MatchScenario) -> bool:
    """The scalar candidate predicate: endpoint gates plus the mode's time order."""
    if scenario.mode == "car":
        ordered = ride.start_time >= request.start_time and ride.end_time <= request.end_time
    else:
        ordered = ride.start_time <= request.start_time and ride.end_time >= request.end_time
    return (
        spatial_distance(request.origin, ride.origin) <= scenario.dist_threshold
        and spatial_distance(request.destination, ride.destination) <= scenario.dist_threshold
        and abs(request.origin.t - ride.origin.t) <= scenario.time_threshold
        and abs(request.destination.t - ride.destination.t) <= scenario.time_threshold
        and ordered
    )


def feasible_candidates(request: Trip, rides: list[Trip], scenario: MatchScenario) -> list[Trip]:
    """The rides _candidate_indices admits for one request."""
    (indices,) = _candidate_indices(od_points([request]), od_points(rides), scenario)
    return [rides[j] for j in indices]


@st.composite
def filter_cases(draw) -> tuple[list[Trip], list[Trip], MatchScenario]:
    """Requests plus rides offset from them, many exactly at a threshold.

    Coordinates and times are multiples of 1/4, so every offset adds
    exactly. Boundary offsets are axis-aligned or Pythagorean (3u, 4u, 5u),
    distances that math.hypot and np.hypot both compute exactly; elsewhere
    the two may differ in the last bit.
    """
    def quarter(lo: int, hi: int) -> st.SearchStrategy[float]:
        return st.integers(4 * lo, 4 * hi).map(lambda v: v / 4)

    u = draw(st.integers(1, 600))
    dist, span = 5.0 * u, float(draw(st.integers(1, 1800)))
    scenario = MatchScenario(mode=draw(st.sampled_from(["car", "carpool"])),
                             dist_threshold=dist, time_threshold=span)
    space = st.one_of(
        st.sampled_from([(dist, 0.0), (0.0, -dist), (-3.0 * u, 4.0 * u), (4.0 * u, 3.0 * u),
                         (0.0, 0.0)]),
        st.tuples(quarter(-2 * int(dist), 2 * int(dist)), quarter(-2 * int(dist), 2 * int(dist))))
    time = st.one_of(st.sampled_from([span, -span, 0.0]), quarter(-2 * int(span), 2 * int(span)))
    requests = []
    for i in range(draw(st.integers(1, 3))):
        ox, oy, dx, dy = (draw(quarter(8000, 12_000)) for _ in range(4))
        t0 = draw(quarter(4000, 6000))
        requests.append(straight_trip(f"req-{i}", (ox, oy), (dx, dy), t0,
                                      t0 + draw(quarter(0, 3000))))
    rides = []
    for j in range(draw(st.integers(0, 12))):
        base = draw(st.sampled_from(requests))
        (oxo, oyo), (dxo, dyo) = draw(space), draw(space)
        t0 = base.start_time + draw(time)
        t1 = max(base.end_time + draw(time), t0)
        rides.append(straight_trip(
            f"ride-{j:02d}", (base.origin.x + oxo, base.origin.y + oyo),
            (base.destination.x + dxo, base.destination.y + dyo), t0, t1))
    return requests, rides, scenario


def exhaustive_choice(requests: list[Trip], rides: list[Trip], scenario: MatchScenario,
                      rep_len: int = 2) -> list[tuple[str | None, float]]:
    """Each request's (ride id, score) by a scan of its candidates, one pair at a time.

    Each candidate is scored by the scalar metric on rep_len sampled
    waypoints (2 gives the scaled OD endpoints); similarities take the
    argmax and distances the argmin, and equal scores go to the lowest ride
    id. A request without candidates gets (None, 0.0).
    """
    ctx = ScaleContext.from_trips(list(requests) + list(rides))
    reps_req, reps_ride = (scale_points(sample_points(trips, rep_len), ctx)
                           for trips in (requests, rides))
    pair = car_score if scenario.mode == "car" else lambda a, b, w: car_score(b, a, w)
    params = MetricParams(scenario.dist_threshold / max(ctx.x_span, ctx.y_span),
                          scenario.time_threshold / ctx.t_span)
    sign, score = {
        "wgm": (1, lambda a, b: pair(a, b, scenario.weights)),
        "wgm_time": (1, lambda a, b: pair(a, b, TIME_HEAVY_WEIGHTS)),
        "lcss": (1, lambda a, b: float(lcss(a, b, params))),
        "dtw": (-1, lambda a, b: dtw(a, b, "distance")),
        "dtw_time": (-1, lambda a, b: dtw(a, b, "distance_times_time")),
        "frechet": (-1, frechet_discrete),
    }[scenario.metric]
    out = []
    candidates = _candidate_indices(od_points(requests), od_points(rides), scenario)
    for rep, cands in zip(reps_req, candidates):
        ranked = sorted((-sign * score(rep, reps_ride[j]), rides[j].id) for j in cands)
        out.append((ranked[0][1], -sign * ranked[0][0]) if ranked else (None, 0.0))
    return out


def per_request_match(requests: list[Trip], rides: list[Trip],
                      scenarios: list[MatchScenario], rep_len: int) -> list[MatchReport]:
    """The matcher as a loop over requests, each taking one min of its key tuples.

    A request's best ride minimises (sign * score, ride id, ride index)
    over its candidates; offsets are read from the endpoints as lists and
    totals are summed row by row, in request order.
    """
    ctx = ScaleContext.from_trips(list(requests) + list(rides))
    raw_req, raw_ride = sample_points(requests, rep_len), sample_points(rides, rep_len)
    reps_req, reps_ride = scale_points(raw_req, ctx), scale_points(raw_ride, ctx)
    candidates = _candidate_indices(raw_req[:, [0, -1]], raw_ride[:, [0, -1]], scenarios[0])
    pair_req = [i for i, cands in enumerate(candidates) for _ in cands]
    pair_ride = [j for cands in candidates for j in cands]
    ends = list(itertools.accumulate(map(len, candidates)))
    req_od, ride_od = raw_req[:, [0, -1]].tolist(), raw_ride[:, [0, -1]].tolist()
    pair_ids = [rides[j].id for j in pair_ride]
    req_len = path_lengths(requests).tolist()
    reports = []
    for scenario in scenarios:
        if scenario.metric in metrics.DP_METRICS:
            params = MetricParams.for_context(
                ctx, scenario.dist_threshold, scenario.time_threshold)
            scores = metrics.dp_batch(reps_req, reps_ride, pair_req, pair_ride,
                                      params)[scenario.metric].tolist()
        else:
            w = TIME_HEAVY_WEIGHTS if scenario.metric == "wgm_time" else scenario.weights
            reps = ((reps_req[i].tolist(), reps_ride[j].tolist())
                    for i, j in zip(pair_req, pair_ride))
            scores = [car_score(a, b, w) if scenario.mode == "car" else car_score(b, a, w)
                      for a, b in reps]
        sign = -1 if scenario.metric in ("wgm", "wgm_time", "lcss") else 1
        keys = list(zip([sign * x for x in scores], pair_ids, pair_ride))
        rows, chosen = [], []
        for request, start, end, (o, d) in zip(requests, [0] + ends, ends, req_od):
            if start == end:
                rows.append(MatchRow(request.id, None, 0.0, 0.0, 0.0, 0.0, 0.0))
                continue
            key, ride_id, j = min(keys[start:end])
            ride_o, ride_d = ride_od[j]
            rows.append(MatchRow(
                request.id, ride_id,
                math.hypot(o[0] - ride_o[0], o[1] - ride_o[1]),
                math.hypot(d[0] - ride_d[0], d[1] - ride_d[1]),
                abs(o[2] - ride_o[2]), abs(d[2] - ride_d[2]), sign * key))
            chosen.append(j)
        matched = [r for r in rows if r.matched]
        distinct = list(dict.fromkeys(chosen))
        ride_len = dict(zip(distinct, path_lengths([rides[j] for j in distinct]).tolist()))
        reports.append(MatchReport(
            mode=scenario.mode, metric=scenario.metric, rows=tuple(rows),
            n_requests=len(rows), n_matched=len(matched),
            match_travels_km=sum(ride_len[j] for j in chosen) / 1000.0,
            match_travels_distinct_km=sum(ride_len.values()) / 1000.0,
            req_travels_km=sum(req_len) / 1000.0,
            req_travels_matched_km=sum(n for r, n in zip(rows, req_len) if r.matched) / 1000.0,
            oo_dist_km=sum(r.oo_dist_m for r in matched) / 1000.0,
            dd_dist_km=sum(r.dd_dist_m for r in matched) / 1000.0,
            oo_time_s=sum(r.oo_time_s for r in matched),
            dd_time_s=sum(r.dd_time_s for r in matched),
        ))
    return reports


def published_car_report() -> MatchReport:
    """A report carrying the published catch-a-ride aggregate numbers."""
    return MatchReport(
        mode="car", metric="wgm", rows=(), n_requests=2000, n_matched=1496,
        match_travels_km=4356.368, match_travels_distinct_km=0.0,
        req_travels_km=8633.831, req_travels_matched_km=5235.319,
        oo_dist_km=1017.665, dd_dist_km=1045.912,
        oo_time_s=70185.0, dd_time_s=88873.0,
    )


def published_cp_report() -> MatchReport:
    """A report carrying the published carpool aggregate numbers."""
    return MatchReport(
        mode="carpool", metric="wgm", rows=(), n_requests=2000, n_matched=1458,
        match_travels_km=5486.785, match_travels_distinct_km=0.0,
        req_travels_km=8633.831, req_travels_matched_km=4938.073,
        oo_dist_km=948.438, dd_dist_km=1019.560,
        oo_time_s=83171.0, dd_time_s=88064.0,
    )


class TestFeasibleCandidates:
    SCEN = MatchScenario(mode="car")

    def test_identical_ride_included(self):
        req = straight_trip("r", (1000, 1000), (5000, 5000), 100, 700)
        assert feasible_candidates(req, [req], self.SCEN) == [req]

    def test_distant_origin_excluded(self):
        req = straight_trip("r", (1000, 1000), (5000, 5000), 100, 700)
        ride = straight_trip("s", (3001, 1000), (5000, 5000), 100, 700)
        assert feasible_candidates(req, [ride], self.SCEN) == []

    def test_time_offset_excluded(self):
        req = straight_trip("r", (1000, 1000), (5000, 5000), 100, 700)
        ride = straight_trip("s", (1000, 1000), (5000, 5000), 1100, 1700)
        assert feasible_candidates(req, [ride], self.SCEN) == []

    def test_car_order_feasibility(self):
        req = straight_trip("r", (1000, 1000), (5000, 5000), 200, 800)
        early = straight_trip("s", (1000, 1000), (5000, 5000), 100, 700)
        nested = straight_trip("n", (1000, 1000), (5000, 5000), 300, 700)
        assert feasible_candidates(req, [early, nested], self.SCEN) == [nested]

    def test_carpool_order_is_mirrored(self):
        scen = MatchScenario(mode="carpool")
        req = straight_trip("r", (1000, 1000), (5000, 5000), 300, 700)
        wrapping = straight_trip("w", (1000, 1000), (5000, 5000), 200, 800)
        nested = straight_trip("n", (1000, 1000), (5000, 5000), 400, 600)
        assert feasible_candidates(req, [wrapping, nested], scen) == [wrapping]


def rounding_case(mode: str, request_t: float, ride_t: float) -> tuple:
    """One request and one ride whose origin times are exactly T = 523.2 s apart.

    The float request_t ± T rounds past ride_t, so only the exact gate admits the ride.
    """
    request = straight_trip("r", (0, 0), (3000, 0), request_t, request_t + 2000)
    ride = straight_trip("s", (0, 0), (3000, 0), ride_t, request_t + 2000)
    return [request], [ride], MatchScenario(mode=mode, time_threshold=523.2)


def just_past(ref: float, limit: float, direction: float) -> float:
    """The float nearest ref + direction * limit that lies more than limit from ref."""
    value = ref + direction * limit
    while abs(value - ref) <= limit:
        value = float(np.nextafter(value, direction * math.inf))
    return value


def one_gate_case(mode: str, gate: str) -> tuple:
    """One request, a ride that passes every gate, and a ride that only `gate` rejects.

    The thresholds are 1000 m and 600 s, and the second ride misses its gate
    by the fewest ulps. For "origin time" that puts its origin time inside
    the relative pad that widens the time window.
    """
    sign = 1.0 if mode == "car" else -1.0  # which way a car ride's window moves inward
    request = straight_trip("r", (0, 0), (5000, 0), 1000.0, 3000.0)
    origin, dest, t0, t1 = (0.0, 0.0), (5000.0, 0.0), 1000.0 + 200 * sign, 3000.0 - 200 * sign
    if gate == "dest order":
        t1 = just_past(3000.0, 0.0, sign)
    elif gate == "dest span":
        t1 = just_past(3000.0, 600.0, -sign)
    elif gate == "origin time":
        t0 = just_past(1000.0, 600.0, sign)
    elif gate == "origin distance":
        origin = (0.0, just_past(0.0, 1000.0, 1.0))
    else:
        assert gate == "dest distance"
        dest = (5000.0, just_past(0.0, 1000.0, 1.0))
    rides = [straight_trip("pass", (0, 0), (5000, 0), 1000.0 + 200 * sign, 3000.0 - 200 * sign),
             straight_trip("fail", origin, dest, t0, t1)]
    return [request], rides, MatchScenario(mode=mode, dist_threshold=1000.0,
                                           time_threshold=600.0)


def with_one_gate_examples(test):
    """test with an @example for each gate and mode in which that gate alone rejects a ride."""
    for mode in ("car", "carpool"):
        for gate in ("dest order", "dest span", "origin time", "origin distance",
                     "dest distance"):
            test = example(one_gate_case(mode, gate))(test)
    return test


class TestCandidateIndices:
    @with_one_gate_examples
    @settings(max_examples=200)
    @given(filter_cases())
    @example(rounding_case("car", 420.07671791192416, 943.2767179119243))
    @example(rounding_case("carpool", 878.2781030127951, 355.078103012795))
    def test_equals_scalar_predicate(self, case):
        requests, rides, scenario = case
        expected = [[j for j, ride in enumerate(rides) if passes_filter(request, ride, scenario)]
                    for request in requests]
        assert _candidate_indices(od_points(requests), od_points(rides), scenario) == expected

    @pytest.mark.parametrize("mode", ["car", "carpool"])
    @pytest.mark.parametrize("gate", ["dest order", "dest span", "origin time",
                                      "origin distance", "dest distance"])
    def test_one_gate_case_rejects_by_that_gate_alone(self, mode, gate):
        (request,), (passing, failing), scenario = one_gate_case(mode, gate)
        assert passes_filter(request, passing, scenario)
        assert not passes_filter(request, failing, scenario)
        car = mode == "car"
        # the failing ride lies in the request's window, so an exact gate must reject it
        pad = 1e-12 * (request.start_time + scenario.time_threshold)
        start_gap = (failing.start_time - request.start_time) * (1 if car else -1)
        assert 0 <= start_gap <= scenario.time_threshold + pad
        gates = {
            "dest order": (failing.end_time <= request.end_time if car
                           else failing.end_time >= request.end_time),
            "dest span": abs(failing.end_time - request.end_time) <= 600,
            "origin time": abs(failing.start_time - request.start_time) <= 600,
            "origin distance": spatial_distance(request.origin, failing.origin) <= 1000,
            "dest distance": spatial_distance(request.destination, failing.destination) <= 1000,
        }
        assert [g for g, ok in gates.items() if not ok] == [gate]

    @pytest.mark.parametrize("mode", ["car", "carpool"])
    def test_unbounded_windows_expand_in_blocks(self, mode):
        requests, rides = rider_ride_population(3, n_requests=400, n_rides=2000)
        scenario = MatchScenario(mode=mode, time_threshold=math.inf, dist_threshold=1800.0)
        req_od, ride_od = od_points(requests), od_points(rides)
        whole = _candidate_indices(req_od, ride_od, scenario)  # about 400k pairs: one block
        with mock.patch.object(model, "WINDOW_BLOCK_PAIRS", 1 << 12):
            tracemalloc.start()
            try:
                blocked = _candidate_indices(req_od, ride_od, scenario)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert blocked == whole and any(whole)
        # expanding every window at once peaks near 19 MB
        assert peak < 2_000_000


class TestMatchCountsCurve:
    def test_monotone_in_l_and_threshold(self):
        requests, rides = rider_ride_population(seed=21)
        scen = MatchScenario()
        rows = match_counts_curve(requests, rides, scen,
                                  sweep_dist=[300, 900, 1800, 3600], sweep_l=[1, 3, 5])
        by = {(r["threshold"], r["L"]): r["count"] for r in rows}
        for thr in (300, 900, 1800, 3600):
            assert by[(thr, 1)] >= by[(thr, 3)] >= by[(thr, 5)]
        for lvl in (1, 3, 5):
            counts = [by[(t, lvl)] for t in (300, 900, 1800, 3600)]
            assert counts == sorted(counts)

    def test_single_candidate_counts(self):
        req = straight_trip("r", (1000, 1000), (5000, 5000), 100, 700)
        ride = straight_trip("s", (1100, 1000), (5000, 5100), 150, 650)
        rows = match_counts_curve([req], [ride], MatchScenario(),
                                  sweep_dist=[1800], sweep_l=[1, 2])
        assert rows[0]["count"] == 1 and rows[1]["count"] == 0

    @pytest.mark.parametrize("sweeps, message", [
        ({"sweep_dist": [600, 0.0]}, "sweep_dist: thresholds must be positive, got 0"),
        ({"sweep_time": [math.nan]}, "sweep_time: thresholds must be positive, got nan"),
        ({"sweep_dist": [600], "sweep_l": [1, 0]}, "sweep_l: counts must be at least 1, got 0"),
    ])
    def test_bad_sweep_names_its_parameter(self, sweeps, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            match_counts_curve([], [], MatchScenario(), **sweeps)

    @pytest.mark.parametrize("mode", ["car", "carpool"])
    @settings(max_examples=100)
    @given(case=filter_cases(), data=st.data())
    def test_time_sweep_equals_candidates_per_step(self, mode, case, data):
        requests, rides, scenario = case
        scenario = dataclasses.replace(scenario, mode=mode)
        req_od, ride_od = od_points(requests), od_points(rides)
        # every endpoint's |dt|, so some steps sit exactly on a gate
        gaps = np.abs(req_od[:, None, :, 2] - ride_od[None, :, :, 2]).ravel().tolist()
        steps = data.draw(st.lists(st.one_of(st.sampled_from([g for g in gaps if g > 0] or [1.0]),
                                             st.floats(0.25, 4000.0)), min_size=1, max_size=6))
        levels = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
        expected = []
        for step in steps:
            swept = dataclasses.replace(scenario, time_threshold=step)
            sizes = [len(c) for c in _candidate_indices(req_od, ride_od, swept)]
            expected += [{"vary": "time", "threshold": step, "L": least,
                          "count": sum(1 for n in sizes if n >= least)} for least in levels]
        assert match_counts_curve(requests, rides, scenario, sweep_time=steps,
                                  sweep_l=levels) == expected


class TestGreedyMatch:
    def test_single_feasible_pair(self):
        req = straight_trip("r", (1000, 1000), (5000, 5000), 100, 700)
        ride = straight_trip("s", (1300, 1400), (5500, 5000), 200, 650)
        report = greedy_match([req], [ride], MatchScenario())
        (row,) = report.rows
        assert row.ride_id == "s"
        assert math.isclose(row.oo_dist_m, 500.0)
        assert math.isclose(row.dd_dist_m, 500.0)
        assert row.oo_time_s == 100.0 and row.dd_time_s == 50.0

    def test_unmatched_request(self):
        req = straight_trip("r", (1000, 1000), (5000, 5000), 100, 700)
        far = straight_trip("s", (9000, 9000), (15000, 15000), 100, 700)
        report = greedy_match([req], [far], MatchScenario())
        assert report.n_matched == 0
        assert report.rows[0].ride_id is None
        assert report.req_travels_matched_km == 0.0

    def test_matches_exhaustive_oracle(self):
        scen = MatchScenario(mode="car")
        for seed in range(10):
            requests, rides = rider_ride_population(seed=seed)
            report = greedy_match(requests, rides, scen)
            ctx = ScaleContext.from_trips(list(requests) + list(rides))
            reps = {t.id: od_rep(t, ctx) for t in list(requests) + list(rides)}
            for row, request in zip(report.rows, requests):
                # independent scan: filter then rank by (-score, ride id)
                scored = []
                for ride in rides:
                    if spatial_distance(request.origin, ride.origin) > 1800:
                        continue
                    if spatial_distance(request.destination, ride.destination) > 1800:
                        continue
                    if abs(request.origin.t - ride.origin.t) > 900:
                        continue
                    if abs(request.destination.t - ride.destination.t) > 900:
                        continue
                    if ride.start_time < request.start_time:
                        continue
                    if ride.end_time > request.end_time:
                        continue
                    scored.append((-car_score(reps[request.id], reps[ride.id]), ride.id))
                if not scored:
                    assert row.ride_id is None
                else:
                    assert row.ride_id == min(scored)[1]

    def test_request_order_is_irrelevant(self):
        requests, rides = rider_ride_population(seed=31)
        scen = MatchScenario()
        base = {r.request_id: r.ride_id for r in greedy_match(requests, rides, scen).rows}
        rng = np.random.default_rng(0)
        shuffled = list(requests)
        rng.shuffle(shuffled)
        moved = {r.request_id: r.ride_id for r in greedy_match(shuffled, rides, scen).rows}
        assert base == moved

    def test_reported_offsets_respect_thresholds(self):
        requests, rides = rider_ride_population(seed=32)
        report = greedy_match(requests, rides, MatchScenario())
        for row in report.rows:
            if row.matched:
                assert row.oo_dist_m <= 1800 and row.dd_dist_m <= 1800
                assert row.oo_time_s <= 900 and row.dd_time_s <= 900

    def test_aggregates_equal_row_sums(self):
        requests, rides = rider_ride_population(seed=33)
        report = greedy_match(requests, rides, MatchScenario())
        rides_by_id = {t.id: t for t in rides}
        reqs_by_id = {t.id: t for t in requests}
        matched = [r for r in report.rows if r.matched]
        assert report.n_matched == len(matched)
        assert math.isclose(report.match_travels_km,
                            path_lengths([rides_by_id[r.ride_id] for r in matched]).sum() / 1000)
        assert math.isclose(report.req_travels_km,
                            path_lengths(requests).sum() / 1000)
        assert math.isclose(report.req_travels_matched_km,
                            path_lengths([reqs_by_id[r.request_id] for r in matched]).sum() / 1000)
        assert math.isclose(report.oo_dist_km, sum(r.oo_dist_m for r in matched) / 1000)
        assert math.isclose(report.dd_dist_km, sum(r.dd_dist_m for r in matched) / 1000)
        assert math.isclose(report.oo_time_s, sum(r.oo_time_s for r in matched))

    def test_ties_break_on_lowest_ride_id(self):
        req = straight_trip("r", (1000, 1000), (5000, 5000), 100, 700)
        twin_b = straight_trip("b", (1100, 1000), (5100, 5000), 150, 650)
        twin_a = straight_trip("a", (1100, 1000), (5100, 5000), 150, 650)
        report = greedy_match([req], [twin_b, twin_a], MatchScenario())
        assert report.rows[0].ride_id == "a"

    @settings(max_examples=300)
    @given(filter_cases(), st.sampled_from(METRIC_NAMES), st.permutations(range(12)),
           st.sampled_from([(0.6, 0.4), (0.1, 0.9), (1.0, 0.0)]))
    def test_equals_exhaustive_choice(self, case, metric, ids, weights):
        requests, rides, scenario = case
        # ids out of index order, so the tie-break must read the id itself; the
        # anchor is no request's candidate and gives the scale box its extent
        rides = [Trip(f"ride-{ids[j]:02d}", t.xyt()) for j, t in enumerate(rides)]
        rides.append(straight_trip("anchor", (0, 0), (20_000, 20_000), 0, 20_000))
        scenario = dataclasses.replace(scenario, metric=metric, weights=WgmWeights(*weights))
        report = greedy_match(requests, rides, scenario)
        assert [(r.ride_id, r.score) for r in report.rows] == \
            exhaustive_choice(requests, rides, scenario)

    def test_carpool_uses_cp_score(self):
        req = straight_trip("r", (1000, 1000), (5000, 5000), 400, 600)
        ride = straight_trip("s", (1200, 1000), (5200, 5000), 300, 700)
        report = greedy_match([req], [ride], MatchScenario(mode="carpool"))
        (row,) = report.rows
        assert row.ride_id == "s"
        ctx = ScaleContext.from_trips([req, ride])
        expected = car_score(od_rep(ride, ctx), od_rep(req, ctx))
        assert math.isclose(row.score, expected, rel_tol=1e-12)


class TestChoiceOnPairArrays:
    """The lexsort choice against the per-request loop, report field by field with ==."""

    @settings(max_examples=200)
    @given(filter_cases(), st.sampled_from(["car", "carpool"]),
           st.lists(st.integers(0, 5), min_size=12, max_size=12), st.integers(2, 4))
    def test_equals_per_request_loop(self, case, mode, id_of, rep_len):
        requests, rides, scenario = case
        # few ids for up to twelve rides, so some rides share one; the anchor
        # gives the scale box its extent
        rides = [Trip(f"ride-{id_of[j]}", t.xyt()) for j, t in enumerate(rides)]
        rides.append(straight_trip("anchor", (0, 0), (20_000, 20_000), 0, 20_000))
        scenarios = by_metric(METRIC_NAMES, dataclasses.replace(scenario, mode=mode))
        scenarios.append(dataclasses.replace(scenarios[0], weights=WgmWeights(0.1, 0.9)))
        assert _match(requests, rides, scenarios, rep_len) == \
            per_request_match(requests, rides, scenarios, rep_len)

    @pytest.mark.parametrize("mode", ["car", "carpool"])
    @pytest.mark.parametrize("seed", [51, 52])
    def test_equals_per_request_loop_on_a_population(self, mode, seed):
        # hundreds of matched rows with inexact offsets, where a numpy sum or
        # np.hypot would round differently from the loop's
        requests, rides = rider_ride_population(seed, n_requests=300, n_rides=600, waypoints=5)
        if mode == "carpool":
            # the population nests rides in requests; carpool needs the converse
            requests, rides = rides[:300], requests
        scenarios = by_metric(METRIC_NAMES, MatchScenario(mode=mode))
        reports = _match(requests, rides, scenarios, 3)
        assert reports[0].n_matched >= 100
        assert reports == per_request_match(requests, rides, scenarios, 3)

    @pytest.mark.parametrize("mode", ["car", "carpool"])
    def test_no_requests(self, mode):
        ride = straight_trip("s", (1100, 1000), (5100, 5000), 150, 650)
        scenarios = by_metric(METRIC_NAMES, MatchScenario(mode=mode))
        reports = _match([], [ride], scenarios, 2)
        assert reports == per_request_match([], [ride], scenarios, 2)
        assert all(r.rows == () and r.n_requests == r.n_matched == 0 for r in reports)
        assert all(r.req_travels_km == r.match_travels_km == 0.0 for r in reports)

    @pytest.mark.parametrize("mode", ["car", "carpool"])
    def test_requests_without_candidates(self, mode):
        requests = [straight_trip("r0", (1000, 1000), (5000, 5000), 100, 700),
                    straight_trip("r1", (9000, 9000), (3000, 3000), 100, 700)]
        far = straight_trip("s", (15_000, 15_000), (19_000, 19_000), 100, 700)
        scenarios = by_metric(METRIC_NAMES, MatchScenario(mode=mode))
        reports = _match(requests, [far], scenarios, 2)
        assert reports == per_request_match(requests, [far], scenarios, 2)
        for report in reports:
            assert report.rows == tuple(MatchRow(t.id, None, 0.0, 0.0, 0.0, 0.0, 0.0)
                                        for t in requests)
            assert report.n_matched == 0 and report.req_travels_matched_km == 0.0

    @pytest.mark.parametrize("metric", METRIC_NAMES)
    def test_equal_scores_go_to_the_lowest_ride_id(self, metric):
        req = straight_trip("r", (1000, 1000), (5000, 5000), 100, 700)
        twins = [straight_trip(i, (1100, 1000), (5100, 5000), 150, 650) for i in "cab"]
        scenarios = [MatchScenario(metric=metric)]
        (report,) = _match([req], twins, scenarios, 2)
        assert report == per_request_match([req], twins, scenarios, 2)[0]
        assert report.rows[0].ride_id == "a"

    @pytest.mark.parametrize("metric", METRIC_NAMES)
    def test_rides_sharing_an_id_go_to_the_lowest_index(self, metric):
        # equal endpoints score alike; only the path length tells the two apart
        req = straight_trip("r", (1000, 1000), (5000, 5000), 100, 700)
        straight = straight_trip("s", (1100, 1000), (5100, 5000), 150, 650)
        detour = Trip("s", [(1100, 1000, 150), (3000, 9000, 400), (5100, 5000, 650)])
        scenarios = [MatchScenario(metric=metric)]
        for rides in ([straight, detour], [detour, straight]):
            (report,) = _match([req], rides, scenarios, 2)
            assert report == per_request_match([req], rides, scenarios, 2)[0]
            assert report.rows[0].ride_id == "s"
            assert report.match_travels_km == path_lengths(rides[:1])[0] / 1000.0


class TestSavingsAccounting:
    def test_car_reproduces_published_savings(self):
        result = savings_accounting(published_car_report())
        assert abs(100 * result["savings"] - 40.3) <= 0.1
        assert math.isclose(result["without_sharing_km"], 12990.199)

    def test_carpool_reproduces_published_savings(self):
        result = savings_accounting(published_cp_report())
        assert abs(100 * result["savings"] - 24.92) <= 0.1
        assert round(100 * result["savings"]) == 25

    def test_all_unmatched_saves_nothing(self):
        report = MatchReport(
            mode="car", metric="wgm", rows=(), n_requests=3, n_matched=0,
            match_travels_km=0.0, match_travels_distinct_km=0.0,
            req_travels_km=10.0, req_travels_matched_km=0.0,
            oo_dist_km=0.0, dd_dist_km=0.0, oo_time_s=0.0, dd_time_s=0.0)
        assert savings_accounting(report)["savings"] == 0.0

    def test_empty_scenario_is_undefined(self):
        report = MatchReport(
            mode="car", metric="wgm", rows=(), n_requests=0, n_matched=0,
            match_travels_km=0.0, match_travels_distinct_km=0.0,
            req_travels_km=0.0, req_travels_matched_km=0.0,
            oo_dist_km=0.0, dd_dist_km=0.0, oo_time_s=0.0, dd_time_s=0.0)
        with pytest.raises(UndefinedReportError):
            savings_accounting(report)

    def test_table_dict_keys(self):
        table = published_car_report().to_table_dict()
        for key in ("match travels (km)", "req travels (km)",
                    "match to total travel ratio", "origin-origin distance (km)",
                    "dest-dest distance (km)", "origin-origin times (sec)",
                    "dest-dest times (sec)", "# req with at least a match",
                    "req travels for least a match (km)",
                    "match to total travel ratio (at least a match)"):
            assert key in table
        assert table["match to total travel ratio"] == pytest.approx(33.54, abs=0.01)
        assert table["match to total travel ratio (at least a match)"] == \
            pytest.approx(45.42, abs=0.01)


def by_metric(names, base=MatchScenario()):
    """One scenario per metric name on the base scenario's gates."""
    return [dataclasses.replace(base, metric=name) for name in names]


class TestCompareMetrics:
    NAMES = ["wgm", "lcss", "frechet", "dtw", "dtw_time", "wgm_time"]

    def test_request_side_constant_across_metrics(self):
        requests, rides = rider_ride_population(seed=41, n_requests=8, n_rides=25, waypoints=60)
        reports = compare_metrics(requests, rides, by_metric(self.NAMES), rep_len=50)
        req_kms = {round(r.req_travels_km, 6) for r in reports}
        n_matched = {r.n_matched for r in reports}
        matched_req_kms = {round(r.req_travels_matched_km, 6) for r in reports}
        assert len(req_kms) == 1 and len(n_matched) == 1 and len(matched_req_kms) == 1

    def test_single_candidate_all_metrics_agree(self):
        req = straight_trip("r", (1000, 1000), (5000, 5000), 100, 700, n=60)
        ride = straight_trip("s", (1100, 1000), (5100, 5000), 150, 650, n=60)
        reports = compare_metrics([req], [ride], by_metric(self.NAMES), rep_len=50)
        assert all(r.rows[0].ride_id == "s" for r in reports)

    def test_short_trips_rejected(self):
        req = straight_trip("r", (1000, 1000), (5000, 5000), 100, 700, n=5)
        ride = straight_trip("s", (1100, 1000), (5100, 5000), 150, 650, n=60)
        with pytest.raises(ValueError, match="waypoints"):
            compare_metrics([req], [ride], [MatchScenario()], rep_len=50)

    def test_candidate_sets_shared(self):
        requests, rides = rider_ride_population(seed=42, n_requests=8, n_rides=25, waypoints=60)
        dtw_report, lcss_report = compare_metrics(requests, rides, by_metric(["dtw", "lcss"]))
        matched_dtw = [r.ride_id is not None for r in dtw_report.rows]
        matched_lcss = [r.ride_id is not None for r in lcss_report.rows]
        assert matched_dtw == matched_lcss

    @pytest.mark.parametrize("mode", ["car", "carpool"])
    def test_one_call_equals_a_call_per_scenario(self, mode):
        requests, rides = rider_ride_population(seed=43, n_requests=8, n_rides=25, waypoints=60)
        base = MatchScenario(mode=mode, dist_threshold=3000.0, time_threshold=1800.0)
        scenarios = by_metric(["dtw", "wgm", "wgm_time"], base) + [
            dataclasses.replace(base, weights=WgmWeights(1.0 - wt, wt)) for wt in (0.1, 0.9)]
        together = compare_metrics(requests, rides, scenarios)
        assert [r.metric for r in together] == ["dtw", "wgm", "wgm_time", "wgm", "wgm"]
        assert together == [compare_metrics(requests, rides, [s])[0] for s in scenarios]

    @pytest.mark.parametrize("mode", ["car", "carpool"])
    @settings(max_examples=60)
    @given(filter_cases(), st.integers(2, 6))
    def test_two_point_samples_match_as_greedy_match(self, mode, case, n_points):
        # 2-point samples are the OD reps, so every metric picks as greedy_match
        requests, rides, scenario = case
        requests, rides = ([Trip(t.id, np.linspace(t.xyt()[0], t.xyt()[-1], n_points))
                            for t in trips] for trips in (requests, rides))
        scenarios = by_metric(METRIC_NAMES, dataclasses.replace(scenario, mode=mode))
        assert compare_metrics(requests, rides, scenarios, rep_len=2) == \
            [greedy_match(requests, rides, s) for s in scenarios]

    @pytest.mark.parametrize("mode", ["car", "carpool"])
    @pytest.mark.parametrize("dist, span", [(3000.0, 1800.0), (math.inf, math.inf)])
    def test_equals_a_scan_of_scalar_scores(self, mode, dist, span, monkeypatch):
        requests, rides = rider_ride_population(seed=44, n_requests=10, n_rides=40, waypoints=30)
        if mode == "carpool":
            # the population nests rides in requests; carpool needs the converse
            requests, rides = rides[:12], requests
        base = MatchScenario(mode=mode, dist_threshold=dist, time_threshold=span)
        scenarios = by_metric(METRIC_NAMES, base)
        # tiles of two pairs, so the batched DP metrics cross tile boundaries
        monkeypatch.setattr(metrics, "DP_TILE_CELLS", 2 * 20 * 20)
        reports = compare_metrics(requests, rides, scenarios, rep_len=20)
        assert sum(r.matched for r in reports[0].rows) >= 3
        for scenario, report in zip(scenarios, reports):
            assert [(r.ride_id, r.score) for r in report.rows] == \
                exhaustive_choice(requests, rides, scenario, rep_len=20)

    def test_scenarios_must_share_gates(self):
        req = straight_trip("r", (1000, 1000), (5000, 5000), 100, 700, n=60)
        ride = straight_trip("s", (1100, 1000), (5100, 5000), 150, 650, n=60)
        for other in (MatchScenario(mode="carpool"), MatchScenario(dist_threshold=900.0),
                      MatchScenario(time_threshold=60.0)):
            with pytest.raises(ValueError, match="share mode and thresholds"):
                compare_metrics([req], [ride], [MatchScenario(), other])
        with pytest.raises(ValueError, match="one or more scenarios"):
            compare_metrics([req], [ride], [])

    @pytest.mark.parametrize("names, wt_sweep, message", [
        ([], [], "metrics: must name at least one metric, each once, got ''"),
        (["wgm", "dtw", "wgm"], [], "metrics: must name at least one metric, each once, "
                                    "got 'wgm,dtw,wgm'"),
        (["wgm", "cosine"], [], "metrics: must be one of wgm, wgm_time, lcss, dtw, dtw_time, "
                                "frechet, got 'cosine'"),
        (["wgm"], [0.5, 1.5], "wt_sweep: weights must lie in [0, 1], got 1.5"),
    ])
    def test_compare_scenarios_name_the_bad_parameter(self, names, wt_sweep, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            compare_scenarios(MatchScenario(), names, wt_sweep)

    def test_compare_scenarios_in_order(self):
        base = MatchScenario(mode="carpool", dist_threshold=900.0)
        got = compare_scenarios(base, ["dtw", "wgm"], [0.0, 0.25])
        assert [(s.metric, s.weights) for s in got] == [
            ("dtw", base.weights), ("wgm", base.weights),
            ("wgm", WgmWeights(1.0, 0.0)), ("wgm", WgmWeights(0.75, 0.25))]
        assert {(s.mode, s.dist_threshold, s.time_threshold) for s in got} == {
            ("carpool", 900.0, base.time_threshold)}

    def test_scenario_validation(self):
        with pytest.raises(ValueError, match="mode"):
            MatchScenario(mode="bus")
        with pytest.raises(ValueError, match="thresholds"):
            MatchScenario(dist_threshold=0.0)
        with pytest.raises(ValueError, match="metric"):
            MatchScenario(metric="cosine")

    def test_time_weight_sweep_tightens_time_offsets(self):
        # rides identical in geometry, spread in start time: as the temporal
        # weight grows the matcher should pick rides closer in time
        requests = [straight_trip("r", (5000, 5000), (8000, 8000), 1000, 1800)]
        rides = [
            straight_trip(f"s{k}", (5000 + 40 * k, 5000), (8000 + 40 * k, 8000),
                          1000 + 100 * k, 1800 - 10 * k)
            for k in range(1, 8)
        ]
        totals = []
        for wt in (0.1, 0.5, 0.9):
            scen = MatchScenario(weights=WgmWeights(1.0 - wt, wt))
            report = greedy_match(requests, rides, scen)
            totals.append(report.oo_time_s + report.dd_time_s)
        assert totals == sorted(totals, reverse=True)
