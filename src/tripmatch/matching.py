"""Threshold-filtered dynamic matching of riders to rides, with trip accounting.

Two scenarios are supported. In "car" mode the request travels to a ride's
origin and from its destination, so the ride must start after and end
before the request. In "carpool" mode the ride detours to serve the
request, so the request's window must nest inside the ride's.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import metrics
from .metrics import MetricParams, WgmWeights, check_metric
from .model import (
    ScaleContext, Trip, TripSet, check_param, od_points, path_lengths, sample_points, scale_points,
    space_time_pairs, within_distance,
)

#: -1 when the best ride maximises the metric (a similarity), 1 when it
#: minimises it (a distance).
_SIGN = {"wgm": -1, "wgm_time": -1, "lcss": -1, "dtw": 1, "dtw_time": 1, "frechet": 1}


class UndefinedReportError(ValueError):
    """Raised when savings accounting divides by an empty scenario."""

    category = "undefined-report"


@dataclass(frozen=True, slots=True)
class MatchScenario:
    """Matching mode, filter thresholds (raw meters/seconds), and score knobs."""

    mode: str = "car"
    dist_threshold: float = metrics.DEFAULT_DIST_THRESHOLD
    time_threshold: float = metrics.DEFAULT_TIME_THRESHOLD
    weights: WgmWeights = metrics.DEFAULT_WEIGHTS
    metric: str = "wgm"

    def __post_init__(self) -> None:
        check_param("mode", self.mode, self.mode in ("car", "carpool"), "must be car or carpool")
        metrics.check_thresholds(dist_threshold=self.dist_threshold,
                                 time_threshold=self.time_threshold)
        check_metric("metric", self.metric)


@dataclass(frozen=True, slots=True)
class MatchRow:
    """Outcome for one request: the chosen ride and endpoint offsets."""

    request_id: str
    ride_id: str | None
    oo_dist_m: float
    dd_dist_m: float
    oo_time_s: float
    dd_time_s: float
    score: float

    @property
    def matched(self) -> bool:
        return self.ride_id is not None


@dataclass(frozen=True)
class MatchReport:
    """Per-request match rows plus the aggregate accounting fields.

    match_travels_km counts the chosen ride's length once per matched
    request; match_travels_distinct_km counts each chosen ride once
    regardless of how many requests picked it.
    """

    mode: str
    metric: str
    rows: tuple[MatchRow, ...]
    n_requests: int
    n_matched: int
    match_travels_km: float
    match_travels_distinct_km: float
    req_travels_km: float
    req_travels_matched_km: float
    oo_dist_km: float
    dd_dist_km: float
    oo_time_s: float
    dd_time_s: float

    @property
    def match_to_total_ratio(self) -> float:
        total = self.match_travels_km + self.req_travels_km
        return self.match_travels_km / total if total > 0 else 0.0

    @property
    def match_to_total_matched_ratio(self) -> float:
        total = self.match_travels_km + self.req_travels_matched_km
        return self.match_travels_km / total if total > 0 else 0.0

    @property
    def savings(self) -> float:
        return savings_accounting(self)["savings"]

    def to_table_dict(self) -> dict[str, object]:
        """Aggregates keyed by the report table's row labels."""
        return {
            "match travels (km)": round(self.match_travels_km, 3),
            "req travels (km)": round(self.req_travels_km, 3),
            "match to total travel ratio": round(100 * self.match_to_total_ratio, 2),
            "origin-origin distance (km)": round(self.oo_dist_km, 3),
            "dest-dest distance (km)": round(self.dd_dist_km, 3),
            "origin-origin times (sec)": int(round(self.oo_time_s)),
            "dest-dest times (sec)": int(round(self.dd_time_s)),
            "# req with at least a match": self.n_matched,
            "req travels for least a match (km)": round(self.req_travels_matched_km, 3),
            "match to total travel ratio (at least a match)":
                round(100 * self.match_to_total_matched_ratio, 2),
            "match travels distinct (km)": round(self.match_travels_distinct_km, 3),
            "savings": round(100 * self.savings, 2),
            "n requests": self.n_requests,
            "mode": self.mode,
            "metric": self.metric,
        }


def _candidate_indices(
    requests: np.ndarray, rides: np.ndarray, scenario: MatchScenario
) -> list[list[int]]:
    """Per-request feasible ride indices, ascending.

    requests and rides are raw endpoint stacks of shape (n, 2, 3), as
    od_points gives them. A ride is a candidate when its origin and its
    destination each lie within time_threshold seconds and dist_threshold
    meters of the request's, and its window is ordered against the
    request's as the mode requires. model.space_time_pairs screens each
    request's window of ride origin times, [t, t + T] for car and [t - T, t]
    for carpool, in the grid cells of ride origins around its origin; the
    exact gates then run a block of requests at a time, in three stages that
    each gather columns only for the pairs the last one passed.
    """
    ox, oy, ot, dx, dy, dt = rides.reshape(-1, 6).T
    rox, roy, rot, rdx, rdy, rdt = requests.reshape(-1, 6).T
    dist, span = scenario.dist_threshold, scenario.time_threshold
    # |ot - rot| <= T rounds at the scale of the times, not of rot - T, so
    # the far bound is widened by a relative slack and the exact gate decides
    pad = 1e-12 * (rot + span)
    car = scenario.mode == "car"
    windows = (rot, rot + span + pad) if car else (rot - span - pad, rot)
    # the order and destination-time gates as one interval: a - b <= 0 iff a <= b
    late_lo, late_hi = (-span, 0.0) if car else (0.0, span)
    kept = []
    for i, j in space_time_pairs(ot, *windows, rides[:, 0, :2], requests[:, 0, :2], dist):
        late = dt[j] - rdt[i]
        keep = np.flatnonzero((late >= late_lo) & (late <= late_hi))
        i, j = i[keep], j[keep]
        keep = np.flatnonzero(within_distance(ox[j] - rox[i], oy[j] - roy[i], dist))
        i, j = i[keep], j[keep]
        # inside its window, a pair fails the origin-time gate only in the pad
        keep = np.flatnonzero(within_distance(dx[j] - rdx[i], dy[j] - rdy[i], dist)
                              & (np.abs(ot[j] - rot[i]) <= span))
        kept.append((i[keep], j[keep]))
    i, j = map(np.concatenate, zip(*kept))
    rides_of = j[np.lexsort((j, i))].tolist()
    ends = np.cumsum(np.bincount(i, minlength=len(requests))).tolist()
    return [rides_of[a:b] for a, b in zip([0] + ends, ends)]


def _match(
    requests: Iterable[Trip] | TripSet,
    rides: Iterable[Trip] | TripSet,
    scenarios: Sequence[MatchScenario],
    rep_len: int,
) -> list[MatchReport]:
    """One report per scenario, each request matched to its best candidate.

    Trips are scored on rep_len sampled waypoints, scaled into the box of
    both populations; their endpoints decide the candidates, which the
    scenarios share with the first one, as they share mode and thresholds.
    Each candidate is scored once: by car_score pair by pair for the WGM
    metrics, by one dp_batch call over all pairs for every DP metric (carpool
    scores a request against a ride as car_score(ride, request)). One lexsort
    by (request, sign * score, ride id, ride index) puts each request's best
    ride first in its run of pairs. Offsets and path lengths are computed
    only for the chosen pairs.
    """
    requests, rides = TripSet.of(requests), TripSet.of(rides)
    ctx = ScaleContext.from_trips(requests, rides)
    raw_req, raw_ride = sample_points(requests, rep_len), sample_points(rides, rep_len)
    req_od, ride_od = raw_req[:, [0, -1]], raw_ride[:, [0, -1]]
    reps_req, reps_ride = scale_points(raw_req, ctx), scale_points(raw_ride, ctx)
    candidates = _candidate_indices(req_od, ride_od, scenarios[0])
    n = len(requests)
    counts = np.array([len(c) for c in candidates], dtype=np.intp)
    pair_req = np.repeat(np.arange(n), counts)
    pair_ride = np.array([j for cands in candidates for j in cands], dtype=np.intp)
    matched = np.flatnonzero(counts).tolist()
    firsts = (np.cumsum(counts) - counts)[matched]
    ride_ids = rides.ids
    id_rank = np.empty(len(rides), dtype=np.intp)
    id_rank[sorted(range(len(rides)), key=ride_ids.__getitem__)] = np.arange(len(rides))
    req_len = path_lengths(requests).tolist()
    unmatched = [MatchRow(i, None, 0.0, 0.0, 0.0, 0.0, 0.0) for i in requests.ids]
    dp = None
    reports = []
    for scenario in scenarios:
        if scenario.metric in metrics.DP_METRICS:
            if dp is None:
                params = MetricParams.for_context(
                    ctx, scenario.dist_threshold, scenario.time_threshold)
                dp = metrics.dp_batch(reps_req, reps_ride, pair_req, pair_ride, params)
            scores = dp[scenario.metric]
        else:
            w = metrics.TIME_HEAVY_WEIGHTS if scenario.metric == "wgm_time" else scenario.weights
            # the scalar metric runs faster on float lists than on numpy rows
            reps = ((reps_req[i].tolist(), reps_ride[j].tolist())
                    for i, j in zip(pair_req.tolist(), pair_ride.tolist()))
            scores = np.array([metrics.car_score(a, b, w) if scenario.mode == "car"
                               else metrics.car_score(b, a, w) for a, b in reps], dtype=float)
        sign = _SIGN[scenario.metric]
        best = np.lexsort((id_rank[pair_ride], sign * scores, pair_req))[firsts]
        chosen = pair_ride[best].tolist()
        rows = list(unmatched)
        for i, j, score, ((ox, oy, ot), (dx, dy, dt)) in zip(
                matched, chosen, scores[best].tolist(),
                (req_od[matched] - ride_od[chosen]).tolist()):
            rows[i] = MatchRow(requests.ids[i], ride_ids[j], math.hypot(ox, oy),
                               math.hypot(dx, dy), abs(ot), abs(dt), score)
        hits = [rows[i] for i in matched]
        distinct = list(dict.fromkeys(chosen))
        ride_len = dict(zip(distinct, path_lengths([rides[j] for j in distinct]).tolist()))
        reports.append(MatchReport(
            mode=scenario.mode,
            metric=scenario.metric,
            rows=tuple(rows),
            n_requests=n,
            n_matched=len(chosen),
            match_travels_km=sum(ride_len[j] for j in chosen) / 1000.0,
            match_travels_distinct_km=sum(ride_len.values()) / 1000.0,
            req_travels_km=sum(req_len) / 1000.0,
            req_travels_matched_km=sum(req_len[i] for i in matched) / 1000.0,
            oo_dist_km=sum(r.oo_dist_m for r in hits) / 1000.0,
            dd_dist_km=sum(r.dd_dist_m for r in hits) / 1000.0,
            oo_time_s=sum(r.oo_time_s for r in hits),
            dd_time_s=sum(r.dd_time_s for r in hits),
        ))
    return reports


def greedy_match(
    requests: Iterable[Trip] | TripSet, rides: Iterable[Trip] | TripSet, scenario: MatchScenario
) -> MatchReport:
    """Match every request to its best feasible ride, independently.

    Rides have no capacity limit, so per-request choices are independent
    and a greedy scan is optimal. Trips are scored on their scaled OD
    endpoints.
    """
    return _match(requests, rides, [scenario], 2)[0]


def savings_accounting(report: MatchReport) -> dict[str, float]:
    """Traveled-kilometer totals with and without sharing, and the saving.

    car: with sharing, matched requests ride along, so the shared total is
    the unmatched request travel plus the match travel. carpool: everyone
    still drives, plus the pick-up and drop-off detours; without sharing
    the match trips would run separately.
    """
    without = report.req_travels_km + report.match_travels_km
    if without <= 0:
        raise UndefinedReportError("no traveled kilometers to account for")
    if report.mode == "car":
        unmatched = report.req_travels_km - report.req_travels_matched_km
        with_sharing = unmatched + report.match_travels_km
    else:  # carpool, the one other mode a MatchScenario takes
        with_sharing = report.req_travels_km + report.oo_dist_km + report.dd_dist_km
    return {
        "with_sharing_km": with_sharing,
        "without_sharing_km": without,
        "savings": 1.0 - with_sharing / without,
    }


def check_sweeps(sweep_dist: Sequence[float] = (), sweep_time: Sequence[float] = (),
                 sweep_l: Sequence[int] = (1,)) -> None:
    """Raise ValueError unless every swept threshold is positive and every count L is at least 1."""
    for name, sweep in (("sweep_dist", sweep_dist), ("sweep_time", sweep_time)):
        for value in sweep:
            metrics.check_thresholds(**{name: value})
    for least in sweep_l:
        check_param("sweep_l", least, least >= 1, "counts must be at least 1")


def match_counts_curve(
    requests: Iterable[Trip] | TripSet,
    rides: Iterable[Trip] | TripSet,
    scenario: MatchScenario,
    sweep_dist: Sequence[float] = (),
    sweep_time: Sequence[float] = (),
    sweep_l: Sequence[int] = (1,),
) -> list[dict[str, float]]:
    """Requests having at least L candidates, for each L of sweep_l, per swept threshold value.

    The distance threshold takes each value of sweep_dist, then the time
    threshold each value of sweep_time; the other stays at its scenario value.
    """
    check_sweeps(sweep_dist, sweep_time, sweep_l)
    req_od, ride_od = od_points(requests), od_points(rides)
    out = []
    for vary, sweep in (("dist", sweep_dist), ("time", sweep_time)):
        for value in sweep:
            swept = dataclasses.replace(scenario, **{f"{vary}_threshold": value})
            sizes = [len(c) for c in _candidate_indices(req_od, ride_od, swept)]
            for least in sweep_l:
                out.append({
                    "vary": vary,
                    "threshold": float(value),
                    "L": int(least),
                    "count": sum(1 for s in sizes if s >= least),
                })
    return out


def compare_scenarios(scenario: MatchScenario, metrics: Sequence[str],
                      wt_sweep: Sequence[float] = ()) -> list[MatchScenario]:
    """scenario under each metric, then under wgm at weights (1 - wt, wt) per wt of wt_sweep."""
    check_param("metrics", ",".join(metrics), 0 < len(metrics) == len(set(metrics)),
                "must name at least one metric, each once")
    for wt in wt_sweep:
        check_param("wt_sweep", wt, 0 <= wt <= 1, "weights must lie in [0, 1]")
    for name in metrics:
        check_metric("metrics", name)
    return ([dataclasses.replace(scenario, metric=name) for name in metrics]
            + [dataclasses.replace(scenario, metric="wgm", weights=WgmWeights(1.0 - wt, wt))
               for wt in wt_sweep])


def compare_metrics(
    requests: Iterable[Trip] | TripSet,
    rides: Iterable[Trip] | TripSet,
    scenarios: Sequence[MatchScenario],
    rep_len: int = 50,
) -> list[MatchReport]:
    """One matching report per scenario, in order, all on the same candidates.

    The scenarios may differ in metric and weights but must share mode and
    thresholds, so candidates and representations are computed once and
    every report shares the request-side aggregates. All trips must yield a
    full rep_len-waypoint representation so the aligned-sequence metrics
    stay comparable.
    """
    if len({(s.mode, s.dist_threshold, s.time_threshold) for s in scenarios}) != 1:
        raise ValueError("compare needs one or more scenarios that share mode and thresholds")
    requests, rides = TripSet.of(requests), TripSet.of(rides)
    for trips in (requests, rides):
        short = np.flatnonzero(trips.counts < rep_len)
        if len(short):
            i = short[0]
            raise ValueError(
                f"trip {trips.ids[i]!r} has only {trips.counts[i]} waypoints; need {rep_len}")
    return _match(requests, rides, scenarios, rep_len)
