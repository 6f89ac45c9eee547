"""Output checks for every workload, built from the generated inputs alone.

The expected results are computed once per benchmark run, before any
timing, with numpy and scipy code of the benchmark's own: the hand-off
screen and a Hopcroft-Karp matching for `fleet`, a vectorised candidate
filter and the WGM formula for `match` and `compare`, batched DP tables for
the comparison metrics. The one exception is the spot check of the `compare`
oracle against the program's scalar metric functions, which the project
keeps as the reference implementations. Each check returns a list of
failure messages; an empty list is a pass.
"""

from __future__ import annotations

import csv
import json
import math
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from workloads import (DIST_THRESHOLD, MATCH_SWEEP_DIST, MATCH_SWEEP_L, REP_LEN,
                       TIME_THRESHOLD, Inputs, Population, candidate_pairs)

W_DEFAULT = (0.6, 0.4)
W_TIME_HEAVY = (0.1, 0.9)
SIMILARITIES = ("wgm", "wgm_time", "lcss")
COMPARE_METRICS = ("wgm", "lcss", "frechet", "dtw", "dtw_time", "wgm_time")
_CHUNK = 256


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _read_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# fleet: hand-off DAG, fleet size, chains

@dataclass
class FleetOracle:
    ids: tuple[str, ...]
    edges: set[tuple[str, str]]
    cardinality: int


def fleet_oracle(pop: Population) -> FleetOracle:
    start, end = pop.xyt[:, 0, 2], pop.xyt[:, -1, 2]
    origin, dest = pop.xyt[:, 0, :2], pop.xyt[:, -1, :2]
    rows, cols = [], []
    for lo in range(0, len(pop), _CHUNK):
        hi = min(lo + _CHUNK, len(pop))
        gap = start[None, :] - end[lo:hi, None]
        dist = np.hypot(origin[None, :, 0] - dest[lo:hi, None, 0],
                        origin[None, :, 1] - dest[lo:hi, None, 1])
        i, j = np.nonzero((gap > 0) & (gap <= TIME_THRESHOLD) & (dist <= DIST_THRESHOLD))
        rows.append(i + lo)
        cols.append(j)
    r, c = np.concatenate(rows), np.concatenate(cols)
    graph = csr_matrix((np.ones(len(r)), (r, c)), shape=(len(pop), len(pop)))
    match = maximum_bipartite_matching(graph, perm_type="column")
    edges = {(pop.ids[a], pop.ids[b]) for a, b in zip(r.tolist(), c.tolist())}
    return FleetOracle(pop.ids, edges, int((match >= 0).sum()))


def check_fleet(oracle: FleetOracle, out: Path) -> list[str]:
    errors = []
    summary = _read_json(out / "schedule_summary.json")
    n = len(oracle.ids)
    if summary["n_edges"] != len(oracle.edges):
        errors.append(f"n_edges {summary['n_edges']} != screened {len(oracle.edges)}")
    if summary["cardinality"] != oracle.cardinality:
        errors.append(f"cardinality {summary['cardinality']} != Hopcroft-Karp {oracle.cardinality}")
    if summary["n_cars"] != n - oracle.cardinality:
        errors.append(f"n_cars {summary['n_cars']} != n - cardinality {n - oracle.cardinality}")
    chains: dict[str, list[tuple[int, str]]] = defaultdict(list)
    for row in _read_csv(out / "chains.csv"):
        chains[row["chain_id"]].append((int(row["position"]), row["trip_id"]))
    seen: list[str] = []
    bad_hops = 0
    for members in chains.values():
        members.sort()
        if [p for p, _ in members] != list(range(len(members))):
            errors.append("chain positions are not 0..len-1")
        trip_ids = [t for _, t in members]
        seen += trip_ids
        bad_hops += sum((a, b) not in oracle.edges for a, b in zip(trip_ids, trip_ids[1:]))
    if sorted(seen) != sorted(oracle.ids):
        errors.append("chains do not partition the trips")
    if bad_hops:
        errors.append(f"{bad_hops} chain hops are not hand-off edges")
    if len(chains) != summary["n_cars"]:
        errors.append(f"{len(chains)} chains but n_cars {summary['n_cars']}")
    return errors


# ---------------------------------------------------------------------------
# match and compare: candidate filter, WGM and DP metrics, greedy choice

@dataclass
class Split:
    """Request/ride arrays in raw units plus the scale context of both sets."""

    req: Population
    ride: Population
    lo: np.ndarray = field(init=False)
    span: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        both = np.concatenate([self.req.xyt.reshape(-1, 3), self.ride.xyt.reshape(-1, 3)])
        self.lo = both.min(axis=0)
        self.span = both.max(axis=0) - self.lo

    def scaled(self, xyt: np.ndarray) -> np.ndarray:
        return np.clip((xyt - self.lo) / self.span, 0.0, 1.0)


def wgm_car(a: np.ndarray, b: np.ndarray, w: tuple[float, float]) -> np.ndarray:
    """Catch-a-ride WGM score of request reps `a` against ride reps `b`, pairwise."""
    d = np.hypot(a[..., 0] - b[..., 0], a[..., 1] - b[..., 1])
    tau = np.abs(a[..., 2] - b[..., 2])
    tau[:, 0] = b[:, 0, 2] - a[:, 0, 2]
    tau[:, -1] = a[:, -1, 2] - b[:, -1, 2]
    tau = np.maximum(tau, 0.0)
    ws, wt = w
    psim = np.exp((ws * np.log(1.0 / (1.0 + d)) + wt * np.log(1.0 / (1.0 + tau))) / (ws + wt))
    return psim.mean(axis=1)


def dp_metric(name: str, a: np.ndarray, b: np.ndarray, eps: tuple[float, float]) -> np.ndarray:
    """LCSS, DTW (plain or time-weighted) or discrete Frechet over many pairs at once."""
    pairs, m, n = len(a), a.shape[1], b.shape[1]
    dist = np.hypot(a[:, :, None, 0] - b[:, None, :, 0], a[:, :, None, 1] - b[:, None, :, 1])
    dt = np.abs(a[:, :, None, 2] - b[:, None, :, 2])
    if name == "lcss":
        hit = (dist <= eps[0]) & (dt <= eps[1])
        prev = np.zeros((pairs, n + 1), dtype=np.int64)
        for i in range(m):
            cur = np.zeros_like(prev)
            for j in range(1, n + 1):
                cur[:, j] = np.where(hit[:, i, j - 1], prev[:, j - 1] + 1,
                                     np.maximum(prev[:, j], cur[:, j - 1]))
            prev = cur
        return prev[:, n].astype(float)
    cost = dist * dt if name == "dtw_time" else dist
    prev = np.full((pairs, n + 1), np.inf)
    prev[:, 0] = 0.0
    for i in range(m):
        cur = np.full_like(prev, np.inf)
        for j in range(1, n + 1):
            best = np.minimum(np.minimum(prev[:, j], cur[:, j - 1]), prev[:, j - 1])
            if name == "frechet":
                cur[:, j] = np.maximum(cost[:, i, j - 1], best)
            else:
                cur[:, j] = cost[:, i, j - 1] + best
        prev = cur
    return prev[:, n]


def greedy_choice(i: np.ndarray, j: np.ndarray, score: np.ndarray, n_req: int,
                  similarity: bool) -> np.ndarray:
    """Best ride per request (-1 if none); ties go to the lowest ride index.

    Ride ids are zero-padded, so the lowest index is also the lowest id.
    """
    key = -score if similarity else score
    order = np.lexsort((j, key, i))
    first = np.ones(len(order), dtype=bool)
    first[1:] = i[order][1:] != i[order][:-1]
    choice = np.full(n_req, -1)
    choice[i[order][first]] = j[order][first]
    return choice


@dataclass
class MatchOracle:
    choice: dict[str, str]
    near_ties: dict[str, set[str]]
    curve: dict[tuple[float, int], int]
    n_matched: int
    candidates_1800: int


def match_oracle(split: Split) -> MatchOracle:
    i, j = candidate_pairs(split.req.xyt, split.ride.xyt, max(MATCH_SWEEP_DIST))
    req, ride = split.req.xyt, split.ride.xyt
    gap = np.maximum(
        np.hypot(*(req[i, 0, :2] - ride[j, 0, :2]).T),
        np.hypot(*(req[i, -1, :2] - ride[j, -1, :2]).T))
    curve = {}
    for dist in MATCH_SWEEP_DIST:
        per_req = np.bincount(i[gap <= dist], minlength=len(req))
        for least in MATCH_SWEEP_L:
            curve[(dist, least)] = int((per_req >= least).sum())
    keep = gap <= DIST_THRESHOLD
    i, j = i[keep], j[keep]
    od = [0, -1]
    score = wgm_car(split.scaled(req[i][:, od]), split.scaled(ride[j][:, od]), W_DEFAULT)
    choice = greedy_choice(i, j, score, len(req), similarity=True)
    best = np.full(len(req), -np.inf)
    np.maximum.at(best, i, score)
    ties: dict[str, set[str]] = defaultdict(set)
    for a, b in zip(*(arr[score >= best[i] - 1e-12] for arr in (i, j))):
        ties[split.req.ids[a]].add(split.ride.ids[b])
    return MatchOracle(
        choice={split.req.ids[a]: (split.ride.ids[c] if c >= 0 else "")
                for a, c in enumerate(choice.tolist())},
        near_ties={k: v for k, v in ties.items() if len(v) > 1},
        curve=curve,
        n_matched=int((choice >= 0).sum()),
        candidates_1800=len(i),
    )


def check_match(oracle: MatchOracle, out: Path, summary: dict) -> list[str]:
    errors = []
    wrong = 0
    for row in _read_csv(out / "matches.csv"):
        want = oracle.choice.get(row["request_id"])
        if row["ride_id"] != want and row["ride_id"] not in oracle.near_ties.get(
                row["request_id"], ()):
            wrong += 1
    if wrong:
        errors.append(f"{wrong} requests matched to a ride other than the WGM argmax")
    curve = {(float(r["threshold"]), int(r["L"])): int(r["count"])
             for r in _read_csv(out / "curve.csv") if r["vary"] == "dist"}
    if curve != oracle.curve:
        errors.append(f"curve.csv {curve} != screened {oracle.curve}")
    report = _read_json(out / "report.json")
    got = {report["# req with at least a match"], summary.get("n_matched")}
    if got != {oracle.n_matched} or curve.get((DIST_THRESHOLD, 1)) != oracle.n_matched:
        errors.append(f"n_matched {sorted(got, key=str)} vs L=1 count {oracle.n_matched}")
    return errors


def sampled(xyt: np.ndarray, k: int) -> np.ndarray:
    """Uniform index selection keeping both endpoints, as the trips format documents."""
    m = xyt.shape[1]
    if m <= k:
        return xyt
    step = (m - 1) / (k - 1)
    return xyt[:, [int(math.floor(i * step + 0.5)) for i in range(k)]]


@dataclass
class CompareOracle:
    fields: dict[str, dict[str, float]]
    spot_errors: list[str]


def compare_oracle(split: Split, spot_requests: int = 12, seed: int = 0) -> CompareOracle:
    """Per-metric accounting fields of report.json, plus a scalar spot check."""
    i, j = candidate_pairs(split.req.xyt, split.ride.xyt, DIST_THRESHOLD)
    req, ride = split.req.xyt, split.ride.xyt
    a = split.scaled(sampled(req, REP_LEN))[i]
    b = split.scaled(sampled(ride, REP_LEN))[j]
    eps = (DIST_THRESHOLD / max(split.span[0], split.span[1]), TIME_THRESHOLD / split.span[2])
    ride_len = np.hypot(*np.diff(ride[:, :, :2], axis=1).transpose(2, 0, 1)).sum(axis=1)
    scores, fields = {}, {}
    for name in COMPARE_METRICS:
        if name in ("wgm", "wgm_time"):
            s = wgm_car(a, b, W_DEFAULT if name == "wgm" else W_TIME_HEAVY)
        else:
            s = dp_metric(name, a, b, eps)
        scores[name] = s
        choice = greedy_choice(i, j, s, len(req), similarity=name in SIMILARITIES)
        q = np.flatnonzero(choice >= 0)
        c = choice[q]
        fields[name] = {
            "# req with at least a match": len(q),
            "match travels (km)": ride_len[c].sum() / 1000.0,
            "origin-origin distance (km)":
                np.hypot(*(req[q, 0, :2] - ride[c, 0, :2]).T).sum() / 1000.0,
            "dest-dest distance (km)":
                np.hypot(*(req[q, -1, :2] - ride[c, -1, :2]).T).sum() / 1000.0,
            "origin-origin times (sec)": np.abs(req[q, 0, 2] - ride[c, 0, 2]).sum(),
            "dest-dest times (sec)": np.abs(req[q, -1, 2] - ride[c, -1, 2]).sum(),
        }
    return CompareOracle(fields, _spot_check(split, i, j, scores, eps, spot_requests, seed))


def _spot_check(split, i, j, scores, eps, n_req, seed) -> list[str]:
    """The program's scalar metric functions must agree with the batched oracle."""
    from tripmatch import metrics

    params = metrics.MetricParams(eps_space=eps[0], eps_time=eps[1])
    scalar = {
        "wgm": lambda p, q: metrics.car_score(p, q, metrics.WgmWeights(*W_DEFAULT)),
        "wgm_time": lambda p, q: metrics.car_score(p, q, metrics.WgmWeights(*W_TIME_HEAVY)),
        "lcss": lambda p, q: float(metrics.lcss(p, q, params)),
        "frechet": metrics.frechet_discrete,
        "dtw": lambda p, q: metrics.dtw(p, q, "distance"),
        "dtw_time": lambda p, q: metrics.dtw(p, q, "distance_times_time"),
    }
    reqs = np.unique(i)
    pick = np.random.default_rng(seed).choice(reqs, min(n_req, len(reqs)), replace=False)
    reps_req = split.scaled(sampled(split.req.xyt, REP_LEN))
    reps_ride = split.scaled(sampled(split.ride.xyt, REP_LEN))
    errors = []
    for name, fn in scalar.items():
        for r in pick:
            rows = np.flatnonzero(i == r)
            want = [fn(reps_req[r], reps_ride[jj]) for jj in j[rows]]
            if not np.allclose(want, scores[name][rows], rtol=1e-9, atol=1e-12):
                errors.append(f"{name}: batched oracle differs from the scalar metric "
                              f"for {split.req.ids[r]}")
    return errors


def check_compare(oracle: CompareOracle, out: Path, summary: dict) -> list[str]:
    errors = list(oracle.spot_errors)
    report = _read_json(out / "report.json")
    for name, want in oracle.fields.items():
        got = report.get(name, {})
        for key, value in want.items():
            tol = 1.5e-3 if "(km)" in key else 1.0 if "(sec)" in key else 0
            if key not in got or abs(got[key] - value) > tol:
                errors.append(f"{name} {key!r}: {got.get(key)} != {value:.6g}")
    matched = oracle.fields["wgm"]["# req with at least a match"]
    if summary.get("n_matched") != matched:
        errors.append(f"summary n_matched {summary.get('n_matched')} != {matched}")
    return errors


# ---------------------------------------------------------------------------
# cluster: planted groups

def check_cluster(ids: tuple[str, ...], truth: np.ndarray, out: Path) -> list[str]:
    labels = {r["trip_id"]: r["cluster"] for r in _read_csv(out / "labels.csv")}
    if sorted(labels) != sorted(ids):
        return ["labels.csv does not label every trip once"]
    pairs = {(int(g), labels[t]) for t, g in zip(ids, truth.tolist())}
    if len(pairs) != len(set(truth.tolist())) or len({lab for _, lab in pairs}) != len(pairs):
        return [f"labels do not recover the planted groups ({len(pairs)} group-label pairs)"]
    return []


# ---------------------------------------------------------------------------

class Checker:
    """Expected results for one workload's inputs; `check` judges one run's outputs."""

    def __init__(self, inputs: Inputs) -> None:
        self.workload = inputs.workload
        self.inputs = inputs
        if self.workload == "fleet":
            self.oracle = fleet_oracle(inputs.pops["trips"])
        elif self.workload in ("match", "compare"):
            split = Split(inputs.pops["requests"], inputs.pops["rides"])
            self.oracle = (match_oracle if self.workload == "match" else compare_oracle)(split)
        else:
            self.oracle = None

    def check(self, out: Path, summary: dict) -> list[str]:
        try:
            if self.workload == "fleet":
                return check_fleet(self.oracle, out)
            if self.workload == "match":
                return check_match(self.oracle, out, summary)
            if self.workload == "compare":
                return check_compare(self.oracle, out, summary)
            pop = self.inputs.pops["trips"]
            return check_cluster(pop.ids, self.inputs.truth, out)
        except (OSError, KeyError, ValueError, TypeError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]
