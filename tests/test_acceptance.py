"""Acceptance gate: one test per release criterion, at its stated tolerance.

Run with -v for one pass/fail line per criterion (names carry the
criterion number); each test also prints an ACCEPTANCE line.
"""

from __future__ import annotations

import math
import os
import time

import numpy as np
import pytest

import tripmatch.metrics as metrics
from tripmatch.affinity import build_affinity, spectral_cluster, sym_decompose
from tripmatch.carshare import extract_chains, max_card_max_weight_matching, schedule_trips
from tripmatch.cli import main as cli_main
from tripmatch.ingest import TimeWindow, build_trips, parse_trace
from tripmatch.matching import MatchScenario, greedy_match, savings_accounting
from tripmatch.metrics import WgmWeights, car_score, dtw, frechet_discrete, lcss, psim, wgm_sim
from tripmatch.model import ScaleContext, od_rep, spatial_distance
from tripmatch.stats import fit_gamma, fit_lognormal

from conftest import rider_ride_population
from test_affinity import adjusted_rand_index, two_group_trips
from test_carshare import (
    brute_force_min_path_partition,
    matching_weight,
    random_dag,
)
from test_matching import published_car_report, published_cp_report
from test_metrics import dtw_rec, frechet_rec, lcss_rec, random_seq

W = WgmWeights(0.6, 0.4)


def note(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE criterion {criterion:2d}: PASS — {message}")


def test_c01_wgm_closed_form():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    for _ in range(100):
        p = tuple(rng.random(3))
        assert psim(p, p, W) == 1.0
    assert math.isclose(psim((0, 0, 0), (1, 0, 1), W), 0.5, rel_tol=1e-12)
    assert math.isclose(
        psim((0, 0, 0), (3, 0, 0.5), WgmWeights(1, 0)), 0.25, rel_tol=1e-12)
    for _ in range(1000):
        p, q = rng.random(3), rng.random(3)
        w1, w2, c = rng.uniform(0.01, 4.0, 3)
        a = psim(p, q, WgmWeights(w1, w2))
        b = psim(p, q, WgmWeights(c * w1, c * w2))
        assert math.isclose(a, b, rel_tol=1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    note(1, f"psim identities and weight-scale invariance ({elapsed:.2f}s)")


def test_c02_linear_and_quadratic_complexity(monkeypatch):
    psim_calls = []
    original_psim = metrics.psim

    def counting_psim(*args, **kwargs):
        psim_calls.append(1)
        return original_psim(*args, **kwargs)

    monkeypatch.setattr(metrics, "psim", counting_psim)
    rng = np.random.default_rng(2)
    for n in (2, 50, 500):
        psim_calls.clear()
        wgm_sim(random_seq(rng, n), random_seq(rng, n), W)
        assert len(psim_calls) == n

    dist_calls = []
    original_dist = metrics._xy_dist

    def counting_dist(p, q):
        dist_calls.append(1)
        return original_dist(p, q)

    monkeypatch.setattr(metrics, "_xy_dist", counting_dist)
    params = metrics.MetricParams(0.3, 0.3)
    for m, n in ((2, 50), (8, 8), (50, 50)):
        t1, t2 = random_seq(rng, m), random_seq(rng, n)
        for run in (lambda: lcss(t1, t2, params),
                    lambda: dtw(t1, t2, "distance"),
                    lambda: dtw(t1, t2, "distance_times_time"),
                    lambda: frechet_discrete(t1, t2)):
            dist_calls.clear()
            run()
            assert len(dist_calls) == m * n
    note(2, "wgm_sim is n psim calls; DP metrics fill m*n cells")


def test_c03_metric_recursion_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    params = metrics.MetricParams(0.4, 0.5)
    for _ in range(500):
        # plain lists keep the values identical and the recursion affordable
        t1 = random_seq(rng, int(rng.integers(1, 9))).tolist()
        t2 = random_seq(rng, int(rng.integers(1, 9))).tolist()
        assert lcss(t1, t2, params) == lcss_rec(t1, t2, params)
        assert math.isclose(dtw(t1, t2, "distance"),
                            dtw_rec(t1, t2, False), rel_tol=0, abs_tol=1e-12)
        assert math.isclose(dtw(t1, t2, "distance_times_time"),
                            dtw_rec(t1, t2, True), rel_tol=0, abs_tol=1e-12)
        assert math.isclose(frechet_discrete(t1, t2),
                            frechet_rec(t1, t2), rel_tol=0, abs_tol=1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    note(3, f"500 random pairs match the recursive definitions ({elapsed:.2f}s)")


def test_c04_greedy_equals_exhaustive_argmax():
    scen = MatchScenario(mode="car")
    total_matched = 0
    multi_candidate = 0
    for seed in range(100):
        requests, rides = rider_ride_population(seed, n_requests=20, n_rides=50)
        report = greedy_match(requests, rides, scen)
        ctx = ScaleContext.from_trips(list(requests) + list(rides))
        reps = {t.id: od_rep(t, ctx) for t in list(requests) + list(rides)}
        for row, request in zip(report.rows, requests):
            ranked = []
            for ride in rides:
                feasible = (
                    spatial_distance(request.origin, ride.origin) <= scen.dist_threshold
                    and spatial_distance(request.destination, ride.destination)
                    <= scen.dist_threshold
                    and abs(request.origin.t - ride.origin.t) <= scen.time_threshold
                    and abs(request.destination.t - ride.destination.t)
                    <= scen.time_threshold
                    and ride.start_time >= request.start_time
                    and ride.end_time <= request.end_time
                )
                if feasible:
                    ranked.append((-car_score(reps[request.id], reps[ride.id], W),
                                   ride.id))
            expected = min(ranked)[1] if ranked else None
            assert row.ride_id == expected
            if len(ranked) >= 2:
                multi_candidate += 1
        total_matched += report.n_matched
        if seed < 5:
            rng = np.random.default_rng(seed)
            shuffled = list(requests)
            rng.shuffle(shuffled)
            again = greedy_match(shuffled, rides, scen)
            assert {r.request_id: r.ride_id for r in report.rows} == \
                {r.request_id: r.ride_id for r in again.rows}
    # the scenarios must exercise real argmax decisions, not vacuous filters
    assert total_matched >= 1000
    assert multi_candidate >= 500
    note(4, f"100 scenarios match the exhaustive scan "
            f"({total_matched} matches, {multi_candidate} contested)")


def test_c05_published_savings_arithmetic():
    car = savings_accounting(published_car_report())
    assert abs(100 * car["savings"] - 40.3) <= 0.1
    cp = savings_accounting(published_cp_report())
    assert abs(100 * cp["savings"] - 24.92) <= 0.1
    assert round(100 * cp["savings"]) == 25
    note(5, f"car saves {100 * car['savings']:.2f}%, carpool {100 * cp['savings']:.2f}%")


def test_c06_min_path_partition_with_max_weight():
    start = time.perf_counter()
    rng = np.random.default_rng(6)
    for _ in range(1000):
        dag = random_dag(rng, max_n=8)
        matching = max_card_max_weight_matching(dag)
        schedule = extract_chains(dag, matching)
        count, weight = brute_force_min_path_partition(dag)
        assert schedule.n_cars == count
        assert abs(matching_weight(dag, matching) - weight) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    note(6, f"1000 random DAGs at the brute-force optimum ({elapsed:.2f}s)")


def test_c07_fleet_size_identity():
    rng = np.random.default_rng(7)
    for _ in range(200):
        dag = random_dag(rng, max_n=8)
        matching = max_card_max_weight_matching(dag)
        schedule = extract_chains(dag, matching)
        assert schedule.n_cars == dag.n - schedule.cardinality
    # the published fleet example: 2000 trips at cardinality 1370 need 630 cars
    assert 2000 - 1370 == 630
    note(7, "n_cars = n - matching cardinality on every instance")


def test_c08_planted_partition_recovery():
    for temporal in (False, True):
        trips, truth = two_group_trips(n_per_group=100, temporal=temporal, seed=8)
        assert len(trips) == 200
        ctx = ScaleContext.from_trips(trips)
        reps = [od_rep(t, ctx) for t in trips]
        aff = build_affinity(reps, lambda a, b: wgm_sim(a, b, W), symmetric_scorer=True)
        labels = spectral_cluster(aff.values, 2, seed=0)
        assert adjusted_rand_index(labels, truth) == 1.0
    note(8, "spatial and temporal plantings recovered with ARI 1.0 (n=200)")


def test_c09_symmetric_decomposition():
    rng = np.random.default_rng(9)
    for _ in range(10):
        a = rng.random((100, 100))
        s, k, _ = sym_decompose(a)
        assert np.abs(s + k - a).max() <= 1e-15
        fro_a = float((a * a).sum())
        fro_s = float((s * s).sum())
        fro_k = float((k * k).sum())
        assert abs(fro_a - fro_s - fro_k) <= 1e-9 * fro_a
    sym = rng.random((50, 50))
    sym = (sym + sym.T) / 2
    assert sym_decompose(sym)[2] == 1.0
    anti = rng.random((50, 50))
    anti = (anti - anti.T) / 2
    assert sym_decompose(anti)[2] == 0.0
    note(9, "A = S + K with orthogonal Frobenius split")


def test_c10_distribution_fit_recovery():
    rng = np.random.default_rng(42)
    log_samples = rng.lognormal(1.0, 0.5, 10_000)
    logfit = fit_lognormal(log_samples)
    assert abs(logfit.params[0] - 1.0) <= 0.02
    assert abs(logfit.params[1] - 0.5) <= 0.02

    gamma_samples = rng.gamma(2.0, 300.0, 10_000)
    gfit = fit_gamma(gamma_samples)
    assert abs(gfit.params[0] - 2.0) <= 0.1

    expo = rng.exponential(1.0, 10_000)
    assert 0.93 <= fit_gamma(expo).params[0] <= 1.07

    assert fit_gamma(gamma_samples).log_likelihood >= \
        fit_lognormal(gamma_samples).log_likelihood
    note(10, "lognormal/gamma recovered; gamma fits gamma data better")


@pytest.mark.skipif(
    not os.environ.get("COLOGNE_TRACE"),
    reason="set COLOGNE_TRACE to the raw trace file to run the dataset checks",
)
def test_c11_cologne_morning_window():
    path = os.environ["COLOGNE_TRACE"]
    with open(path) as fh:
        records, _ = parse_trace(fh)
    trips = build_trips(records, TimeWindow(28_800.0, 32_400.0))
    order = np.random.default_rng(7).permutation(len(trips))
    riders = [trips[i] for i in order[:2000]]
    rides = [trips[i] for i in order[2000:12_000]]

    dag, schedule = schedule_trips(riders, dist_threshold=1800.0, time_threshold=900.0)
    assert len(dag.edges) == 38_730
    assert schedule.cardinality == 1370
    multi = [len(c) for c in schedule.chains if len(c) > 1]
    assert abs(sum(multi) / len(multi) - 3.88) <= 0.05

    report = greedy_match(riders, rides, MatchScenario(mode="car"))
    assert abs(report.match_travels_km - 4356.368) <= 0.05 * 4356.368
    note(11, "morning-window fleet and matching figures reproduced")


def test_c12_manifest_replay_reproducibility(tmp_path, capsys):
    synth_out = tmp_path / "trips"
    assert cli_main(["synth", "--n", "60", "--seed", "7", "--lognorm-mu", "7.5",
                     "--waypoints", "60", "--bbox", "0,20000,0,20000,0,14400",
                     "--out", str(synth_out)]) == 0
    pipelines = [
        ("match", ["match", "--trips", str(synth_out / "trips.jsonl"),
                   "--n-riders", "15", "--n-rides", "45",
                   "--sweep-dist", "600,1800", "--sweep-L", "1,3"],
         ["matches.csv", "report.json", "curve.csv"]),
        ("cluster", ["cluster", "--trips", str(synth_out / "trips.jsonl"), "--k", "3"],
         ["labels.csv", "coords_pca.csv", "coords_mds.csv", "cluster_summary.csv"]),
        ("carshare", ["carshare", "--trips", str(synth_out / "trips.jsonl")],
         ["chains.csv", "chain_stats.csv", "schedule_summary.json"]),
    ]
    for name, argv, artifacts in pipelines:
        first = tmp_path / f"{name}-run1"
        second = tmp_path / f"{name}-run2"
        assert cli_main(argv + ["--out", str(first)]) == 0
        assert cli_main([name, "--from-manifest", str(first / "run_manifest.json"),
                         "--out", str(second)]) == 0
        for artifact in artifacts:
            assert (second / artifact).read_bytes() == (first / artifact).read_bytes(), \
                f"{name}/{artifact} not reproducible"
    capsys.readouterr()
    note(12, "match, cluster, and carshare replays are byte-identical")
