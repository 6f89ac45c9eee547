"""Tests for the trip DAG, optimal matching, and chain extraction.

Two independent brute-force oracles back the solver: an exhaustive
enumeration of all matchings, and an exhaustive path-partition search
over subsets (which never mentions matchings at all).
"""

from __future__ import annotations

import math
import re
import sys
import tracemalloc
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripmatch import carshare, model
from tripmatch.carshare import (
    TripDag,
    build_trip_dag,
    chain_stats,
    extract_chains,
    max_card_max_weight_matching,
    schedule_trips,
)
from tripmatch.metrics import WgmWeights, psim
from tripmatch.model import ScaleContext, Trip, od_rep, spatial_distance

from conftest import straight_trip

W = WgmWeights(0.6, 0.4)


def make_dag(trip_ids, rows, weights) -> TripDag:
    """TripDag over trip_ids with the listed (i, j) edge rows and their weights."""
    return TripDag(tuple(trip_ids), np.array(rows, dtype=np.intp).reshape(-1, 2),
                   np.array(weights, dtype=float))


def dag_of(trip_ids, edges: dict[tuple[int, int], float]) -> TripDag:
    """TripDag whose edge rows are edges' keys, in order, weighted by its values."""
    return make_dag(trip_ids, list(edges), list(edges.values()))


def edge_items(dag: TripDag) -> list[tuple[tuple[int, int], float]]:
    """The DAG's ((i, j), weight) pairs, in row order."""
    return [((i, j), w) for (i, j), w in zip(dag.edges.tolist(), dag.weights.tolist())]


def random_dag(rng, max_n=8) -> TripDag:
    """Random DAG on a topological order, with random weights in (0, 1]."""
    n = int(rng.integers(2, max_n + 1))
    rows, weights = [], []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.35:
                rows.append((i, j))
                weights.append(float(rng.uniform(0.05, 1.0)))
    return make_dag([f"t{i}" for i in range(n)], rows, weights)


@st.composite
def dags(draw, max_n=8, tied=False) -> TripDag:
    """Any DAG on a topological order, with weights in [0, 1].

    With tied set, the weights are all zero or take at most three values.
    """
    n = draw(st.integers(1, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = sorted(draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([])))
    weights = st.floats(0.0, 1.0, allow_nan=False)
    if tied:
        weights = st.sampled_from(draw(st.lists(weights, min_size=1, max_size=3))) \
            if draw(st.booleans()) else st.just(0.0)
    return make_dag([f"t{i}" for i in range(n)], chosen, [draw(weights) for _ in chosen])


@st.composite
def handoff_cases(draw) -> tuple[list[Trip], float, float]:
    """Trips that follow earlier ones, many exactly at a hand-off threshold.

    Coordinates and times are multiples of 1/4 and the 3-4-5 unit u is an
    integer, so those offsets add exactly, and math.hypot and np.hypot
    agree on every distance at or near the threshold. Thresholds may be
    non-dyadic (900.1) and durations arbitrary floats: then end + T
    rounds, an offset of exactly T or D may round, and a start one ulp
    past end + T may still have a gap of at most T.
    """
    def quarter(lo: int, hi: int) -> st.SearchStrategy[float]:
        return st.integers(4 * lo, 4 * hi).map(lambda v: v / 4)

    u = draw(st.integers(1, 400))
    dist = 5.0 * u + draw(st.sampled_from([0.0, 0.3]))
    span = float(draw(st.integers(1, 1800))) + draw(st.sampled_from([0.0, 0.1, 0.25]))
    space = st.one_of(
        st.sampled_from([(dist, 0.0), (0.0, -dist), (0.0, 0.0)]),
        st.sampled_from([(-3.0 * u, 4.0 * u), (4.0 * u, 3.0 * u)]) if dist == 5.0 * u
        else st.just((0.0, dist)),
        st.tuples(quarter(-2 * int(dist), 2 * int(dist)), quarter(-2 * int(dist), 2 * int(dist))))
    gap = st.one_of(st.sampled_from([span, 0.0, -0.25]),
                    quarter(-int(span), 2 * int(span)))
    trips: list[Trip] = []
    for i in range(draw(st.integers(1, 12))):
        dx, dy = draw(quarter(5000, 15_000)), draw(quarter(5000, 15_000))
        if trips and draw(st.booleans()):
            base = draw(st.sampled_from(trips))
            ox, oy = (c + off for c, off in zip((base.destination.x, base.destination.y),
                                                draw(space)))
            t0 = draw(st.one_of(
                gap.map(lambda g, t=base.end_time: max(t + g, 0.0)),
                st.just(math.nextafter(base.end_time + span, math.inf)),
                st.sampled_from([t.start_time for t in trips])))  # equal start times
        else:
            ox, oy = draw(quarter(5000, 15_000)), draw(quarter(5000, 15_000))
            t0 = draw(quarter(0, 6000))
        duration = draw(st.one_of(quarter(0, 1200), st.floats(0, 1200)))
        trips.append(straight_trip(f"t{i:02d}", (ox, oy), (dx, dy), t0, t0 + duration))
    return trips, dist, span


def assert_acyclic(dag: TripDag) -> None:
    """Kahn topological sort over the DAG's edges."""
    indeg = [0] * dag.n
    succ: dict[int, list[int]] = {}
    for i, j in dag.edges.tolist():
        indeg[j] += 1
        succ.setdefault(i, []).append(j)
    queue = [v for v in range(dag.n) if indeg[v] == 0]
    seen = 0
    while queue:
        v = queue.pop()
        seen += 1
        for u in succ.get(v, ()):
            indeg[u] -= 1
            if indeg[u] == 0:
                queue.append(u)
    assert seen == dag.n, "trip graph contains a cycle"


def brute_force_best_matching(dag: TripDag) -> tuple[int, float]:
    """Max cardinality, then max weight, by enumerating every matching."""
    edges = edge_items(dag)

    def explore(idx, used_left, used_right, size, weight):
        best = (size, weight)
        for e in range(idx, len(edges)):
            (i, j), w = edges[e]
            if i in used_left or j in used_right:
                continue
            cand = explore(e + 1, used_left | {i}, used_right | {j},
                           size + 1, weight + w)
            if cand > best:
                best = cand
        return best

    return explore(0, frozenset(), frozenset(), 0, 0.0)


def brute_force_min_path_partition(dag: TripDag) -> tuple[int, float]:
    """Fewest vertex-disjoint paths covering the DAG; max weight among those.

    Enumerates every directed path as a vertex bitmask, then runs a
    subset DP choosing a path for the lowest uncovered vertex. Returns
    (path count, total edge weight of the chosen paths).
    """
    n = dag.n
    succ = {}
    for (i, j), w in edge_items(dag):
        succ.setdefault(i, []).append((j, w))

    paths = []  # (mask, weight)

    def grow(v, mask, weight):
        paths.append((mask, weight))
        for u, w in succ.get(v, ()):
            if not mask & (1 << u):
                grow(u, mask | (1 << u), weight + w)

    for v in range(n):
        grow(v, 1 << v, 0.0)

    by_low_vertex: dict[int, list[tuple[int, float]]] = {}
    for mask, weight in paths:
        low = (mask & -mask).bit_length() - 1
        by_low_vertex.setdefault(low, []).append((mask, weight))

    full = (1 << n) - 1

    @lru_cache(maxsize=None)
    def best(covered: int) -> tuple[int, float]:
        if covered == full:
            return (0, 0.0)
        low = (~covered & -~covered).bit_length() - 1
        best_count, best_weight = n + 1, -math.inf
        for mask, weight in by_low_vertex[low]:
            if mask & covered:
                continue
            count, rest = best(covered | mask)
            count += 1
            total = weight + rest
            if count < best_count or (count == best_count and total > best_weight):
                best_count, best_weight = count, total
        return (best_count, best_weight)

    result = best(0)
    best.cache_clear()
    return result


def matching_weight(dag: TripDag, matching: dict[int, int]) -> float:
    weight_of = dict(edge_items(dag))
    return sum(weight_of[(i, j)] for i, j in matching.items())


def matchings_on_both_paths(dag: TripDag) -> list[dict[int, int]]:
    """The DAG's matching from the in-process solver, then from scipy's."""
    out = []
    for limit in (sys.maxsize, 0):
        with mock.patch.object(carshare, "MAX_IN_PROCESS_EDGES", limit):
            out.append(max_card_max_weight_matching(dag))
    return out


class TestBuildTripDag:
    def test_sequential_nearby_trips_connect(self):
        a = straight_trip("a", (1000, 1000), (5000, 5000), 0, 900)
        b = straight_trip("b", (5400, 5000), (9000, 9000), 1200, 2100)
        dag = build_trip_dag([a, b])
        assert dag.edges.tolist() == [[0, 1]]

    def test_overlapping_trips_never_connect(self):
        a = straight_trip("a", (1000, 1000), (5000, 5000), 0, 1000)
        b = straight_trip("b", (5000, 5000), (9000, 9000), 900, 2000)
        dag = build_trip_dag([a, b])
        assert dag.edges.shape == (0, 2) and dag.weights.shape == (0,)

    def test_equal_timestamps_excluded(self):
        a = straight_trip("a", (1000, 1000), (5000, 5000), 0, 900)
        b = straight_trip("b", (5000, 5000), (9000, 9000), 900, 2000)
        dag = build_trip_dag([a, b])
        assert dag.edges.shape == (0, 2) and dag.weights.shape == (0,)

    def test_threshold_gates(self):
        a = straight_trip("a", (1000, 1000), (5000, 5000), 0, 900)
        far = straight_trip("f", (6900, 5000), (9000, 9000), 1000, 2000)
        late = straight_trip("l", (5000, 5000), (9000, 9000), 1900, 2900)
        dag = build_trip_dag([a, far, late])
        assert dag.edges.shape == (0, 2) and dag.weights.shape == (0,)

    def test_edge_weight_is_handoff_psim(self):
        a = straight_trip("a", (1000, 1000), (5000, 5000), 0, 900)
        b = straight_trip("b", (5400, 5000), (9000, 9000), 1200, 2100)
        dag = build_trip_dag([a, b], weights=W)
        # scaled in the trips' own box: x and y 1000-9000 m, t 0-2100 s
        end = (4000 / 8000, 4000 / 8000, 900 / 2100)
        start = (4400 / 8000, 4000 / 8000, 1200 / 2100)
        expected = psim(end, start, W)
        assert dag.edges.tolist() == [[0, 1]]
        assert math.isclose(dag.weights[0], expected, rel_tol=1e-12)

    def test_output_is_acyclic(self):
        rng = np.random.default_rng(0)
        trips = []
        for i in range(30):
            x0, y0 = rng.uniform(0, 18_000, 2)
            t0 = rng.uniform(0, 5000)
            trips.append(straight_trip(f"t{i:02d}", (x0, y0), (x0 + 1500, y0), t0, t0 + 600))
        dag = build_trip_dag(trips)
        assert_acyclic(dag)
        for i, j in dag.edges.tolist():
            assert trips[j].start_time > trips[i].end_time

    def test_gap_decides_where_the_window_bound_rounds(self):
        # b starts one ulp past a.end + T in floats, yet b.start - a.end == T
        a = straight_trip("a", (1000, 1000), (5000, 5000), 0, 463.7997569242769)
        b = straight_trip("b", (5000, 5000), (9000, 9000), 986.999756924277, 1500)
        assert b.start_time > a.end_time + 523.2
        assert b.start_time - a.end_time == 523.2
        assert build_trip_dag([a, b], time_threshold=523.2).edges.tolist() == [[0, 1]]

    def test_edges_do_not_depend_on_the_block_cap(self):
        # at three window pairs a block, a trip's successors span many blocks
        rng = np.random.default_rng(5)
        trips = []
        for i in range(150):
            (x0, y0), t0 = rng.uniform(0, 8000, 2), rng.uniform(0, 4000)
            trips.append(straight_trip(f"t{i:03d}", (x0, y0), (x0 + 900, y0 - 400), t0, t0 + 300))
        whole = build_trip_dag(trips)
        with mock.patch.object(model, "WINDOW_BLOCK_PAIRS", 3):
            blocked = build_trip_dag(trips)
        assert len(whole.edges) > 300
        assert (np.diff(whole.edges @ (len(trips), 1)) > 0).all()  # ascending (a, b) rows
        assert np.array_equal(blocked.edges, whole.edges)
        assert np.array_equal(blocked.weights, whole.weights)

    def test_dag_holds_its_edges_as_arrays(self):
        # trip j starts 2 (j - i) - 1 s after trip i ends: every later trip follows
        trips = [straight_trip(f"t{i:03d}", (1000 + i, 1000), (5000, 5000 + i), 2 * i, 2 * i + 1)
                 for i in range(400)]
        build_trip_dag(trips[:3], dist_threshold=math.inf)  # one-time allocations go first
        tracemalloc.start()
        try:
            dag = build_trip_dag(trips, dist_threshold=math.inf)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(dag.edges) == 400 * 399 // 2
        # the (E, 2) intp rows and (E,) weights take 24 bytes an edge; a dict
        # keyed by (i, j) tuples took about 178
        assert held < 40 * len(dag.edges)

    def test_rejects_repeated_trip_ids(self):
        # chain_stats keys trips by id: the chain ('a', 'a') would pair a trip with itself
        a = straight_trip("a", (1000, 1000), (5000, 5000), 0, 900)
        b = straight_trip("a", (5400, 5000), (9000, 9000), 1200, 2100)
        with pytest.raises(ValueError, match="duplicate trip id 'a'"):
            build_trip_dag([a, b])
        with pytest.raises(ValueError, match="duplicate trip id 'a'"):
            schedule_trips([b, straight_trip("c", (0, 0), (9, 9), 0, 60), a])

    @settings(max_examples=300)
    @given(handoff_cases())
    def test_sweep_equals_scalar_predicate(self, case):
        trips, dist, span = case
        expected = []
        for i, a in enumerate(trips):
            for j, b in enumerate(trips):
                gap = b.start_time - a.end_time
                if i != j and 0 < gap <= span and \
                        spatial_distance(a.destination, b.origin) <= dist:
                    expected.append((i, j))
        dag = build_trip_dag(trips, dist, span, W)
        assert dag.edges.dtype == np.intp and dag.edges.shape == (len(expected), 2)
        assert dag.weights.shape == (len(expected),)
        assert [tuple(e) for e in dag.edges.tolist()] == expected
        box = ScaleContext.from_trips(trips)
        for (i, j), weight in edge_items(dag):
            a, b = od_rep(trips[i], box), od_rep(trips[j], box)
            assert math.isclose(weight, psim(a[1], b[0], W), rel_tol=1e-12)


def dense_oracle(dag: TripDag) -> tuple[int, float]:
    """Max cardinality, then max weight, from a dense assignment with a shift.

    Every edge gets n * (top + 1) + 1 on top of its weight, so one more edge
    outweighs any difference in weight; non-edges stay at zero.
    """
    from scipy.optimize import linear_sum_assignment

    weight_of = dict(edge_items(dag))
    if not weight_of:
        return 0, 0.0
    shift = dag.n * (max(weight_of.values()) + 1) + 1
    profit = np.zeros((dag.n, dag.n))
    for (i, j), w in weight_of.items():
        profit[i, j] = w + shift
    rows, cols = linear_sum_assignment(profit, maximize=True)
    chosen = [(i, j) for i, j in zip(rows.tolist(), cols.tolist()) if (i, j) in weight_of]
    return len(chosen), sum(weight_of[e] for e in chosen)


class TestMatching:
    @settings(max_examples=300)
    @given(st.one_of(dags(tied=True), dags()))
    def test_sparse_solver_equals_oracles(self, dag):
        size, weight = brute_force_best_matching(dag)
        dense_size, dense_weight = dense_oracle(dag)
        assert math.isclose(dense_weight, weight, abs_tol=1e-9)
        for matching in matchings_on_both_paths(dag):
            assert set(matching.items()) <= set(dict(edge_items(dag)))
            assert len(set(matching.values())) == len(matching)
            assert len(matching) == size == dense_size
            assert math.isclose(matching_weight(dag, matching), weight, abs_tol=1e-9)

    def test_single_edge(self):
        dag = dag_of(("a", "b"), {(0, 1): 0.5})
        assert matchings_on_both_paths(dag) == [{0: 1}] * 2

    def test_chain_fully_matched(self):
        dag = dag_of(("a", "b", "c"), {(0, 1): 0.9, (1, 2): 0.8})
        assert matchings_on_both_paths(dag) == [{0: 1, 1: 2}] * 2

    def test_empty(self):
        assert matchings_on_both_paths(dag_of(("a", "b", "c"), {})) == [{}] * 2

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            max_card_max_weight_matching(dag_of(("a", "b"), {(0, 1): -0.1}))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_weights_rejected(self, bad):
        # NaN would pass a "min() < 0" test and mis-order the solver's heap
        with pytest.raises(ValueError, match="edge weights must be nonnegative and finite"):
            dag_of(("a", "b", "c"), {(0, 1): 0.5, (1, 2): bad})

    def test_paths_agree_on_untied_weights(self):
        # continuous random weights tie with probability zero, so the
        # optimum is unique and both exact solvers must find it
        rng = np.random.default_rng(6)
        for max_n in [6] * 200 + [40] * 30 + [150] * 5:
            dag = random_dag(rng, max_n=max_n)
            in_process, lapjvsp = matchings_on_both_paths(dag)
            assert in_process == lapjvsp

    @pytest.mark.parametrize("extra, refused", [(0, "_lapjvsp"), (1, "_shortest_paths")])
    def test_edge_count_picks_the_solver(self, monkeypatch, extra, refused):
        # MAX_IN_PROCESS_EDGES (+ 1) edges: trip i reaches the next 100 trips
        # round a ring, so i -> i + 1 matches every trip; few trips keep
        # scipy's solve fast
        n_edges = carshare.MAX_IN_PROCESS_EDGES + extra
        n = -(-n_edges // 100)
        rows = np.arange(n_edges) // 100
        cols = (rows + 1 + np.arange(n_edges) % 100) % n
        order = np.lexsort((cols, rows))
        dag = TripDag(tuple(map(str, range(n))), np.stack([rows[order], cols[order]], axis=1),
                      np.full(n_edges, 0.5))

        def refuse(*args):
            raise AssertionError(f"{refused} ran on {n_edges} edges")

        monkeypatch.setattr(carshare, refused, refuse)
        matching = max_card_max_weight_matching(dag)
        assert len(matching) == n and len(set(matching.values())) == n
        assert set(matching.items()) <= set(map(tuple, dag.edges.tolist()))

    @pytest.mark.parametrize("ids, rows, message", [
        # the solver reads each predecessor's edges as one run, and chains bisect the rows
        ("abc", [(1, 2), (0, 1)], "edge rows must be distinct and in ascending order"),
        ("abc", [(0, 2), (0, 1)], "edge rows must be distinct and in ascending order"),
        # chain_stats keys trips by id
        ("aba", [(0, 1)], "duplicate trip id 'a'"),
    ])
    def test_dag_rejects_rows_out_of_order_and_repeated_ids(self, ids, rows, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make_dag(tuple(ids), rows, [0.5] * len(rows))

    @pytest.mark.parametrize("row", [(0, 4), (0, 3), (3, 0), (-1, 2)])
    def test_rejects_rows_outside_the_trips(self, row):
        # column 4 would be trip 1's dummy column, column 3 trip 0's
        with pytest.raises(ValueError, match="index the 3 trips"):
            make_dag(("a", "b", "c"), [(0, 1), (1, 2), row], [0.5, 0.5, 0.9])

    def test_rejects_repeated_rows(self):
        # the sparse solver would add the two rows' costs into one edge
        with pytest.raises(ValueError, match="distinct"):
            make_dag(("a", "b", "c"), [(0, 1), (1, 2), (0, 1)], [0.5, 0.5, 0.5])

    def test_prefers_cardinality_over_weight(self):
        # taking the heavy middle edge alone would block a 2-edge matching
        dag = dag_of(("a", "b", "c"), {(0, 1): 1.0, (1, 1): 0.01, (1, 2): 0.01})
        assert [len(m) for m in matchings_on_both_paths(dag)] == [2, 2]

    def test_against_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            dag = random_dag(rng, max_n=7)
            size, weight = brute_force_best_matching(dag)
            for matching in matchings_on_both_paths(dag):
                assert len(matching) == size
                assert abs(matching_weight(dag, matching) - weight) < 1e-9


class TestExtractChains:
    def test_no_matching_all_singletons(self):
        dag = dag_of(("a", "b", "c"), {(0, 1): 0.5})
        schedule = extract_chains(dag, {})
        assert schedule.n_cars == 3
        assert schedule.singleton_count == 3
        assert all(len(c) == 1 for c in schedule.chains)

    def test_full_chain(self):
        dag = dag_of(("a", "b", "c"), {(0, 1): 0.9, (1, 2): 0.8})
        schedule = extract_chains(dag, {0: 1, 1: 2})
        assert schedule.chains == (("a", "b", "c"),)
        assert schedule.n_cars == 1
        assert schedule.singleton_count == 0

    def test_partition_property(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            dag = random_dag(rng)
            matching = max_card_max_weight_matching(dag)
            schedule = extract_chains(dag, matching)
            covered = [tid for chain in schedule.chains for tid in chain]
            assert sorted(covered) == sorted(dag.trip_ids)
            assert schedule.n_cars == dag.n - schedule.cardinality

    @settings(max_examples=200)
    @given(dags())
    def test_chains_partition_trips_property(self, dag):
        matching = max_card_max_weight_matching(dag)
        schedule = extract_chains(dag, matching)
        covered = [tid for chain in schedule.chains for tid in chain]
        assert sorted(covered) == sorted(dag.trip_ids)
        assert schedule.cardinality == len(matching)
        assert schedule.n_cars == dag.n - len(matching)
        assert len(matching) == brute_force_best_matching(dag)[0]

    def test_rejects_duplicated_successor(self):
        dag = dag_of(("a", "b", "c"), {(0, 2): 0.5, (1, 2): 0.5})
        with pytest.raises(ValueError, match="successor"):
            extract_chains(dag, {0: 2, 1: 2})

    def test_rejects_non_edges(self):
        dag = dag_of(("a", "b"), {})
        with pytest.raises(ValueError, match="edge"):
            extract_chains(dag, {0: 1})

    def test_rejects_pairs_outside_the_trips(self):
        # -1 * 3 + 4 == 0 * 3 + 1, yet (-1, 4) is not the edge (0, 1)
        dag = dag_of(("a", "b", "c"), {(0, 1): 0.5})
        with pytest.raises(ValueError, match=r"\(-1, 4\) is not a graph edge"):
            extract_chains(dag, {-1: 4})

    def test_rejects_cycles(self):
        loop = dag_of(("a",), {(0, 0): 1.0})
        assert max_card_max_weight_matching(loop) == {0: 0}
        with pytest.raises(ValueError, match="cycle"):
            extract_chains(loop, {0: 0})
        with pytest.raises(ValueError, match="cycle"):
            extract_chains(dag_of(("a", "b"), {(0, 1): 1.0, (1, 0): 1.0}), {0: 1, 1: 0})

    def test_min_path_partition_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            dag = random_dag(rng)
            matching = max_card_max_weight_matching(dag)
            schedule = extract_chains(dag, matching)
            count, weight = brute_force_min_path_partition(dag)
            assert schedule.n_cars == count
            assert abs(matching_weight(dag, matching) - weight) < 1e-9


class TestChainStats:
    def test_singleton_has_no_pickups(self):
        trip = straight_trip("a", (0, 0), (3000, 4000), 0, 600)
        dag = dag_of(("a",), {})
        schedule = extract_chains(dag, {})
        (stat,) = chain_stats(schedule, [trip])
        assert stat.length == 1
        assert stat.pickup_km == 0.0 and stat.pickup_s == 0.0
        assert math.isclose(stat.travel_km, 5.0)

    def test_two_trip_chain_pickup_totals(self):
        a = straight_trip("a", (1000, 1000), (5000, 5000), 0, 900)
        b = straight_trip("b", (5500, 5000), (9000, 9000), 960, 2000)
        dag, schedule = schedule_trips([a, b])
        assert schedule.chains == (("a", "b"),)
        stats = chain_stats(schedule, [a, b])
        assert math.isclose(stats[0].pickup_km, 0.5)
        assert math.isclose(stats[0].pickup_s, 60.0)

    def test_hops_respect_thresholds(self):
        rng = np.random.default_rng(5)
        trips = []
        for i in range(40):
            x0, y0 = rng.uniform(0, 18_000, 2)
            t0 = rng.uniform(0, 5000)
            trips.append(straight_trip(f"t{i:02d}", (x0, y0), (x0 + 1200, y0), t0, t0 + 500))
        dag, schedule = schedule_trips(trips, dist_threshold=1800,
                                       time_threshold=900)
        by_id = {t.id: t for t in trips}
        for chain in schedule.chains:
            for prev_id, next_id in zip(chain, chain[1:]):
                prev, nxt = by_id[prev_id], by_id[next_id]
                gap = nxt.start_time - prev.end_time
                assert 0 < gap <= 900
                dx = math.hypot(prev.destination.x - nxt.origin.x,
                                prev.destination.y - nxt.origin.y)
                assert dx <= 1800
