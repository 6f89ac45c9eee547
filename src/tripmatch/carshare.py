"""Free-float car-sharing: schedule a minimum fleet over a set of trips.

A car can service trip b after trip a when b starts after a ends and the
hand-off (a's destination to b's origin) is within distance and time
thresholds, screened in space and time at once. Those hand-offs form a
DAG over the trips; a minimum path partition of it is a schedule with the
fewest cars, and among those we pick one maximizing hand-off similarity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush
from operator import itemgetter
from typing import Iterable, Mapping

import numpy as np

from . import metrics
from .metrics import WgmWeights
from .model import (ScaleContext, Trip, TripSet, od_points, path_lengths, scale_points,
                    space_time_pairs)


@dataclass(frozen=True, slots=True, eq=False)
class TripDag:
    """Hand-off graph: node i is trips[i], edge row (i, j) means j can follow i.

    edges is an (E, 2) intp array of rows; weights[k] weighs row k. Its
    consumers rely on four rules, checked here once: distinct trip ids (chains
    key trips by id), rows that index the trips, rows distinct and ascending
    by (i, j), and nonnegative finite weights. Raises ValueError otherwise.
    """

    trip_ids: tuple[str, ...]
    edges: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for tid in self.trip_ids:
            if tid in seen:
                raise ValueError(f"duplicate trip id {tid!r}")
            seen.add(tid)
        if not len(self.edges):
            return
        n = self.n
        if self.edges.min() < 0 or self.edges.max() >= n:
            raise ValueError(f"edge rows must index the {n} trips")
        codes = self.edges @ (n, 1)  # row (i, j) as i * n + j: they rise iff the rows do
        if not (codes[1:] > codes[:-1]).all():
            raise ValueError("edge rows must be distinct and in ascending order")
        if not (np.isfinite(self.weights).all() and self.weights.min() >= 0):
            raise ValueError("edge weights must be nonnegative and finite")

    @property
    def n(self) -> int:
        return len(self.trip_ids)


@dataclass(frozen=True, slots=True)
class ChainSchedule:
    """A partition of all trips into car chains."""

    chains: tuple[tuple[str, ...], ...]
    n_cars: int
    cardinality: int
    singleton_count: int


@dataclass(frozen=True, slots=True)
class ChainStat:
    chain_id: int
    length: int
    travel_km: float
    pickup_km: float
    pickup_s: float


def build_trip_dag(
    trips: Iterable[Trip] | TripSet,
    dist_threshold: float = metrics.DEFAULT_DIST_THRESHOLD,
    time_threshold: float = metrics.DEFAULT_TIME_THRESHOLD,
    weights: WgmWeights = metrics.DEFAULT_WEIGHTS,
) -> TripDag:
    """Build the hand-off DAG over a trip set.

    Edge (a, b) exists when b starts strictly after a ends, the gap is at
    most time_threshold seconds, and b's origin lies within dist_threshold
    meters of a's destination. The edge weight is the point similarity of
    the hand-off pair, a's destination against b's origin, with absolute
    time differences, scaled into the trips' own bounding box. The edge rows
    are in ascending (a, b) order, with their weights beside them.

    model.space_time_pairs gives the pairs whose gap lies in [0, time_threshold]
    and whose hand-off lies within dist_threshold; a zero gap is then dropped.

    Raises ValueError naming a trip id that repeats, as TripDag does.
    """
    metrics.check_thresholds(dist_threshold=dist_threshold, time_threshold=time_threshold)
    trips = TripSet.of(trips)
    od, ctx = od_points(trips), ScaleContext.from_trips(trips)
    origin, start, dest, end = od[:, 0, :2], od[:, 0, 2], od[:, 1, :2], od[:, 1, 2]
    src, dst = space_time_pairs(start, end, time_threshold, origin, dest, dist_threshold)
    keep = start[dst] > end[src]
    src, dst = src[keep], dst[keep]
    reps = scale_points(od, ctx)
    # a's destination against b's origin, as one-point sequences
    weight = metrics.wgm_batch(reps[src, 1:], reps[dst, :1], weights)
    return TripDag(trips.ids, np.stack([src, dst], axis=1), weight)


#: The largest hand-off DAG, in edges, matched by the in-process solver; larger
#: ones go to scipy's LAPJVsp. On paper-like trips the in-process solve breaks
#: even with scipy's import (about 0.3 s) plus solve near 150k edges, and falls
#: behind beyond it (31 s against 21 s at 600k edges); the limit sits at two
#: thirds of that crossover. The timing table is in CHANGES.md and ROADMAP.md.
#: The switch reads the edge count only, but LAPJVsp's cost grows with the square
#: of the trip count (100,001 disjoint pairs: 89 s), so a large fleet with few
#: hand-offs goes to the slow side; ROADMAP item 3 plans one in-process solver.
MAX_IN_PROCESS_EDGES = 100_000


def max_card_max_weight_matching(dag: TripDag) -> dict[int, int]:
    """Maximum-cardinality matching of maximum total weight.

    Edge (i, j) joins trip i as a predecessor to trip j as a successor.
    Solves a sparse min-cost full matching of the n predecessors into n
    successor columns plus n dummy columns, one per predecessor. Edge
    (i, j) costs 1 + top - w and dummy column n + i costs n * (top + 1) + 1,
    more than any n real edges: the solver therefore matches as many
    predecessors to real successors as possible and, among those
    matchings, one of maximum weight. Absent pairs never enter the
    matching. TripDag's rules make the costs finite and positive, the
    dummies dearer than any edge, and each row one entry of the cost
    matrix, grouped by predecessor.

    A DAG of at most MAX_IN_PROCESS_EDGES edges is solved in process, a
    larger one by scipy; both solve the same assignment, so they agree
    wherever the optimum is unique.

    Returns {predecessor index: successor index}.
    """
    if not len(dag.edges):
        return {}
    n, (rows, cols) = dag.n, dag.edges.T
    top = float(dag.weights.max())
    solve = _shortest_paths if len(dag.edges) <= MAX_IN_PROCESS_EDGES else _lapjvsp
    return solve(n, rows, cols, 1 + top - dag.weights, n * (top + 1) + 1)


def _shortest_paths(n: int, rows: np.ndarray, cols: np.ndarray, costs: np.ndarray,
                    dummy: float) -> dict[int, int]:
    """The min-cost full matching by successive shortest paths; rows ascend.

    Dijkstra on reduced costs c - u[i] - v[j], which row and column
    potentials keep nonnegative, finds each row's cheapest augmenting path
    (Jonker & Volgenant, 1987). Row i's dummy column is adjacent to i alone,
    so it needs no heap entry: it bounds the search at dist(i) + dummy - u[i].
    Only columns a search scans change potential, so every free column keeps
    potential 0 and path lengths to different free columns compare as costs.
    """
    starts = np.searchsorted(rows, np.arange(n + 1)).tolist()
    cols_of, costs_of = cols.tolist(), costs.tolist()
    adj = [list(zip(cols_of[a:b], costs_of[a:b])) for a, b in zip(starts, starts[1:])]
    u, v = [dummy] * n, [0.0] * n
    row_of, col_of = [-1] * n, [-1] * n  # -1: free column; a row on its dummy
    free = []
    # warm start: each row's potential is its cheapest edge, which it takes if free
    for i, edges in enumerate(adj):
        if edges:
            j, u[i] = min(edges, key=itemgetter(1))
            if row_of[j] < 0:
                row_of[j], col_of[i] = i, j
            else:
                free.append(i)
    for r in free:
        dist, pred, scanned = {}, {}, []
        best, end, via = math.inf, -1, r  # end -1: via takes its dummy
        heap: list[tuple[float, int]] = []
        i, d_i = r, 0.0
        while True:
            base = d_i - u[i]
            if base + dummy < best:
                best, end, via = base + dummy, -1, i
            for j, c in adj[i]:
                d = base + c - v[j]
                if d < best and d < dist.get(j, math.inf):
                    dist[j], pred[j] = d, i
                    if row_of[j] < 0:
                        best, end, via = d, j, i
                    else:
                        heappush(heap, (d, j))
            while heap and heap[0][0] > dist[heap[0][1]]:
                heappop(heap)  # superseded by a shorter entry, which came first
            if not heap or heap[0][0] >= best:
                break
            d_i, j = heappop(heap)
            dist[j] = -math.inf  # scanned: no later relaxation can improve it
            scanned.append((j, d_i))
            i = row_of[j]
        u[r] += best
        for j, d in scanned:
            v[j] -= best - d
            u[row_of[j]] += best - d
        i, j = via, end
        while True:
            given_up = col_of[i]
            col_of[i] = j
            if j >= 0:
                row_of[j] = i
            if i == r:
                break
            j, i = given_up, pred[given_up]
    return {i: j for i, j in enumerate(col_of) if j >= 0}


def _lapjvsp(n: int, rows: np.ndarray, cols: np.ndarray, costs: np.ndarray,
             dummy: float) -> dict[int, int]:
    """The min-cost full matching by scipy's sparse LAPJVsp."""
    # imported here: scipy.sparse costs about a quarter second to import,
    # and no other subcommand needs it
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import min_weight_full_bipartite_matching

    dummies = np.arange(n)
    matrix = csr_array(
        (np.concatenate([costs, np.full(n, dummy)]),
         (np.concatenate([rows, dummies]), np.concatenate([cols, n + dummies]))),
        shape=(n, 2 * n))
    matched_rows, matched_cols = min_weight_full_bipartite_matching(matrix)
    return {i: j for i, j in zip(matched_rows.tolist(), matched_cols.tolist()) if j < n}


def extract_chains(dag: TripDag, matching: Mapping[int, int]) -> ChainSchedule:
    """Turn a predecessor-to-successor matching back into car chains.

    A trip whose successor-side copy is unmatched starts a chain; following
    each trip's matched successor walks the whole chain. The chains
    partition the trips and their count is n - |matching|: the fleet size.
    A matching that closes a cycle is rejected, as its trips start no chain.
    """
    succs = list(matching.values())
    if len(set(succs)) != len(succs):
        raise ValueError("matching assigns one successor to several trips")
    pairs = np.array(list(matching.items()), dtype=np.intp).reshape(-1, 2)
    # each row (i, j) as i * n + j, looked up in the ascending rows by bisection
    codes, wanted = dag.edges @ (dag.n, 1), pairs @ (dag.n, 1)
    is_edge = np.searchsorted(codes, wanted, "right") > np.searchsorted(codes, wanted)
    is_edge &= ((pairs >= 0) & (pairs < dag.n)).all(1)
    if not is_edge.all():
        i, j = pairs[np.argmin(is_edge)].tolist()
        raise ValueError(f"matched pair ({i}, {j}) is not a graph edge")
    has_predecessor = set(succs)
    chains = []
    for start in range(dag.n):
        if start in has_predecessor:
            continue
        chain = [start]
        while chain[-1] in matching:
            chain.append(matching[chain[-1]])
        chains.append(tuple(dag.trip_ids[v] for v in chain))
    if sum(map(len, chains)) != dag.n:
        raise ValueError("matching closes a cycle, so its chains miss some trips")
    schedule = ChainSchedule(
        chains=tuple(chains),
        n_cars=len(chains),
        cardinality=len(matching),
        singleton_count=sum(1 for c in chains if len(c) == 1),
    )
    assert schedule.n_cars == dag.n - schedule.cardinality
    return schedule


def chain_stats(schedule: ChainSchedule, trips: Iterable[Trip] | TripSet) -> list[ChainStat]:
    """Per-chain travel, hand-off distance, and hand-off wait totals."""
    trips = TripSet.of(trips)
    index = {tid: i for i, tid in enumerate(trips.ids)}
    od = od_points(trips).tolist()
    lengths = path_lengths(trips).tolist()
    out = []
    for idx, chain in enumerate(schedule.chains):
        members = [index[tid] for tid in chain]
        travel = sum(lengths[i] for i in members)
        pickup_m = 0.0
        pickup_s = 0.0
        for a, b in zip(members, members[1:]):
            prev_dest, next_origin = od[a][1], od[b][0]
            pickup_m += math.hypot(prev_dest[0] - next_origin[0], prev_dest[1] - next_origin[1])
            pickup_s += next_origin[2] - prev_dest[2]
        out.append(ChainStat(
            chain_id=idx,
            length=len(members),
            travel_km=travel / 1000.0,
            pickup_km=pickup_m / 1000.0,
            pickup_s=pickup_s,
        ))
    return out


def schedule_trips(
    trips: Iterable[Trip] | TripSet,
    dist_threshold: float = metrics.DEFAULT_DIST_THRESHOLD,
    time_threshold: float = metrics.DEFAULT_TIME_THRESHOLD,
    weights: WgmWeights = metrics.DEFAULT_WEIGHTS,
) -> tuple[TripDag, ChainSchedule]:
    """End-to-end pipeline: DAG, optimal matching, chains."""
    dag = build_trip_dag(trips, dist_threshold, time_threshold, weights)
    matching = max_card_max_weight_matching(dag)
    return dag, extract_chains(dag, matching)
