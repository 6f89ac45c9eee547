"""Spatio-temporal similarity scores and trajectory distance metrics.

Every function here operates on scaled point sequences of shape (n, 3),
columns (x, y, t) in [0, 1]: one trip's rows of model.sample_points, mapped
by model.scale_points. The scalar functions take a sequence as an array or
as a list of rows; individual points are any 3-sequences (x, y, t). The
batched kernels wgm_batch and dp_batch score stacks of pairs; the scalar
functions stay as their oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .model import ScaleContext, check_param, check_positive


class TimeMode(Enum):
    """How the point-pair time term is taken.

    ABSOLUTE uses |t1 - t2| everywhere. SIGNED_CAR takes t2 - t1 at
    origins and t1 - t2 at destinations, so a second trip nested inside
    the first trip's time window scores high; swapping the two trips swaps
    the signed roles. Interior points always use |t1 - t2|.
    """

    ABSOLUTE = "absolute"
    SIGNED_CAR = "signed_car"


class PointRole(Enum):
    ORIGIN = "origin"
    DESTINATION = "destination"
    INTERIOR = "interior"


@dataclass(frozen=True, slots=True)
class WgmWeights:
    """Geometric-mean weights for the spatial and temporal similarity terms.

    Only the ratio matters: scaling both weights by a positive constant
    leaves every score unchanged.
    """

    w_space: float
    w_time: float

    def __post_init__(self) -> None:
        for name, w in (("w_space", self.w_space), ("w_time", self.w_time)):
            check_param(name, w, 0 <= w < math.inf, "weights must be finite and nonnegative")
        check_param("w_space, w_time", (self.w_space, self.w_time),
                    self.w_space + self.w_time > 0, "weights must not both be zero")


DEFAULT_WEIGHTS = WgmWeights(0.6, 0.4)
TIME_HEAVY_WEIGHTS = WgmWeights(0.1, 0.9)

#: Default matching and hand-off gates: meters between endpoints, seconds
#: between their times.
DEFAULT_DIST_THRESHOLD = 1800.0
DEFAULT_TIME_THRESHOLD = 900.0


def check_thresholds(**gates: float) -> None:
    """Reject a distance or time gate, named by its keyword, that is not positive."""
    for name, value in gates.items():
        # an infinite threshold means no limit; NaN fails the comparison
        check_param(name, value, value > 0, "thresholds must be positive")


@dataclass(frozen=True, slots=True)
class MetricParams:
    """LCSS match thresholds, in scaled units."""

    eps_space: float
    eps_time: float

    def __post_init__(self) -> None:
        check_thresholds(eps_space=self.eps_space, eps_time=self.eps_time)

    @classmethod
    def for_context(cls, ctx: ScaleContext, dist_threshold: float, time_threshold: float
                    ) -> "MetricParams":
        """Scaled equivalents of raw meter/second thresholds.

        The spatial epsilon divides by the larger of the two axis spans,
        the conservative choice when the bounding box is not square.
        """
        return cls(dist_threshold / max(ctx.x_span, ctx.y_span), time_threshold / ctx.t_span)


def _xy_dist(p: Sequence[float], q: Sequence[float]) -> float:
    """Euclidean distance of two points in the scaled x-y plane."""
    return math.hypot(p[0] - q[0], p[1] - q[1])


def _time_term(t1: float, t2: float, mode: TimeMode, role: PointRole) -> float:
    """Signed or absolute time difference; may be negative under signed modes."""
    if mode is TimeMode.ABSOLUTE or role is PointRole.INTERIOR:
        return abs(t1 - t2)
    return t2 - t1 if role is PointRole.ORIGIN else t1 - t2


def psim(
    p1: Sequence[float],
    p2: Sequence[float],
    w: WgmWeights = DEFAULT_WEIGHTS,
    mode: TimeMode = TimeMode.ABSOLUTE,
    role: PointRole = PointRole.INTERIOR,
) -> float:
    """Point similarity: the weighted geometric mean of space and time terms.

    With d the scaled x-y distance and tau the time term (negative signed
    values clamp to 0), returns

        exp((w_s * ln(1/(1+d)) + w_t * ln(1/(1+tau))) / (w_s + w_t))

    which lies in (0, 1] and equals 1 only for d = 0 and tau <= 0.
    """
    d = _xy_dist(p1, p2)
    tau = max(_time_term(float(p1[2]), float(p2[2]), mode, role), 0.0)
    exponent = (
        w.w_space * math.log(1.0 / (1.0 + d)) + w.w_time * math.log(1.0 / (1.0 + tau))
    ) / (w.w_space + w.w_time)
    return math.exp(exponent)


def _role_of(i: int, n: int) -> PointRole:
    if i == 0:
        return PointRole.ORIGIN
    if i == n - 1:
        return PointRole.DESTINATION
    return PointRole.INTERIOR


def wgm_sim(
    t1: np.ndarray,
    t2: np.ndarray,
    w: WgmWeights = DEFAULT_WEIGHTS,
    mode: TimeMode = TimeMode.ABSOLUTE,
) -> float:
    """Trip similarity: the mean of point-wise psim over aligned waypoints.

    Both sequences must have the same length n; the cost is exactly n psim
    evaluations (linear in the number of waypoints). The first pair is
    scored as origins, the last as destinations.
    """
    n = len(t1)
    if n != len(t2):
        raise ValueError(f"sequences must have equal length, got {n} and {len(t2)}")
    if n < 1:
        raise ValueError("sequences must not be empty")
    total = 0.0
    for i in range(n):
        total += psim(t1[i], t2[i], w, mode, _role_of(i, n))
    return total / n


#: Point pairs scored per tile by wgm_batch: 128 kB temporaries stay in cache
#: (a 3000 x 3000 car matrix took 0.64 s on a 2-core Xeon VM, 1.05 s at 2^18).
TILE_POINTS = 1 << 14
#: Cells per tile of dp_batch, whose anti-diagonal loop runs once a tile.
DP_TILE_CELLS = 1 << 18


def wgm_batch(
    a: np.ndarray,
    b: np.ndarray,
    w: WgmWeights = DEFAULT_WEIGHTS,
    mode: TimeMode = TimeMode.ABSOLUTE,
) -> np.ndarray:
    """wgm_sim over stacked representations, broadcast along the leading axes.

    a and b have shapes (..., k, 3), at least one with a leading axis
    (wgm_sim scores a single pair), whose leading axes broadcast as numpy
    does: a[:, None] against b[None, :] gives the (n, m) score matrix, two
    (P, k, 3) stacks give P pair scores. Each element takes the same steps
    as psim (hypot, log(1/(1+d)), clamped tau, weighted mean, exp) with the
    roles of _role_of, so it agrees with wgm_sim to rounding. The work runs
    in tiles of whole rows of the first leading axis, as many as fit in
    TILE_POINTS point pairs (at least one).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if min(a.ndim, b.ndim) < 2 or max(a.ndim, b.ndim) < 3 or {a.shape[-1], b.shape[-1]} != {3}:
        raise ValueError(f"reps must be stacks of shape (..., k, 3), got {a.shape} and {b.shape}")
    k = a.shape[-2]
    if k != b.shape[-2]:
        raise ValueError(f"sequences must have equal length, got {k} and {b.shape[-2]}")
    if k < 1:
        raise ValueError("sequences must not be empty")
    lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    a = np.broadcast_to(a, lead + a.shape[-2:])
    b = np.broadcast_to(b, lead + b.shape[-2:])
    out = np.empty(lead)
    rows = max(1, TILE_POINTS // max(1, math.prod(lead[1:]) * k))
    for start in range(0, lead[0], rows):
        tile = slice(start, start + rows)
        out[tile] = _wgm_tile(a[tile], b[tile], w, mode)
    return out


def _wgm_tile(a: np.ndarray, b: np.ndarray, w: WgmWeights, mode: TimeMode) -> np.ndarray:
    d = np.hypot(a[..., 0] - b[..., 0], a[..., 1] - b[..., 1])
    dt = a[..., 2] - b[..., 2]
    tau = np.abs(dt)
    if mode is TimeMode.SIGNED_CAR:
        tau[..., 0] = -dt[..., 0]
        if tau.shape[-1] > 1:
            tau[..., -1] = dt[..., -1]
        np.maximum(tau, 0.0, out=tau)
    sim = np.exp(
        (w.w_space * np.log(1.0 / (1.0 + d)) + w.w_time * np.log(1.0 / (1.0 + tau)))
        / (w.w_space + w.w_time)
    )
    # summed in wgm_sim's order, so k = 1 returns the point score itself
    total = sim[..., 0].copy()
    for i in range(1, sim.shape[-1]):
        total += sim[..., i]
    return total / sim.shape[-1]


def car_score(rider: np.ndarray, ride: np.ndarray, w: WgmWeights = DEFAULT_WEIGHTS) -> float:
    """Catch-a-ride score: how well `ride` fits inside `rider`'s window.

    Signed time terms reward rides that start after the rider starts and
    end before the rider ends. The carpool score of a request a and a
    driver b is car_score(b, a): high when a's window nests inside b's.
    """
    return wgm_sim(rider, ride, w, TimeMode.SIGNED_CAR)


def lcss(t1: np.ndarray, t2: np.ndarray, params: MetricParams) -> int:
    """Longest common subsequence length under space/time match thresholds.

    Two points match when their scaled x-y distance is within
    params.eps_space and their time difference within params.eps_time.
    Classic O(m*n) dynamic program; returns a count in [0, min(m, n)].
    """
    m, n = len(t1), len(t2)
    table = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(1, m + 1):
        p = t1[i - 1]
        for j in range(1, n + 1):
            q = t2[j - 1]
            if _xy_dist(p, q) <= params.eps_space and abs(p[2] - q[2]) <= params.eps_time:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[m][n]


def dtw(t1: np.ndarray, t2: np.ndarray, cost_mode: str = "distance") -> float:
    """Dynamic time warping distance between two scaled sequences.

    Cell cost is the scaled x-y distance, or distance * |dt| in mode
    "distance_times_time". Steps are the usual (i-1,j), (i,j-1), (i-1,j-1);
    no warping-window constraint. O(m*n) time and space.
    """
    m, n = len(t1), len(t2)
    if m < 1 or n < 1:
        raise ValueError("dtw requires non-empty sequences")
    if cost_mode not in ("distance", "distance_times_time"):
        raise ValueError(f"unknown dtw cost mode {cost_mode!r}")
    with_time = cost_mode == "distance_times_time"
    inf = float("inf")
    prev = [inf] * (n + 1)
    prev[0] = 0.0
    for i in range(1, m + 1):
        p = t1[i - 1]
        cur = [inf] * (n + 1)
        for j in range(1, n + 1):
            q = t2[j - 1]
            cost = _xy_dist(p, q)
            if with_time:
                cost *= abs(p[2] - q[2])
            cur[j] = cost + min(prev[j], cur[j - 1], prev[j - 1])
        prev = cur
    return prev[n]


def frechet_discrete(t1: np.ndarray, t2: np.ndarray) -> float:
    """Discrete Frechet distance (coupled max of pointwise x-y distances).

    c(i,j) = max(d(i,j), min(c(i-1,j), c(i,j-1), c(i-1,j-1))), filled over
    the full m x n table.
    """
    m, n = len(t1), len(t2)
    if m < 1 or n < 1:
        raise ValueError("frechet requires non-empty sequences")
    inf = float("inf")
    prev = [inf] * (n + 1)
    prev[0] = 0.0  # c(0,0) anchor; every other border cell is unreachable
    for i in range(1, m + 1):
        p = t1[i - 1]
        cur = [inf] * (n + 1)
        for j in range(1, n + 1):
            q = t2[j - 1]
            cur[j] = max(_xy_dist(p, q), min(prev[j], cur[j - 1], prev[j - 1]))
        prev = cur
    return prev[n]


#: The tables dp_batch fills, in the order of its results.
DP_METRICS = ("lcss", "dtw", "dtw_time", "frechet")

#: Metric names accepted by matching's greedy_match and compare_metrics.
METRIC_NAMES = ("wgm", "wgm_time", "lcss", "dtw", "dtw_time", "frechet")


def check_metric(name: str, metric: str) -> None:
    """Reject a metric, the parameter name, that is not one of METRIC_NAMES."""
    check_param(name, metric, metric in METRIC_NAMES, f"must be one of {', '.join(METRIC_NAMES)}")


def dp_batch(
    a: np.ndarray, b: np.ndarray, i: Sequence[int], j: Sequence[int], params: MetricParams
) -> dict[str, np.ndarray]:
    """lcss, dtw in both cost modes and frechet_discrete of the pairs (a[i], b[j]), bit for bit.

    a and b are (N, m, 3) and (M, n, 3) stacks, and i and j index sequences
    of equal length P; the pairs are gathered tile by tile, so no (P, m, 3)
    copy is made. Returns a (P,) float array per name in DP_METRICS. Each
    tile of at most DP_TILE_CELLS cells (or one pair) builds one distance
    tensor with math.hypot, as _xy_dist does, and fills the four tables
    from it one anti-diagonal at a time, each cell by the scalar recursion's
    steps.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.ndim != 3 or b.ndim != 3 or a.shape[2] != 3 or b.shape[2] != 3:
        raise ValueError(f"reps must be stacks of shape (N, m, 3), got {a.shape} and {b.shape}")
    m, n = a.shape[1], b.shape[1]
    if m < 1 or n < 1:
        raise ValueError("dp_batch requires non-empty sequences")
    if len(i) != len(j):
        raise ValueError(f"pair indices must have equal length, got {len(i)} and {len(j)}")
    out = np.empty((len(DP_METRICS), len(i)))
    rows = max(1, DP_TILE_CELLS // (m * n))
    for start in range(0, len(i), rows):
        tile = slice(start, start + rows)
        out[:, tile] = _dp_tile(a[i[tile]], b[j[tile]], params)
    return dict(zip(DP_METRICS, out))


def _dp_tile(a: np.ndarray, b: np.ndarray, params: MetricParams) -> np.ndarray:
    m, n = a.shape[1], b.shape[1]
    dx, dy, dt = (a[:, :, None, c] - b[:, None, :, c] for c in range(3))
    d = np.fromiter(map(math.hypot, memoryview(dx.ravel()), memoryview(dy.ravel())),
                    float, count=dx.size).reshape(dx.shape)
    dt = np.abs(dt)
    hit = (d <= params.eps_space) & (dt <= params.eps_time)
    d_time = d * dt
    # prev1 and prev2 hold anti-diagonals s - 1 and s - 2 of the four tables
    # (DP_METRICS order), indexed by the row i of cell (i, s - i). Border
    # cells (row or column 0) are 0 for LCSS and inf for the others, but for
    # the (0, 0) anchor, which is 0 in all four.
    border = np.array([0.0, math.inf, math.inf, math.inf])[:, None, None]
    prev2 = np.broadcast_to(border, (4, len(a), m + 1)).copy()
    prev2[:, :, 0] = 0.0
    prev1 = np.broadcast_to(border, prev2.shape).copy()
    for s in range(2, m + n + 1):
        r = np.arange(max(1, s - n), min(m, s - 1) + 1)
        lo, hi = r[0], r[-1] + 1
        up, left, diag = prev1[:, :, lo - 1:hi - 1], prev1[:, :, lo:hi], prev2[:, :, lo - 1:hi - 1]
        near = np.minimum(np.minimum(up[1:], left[1:]), diag[1:])
        cell = (slice(None), r - 1, s - r - 1)
        cur = np.broadcast_to(border, prev1.shape).copy()
        cur[0, :, lo:hi] = np.where(hit[cell], diag[0] + 1.0, np.maximum(up[0], left[0]))
        cur[1, :, lo:hi] = d[cell] + near[0]
        cur[2, :, lo:hi] = d_time[cell] + near[1]
        cur[3, :, lo:hi] = np.maximum(d[cell], near[2])
        prev2, prev1 = prev1, cur
    return prev1[:, :, m]


def check_kernel_gamma(kernel_gamma: float) -> None:
    """Raise ValueError unless laplacian_kernel's kernel_gamma is positive and finite."""
    check_positive("kernel_gamma", kernel_gamma)


def laplacian_kernel(score: float | np.ndarray, kernel_gamma: float = 3.0,
                     out: np.ndarray | None = None):
    """exp(-kernel_gamma (1 - score)), taken as exp(kernel_gamma (score - 1)), into out if given."""
    check_kernel_gamma(kernel_gamma)
    kernel = np.subtract(score, 1.0, out=out)
    kernel *= kernel_gamma
    return np.exp(kernel, out=out)
