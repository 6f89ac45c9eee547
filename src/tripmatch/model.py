"""Core trip representations: waypoints, trips, coordinate scaling, sampling."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


@dataclass(frozen=True, slots=True)
class Waypoint:
    """One (x, y, t) sample of a trip.

    Coordinates are planar meters, t is seconds. speed (m/s) is carried
    through from the source trace when available and never enters any
    geometry computation.
    """

    x: float
    y: float
    t: float
    speed: float | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"waypoint coordinates must be finite, got ({self.x}, {self.y})")
        if not math.isfinite(self.t) or self.t < 0:
            raise ValueError(f"waypoint time must be finite and >= 0, got {self.t}")


@dataclass(frozen=True, slots=True)
class Trip:
    """An identified sequence of waypoints, ordered by time."""

    id: str
    waypoints: tuple[Waypoint, ...]

    def __post_init__(self) -> None:
        if len(self.waypoints) < 1:
            raise ValueError(f"trip {self.id!r} has no waypoints")
        ts = [w.t for w in self.waypoints]
        if any(b < a for a, b in zip(ts, ts[1:])):
            raise ValueError(f"trip {self.id!r} waypoints are not sorted by time")

    @property
    def origin(self) -> Waypoint:
        return self.waypoints[0]

    @property
    def destination(self) -> Waypoint:
        return self.waypoints[-1]

    @property
    def start_time(self) -> float:
        return self.waypoints[0].t

    @property
    def end_time(self) -> float:
        return self.waypoints[-1].t

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time

    def xyt(self) -> np.ndarray:
        """Raw waypoints as an (n, 3) array with columns x, y, t."""
        return np.array([[w.x, w.y, w.t] for w in self.waypoints], dtype=float)


@dataclass(frozen=True, slots=True)
class ScaleContext:
    """Min/max bounds mapping raw coordinates and times into [0, 1]."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    t_min: float
    t_max: float

    def __post_init__(self) -> None:
        if not (self.x_max > self.x_min and self.y_max > self.y_min and self.t_max > self.t_min):
            raise ValueError("scale context spans must be strictly positive")

    @property
    def x_span(self) -> float:
        return self.x_max - self.x_min

    @property
    def y_span(self) -> float:
        return self.y_max - self.y_min

    @property
    def t_span(self) -> float:
        return self.t_max - self.t_min

    @property
    def diagonal(self) -> float:
        """Spatial diagonal of the bounding box, in meters."""
        return math.hypot(self.x_span, self.y_span)

    @classmethod
    def from_trips(cls, trips: Iterable[Trip]) -> "ScaleContext":
        """Tight bounds over every waypoint of the given trips."""
        xs: list[float] = []
        ys: list[float] = []
        ts: list[float] = []
        for trip in trips:
            for w in trip.waypoints:
                xs.append(w.x)
                ys.append(w.y)
                ts.append(w.t)
        if not xs:
            raise ValueError("cannot derive scale context from an empty trip set")
        return cls(min(xs), max(xs), min(ys), max(ys), min(ts), max(ts))


def extract_od(trip: Trip) -> tuple[Waypoint, Waypoint]:
    """Origin/destination endpoints: the first and last waypoints of the trip."""
    return trip.waypoints[0], trip.waypoints[-1]


def sample_waypoints(trip: Trip, k: int) -> Trip:
    """Reduce a trip to k waypoints by uniform index selection.

    Picks the waypoints at indices round(i * (n-1) / (k-1)) for i in 0..k-1,
    which always keeps the endpoints. Trips with n <= k are returned
    unchanged (no upsampling).
    """
    if k < 2:
        raise ValueError(f"sample size must be >= 2, got {k}")
    n = len(trip.waypoints)
    if n <= k:
        return trip
    step = (n - 1) / (k - 1)
    indices = [int(math.floor(i * step + 0.5)) for i in range(k)]
    return Trip(trip.id, tuple(trip.waypoints[i] for i in indices))


def _scale(raw: np.ndarray, ctx: ScaleContext) -> np.ndarray:
    """Map (..., 3) raw x, y, t columns linearly onto the context box, unclamped."""
    lo = np.array([ctx.x_min, ctx.y_min, ctx.t_min])
    span = np.array([ctx.x_span, ctx.y_span, ctx.t_span])
    return (raw - lo) / span


def scale_trip(trip: Trip, ctx: ScaleContext) -> tuple[np.ndarray, int]:
    """Scale every waypoint of a trip.

    Returns an (n, 3) array with columns x, y, t in [0, 1] plus the number
    of waypoints that had at least one component clamped.
    """
    scaled = _scale(trip.xyt(), ctx)
    clamped = int(np.any((scaled < 0.0) | (scaled > 1.0), axis=1).sum())
    return np.clip(scaled, 0.0, 1.0), clamped


def od_reps(trips: Sequence[Trip], ctx: ScaleContext) -> np.ndarray:
    """Scaled origin-destination representations, stacked: shape (n, 2, 3).

    Row i holds trip i's first and last waypoints scaled as scale_trip
    scales them, clamped into [0, 1].
    """
    raw = np.array([[(w[0].x, w[0].y, w[0].t), (w[-1].x, w[-1].y, w[-1].t)]
                    for w in (t.waypoints for t in trips)], dtype=float)
    return np.clip(_scale(raw.reshape(-1, 2, 3), ctx), 0.0, 1.0)


def od_rep(trip: Trip, ctx: ScaleContext) -> np.ndarray:
    """Scaled origin-destination representation of one trip: a (2, 3) array."""
    return od_reps([trip], ctx)[0]


def sampled_rep(trip: Trip, ctx: ScaleContext, k: int) -> np.ndarray:
    """Scaled k-waypoint representation (fewer if the trip is shorter)."""
    arr, _ = scale_trip(sample_waypoints(trip, k), ctx)
    return arr


def path_length(trip: Trip) -> float:
    """Total traveled distance in meters: sum of consecutive segment lengths."""
    if len(trip.waypoints) == 1:
        return 0.0
    xy = trip.xyt()[:, :2]
    return float(np.hypot(*np.diff(xy, axis=0).T).sum())


def od_displacement(trip: Trip) -> float:
    """Straight-line origin-to-destination distance in meters."""
    o, d = extract_od(trip)
    return math.hypot(d.x - o.x, d.y - o.y)


def spatial_distance(a: Waypoint, b: Waypoint) -> float:
    """Euclidean distance between two raw waypoints, in meters."""
    return math.hypot(a.x - b.x, a.y - b.y)
