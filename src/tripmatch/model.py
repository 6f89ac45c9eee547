"""Core trip representations: waypoints, trips, coordinate scaling, sampling."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from numpy.typing import ArrayLike


def check_param(name: str, value: object, ok: bool, rule: str) -> None:
    """Raise ValueError("{name}: {rule}, got {value}") unless ok.

    Every rule on a parameter raises through here with the parameter's name,
    which the CLI spells as the flag that sets it. A string value shows
    quoted, a whole float without its ".0", as the flag's text would give it.
    """
    if not ok:
        shown = repr(value) if isinstance(value, str) else str(value).removesuffix(".0")
        raise ValueError(f"{name}: {rule}, got {shown}")


def check_positive(name: str, value: float) -> None:
    """Raise ValueError unless value, the parameter name, is positive and finite."""
    check_param(name, value, 0 < value < math.inf, "must be positive and finite")


def check_seed(seed: int) -> None:
    """Raise ValueError unless seed, a random generator's seed, is at least 0."""
    check_param("seed", seed, seed >= 0, "must be at least 0")


@dataclass(frozen=True, slots=True)
class Waypoint:
    """One (x, y, t) point of a trip: planar meters and seconds."""

    x: float
    y: float
    t: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"waypoint coordinates must be finite, got ({self.x}, {self.y})")
        if not math.isfinite(self.t) or self.t < 0:
            raise ValueError(f"waypoint time must be finite and >= 0, got {self.t}")


class Trip:
    """An identified sequence of waypoints, ordered by time.

    The points are stored once, as a read-only float array of shape (m, 3)
    with columns x, y, t; `origin` and `destination` build Waypoint objects
    from it on demand. A trip read from a file may hold a view into an
    array it shares with the other trips read from the same block of lines.
    A trip is immutable, and two trips are equal when their ids and points
    are.
    """

    __slots__ = ("id", "_xyt")

    def __init__(self, id: str, xyt: ArrayLike) -> None:
        """A trip from (m, 3) x, y, t rows, held as a private read-only copy.

        Raises:
            ValueError: unless there is at least one row, every value is
                finite, and the times are >= 0 and non-decreasing.
        """
        xyt = np.array(xyt, dtype=float)
        check_points(xyt, _ONE_TRIP, (id,))
        xyt.flags.writeable = False
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "_xyt", xyt)

    @classmethod
    def _wrap(cls, id: str, xyt: np.ndarray) -> "Trip":
        """A trip holding xyt itself: read-only (m, 3) rows that check_points passed."""
        trip = object.__new__(cls)
        object.__setattr__(trip, "id", id)
        object.__setattr__(trip, "_xyt", xyt)
        return trip

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Trip is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Trip is immutable; cannot delete {name!r}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trip):
            return NotImplemented
        return self.id == other.id and np.array_equal(self._xyt, other._xyt)

    def __hash__(self) -> int:
        return hash((self.id, len(self._xyt)))

    def __reduce__(self):
        return Trip, (self.id, self._xyt)

    def __repr__(self) -> str:
        return f"Trip(id={self.id!r}, xyt={self._xyt.tolist()!r})"

    @property
    def origin(self) -> Waypoint:
        return Waypoint(*self._xyt[0].tolist())

    @property
    def destination(self) -> Waypoint:
        return Waypoint(*self._xyt[-1].tolist())

    @property
    def start_time(self) -> float:
        return float(self._xyt[0, 2])

    @property
    def end_time(self) -> float:
        return float(self._xyt[-1, 2])

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time

    def xyt(self) -> np.ndarray:
        """The waypoints as a read-only (m, 3) array with columns x, y, t."""
        return self._xyt


#: The offsets of check_points for a single trip.
_ONE_TRIP = np.zeros(1, dtype=np.intp)

#: The rule that a trip's waypoint times never fall, as its error states it.
UNSORTED = "waypoints are not sorted by time"


def check_points(xyt: np.ndarray, starts: np.ndarray, ids: Sequence[str]) -> None:
    """Raise ValueError unless xyt stacks valid trips' x, y, t rows.

    xyt must have shape (n, 3). Trip i is rows starts[i] up to the next
    trip's first row, or to the end, and ids[i] names it. Every trip needs
    at least one row, finite values, and times that are >= 0 and
    non-decreasing. The rules are applied one after another, each to all
    trips at once; the error names the first trip that breaks the first
    rule broken.
    """
    if xyt.size == 0:
        raise ValueError(f"trip {ids[0]!r} has no waypoints")
    if xyt.ndim != 2 or xyt.shape[1] != 3:
        raise ValueError(f"trip {ids[0]!r} points must have shape (m, 3), got {xyt.shape}")
    if starts[-1] >= len(xyt) or len(starts) > 1 and (np.diff(starts) <= 0).any():
        rows = np.diff(starts, append=len(xyt))
        raise ValueError(f"trip {ids[int(rows.argmin())]!r} has no waypoints")

    def owner(bad: np.ndarray) -> str:
        """The id of the trip that holds the first row where bad is set."""
        return ids[int(np.searchsorted(starts, bad.argmax(), side="right")) - 1]

    if not np.isfinite(xyt).all():
        raise ValueError(
            f"trip {owner(~np.isfinite(xyt).all(axis=1))!r} has a non-finite coordinate or time")
    t = xyt[:, 2]
    if t.min() < 0:
        raise ValueError(f"trip {owner(t < 0)!r} has a waypoint time below 0")
    down = t[1:] < t[:-1]
    if down.any():
        down[starts[1:] - 1] = False  # a trip may start before the previous one ends
        if down.any():
            raise ValueError(f"trip {owner(down)!r} {UNSORTED}")


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
        spans = (self.x_span, self.y_span, self.t_span)
        check_param("bbox", spans, all(0 < span < math.inf for span in spans),
                    "spans must be strictly positive and finite")

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
    def from_trips(cls, *populations: Iterable[Trip] | TripSet) -> ScaleContext:
        """Tight bounds over all the populations' waypoints; a one-valued axis gets a unit span."""
        stacks = [s.xyt for s in map(TripSet.of, populations) if len(s)]
        if not stacks:
            raise ValueError("cannot derive scale context from an empty trip set")
        # a column at a time, as numpy reduces a tall (N, 3) array along axis 0 slowly, and a
        # population at a time, as the union's bound is the bound of the populations' bounds
        lo = [min(float(xyt[:, k].min()) for xyt in stacks) for k in range(3)]
        hi = [max(float(xyt[:, k].max()) for xyt in stacks) for k in range(3)]
        (x_min, y_min, t_min), (x_max, y_max, t_max) = lo, [
            b if b > a else a + 1.0 for a, b in zip(lo, hi)]
        return cls(x_min, x_max, y_min, y_max, t_min, t_max)


@dataclass(frozen=True, slots=True, eq=False)
class TripSet:
    """A trip population stacked once: ids, read-only (N, 3) x, y, t rows, first rows, row counts.

    Trip i is rows starts[i] up to starts[i] + counts[i], the layout
    check_points takes. TripSet.of builds one.
    """

    ids: tuple[str, ...]
    xyt: np.ndarray
    starts: np.ndarray
    counts: np.ndarray

    @classmethod
    def of(cls, trips: Iterable[Trip] | TripSet) -> TripSet:
        """trips itself if it is a TripSet, else its trips' waypoints in one concatenation."""
        if isinstance(trips, TripSet):
            return trips
        trips = list(trips)
        counts = np.array([len(trip.xyt()) for trip in trips], dtype=np.intp)
        xyt = np.concatenate([trip.xyt() for trip in trips]) if trips else np.empty((0, 3))
        xyt.flags.writeable = False
        return cls(tuple(trip.id for trip in trips), xyt, np.cumsum(counts) - counts, counts)

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i: int) -> Trip:
        """Trip i, holding a read-only view of its rows."""
        return Trip._wrap(self.ids[i], self.xyt[self.starts[i]:self.starts[i] + self.counts[i]])


def check_rep_len(rep_len: int) -> None:
    """Raise ValueError unless rep_len, the waypoints sampled from each trip, is at least 2."""
    check_param("rep_len", rep_len, rep_len >= 2, "must be at least 2")


def sample_points(trips: Iterable[Trip] | TripSet, rep_len: int) -> np.ndarray:
    """Every trip's waypoints at indices round(i (m-1) / (k-1)), i = 0..k-1, for k = rep_len.

    Returns the raw x, y, t rows stacked as shape (n, k, 3), gathered by one
    index into TripSet.of(trips). Row 0 and row k - 1 are always the trip's
    first and last waypoints. A trip with fewer than k waypoints repeats
    some of them.
    """
    check_rep_len(rep_len)
    trips = TripSet.of(trips)
    index = np.arange(rep_len) * ((trips.counts - 1) / (rep_len - 1))[:, None]
    index += 0.5
    index = np.floor(index, out=index).astype(np.intp)
    index += trips.starts[:, None]
    return trips.xyt[index]


def od_points(trips: Iterable[Trip] | TripSet) -> np.ndarray:
    """Raw origin and destination points, stacked: shape (n, 2, 3), columns x, y, t."""
    return sample_points(trips, 2)


def scale_points(points: np.ndarray, ctx: ScaleContext) -> np.ndarray:
    """Raw (..., 3) x, y, t rows mapped linearly onto the context box, clamped into [0, 1]."""
    scaled = points - np.array([ctx.x_min, ctx.y_min, ctx.t_min])
    scaled /= [ctx.x_span, ctx.y_span, ctx.t_span]
    return np.clip(scaled, 0.0, 1.0, out=scaled)


def od_rep(trip: Trip, ctx: ScaleContext) -> np.ndarray:
    """Scaled origin-destination representation of one trip: a (2, 3) array."""
    return scale_points(od_points([trip]), ctx)[0]


#: Window pairs space_time_pairs expands at a time, unless one i alone holds more.
WINDOW_BLOCK_PAIRS = 1 << 19


def space_time_pairs(keys: np.ndarray, t: np.ndarray, span: float, points: np.ndarray,
                     at: np.ndarray, reach: float) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (i, j), as two intp arrays sorted by (i, j), near in time and in space.

    A pair is near when 0 <= keys[j] - t[i] <= span, or for a negative span,
    which looks back, 0 <= t[i] - keys[j] <= -span; and when
    np.hypot(*(points[j] - at[i])) <= reach. The js are sorted once by
    (grid cell, time rank), so two bisections bound i's window, widened by a
    relative 1e-12 for the rounding of keys[j] - t[i], in each of the 3 x 3
    cells around at[i]. The window pairs are expanded at most
    WINDOW_BLOCK_PAIRS at a time, unless one i alone holds more, and gated
    exactly; one sort of the codes i * len(keys) + j orders the survivors.

    No pair within reach is missed. A cell is floor((p - corner) / s) per axis
    in the box of all points, s >= reach (1 + 1e-9), extent / 2^20 and
    extent sqrt(n) / 2^29, extent being the box's longer side, n = len(keys).
    Quotients lie in [0, 2^20] and err by at most 2^-31. Points whose computed
    hypot is <= reach lie within reach (1 + 2^-51) per axis, so their
    quotients differ by under 1 - 9e-10 + 2^-30 < 1. A non-finite or zero box,
    or an infinite reach, makes one cell. The key cell * n + rank, rank <= n,
    cells in [-(g + 3), (g + 2)^2) for g + 1 a side, stays within
    (g + 2)^2 n < 2^58 + 2^31 sqrt(n) + 4n < 2^63: numpy holds under 2^60 floats.
    """
    n, back, span = len(keys), span < 0, abs(span)
    pad = span + 1e-12 * (np.abs(t) + span)
    far = t - pad if back else t + pad
    order = np.argsort(keys, kind="stable")
    lo_rank = np.searchsorted(keys[order], far if back else t, side="left")
    hi_rank = np.searchsorted(keys[order], t if back else far, side="right")
    box = np.concatenate([points, at])
    with np.errstate(over="ignore", invalid="ignore"):  # a box wider than floats reach: inf
        box -= box.min(axis=0, initial=np.inf)
    extent = float(box.max(initial=-np.inf))
    side = max(reach * (1 + 1e-9), extent * max(2.0**-20, math.sqrt(n) * 2.0**-29))
    grid = int(extent / side) if 0 < extent < math.inf else 0
    cells = np.floor(box / side).astype(np.intp) if grid else np.zeros_like(box, np.intp)
    # rows grid + 2 wide put off-grid neighbours where no j is: row -1 or grid + 1, column grid + 1
    key = np.sort((cells[:n, 0] * (grid + 2) + cells[:n, 1])[order] * n + np.arange(n))
    order = order[key % n]
    ax, ay = (cells[n:, k, None] + [-1, 0, 1] for k in (0, 1))
    near = (ax[:, :, None] * (grid + 2) + ay[:, None, :]).reshape(-1, 9) * n
    first = np.searchsorted(key, near + lo_rank[:, None]).ravel()
    count = np.searchsorted(key, near + hi_rank[:, None]).ravel() - first
    # pair p of all the runs together sits at sorted position p + shift[r], r its run
    shift = first + count - np.cumsum(count)
    ends = np.cumsum(count)[8::9]
    del box, cells, key, ax, ay, near, first, pad, far, lo_rank, hi_rank  # freed before expanding
    (jx, jy), (ix, iy) = points.T, at.T
    codes, start, done = [np.empty(0, np.intp)], 0, 0
    while start < len(t):
        stop = max(int(np.searchsorted(ends, done + WINDOW_BLOCK_PAIRS, side="right")), start + 1)
        run = np.repeat(np.arange(9 * start, 9 * stop), count[9 * start:9 * stop])
        slot = np.arange(done, done + len(run))
        slot += shift[run]
        i, j = run // 9, order[slot]
        with np.errstate(over="ignore"):  # an offset past floats' reach is inf: not near
            keep = np.flatnonzero(np.hypot(jx[j] - ix[i], jy[j] - iy[i]) <= reach)
        i, j = i[keep], j[keep]
        keep = (t[i] - keys[j] if back else keys[j] - t[i]) <= span
        codes.append(i[keep] * n + j[keep])
        start, done = stop, int(ends[stop - 1])
    return np.divmod(np.sort(np.concatenate(codes)), max(n, 1))


def path_lengths(trips: Iterable[Trip] | TripSet) -> np.ndarray:
    """Each trip's path length in meters; equal-size trips are summed as one stack, bit for bit."""
    trips = TripSet.of(trips)
    m = trips.counts
    out = np.zeros(len(m))
    for size in set(m.tolist()) - {1}:  # np.unique would import numpy.ma, 20 ms cold
        members = np.flatnonzero(m == size)
        rows = trips.starts[members, None] + np.arange(size)
        step = np.diff(trips.xyt[rows, :2], axis=1)
        out[members] = np.hypot(step[..., 0], step[..., 1]).sum(axis=1)
    return out


def spatial_distance(a: Waypoint, b: Waypoint) -> float:
    """Euclidean distance between two raw waypoints, in meters."""
    return math.hypot(a.x - b.x, a.y - b.y)
