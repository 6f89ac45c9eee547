"""Trace parsing, time-window cutting, trip assembly, and synthetic trip sets."""

from __future__ import annotations

import itertools
import json
import math
import re
from dataclasses import dataclass
from typing import IO, Iterable, Iterator

import numpy as np

from .model import (UNSORTED, ScaleContext, Trip, check_param, check_points, check_positive,
                    check_seed)


class TraceFormatError(ValueError):
    """Raised when a trace stream is too malformed to trust."""

    category = "format"


#: Fields a trace format string may name. `id` is the only non-numeric one.
_KNOWN_FIELDS = ("t", "id", "x", "y", "speed")

#: Fraction of malformed lines above which parsing aborts.
_MALFORMED_LIMIT = 0.10

#: Standard deviation of a synthetic trip's interior waypoint jitter, as a
#: fraction of its displacement.
_JITTER_FRAC = 0.05


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One trace line: a vehicle position report."""

    t: float
    id: str
    x: float
    y: float
    speed: float | None = None


@dataclass(frozen=True, slots=True)
class TimeWindow:
    """Half-open analysis window [window_start, window_end) in trace seconds."""

    window_start: float
    window_end: float

    def __post_init__(self) -> None:
        check_param("window_end", self.window_end, self.window_end > self.window_start,
                    f"must exceed the window start {self.window_start!r}")

    def contains(self, t: float) -> bool:
        return self.window_start <= t < self.window_end


def trace_columns(format: str) -> dict[str, int]:
    """The column of each field a trace format names, as parse_trace reads its fmt."""
    fields = format.split()
    check_param("format", format, set(fields) <= set(_KNOWN_FIELDS),
                f"may name only the fields {', '.join(_KNOWN_FIELDS)}")
    check_param("format", format, len(set(fields)) == len(fields), "must not name a field twice")
    check_param("format", format, {"t", "id", "x", "y"} <= set(fields),
                "must include t, id, x and y")
    return {name: i for i, name in enumerate(fields)}


def parse_trace(
    lines: Iterable[str], fmt: str = "t id x y speed"
) -> tuple[list[TraceRecord], int]:
    """Parse a whitespace-separated, line-oriented trace.

    Args:
        lines: iterable of text lines (an open file works).
        fmt: space-separated column names; must include t, id, x, y.
            speed is optional. Lines whose field count differs from the
            format, or whose numeric fields fail to parse, are skipped.

    Returns:
        (records, skipped) where skipped counts malformed lines.

    Raises:
        TraceFormatError: if more than 10% of non-blank lines are malformed.
    """
    pos = trace_columns(fmt)
    records: list[TraceRecord] = []
    skipped = 0
    total = 0
    for line in lines:
        parts = line.split()
        if not parts:
            continue
        total += 1
        if len(parts) != len(pos):
            skipped += 1
            continue
        try:
            t = float(parts[pos["t"]])
            x = float(parts[pos["x"]])
            y = float(parts[pos["y"]])
            speed = float(parts[pos["speed"]]) if "speed" in pos else None
        except ValueError:
            skipped += 1
            continue
        if not (math.isfinite(t) and math.isfinite(x) and math.isfinite(y)):
            skipped += 1
            continue
        records.append(TraceRecord(t, parts[pos["id"]], x, y, speed))

    if total > 0 and skipped / total > _MALFORMED_LIMIT:
        raise TraceFormatError(
            f"{skipped}/{total} malformed lines exceeds the {_MALFORMED_LIMIT:.0%} limit"
        )
    return records, skipped


def build_trips(records: Iterable[TraceRecord], window: TimeWindow) -> list[Trip]:
    """Group in-window records by vehicle id into time-sorted trips.

    The window is half-open: a record at exactly window.window_end is dropped.
    Records with equal timestamps keep their input order (stable sort).
    Trips are returned in order of first appearance of their id.
    """
    groups: dict[str, list[TraceRecord]] = {}
    for rec in records:
        if window.contains(rec.t):
            groups.setdefault(rec.id, []).append(rec)
    trips = []
    for trip_id, recs in groups.items():
        recs.sort(key=lambda r: r.t)
        trips.append(Trip(trip_id, [(r.x, r.y, r.t) for r in recs]))
    return trips


@dataclass(frozen=True, slots=True)
class SynthConfig:
    """Parameters for desk-scale synthetic trip sets.

    Durations are gamma(shape, scale) seconds, straight-line displacements
    lognormal(mu, sigma) meters; both chosen to mimic the right-skewed
    marginals of real urban trip data.
    """

    n: int
    bbox: ScaleContext
    gamma_shape: float = 2.0
    gamma_scale: float = 300.0
    lognorm_mu: float = 8.0
    lognorm_sigma: float = 0.6
    waypoints: int = 10
    seed: int = 7

    def __post_init__(self) -> None:
        check_param("n", self.n, self.n >= 1, "must be at least 1")
        for name in ("gamma_shape", "gamma_scale", "lognorm_sigma"):
            check_positive(name, getattr(self, name))
        check_param("lognorm_mu", self.lognorm_mu, math.isfinite(self.lognorm_mu), "must be finite")
        check_param("waypoints", self.waypoints, self.waypoints >= 2, "must be at least 2")
        check_seed(self.seed)


def generate_synthetic(cfg: SynthConfig) -> list[Trip]:
    """Generate a deterministic synthetic trip set.

    Each trip draws a duration and an OD displacement, places its origin
    uniformly in the bbox, picks a heading that keeps the destination in
    bounds, and linearly interpolates intermediate waypoints with a little
    positional jitter. All waypoints stay inside the bbox.

    Raises:
        ValueError: if a drawn displacement exceeds the bbox diagonal or a
            drawn duration exceeds the bbox time span (infeasible config).
    """
    rng = np.random.default_rng(cfg.seed)
    box = cfg.bbox
    trips: list[Trip] = []
    for i in range(cfg.n):
        duration = float(rng.gamma(cfg.gamma_shape, cfg.gamma_scale))
        if duration > box.t_span:
            raise ValueError(
                f"drawn duration {duration:.1f}s exceeds bbox time span {box.t_span:.1f}s"
            )
        displacement = float(rng.lognormal(cfg.lognorm_mu, cfg.lognorm_sigma))
        if displacement > box.diagonal:
            raise ValueError(
                f"drawn displacement {displacement:.1f}m exceeds bbox diagonal {box.diagonal:.1f}m"
            )
        start = box.t_min + float(rng.uniform(0.0, box.t_span - duration))

        for _ in range(10_000):
            ox = float(rng.uniform(box.x_min, box.x_max))
            oy = float(rng.uniform(box.y_min, box.y_max))
            theta = float(rng.uniform(0.0, 2.0 * math.pi))
            dx = ox + displacement * math.cos(theta)
            dy = oy + displacement * math.sin(theta)
            if box.x_min <= dx <= box.x_max and box.y_min <= dy <= box.y_max:
                break
        else:
            raise ValueError("could not place trip endpoints inside the bbox")

        m = cfg.waypoints
        ts = np.linspace(start, start + duration, m)
        frac = np.linspace(0.0, 1.0, m)
        xs = ox + frac * (dx - ox)
        ys = oy + frac * (dy - oy)
        if m > 2:
            sigma = _JITTER_FRAC * displacement
            xs[1:-1] += rng.normal(0.0, sigma, m - 2)
            ys[1:-1] += rng.normal(0.0, sigma, m - 2)
            xs[1:-1] = np.clip(xs[1:-1], box.x_min, box.x_max)
            ys[1:-1] = np.clip(ys[1:-1], box.y_min, box.y_max)
        trips.append(Trip(f"synth-{i:05d}", np.column_stack([xs, ys, ts])))
    return trips


def write_trips_jsonl(trips: Iterable[Trip], sink: IO[str]) -> None:
    """Write trips as line-delimited JSON: {"id": ..., "points": [[t, x, y], ...]}."""
    for trip in trips:
        obj = {"id": trip.id, "points": trip.xyt()[:, [2, 0, 1]].tolist()}
        sink.write(json.dumps(obj, separators=(",", ":")) + "\n")


#: Above this magnitude a JSON integer may round onto its float neighbour.
_EXACT_FLOAT_LIMIT = 2.0 ** 53


def _points_xyt(points: object) -> np.ndarray:
    """A record's [[t, x, y], ...] as an (m, 3) float array of x, y, t rows.

    Every point must be a [t, x, y] triple of JSON numbers (true and false
    count as 1 and 0): numeric strings, null and nested lists are rejected,
    as is an integer too large for a float. Past 2**53, where two integers
    can round to one float, the order of the times is checked on the JSON
    values themselves. The other checks are the Trip's own.
    """
    raw = np.array(points)
    if raw.ndim != 2 or raw.shape[1] != 3:
        raise ValueError(f"points must be [t, x, y] triples, got shape {raw.shape}")
    if raw.dtype.kind == "O":  # integers past int64, or values that are not numbers
        if not all(type(v) in (int, float, bool) for v in raw.flat):
            raise ValueError("points must hold JSON numbers only")
    elif raw.dtype.kind not in "biuf":
        raise ValueError("points must hold JSON numbers only")
    xyt = raw[:, [1, 2, 0]].astype(float, copy=False)
    # the last time is the largest unless the Trip rejects their order anyway
    ts = [p[0] for p in points] if xyt[-1, 2] >= _EXACT_FLOAT_LIMIT else []
    if any(b < a for a, b in zip(ts, ts[1:])):
        raise ValueError(UNSORTED)
    return xyt


#: Non-blank lines read as one block. A block of compact lines is tested and
#: parsed as a whole; a few hundred lines amortise that work and keep it small.
_BLOCK_LINES = 256

#: The text of a compact line around its id and around its points' numbers.
_ID_START, _ID_END, _POINTS_END = '{"id":"', '","points":[[', "]]}"

#: Characters an id must not hold for json.loads to read it as written.
_ESCAPED = re.compile(r'[\x00-\x1f\\]')

#: Bytes a block's points may hold: numbers, commas and brackets.
_NUMBER_BYTES = b"0123456789.,eE+-[]"


#: Each byte's roles in a pair, bits 0-3 as its left byte and 4-7 as its
#: right: pair bit k is set where the left byte has bit k and the right
#: bit k + 4. Bit 0 pairs a "0" with a digit, 1 a non-digit with a ".", 2 a
#: "." with a non-digit, 3 an opener ("," or "[") with a "0". A byte no
#: number holds reads 0. "-" is deleted first: it only signs a number, so
#: a number then starts right after its opener, or its "e".
_BYTE_CLASSES = bytes(
    (b == 48) | (not 48 <= b <= 57) << 1 | (b == 46) << 2 | (b in b",[") << 3
    | (48 <= b <= 57) << 4 | (b == 46) << 5 | (not 48 <= b <= 57) << 6 | (b == 48) << 7
    if b in _NUMBER_BYTES and b != 45 else 0 for b in range(256))


def _json_reads_otherwise(raw: bytearray, b: np.ndarray, classes: bytearray) -> bool:
    """Whether json.loads would reject or read apart some number of raw.

    raw is a block's points, "[[t,x,y],...]", whose numbers float() has
    accepted, b its uint8 view and classes raw less "-" by _BYTE_CLASSES.
    float() also takes a mantissa sign "+", a point with no digit on one
    side (".5", "5.") and leading zeros ("01"), which JSON rejects.
    """
    if b"+" in raw and ((b[1:] == ord("+")) & (b[:-1] | 0x20 != ord("e"))).any():
        return True
    c = np.frombuffer(classes, dtype=np.uint8)
    pairs = c[1:] >> 4
    pairs &= c[:-1]
    # a "." beside a non-digit (bits 1, 2), or an opener, "0", digit (bits 3
    # then 0); classes is a bytearray no one else reads, so it takes the result
    found = np.right_shift(pairs[:-1], 3, out=c[:-2])
    found |= 0b110
    found &= pairs[1:]
    return bool(found.any())


def _compact_block(
    lines: list[str], first_seen: dict[str, int]
) -> tuple[list[str], np.ndarray, np.ndarray] | None:
    """The ids, stacked read-only x, y, t rows and first rows of the lines' trips.

    None unless every line is in the writer's compact form
    {"id":"<id>","points":[[t,x,y],...]}, every number is a plain decimal
    that json.loads and float() read alike, below 2**53 in magnitude, and
    the trips pass check_points with ids new to first_seen and to each other.
    The numbers are read by one text parse, which makes no Python object for
    each of them.
    """
    ids, bodies = [], []
    for line in lines:
        end = line.find('"', len(_ID_START))
        if not (line.startswith(_ID_START) and line.startswith(_ID_END, end)
                and line.endswith(_POINTS_END)):
            return None
        ids.append(line[len(_ID_START):end])
        bodies.append(line[end + len(_ID_END):-len(_POINTS_END)])
    if (_ESCAPED.search("".join(ids)) or len(set(ids)) < len(ids)
            or not first_seen.keys().isdisjoint(ids)):
        return None
    # one copy of the points' text; any other character leaves a byte over 127
    texts = ["[[" + bodies[0], *bodies[1:]]
    texts[-1] += "]]"
    raw = bytearray("],[".join(texts), "utf-8", "surrogatepass")
    classes = raw.translate(_BYTE_CLASSES, b"-")
    if 0 in classes:
        return None
    # each "]" closes one point, and trip k's last where its body ends; an
    # empty point would leave loadtxt a line it skips
    b = np.frombuffer(raw, dtype=np.uint8)
    closes = np.flatnonzero(b == ord("]"))
    if (b[closes - 1] == ord("[")).any():
        return None
    try:  # a line per point, split a trip at a time to keep few lines alive
        tx = np.loadtxt(itertools.chain.from_iterable(body.split("],[") for body in bodies),
                        delimiter=",", ndmin=2, comments=None)
    except ValueError:  # a field that is no number, as a stray bracket leaves
        return None
    last = closes.searchsorted(np.cumsum([len(body) + 3 for body in bodies]) - 1)
    if tx.shape != (last[-1] + 1, 3) or _json_reads_otherwise(raw, b, classes):
        return None
    # JSON reads the integer -0 as +0.0; past 2**53 the reader compares times exactly
    if not np.abs(tx).max() < _EXACT_FLOAT_LIMIT or np.signbit(tx[tx == 0]).any():
        return None
    xyt = tx[:, [1, 2, 0]]
    xyt.flags.writeable = False
    starts = np.concatenate(([0], last[:-1] + 1))
    try:
        check_points(xyt, starts, ids)
    except ValueError:
        return None
    return ids, xyt, starts


def _read_block(block: list[tuple[int, str]], first_seen: dict[str, int]) -> Iterator[Trip]:
    """The trips of numbered non-blank lines, by the compact path if it takes them all."""
    compact = _compact_block([line for _, line in block], first_seen)
    if compact is not None:
        ids, xyt, starts = compact
        bounds = starts.tolist() + [len(xyt)]
        for (lineno, _), trip_id, a, b in zip(block, ids, bounds, bounds[1:]):
            first_seen[trip_id] = lineno
            yield Trip._wrap(trip_id, xyt[a:b])
        return
    for lineno, line in block:
        try:
            obj = json.loads(line)
            xyt = _points_xyt(obj["points"])
            trip = Trip(str(obj["id"]), xyt)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise TraceFormatError(f"line {lineno}: {exc!r}") from exc
        if trip.id in first_seen:
            raise TraceFormatError(f"line {lineno}: duplicate trip id {trip.id!r}"
                                   f" (first on line {first_seen[trip.id]})")
        first_seen[trip.id] = lineno
        yield trip


def read_trips_jsonl(source: Iterable[str]) -> Iterator[Trip]:
    """Read trips from the line-delimited JSON format written by write_trips_jsonl.

    Non-blank lines are read in blocks. A block of lines all in the writer's
    compact form is parsed as a whole, and its trips hold views into one
    array; any other block is decoded line by line with json.loads. Both
    paths accept, reject and report the same records alike.

    Raises:
        TraceFormatError: naming the line of a record that does not decode
            to a valid trip, or whose id repeats an earlier record's; every
            consumer keys trips by id.
    """
    first_seen: dict[str, int] = {}
    block: list[tuple[int, str]] = []
    for lineno, line in enumerate(source, start=1):
        line = line.strip()
        if line:
            block.append((lineno, line))
        if len(block) == _BLOCK_LINES:
            yield from _read_block(block, first_seen)
            block = []
    if block:
        yield from _read_block(block, first_seen)
