"""Tests for trace parsing, window cutting, and synthetic generation."""

from __future__ import annotations

import io
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripmatch import ingest
from tripmatch.ingest import (
    SynthConfig,
    TimeWindow,
    TraceFormatError,
    TraceRecord,
    build_trips,
    generate_synthetic,
    parse_trace,
    read_trips_jsonl,
    write_trips_jsonl,
)
from tripmatch.model import ScaleContext, Waypoint

from test_model import od_displacement, per_trip_path_length

#: Tokens that parse as numbers, fail to, or parse to non-finite values.
TOKENS = st.one_of(
    st.sampled_from(["1.0", "-0", "nan", "inf", "-inf", "1e400", "0x1p3", "1_0", "oops", ""]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(max_size=6),
)
FIELD_ORDERS = st.one_of(st.permutations(["t", "id", "x", "y", "speed"]),
                         st.permutations(["t", "id", "x", "y"]))


class TestParseTrace:
    def test_field_mapping(self):
        records, skipped = parse_trace(["28800.0 veh1 15000.0 12000.0 13.9"])
        assert skipped == 0
        assert records == [TraceRecord(28800.0, "veh1", 15000.0, 12000.0, 13.9)]

    def test_empty_input(self):
        assert parse_trace([]) == ([], 0)

    def test_wrong_arity_skipped(self):
        lines = [f"{t}.0 v{t} 1.0 2.0 3.0" for t in range(20)] + ["1.0 v9 2.0 3.0"]
        records, skipped = parse_trace(lines)
        assert skipped == 1
        assert len(records) == 20

    def test_non_numeric_skipped(self):
        lines = [f"{t}.0 v 1.0 2.0 3.0" for t in range(20)] + ["oops v 1.0 2.0 3.0"]
        _, skipped = parse_trace(lines)
        assert skipped == 1

    def test_blank_lines_ignored(self):
        records, skipped = parse_trace(["", "   ", "1.0 v 2.0 3.0 4.0", "\n"])
        assert skipped == 0 and len(records) == 1

    def test_too_many_malformed_lines(self):
        lines = ["good 1"] * 3 + ["1.0 v 2.0 3.0 4.0"] * 7
        with pytest.raises(TraceFormatError):
            parse_trace(lines)

    def test_custom_field_order(self):
        records, _ = parse_trace(["v7 5.0 6.0 100.5"], fmt="id x y t")
        assert records[0] == TraceRecord(100.5, "v7", 5.0, 6.0, None)

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="^format: may name only the fields"):
            parse_trace([], fmt="t id x y z")

    def test_duplicate_field_rejected(self):
        with pytest.raises(ValueError, match="^format: must not name a field twice"):
            parse_trace([], fmt="t t x y id")

    def test_missing_required_field_rejected(self):
        with pytest.raises(ValueError, match="^format: must include t, id, x and y"):
            parse_trace([], fmt="t id x speed")

    def test_ids_stay_strings(self):
        records, _ = parse_trace(["1.0 007 2.0 3.0 4.0"])
        assert records[0].id == "007"

    def test_file_stream(self):
        stream = io.StringIO("1.0 a 2.0 3.0 4.0\n2.0 a 2.5 3.5 4.0\n")
        records, _ = parse_trace(stream)
        assert len(records) == 2

    @settings(max_examples=300)
    @given(FIELD_ORDERS,
           st.lists(st.one_of(st.text(), st.lists(TOKENS, max_size=7).map(" ".join)),
                    max_size=30))
    def test_arbitrary_lines_raise_only_format_errors(self, fields, lines):
        try:
            records, skipped = parse_trace(lines, fmt=" ".join(fields))
        except ValueError:  # TraceFormatError included
            return
        assert len(records) + skipped == sum(1 for line in lines if line.split())
        for rec in records:
            assert math.isfinite(rec.t) and math.isfinite(rec.x) and math.isfinite(rec.y)


class TestBuildTrips:
    def test_grouping_and_sorting(self):
        records = [
            TraceRecord(30.0, "A", 3.0, 3.0, None),
            TraceRecord(10.0, "A", 1.0, 1.0, None),
            TraceRecord(20.0, "A", 2.0, 2.0, None),
            TraceRecord(15.0, "B", 9.0, 9.0, None),
        ]
        trips = build_trips(records, TimeWindow(0, 3600))
        by_id = {t.id: t for t in trips}
        assert by_id["A"].xyt()[:, 2].tolist() == [10.0, 20.0, 30.0]
        assert len(by_id["B"].xyt()) == 1

    def test_half_open_window(self):
        records = [TraceRecord(3600.0, "A", 0.0, 0.0, None),
                   TraceRecord(0.0, "B", 0.0, 0.0, None)]
        trips = build_trips(records, TimeWindow(0, 3600))
        assert [t.id for t in trips] == ["B"]

    def test_stable_order_on_time_ties(self):
        records = [TraceRecord(5.0, "A", float(i), 0.0, None) for i in range(4)]
        (trip,) = build_trips(records, TimeWindow(0, 10))
        assert trip.xyt()[:, 0].tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            TimeWindow(10, 10)


class TestGenerateSynthetic:
    BOX = ScaleContext(0, 20_000, 0, 20_000, 0, 86_400)

    def test_deterministic_for_seed(self):
        cfg = SynthConfig(n=25, bbox=self.BOX, lognorm_mu=7.5, seed=3)
        a, b = io.StringIO(), io.StringIO()
        write_trips_jsonl(generate_synthetic(cfg), a)
        write_trips_jsonl(generate_synthetic(cfg), b)
        assert a.getvalue() == b.getvalue()

    def test_different_seeds_differ(self):
        base = dict(n=25, bbox=self.BOX, lognorm_mu=7.5)
        a = generate_synthetic(SynthConfig(seed=1, **base))
        b = generate_synthetic(SynthConfig(seed=2, **base))
        assert a != b

    def test_single_two_point_trip(self):
        cfg = SynthConfig(n=1, bbox=self.BOX, lognorm_mu=7.5,
                          waypoints=2, seed=0)
        (trip,) = generate_synthetic(cfg)
        assert len(trip.xyt()) == 2

    def test_all_waypoints_inside_bbox(self):
        cfg = SynthConfig(n=50, bbox=self.BOX, lognorm_mu=7.5, seed=5)
        for trip in generate_synthetic(cfg):
            for x, y, t in trip.xyt().tolist():
                assert 0 <= x <= 20_000 and 0 <= y <= 20_000
                assert 0 <= t <= 86_400

    def test_positive_duration_and_displacement_bound(self):
        cfg = SynthConfig(n=50, bbox=self.BOX, lognorm_mu=7.5, seed=6)
        for trip in generate_synthetic(cfg):
            assert trip.duration > 0
            assert od_displacement(trip) <= per_trip_path_length(trip) + 1e-9

    def test_duration_mean_matches_gamma(self):
        # big box so that no draw can trip the feasibility guards
        box = ScaleContext(0, 100_000, 0, 100_000, 0, 86_400)
        cfg = SynthConfig(n=10_000, bbox=box, gamma_shape=2.0,
                          gamma_scale=300.0, waypoints=2, seed=42)
        durations = np.array([t.duration for t in generate_synthetic(cfg)])
        target = 2.0 * 300.0
        stderr = 300.0 * math.sqrt(2.0 / 10_000)
        assert abs(durations.mean() - target) < 3 * stderr

    def test_infeasible_displacement(self):
        tiny = ScaleContext(0, 100, 0, 100, 0, 86_400)
        cfg = SynthConfig(n=10, bbox=tiny, lognorm_mu=8.0, seed=0)
        with pytest.raises(ValueError, match="displacement"):
            generate_synthetic(cfg)

    def test_infeasible_duration(self):
        short = ScaleContext(0, 20_000, 0, 20_000, 0, 10)
        cfg = SynthConfig(n=10, bbox=short, lognorm_mu=7.5, seed=0)
        with pytest.raises(ValueError, match="duration"):
            generate_synthetic(cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SynthConfig(n=0, bbox=self.BOX)
        with pytest.raises(ValueError):
            SynthConfig(n=1, bbox=self.BOX, gamma_shape=-1.0)
        with pytest.raises(ValueError):
            SynthConfig(n=1, bbox=self.BOX, waypoints=1)

    def test_negative_seed_names_its_parameter(self):
        with pytest.raises(ValueError, match=r"^seed: must be at least 0, got -1$"):
            SynthConfig(n=1, bbox=self.BOX, seed=-1)


class TestJsonl:
    def test_round_trip_exact(self, synth_trips):
        buf = io.StringIO()
        write_trips_jsonl(synth_trips, buf)
        buf.seek(0)
        back = list(read_trips_jsonl(buf))
        assert [t.id for t in back] == [t.id for t in synth_trips]
        for orig, rt in zip(synth_trips, back):
            assert rt.xyt().tolist() == orig.xyt().tolist()

    def test_hand_written_line(self):
        (trip,) = read_trips_jsonl(['{"id": "a", "points": [[1.0, 2.0, 3.0]]}'])
        assert trip.id == "a"
        assert trip.xyt()[0].tolist() == [2.0, 3.0, 1.0]


# -- the reader against its Waypoint-based predecessor ----------------------

class _OracleCrash(Exception):
    """Marks the line where the Waypoint-based reader let an OverflowError escape."""

    def __init__(self, lineno: int) -> None:
        super().__init__(lineno)
        self.lineno = lineno


def oracle_read_trips_jsonl(source):
    """read_trips_jsonl as it was when a trip held one validated Waypoint per point.

    Yields (id, xyt), with xyt built as that Trip.xyt() built it. That
    Trip's own checks (at least one point; times compared as the JSON values
    themselves) are written out here, because Trip now stores floats.
    """
    first_seen: dict[str, int] = {}
    for lineno, line in enumerate(source, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
            points = tuple(Waypoint(x, y, t) for t, x, y in obj["points"])
            if len(points) < 1:
                raise ValueError("no waypoints")
            ts = [w.t for w in points]
            if any(b < a for a, b in zip(ts, ts[1:])):
                raise ValueError("waypoints are not sorted by time")
            trip_id = str(obj["id"])
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceFormatError(f"line {lineno}: {exc!r}") from exc
        except OverflowError as exc:
            raise _OracleCrash(lineno) from exc
        if trip_id in first_seen:
            raise TraceFormatError(f"line {lineno}: duplicate trip id {trip_id!r}")
        first_seen[trip_id] = lineno
        yield trip_id, np.array([[w.x, w.y, w.t] for w in points], dtype=float)


def _outcome(pairs) -> tuple[list[tuple[str, np.ndarray]], int | None]:
    """(the (id, xyt) pairs read, the line of the rejected record or None)."""
    accepted = []
    try:
        for pair in pairs:
            accepted.append(pair)
    except TraceFormatError as exc:
        return accepted, int(re.match(r"line (\d+): ", str(exc)).group(1))
    except _OracleCrash as crash:
        return accepted, crash.lineno
    return accepted, None


#: Times and coordinates a valid record may hold: ints (some past 2**53 and
#: int64, where rounding and numpy's integer types come in), floats, booleans.
TIMES = st.one_of(st.integers(0, 10**6), st.floats(0, 1e9), st.booleans(), st.just(-0.0),
                  st.integers(2**53 - 3, 2**53 + 3), st.integers(2**63 - 2, 2**64 + 2))
COORDS = st.one_of(st.integers(-10**6, 10**6), st.floats(allow_nan=False, allow_infinity=False),
                   st.booleans(), st.integers(-2**64, 2**64))
#: Point values that are not finite JSON numbers a float can hold.
BAD_VALUES = st.one_of(st.sampled_from(["1.5", "0", "", "NaN"]), st.none(),
                       st.lists(st.integers(0, 9), max_size=3),
                       st.sampled_from([math.nan, math.inf, -math.inf, 10**400, -10**400]),
                       st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))
IDS = st.one_of(st.sampled_from(["a", "b", "1"]), st.integers(0, 2), st.booleans(),
                st.text(max_size=2))
MUTATIONS = ("valid", "valid", "valid", "value", "negative-t", "unsorted", "rounded-tie",
             "empty", "arity", "points-not-a-list", "no-id", "no-points", "not-an-object")


@st.composite
def record_lines(draw) -> str:
    """One trips.jsonl line: a valid record, or one with a single defect."""
    times = sorted(draw(st.lists(TIMES, min_size=1, max_size=5)))
    if draw(st.booleans()):
        times.append(times[-1])  # equal timestamps are valid
    points = [[t, draw(COORDS), draw(COORDS)] for t in times]
    rec = {"id": draw(IDS), "points": points}
    kind = draw(st.sampled_from(MUTATIONS))
    i = draw(st.integers(0, len(points) - 1))
    if kind == "value":
        points[i][draw(st.integers(0, 2))] = draw(BAD_VALUES)
    elif kind == "negative-t":
        points[0][0] = draw(st.sampled_from([-1, -0.5, -5e-324, -10**6]))
    elif kind == "unsorted":
        points.append([points[-1][0] - draw(st.sampled_from([1, 0.25, 5e-324])), 0, 0])
    elif kind == "rounded-tie":  # exactly decreasing, equal once rounded to floats
        big = draw(st.integers(2**53 + 1, 2**70))
        rec["points"] = [[big, 0, 0], [draw(st.sampled_from([big - 1, float(big)])), 0, 0]]
    elif kind == "empty":
        rec["points"] = []
    elif kind == "arity":
        points[i] = points[i][:draw(st.integers(0, 2))] if draw(st.booleans()) else points[i] + [0]
    elif kind == "points-not-a-list":
        rec["points"] = draw(st.sampled_from(["abc", "", {}, {"abc": 1}, 5, None, True]))
    elif kind == "no-id":
        del rec["id"]
    elif kind == "no-points":
        del rec["points"]
    elif kind == "not-an-object":
        return draw(st.sampled_from(["[1, 2]", "3", '"x"', "null", "{", "true", "[]"]))
    return json.dumps(rec)


class TestReaderMatchesWaypointOracle:
    @settings(max_examples=500)
    @given(st.lists(st.one_of(record_lines(), st.sampled_from(["", "  "])),
                    min_size=1, max_size=6))
    def test_same_decisions_ids_and_bits(self, lines):
        expected, expected_line = _outcome(oracle_read_trips_jsonl(lines))
        got, got_line = _outcome((t.id, t.xyt()) for t in read_trips_jsonl(lines))
        assert got_line == expected_line
        assert [i for i, _ in got] == [i for i, _ in expected]
        for (_, xyt), (_, oracle_xyt) in zip(got, expected):
            assert xyt.shape == oracle_xyt.shape
            assert xyt.tobytes() == oracle_xyt.tobytes()

    def test_huge_integer_is_a_format_error_where_the_oracle_crashed(self):
        lines = ['{"id": "a", "points": [[0, 1, 2]]}',
                 '{"id": "b", "points": [[0, 1%s, 2]]}' % ("0" * 400)]
        with pytest.raises(_OracleCrash) as crash:
            list(oracle_read_trips_jsonl(lines))
        assert crash.value.lineno == 2
        with pytest.raises(TraceFormatError, match=r"^line 2: "):
            list(read_trips_jsonl(lines))


# -- the compact block path against the same oracle -------------------------

#: A JSON number as it appears in a line's text.
NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")

#: Number tokens, written as text: some json.loads rejects or reads otherwise
#: than float() does, some it reads alike, some past 2**53 and 2**63.
TEXT_TOKENS = st.one_of(
    st.sampled_from(["01", "-01", "00", "0.5", ".5", "-.5", "5.", "5.e3", "+5", "-0", "-0.0",
                     "0", "-0e0", "1e5", "1E+2", "2.5e-3", "1e05", "1e-400", "-1e-400", "1e400",
                     "5e-324", "true", "false", "null", "NaN", "-Infinity", " 1", "1 ", "0x10",
                     "1_0", "--1", "1e", "1-2", "1.2.3", "1,2", ""]),
    st.integers(2**53 - 3, 2**53 + 3).map(str), st.integers(-2**53 - 3, -2**53 + 3).map(str),
    st.integers(2**63 - 2, 2**63 + 2).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.from_regex(r"-?(0|[1-9][0-9]{0,17})(\.[0-9]{1,25})?([eE][+-]?[0-9]{1,3})?",
                  fullmatch=True))
#: Ids that json.dumps writes with escapes, or that hold characters it does not escape.
ESCAPED_IDS = st.text(st.sampled_from('ab"\\\n\t\x00\x1f\x7fé '), min_size=1,
                      max_size=4)


@st.composite
def compact_record_lines(draw) -> str:
    """A trips.jsonl line with "," and ":" separators, maybe edited as text.

    The record is a valid one, or a record_lines one re-written. The edit
    puts a drawn token in place of one number of the points, gives the
    record an id that needs escapes, or puts a raw control character or a
    backslash into the id as written.
    """
    if draw(st.booleans()):
        times = sorted(draw(st.lists(TIMES, min_size=1, max_size=5)))
        rec = {"id": draw(st.text(max_size=3)),
               "points": [[t, draw(COORDS), draw(COORDS)] for t in times]}
    else:
        try:
            rec = json.loads(draw(record_lines()))
        except ValueError:
            rec = None
    edit = draw(st.sampled_from(["none", "none", "token", "token", "escaped-id", "raw-id"]))
    if edit == "escaped-id" and isinstance(rec, dict):
        rec["id"] = draw(ESCAPED_IDS)
    if rec is None:
        return draw(record_lines())
    line = json.dumps(rec, separators=(",", ":"), ensure_ascii=draw(st.booleans()))
    numbers = list(NUMBER.finditer(line, max(line.find('"points":'), 0)))
    if edit == "token" and numbers:
        m = numbers[draw(st.integers(0, len(numbers) - 1))]
        line = line[:m.start()] + draw(TEXT_TOKENS) + line[m.end():]
    elif edit == "raw-id" and line.startswith('{"id":"'):
        line = line[:7] + draw(st.sampled_from(["\x00", "\x1f", "\\", "\t", "\\u0041"])) + line[7:]
    return line


def assert_reads_like_oracle(lines) -> None:
    expected, expected_line = _outcome(oracle_read_trips_jsonl(lines))
    got, got_line = _outcome((t.id, t.xyt()) for t in read_trips_jsonl(lines))
    assert got_line == expected_line
    assert [i for i, _ in got] == [i for i, _ in expected]
    for (_, xyt), (_, oracle_xyt) in zip(got, expected):
        assert xyt.shape == oracle_xyt.shape
        assert xyt.tobytes() == oracle_xyt.tobytes()


#: Where a token goes in a compact line: its first number, the first number
#: after a "],[" and the last number before one.
TOKEN_PLACES = (r'(?<="points":\[\[)[^,]*', r'(?<=\],\[)[^,]*', r'[^,]*(?=\],\[)')


def compact_line(i: int, t0: str | None = None, place: str = TOKEN_PLACES[0]) -> str:
    """Trip t<i>'s line as the writer writes it; t0 replaces the number at place."""
    points = [[100.0 * i + k, 0.25 * k - i, 1e-3 * i * k] for k in range(4)]
    line = json.dumps({"id": f"t{i}", "points": points}, separators=(",", ":"))
    return line if t0 is None else re.sub(place, t0, line, count=1)


def spaced(line: str) -> str:
    """The same record in the general path's reach: a space after its first separator."""
    return line.replace('","points":', '", "points":', 1)


class TestCompactReaderMatchesWaypointOracle:
    @settings(max_examples=500)
    @given(st.lists(st.one_of(compact_record_lines(), st.sampled_from(["", "  "])),
                    min_size=1, max_size=6))
    def test_same_decisions_ids_and_bits(self, lines):
        assert_reads_like_oracle(lines)

    def test_compact_lines_share_one_read_only_block(self):
        trips = list(read_trips_jsonl([compact_line(i) for i in range(3)]))
        bases = {id(t.xyt().base) for t in trips}
        assert len(bases) == 1 and trips[0].xyt().base is not None
        assert not any(t.xyt().flags.writeable for t in trips)
        assert trips[2].xyt().tolist() == [[0.25 * k - 2, 2e-3 * k, 200.0 + k] for k in range(4)]

    def test_empty_points_read_without_a_warning(self):
        lines = ['{"id":"a","points":[[]]}', '{"id":"b","points":[[],[]]}']
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_reads_like_oracle(lines[1:])
            assert_reads_like_oracle(lines)

    def test_other_lines_own_their_points(self):
        (trip,) = read_trips_jsonl([spaced(compact_line(0))])
        assert trip.xyt().base is None and not trip.xyt().flags.writeable

    @pytest.mark.parametrize("bad", [
        # tokens json.loads rejects or reads apart from float()
        "01", "-01", ".5", "5.", "+5", "-0", "1e400", "9007199254740993", "\x0c5", "5\x0b",
        # tokens both read alike
        "1E+2", "0e0", "-0.0",
        # whole lines: a duplicate id, unsorted times, times that are unsorted
        # but equal as floats, a control character, no closing brace, and a
        # valid record the general path reads
        "duplicate", "unsorted", "rounded-tie", "control", "truncated", "spaced",
    ])
    def test_edited_line_in_the_second_block(self, bad):
        lines = [compact_line(i) for i in range(BAD + 20)]
        whole = {
            "duplicate": lines[3],
            "unsorted": compact_line(BAD, f"{100.0 * BAD + 3.5}"),
            "rounded-tie": f'{{"id":"t{BAD}","points":[[{2**53 + 1},0,0],[{2**53},0,0]]}}',
            "control": lines[BAD].replace('"t', '"\x01t', 1),
            "truncated": lines[BAD][:-1],
            "spaced": spaced(lines[BAD]),
        }
        # a token also goes where the reader splits the points' text
        edits = [whole[bad]] if bad in whole else [
            compact_line(BAD, bad, place) for place in TOKEN_PLACES]
        for edit in edits:
            lines[BAD] = edit
            assert_reads_like_oracle(lines)
            compact = _message(read_trips_jsonl(lines))
            general = [line if i == BAD else spaced(line) for i, line in enumerate(lines)]
            assert compact == _message(read_trips_jsonl(general))
            if compact is not None:
                assert compact.startswith(f"line {BAD + 1}: ")


#: A line past the first block of the reader.
BAD = ingest._BLOCK_LINES + 5


def _message(trips) -> str | None:
    """The reader's error message, or None when it reads every line."""
    try:
        for _ in trips:
            pass
    except TraceFormatError as exc:
        return str(exc)
    return None


@settings(max_examples=300)
@given(st.lists(st.from_regex(r"-?(0|[1-9][0-9]{0,20})(\.[0-9]{1,25})?([eE][+-]?[0-9]{1,3})?",
                              fullmatch=True), min_size=1, max_size=30))
def test_text_parse_rounds_like_float(tokens):
    """The block path's one parse of many numbers gives float()'s bits for each."""
    floats = np.array([float(t) for t in tokens]).tobytes()
    parsed = np.loadtxt(io.StringIO("\n".join(tokens)), delimiter=",", ndmin=2)
    assert parsed.ravel().tobytes() == floats
    # the reader's own call: [t,x,y] points joined by "],[" and split there
    tokens = tokens * 3
    points = "],[".join(",".join(tokens[k:k + 3]) for k in range(0, len(tokens), 3))
    parsed = np.loadtxt(points.split("],["), delimiter=",", ndmin=2, comments=None)
    assert parsed.shape == (len(tokens) // 3, 3)
    assert parsed.ravel().tobytes() == floats * 3


#: Where a token goes to sit at the end of a compact line's points: its last number.
LAST_NUMBER = r'[^,]*(?=\]\]\}$)'

#: Lines of a file two blocks long, the second short: the first, a middle and
#: the last line of the full block, and a middle and the last line of the short one.
BLOCK_EDGES = (0, 100, ingest._BLOCK_LINES - 1, BAD, BAD + 19)


class TestCompactByteRules:
    """Each byte test of the compact path, at the block's ends and at its "],[" splits."""

    @pytest.mark.parametrize("at", BLOCK_EDGES)
    @pytest.mark.parametrize("point", [0, 2, 4])
    def test_empty_point(self, at, point):
        lines = [compact_line(i) for i in range(BAD + 20)]
        points = [[100.0 * at + k, 0.25 * k, 1.0] for k in range(4)]
        text = ",".join(json.dumps(p, separators=(",", ":")) for p in points[:point])
        rest = ",".join(json.dumps(p, separators=(",", ":")) for p in points[point:])
        lines[at] = f'{{"id":"t{at}","points":[{",".join(filter(None, [text, "[]", rest]))}]}}'
        assert_reads_like_oracle(lines)
        assert _message(read_trips_jsonl(lines)).startswith(f"line {at + 1}: ")

    def test_empty_point_alone_in_the_final_short_block(self):
        lines = [compact_line(i) for i in range(ingest._BLOCK_LINES)] + ['{"id":"x","points":[[]]}']
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt warns when it reads no line at all
            assert_reads_like_oracle(lines)

    @pytest.mark.parametrize("at", BLOCK_EDGES)
    @pytest.mark.parametrize("token", ["+5", ".5", "5.", "01", "-01", "-.5", "5.e3", "1_0", "0x10",
                                       " 1", "NaN", "1e+05", "1e-05", "0.5", "-0.5", "10.05"])
    def test_number_forms(self, at, token):
        lines = [compact_line(i) for i in range(BAD + 20)]
        for place in (*TOKEN_PLACES, LAST_NUMBER):
            lines[at] = compact_line(at, token, place)
            assert token in lines[at]
            assert_reads_like_oracle(lines)
            if _message(read_trips_jsonl(lines)) is None:
                # a plain number that JSON reads as float() does keeps the block
                # on the compact path; text around a number sends it to json.loads
                first = at - at % ingest._BLOCK_LINES
                block = list(read_trips_jsonl(lines))[first:first + ingest._BLOCK_LINES]
                bases = {id(t.xyt().base) for t in block}
                compact = len(bases) == 1 and block[0].xyt().base is not None
                assert compact == bool(NUMBER.fullmatch(token))
