"""End-to-end tests of the command-line pipelines."""

from __future__ import annotations

import ast
import csv
import functools
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tripmatch
from tripmatch import affinity, cli, matching, metrics
from tripmatch.affinity import build_affinity, sym_decompose
from tripmatch.cli import build_parser, main
from tripmatch.ingest import read_trips_jsonl, write_trips_jsonl
from tripmatch.model import ScaleContext, Trip, od_rep

from test_golden import RUNS, _artifacts, _write_inputs, assert_golden


def run(capsys, *argv) -> tuple[int, dict]:
    code = main(list(argv))
    line = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(line)


def read(path: Path) -> bytes:
    return path.read_bytes()


def assert_wrote_nothing(out: Path) -> None:
    """A failed run left no --out directory behind, empty or not."""
    assert not out.exists(), sorted(out.rglob("*"))


TRACE = """\
28800.0 veh1 1000.0 1000.0 10.0
28810.0 veh1 1100.0 1000.0 10.0
28900.0 veh1 2000.0 1500.0 10.0
28805.0 veh2 5000.0 5000.0 8.0
28830.0 veh2 5200.0 5100.0 8.0
32400.0 veh3 9000.0 9000.0 5.0
"""


class TestIngest:
    def test_window_cut(self, tmp_path, capsys):
        trace = tmp_path / "trace.txt"
        trace.write_text(TRACE)
        out = tmp_path / "out"
        code, summary = run(capsys, "ingest", "--input", str(trace),
                            "--window-start", "28800", "--window-end", "32400",
                            "--out", str(out))
        assert code == 0 and summary["status"] == "ok"
        assert summary["n_trips"] == 2  # veh3 sits exactly on the window end
        assert (out / "trips.jsonl").exists()
        assert (out / "run_manifest.json").exists()

    def test_missing_input_is_invalid_argument(self, capsys, tmp_path):
        code, summary = run(capsys, "ingest", "--out", str(tmp_path / "o"))
        assert code == 1
        assert summary["category"] == "invalid-argument"

    def test_unreadable_file_is_io_error(self, capsys, tmp_path):
        code, summary = run(capsys, "ingest", "--input", str(tmp_path / "absent.txt"),
                            "--out", str(tmp_path / "o"))
        assert code == 1 and summary["category"] == "io"

    def test_custom_column_order(self, tmp_path, capsys):
        trace = tmp_path / "trace.txt"
        trace.write_text("veh9 1000.0 2000.0 30.5\n")
        out = tmp_path / "out"
        code, summary = run(capsys, "ingest", "--input", str(trace),
                            "--format", "id x y t", "--window-start", "0",
                            "--window-end", "100", "--out", str(out))
        assert code == 0 and summary["n_trips"] == 1
        assert '"id": "veh9"' in (out / "trips.jsonl").read_text().replace('":"', '": "')


class TestSynth:
    def test_deterministic_outputs(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            code, _ = run(capsys, "synth", "--n", "30", "--seed", "7",
                          "--lognorm-mu", "7.5", "--out", str(out))
            assert code == 0
        assert read(a / "trips.jsonl") == read(b / "trips.jsonl")

    def test_seed_changes_output(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        run(capsys, "synth", "--n", "30", "--seed", "1", "--lognorm-mu", "7.5",
            "--out", str(a))
        run(capsys, "synth", "--n", "30", "--seed", "2", "--lognorm-mu", "7.5",
            "--out", str(b))
        assert read(a / "trips.jsonl") != read(b / "trips.jsonl")


#: The synth flags of the small population most tests run on.
TRIPS_FILE_FLAGS = ["--n", "60", "--seed", "7", "--lognorm-mu", "7.5", "--waypoints", "60",
                    "--bbox", "0,20000,0,20000,0,14400"]


@pytest.fixture
def trips_file(tmp_path, capsys) -> Path:
    out = tmp_path / "synthout"
    code, _ = run(capsys, "synth", *TRIPS_FILE_FLAGS, "--out", str(out))
    assert code == 0
    return out / "trips.jsonl"


class TestStats:
    def test_outputs(self, trips_file, tmp_path, capsys):
        out = tmp_path / "stats"
        code, summary = run(capsys, "stats", "--trips", str(trips_file),
                            "--out", str(out))
        assert code == 0
        for name in ("fits.csv", "cdf_duration.csv", "cdf_distance.csv",
                     "grid_unique.csv", "grid_duration.csv"):
            assert (out / name).exists()
        fits = (out / "fits.csv").read_text().splitlines()
        assert len(fits) == 5  # header + 2 variables x 2 families

    @pytest.mark.parametrize("flag", ["--grid-rows", "--grid-cols"])
    def test_empty_grid_writes_nothing(self, flag, trips_file, tmp_path, capsys):
        out = tmp_path / "stats"
        code, summary = run(capsys, "stats", "--trips", str(trips_file), flag, "0",
                            "--out", str(out))
        assert code == 1 and summary["category"] == "invalid-argument"
        assert_wrote_nothing(out)

    def test_degenerate_samples_reported_as_such(self, tmp_path, capsys):
        trips = tmp_path / "trips.jsonl"
        # distinct geometry but identical durations: no spread to fit
        trips.write_text(
            '{"id":"a","points":[[0.0,0.0,0.0],[600.0,3000.0,4000.0]]}\n'
            '{"id":"b","points":[[0.0,1000.0,5000.0],[600.0,4000.0,1000.0]]}\n')
        code, summary = run(capsys, "stats", "--trips", str(trips),
                            "--out", str(tmp_path / "o"))
        assert code == 1 and summary["category"] == "degenerate-fit"


def cp_score(a, b, w):
    """The carpool score of request a and driver b."""
    return metrics.car_score(b, a, w)


#: One request and one ride on the line x = 1000, the ride inside the
#: request's window: every point shares its x value.
ONE_X = ('{"id":"r","points":[[100.0,1000.0,1000.0],[1000.0,1000.0,5000.0]]}\n',
         '{"id":"s","points":[[200.0,1000.0,1300.0],[900.0,1000.0,5200.0]]}\n')


class TestAffinityAndCluster:
    def test_affinity_symmetry_ratio(self, trips_file, tmp_path, capsys):
        out = tmp_path / "aff"
        code, summary = run(capsys, "affinity", "--trips", str(trips_file),
                            "--scorer", "car", "--out", str(out))
        assert code == 0
        assert 0.0 < summary["symmetric_ratio"] <= 1.0
        assert (out / "affinity.csv").exists()

    @pytest.mark.parametrize("scorer, pair", [
        ("wgm", metrics.wgm_sim), ("car", metrics.car_score), ("cp", cp_score)])
    def test_affinity_matches_scalar_scorer(self, scorer, pair, trips_file, tmp_path, capsys):
        out = tmp_path / "aff"
        code, _ = run(capsys, "affinity", "--trips", str(trips_file), "--scorer", scorer,
                      "--w-space", "0.3", "--w-time", "0.7", "--out", str(out))
        assert code == 0
        with open(trips_file) as fh:
            trips = list(read_trips_jsonl(fh))
        ctx = ScaleContext.from_trips(trips)
        w = metrics.WgmWeights(0.3, 0.7)
        oracle = build_affinity([od_rep(t, ctx) for t in trips], lambda a, b: pair(a, b, w))
        with open(out / "affinity.csv", newline="") as fh:
            got = [float(row["score"]) for row in csv.DictReader(fh)]
        assert got == pytest.approx(oracle.values.reshape(-1).tolist(), rel=0, abs=1e-6)

    def test_cp_file_is_the_transposed_car_file(self, trips_file, tmp_path, capsys):
        files = {}
        for scorer in ("car", "cp"):
            code, _ = run(capsys, "affinity", "--trips", str(trips_file), "--scorer", scorer,
                          "--out", str(tmp_path / scorer))
            assert code == 0
            with open(tmp_path / scorer / "affinity.csv", newline="") as fh:
                files[scorer] = list(csv.reader(fh))
        car = {(i, j): score for i, j, score in files["car"][1:]}
        assert files["cp"][0] == files["car"][0]
        assert files["cp"][1:] == [[i, j, car[j, i]] for i, j, _ in files["car"][1:]]

    def test_both_commands_print_sym_decompose_ratio(self, trips_file, tmp_path, capsys):
        with open(trips_file) as fh:
            trips = list(read_trips_jsonl(fh))
        ctx = ScaleContext.from_trips(trips)
        a = build_affinity([od_rep(t, ctx) for t in trips], metrics.car_score).values
        expected = round(sym_decompose(a)[2], 6)
        for command in (["affinity"], ["cluster", "--k", "3"]):
            code, summary = run(capsys, *command, "--trips", str(trips_file), "--scorer", "car",
                                "--out", str(tmp_path / command[0]))
            assert code == 0 and summary["symmetric_ratio"] == expected

    def test_affinity_builds_no_list_of_rows(self, tmp_path, capsys):
        n = 300
        code, _ = run(capsys, "synth", "--n", str(n), "--out", str(tmp_path / "synth"))
        assert code == 0
        # small kernel tiles, so the n x n score matrices dominate what is traced
        with mock.patch.object(metrics, "TILE_POINTS", 1 << 12):
            tracemalloc.start()
            try:
                code, _ = run(capsys, "affinity", "--trips", str(tmp_path / "synth/trips.jsonl"),
                              "--out", str(tmp_path / "aff"))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code == 0
        # the matrix, its symmetric and anti-symmetric parts and a temporary,
        # with room to spare; the n^2 CSV rows as lists took about 20 matrices
        assert peak < 8 * (8 * n * n)

    def test_kernel_gamma_makes_no_matrix(self, tmp_path, capsys):
        n = 300
        code, _ = run(capsys, "synth", "--n", str(n), "--out", str(tmp_path / "synth"))
        assert code == 0
        spectral, peaks = affinity.spectral_cluster, []

        def spectral_after_peak(*args, **kwargs):
            peaks.append(tracemalloc.get_traced_memory()[1])
            return spectral(*args, **kwargs)

        with (mock.patch.object(metrics, "TILE_POINTS", 1 << 12),
              mock.patch.object(affinity, "spectral_cluster", spectral_after_peak)):
            for gamma in ([], ["--kernel-gamma", "3"]):
                tracemalloc.start()
                try:
                    code, _ = run(capsys, "cluster", "--k", "4",
                                  "--trips", str(tmp_path / "synth/trips.jsonl"),
                                  "--out", str(tmp_path / "cl"), *gamma)
                finally:
                    tracemalloc.stop()
                assert code == 0
        # the peak up to the spectral step; the kernel through fresh arrays
        # added about 0.9 of an n x n matrix to it
        assert peaks[1] < peaks[0] + 0.25 * (8 * n * n)

    @settings(max_examples=40)
    @given(st.lists(st.text(st.sampled_from('ab,"\r\n \t'), max_size=4), min_size=2,
                    max_size=4, unique=True))
    def test_affinity_file_quotes_ids_as_csv_writer_does(self, ids):
        trips = [Trip(trip_id, [(10.0 * k, 5.0 * k, 60.0 * k + 30.0 * n) for n in range(3)])
                 for k, trip_id in enumerate(ids)]
        with tempfile.TemporaryDirectory() as tmp:
            trips_path, out = Path(tmp) / "trips.jsonl", Path(tmp) / "aff"
            with open(trips_path, "w") as fh:
                write_trips_jsonl(trips, fh)
            assert main(["affinity", "--trips", str(trips_path), "--out", str(out)]) == 0
            written = (out / "affinity.csv").read_bytes().decode()
        # the ids hold no digits, so every number in the file is a score
        scores = iter(re.findall(r"-?\d+\.\d{6}", written))
        expected = io.StringIO(newline="")
        csv.writer(expected, lineterminator="\n").writerows(
            [["i", "j", "score"]] + [[i, j, next(scores)] for i in ids for j in ids])
        assert written == expected.getvalue()

    def test_cluster_outputs(self, trips_file, tmp_path, capsys):
        out = tmp_path / "clus"
        code, summary = run(capsys, "cluster", "--trips", str(trips_file),
                            "--k", "3", "--out", str(out))
        assert code == 0
        labels = (out / "labels.csv").read_text().splitlines()[1:]
        assert len(labels) == 60
        assert {int(line.split(",")[1]) for line in labels} <= {0, 1, 2}
        for name in ("coords_pca.csv", "coords_mds.csv", "cluster_summary.csv"):
            assert (out / name).exists()
        assert 0 < sum(summary["pca_explained"]) <= 1.0

    def test_cluster_with_kernel_and_cp_scorer(self, trips_file, tmp_path, capsys):
        out = tmp_path / "clus2"
        code, summary = run(capsys, "cluster", "--trips", str(trips_file),
                            "--k", "2", "--scorer", "cp", "--kernel-gamma", "3.0",
                            "--out", str(out))
        assert code == 0
        assert 0.0 < summary["symmetric_ratio"] <= 1.0
        labels = (out / "labels.csv").read_text().splitlines()[1:]
        assert {int(line.split(",")[1]) for line in labels} <= {0, 1}
        # the cp matrix is the car matrix transposed: both have one symmetric part
        assert run(capsys, "cluster", "--trips", str(trips_file), "--k", "2", "--scorer", "car",
                   "--kernel-gamma", "3.0", "--out", str(tmp_path / "car"))[0] == 0
        assert read(tmp_path / "car" / "labels.csv") == read(out / "labels.csv")

    def test_cluster_on_two_trips_writes_nothing(self, tmp_path, capsys):
        trips = tmp_path / "two.jsonl"
        trips.write_text("".join(ONE_X))
        out = tmp_path / "clus"
        code, summary = run(capsys, "cluster", "--trips", str(trips), "--k", "2",
                            "--out", str(out))
        assert code == 1 and summary["category"] == "invalid-argument"
        assert "at least 3 trips" in summary["message"] and "got 2" in summary["message"]
        assert_wrote_nothing(out)

    def test_k_above_the_trip_count_scores_nothing(self, trips_file, tmp_path, capsys):
        out = tmp_path / "c"
        with mock.patch.object(metrics, "wgm_batch", side_effect=AssertionError("scored")):
            code, summary = run(capsys, "cluster", "--trips", str(trips_file), "--k", "61",
                                "--out", str(out))
        assert (code, summary["category"]) == (1, "invalid-argument")
        assert summary["message"] == "--k: must be in [2, 60], got 61"
        assert_wrote_nothing(out)


class TestMatch:
    def test_split_match(self, trips_file, tmp_path, capsys):
        out = tmp_path / "match"
        code, summary = run(capsys, "match", "--trips", str(trips_file),
                            "--n-riders", "15", "--n-rides", "45",
                            "--mode", "car", "--out", str(out))
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["n requests"] == 15
        assert "match travels (km)" in report
        matches = (out / "matches.csv").read_text().splitlines()
        assert len(matches) == 16

    def test_undefined_report_writes_nothing(self, tmp_path, capsys):
        # one-waypoint trips travel 0 km, so the savings divide by zero
        trips = tmp_path / "trips.jsonl"
        trips.write_text("".join(f'{{"id":"{k}","points":[[{k}.0,100.0,200.0]]}}\n'
                                 for k in range(3)))
        out = tmp_path / "match"
        code, summary = run(capsys, "match", "--requests", str(trips), "--rides", str(trips),
                            "--out", str(out))
        assert code == 1 and summary["category"] == "undefined-report"
        assert_wrote_nothing(out)

    def test_zero_feasible_pairs(self, tmp_path, capsys):
        trips = tmp_path / "trips.jsonl"
        trips.write_text(
            '{"id":"a","points":[[0.0,0.0,0.0],[600.0,3000.0,0.0]]}\n'
            '{"id":"b","points":[[50000.0,19000.0,19000.0],[50600.0,16000.0,16000.0]]}\n')
        out = tmp_path / "match"
        code, summary = run(capsys, "match", "--requests", str(trips),
                            "--rides", str(trips), "--mode", "car",
                            "--out", str(out))
        # identical trips match themselves; now force zero candidates
        assert code == 0
        out2 = tmp_path / "match2"
        riders = tmp_path / "riders.jsonl"
        rides = tmp_path / "rides.jsonl"
        lines = trips.read_text().splitlines()
        riders.write_text(lines[0] + "\n")
        rides.write_text(lines[1] + "\n")
        code, summary = run(capsys, "match", "--requests", str(riders),
                            "--rides", str(rides), "--mode", "car",
                            "--out", str(out2))
        assert code == 0
        assert summary["n_matched"] == 0
        report = json.loads((out2 / "report.json").read_text())
        assert report["# req with at least a match"] == 0

    @pytest.mark.parametrize("mode", ["car", "carpool"])
    def test_population_on_one_line_matches(self, mode, tmp_path, capsys):
        request, ride = tmp_path / "req.jsonl", tmp_path / "ride.jsonl"
        if mode == "car":
            request.write_text(ONE_X[0])
            ride.write_text(ONE_X[1])
        else:
            request.write_text(ONE_X[1])
            ride.write_text(ONE_X[0])
        out = tmp_path / "m"
        code, summary = run(capsys, "match", "--requests", str(request), "--rides", str(ride),
                            "--mode", mode, "--out", str(out))
        assert code == 0 and summary["n_matched"] == 1
        assert (out / "matches.csv").read_text().splitlines()[1].startswith(
            "s,r," if mode == "carpool" else "r,s,")

    def test_compact_and_general_reads_give_the_same_files(self, trips_file, tmp_path, capsys):
        # the same records with spaces and reordered keys: none is in the compact form
        general = tmp_path / "general.jsonl"
        with open(trips_file) as src, open(general, "w") as dst:
            for line in src:
                rec = json.loads(line)
                dst.write(json.dumps({"points": rec["points"], "id": rec["id"]}) + "\n")
        for path, compact in ((trips_file, True), (general, False)):
            with open(path) as fh:
                assert all((t.xyt().base is not None) == compact for t in read_trips_jsonl(fh))
            code, _ = run(capsys, "match", "--trips", str(path),
                          "--n-riders", "15", "--n-rides", "45", "--mode", "car",
                          "--sweep-dist", "600,1800,3600", "--sweep-L", "1,3",
                          "--out", str(tmp_path / path.stem))
            assert code == 0
        for name in ("matches.csv", "curve.csv", "report.json"):
            assert read(tmp_path / trips_file.stem / name) == read(tmp_path / "general" / name)

    def test_sweep_curve(self, trips_file, tmp_path, capsys):
        out = tmp_path / "curve"
        code, _ = run(capsys, "match", "--trips", str(trips_file),
                      "--n-riders", "15", "--n-rides", "45",
                      "--sweep-dist", "600,1800,3600", "--sweep-L", "1,3",
                      "--out", str(out))
        assert code == 0
        rows = (out / "curve.csv").read_text().splitlines()
        assert len(rows) == 7  # header + 3 thresholds x 2 levels

    def test_both_sweeps_curve_rows_in_order(self, trips_file, tmp_path, capsys):
        out = tmp_path / "curve"
        code, _ = run(capsys, "match", "--requests", str(trips_file), "--rides", str(trips_file),
                      "--mode", "carpool", "--sweep-time", "300,900,1800",
                      "--sweep-dist", "600,1800", "--sweep-L", "1,3", "--out", str(out))
        assert code == 0
        with open(out / "curve.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        trips = list(read_trips_jsonl(trips_file.read_text().splitlines()))
        scenario = matching.MatchScenario(mode="carpool")
        want = matching.match_counts_curve(trips, trips, scenario, sweep_dist=[600, 1800],
                                           sweep_time=[300, 900, 1800], sweep_l=[1, 3])
        assert rows[0] == ["vary", "threshold", "L", "count"]
        assert [r[:3] for r in rows[1:]] == [
            ["dist", "600.0", "1"], ["dist", "600.0", "3"],
            ["dist", "1800.0", "1"], ["dist", "1800.0", "3"],
            ["time", "300.0", "1"], ["time", "300.0", "3"],
            ["time", "900.0", "1"], ["time", "900.0", "3"],
            ["time", "1800.0", "1"], ["time", "1800.0", "3"]]
        assert [int(r[3]) for r in rows[1:]] == [w["count"] for w in want]

    def test_bad_split_is_invalid(self, trips_file, tmp_path, capsys):
        code, summary = run(capsys, "match", "--trips", str(trips_file),
                            "--n-riders", "50", "--n-rides", "50",
                            "--out", str(tmp_path / "bad"))
        assert code == 1 and summary["category"] == "invalid-argument"

    @pytest.mark.parametrize("command", ["match", "compare"])
    @pytest.mark.parametrize("given, missing", [("--requests", "--rides"),
                                                ("--rides", "--requests")])
    def test_half_given_pair_is_invalid(self, command, given, missing, trips_file, tmp_path,
                                        capsys):
        # a lone file must not fall back to splitting --trips
        out = tmp_path / "half"
        code, summary = run(capsys, command, given, str(trips_file), "--trips", str(trips_file),
                            "--n-riders", "5", "--n-rides", "5", "--out", str(out))
        assert code == 1 and summary["category"] == "invalid-argument"
        assert summary["message"].endswith(f"{missing} is missing")
        assert not (out / "run_manifest.json").exists()


class TestCompare:
    def test_comparison_table(self, trips_file, tmp_path, capsys):
        out = tmp_path / "cmp"
        code, summary = run(capsys, "compare", "--trips", str(trips_file),
                            "--n-riders", "10", "--n-rides", "50",
                            "--metrics", "wgm,lcss,dtw", "--out", str(out))
        assert code == 0
        table = json.loads((out / "report.json").read_text())
        assert set(table) == {"wgm", "lcss", "dtw"}
        req_kms = {table[m]["req travels (km)"] for m in table}
        assert len(req_kms) == 1
        lines = (out / "comparison.csv").read_text().splitlines()
        assert lines[0] == "field,wgm,lcss,dtw"

    def test_trip_shorter_than_rep_len_is_invalid(self, trips_file, tmp_path, capsys):
        out = tmp_path / "short"
        code, summary = run(capsys, "compare", "--trips", str(trips_file),
                            "--n-riders", "10", "--n-rides", "50", "--rep-len", "61",
                            "--out", str(out))
        assert code == 1 and summary["category"] == "invalid-argument"
        assert summary["message"].endswith("has only 60 waypoints; need 61")
        assert summary["message"].startswith("trip '")
        assert not (out / "comparison.csv").exists()

    def test_wt_sweep(self, trips_file, tmp_path, capsys):
        out = tmp_path / "wt"
        code, _ = run(capsys, "compare", "--trips", str(trips_file),
                      "--n-riders", "10", "--n-rides", "50", "--metrics", "wgm",
                      "--wt-sweep", "0.2,0.8", "--out", str(out))
        assert code == 0
        assert len((out / "wt_sweep.csv").read_text().splitlines()) == 3


class TestTripFileErrors:
    GOOD = '{"id":"a","points":[[0.0,1000.0,1000.0],[600.0,4000.0,4000.0]]}\n'

    @pytest.mark.parametrize("bad", [
        '{"id":"b","pts":[[900.0,4500.0,4000.0]]}',
        '{"id":"b","points":[[900.0,4500.0,4000.0],[1500.0,8',
        '{"id":"b","points":[[900.0,4500.0]]}',
        '{"id":"b","points":[[900.0,4500.0,"x"]]}',
        '["b"]',
    ], ids=["no-points", "truncated", "short-point", "non-numeric", "not-a-record"])
    def test_bad_record_is_format_error_with_line(self, bad, tmp_path, capsys):
        trips = tmp_path / "trips.jsonl"
        trips.write_text(self.GOOD + bad + "\n")
        code, summary = run(capsys, "carshare", "--trips", str(trips),
                            "--out", str(tmp_path / "o"))
        assert code == 1
        assert summary["category"] == "format"
        assert summary["message"].startswith("line 2:")

    def test_integer_too_large_for_a_float_is_a_format_error(self, tmp_path, capsys):
        trips = tmp_path / "trips.jsonl"
        trips.write_text(self.GOOD + '{"id":"b","points":[[0.0,1%s,2000.0]]}\n' % ("0" * 400))
        code, summary = run(capsys, "stats", "--trips", str(trips),
                            "--out", str(tmp_path / "o"))
        assert code == 1
        assert summary["category"] == "format"
        assert summary["message"].startswith("line 2:")

    def test_duplicate_trip_id_rejected(self, tmp_path, capsys):
        trips = tmp_path / "trips.jsonl"
        trips.write_text(self.GOOD + "\n" + self.GOOD)
        code, summary = run(capsys, "carshare", "--trips", str(trips),
                            "--out", str(tmp_path / "o"))
        assert code == 1
        assert summary["category"] == "format"
        assert "duplicate trip id 'a'" in summary["message"]
        assert summary["message"].startswith("line 3:")


class TestCarshare:
    def test_three_trip_chain_fixture(self, tmp_path, capsys):
        # consecutive trips, each hand-off within 900 s and 1800 m
        trips = tmp_path / "chain.jsonl"
        trips.write_text(
            '{"id":"a","points":[[0.0,1000.0,1000.0],[600.0,4000.0,4000.0]]}\n'
            '{"id":"b","points":[[900.0,4500.0,4000.0],[1500.0,8000.0,8000.0]]}\n'
            '{"id":"c","points":[[1800.0,8400.0,8000.0],[2400.0,12000.0,12000.0]]}\n')
        out = tmp_path / "cs"
        code, summary = run(capsys, "carshare", "--trips", str(trips),
                            "--out", str(out))
        assert code == 0
        schedule = json.loads((out / "schedule_summary.json").read_text())
        assert schedule["n_cars"] == 1
        assert schedule["cardinality"] == 2
        chains = (out / "chains.csv").read_text().splitlines()
        assert chains[1:] == ["0,0,a", "0,1,b", "0,2,c"]

    def test_one_trip_on_one_line(self, tmp_path, capsys):
        trips = tmp_path / "one.jsonl"
        trips.write_text(ONE_X[0])
        code, summary = run(capsys, "carshare", "--trips", str(trips),
                            "--out", str(tmp_path / "cs"))
        assert code == 0
        assert summary["n_cars"] == 1 and summary["n_edges"] == 0

    def test_identity_on_synth(self, trips_file, tmp_path, capsys):
        out = tmp_path / "cs2"
        code, summary = run(capsys, "carshare", "--trips", str(trips_file),
                            "--out", str(out))
        assert code == 0
        assert summary["n_cars"] == summary["n_trips"] - summary["cardinality"]


class TestNonFiniteParameters:
    @pytest.mark.parametrize("command", ["match", "carshare"])
    def test_infinite_thresholds_mean_no_limit(self, command, trips_file, tmp_path, capsys):
        split = ["--n-riders", "15", "--n-rides", "45"] if command == "match" else []
        code, _ = run(capsys, command, "--trips", str(trips_file), *split,
                      "--dist-threshold", "inf", "--time-threshold", "inf",
                      "--out", str(tmp_path / "o"))
        assert code == 0


#: Every flag rule checked before any input is read, over all eight
#: subcommands: the command line after the subcommand's inputs, and the exact
#: error message. A rule that needs the input, such as --k against the trip
#: count, has its own test above.
BAD_FLAGS = [
    (("ingest", "--window-end", "-1"), "--window-end: must exceed the window start 0.0, got -1"),
    (("ingest", "--format", "t id x"), "--format: must include t, id, x and y, got 't id x'"),
    (("ingest", "--format", "t id x y y"),
     "--format: must not name a field twice, got 't id x y y'"),
    (("synth", "--n", "0"), "--n: must be at least 1, got 0"),
    (("synth", "--bbox", "0,0,0,1,0,1"),
     "--bbox: spans must be strictly positive and finite, got (0.0, 1.0, 1.0)"),
    (("synth", "--bbox", "0,inf,0,20000,0,86400"),
     "--bbox: spans must be strictly positive and finite, got (inf, 20000.0, 86400.0)"),
    (("synth", "--bbox", "0,1,0,1"),
     "--bbox: must be x_min,x_max,y_min,y_max,t_min,t_max, got '0,1,0,1'"),
    (("synth", "--bbox", "0,x,0,1,0,1"), "--bbox: could not convert string to float: 'x'"),
    (("synth", "--waypoints", "1"), "--waypoints: must be at least 2, got 1"),
    (("synth", "--gamma-shape", "nan"), "--gamma-shape: must be positive and finite, got nan"),
    (("synth", "--gamma-scale", "0"), "--gamma-scale: must be positive and finite, got 0"),
    (("synth", "--lognorm-mu", "inf"), "--lognorm-mu: must be finite, got inf"),
    (("synth", "--seed", "-1"), "--seed: must be at least 0, got -1"),
    (("stats", "--grid-rows", "0"), "--grid-rows: must be at least 1, got 0"),
    (("stats", "--grid-cols", "-2"), "--grid-cols: must be at least 1, got -2"),
    (("affinity", "--w-space", "-1"), "--w-space: weights must be finite and nonnegative, got -1"),
    (("affinity", "--w-space", "inf"),
     "--w-space: weights must be finite and nonnegative, got inf"),
    (("affinity", "--w-space", "0", "--w-time", "0"),
     "--w-space, --w-time: weights must not both be zero, got (0.0, 0.0)"),
    (("cluster", "--k", "0"), "--k: must be in [2, n], got 0"),
    (("cluster", "--k", "1"), "--k: must be in [2, n], got 1"),
    (("cluster", "--kernel-gamma", "0"), "--kernel-gamma: must be positive and finite, got 0"),
    (("cluster", "--kernel-gamma", "-1"), "--kernel-gamma: must be positive and finite, got -1"),
    (("cluster", "--kernel-gamma", "-2"), "--kernel-gamma: must be positive and finite, got -2"),
    (("cluster", "--kernel-gamma", "nan"),
     "--kernel-gamma: must be positive and finite, got nan"),
    (("cluster", "--k", "2", "--kernel-gamma", "0"),
     "--kernel-gamma: must be positive and finite, got 0"),
    (("cluster", "--k", "2", "--kernel-gamma", "nan"),
     "--kernel-gamma: must be positive and finite, got nan"),
    (("cluster", "--k", "2", "--kernel-gamma", "inf"),
     "--kernel-gamma: must be positive and finite, got inf"),
    (("cluster", "--w-time", "nan"), "--w-time: weights must be finite and nonnegative, got nan"),
    (("cluster", "--seed", "-2"), "--seed: must be at least 0, got -2"),
    (("match", "--n-riders", "0"), "--n-riders: must be at least 1 with --trips, got 0"),
    (("match", "--sweep-dist", "600,abc"),
     "--sweep-dist: could not convert string to float: 'abc'"),
    (("match", "--sweep-dist", "600,-5"), "--sweep-dist: thresholds must be positive, got -5"),
    (("match", "--sweep-dist", ","), "--sweep-dist: needs at least one value, got ','"),
    (("match", "--sweep-time", "300,x"), "--sweep-time: could not convert string to float: 'x'"),
    (("match", "--sweep-time", "0,900"), "--sweep-time: thresholds must be positive, got 0"),
    (("match", "--sweep-time", "300,nan"), "--sweep-time: thresholds must be positive, got nan"),
    (("match", "--sweep-time", ","), "--sweep-time: needs at least one value, got ','"),
    # a count is checked only once a sweep is given, so these rows give one of
    # either kind, each its own, which also sets their ids apart early
    (("match", "--sweep-dist", "600", "--sweep-L", "0"),
     "--sweep-L: counts must be at least 1, got 0"),
    (("match", "--sweep-dist", "900", "--sweep-L", "x"),
     "--sweep-L: invalid literal for int() with base 10: 'x'"),
    (("match", "--sweep-dist", "1800", "--sweep-L", "1,0"),
     "--sweep-L: counts must be at least 1, got 0"),
    (("match", "--sweep-time", "900", "--sweep-L", "-1"),
     "--sweep-L: counts must be at least 1, got -1"),
    (("match", "--sweep-time", "1800", "--sweep-L", ", ,"),
     "--sweep-L: needs at least one value, got ', ,'"),
    (("match", "--sweep-L", "1,3"), "--sweep-L: needs --sweep-dist or --sweep-time, got '1,3'"),
    (("match", "--dist-threshold", "-5"), "--dist-threshold: thresholds must be positive, got -5"),
    (("match", "--dist-threshold", "nan"),
     "--dist-threshold: thresholds must be positive, got nan"),
    (("match", "--time-threshold", "0"), "--time-threshold: thresholds must be positive, got 0"),
    (("match", "--w-space", "-1"), "--w-space: weights must be finite and nonnegative, got -1"),
    (("match", "--w-time", "inf"), "--w-time: weights must be finite and nonnegative, got inf"),
    (("match", "--w-time", "nan"), "--w-time: weights must be finite and nonnegative, got nan"),
    (("match", "--seed", "-3"), "--seed: must be at least 0, got -3"),
    (("compare", "--n-rides", "-3"), "--n-rides: must be at least 1 with --trips, got -3"),
    (("compare", "--metrics", "wgm,bogus"),
     "--metrics: must be one of wgm, wgm_time, lcss, dtw, dtw_time, frechet, got 'bogus'"),
    (("compare", "--metrics", "wgm,dtw,wgm"),
     "--metrics: must name at least one metric, each once, got 'wgm,dtw,wgm'"),
    (("compare", "--rep-len", "1"), "--rep-len: must be at least 2, got 1"),
    (("compare", "--wt-sweep", ","), "--wt-sweep: needs at least one value, got ','"),
    (("compare", "--wt-sweep", "0.5,2"), "--wt-sweep: weights must lie in [0, 1], got 2"),
    (("compare", "--wt-sweep", "-0.1"), "--wt-sweep: weights must lie in [0, 1], got -0.1"),
    (("compare", "--wt-sweep", "nan"), "--wt-sweep: weights must lie in [0, 1], got nan"),
    (("compare", "--metrics", "wgm", "--wt-sweep", "nan"),
     "--wt-sweep: weights must lie in [0, 1], got nan"),
    (("compare", "--dist-threshold", "-5"),
     "--dist-threshold: thresholds must be positive, got -5"),
    (("compare", "--w-space", "-1"), "--w-space: weights must be finite and nonnegative, got -1"),
    (("compare", "--w-time", "-0.5"), "--w-time: weights must be finite and nonnegative, got -0.5"),
    (("compare", "--seed", "-4"), "--seed: must be at least 0, got -4"),
    (("carshare", "--dist-threshold", "-5"),
     "--dist-threshold: thresholds must be positive, got -5"),
    (("carshare", "--dist-threshold", "nan"),
     "--dist-threshold: thresholds must be positive, got nan"),
    (("carshare", "--time-threshold", "0"), "--time-threshold: thresholds must be positive, got 0"),
    (("carshare", "--time-threshold", "nan"),
     "--time-threshold: thresholds must be positive, got nan"),
    (("carshare", "--w-space", "-1"), "--w-space: weights must be finite and nonnegative, got -1"),
    (("carshare", "--w-space", "0", "--w-time", "0"),
     "--w-space, --w-time: weights must not both be zero, got (0.0, 0.0)"),
    (("carshare", "--w-time", "inf"), "--w-time: weights must be finite and nonnegative, got inf"),
    (("carshare", "--w-time", "nan"), "--w-time: weights must be finite and nonnegative, got nan"),
]


def _absent_inputs(command: str, absent: Path) -> list[str]:
    """Input flags of command that name a file that does not exist, with a valid split."""
    if command in ("match", "compare"):
        return ["--trips", str(absent), "--n-riders", "15", "--n-rides", "45"]
    return {"ingest": ["--input", str(absent)], "synth": []}.get(command, ["--trips", str(absent)])


@pytest.mark.parametrize("args, message", BAD_FLAGS, ids=[" ".join(a) for a, _ in BAD_FLAGS])
def test_bad_flag_value_is_named_before_any_input_is_read(args, message, tmp_path, capsys):
    # the input does not exist, so a check made only once it is read would report io
    command, *flags = args
    code, summary = run(capsys, command, *_absent_inputs(command, tmp_path / "absent.jsonl"),
                        *flags, "--out", str(tmp_path / "o" / "a" / "b"))
    assert (code, summary["category"]) == (1, "invalid-argument")
    # the message starts with the flags it is about, the one last given among them
    assert summary["message"] == message and flags[-2] in message.split(": ")[0].split(", ")
    assert_wrote_nothing(tmp_path / "o")


@pytest.mark.parametrize("source", ["config", "manifest"])
def test_bad_value_from_a_file_names_its_flag(source, trips_file, tmp_path, capsys):
    out = tmp_path / "o"
    if source == "config":
        path = tmp_path / "run.cfg"
        path.write_text("k = 0\n")
        argv = ["cluster", "--trips", str(tmp_path / "absent.jsonl"), "--config", str(path)]
        message = "--k: must be in [2, n], got 0"
    else:
        assert run(capsys, "carshare", "--trips", str(trips_file),
                   "--out", str(tmp_path / "first"))[0] == 0
        path = tmp_path / "first" / "run_manifest.json"
        manifest = json.loads(path.read_text())
        manifest["config"]["w_space"] = -0.5
        path.write_text(json.dumps(manifest))
        argv = ["carshare", "--from-manifest", str(path)]
        message = "--w-space: weights must be finite and nonnegative, got -0.5"
    code, summary = run(capsys, *argv, "--out", str(out))
    assert (code, summary["category"], summary["message"]) == (1, "invalid-argument", message)
    assert_wrote_nothing(out)
    # a directory that was there before the run stays, with what it holds
    out.mkdir()
    (out / "kept").write_text("kept")
    assert run(capsys, *argv, "--out", str(out)) == (code, summary)
    assert [p.name for p in out.iterdir()] == ["kept"]


@pytest.mark.parametrize("command, named", [
    ("ingest", "--input"), ("stats", "--trips"), ("affinity", "--trips"),
    ("cluster", "--trips"), ("carshare", "--trips"),
    ("match", "--requests or --rides or --trips"), ("compare", "--requests or --rides or --trips"),
])
def test_a_run_without_input_names_its_input_flags(command, named, tmp_path, capsys):
    out = tmp_path / "o"
    code, summary = run(capsys, command, "--out", str(out))
    assert (code, summary["category"]) == (1, "invalid-argument")
    assert summary["message"] == f"{named} is required"
    assert_wrote_nothing(out)


class TestConfigAndManifest:
    def test_config_file_defaults_and_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 12\nseed = 3\nlognorm-mu = 7.5\n")
        out = tmp_path / "o1"
        code, _ = run(capsys, "synth", "--config", str(cfg), "--out", str(out))
        assert code == 0
        assert len((out / "trips.jsonl").read_text().splitlines()) == 12
        out2 = tmp_path / "o2"
        code, _ = run(capsys, "synth", "--config", str(cfg), "--n", "5",
                      "--out", str(out2))
        assert len((out2 / "trips.jsonl").read_text().splitlines()) == 5

    def test_explicit_flag_beats_config_even_at_its_default(self, trips_file, tmp_path,
                                                            capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mode = carpool\n")
        out = tmp_path / "m"
        code, summary = run(capsys, "match", "--config", str(cfg), "--mode", "car",
                            "--trips", str(trips_file), "--n-riders", "15",
                            "--n-rides", "45", "--out", str(out))
        assert code == 0 and summary["mode"] == "car"
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["config"]["mode"] == "car"
        code, summary = run(capsys, "match", "--config", str(cfg),
                            "--trips", str(trips_file), "--n-riders", "15",
                            "--n-rides", "45", "--out", str(tmp_path / "m2"))
        assert code == 0 and summary["mode"] == "carpool"

    def test_config_value_takes_its_flags_type(self, trips_file, tmp_path, capsys):
        # --kernel-gamma defaults to None, so its type comes from the flag alone
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kernel-gamma = 2\n")
        args = ("cluster", "--trips", str(trips_file), "--k", "3")
        code, _ = run(capsys, *args, "--config", str(cfg), "--out", str(tmp_path / "cfg"))
        assert code == 0
        code, _ = run(capsys, *args, "--kernel-gamma", "2", "--out", str(tmp_path / "flag"))
        assert code == 0
        for name in ("labels.csv", "coords_pca.csv", "coords_mds.csv", "cluster_summary.csv"):
            assert read(tmp_path / "cfg" / name) == read(tmp_path / "flag" / name)

    @pytest.mark.parametrize("source", ["config", "manifest"])
    def test_value_outside_its_flags_choices(self, source, trips_file, tmp_path, capsys):
        args = ("affinity", "--trips", str(trips_file))
        if source == "config":
            path = tmp_path / "run.cfg"
            path.write_text("scorer = bogus\n")
        else:
            assert run(capsys, *args, "--out", str(tmp_path / "a"))[0] == 0
            path = tmp_path / "a" / "run_manifest.json"
            manifest = json.loads(path.read_text())
            manifest["config"]["scorer"] = "bogus"
            path.write_text(json.dumps(manifest))
        flag = "--config" if source == "config" else "--from-manifest"
        code, summary = run(capsys, *args, flag, str(path), "--out", str(tmp_path / "b"))
        assert code == 1 and summary["category"] == "invalid-argument"
        assert "scorer" in summary["message"] and "bogus" in summary["message"]
        assert not (tmp_path / "b" / "affinity.csv").exists()

    @pytest.mark.parametrize("key", ["sweep-L", "sweep_l"])
    def test_key_spelled_as_its_flag_or_its_destination(self, key, trips_file, tmp_path,
                                                       capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = 1,3\nsweep-dist = 600,1800\n")
        args = ("match", "--trips", str(trips_file), "--n-riders", "15", "--n-rides", "45")
        code, _ = run(capsys, *args, "--config", str(cfg), "--out", str(tmp_path / "cfg"))
        assert code == 0
        code, _ = run(capsys, *args, "--sweep-L", "1,3", "--sweep-dist", "600,1800",
                      "--out", str(tmp_path / "flag"))
        assert code == 0
        assert read(tmp_path / "cfg" / "curve.csv") == read(tmp_path / "flag" / "curve.csv")

    def test_recorded_null_needs_a_default_of_none(self, trips_file, tmp_path, capsys):
        assert run(capsys, "cluster", "--trips", str(trips_file), "--k", "3",
                   "--out", str(tmp_path / "c"))[0] == 0
        path = tmp_path / "c" / "run_manifest.json"
        manifest = json.loads(path.read_text())
        manifest["config"]["k"] = None
        path.write_text(json.dumps(manifest))
        code, summary = run(capsys, "cluster", "--from-manifest", str(path),
                            "--out", str(tmp_path / "replay"))
        assert code == 1 and summary["category"] == "invalid-argument"
        assert "'k'" in summary["message"] and "null" in summary["message"]

    def test_recorded_null_overrides_a_config_value(self, trips_file, tmp_path, capsys):
        args = ("cluster", "--trips", str(trips_file), "--k", "3")
        assert run(capsys, *args, "--out", str(tmp_path / "c1"))[0] == 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kernel-gamma = 2\n")
        code, _ = run(capsys, "cluster", "--config", str(cfg), "--from-manifest",
                      str(tmp_path / "c1" / "run_manifest.json"), "--out", str(tmp_path / "c2"))
        assert code == 0
        manifest = json.loads((tmp_path / "c2" / "run_manifest.json").read_text())
        assert manifest["config"]["kernel_gamma"] is None
        for name in ("labels.csv", "coords_mds.csv"):
            assert read(tmp_path / "c2" / name) == read(tmp_path / "c1" / name)

    def test_unparsable_config_value(self, trips_file, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kernel-gamma = abc\n")
        code, summary = run(capsys, "cluster", "--trips", str(trips_file), "--k", "3",
                            "--config", str(cfg), "--out", str(tmp_path / "c"))
        assert code == 1 and summary["category"] == "invalid-argument"
        assert "kernel_gamma" in summary["message"]

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 1\n")
        code, summary = run(capsys, "synth", "--config", str(cfg),
                            "--out", str(tmp_path / "o"))
        assert code == 1 and summary["category"] == "invalid-argument"

    def test_manifest_replay_is_byte_identical(self, trips_file, tmp_path, capsys):
        out = tmp_path / "m1"
        code, _ = run(capsys, "match", "--trips", str(trips_file),
                      "--n-riders", "15", "--n-rides", "45", "--seed", "5",
                      "--out", str(out))
        assert code == 0
        first = {name: read(out / name) for name in ("matches.csv", "report.json")}
        replay = tmp_path / "m2"
        code, _ = run(capsys, "match", "--from-manifest",
                      str(out / "run_manifest.json"), "--out", str(replay))
        assert code == 0
        for name, blob in first.items():
            assert read(replay / name) == blob

    def test_replay_rejects_an_edited_input(self, trips_file, tmp_path, capsys):
        trips = tmp_path / "trips.jsonl"
        lines = trips_file.read_text().splitlines(keepends=True)
        trips.write_text("".join(lines))
        out = tmp_path / "cs"
        code, _ = run(capsys, "carshare", "--trips", str(trips), "--out", str(out))
        assert code == 0
        trips.write_text("".join(lines[:40]))
        manifest = str(out / "run_manifest.json")
        code, summary = run(capsys, "carshare", "--from-manifest", manifest,
                            "--out", str(tmp_path / "replay"))
        assert code == 1 and summary["category"] == "replay-mismatch"
        assert str(trips) in summary["message"]
        # an input named on the command line is read as it is now
        code, summary = run(capsys, "carshare", "--from-manifest", manifest,
                            "--trips", str(trips), "--out", str(tmp_path / "fresh"))
        assert code == 0 and summary["n_trips"] == 40

    def test_shared_flags_keep_defaults_and_precedence(self, trips_file, tmp_path, capsys):
        parser, _ = build_parser()
        for name in ("affinity", "cluster", "match", "compare", "carshare"):
            given = vars(parser.parse_args([name]))
            assert (given["w_space"], given["w_time"]) == (0.6, 0.4)
            if name in ("match", "compare", "carshare"):
                assert (given["dist_threshold"], given["time_threshold"]) == (1800.0, 900.0)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("w-space = 0.9\ndist-threshold = 900\n")
        out = tmp_path / "cs"
        code, _ = run(capsys, "carshare", "--config", str(cfg), "--trips", str(trips_file),
                      "--w-space", "0.6", "--out", str(out))
        assert code == 0
        config = json.loads((out / "run_manifest.json").read_text())["config"]
        assert (config["w_space"], config["dist_threshold"]) == (0.6, 900.0)

    def test_manifest_command_mismatch(self, trips_file, tmp_path, capsys):
        out = tmp_path / "m3"
        run(capsys, "synth", "--n", "5", "--lognorm-mu", "7.5", "--out", str(out))
        code, summary = run(capsys, "stats", "--from-manifest",
                            str(out / "run_manifest.json"), "--out", str(tmp_path / "x"))
        assert code == 1 and summary["category"] == "invalid-argument"

    @pytest.mark.parametrize("key", ["command", "config", "from-manifest"])
    def test_config_file_cannot_name_the_run(self, key, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = synth\n")
        code, summary = run(capsys, "synth", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 1 and summary["category"] == "invalid-argument"
        assert key.replace("-", "_") in summary["message"]

    @pytest.mark.parametrize("edit, named", [
        (lambda m: {"command": "carshare"}, "manifest"),
        (lambda m: [1, 2], "manifest"),
        (lambda m: "{not json", "manifest"),
        (lambda m: {**m, "inputs": None}, "manifest"),
        (lambda m: {**m, "config": {**m["config"], "dist_threshold": "abc"}}, "dist_threshold"),
        (lambda m: {**m, "config": {**m["config"], "seed": 1.5}}, "seed"),
        (lambda m: {**m, "config": {**m["config"], "bogus": 1}}, "bogus"),
        (lambda m: {**m, "config": {**m["config"], "command": "match"}}, "match"),
    ], ids=["no-config", "not-an-object", "not-json", "null-inputs", "bad-float",
            "fractional-int", "unknown-key", "other-command"])
    def test_malformed_manifest_is_invalid_argument(self, edit, named, trips_file, tmp_path,
                                                    capsys):
        out = tmp_path / "cs"
        assert run(capsys, "carshare", "--trips", str(trips_file), "--out", str(out))[0] == 0
        path = out / "run_manifest.json"
        edited = edit(json.loads(path.read_text()))
        path.write_text(edited if isinstance(edited, str) else json.dumps(edited))
        code, summary = run(capsys, "carshare", "--from-manifest", str(path),
                            "--out", str(tmp_path / "replay"))
        assert code == 1 and summary["category"] == "invalid-argument"
        assert named in summary["message"] and str(path) in summary["message"]

    def test_recorded_null_replays_as_none(self, trips_file, tmp_path, capsys):
        args = ("cluster", "--trips", str(trips_file), "--k", "3")
        assert run(capsys, *args, "--out", str(tmp_path / "c1"))[0] == 0
        manifest = tmp_path / "c1" / "run_manifest.json"
        assert json.loads(manifest.read_text())["config"]["kernel_gamma"] is None
        code, _ = run(capsys, "cluster", "--from-manifest", str(manifest),
                      "--out", str(tmp_path / "c2"))
        assert code == 0
        for name in ("labels.csv", "coords_mds.csv"):
            assert read(tmp_path / "c2" / name) == read(tmp_path / "c1" / name)

    def test_outdir_env_var(self, tmp_path, capsys, monkeypatch):
        target = tmp_path / "envout"
        monkeypatch.setenv("TRIPMATCH_OUTDIR", str(target))
        code, summary = run(capsys, "synth", "--n", "5", "--lognorm-mu", "7.5")
        assert code == 0
        assert (target / "trips.jsonl").exists()


class TestUsageErrors:
    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--does-not-exist"])
        assert exc.value.code == 2

    def test_bad_flag_value_exits_2_with_the_subcommands_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["affinity", "--scorer", "bogus"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: tripmatch affinity") and "invalid choice" in err


def _child_env(**env: str) -> dict[str, str]:
    """This process's environment with env added, as a fresh interpreter of this tripmatch needs."""
    src = str(Path(tripmatch.__file__).resolve().parents[1])
    # importing tripmatch.cli set OPENBLAS_THREAD_TIMEOUT in this process; the
    # child starts without it, as from a user's shell
    inherited = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    return {**inherited, **env, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _run_python(code: str, **env: str) -> str:
    """The stdout of code run in a fresh interpreter with env added to this one's."""
    return subprocess.run([sys.executable, "-c", code], env=_child_env(**env), check=True,
                          timeout=60, stdout=subprocess.PIPE, text=True).stdout


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory) -> Path:
    """A directory holding the golden runs' inputs, the synth population included."""
    run = tmp_path_factory.mktemp("golden")
    _write_inputs(run)
    synth = [*RUNS["synth"], "--out", str(run / "synth")]
    _run_python(f"from tripmatch.cli import main\nassert main({synth!r}) == 0")
    return run


#: Runs main on argv in a fresh interpreter, then reports on stderr what the
#: collector looks like after it: (exit code, frozen objects, collector enabled).
FROZEN_RUN = """\
import gc, sys
from tripmatch.cli import main
code = main(sys.argv[1:])
sys.stderr.write(repr((code, gc.get_freeze_count(), gc.isenabled())))
"""


@pytest.mark.parametrize("name", ["cluster", "carshare"])
def test_a_run_on_a_frozen_heap_flushes_its_line_and_artifacts(name, golden_run):
    out = golden_run / name
    argv = [a.format(run=golden_run) for a in RUNS[name]] + ["--out", str(out)]
    proc = subprocess.run([sys.executable, "-c", FROZEN_RUN, *argv], env=_child_env(),
                          timeout=60, capture_output=True, text=True)
    code, frozen, enabled = ast.literal_eval(proc.stderr)
    assert code == 0 and frozen > 0 and enabled
    # one whole line, written out only as the interpreter exits
    assert proc.stdout.endswith("}\n") and proc.stdout.count("\n") == 1
    assert json.loads(proc.stdout)["status"] == "ok"
    assert_golden(name, _artifacts(golden_run, out))


#: The pipeline modules a run of each subcommand loads besides those that
#: importing tripmatch.cli loads.
RUN_MODULES = {"affinity": ["affinity"], "cluster": ["affinity"], "carshare": ["carshare"],
               "match": ["matching"], "compare": ["matching"]}
CLI_MODULES = ["cli", "ingest", "metrics", "model"]


def _pipeline_run(name: str, trips_file: Path, out: Path) -> str:
    """Code that runs subcommand name on trips_file in process, asserting it succeeds."""
    flags = {"cluster": ["--k", "3"], "affinity": [], "carshare": []}.get(
        name, ["--n-riders", "15", "--n-rides", "45"])
    argv = [name, "--trips", str(trips_file), *flags, "--out", str(out)]
    return f"from tripmatch.cli import main\nassert main({argv!r}) == 0"


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    """loaded(name): the tripmatch modules, scipy modules and numpy.ma that
    importing the CLI (name "import") or running subcommand name loads, each
    name run once in a fresh interpreter and shared by the tests below."""
    root = tmp_path_factory.mktemp("loads")
    assert main(["synth", *TRIPS_FILE_FLAGS, "--out", str(root / "synth")]) == 0

    @functools.cache
    def loaded(name: str) -> list[str]:
        code = ("import tripmatch.cli" if name == "import"
                else _pipeline_run(name, root / "synth" / "trips.jsonl", root / name))
        out = _run_python(code + "\nimport sys\nprint(sorted(m for m in sys.modules"
                          " if m == 'numpy.ma' or m.split('.')[0] == 'scipy'"
                          " or m.startswith('tripmatch.')))")
        return ast.literal_eval(out.splitlines()[-1])
    return loaded


def _scipy(modules: list[str]) -> list[str]:
    return [m for m in modules if m.split(".")[0] == "scipy"]


def test_import_leaves_the_pipeline_modules_unloaded(loaded):
    assert loaded("import") == [f"tripmatch.{m}" for m in CLI_MODULES]


@pytest.mark.parametrize("name", sorted(RUN_MODULES))
def test_a_run_loads_only_the_pipeline_modules_it_runs(name, loaded):
    """A run loads exactly its tripmatch modules, no scipy module and no numpy.ma."""
    assert loaded(name) == sorted(f"tripmatch.{m}" for m in CLI_MODULES + RUN_MODULES[name])


def test_import_does_not_load_the_assignment_solver(loaded):
    assert _scipy(loaded("import")) == []


@pytest.mark.parametrize("name", sorted(RUN_MODULES))
def test_a_run_loads_no_scipy(name, loaded):
    # a cold scipy.spatial import takes longer than the whole space-time screen
    # saves, so candidates and hand-offs are screened with numpy alone
    assert _scipy(loaded(name)) == []


def test_carshare_never_loads_scipy_optimize(loaded):
    # a hand-off DAG this small is matched in process, without scipy
    assert "scipy.optimize" not in loaded("carshare")


def test_cluster_never_loads_numpy_ma(loaded):
    # the cluster summary's medians skip np.median, whose NaN check imports numpy.ma
    assert "numpy.ma" not in loaded("cluster")


def test_carshare_above_the_in_process_limit_loads_only_scipy_sparse(trips_file, tmp_path):
    _run_python("import sys, json\n"
                "from tripmatch import carshare\n"
                "from tripmatch.cli import main\n"
                "carshare.MAX_IN_PROCESS_EDGES = 0\n"
                f"assert main(['carshare', '--trips', {str(trips_file)!r}, "
                f"'--out', {str(tmp_path / 'cs')!r}]) == 0\n"
                f"assert json.load(open({str(tmp_path / 'cs' / 'schedule_summary.json')!r}))"
                "['n_edges'] > 0\n"
                "assert 'scipy.sparse.csgraph' in sys.modules\n"
                "assert 'scipy.optimize' not in sys.modules")


def test_stats_grids_and_cdfs_never_load_numpy_ma(trips_file):
    # np.unique without return_counts would import numpy.ma; grid_duration_stats
    # takes np.percentile, which does, as the stats subcommand loads it with
    # scipy.special anyway
    _run_python("import sys\n"
                "from tripmatch import model, stats\n"
                "from tripmatch.cli import _load_trips\n"
                f"trips = _load_trips({str(trips_file)!r})\n"
                "ctx = model.ScaleContext.from_trips(trips)\n"
                "stats.grid_unique_counts(trips, ctx, 4, 5)\n"
                "stats.empirical_cdf([t.duration for t in trips])\n"
                "assert 'numpy.ma' not in sys.modules")


def _exit(capsys, parse, argv: list[str]) -> tuple[object, str, str]:
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


@pytest.mark.parametrize("argv", [
    ["-h"], *[[name, "--help"] for name in cli.HANDLERS], [], ["frobnicate"],
    ["match", "--bogus"], ["cluster", "--k"], ["compare", "--mode", "bus"]])
def test_usage_output_is_the_full_parsers(argv, capsys):
    """A run builds only its subcommand's flags, and prints what all eight print."""
    code, out, err = _exit(capsys, main, argv)
    assert (code, out, err) == _exit(capsys, build_parser()[0].parse_args, argv)
    assert code == (0 if argv[-1:] in (["-h"], ["--help"]) else 2)
    if argv == ["frobnicate"]:
        assert "invalid choice: 'frobnicate'" in err


def _split_trips(trips_file: Path, tmp_path: Path) -> tuple[Path, Path]:
    lines = trips_file.read_text().splitlines(keepends=True)
    requests, rides = tmp_path / "requests.jsonl", tmp_path / "rides.jsonl"
    requests.write_text("".join(lines[:15]))
    rides.write_text("".join(lines[15:]))
    return requests, rides


def _threads_done() -> None:
    for thread in threading.enumerate():
        if thread is not threading.current_thread() and thread.daemon:
            thread.join(10)
            assert not thread.is_alive()


class TestInputDigests:
    def test_manifest_digests_are_the_files_sha256(self, trips_file, tmp_path, capsys):
        requests, rides = _split_trips(trips_file, tmp_path)
        for argv in (["carshare", "--trips", str(trips_file)],
                     ["match", "--requests", str(requests), "--rides", str(rides)]):
            out = tmp_path / argv[0]
            code, _ = run(capsys, *argv, "--out", str(out))
            inputs = json.loads((out / "run_manifest.json").read_text())["inputs"]
            assert code == 0 and inputs == {
                str(path): hashlib.sha256(Path(path).read_bytes()).hexdigest()
                for path in argv[2::2]}

    def test_a_replay_hashes_each_input_once(self, trips_file, tmp_path, capsys, monkeypatch):
        requests, rides = _split_trips(trips_file, tmp_path)
        code, _ = run(capsys, "match", "--requests", str(requests), "--rides", str(rides),
                      "--out", str(tmp_path / "first"))
        assert code == 0
        hashed, sha256 = [], cli._sha256
        monkeypatch.setattr(cli, "_sha256", lambda path: hashed.append(path) or sha256(path))
        code, _ = run(capsys, "match", "--from-manifest",
                      str(tmp_path / "first" / "run_manifest.json"), "--out",
                      str(tmp_path / "replay"))
        assert code == 0 and sorted(hashed) == sorted([str(requests), str(rides)])
        first, replay = (json.loads((tmp_path / d / "run_manifest.json").read_text())["inputs"]
                         for d in ("first", "replay"))
        assert first == replay

    def test_digests_under_frequent_thread_switches(self, tmp_path):
        paths = []
        for k in range(5):  # an empty file, then up to 2.3 MB, past one 1 MB read
            paths.append(str(tmp_path / f"input{k}"))
            Path(paths[-1]).write_bytes(bytes(range(256)) * (3000 * k - 2999) if k else b"")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                digest = cli._hash_inputs(paths)
                busy = sum(i * i for i in range(20_000))  # Python work beside the worker
                assert busy and [digest(p) for p in paths] == [
                    hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in paths]
        finally:
            sys.setswitchinterval(interval)
        _threads_done()

    def test_errors_keep_their_category_and_message(self, trips_file, tmp_path, capsys):
        missing = tmp_path / "missing.jsonl"
        bad = tmp_path / "bad.jsonl"
        bad.write_text(trips_file.read_text().splitlines()[0] + "\n{\"id\": 1}\n")
        code, summary = run(capsys, "match", "--requests", str(trips_file),
                            "--rides", str(missing), "--out", str(tmp_path / "m"))
        assert (code, summary["category"]) == (1, "io")
        assert summary["message"] == f"[Errno 2] No such file or directory: {str(missing)!r}"
        code, summary = run(capsys, "carshare", "--trips", str(bad), "--out", str(tmp_path / "c"))
        assert (code, summary["category"]) == (1, "format")
        assert summary["message"] == "line 2: KeyError('points')"
        # a replay of an input since deleted reads it once, to report it
        code, _ = run(capsys, "carshare", "--trips", str(trips_file), "--out", str(tmp_path / "r"))
        trips_file.unlink()
        code, summary = run(capsys, "carshare", "--from-manifest",
                            str(tmp_path / "r" / "run_manifest.json"), "--out", str(tmp_path / "x"))
        assert (code, summary["category"]) == (1, "io")
        assert summary["message"] == f"[Errno 2] No such file or directory: {str(trips_file)!r}"
        _threads_done()
        assert capsys.readouterr().err == ""


#: A locale whose preferred encoding is ASCII, with Python's UTF-8 mode and
#: locale coercion off.
ASCII_LOCALE = {"LC_ALL": "POSIX", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}


def test_files_are_utf8_whatever_the_locale(trips_file, tmp_path):
    """Ids outside ASCII read and write alike under an ASCII locale."""
    cafe = tmp_path / "cafe.jsonl"
    cafe.write_bytes(trips_file.read_bytes().replace(b'"synth-', '"café-'.encode()))
    for name, env in (("utf8", {"PYTHONUTF8": "1"}), ("ascii", ASCII_LOCALE)):
        _run_python("import sys\n"
                    "from tripmatch.cli import main\n"
                    f"assert main(['carshare', '--trips', {str(cafe)!r}, "
                    f"'--out', {str(tmp_path / name)!r}]) == 0", **env)
    chains = read(tmp_path / "ascii" / "chains.csv")
    assert "café-".encode() in chains
    assert chains == read(tmp_path / "utf8" / "chains.csv")


#: Records OPENBLAS_THREAD_TIMEOUT as it reads when numpy, and when scipy, is
#: first imported: each loads its own OpenBLAS then, which reads it once.
RECORD_BLAS_TIMEOUT = (
    "import os, sys\n"
    "seen = {}\n"
    "class Record:\n"
    "    def find_spec(self, name, path=None, target=None):\n"
    "        if name in ('numpy', 'scipy'):\n"
    "            seen.setdefault(name, os.environ.get('OPENBLAS_THREAD_TIMEOUT'))\n"
    "sys.meta_path.insert(0, Record())\n")


@pytest.mark.parametrize("env, expected", [
    ({}, cli.BLAS_THREAD_TIMEOUT),
    ({"OPENBLAS_THREAD_TIMEOUT": "7"}, "7"),
], ids=["default", "user-value"])
def test_blas_thread_timeout_is_set_before_numpy_and_scipy_load(trips_file, tmp_path,
                                                                 env, expected):
    # stats fits its gamma with scipy.special, which loads scipy's OpenBLAS
    _run_python(RECORD_BLAS_TIMEOUT +
                "from tripmatch.cli import main\n"
                f"assert main(['stats', '--trips', {str(trips_file)!r}, "
                f"'--out', {str(tmp_path / 'st')!r}]) == 0\n"
                "assert 'scipy.special' in sys.modules\n"
                f"assert seen == {{'numpy': {expected!r}, 'scipy': {expected!r}}}, seen", **env)


def test_library_modules_leave_the_blas_thread_timeout_alone():
    _run_python(RECORD_BLAS_TIMEOUT +
                "import tripmatch.model, tripmatch.metrics\n"
                "assert seen == {'numpy': None}, seen\n"
                "assert 'OPENBLAS_THREAD_TIMEOUT' not in os.environ")


@pytest.mark.skipif(not sys.platform.startswith("linux") or (os.cpu_count() or 1) < 2,
                    reason="reads per-thread CPU time from /proc; needs a second core")
def test_idle_blas_worker_sleeps_soon_after_a_product():
    # OpenBLAS's own default spins an idle worker 2^28 cycles, which cost 0.17-0.19 s
    # of worker CPU after this product on a 2-core 2.1 GHz box; the CLI's sleeps it
    out = _run_python(
        "import glob, os, time\n"
        "import tripmatch.cli\n"
        "import numpy as np\n"
        "a = np.ones((300, 300))\n"
        "a @ a\n"
        "time.sleep(0.3)\n"
        "ticks, main = 0, str(os.getpid())\n"
        "for stat in glob.glob('/proc/self/task/*/stat'):\n"
        "    if stat.split('/')[-2] != main:\n"
        "        fields = open(stat).read().rsplit(')', 1)[1].split()\n"
        "        ticks += int(fields[11]) + int(fields[12])\n"
        "blas = 'openblas' in open('/proc/self/maps').read()\n"
        "print(blas, ticks / os.sysconf('SC_CLK_TCK'))")
    blas, worker_cpu_s = out.split()
    if blas != "True":
        pytest.skip("numpy is not linked to OpenBLAS")
    assert float(worker_cpu_s) < 0.05
