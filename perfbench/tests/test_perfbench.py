"""Self-tests of the benchmark: its output checks, trace counts and seeding.

Run from the repository root: python3 -m pytest perfbench/tests -q
The CLI runs here use inputs shrunk by `workloads.generate(..., scale=...)`.
"""

from __future__ import annotations

import csv
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path[:0] = [str(BENCH), str(SRC)]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SCALE = {"cluster": 0.2, "fleet": 0.35, "match": 0.2, "compare": 0.5}


def _cli(inputs: workloads.Inputs, out: Path) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "launch.py"), str(SRC),
                           str(out.parent / "mark"), "--", *inputs.cli_args(out)],
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _traced(inputs: workloads.Inputs, out: Path) -> dict:
    spans = out.parent / "spans.json"
    subprocess.run([sys.executable, str(BENCH / "tracing.py"), str(SRC), str(spans), "t",
                    "--", *inputs.cli_args(out)], capture_output=True, timeout=120, check=True)
    with open(spans) as fh:
        return tracing.layer_metrics(json.load(fh))


def _rewrite_csv(path: Path, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows = [rows[0]] + edit(rows[1:])
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _drop_chain_hop(out: Path) -> None:
    """Remove the middle trip of the first chain with three or more trips."""
    def edit(rows):
        by_chain = {}
        for row in rows:
            by_chain.setdefault(row[0], []).append(row)
        chain = next(c for c in by_chain.values() if len(c) >= 3)
        dropped = chain[1]
        kept = [r for r in rows if r is not dropped]
        for pos, row in enumerate(r for r in kept if r[0] == chain[0][0]):
            row[1] = str(pos)
        return kept
    _rewrite_csv(out / "chains.csv", edit)


def _swap_ride(out: Path) -> None:
    """Give the first matched request the ride chosen by another request."""
    def edit(rows):
        matched = [r for r in rows if r[1]]
        other = next(r[1] for r in matched if r[1] != matched[0][1])
        matched[0][1] = other
        return rows
    _rewrite_csv(out / "matches.csv", edit)


def _shift_compare_ride(out: Path) -> None:
    """Move DTW's origin offset by 10 m, as if one request had taken another ride."""
    path = out / "report.json"
    report = json.loads(path.read_text())
    report["dtw"]["origin-origin distance (km)"] += 0.01
    path.write_text(json.dumps(report))


def _relabel_member(out: Path) -> None:
    """Move one trip into the cluster of another trip with a different label."""
    def edit(rows):
        rows[0][1] = next(r[1] for r in rows if r[1] != rows[0][1])
        return rows
    _rewrite_csv(out / "labels.csv", edit)


CORRUPT = {"fleet": _drop_chain_hop, "match": _swap_ride, "compare": _shift_compare_ride,
           "cluster": _relabel_member}


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_check_passes_real_output_and_rejects_corrupted(workload, tmp_path):
    inputs = workloads.generate(workload, 5, tmp_path, scale=SCALE[workload])
    checker = checks.Checker(inputs)
    out = tmp_path / "out"
    summary = _cli(inputs, out)
    assert checker.check(out, summary) == []
    CORRUPT[workload](out)
    assert checker.check(out, summary) != []


def test_failed_check_counts_as_failed_run(tmp_path):
    inputs = workloads.generate("cluster", 5, tmp_path, scale=SCALE["cluster"])

    class Corrupting(checks.Checker):
        def check(self, out, summary):
            _relabel_member(out)
            return super().check(out, summary)

    runner = run.Runner(SRC, tmp_path, inputs, Corrupting(inputs), t_start=time.monotonic())
    record = runner.run(traced=False)
    assert record["exit_code"] == 0 and record["errors"]


def test_times_are_scaled_to_the_probe_speed():
    record = {"traced": False, "wall_s": 3.0, "setup_s": 0.6, "cpu_s": 3.3,
              "peak_rss_mb": 90.0, "probe_s": 2 * run.PROBE_NOMINAL_S}
    values = run.end_to_end([record])
    assert values == pytest.approx({"wall_s": 1.5, "setup_s": 0.3, "cpu_s": 1.65,
                                    "peak_rss_mb": 90.0})


def test_fleet_trace_counts_reconcile_with_artifacts(tmp_path):
    inputs = workloads.generate("fleet", 5, tmp_path, scale=SCALE["fleet"])
    out = tmp_path / "out"
    layers = _traced(inputs, out)
    summary = json.loads((out / "schedule_summary.json").read_text())
    assert layers["carshare.dag_edges"] == summary["n_edges"]
    assert layers["carshare.cardinality"] == summary["cardinality"]
    n = len(inputs.pops["trips"])
    assert layers["carshare.pairs_screened"] == n * (n - 1)
    assert layers["ingest.trips_loaded"] == n
    assert layers["ingest.bytes_read"] == inputs.files["trips"].stat().st_size


def test_match_trace_counts_reconcile_with_oracle(tmp_path):
    inputs = workloads.generate("match", 5, tmp_path, scale=SCALE["match"])
    oracle = checks.Checker(inputs).oracle
    assert oracle.candidates_1800 > 0
    layers = _traced(inputs, tmp_path / "out")
    assert layers["metrics.wgm_calls"] == oracle.candidates_1800
    assert layers["metrics.psim_evals"] == 2 * oracle.candidates_1800
    n_req, n_ride = (len(inputs.pops[k]) for k in ("requests", "rides"))
    passes = len(workloads.MATCH_SWEEP_DIST) + 1
    assert layers["matching.pairs_screened"] == passes * n_req * n_ride
    assert layers["matching.candidate_yield"] == oracle.candidates_1800 / (n_req * n_ride)


def test_seed_changes_digests_but_not_metric_names(tmp_path):
    digests, names = [], []
    for seed in (1, 2):
        work = tmp_path / str(seed)
        work.mkdir()
        inputs = workloads.generate("fleet", seed, work, scale=0.1)
        digests.append(workloads.sha256(inputs.files["trips"]))
        runner = run.Runner(SRC, work, inputs, checks.Checker(inputs), t_start=time.monotonic())
        records = run.measure(runner, seconds=0.0, traced=True)
        assert not any(r["errors"] for r in records)
        names.append((set(run.end_to_end(records)), set(run.per_layer(records))))
    assert digests[0] != digests[1]
    assert names[0] == names[1]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert names[0][0] == {m["name"] for m in declared["end_to_end"]}
    assert names[0][1] == {m["name"] for m in declared["per_layer"]}


def test_same_seed_gives_same_bytes(tmp_path):
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
    a = workloads.generate("compare", 9, tmp_path / "a", scale=0.02)
    b = workloads.generate("compare", 9, tmp_path / "b", scale=0.02)
    for name in a.files:
        assert workloads.sha256(a.files[name]) == workloads.sha256(b.files[name])
