"""Benchmark of the tripmatch CLI: one workload, one seed, one measuring window.

    python3 perfbench/run.py --workload {cluster,fleet,match,compare} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ./src. The
inputs are drawn from --seed and written once under .perfbench/ before any
timing, and their SHA-256 digests go into the results.

--trace 0 runs the CLI as fresh processes, one at a time (a closed loop with
one client), for S seconds, checks every run's outputs, and reports medians
of the end-to-end metrics. --trace 1 alternates an untraced run with a
traced one (perfbench/tracing.py) for S seconds and reports the per-layer
metrics. Times are scaled to a nominal machine speed measured by a probe
between runs (see speed_probe). Human-readable lines come first; the last
line of stdout is the JSON result. The full record, with machine details
and every run, is written to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import scipy

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: A whole benchmark process must end well inside three minutes.
DEADLINE_S = 150.0

#: The speed probe: a fresh interpreter that imports the program's
#: third-party dependencies, never the program itself. It takes about
#: PROBE_NOMINAL_S on a 2-core Xeon VM at its usual speed.
PROBE_CODE = "import numpy, scipy.optimize, scipy.sparse.csgraph, json, csv"
PROBE_NOMINAL_S = 0.9
TIMES = ("wall_s", "setup_s", "cpu_s")

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {**{name: "s" for name in tracing.TIME_FAMILIES},
               **{name: "count" for name in tracing.COUNTS},
               "ingest.bytes_read": "bytes", "cli.bytes_written": "bytes",
               "matching.candidate_yield": "ratio", "carshare.edge_yield": "ratio",
               "trace.overhead_s": "s"}


def blas_threads() -> int | None:
    """Threads OpenBLAS will use in this process (numpy is already loaded)."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        dll = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit(root: Path) -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def machine(root: Path, src: Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "git_commit": git_commit(root),
        "src_sha256": source_digest(src),
        "platform": platform.platform(),
    }


def speed_probe() -> float:
    """Seconds a fixed interpreter start and import take now: the machine's speed.

    The benchmark's host is a shared VM whose speed drifts by tens of
    percent over minutes, for every process alike. The probe runs between
    CLI runs; each run's times are scaled by PROBE_NOMINAL_S over the mean
    of the probes just before and after it. Like the CLI, the probe spawns
    a process, reads and unmarshals modules and allocates, so it slows
    down with the CLI; a pure-Python loop did not.
    """
    t0 = time.monotonic()
    subprocess.run([sys.executable, "-c", PROBE_CODE], check=True, timeout=60)
    return time.monotonic() - t0


class Runner:
    """Spawns CLI processes one at a time and measures each from outside."""

    def __init__(self, src: Path, work: Path, inputs: workloads.Inputs,
                 checker: checks.Checker, t_start: float) -> None:
        self.src, self.work, self.inputs, self.checker = src, work, inputs, checker
        self.t_start = t_start
        self.count = 0

    def _spawn(self, argv: list[str], log: Path) -> tuple[float, float, int, object]:
        limit = max(5.0, DEADLINE_S - (time.monotonic() - self.t_start))
        with open(log, "wb") as sink:
            t0 = time.monotonic()
            proc = subprocess.Popen(argv, stdout=sink, stderr=subprocess.STDOUT)
            killer = threading.Timer(limit, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            t1 = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return t0, t1, proc.returncode, usage

    def run(self, traced: bool) -> dict:
        self.count += 1
        out = self.work / f"out{self.count}"
        mark, log = self.work / f"mark{self.count}", self.work / f"log{self.count}"
        spans = self.work / f"spans{self.count}.json"
        cli_args = self.inputs.cli_args(out)
        if traced:
            run_id = f"{self.inputs.workload}-{os.getpid()}-{self.count}"
            argv = [sys.executable, str(HERE / "tracing.py"), str(self.src), str(spans), run_id,
                    "--", *cli_args]
        else:
            argv = [sys.executable, str(HERE / "launch.py"), str(self.src), str(mark),
                    "--", *cli_args]
        t0, t1, code, usage = self._spawn(argv, log)
        lines = log.read_text(errors="replace").strip().splitlines()
        record = {
            "traced": traced,
            "exit_code": code,
            "wall_s": t1 - t0,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
        }
        if mark.exists():
            record["setup_s"] = float(mark.read_text()) - t0
        try:
            summary = json.loads(lines[-1]) if lines else {}
        except json.JSONDecodeError:
            summary = {}
        if code != 0 or summary.get("status") != "ok":
            record["errors"] = [f"exit code {code}: {' | '.join(lines[-3:])}"]
        else:
            record["errors"] = self.checker.check(out, summary)
        if not traced and "setup_s" not in record:
            record["errors"].append("the subcommand handler was never entered")
        if traced and spans.exists():
            with open(spans) as fh:
                doc = json.load(fh)
            record["layers"] = tracing.layer_metrics(doc)
            record["layers"]["cli.bytes_written"] = sum(
                p.stat().st_size for p in out.rglob("*") if p.is_file())
            record["unwrapped"] = doc.get("unwrapped", [])
            spans.unlink()
        shutil.rmtree(out, ignore_errors=True)
        return record


def measure(runner: Runner, seconds: float, traced: bool) -> list[dict]:
    """Runs one at a time for `seconds`, starting no run that would overrun them.

    A run is expected to take the median wall time of the runs before it;
    at least one run (or traced pair) is always made.
    """
    records = []
    begin = time.monotonic()
    before = speed_probe()
    while True:
        batch = [runner.run(traced=False)]
        if traced:
            batch.append(runner.run(traced=True))
        after = speed_probe()
        for r in batch:
            r["probe_s"] = (before + after) / 2
        records += batch
        before = after
        step = statistics.median(r["wall_s"] for r in records) * len(batch) + after
        if time.monotonic() - begin + step > seconds:
            return records


def scaled(record: dict, name: str) -> float:
    """A time of one run at the probe's nominal speed; other values as measured."""
    value = record[name]
    return value * PROBE_NOMINAL_S / record["probe_s"] if name in TIMES else value


def end_to_end(records: list[dict]) -> dict[str, float]:
    samples = {name: [scaled(r, name) for r in records if name in r] for name in END_TO_END}
    return {name: statistics.median(v) for name, v in samples.items() if v}


def raw_medians(records: list[dict]) -> dict[str, float]:
    """Unscaled medians of the times, and of the probe, for the record."""
    plain = [r for r in records if not r["traced"]]
    samples = {name: [r[name] for r in plain if name in r] for name in (*TIMES, "probe_s")}
    return {name: statistics.median(v) for name, v in samples.items() if v}


def per_layer(records: list[dict]) -> dict[str, float]:
    traced = [r for r in records if "layers" in r]
    plain = [r for r in records if not r["traced"]]
    if not traced:
        return {}
    # counts repeat exactly from run to run, so only the times need a median;
    # layer times are scaled to the probe's nominal speed like the run times
    out = {name: statistics.median(r["layers"][name] * PROBE_NOMINAL_S / r["probe_s"]
                                   for r in traced)
           if LAYER_UNITS[name] == "s" else value
           for name, value in traced[0]["layers"].items()}
    out["trace.overhead_s"] = (statistics.median(scaled(r, "wall_s") for r in traced)
                               - statistics.median(scaled(r, "wall_s") for r in plain))
    return out


def self_time_shares(layers: dict[str, float]) -> dict[str, float]:
    """Each layer time's share of all layer self time (filter time over all passes)."""
    totals = {k: layers[k] for k in tracing.TIME_FAMILIES}
    totals["matching.filter_s"] *= layers["matching.filter_passes"]
    whole = sum(totals.values())
    return {k: v / whole for k, v in totals.items()} if whole > 0 else {}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    t_start = time.monotonic()
    root = Path.cwd()
    src = root / "src"
    if not (src / "tripmatch" / "cli.py").is_file():
        print(f"perfbench: no tripmatch sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))  # the compare spot check calls the scalar metrics

    results_dir = root / ".perfbench" / "results"
    work = root / ".perfbench" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    results_dir.mkdir(parents=True, exist_ok=True)
    work.mkdir(parents=True, exist_ok=True)
    try:
        inputs = workloads.generate(args.workload, args.seed, work)
        input_info = {name: {"trips": len(inputs.pops[name]), "bytes": path.stat().st_size,
                             "sha256": workloads.sha256(path)}
                      for name, path in inputs.files.items()}
        checker = checks.Checker(inputs)
        # compile the bytecode and warm the page cache before anything is timed
        subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]);"
                        " import tripmatch.cli", str(src)], check=True, timeout=120)
        runner = Runner(src, work, inputs, checker, t_start)
        records = measure(runner, args.seconds, traced=bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for r in records if r["errors"])
    attempted = len(records)
    if args.trace:
        values = per_layer(records)
        metrics = {k: {"value": values[k], "unit": LAYER_UNITS[k]} for k in LAYER_UNITS
                   if k in values}
    else:
        values = end_to_end(records)
        metrics = {k: {"value": values[k], "unit": END_TO_END[k]} for k in END_TO_END
                   if k in values}
    info = machine(root, src)
    raw = raw_medians(records)
    detail = {"workload": args.workload, "why": workloads.WHY[args.workload],
              "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "cli_args": inputs.cli_args(Path("OUT")), "machine": info,
              "inputs": input_info, "runs": records, "probe_nominal_s": PROBE_NOMINAL_S,
              "unscaled_medians": raw, "fail_frac": failed / attempted, "metrics": metrics}

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{workloads.WHY[args.workload]}")
    print("machine " + " ".join(f"{k}={v}" for k, v in info.items()))
    for name, meta in input_info.items():
        print(f"input {name}: {meta['trips']} trips, {meta['bytes']} bytes, "
              f"sha256 {meta['sha256']}")
    for i, r in enumerate(records, 1):
        verdict = "ok" if not r["errors"] else "FAILED " + "; ".join(r["errors"])
        kind = "traced" if r["traced"] else "plain"
        print(f"run {i} {kind}: wall {r['wall_s']:.3f} s, probe {r['probe_s']:.3f} s, "
              f"check {verdict}")
    print("unscaled medians of untraced runs: "
          + ", ".join(f"{k} {v:.4g} s" for k, v in raw.items()))
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    shares = self_time_shares(values) if args.trace and values else {}
    if shares:
        detail["self_time_shares"] = shares
        top = max(shares, key=shares.get)
        print(f"largest self-time share: {top} {100 * shares[top]:.1f}%")
    with open(results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(detail, fh, indent=1)
    print(f"{'fail_frac':28s} {failed / attempted:.6g} ({failed}/{attempted} runs)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
