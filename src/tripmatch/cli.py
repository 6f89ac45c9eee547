"""Command-line pipelines: ingest, synth, stats, affinity, cluster, match, compare, carshare.

Every run writes its artifact files plus a run_manifest.json capturing the
effective configuration and input digests; re-running with
--from-manifest reproduces the outputs byte for byte. Each run prints a
one-line JSON summary on stdout and exits 0, or prints a JSON error with a
machine-readable category and exits 1 (2 for usage errors).
Importing this module sets OPENBLAS_THREAD_TIMEOUT if unset; see BLAS_THREAD_TIMEOUT.
main starts with gc.freeze(), so no collection walks the heap it finds; an
embedding caller may call gc.unfreeze() after it returns.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import mmap
import os
import sys
import threading
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

#: OPENBLAS_THREAD_TIMEOUT, set before numpy and scipy load OpenBLAS unless the
#: user set it: an idle BLAS worker spins 2^20 cycles (0.5 ms at 2.1 GHz) before
#: it sleeps, not 2^28 (0.13 s). On a 2-core box the benchmark's cluster run fell
#: from 0.73 to 0.45 s of CPU at the same wall time. eigh at n = 3000 then puts
#: the worker to sleep about 150 times a call, and no wake-up cost was measurable;
#: eigh and cluster at n = 3000 read within noise (a few percent) of unset
#: (table and pairs in CHANGES.md).
BLAS_THREAD_TIMEOUT = "20"
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", BLAS_THREAD_TIMEOUT)

import numpy as np

# each handler imports the pipeline modules only it runs
from . import __version__, ingest, metrics, model

if TYPE_CHECKING:
    from . import matching

DEFAULT_SEED = 7
_OUTDIR_ENV = "TRIPMATCH_OUTDIR"

_INPUT_KEYS = ("input", "trips", "requests", "rides")


class ReplayMismatchError(ValueError):
    """Raised when an input of a replayed run no longer has its recorded digest."""

    category = "replay-mismatch"


# ---------------------------------------------------------------------------
# small io helpers

def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _csv_field(text: str) -> str:
    """text as _write_csv's writer writes it in a row of several fields."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]


def _write_json(path: Path, obj: object) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _km(meters: float) -> str:
    return f"{meters / 1000.0:.3f}"


def _sec(seconds: float) -> str:
    return str(int(round(seconds)))


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    # a worker thread takes the GIL back twice a read, so reads are large: 1 MB
    # reads cut match's handler by about 10 ms against 64 kB ones; the buffer
    # is mapped, off the Python heap
    with open(path, "rb", buffering=0) as fh, mmap.mmap(-1, 1 << 20) as buffer, \
            memoryview(buffer) as block:
        while size := fh.readinto(block):
            digest.update(block[:size])
    return digest.hexdigest()


def _hash_inputs(paths: list[str]) -> Callable[[str], str]:
    """A lookup of each path's SHA-256, hashed by a worker thread beside the handler.

    hashlib and file reads release the GIL. A lookup waits for the worker,
    and hashes a path the worker could not hash again, to raise its error.
    """
    digests: dict[str, str] = {}

    def work() -> None:
        with contextlib.suppress(OSError, ValueError):  # a lookup raises it again
            for path in paths:
                digests[path] = _sha256(path)

    worker = threading.Thread(target=work, daemon=True)
    worker.start()

    def lookup(path: str) -> str:
        worker.join()
        return digests[path] if path in digests else _sha256(path)
    return lookup


def _load_trips(path: str) -> model.TripSet:
    with open(path, encoding="utf-8") as fh:
        trips = model.TripSet.of(ingest.read_trips_jsonl(fh))
    if not trips:
        raise ValueError(f"no trips in {path}")
    return trips


def _parse_list(cfg: dict, key: str, kind: Callable = float) -> list:
    """The values of the comma list cfg[key], or [] if it is unset; a ValueError names key."""
    if not cfg.get(key):
        return []
    try:
        values = [kind(p) for p in cfg[key].split(",") if p.strip()]
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None
    if not values:
        raise ValueError(f"{key}: needs at least one value, got {cfg[key]!r}")
    return values


def _scenario(cfg: dict) -> matching.MatchScenario:
    from . import matching
    return matching.MatchScenario(
        mode=cfg["mode"],
        dist_threshold=cfg["dist_threshold"],
        time_threshold=cfg["time_threshold"],
        weights=metrics.WgmWeights(cfg["w_space"], cfg["w_time"]),
        metric=cfg.get("metric", "wgm"),
    )


def _manifest(cfg: dict, outdir: Path, digest: Callable[[str], str]) -> None:
    inputs = {cfg[key]: digest(cfg[key]) for key in _INPUT_KEYS if cfg.get(key)}
    _write_json(outdir / "run_manifest.json", {
        "command": cfg["command"],
        "config": {k: v for k, v in cfg.items() if k not in ("config", "from_manifest")},
        "inputs": inputs,
        "version": __version__,
    })


def _split_riders_rides(cfg: dict) -> tuple[model.TripSet, model.TripSet]:
    """Requests/rides from explicit files, or a seeded split of one trip set, each stacked once.

    The split sizes and the seed are checked before --trips is read.
    """
    if cfg.get("requests") and cfg.get("rides"):
        return tuple(_load_trips(cfg[key]) for key in ("requests", "rides"))
    if cfg.get("requests") or cfg.get("rides"):
        missing = "--rides" if cfg.get("requests") else "--requests"
        raise ValueError(f"--requests and --rides go together: {missing} is missing")
    n_riders, n_rides = cfg["n_riders"], cfg["n_rides"]
    for name in ("n_riders", "n_rides"):
        model.check_param(name, cfg[name], cfg[name] >= 1, "must be at least 1 with --trips")
    model.check_seed(cfg["seed"])
    trips = _load_trips(cfg["trips"])
    model.check_param("n_riders, n_rides", (n_riders, n_rides), n_riders + n_rides <= len(trips),
                      f"must together be at most the {len(trips)} trips of --trips")
    order = np.random.default_rng(cfg["seed"]).permutation(len(trips))
    return (model.TripSet.of(trips[i] for i in order[:n_riders]),
            model.TripSet.of(trips[i] for i in order[n_riders:n_riders + n_rides]))


def _write_matches_csv(path: Path, report: matching.MatchReport) -> None:
    rows = []
    for r in report.rows:
        if r.matched:
            rows.append([
                r.request_id, r.ride_id, _km(r.oo_dist_m), _km(r.dd_dist_m),
                _sec(r.oo_time_s), _sec(r.dd_time_s), f"{r.score:.6f}",
            ])
        else:
            rows.append([r.request_id, "", "", "", "", "", ""])
    _write_csv(path, ["request_id", "ride_id", "oo_dist_km", "dd_dist_km",
                      "oo_time_s", "dd_time_s", "score"], rows)


# ---------------------------------------------------------------------------
# subcommand handlers: cfg dict in, summary dict out

def cmd_ingest(cfg: dict, outdir: Path) -> dict:
    window = ingest.TimeWindow(cfg["window_start"], cfg["window_end"])
    ingest.trace_columns(cfg["format"])
    with open(cfg["input"], encoding="utf-8") as fh:
        records, skipped = ingest.parse_trace(fh, cfg["format"])
    trips = ingest.build_trips(records, window)
    with open(outdir / "trips.jsonl", "w", encoding="utf-8") as fh:
        ingest.write_trips_jsonl(trips, fh)
    return {"n_records": len(records), "malformed": skipped, "n_trips": len(trips)}


def cmd_synth(cfg: dict, outdir: Path) -> dict:
    bbox = _parse_list(cfg, "bbox")
    model.check_param("bbox", cfg["bbox"], len(bbox) == 6,
                      "must be x_min,x_max,y_min,y_max,t_min,t_max")
    synth_cfg = ingest.SynthConfig(
        n=cfg["n"],
        bbox=model.ScaleContext(*bbox),
        gamma_shape=cfg["gamma_shape"],
        gamma_scale=cfg["gamma_scale"],
        lognorm_mu=cfg["lognorm_mu"],
        lognorm_sigma=cfg["lognorm_sigma"],
        waypoints=cfg["waypoints"],
        seed=cfg["seed"],
    )
    trips = ingest.generate_synthetic(synth_cfg)
    with open(outdir / "trips.jsonl", "w", encoding="utf-8") as fh:
        ingest.write_trips_jsonl(trips, fh)
    return {"n_trips": len(trips), "seed": cfg["seed"]}


def cmd_stats(cfg: dict, outdir: Path) -> dict:
    from . import stats
    rows, cols = cfg["grid_rows"], cfg["grid_cols"]
    stats.check_grid(rows, cols)
    trips = _load_trips(cfg["trips"])
    ctx = model.ScaleContext.from_trips(trips)
    start, end = model.od_points(trips)[:, :, 2].T
    durations = [d for d in (end - start).tolist() if d > 0]
    lengths = model.path_lengths(trips).tolist()
    n_points = trips.counts.tolist()
    distances = [d for d in lengths if d > 0]

    fit_rows = []
    for name, samples in (("duration", durations), ("distance", distances)):
        for fitter in (stats.fit_lognormal, stats.fit_gamma):
            fit = fitter(samples)
            fit_rows.append([name, fit.family, f"{fit.params[0]:.6f}",
                             f"{fit.params[1]:.6f}", f"{fit.log_likelihood:.6f}", fit.n])
    unique = stats.grid_unique_counts(trips, ctx, rows, cols)
    quart = stats.grid_duration_stats(trips, ctx, rows, cols)
    _write_csv(outdir / "fits.csv",
               ["variable", "family", "param1", "param2", "loglik", "n"], fit_rows)

    cdf_exports = {
        "duration": durations,
        "distance": distances,
        "waypoints": n_points,
        "start_time": start.tolist(),
        "end_time": end.tolist(),
    }
    for name, samples in cdf_exports.items():
        steps = stats.empirical_cdf(samples)
        _write_csv(outdir / f"cdf_{name}.csv", ["value", "probability"],
                   [[f"{v:.6f}", f"{p:.6f}"] for v, p in steps])

    _write_csv(outdir / "grid_unique.csv", ["row", "col", "value"],
               [[r, c, int(unique[r, c])]
                for r in range(rows) for c in range(cols)])
    grid_rows = []
    for r in range(rows):
        for c in range(cols):
            cell = quart[r, c]
            if np.isnan(cell).any():
                grid_rows.append([r, c, "", "", "", "", ""])
            else:
                grid_rows.append([r, c] + [f"{v:.3f}" for v in cell])
    _write_csv(outdir / "grid_duration.csv",
               ["row", "col", "min", "q1", "median", "q3", "max"], grid_rows)

    try:
        correlation = stats.pearson(n_points, lengths)
    except ValueError:
        correlation = None
    return {
        "n_trips": len(trips),
        "pearson_waypoints_vs_distance":
            None if correlation is None else round(correlation, 4),
    }


def _affinity(scorer: str, reps: np.ndarray, weights: metrics.WgmWeights) -> np.ndarray:
    """Score matrix A[i, j] = wgm or car score of reps[i] against reps[j], in one kernel call.

    The cp scorer is car with the trips swapped, so its matrix is this
    car matrix transposed; cluster's symmetric part is the same for both.
    """
    from . import affinity
    affinity.check_trip_count(len(reps))
    mode = metrics.TimeMode.ABSOLUTE if scorer == "wgm" else metrics.TimeMode.SIGNED_CAR
    return metrics.wgm_batch(reps[:, None], reps[None, :], weights, mode)


def _symmetric_ratio(a: np.ndarray) -> float:
    """sym_decompose's ||S||^2 / ||A||^2, as (||A||^2 + <A, A^T>) / (2 ||A||^2)."""
    energy = np.einsum("ij,ij->", a, a)
    return float((energy + np.einsum("ij,ji->", a, a)) / (2 * energy)) if energy > 0 else 1.0


def cmd_affinity(cfg: dict, outdir: Path) -> dict:
    weights = metrics.WgmWeights(cfg["w_space"], cfg["w_time"])
    trips = _load_trips(cfg["trips"])
    reps = model.scale_points(model.od_points(trips), model.ScaleContext.from_trips(trips))
    values = _affinity(cfg["scorer"], reps, weights)
    rows = values.T if cfg["scorer"] == "cp" else values
    ids = [_csv_field(i) for i in trips.ids]
    with open(outdir / "affinity.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("i,j,score\n")
        for a, row in zip(ids, rows):
            fh.write("".join([f"{a},{b},{score:.6f}\n" for b, score in zip(ids, row.tolist())]))
    return {"n": len(ids), "scorer": cfg["scorer"],
            "symmetric_ratio": round(_symmetric_ratio(values), 6)}


def cmd_cluster(cfg: dict, outdir: Path) -> dict:
    from . import affinity
    gamma = cfg.get("kernel_gamma")
    if gamma is not None:
        metrics.check_kernel_gamma(gamma)
    affinity.check_k(cfg["k"])
    model.check_seed(cfg["seed"])
    weights = metrics.WgmWeights(cfg["w_space"], cfg["w_time"])
    trips = _load_trips(cfg["trips"])
    if len(trips) < 3:
        raise ValueError(f"cluster needs at least 3 trips for its 2-D embeddings, got {len(trips)}")
    affinity.check_k(cfg["k"], len(trips))
    od = model.od_points(trips)
    reps = model.scale_points(od, model.ScaleContext.from_trips(trips))
    sym = _affinity(cfg["scorer"], reps, weights)
    ratio = _symmetric_ratio(sym)
    # S = (A + A^T) / 2 in A's own buffer; numpy copies the overlapping A^T first
    sym += sym.T
    sym /= 2.0
    if gamma is not None:
        metrics.laplacian_kernel(sym, gamma, out=sym)
    labels = affinity.spectral_cluster(sym, cfg["k"], cfg["seed"])
    coords_pca, explained = affinity.pca_2d(reps.reshape(len(reps), -1))
    # the affinity is not needed past here, so its buffer becomes the distances
    coords_mds = affinity.mds_2d(np.subtract(1.0, sym, out=sym))

    ids = trips.ids
    _write_csv(outdir / "labels.csv", ["trip_id", "cluster"],
               [[i, int(c)] for i, c in zip(ids, labels)])
    _write_csv(outdir / "coords_pca.csv", ["trip_id", "x", "y"],
               [[i, f"{x:.6f}", f"{y:.6f}"] for i, (x, y) in zip(ids, coords_pca)])
    _write_csv(outdir / "coords_mds.csv", ["trip_id", "x", "y"],
               [[i, f"{x:.6f}", f"{y:.6f}"] for i, (x, y) in zip(ids, coords_mds)])

    variables = ("origin_x", "origin_y", "dest_x", "dest_y", "start", "end")
    header = ["cluster", "n"]
    for name in variables:
        header += [f"{name}_mean", f"{name}_median", f"{name}_std"]
    # one row per variable, in the order of `variables`
    by_variable = np.stack([od[:, 0, 0], od[:, 0, 1], od[:, 1, 0], od[:, 1, 1],
                            od[:, 0, 2], od[:, 1, 2]])
    summary_rows = []
    for cluster in range(cfg["k"]):
        members = by_variable[:, labels == cluster]
        size = members.shape[1]
        if not size:
            summary_rows.append([cluster, 0] + [""] * (3 * len(variables)))
            continue
        # np.median's arithmetic without its NaN check, which imports numpy.ma
        ordered = np.sort(members, axis=1)
        medians = (ordered[:, size // 2] if size % 2
                   else (ordered[:, size // 2 - 1] + ordered[:, size // 2]) / 2)
        cells: list[object] = [cluster, size]
        for arr, median in zip(members, medians):
            cells += [f"{arr.mean():.3f}", f"{median:.3f}", f"{arr.std():.3f}"]
        summary_rows.append(cells)
    _write_csv(outdir / "cluster_summary.csv", header, summary_rows)
    return {
        "n": len(trips), "k": cfg["k"], "symmetric_ratio": round(ratio, 6),
        "pca_explained": [round(float(e), 4) for e in explained],
    }


def cmd_match(cfg: dict, outdir: Path) -> dict:
    from . import matching
    sweeps = {key: _parse_list(cfg, key) for key in ("sweep_dist", "sweep_time")}
    sweep_l = _parse_list(cfg, "sweep_l", int) or [1]
    model.check_param("sweep_l", cfg["sweep_l"], any(sweeps.values()) or not cfg.get("sweep_l"),
                      "needs --sweep-dist or --sweep-time")
    matching.check_sweeps(**sweeps, sweep_l=sweep_l)
    scenario = _scenario(cfg)
    requests, rides = _split_riders_rides(cfg)
    report = matching.greedy_match(requests, rides, scenario)
    curve_rows = matching.match_counts_curve(requests, rides, scenario, **sweeps, sweep_l=sweep_l)

    # the accounting may raise, so it runs before any file is written
    table = report.to_table_dict()
    table.update({k: round(v, 3) for k, v in matching.savings_accounting(report).items()
                  if k != "savings"})
    _write_matches_csv(outdir / "matches.csv", report)
    _write_json(outdir / "report.json", table)
    if curve_rows:
        _write_csv(outdir / "curve.csv", ["vary", "threshold", "L", "count"],
                   [[r["vary"], f"{r['threshold']:.1f}", r["L"], r["count"]]
                    for r in curve_rows])
    return {
        "mode": scenario.mode, "n_requests": report.n_requests,
        "n_matched": report.n_matched, "savings_pct": round(100 * report.savings, 2),
    }


def cmd_compare(cfg: dict, outdir: Path) -> dict:
    from . import matching
    names = _parse_list(cfg, "metrics", str.strip)
    sweep = _parse_list(cfg, "wt_sweep")
    model.check_rep_len(cfg["rep_len"])
    scenarios = matching.compare_scenarios(_scenario(cfg), names, sweep)
    requests, rides = _split_riders_rides(cfg)
    reports = matching.compare_metrics(requests, rides, scenarios, cfg["rep_len"])
    tables = {name: rep.to_table_dict() for name, rep in zip(names, reports)}
    _write_json(outdir / "report.json", tables)
    field_names = list(next(iter(tables.values())).keys())
    _write_csv(outdir / "comparison.csv", ["field"] + names,
               [[field] + [tables[name][field] for name in names] for field in field_names])

    if sweep:
        _write_csv(outdir / "wt_sweep.csv",
                   ["w_time", "oo_dist_km", "dd_dist_km", "oo_time_s", "dd_time_s"],
                   [[f"{wt:.3f}", f"{rep.oo_dist_km:.3f}", f"{rep.dd_dist_km:.3f}",
                     _sec(rep.oo_time_s), _sec(rep.dd_time_s)]
                    for wt, rep in zip(sweep, reports[len(names):])])
    return {"metrics": names, "n_requests": len(requests), "n_matched": reports[0].n_matched}


def cmd_carshare(cfg: dict, outdir: Path) -> dict:
    from . import carshare
    metrics.check_thresholds(dist_threshold=cfg["dist_threshold"],
                             time_threshold=cfg["time_threshold"])
    weights = metrics.WgmWeights(cfg["w_space"], cfg["w_time"])
    trips = _load_trips(cfg["trips"])
    dag, schedule = carshare.schedule_trips(
        trips,
        dist_threshold=cfg["dist_threshold"],
        time_threshold=cfg["time_threshold"],
        weights=weights,
    )
    _write_csv(outdir / "chains.csv", ["chain_id", "position", "trip_id"],
               [[ci, pos, tid]
                for ci, chain in enumerate(schedule.chains)
                for pos, tid in enumerate(chain)])
    stats_rows = carshare.chain_stats(schedule, trips)
    _write_csv(outdir / "chain_stats.csv",
               ["chain_id", "length", "travel_km", "pickup_km", "pickup_s"],
               [[s.chain_id, s.length, f"{s.travel_km:.3f}", f"{s.pickup_km:.3f}",
                 _sec(s.pickup_s)] for s in stats_rows])
    lengths = sorted({s.length for s in stats_rows})
    _write_csv(outdir / "chain_length_hist.csv", ["length", "count"],
               [[ln, sum(1 for s in stats_rows if s.length == ln)] for ln in lengths])
    multi = [len(c) for c in schedule.chains if len(c) > 1]
    summary = {
        "n_trips": dag.n,
        "n_edges": len(dag.edges),
        "cardinality": schedule.cardinality,
        "n_cars": schedule.n_cars,
        "singleton_count": schedule.singleton_count,
        "mean_chain_length": round(dag.n / schedule.n_cars, 4) if schedule.n_cars else None,
        "mean_multi_chain_length":
            round(sum(multi) / len(multi), 4) if multi else None,
    }
    _write_json(outdir / "schedule_summary.json", summary)
    return summary


HANDLERS: dict[str, Callable[[dict, Path], dict]] = {
    "ingest": cmd_ingest,
    "synth": cmd_synth,
    "stats": cmd_stats,
    "affinity": cmd_affinity,
    "cluster": cmd_cluster,
    "match": cmd_match,
    "compare": cmd_compare,
    "carshare": cmd_carshare,
}


# ---------------------------------------------------------------------------
# argument parsing and config resolution

def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", default=None, help="output directory")
    sub.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sub.add_argument("--config", default=None, help="key = value defaults file")
    sub.add_argument("--from-manifest", dest="from_manifest", default=None,
                     help="re-run the configuration captured in a run_manifest.json")


def _add_weight_flags(sub: argparse.ArgumentParser) -> None:
    w = metrics.DEFAULT_WEIGHTS
    sub.add_argument("--w-space", dest="w_space", type=float, default=w.w_space)
    sub.add_argument("--w-time", dest="w_time", type=float, default=w.w_time)


def _add_threshold_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--dist-threshold", dest="dist_threshold", type=float,
                     default=metrics.DEFAULT_DIST_THRESHOLD)
    sub.add_argument("--time-threshold", dest="time_threshold", type=float,
                     default=metrics.DEFAULT_TIME_THRESHOLD)


def _add_scenario_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--mode", choices=["car", "carpool"], default="car")
    _add_threshold_flags(sub)
    _add_weight_flags(sub)


def _add_split_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--requests", default=None, help="requests trips.jsonl")
    sub.add_argument("--rides", default=None, help="rides trips.jsonl")
    sub.add_argument("--trips", default=None, help="single trip set to split")
    sub.add_argument("--n-riders", dest="n_riders", type=int, default=0)
    sub.add_argument("--n-rides", dest="n_rides", type=int, default=0)


def build_parser(command: str | None = None
                 ) -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and the parser of each subcommand.

    Given a command, only its parser gets flags; bare others keep the top-level usage.
    """
    parser = argparse.ArgumentParser(prog="tripmatch", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    def sub(name: str, text: str) -> argparse.ArgumentParser | None:
        p = subs.add_parser(name, help=text)
        return p if command in (None, name) else None

    if p := sub("ingest", "parse a trace file and cut a time window"):
        p.add_argument("--input", default=None)
        p.add_argument("--window-start", dest="window_start", type=float, default=0.0)
        p.add_argument("--window-end", dest="window_end", type=float, default=3600.0)
        p.add_argument("--format", default="t id x y speed")
        _add_common(p)

    if p := sub("synth", "generate a synthetic trip set"):
        p.add_argument("--n", type=int, default=200)
        p.add_argument("--bbox", default="0,20000,0,20000,0,86400")
        p.add_argument("--gamma-shape", dest="gamma_shape", type=float, default=2.0)
        p.add_argument("--gamma-scale", dest="gamma_scale", type=float, default=300.0)
        p.add_argument("--lognorm-mu", dest="lognorm_mu", type=float, default=8.0)
        p.add_argument("--lognorm-sigma", dest="lognorm_sigma", type=float, default=0.6)
        p.add_argument("--waypoints", type=int, default=10)
        _add_common(p)

    if p := sub("stats", "distribution fits, CDFs, and grid aggregates"):
        p.add_argument("--trips", default=None)
        p.add_argument("--grid-rows", dest="grid_rows", type=int, default=10)
        p.add_argument("--grid-cols", dest="grid_cols", type=int, default=10)
        _add_common(p)

    if p := sub("affinity", "pairwise similarity matrix"):
        p.add_argument("--trips", default=None)
        p.add_argument("--scorer", choices=["wgm", "car", "cp"], default="wgm")
        _add_weight_flags(p)
        _add_common(p)

    if p := sub("cluster", "spectral clustering plus 2-D embeddings"):
        p.add_argument("--trips", default=None)
        p.add_argument("--k", type=int, default=8)
        p.add_argument("--scorer", choices=["wgm", "car", "cp"], default="wgm")
        p.add_argument("--kernel-gamma", dest="kernel_gamma", type=float, default=None)
        _add_weight_flags(p)
        _add_common(p)

    if p := sub("match", "greedy rider-to-ride matching"):
        _add_split_flags(p)
        _add_scenario_flags(p)
        p.add_argument("--metric", choices=list(metrics.METRIC_NAMES), default="wgm")
        p.add_argument("--sweep-dist", dest="sweep_dist", default=None,
                       help="comma list of distance thresholds for curve.csv")
        p.add_argument("--sweep-time", dest="sweep_time", default=None,
                       help="comma list of time thresholds for curve.csv")
        p.add_argument("--sweep-L", dest="sweep_l", default=None,
                       help="comma list of least-match counts")
        _add_common(p)

    if p := sub("compare", "one scenario under several metrics"):
        _add_split_flags(p)
        _add_scenario_flags(p)
        p.add_argument("--metrics", default="wgm,lcss,frechet,dtw,dtw_time,wgm_time")
        p.add_argument("--rep-len", dest="rep_len", type=int, default=50)
        p.add_argument("--wt-sweep", dest="wt_sweep", default=None,
                       help="comma list of temporal weights for wt_sweep.csv")
        _add_common(p)

    if p := sub("carshare", "minimum-fleet chain scheduling"):
        p.add_argument("--trips", default=None)
        _add_threshold_flags(p)
        _add_weight_flags(p)
        _add_common(p)

    return parser, subs.choices


def _read_config_file(path: str) -> dict:
    values = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line {raw.strip()!r}; expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            values[key] = value
    return values


#: Keys that name the run itself rather than configure it; neither a config
#: file nor a manifest's config may set them.
_RESERVED_KEYS = ("command", "config", "from_manifest")


def _read_manifest(path: str, command: str) -> tuple[dict, dict]:
    """The recorded config (less its command) and input digests of a manifest."""
    with open(path, encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"manifest {path}: {exc}") from None
    if not isinstance(manifest, dict):
        raise ValueError(f"manifest {path} is not a JSON object")
    config, inputs = manifest.get("config"), manifest.get("inputs")
    if not isinstance(config, dict) or not isinstance(inputs, dict):
        raise ValueError(f"manifest {path} needs a 'config' and an 'inputs' object")
    for named in (manifest.get("command"), config.pop("command", command)):
        if named != command:
            raise ValueError(f"manifest {path} is for {named!r}, not {command!r}")
    return config, inputs


def _parse_values(sub: argparse.ArgumentParser, ns: argparse.Namespace, source: str,
                  values: dict) -> None:
    """Parse each `key = value` into ns as the flag the key names.

    A key is spelled as its flag (less the dashes) or as its destination.
    The value is parsed by sub as `--flag=value`, so it takes the flag's
    type and choices; a null is kept only where the flag's default is None.
    """
    for key, value in values.items():
        action = next((a for a in sub._actions if a.default is not argparse.SUPPRESS
                       and (key == a.dest or f"--{key}" in a.option_strings)), None)
        name = action.dest if action else key
        if action is None or name in _RESERVED_KEYS:
            raise ValueError(f"{source}: unknown config key {name!r}")
        if value is None:
            if action.default is not None:
                raise ValueError(f"{source}: config key {name!r} may not be null")
            setattr(ns, name, None)
            continue
        try:
            sub.parse_args([f"{action.option_strings[0]}={value}"], ns)
        except argparse.ArgumentError as exc:
            raise ValueError(f"{source}: config key {name!r}: {exc}") from None


def resolve_config(args: argparse.Namespace, sub: argparse.ArgumentParser,
                   argv: list[str]) -> tuple[dict, Callable[[str], str]]:
    """Merge defaults, config file, manifest, and argv flags (in that order).

    args is the parsed command line and argv its part after the subcommand.
    Config-file and manifest values are parsed by the subcommand's parser,
    sub, into the namespace that argv is then parsed into, so argv wins even
    where it repeats a flag's default. Returns the config and the lookup of
    its inputs' digests, hashed once for the replay check and the manifest.
    """
    # main has parsed argv already, so a bad value here is a file's and raises
    sub.exit_on_error = False
    ns = argparse.Namespace()
    recorded: dict = {}
    if args.config:
        _parse_values(sub, ns, f"config file {args.config}", _read_config_file(args.config))
    if args.from_manifest:
        config, recorded = _read_manifest(args.from_manifest, args.command)
        _parse_values(sub, ns, f"manifest {args.from_manifest}", config)
    cfg = vars(sub.parse_args(argv, ns))
    inputs = [a.option_strings[0] for a in sub._actions if a.dest in _INPUT_KEYS]
    if inputs and not any(cfg.get(key) for key in _INPUT_KEYS):
        raise ValueError(f"{' or '.join(inputs)} is required")

    # manifests must replay from anywhere, so inputs are pinned absolute
    for key in _INPUT_KEYS:
        if cfg.get(key):
            cfg[key] = os.path.abspath(cfg[key])
    # a replay trusts only the recorded inputs it reads, not those argv names
    # anew (every input flag defaults to None)
    replayed = {cfg[key] for key in _INPUT_KEYS if cfg.get(key) and getattr(args, key) is None}
    digest = _hash_inputs(list(dict.fromkeys(cfg[key] for key in _INPUT_KEYS if cfg.get(key))))
    for path, recorded_digest in recorded.items():
        if path in replayed and digest(path) != recorded_digest:
            raise ReplayMismatchError(f"input {path} changed since the manifest was written")
    if not cfg.get("out"):
        cfg["out"] = os.environ.get(_OUTDIR_ENV, "out")
    cfg["command"] = args.command
    return cfg, digest


def main(argv: Sequence[str] | None = None) -> int:
    gc.freeze()  # the import-time heap, nearly all numpy's, goes where no collection walks
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = build_parser(argv[0] if argv and argv[0] in HANDLERS else None)
    args = parser.parse_args(argv)
    try:
        cfg, digest = resolve_config(args, commands[args.command],
                                     argv[argv.index(args.command) + 1:])
        outdir = Path(cfg["out"])
        outdir.mkdir(parents=True, exist_ok=True)
        summary = HANDLERS[args.command](cfg, outdir)
        _manifest(cfg, outdir, digest)
    except (ValueError, OSError) as exc:
        # the program's error classes name their category; an error that is both
        # a ValueError and an OSError stays invalid-argument
        category = getattr(exc, "category",
                           "invalid-argument" if isinstance(exc, ValueError) else "io")
        # the library names a parameter as "{name}: {rule}, got {value}" (or
        # "{a}, {b}: ..."); each name that is a destination of the subcommand's
        # parser is spelled as that destination's flag
        message = str(exc)
        head, colon, rule = message.partition(": ")
        flags = {a.dest: a.option_strings[0] for a in commands[args.command]._actions}
        if category == "invalid-argument" and colon and all(n in flags for n in head.split(", ")):
            message = ", ".join(flags[n] for n in head.split(", ")) + colon + rule
        print(json.dumps({"status": "error", "category": category, "message": message},
                         sort_keys=True))
        return 1
    summary = {"command": args.command, "out": str(outdir), **summary, "status": "ok"}
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
