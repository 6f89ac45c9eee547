"""Traced run: one CLI run in this process, every tripmatch layer wrapped from outside.

Usage: python3 perfbench/tracing.py SRC_DIR SPANS_FILE RUN_ID -- CLI_ARGS...

Nothing under src/ changes. Each listed function is replaced, in every
tripmatch namespace that binds the same object, by a wrapper that records
a span (name, start, end, parent; all spans of the file share one run id)
and derives counts from its arguments and results. The hot scalar helpers
`psim` and `_xy_dist` are not wrapped: a wrapper would cost more than the
call, so their work is counted from the arguments of the calls that make
them. Spans are kept in typed arrays and written as one JSON file when the
CLI returns. `layer_metrics` turns that file into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter
from typing import Callable

import numpy as np

#: Wrapped functions per module. `_candidate_indices` is private but it is
#: the candidate filter itself, run once per threshold pass.
WRAPPED = {
    "ingest": ("read_trips_jsonl",),
    "model": ("ScaleContext.from_trips", "od_rep", "sampled_rep", "path_length",
              "spatial_distance"),
    "metrics": ("wgm_sim", "car_score", "cp_score", "lcss", "dtw", "frechet_discrete"),
    "affinity": ("build_affinity", "sym_decompose", "spectral_cluster", "kmeans",
                 "pca_2d", "mds_2d"),
    "matching": ("_candidate_indices", "greedy_match", "match_counts_curve",
                 "compare_metrics", "savings_accounting"),
    "carshare": ("schedule_trips", "build_trip_dag", "dag_to_bipartite",
                 "max_card_max_weight_matching", "extract_chains", "chain_stats"),
}

#: Per-layer time metric -> the spans whose self time it sums.
TIME_FAMILIES = {
    "cli.import_s": ("cli.import",),
    "cli.self_s": ("cli.main", "cli.handler"),
    "ingest.load_s": ("ingest.read_trips_jsonl",),
    "model.rep_s": tuple(f"model.{f}" for f in WRAPPED["model"]),
    "metrics.wgm_s": ("metrics.wgm_sim", "metrics.car_score", "metrics.cp_score"),
    "metrics.dp_s": ("metrics.lcss", "metrics.dtw", "metrics.frechet_discrete"),
    "affinity.build_s": ("affinity.build_affinity", "affinity.sym_decompose"),
    "affinity.spectral_s": ("affinity.spectral_cluster",),
    "affinity.kmeans_s": ("affinity.kmeans",),
    "affinity.embed_s": ("affinity.pca_2d", "affinity.mds_2d"),
    "matching.filter_s": ("matching._candidate_indices",),
    "matching.greedy_s": ("matching.greedy_match", "matching.match_counts_curve",
                          "matching.savings_accounting"),
    "matching.compare_s": ("matching.compare_metrics",),
    "carshare.dag_s": ("carshare.schedule_trips", "carshare.build_trip_dag"),
    "carshare.assign_s": ("carshare.dag_to_bipartite", "carshare.max_card_max_weight_matching"),
    "carshare.chains_s": ("carshare.extract_chains", "carshare.chain_stats"),
}
_FAMILY_OF = {span: fam for fam, spans in TIME_FAMILIES.items() for span in spans}

#: Counts reported as they are recorded.
COUNTS = ("ingest.trips_loaded", "ingest.bytes_read", "model.calls", "metrics.wgm_calls",
          "metrics.psim_evals", "metrics.dp_cells", "affinity.pairs_scored",
          "matching.pairs_screened", "matching.filter_passes", "carshare.pairs_screened", "carshare.dag_edges",
          "carshare.cardinality")

#: The scoring pass is the filter run on behalf of these callers (not the sweep).
_SCORING_CALLERS = ("matching.greedy_match", "matching.compare_metrics")


class Recorder:
    """Spans in parallel typed arrays, a stack of open spans, and counters."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack = [-1]
        self.counts: Counter[str] = Counter()

    def intern(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def open(self, name_ix: int) -> int:
        idx = len(self.start)
        self.name.append(name_ix)
        self.parent.append(self.stack[-1])
        self.end.append(float("nan"))
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def current(self) -> str | None:
        top = self.stack[-1]
        return None if top < 0 else self.names[self.name[top]]

    def to_json(self) -> dict:
        return {
            "run": self.run_id,
            "clock": "time.perf_counter, seconds",
            "names": self.names,
            "spans": {"name": self.name.tolist(), "start": self.start.tolist(),
                      "end": self.end.tolist(), "parent": self.parent.tolist()},
            "counts": dict(self.counts),
        }


def _arg(fn: Callable, args: tuple, kwargs: dict, name: str, default=None):
    """One argument of a call by parameter name, whatever way it was passed."""
    try:
        bound = inspect.signature(fn).bind_partial(*args, **kwargs)
    except TypeError:
        return default
    bound.apply_defaults()
    return bound.arguments.get(name, default)


# -- counts derived from call arguments and results ------------------------

def _count_wgm(rec: Recorder, fn, args, kwargs, result) -> None:
    rec.counts["metrics.wgm_calls"] += 1
    rec.counts["metrics.psim_evals"] += len(args[0])


def _count_dp(rec: Recorder, fn, args, kwargs, result) -> None:
    rec.counts["metrics.dp_cells"] += len(args[0]) * len(args[1])


def _count_affinity(rec: Recorder, fn, args, kwargs, result) -> None:
    n = len(_arg(fn, args, kwargs, "reps"))
    sym = _arg(fn, args, kwargs, "symmetric_scorer", False)
    rec.counts["affinity.pairs_scored"] += n * (n + 1) // 2 if sym else n * n


def _count_filter(rec: Recorder, fn, args, kwargs, result) -> None:
    pairs = len(_arg(fn, args, kwargs, "requests")) * len(_arg(fn, args, kwargs, "rides"))
    rec.counts["matching.pairs_screened"] += pairs
    rec.counts["matching.filter_passes"] += 1
    if rec.current() in _SCORING_CALLERS:
        rec.counts["matching.scored_pairs"] += pairs
        rec.counts["matching.scored_candidates"] += sum(len(c) for c in result)


def _count_dag(rec: Recorder, fn, args, kwargs, result) -> None:
    n = len(_arg(fn, args, kwargs, "trips"))
    rec.counts["carshare.pairs_screened"] += n * (n - 1)
    rec.counts["carshare.dag_edges"] += len(result.edges)
    if not _arg(fn, args, kwargs, "whole_trip_weight", False):
        rec.counts["metrics.psim_evals"] += len(result.edges)  # one hand-off psim per edge


def _count_chains(rec: Recorder, fn, args, kwargs, result) -> None:
    rec.counts["carshare.cardinality"] += result.cardinality


_COUNT_HOOKS = {
    "metrics.wgm_sim": _count_wgm,
    "metrics.lcss": _count_dp,
    "metrics.dtw": _count_dp,
    "metrics.frechet_discrete": _count_dp,
    "affinity.build_affinity": _count_affinity,
    "matching._candidate_indices": _count_filter,
    "carshare.build_trip_dag": _count_dag,
    "carshare.extract_chains": _count_chains,
}


def _wrap(rec: Recorder, span: str, fn: Callable) -> Callable:
    ix = rec.intern(span)
    family = _FAMILY_OF.get(span)
    hook = _COUNT_HOOKS.get(span)
    is_model = span.startswith("model.")

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        # a call made from a span of its own family (wgm_sim inside car_score)
        # would only move time within that family, so it records no span
        if _FAMILY_OF.get(rec.current()) == family:
            result = fn(*args, **kwargs)
        else:
            idx = rec.open(ix)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(idx)
        if is_model:
            rec.counts["model.calls"] += 1
        if hook is not None:
            hook(rec, fn, args, kwargs, result)
        return result

    return traced


def _wrap_generator(rec: Recorder, span: str, fn: Callable) -> Callable:
    """A generator's span runs from its first item until it is exhausted."""
    ix = rec.intern(span)

    def counting(source):
        for line in source:
            rec.counts["ingest.bytes_read"] += len(line)  # the inputs are ASCII
            yield line

    @functools.wraps(fn)
    def traced(source, *args, **kwargs):
        idx = rec.open(ix)
        try:
            for item in fn(counting(source), *args, **kwargs):
                rec.counts["ingest.trips_loaded"] += 1
                yield item
        finally:
            rec.close(idx)

    return traced


def _rebind(old: object, new: object) -> None:
    """Point every tripmatch module attribute bound to `old` at `new`."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "tripmatch" and not mod_name.startswith("tripmatch."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


def install(rec: Recorder) -> list[str]:
    """Wrap every function in WRAPPED that the program still has; return the missing."""
    missing = []
    for module, names in WRAPPED.items():
        mod = importlib.import_module(f"tripmatch.{module}")
        for name in names:
            span = f"{module}.{name}"
            owner_name, _, attr = name.rpartition(".")
            owner = getattr(mod, owner_name) if owner_name else mod
            raw = inspect.getattr_static(owner, attr, None)
            if raw is None:
                missing.append(span)
            elif isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(_wrap(rec, span, raw.__func__)))
            elif inspect.isgeneratorfunction(raw):
                _rebind(raw, _wrap_generator(rec, span, raw))
            else:
                _rebind(raw, _wrap(rec, span, raw))
    return missing


def traced_main(src: str, spans_file: str, run_id: str, cli_args: list[str]) -> int:
    rec = Recorder(run_id)
    sys.path.insert(0, src)
    idx = rec.open(rec.intern("cli.import"))
    from tripmatch import cli
    rec.close(idx)

    missing = install(rec)
    handler_ix = rec.intern("cli.handler")
    for name, handler in list(cli.HANDLERS.items()):
        def entered(cfg, outdir, _handler=handler):
            idx = rec.open(handler_ix)
            try:
                return _handler(cfg, outdir)
            finally:
                rec.close(idx)
        cli.HANDLERS[name] = entered

    idx = rec.open(rec.intern("cli.main"))
    try:
        code = cli.main(cli_args)
    finally:
        rec.close(idx)
    doc = rec.to_json()
    doc["unwrapped"] = missing
    with open(spans_file, "w") as fh:
        json.dump(doc, fh)
    return code


# -- reading a span file ----------------------------------------------------

def self_times(doc: dict) -> dict[str, float]:
    """Self time per span name: each span's duration minus its children's."""
    spans = doc["spans"]
    name = np.asarray(spans["name"], dtype=np.int64)
    parent = np.asarray(spans["parent"], dtype=np.int64)
    dur = np.asarray(spans["end"]) - np.asarray(spans["start"])
    if len(dur) == 0:
        return {}
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    per_name = np.bincount(name, weights=dur - child, minlength=len(doc["names"]))
    return {n: float(per_name[i]) for i, n in enumerate(doc["names"])}


def layer_metrics(doc: dict) -> dict[str, float]:
    """Per-layer times (s) and counts from one traced run's span file."""
    selfs = self_times(doc)
    counts = Counter(doc["counts"])
    out = {fam: sum(selfs.get(s, 0.0) for s in spans) for fam, spans in TIME_FAMILIES.items()}
    passes = counts["matching.filter_passes"]
    out["matching.filter_s"] = out["matching.filter_s"] / passes if passes else 0.0
    for key in COUNTS:
        out[key] = counts[key]
    scored = counts["matching.scored_pairs"]
    out["matching.candidate_yield"] = counts["matching.scored_candidates"] / scored if scored else 0.0
    pairs = counts["carshare.pairs_screened"]
    out["carshare.edge_yield"] = counts["carshare.dag_edges"] / pairs if pairs else 0.0
    return out


if __name__ == "__main__":
    src_dir, out_file, run, sep, *rest = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: tracing.py SRC_DIR SPANS_FILE RUN_ID -- CLI_ARGS...")
    sys.exit(traced_main(src_dir, out_file, run, rest))
