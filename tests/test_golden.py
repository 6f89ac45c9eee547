"""Golden artifacts: every subcommand's output files, pinned by digest.

Each run in RUNS goes through `tripmatch.cli.main` on small inputs built
here from fixed seeds: a `synth` population, plus request, ride and fleet
populations written directly as JSONL. Every artifact a run writes is
compared with `golden.json` by SHA-256, manifests after the run directory
is replaced by a placeholder. `coords_*.csv` come from an eigensolver whose
last printed digit may round differently under another numpy build, so
they are compared value by value within 1e-6.

A change that alters an artifact on purpose regenerates the file with
`PYTHONPATH=src python tests/test_golden.py` and says in CHANGES.md which digests moved
and why.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from tripmatch.cli import main

GOLDEN = Path(__file__).with_name("golden.json")
ROOT = "<run-dir>"
#: One unit in the last printed digit of coords_*.csv, plus the error of reading it back.
COORDS_TOL = 1.001e-6

_SYNTH = "{run}/synth/trips.jsonl"
_PAIRS = ("--requests", "{run}/requests.jsonl", "--rides", "{run}/rides.jsonl")
_SWEEPS = ("--sweep-dist", "600,1800,3600", "--sweep-time", "300,900,1800", "--sweep-L", "1,3")

#: Run name -> argv after the subcommand's --out; runs go in this order.
RUNS: dict[str, tuple[str, ...]] = {
    "synth": ("synth", "--n", "60", "--waypoints", "10", "--seed", "7"),
    "stats": ("stats", "--trips", _SYNTH, "--grid-rows", "4", "--grid-cols", "5"),
    "affinity-wgm": ("affinity", "--trips", _SYNTH, "--scorer", "wgm"),
    "affinity-car": ("affinity", "--trips", _SYNTH, "--scorer", "car"),
    "affinity-cp": ("affinity", "--trips", _SYNTH, "--scorer", "cp"),
    "cluster": ("cluster", "--trips", _SYNTH, "--k", "4"),
    "cluster-cp": ("cluster", "--trips", _SYNTH, "--k", "3", "--scorer", "cp",
                   "--kernel-gamma", "2.0"),
    "match-car": ("match", *_PAIRS, "--mode", "car", *_SWEEPS),
    "match-carpool": ("match", *_PAIRS, "--mode", "carpool", *_SWEEPS),
    "match-carpool-inf": ("match", *_PAIRS, "--mode", "carpool", "--time-threshold", "inf",
                          *_SWEEPS),
    "compare": ("compare", *_PAIRS, "--rep-len", "8", "--wt-sweep", "0.1,0.5,0.9"),
    "carshare": ("carshare", "--trips", "{run}/fleet.jsonl"),
}

#: The populations' box: 8 km x 8 km x 2 h.
BOX, SPAN = 8000.0, 7200.0


def _write_trips(path: Path, prefix: str, origin: np.ndarray, dest: np.ndarray,
                 start: np.ndarray, end: np.ndarray, waypoints: int = 10) -> None:
    """Straight trips as JSONL, every value a multiple of 1/4 so it reads back exactly."""
    frac = np.linspace(0.0, 1.0, waypoints)[None, :, None]
    xy = origin[:, None] + frac * (dest - origin)[:, None]
    t = start[:, None, None] + frac * (end - start)[:, None, None]
    points = np.round(np.concatenate([t, xy], axis=2) * 4.0) / 4.0
    with open(path, "w") as fh:
        for i, trip in enumerate(points):
            fh.write(json.dumps({"id": f"{prefix}{i:03d}", "points": trip.tolist()}) + "\n")


def _write_inputs(run: Path) -> None:
    """Requests, rides perturbed off them (feasible in either mode or neither), a fleet."""
    rng = np.random.default_rng(2018)
    n_req, n_ride, n_fleet = 40, 160, 120
    origin, dest = rng.uniform(0.0, BOX, (2, n_req, 2))
    start = rng.uniform(0.0, SPAN, n_req)
    end = start + rng.uniform(900.0, 2400.0, n_req)
    _write_trips(run / "requests.jsonl", "req-", origin, dest, start, end)
    base = rng.integers(0, n_req, n_ride)
    _write_trips(run / "rides.jsonl", "ride-",
                 origin[base] + rng.uniform(-1500.0, 1500.0, (n_ride, 2)),
                 dest[base] + rng.uniform(-1500.0, 1500.0, (n_ride, 2)),
                 np.maximum(start[base] + rng.uniform(-400.0, 400.0, n_ride), 0.0),
                 end[base] + rng.uniform(-400.0, 400.0, n_ride))
    origin, dest = rng.uniform(0.0, BOX, (2, n_fleet, 2))
    start = rng.uniform(0.0, SPAN, n_fleet)
    _write_trips(run / "fleet.jsonl", "car-", origin, dest, start,
                 start + rng.uniform(300.0, 1200.0, n_fleet))


def _coords(path: Path) -> list[list]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return [[trip_id, float(x), float(y)] for trip_id, x, y in rows]


def _artifacts(run: Path, out: Path) -> dict:
    """Each file of out: its SHA-256, or for coords_*.csv its parsed rows."""
    found: dict = {}
    for path in sorted(out.iterdir()):
        if path.name.startswith("coords_"):
            found[path.name] = _coords(path)
            continue
        data = path.read_bytes()
        if path.name == "run_manifest.json":
            data = data.replace(str(run).encode(), ROOT.encode())
        found[path.name] = hashlib.sha256(data).hexdigest()
    return found


def run_all(run: Path) -> dict[str, dict]:
    """Every run of RUNS under the directory run: {run name: artifacts}."""
    _write_inputs(run)
    results = {}
    for name, argv in RUNS.items():
        out = run / name
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            code = main([a.format(run=run) for a in argv] + ["--out", str(out)])
        assert code == 0, f"{name}: {stdout.getvalue()}"
        results[name] = _artifacts(run, out)
    return results


@pytest.fixture(scope="module")
def produced(tmp_path_factory) -> dict[str, dict]:
    return run_all(tmp_path_factory.mktemp("golden"))


def assert_golden(name: str, got: dict) -> None:
    """got, the _artifacts of run name, equals its entry in golden.json."""
    want = json.loads(GOLDEN.read_text())[name]
    assert sorted(got) == sorted(want)
    for file, digest in want.items():
        if file.startswith("coords_"):
            assert [row[0] for row in got[file]] == [row[0] for row in digest]
            np.testing.assert_allclose([row[1:] for row in got[file]],
                                       [row[1:] for row in digest], rtol=0, atol=COORDS_TOL)
        else:
            assert got[file] == digest, f"{name}/{file} changed"


@pytest.mark.parametrize("name", list(RUNS))
def test_artifacts_match_golden(name, produced):
    assert_golden(name, produced[name])


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        produced = run_all(Path(tmp))
    # one line per artifact
    GOLDEN.write_text("{\n" + ",\n".join(
        f" {json.dumps(name)}: {{\n"
        + ",\n".join(f"  {json.dumps(file)}: {json.dumps(value)}" for file, value in files.items())
        + "\n }" for name, files in produced.items()) + "\n}\n")
    print(f"wrote {GOLDEN}")
