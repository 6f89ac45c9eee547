"""Seeded benchmark inputs and the CLI command of each workload.

The inputs are generated here, never by `tripmatch synth`, so a change to
the program's synthesizer cannot change what the benchmark measures. Every
coordinate and time is a multiple of 1/4 (exact in binary floating point
and printed exactly with two decimals), so the independent checks read back
the very floats the program parses.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: The paper-like box: 20 km x 20 km x 4 h, as (x_max, y_max, t_max) from 0.
BOX = (20_000.0, 20_000.0, 14_400.0)
WAYPOINTS = 60
LOGNORM_MU, LOGNORM_SIGMA = 7.3, 0.4
GAMMA_SHAPE, GAMMA_SCALE = 4.0, 300.0
JITTER_FRAC = 0.05

#: Workload name -> why it exists (mirrored in BENCHMARK.json).
WHY = {
    "cluster": "dense all-pairs car scoring plus spectral clustering of 352 trips "
               "in 8 planted groups; stresses metrics WGM scoring and affinity",
    "fleet": "carshare over 1300 paper-like trips; stresses the n^2 hand-off DAG "
             "build and the dense assignment",
    "match": "1000 x 5000 catch-a-ride matching with a 4 x 2 threshold sweep; "
             "stresses JSONL loading and repeated candidate filtering",
    "compare": "400 x 1500 matching under six metrics at 50 waypoints, 80 candidate "
               "pairs for every seed; the only workload that runs the O(m n) DP metrics",
}
NAMES = tuple(WHY)

#: compare's rides come from a larger pool so that every seed yields exactly
#: this many candidate pairs, and so the same DP-metric work.
COMPARE_CANDIDATES, COMPARE_RIDE_POOL = 80, 2250

MATCH_SWEEP_DIST = (600.0, 1200.0, 1800.0, 3600.0)
MATCH_SWEEP_L = (1, 5)
DIST_THRESHOLD, TIME_THRESHOLD = 1800.0, 900.0
REP_LEN = 50
CLUSTER_GROUPS = 8

#: Trips per input file of each workload.
SIZES = {
    "cluster": {"trips": 352},
    "fleet": {"trips": 1300},
    "match": {"requests": 1000, "rides": 5000},
    "compare": {"requests": 400, "rides": 1500},
}


@dataclass(frozen=True)
class Population:
    """Trips as stacked arrays: ids and an (n, m, 3) array of x, y, t."""

    ids: tuple[str, ...]
    xyt: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)


def _quarter(a: np.ndarray) -> np.ndarray:
    return np.round(a * 4.0) / 4.0


def _trips_along(rng: np.random.Generator, origin: np.ndarray, dest: np.ndarray,
                 start: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Straight-line trips with jittered interior waypoints, quantised to 1/4."""
    n = len(origin)
    frac = np.linspace(0.0, 1.0, WAYPOINTS)
    xy = origin[:, None, :] + frac[None, :, None] * (dest - origin)[:, None, :]
    sigma = JITTER_FRAC * np.hypot(*(dest - origin).T)
    xy[:, 1:-1, :] += rng.normal(0.0, 1.0, (n, WAYPOINTS - 2, 2)) * sigma[:, None, None]
    xy = np.clip(xy, 0.0, BOX[0])
    t = start[:, None] + frac[None, :] * duration[:, None]
    return _quarter(np.concatenate([xy, t[:, :, None]], axis=2))


def paper_like(rng: np.random.Generator, n: int, prefix: str) -> Population:
    """Trips with the README's synth marginals: lognormal displacement, gamma duration."""
    duration = rng.gamma(GAMMA_SHAPE, GAMMA_SCALE, n)
    displacement = rng.lognormal(LOGNORM_MU, LOGNORM_SIGMA, n)
    start = rng.uniform(0.0, BOX[2] - duration)
    origin = np.empty((n, 2))
    dest = np.empty((n, 2))
    todo = np.arange(n)
    while len(todo):
        o = rng.uniform(0.0, BOX[0], (len(todo), 2))
        theta = rng.uniform(0.0, 2.0 * np.pi, len(todo))
        d = o + displacement[todo, None] * np.column_stack([np.cos(theta), np.sin(theta)])
        inside = np.all((d >= 0.0) & (d <= BOX[0]), axis=1)
        origin[todo[inside]], dest[todo[inside]] = o[inside], d[inside]
        todo = todo[~inside]
    ids = tuple(f"{prefix}{i:05d}" for i in range(n))
    return Population(ids, _trips_along(rng, origin, dest, start, duration))


def planted(rng: np.random.Generator, n: int) -> tuple[Population, np.ndarray]:
    """Well-separated groups: each has its own origin, destination and start time.

    Returns the population, shuffled, and each trip's planted group.
    """
    g = np.repeat(np.arange(CLUSTER_GROUPS), n // CLUSTER_GROUPS)
    angle = 2.0 * np.pi * g / CLUSTER_GROUPS
    centre = np.array([BOX[0], BOX[1]]) / 2.0
    ring = np.column_stack([np.cos(angle), np.sin(angle)])
    twist = np.column_stack([np.cos(angle + 2.4), np.sin(angle + 2.4)])
    n = len(g)
    origin = centre + 7_000.0 * ring + rng.normal(0.0, 150.0, (n, 2))
    dest = centre + 4_000.0 * twist + rng.normal(0.0, 150.0, (n, 2))
    start = 600.0 + 1_500.0 * g + rng.normal(0.0, 120.0, n)
    duration = rng.gamma(GAMMA_SHAPE, GAMMA_SCALE / 4.0, n) + 600.0
    order = rng.permutation(n)
    xyt = _trips_along(rng, origin[order], dest[order], start[order], duration[order])
    ids = tuple(f"trip-{i:05d}" for i in range(n))
    return Population(ids, xyt), g[order]


def candidate_pairs(req: np.ndarray, ride: np.ndarray, dist: float) -> tuple[np.ndarray, np.ndarray]:
    """Catch-a-ride candidates among (n, m, 3) x, y, t arrays, as (request, ride) indices.

    Both endpoint offsets within `dist` meters and TIME_THRESHOLD seconds,
    and the ride's window nested inside the request's.
    """
    out_i, out_j = [], []
    for lo in range(0, len(req), 256):
        r = req[lo:lo + 256]
        ok = ride[None, :, 0, 2] >= r[:, None, 0, 2]
        ok &= ride[None, :, -1, 2] <= r[:, None, -1, 2]
        ok &= np.abs(ride[None, :, 0, 2] - r[:, None, 0, 2]) <= TIME_THRESHOLD
        ok &= np.abs(ride[None, :, -1, 2] - r[:, None, -1, 2]) <= TIME_THRESHOLD
        for end in (0, -1):
            ok &= np.hypot(ride[None, :, end, 0] - r[:, None, end, 0],
                           ride[None, :, end, 1] - r[:, None, end, 1]) <= dist
        i, j = np.nonzero(ok)
        out_i.append(i + lo)
        out_j.append(j)
    return np.concatenate(out_i), np.concatenate(out_j)


def rides_with_candidates(requests: Population, pool: Population, n: int,
                          target: int) -> Population:
    """`n` rides from `pool`, in pool order, with exactly `target` candidate pairs.

    Rides that are candidates for some request are taken first come, first
    served, while they fit under `target`; the rest are rides that are no
    request's candidate.
    """
    _, j = candidate_pairs(requests.xyt, pool.xyt, DIST_THRESHOLD)
    per_ride = np.bincount(j, minlength=len(pool)).tolist()
    total, hits = 0, []
    for k, c in enumerate(per_ride):
        if c and total + c <= target:
            hits.append(k)
            total += c
    misses = [k for k, c in enumerate(per_ride) if not c][:n - len(hits)]
    if total != target or len(hits) + len(misses) != n:
        raise ValueError(f"the ride pool cannot give {n} rides with {target} candidates")
    ids = tuple(f"ride-{i:05d}" for i in range(n))
    return Population(ids, pool.xyt[sorted(hits + misses)])


def write_jsonl(pop: Population, path: Path) -> None:
    """The documented trips.jsonl format: {"id": ..., "points": [[t, x, y], ...]}."""
    with open(path, "w") as fh:
        for tid, pts in zip(pop.ids, pop.xyt):
            body = ",".join(f"[{t:.2f},{x:.2f},{y:.2f}]" for x, y, t in pts.tolist())
            fh.write(f'{{"id":"{tid}","points":[{body}]}}\n')


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


@dataclass(frozen=True)
class Inputs:
    """One workload's generated inputs, written to disk, plus what checks need."""

    workload: str
    files: dict[str, Path]
    pops: dict[str, Population]
    truth: np.ndarray | None = None

    def cli_args(self, out: Path) -> list[str]:
        f = {k: str(v) for k, v in self.files.items()}
        if self.workload == "cluster":
            return ["cluster", "--trips", f["trips"], "--scorer", "car", "--k",
                    str(CLUSTER_GROUPS), "--out", str(out)]
        if self.workload == "fleet":
            return ["carshare", "--trips", f["trips"], "--out", str(out)]
        split = ["--requests", f["requests"], "--rides", f["rides"]]
        if self.workload == "match":
            return ["match", *split, "--mode", "car",
                    "--sweep-dist", ",".join(f"{d:g}" for d in MATCH_SWEEP_DIST),
                    "--sweep-L", ",".join(str(v) for v in MATCH_SWEEP_L), "--out", str(out)]
        return ["compare", *split, "--rep-len", str(REP_LEN), "--out", str(out)]


def generate(workload: str, seed: int, workdir: Path, scale: float = 1.0) -> Inputs:
    """Draw the workload's inputs from `seed` and write them under `workdir`.

    `scale` shrinks every input for the benchmark's self-tests.
    """
    rng = np.random.default_rng([seed, NAMES.index(workload)])
    sizes = {name: int(n * scale) for name, n in SIZES[workload].items()}
    truth = None
    if workload == "cluster":
        pop, truth = planted(rng, sizes["trips"])
        pops = {"trips": pop}
    else:
        prefix = {"trips": "trip-", "requests": "req-", "rides": "ride-"}
        if workload == "compare":
            requests = paper_like(rng, sizes["requests"], "req-")
            pool = paper_like(rng, int(COMPARE_RIDE_POOL * scale), "pool-")
            pops = {"requests": requests, "rides": rides_with_candidates(
                requests, pool, sizes["rides"], int(COMPARE_CANDIDATES * scale ** 2))}
        else:
            pops = {name: paper_like(rng, n, prefix[name]) for name, n in sizes.items()}
    files = {}
    for name, pop in pops.items():
        files[name] = workdir / f"{name}.jsonl"
        write_jsonl(pop, files[name])
    return Inputs(workload, files, pops, truth)
