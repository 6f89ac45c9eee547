"""Shared builders for the test suite."""

from __future__ import annotations

import gc

import numpy as np
import pytest
from hypothesis import settings

from tripmatch.ingest import SynthConfig, generate_synthetic
from tripmatch.model import ScaleContext, Trip


# No example has a deadline: the properties run numpy work whose time varies
# with the machine's load. The profile inherits the one already loaded, such
# as hypothesis's own "ci" profile.
settings.register_profile("tripmatch", settings(deadline=None))
settings.load_profile("tripmatch")


def make_trip(trip_id: str, points: list[tuple[float, float, float]]) -> Trip:
    """Trip from (x, y, t) tuples."""
    return Trip(trip_id, points)


def straight_trip(
    trip_id: str,
    start: tuple[float, float],
    end: tuple[float, float],
    t0: float,
    t1: float,
    n: int = 2,
) -> Trip:
    """A straight-line trip with n evenly spaced waypoints."""
    xs = np.linspace(start[0], end[0], n)
    ys = np.linspace(start[1], end[1], n)
    ts = np.linspace(t0, t1, n)
    return make_trip(trip_id, list(zip(xs, ys, ts)))


@pytest.fixture(autouse=True)
def _unfreeze_heap():
    """Give the collector back the heap that a test's tripmatch.cli.main froze."""
    yield
    gc.unfreeze()


@pytest.fixture
def ctx() -> ScaleContext:
    """A 10 km x 10 km box over one hour."""
    return ScaleContext(0.0, 10_000.0, 0.0, 10_000.0, 0.0, 3600.0)


@pytest.fixture
def synth_trips() -> list[Trip]:
    """A small deterministic synthetic trip set."""
    box = ScaleContext(0.0, 20_000.0, 0.0, 20_000.0, 0.0, 86_400.0)
    cfg = SynthConfig(n=40, bbox=box, lognorm_mu=7.5, lognorm_sigma=0.5,
                      waypoints=6, seed=11)
    return generate_synthetic(cfg)


def rider_ride_population(
    seed: int, n_requests: int = 20, n_rides: int = 50, waypoints: int = 2
) -> tuple[list[Trip], list[Trip]]:
    """Requests plus rides perturbed off them, mixing feasible and infeasible.

    Roughly half the perturbations stay inside the default 1800 m / 900 s
    gates and the nested time order, so candidate sets are non-trivial but
    not universal.
    """
    rng = np.random.default_rng(seed)
    requests = []
    for i in range(n_requests):
        x0, y0 = rng.uniform(3000, 17_000, 2)
        heading = rng.uniform(0, 2 * np.pi)
        length = rng.uniform(3000, 6000)
        x1 = float(np.clip(x0 + length * np.cos(heading), 0, 20_000))
        y1 = float(np.clip(y0 + length * np.sin(heading), 0, 20_000))
        t0 = rng.uniform(0, 3000)
        requests.append(straight_trip(
            f"req-{i:03d}", (x0, y0), (x1, y1), t0, t0 + rng.uniform(1200, 2400),
            n=waypoints))
    rides = []
    for j in range(n_rides):
        base = requests[int(rng.integers(0, n_requests))]
        ox = float(np.clip(base.origin.x + rng.uniform(-1600, 1600), 0, 20_000))
        oy = float(np.clip(base.origin.y + rng.uniform(-1600, 1600), 0, 20_000))
        dx = float(np.clip(base.destination.x + rng.uniform(-1600, 1600), 0, 20_000))
        dy = float(np.clip(base.destination.y + rng.uniform(-1600, 1600), 0, 20_000))
        t0 = base.start_time + rng.uniform(-150, 450)
        t1 = base.end_time - rng.uniform(-150, 450)
        if t1 <= t0:
            t1 = t0 + 60
        rides.append(straight_trip(f"ride-{j:03d}", (ox, oy), (dx, dy),
                                   max(t0, 0.0), max(t1, t0 + 60), n=waypoints))
    return requests, rides
