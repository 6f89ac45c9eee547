"""Distribution fitting, correlation, empirical CDFs, and spatial grid aggregates."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .model import ScaleContext, Trip, TripSet, check_param, od_points


class DegenerateFitError(ValueError):
    """Raised when samples carry no usable variation for a fit."""

    category = "degenerate-fit"


@dataclass(frozen=True, slots=True)
class FitResult:
    """A fitted distribution: family, its two parameters, and the fit quality.

    params is (mu, sigma) for "lognormal" and (shape, scale) for "gamma".
    """

    family: str
    params: tuple[float, float]
    log_likelihood: float
    n: int


def _validated_positive(samples: Sequence[float] | np.ndarray) -> np.ndarray:
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("need at least 2 one-dimensional samples")
    if np.any(arr <= 0) or not np.all(np.isfinite(arr)):
        raise ValueError("samples must be positive and finite")
    return arr


def fit_lognormal(samples: Sequence[float] | np.ndarray) -> FitResult:
    """Maximum-likelihood lognormal fit: mu/sigma are the mean/std of ln(x)."""
    arr = _validated_positive(samples)
    logs = np.log(arr)
    mu = float(logs.mean())
    sigma = float(np.sqrt(((logs - mu) ** 2).mean()))
    if sigma == 0.0:
        raise DegenerateFitError("log-samples have zero variance")
    n = arr.size
    loglik = float(
        -logs.sum() - n * math.log(sigma) - 0.5 * n * math.log(2 * math.pi)
        - ((logs - mu) ** 2).sum() / (2 * sigma * sigma)
    )
    return FitResult("lognormal", (mu, sigma), loglik, n)


#: Newton steps fit_gamma takes at most.
_GAMMA_MAX_ITER = 100


def fit_gamma(samples: Sequence[float] | np.ndarray) -> FitResult:
    """Maximum-likelihood gamma fit.

    Solves ln(k) - psi(k) = ln(mean) - mean(ln x) for the shape k by Newton
    iteration from the standard closed-form initial guess, then sets
    scale = mean / k. Converges when |step| < 1e-10 * k.
    """
    # imported here: scipy.special costs about a third of a second to import,
    # and no other subcommand needs it
    from scipy.special import digamma, polygamma

    arr = _validated_positive(samples)
    mean = float(arr.mean())
    mean_log = float(np.log(arr).mean())
    s = math.log(mean) - mean_log
    if s <= 0:
        raise DegenerateFitError("samples have no log-dispersion; gamma fit undefined")
    k = (3.0 - s + math.sqrt((s - 3.0) ** 2 + 24.0 * s)) / (12.0 * s)
    for _ in range(_GAMMA_MAX_ITER):
        step = float((math.log(k) - digamma(k) - s) / (1.0 / k - polygamma(1, k)))
        new_k = k - step
        if new_k <= 0:
            new_k = k / 2.0
        k, done = new_k, abs(step) < 1e-10 * k
        if done:
            break
    theta = mean / k
    n = arr.size
    loglik = float(
        (k - 1.0) * np.log(arr).sum() - arr.sum() / theta
        - n * k * math.log(theta) - n * math.lgamma(k)
    )
    return FitResult("gamma", (k, theta), loglik, n)


def pearson(xs: Sequence[float] | np.ndarray, ys: Sequence[float] | np.ndarray) -> float:
    """Sample Pearson correlation coefficient of two equal-length sequences."""
    a = np.asarray(xs, dtype=float)
    b = np.asarray(ys, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or a.size < 2:
        raise ValueError("need two equal-length 1-d sequences with n >= 2")
    da = a - a.mean()
    db = b - b.mean()
    va = float((da * da).sum())
    vb = float((db * db).sum())
    if va == 0.0 or vb == 0.0:
        raise ValueError("correlation undefined: a sequence has zero variance")
    return float((da * db).sum() / math.sqrt(va * vb))


def empirical_cdf(samples: Sequence[float] | np.ndarray) -> list[tuple[float, float]]:
    """Empirical CDF as (value, P[X <= value]) steps; tied values collapse."""
    arr = np.asarray(samples, dtype=float)
    if arr.size < 1:
        raise ValueError("need at least one sample")
    values, counts = np.unique(arr, return_counts=True)
    probs = np.cumsum(counts) / arr.size
    return [(float(v), float(p)) for v, p in zip(values, probs)]


def _cells_of(x: np.ndarray, y: np.ndarray, ctx: ScaleContext, rows: int, cols: int
              ) -> np.ndarray:
    """Flat cell index row * cols + col of each point."""
    # Points on or past the upper bound clamp into the last cell.
    col = np.clip((x - ctx.x_min) / ctx.x_span * cols, 0, cols - 1).astype(np.intp)
    row = np.clip((y - ctx.y_min) / ctx.y_span * rows, 0, rows - 1).astype(np.intp)
    return row * cols + col


def _distinct(keys: np.ndarray) -> np.ndarray:
    """np.unique(keys) of nonnegative integers, without the numpy.ma import it makes."""
    keys = np.sort(keys)
    return keys[np.flatnonzero(np.diff(keys, prepend=-1))]


def check_grid(grid_rows: int, grid_cols: int) -> None:
    """Raise ValueError unless the grid has at least one row and one column."""
    for name, size in (("grid_rows", grid_rows), ("grid_cols", grid_cols)):
        check_param(name, size, size >= 1, "must be at least 1")


def grid_unique_counts(
    trips: Iterable[Trip] | TripSet, ctx: ScaleContext, rows: int, cols: int
) -> np.ndarray:
    """(rows, cols) counts of the distinct trips touching each cell; revisits count once."""
    check_grid(rows, cols)
    trips = TripSet.of(trips)
    owner = np.repeat(np.arange(len(trips)), trips.counts)
    cells = _cells_of(trips.xyt[:, 0], trips.xyt[:, 1], ctx, rows, cols)
    visits = _distinct(owner * (rows * cols) + cells)
    counts = np.bincount(visits % (rows * cols), minlength=rows * cols)
    return counts.reshape(rows, cols)


def grid_duration_stats(
    trips: Iterable[Trip] | TripSet, ctx: ScaleContext, rows: int, cols: int
) -> np.ndarray:
    """(rows, cols, 5) duration (min, q1, median, q3, max) per origin cell; NaN when empty."""
    check_grid(rows, cols)
    od = od_points(trips)
    cells = _cells_of(od[:, 0, 0], od[:, 0, 1], ctx, rows, cols)
    durations = od[:, 1, 2] - od[:, 0, 2]
    out = np.full((rows * cols, 5), np.nan)
    for cell in _distinct(cells).tolist():
        out[cell] = np.percentile(durations[cells == cell], [0, 25, 50, 75, 100])
    return out.reshape(rows, cols, 5)
