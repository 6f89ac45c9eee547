"""Affinity matrices, symmetric decomposition, spectral clustering, 2-D embeddings."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .model import check_param, check_seed


class DegenerateInputError(ValueError):
    """Raised when input carries no usable structure (zero rows/variance)."""

    category = "degenerate-input"


Scorer = Callable[[np.ndarray, np.ndarray], float]

#: k-means++ seedings per kmeans call, and Lloyd iterations per seeding.
KMEANS_RESTARTS = 100
KMEANS_MAX_ITER = 300
#: Rows per block when checking a square matrix for finiteness and symmetry.
CHECK_ROWS = 256


def check_trip_count(n: int) -> None:
    """Raise ValueError unless an affinity matrix over n trips has at least two."""
    if n < 2:
        raise ValueError("affinity needs at least two trips")


@dataclass(frozen=True, slots=True)
class AffinityMatrix:
    """Dense pairwise score matrix over a trip set; asymmetric scorers allowed."""

    values: np.ndarray


def build_affinity(
    reps: Sequence[np.ndarray], scorer: Scorer, symmetric_scorer: bool = False
) -> AffinityMatrix:
    """Score every ordered pair of scaled trip representations.

    A[i, j] = scorer(reps[i], reps[j]). With symmetric_scorer=True only the
    upper triangle is evaluated (n(n+1)/2 calls) and mirrored; otherwise
    all n^2 entries are computed.
    """
    n = len(reps)
    check_trip_count(n)
    values = np.empty((n, n), dtype=float)
    for i in range(n):
        for j in range(i if symmetric_scorer else 0, n):
            values[i, j] = scorer(reps[i], reps[j])
            if symmetric_scorer:
                values[j, i] = values[i, j]
    return AffinityMatrix(values)


def sym_decompose(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Split A into symmetric and anti-symmetric parts.

    Returns (S, K, ratio) with S = (A + A^T)/2, K = (A - A^T)/2 and
    ratio = ||S||_F^2 / ||A||_F^2, the share of the matrix energy in the
    symmetric part. A = S + K and the Frobenius norms are orthogonal:
    ||A||^2 = ||S||^2 + ||K||^2.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    s = (a + a.T) / 2.0
    k = (a - a.T) / 2.0
    total = float((a * a).sum())
    ratio = float((s * s).sum()) / total if total > 0 else 1.0
    return s, k, ratio


def _distinct_rows(points: np.ndarray) -> int:
    """The number of distinct rows of points; -0.0 equals 0.0, as in a squared distance."""
    ordered = points[np.lexsort(points.T)]
    return 1 + int(np.count_nonzero((ordered[1:] != ordered[:-1]).any(axis=1)))


def _sq_dists(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(restarts, n) squared distances from each point to each restart's center.

    The columns are added one at a time, in the order ((points - center) ** 2).sum(axis=1)
    adds them over column-major points, so each row is bit-equal to that sum.
    """
    d2 = (points[:, 0] - centers[:, 0, None]) ** 2
    for j in range(1, points.shape[1]):
        d2 += (points[:, j] - centers[:, j, None]) ** 2
    return d2


def _kmeans_pp_seeds(points: np.ndarray, k: int, rng: np.random.Generator,
                     restarts: int) -> np.ndarray:
    """k-means++ seedings of `restarts` runs at once: (restarts, k, d) centers.

    Each restart's first center is a uniform point, and each later one a
    point drawn with probability proportional to its squared distance from
    the nearest center so far; once every distinct point is a center, the
    rest are uniform. The rng numbers are drawn first, restart by restart
    with the calls the one-restart loop made (`rng.integers(n)`, then the one
    `rng.random()` that `rng.choice(n, p=d2 / d2.sum())` consumes per
    sampled center), and the draws are then resolved on (restarts, n)
    arrays with choice's own arithmetic, so every center is bit-equal to
    seeding the restarts one after another.
    """
    n = points.shape[0]
    m = min(k, _distinct_rows(points))  # centers 1..m-1 are sampled by distance
    firsts, uniforms, lates = [], [], []
    for _ in range(restarts):
        firsts.append(rng.integers(n))
        uniforms.append([rng.random() for _ in range(m - 1)])
        lates.append([rng.integers(n) for _ in range(k - m)])
    centers = np.empty((restarts, k, points.shape[1]))
    centers[:, 0] = points[firsts]
    d2 = _sq_dists(points, centers[:, 0])
    u = np.array(uniforms).reshape(restarts, m - 1)
    for c in range(1, m):
        total = d2.sum(axis=1)
        assert (total > 0).all()
        cdf = np.cumsum(d2 / total[:, None], axis=1)
        cdf /= cdf[:, -1:]
        # searchsorted(cdf, u, side="right") on each row
        centers[:, c] = points[np.count_nonzero(cdf <= u[:, c - 1, None], axis=1)]
        d2 = np.minimum(d2, _sq_dists(points, centers[:, c]))
    if m < k:
        assert not d2.any()
        centers[:, m:] = points[np.array(lates, dtype=np.intp).reshape(restarts, k - m)]
    return centers


def _lloyd(points: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, float]:
    """Lloyd iterations until assignments stabilize; returns labels and inertia.

    At most KMEANS_MAX_ITER center updates run; the labels and inertia come
    from the assignment pass after the last one.
    """
    labels = np.full(points.shape[0], -1)
    for step in range(KMEANS_MAX_ITER + 1):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = d2.argmin(axis=1)
        if step == KMEANS_MAX_ITER or np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(centers.shape[0]):
            members = points[labels == c]
            if len(members) > 0:
                centers[c] = members.mean(axis=0)
            else:
                # revive an empty cluster at the worst-served point
                centers[c] = points[d2.min(axis=1).argmax()]
    return new_labels, float(d2[np.arange(points.shape[0]), new_labels].sum())


def kmeans(points: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Seeded k-means with KMEANS_RESTARTS k-means++ restarts; keeps the lowest-inertia run."""
    check_param("k", k, 1 <= k <= points.shape[0], f"must be in [1, {points.shape[0]}]")
    check_seed(seed)
    if not np.isfinite(points).all():
        raise ValueError("k-means points must be finite")
    # the broadcast point-center distances run about 3x faster on column-major points
    points = np.asfortranarray(points)
    rng = np.random.default_rng(seed)
    best_labels: np.ndarray | None = None
    best_inertia = np.inf
    for centers in _kmeans_pp_seeds(points, k, rng, KMEANS_RESTARTS):
        labels, inertia = _lloyd(points, centers)
        if inertia < best_inertia:
            best_labels, best_inertia = labels, inertia
        if best_inertia == 0.0:
            break
    assert best_labels is not None
    return best_labels


def _check_square_symmetric(a: np.ndarray, name: str) -> np.ndarray:
    """a as a float array; raises ValueError unless it is square, finite and symmetric within 1e-9.

    Reads CHECK_ROWS rows at a time, so it builds no n x n temporary.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    blocks = [slice(i, i + CHECK_ROWS) for i in range(0, len(a), CHECK_ROWS)]
    # NaN compares false, so a non-finite entry would pass the symmetry test
    if not all(np.isfinite(a[rows]).all() for rows in blocks):
        raise ValueError(f"{name} must be finite")
    if any(np.abs(a[rows] - a[:, rows].T).max() > 1e-9 for rows in blocks):
        raise ValueError(f"{name} must be symmetric within 1e-9")
    return a


def _fix_sign(v: np.ndarray) -> np.ndarray:
    """Deterministic eigenvector orientation: largest component positive."""
    pivot = np.abs(v).argmax()
    return -v if v[pivot] < 0 else v


def _top_eigenpairs(a: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k largest eigenvalues of symmetric a, largest first, and their eigenvectors.

    eigh reads one triangle of a. Each eigenvector column is oriented by
    _fix_sign.
    """
    eigvals, eigvecs = np.linalg.eigh(a)  # ascending
    top = slice(None, -k - 1, -1)
    return eigvals[top], np.column_stack([_fix_sign(v) for v in eigvecs[:, top].T])


def check_k(k: int, n: int | None = None) -> None:
    """Raise ValueError unless 2 <= k <= n, spectral_cluster's k on n points (None: unknown yet)."""
    bound = "n" if n is None else n
    check_param("k", k, 2 <= k and (n is None or k <= n), f"must be in [2, {bound}]")


def spectral_cluster(s: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Normalized spectral clustering of a symmetric affinity matrix.

    Embeds each trip as its row in the top k eigenvectors of
    M = D^{-1/2} S D^{-1/2} (the bottom k of the normalized Laplacian
    L = I - M), row-normalized, and runs seeded k-means on the embedding.
    Deterministic for a fixed seed.
    """
    s = _check_square_symmetric(s, "affinity")
    n = s.shape[0]
    check_k(k, n)
    degrees = s.sum(axis=1)
    if np.any(degrees <= 0):
        raise DegenerateInputError("affinity has a zero-degree row")
    inv_sqrt = 1.0 / np.sqrt(degrees)
    m = s * inv_sqrt[:, None]
    m *= inv_sqrt
    embedding = _top_eigenpairs(m, k)[1]
    norms = np.linalg.norm(embedding, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    embedding = embedding / norms
    return kmeans(embedding, k, seed)


def pca_2d(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Project points onto their first two principal components.

    Takes the top-2 eigenpairs of the covariance matrix. Returns (coords,
    explained) where coords is (n, 2) and explained holds the two
    explained-variance ratios.
    """
    x = np.asarray(points, dtype=float)
    if x.ndim != 2 or x.shape[0] < 3 or x.shape[1] < 2:
        raise ValueError("need an (n >= 3) x (d >= 2) point matrix")
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / x.shape[0]
    total_var = float(np.trace(cov))
    if total_var <= 0:
        raise DegenerateInputError("points have zero variance")
    eigvals, eigvecs = _top_eigenpairs(cov, 2)
    return centered @ eigvecs, np.maximum(eigvals, 0.0) / total_var


def mds_2d(d: np.ndarray) -> np.ndarray:
    """Classical (Torgerson) multidimensional scaling into 2 dimensions.

    Double-centers the squared distance matrix, takes the top-2 eigenpairs
    (negative eigenvalues clamp to zero), and scales the eigenvectors by
    sqrt(eigenvalue). Exact for distance matrices embeddable in the plane.
    """
    d = _check_square_symmetric(d, "distance matrix")
    if len(d) < 2:
        raise ValueError(f"need at least 2 points for a 2-D embedding, got {len(d)}")
    if np.abs(np.diag(d)).max() > 1e-9:
        raise ValueError("distance matrix must have a zero diagonal")
    # B = -1/2 J (D*D) J with J = I - 11^T/n: subtract row and column means, add the grand mean
    b = d * d
    b -= b.mean(axis=1)[:, None] + b.mean(axis=0) - b.mean()
    b *= -0.5
    eigvals, eigvecs = _top_eigenpairs(b, 2)
    return eigvecs * np.sqrt(np.maximum(eigvals, 0.0))
