"""Tests for affinity construction, decomposition, clustering, and embeddings."""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tripmatch import affinity, metrics
from tripmatch.affinity import (
    DegenerateInputError,
    _fix_sign,
    _lloyd,
    build_affinity,
    kmeans,
    mds_2d,
    pca_2d,
    spectral_cluster,
    sym_decompose,
)
from tripmatch.metrics import WgmWeights, car_score, wgm_sim
from tripmatch.model import ScaleContext, od_rep

from conftest import straight_trip

W = WgmWeights(0.6, 0.4)


def adjusted_rand_index(a, b) -> float:
    """Chance-corrected agreement of two labelings (contingency-table form)."""
    a = np.asarray(a)
    b = np.asarray(b)
    n = len(a)
    classes_a, inv_a = np.unique(a, return_inverse=True)
    classes_b, inv_b = np.unique(b, return_inverse=True)
    table = np.zeros((len(classes_a), len(classes_b)), dtype=int)
    for i, j in zip(inv_a, inv_b):
        table[i, j] += 1

    def comb2(x):
        return x * (x - 1) / 2.0

    sum_cells = sum(comb2(x) for x in table.flat)
    sum_rows = sum(comb2(x) for x in table.sum(axis=1))
    sum_cols = sum(comb2(x) for x in table.sum(axis=0))
    expected = sum_rows * sum_cols / comb2(n)
    max_index = (sum_rows + sum_cols) / 2.0
    if max_index == expected:
        return 1.0
    return (sum_cells - expected) / (max_index - expected)


def two_group_trips(n_per_group=20, temporal=False, seed=0):
    """Planted two-cluster trip set: far apart in space, or in time only."""
    rng = np.random.default_rng(seed)
    if temporal:
        groups = ((5000.0, 0.0), (5000.0, 80_000.0))  # same geometry, hours apart
    else:
        groups = ((2000.0, 0.0), (18_000.0, 0.0))  # same times, 16 km apart
    trips = []
    for g, (cx, t0) in enumerate(groups):
        for i in range(n_per_group):
            jitter = rng.uniform(-50, 50, 4)
            start_t = t0 + rng.uniform(0, 600)
            trips.append(straight_trip(
                f"g{g}-{i:03d}",
                (cx + jitter[0], 5000 + jitter[1]),
                (cx + 1000 + jitter[2], 6000 + jitter[3]),
                start_t, start_t + 600))
    truth = [0] * n_per_group + [1] * n_per_group
    return trips, truth


class TestBuildAffinity:
    def test_identical_trips_all_ones(self):
        trips = [straight_trip("a", (0, 0), (1000, 0), 0, 600),
                 straight_trip("b", (0, 0), (1000, 0), 0, 600)]
        ctx = ScaleContext(0, 2000, -1, 1, 0, 1200)
        reps = [od_rep(t, ctx) for t in trips]
        aff = build_affinity(reps, lambda a, b: wgm_sim(a, b, W), symmetric_scorer=True)
        assert np.array_equal(aff.values, np.ones((2, 2)))

    def test_car_scorer_is_asymmetric(self):
        trips = [straight_trip("a", (0, 0), (1000, 0), 0, 900),
                 straight_trip("b", (0, 0), (1000, 0), 100, 800)]
        ctx = ScaleContext(0, 2000, -1, 1, 0, 1200)
        reps = [od_rep(t, ctx) for t in trips]
        aff = build_affinity(reps, lambda a, b: car_score(a, b, W))
        assert aff.values[0, 1] != aff.values[1, 0]
        assert np.array_equal(np.diag(aff.values), np.ones(2))

    def test_call_counts(self):
        reps = [np.zeros((2, 3)) for _ in range(5)]
        calls = []

        def scorer(a, b):
            calls.append(1)
            return 1.0

        build_affinity(reps, scorer)
        assert len(calls) == 25
        calls.clear()
        build_affinity(reps, scorer, symmetric_scorer=True)
        assert len(calls) == 15  # n(n+1)/2

    def test_needs_two_trips(self):
        with pytest.raises(ValueError):
            build_affinity([np.zeros((2, 3))], lambda a, b: 1.0)


class TestSymDecompose:
    def test_symmetric_input(self):
        a = np.array([[1.0, 0.5], [0.5, 1.0]])
        s, k, ratio = sym_decompose(a)
        assert np.array_equal(s, a)
        assert np.abs(k).max() == 0.0
        assert ratio == 1.0

    def test_antisymmetric_input(self):
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        s, _, ratio = sym_decompose(a)
        assert np.abs(s).max() == 0.0
        assert ratio == 0.0

    def test_ratio_matches_elementwise_sum(self):
        rng = np.random.default_rng(0)
        a = rng.random((5, 5))
        _, _, ratio = sym_decompose(a)
        num = den = 0.0
        for i in range(5):
            for j in range(5):
                num += ((a[i, j] + a[j, i]) / 2.0) ** 2
                den += a[i, j] ** 2
        assert math.isclose(ratio, num / den, rel_tol=1e-12)

    def test_reconstruction_and_orthogonality(self):
        rng = np.random.default_rng(1)
        a = rng.random((100, 100))
        s, k, _ = sym_decompose(a)
        assert np.abs(s + k - a).max() <= 1e-15
        fro_a = (a * a).sum()
        fro_s = (s * s).sum()
        fro_k = (k * k).sum()
        assert abs(fro_a - fro_s - fro_k) <= 1e-9 * fro_a

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            sym_decompose(np.zeros((2, 3)))


def laplacian_labels(s: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Spectral clustering by the textbook formula: bottom k of L = I - D^-1/2 S D^-1/2."""
    inv_sqrt = 1.0 / np.sqrt(s.sum(axis=1))
    lap = np.eye(len(s)) - inv_sqrt[:, None] * s * inv_sqrt[None, :]
    eigvals, eigvecs = np.linalg.eigh((lap + lap.T) / 2.0)
    embedding = eigvecs[:, np.argsort(eigvals)[:k]]
    return kmeans(embedding / np.linalg.norm(embedding, axis=1, keepdims=True), k, seed)


@st.composite
def planted_affinities(draw):
    """Gaussian affinities of 2-4 jittered groups 20 units apart, plus a uniform floor."""
    sizes = draw(st.lists(st.integers(3, 8), min_size=2, max_size=4))
    jitter = draw(arrays(float, (sum(sizes), 2), elements=st.floats(-1.0, 1.0)))
    centers = np.repeat(20.0 * np.arange(len(sizes)), sizes)
    pts = jitter + np.column_stack([centers, np.zeros_like(centers)])
    s = np.exp(-((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1) / 8.0)
    s += draw(st.sampled_from([0.0, 1e-3, 0.05]))
    return s, np.repeat(np.arange(len(sizes)), sizes)


class TestSpectralCluster:
    @settings(max_examples=60)
    @given(planted_affinities(), st.integers(0, 2**16))
    def test_matches_laplacian_formula(self, case, seed):
        s, truth = case
        k = int(truth.max()) + 1
        labels = spectral_cluster(s, k, seed)
        assert adjusted_rand_index(labels, laplacian_labels(s, k, seed)) == 1.0
        assert adjusted_rand_index(labels, truth) == 1.0

    def test_block_diagonal_two_blocks(self):
        s = np.eye(6) * 0.0
        s[:3, :3] = 1.0
        s[3:, 3:] = 1.0
        labels = spectral_cluster(s, 2, seed=0)
        assert len(set(labels[:3])) == 1
        assert len(set(labels[3:])) == 1
        assert labels[0] != labels[3]

    def test_planted_spatial_partition(self):
        trips, truth = two_group_trips(seed=3)
        ctx = ScaleContext.from_trips(trips)
        reps = [od_rep(t, ctx) for t in trips]
        aff = build_affinity(reps, lambda a, b: wgm_sim(a, b, W), symmetric_scorer=True)
        labels = spectral_cluster(aff.values, 2, seed=0)
        assert adjusted_rand_index(labels, truth) == 1.0

    def test_each_point_own_cluster_when_k_equals_n(self):
        rng = np.random.default_rng(5)
        pts = rng.random((5, 2)) * 10
        s = np.exp(-((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
        labels = spectral_cluster(s, 5, seed=0)
        assert len(set(labels)) == 5

    def test_deterministic_for_seed(self):
        trips, _ = two_group_trips(seed=6)
        ctx = ScaleContext.from_trips(trips)
        reps = [od_rep(t, ctx) for t in trips]
        aff = build_affinity(reps, lambda a, b: wgm_sim(a, b, W), symmetric_scorer=True)
        a = spectral_cluster(aff.values, 4, seed=9)
        b = spectral_cluster(aff.values, 4, seed=9)
        assert np.array_equal(a, b)

    def test_zero_degree_row_rejected(self):
        s = np.zeros((4, 4))
        s[:2, :2] = 1.0
        with pytest.raises(DegenerateInputError):
            spectral_cluster(s, 2, seed=0)

    def test_asymmetric_rejected(self):
        s = np.eye(3)
        s[0, 1] = 0.5
        with pytest.raises(ValueError, match="symmetric"):
            spectral_cluster(s, 2, seed=0)

    def test_k_range(self):
        s = np.eye(3)
        with pytest.raises(ValueError):
            spectral_cluster(s, 1, seed=0)
        with pytest.raises(ValueError):
            spectral_cluster(s, 4, seed=0)

    def test_zero_dimensional_rejected(self):
        with pytest.raises(ValueError, match="square"):
            spectral_cluster(np.array(1.0), 2, seed=0)


def oracle_lloyd(points: np.ndarray, centers: np.ndarray, max_iter: int
                 ) -> tuple[np.ndarray, float]:
    """Lloyd iterations as written before the final assignment pass joined the loop."""
    k = centers.shape[0]
    labels = np.full(points.shape[0], -1)
    for _ in range(max_iter):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = d2.argmin(axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            members = points[labels == c]
            if len(members) > 0:
                centers[c] = members.mean(axis=0)
            else:
                centers[c] = points[d2.min(axis=1).argmax()]
    d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    labels = d2.argmin(axis=1)
    inertia = float(d2[np.arange(points.shape[0]), labels].sum())
    return labels, inertia


@st.composite
def lloyd_starts(draw):
    """Points (integer-valued ones give ties) and starting centers, some far from every point."""
    n, d, k = draw(st.integers(1, 30)), draw(st.integers(1, 4)), draw(st.integers(1, 6))
    elements = draw(st.sampled_from([st.integers(-3, 3).map(float), st.floats(-100.0, 100.0)]))
    points = draw(arrays(float, (n, d), elements=elements))
    centers = draw(arrays(float, (k, d), elements=st.floats(-1000.0, 1000.0)))
    return points, centers


class TestLloyd:
    @pytest.mark.parametrize("max_iter", [1, 2, affinity.KMEANS_MAX_ITER])
    @settings(max_examples=150)
    @given(start=lloyd_starts())
    def test_bit_equal_to_oracle(self, max_iter, start):
        points, centers = start
        want = oracle_lloyd(points, centers.copy(), max_iter)
        with mock.patch.object(affinity, "KMEANS_MAX_ITER", max_iter):
            got = _lloyd(points, centers.copy())
        assert np.array_equal(got[0], want[0])
        assert got[1] == want[1]

    @pytest.mark.parametrize("max_iter", [1, 2, affinity.KMEANS_MAX_ITER])
    def test_empty_cluster_revived_at_worst_served_point(self, max_iter):
        points = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
        # the third center starts with no members
        centers = np.array([[0.0, 0.5], [10.0, 0.5], [100.0, 100.0]])
        want = oracle_lloyd(points, centers.copy(), max_iter)
        with mock.patch.object(affinity, "KMEANS_MAX_ITER", max_iter):
            labels, inertia = _lloyd(points, centers.copy())
        assert labels.tolist() == want[0].tolist() == [2, 0, 1, 1]
        assert inertia == want[1]


class TestKmeans:
    def test_two_obvious_blobs(self):
        rng = np.random.default_rng(7)
        pts = np.vstack([rng.normal(0, 0.1, (20, 2)), rng.normal(5, 0.1, (20, 2))])
        labels = kmeans(pts, 2, seed=0)
        assert len(set(labels[:20])) == 1 and len(set(labels[20:])) == 1

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_points_rejected(self, value):
        pts = np.zeros((4, 2))
        pts[2, 1] = value
        with pytest.raises(ValueError, match="finite"):
            kmeans(pts, 2, seed=0)

    def test_negative_seed_names_its_parameter(self):
        with pytest.raises(ValueError, match=r"^seed: must be at least 0, got -2$"):
            kmeans(np.eye(3), 2, seed=-2)


def oracle_seeds(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding of one restart, one rng call per center."""
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[c] = points[rng.integers(n)]
            continue
        centers[c] = points[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, ((points - centers[c]) ** 2).sum(axis=1))
    return centers


class ScriptedRng(np.random.Generator):
    """A Generator whose integers() and random() return scripted values, in order.

    Generator.choice draws its uniform through self.random, so it reads the script too.
    """

    def __init__(self, integers, uniforms):
        super().__init__(np.random.PCG64(0))
        self.script = iter(integers), iter(uniforms)

    def integers(self, *args, **kwargs):
        return next(self.script[0])

    def random(self, *args, **kwargs):
        return float(next(self.script[1]))


@st.composite
def seeding_cases(draw):
    """Column-major points and a k: n on both sides of numpy's pairwise-sum block edges,
    integer values (ties in the cdf), and rows drawn from 1-3 distinct values (fewer than k)."""
    n = draw(st.sampled_from([1, 7, 8, 9, 127, 128, 129, 300, 517]))
    d = draw(st.integers(1, 9))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["normal", "integer", "few"]))
    if kind == "normal":
        points = gen.normal(size=(n, d))
    elif kind == "integer":
        points = gen.integers(-2, 3, size=(n, d)).astype(float)
    else:
        distinct = gen.normal(size=(draw(st.integers(1, 3)), d))
        points = distinct[gen.integers(0, len(distinct), n)]
    k = draw(st.sampled_from([1, n, *range(2, min(n, 9) + 1)]))
    return np.asfortranarray(points), k


def assert_seeds_match_oracle(points: np.ndarray, k: int, seed: int, restarts: int) -> None:
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = affinity._kmeans_pp_seeds(points, k, rng, restarts)
    want = np.array([oracle_seeds(points, k, oracle_rng) for _ in range(restarts)])
    assert got.shape == want.shape
    # bit for bit: -0.0 and 0.0 differ here
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert rng.random() == oracle_rng.random()


class TestKmeansPPSeeds:
    @settings(max_examples=150)
    @given(case=seeding_cases(), seed=st.integers(0, 2**32 - 1), restarts=st.integers(1, 6))
    def test_bit_equal_to_oracle(self, case, seed, restarts):
        assert_seeds_match_oracle(*case, seed, restarts)

    @pytest.mark.parametrize("n, d, k", [(352, 8, 8), (129, 3, 5), (9, 2, 9)])
    def test_all_restarts_of_a_kmeans_call(self, n, d, k):
        points = np.asfortranarray(np.random.default_rng(n).normal(size=(n, d)))
        assert_seeds_match_oracle(points, k, 11, affinity.KMEANS_RESTARTS)

    @pytest.mark.parametrize("seed", range(4))
    def test_uniform_on_a_cdf_value(self, seed):
        # u equal to a cdf entry picks the next point only if the cdf is bit-equal to
        # choice's: same squared distances, same total, same normalisation, side="right"
        points = np.asfortranarray(np.random.default_rng(seed).normal(size=(129, 9)))
        d2 = ((points - points[seed]) ** 2).sum(axis=1)
        cdf = np.cumsum(d2 / d2.sum())
        cdf /= cdf[-1]
        restarts = len(points) - 1
        got = affinity._kmeans_pp_seeds(
            points, 2, ScriptedRng([seed] * restarts, cdf[:-1]), restarts)
        oracle_rng = ScriptedRng([seed] * restarts, cdf[:-1])
        want = np.array([oracle_seeds(points, 2, oracle_rng) for _ in range(restarts)])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_fewer_distinct_rows_than_k(self):
        # two distinct rows, as a squared distance sees them (-0.0 equals 0.0): one
        # uniform center, one sampled by distance, then uniform ones
        points = np.asfortranarray(np.repeat([[0.0, 1.0], [-0.0, 1.0], [0.0, 2.0]], 4, axis=0))
        assert_seeds_match_oracle(points, 6, 3, affinity.KMEANS_RESTARTS)


class TestPca2d:
    def test_line_explains_everything(self):
        t = np.linspace(0, 1, 30)
        pts = np.column_stack([t, 2 * t, -t])
        _, explained = pca_2d(pts)
        assert math.isclose(explained[0], 1.0, abs_tol=1e-9)
        assert explained[1] <= 1e-9

    def test_isotropic_gaussian_ratios(self):
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(1000, 3))
        _, explained = pca_2d(pts)
        assert abs(explained[0] - 1 / 3) < 0.05
        assert abs(explained[1] - 1 / 3) < 0.05

    def test_projected_variance_identity(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(200, 4)) * np.array([3.0, 2.0, 1.0, 0.5])
        coords, explained = pca_2d(pts)
        centered = pts - pts.mean(axis=0)
        total = (centered ** 2).sum(axis=1).mean()
        projected = (coords ** 2).sum(axis=1).mean()
        assert math.isclose(projected, explained.sum() * total, rel_tol=1e-6)

    def test_matches_eigh_oracle(self):
        rng = np.random.default_rng(10)
        pts = rng.normal(size=(150, 5)) * np.array([4.0, 3.0, 2.0, 1.0, 0.5])
        coords, explained = pca_2d(pts)
        centered = pts - pts.mean(axis=0)
        cov = centered.T @ centered / len(pts)
        eigvals = np.sort(np.linalg.eigvalsh(cov))[::-1]
        want = eigvals[:2] / np.trace(cov)
        assert np.allclose(explained, want, atol=1e-8)
        # column variances equal the top eigenvalues
        assert np.allclose(coords.var(axis=0), eigvals[:2], rtol=1e-6)

    def test_zero_variance_rejected(self):
        with pytest.raises(DegenerateInputError):
            pca_2d(np.ones((5, 3)))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            pca_2d(np.zeros((2, 3)))


class TestSquareSymmetricCheck:
    CALLERS = [(lambda a: spectral_cluster(a, 2, seed=0), "affinity"), (mds_2d, "distance matrix")]

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("call, name", CALLERS, ids=["spectral_cluster", "mds_2d"])
    @pytest.mark.parametrize("pair", [True, False], ids=["pair", "one-entry"])
    def test_non_finite_rejected(self, call, name, value, pair):
        a = 1.0 - np.eye(4)
        a[1, 2] = value
        if pair:
            a[2, 1] = value
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            call(a)

    @pytest.mark.parametrize("call, name", CALLERS, ids=["spectral_cluster", "mds_2d"])
    @pytest.mark.parametrize("row", [0, affinity.CHECK_ROWS - 1, affinity.CHECK_ROWS + 2])
    def test_asymmetry_in_any_row_block(self, call, name, row):
        n = affinity.CHECK_ROWS + 3
        a = 1.0 - np.eye(n)
        a[row, (row + 1) % n] += 1e-6
        with pytest.raises(ValueError, match=f"^{name} must be symmetric within 1e-9$"):
            call(a)

    @pytest.mark.parametrize("call, name", CALLERS, ids=["spectral_cluster", "mds_2d"])
    def test_non_finite_in_a_later_block(self, call, name):
        n = affinity.CHECK_ROWS + 3
        a = 1.0 - np.eye(n)
        a[n - 1, n - 2] = a[n - 2, n - 1] = math.nan
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            call(a)


def torgerson_b(d: np.ndarray) -> np.ndarray:
    """B = -1/2 J (D*D) J with the centring matrix J = I - 11^T/n."""
    n = len(d)
    j = np.eye(n) - np.full((n, n), 1.0 / n)
    return -0.5 * j @ (d * d) @ j


class TestMds2d:
    @settings(max_examples=200)
    @given(st.integers(2, 12).flatmap(
        lambda n: arrays(float, (n, 2), elements=st.floats(0.0, 10.0))))
    def test_matches_centring_matrix_formula(self, pts):
        d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        coords = mds_2d(d)
        b = torgerson_b(d)
        tol = 1e-9 * max(1.0, np.abs(b).max())
        # planar points: B has rank 2, so the embedding's Gram matrix is B itself
        np.testing.assert_allclose(coords @ coords.T, b, rtol=0, atol=tol)
        eigvals, eigvecs = np.linalg.eigh((b + b.T) / 2.0)
        top, second = eigvals[-1], eigvals[-2]
        if second > 1e-3 * top and top - second > 1e-3 * top:
            for axis, idx in enumerate((-1, -2)):
                want = _fix_sign(eigvecs[:, idx]) * np.sqrt(eigvals[idx])
                got = coords[:, axis]
                assert min(np.abs(got - want).max(), np.abs(got + want).max()) <= tol

    def test_equilateral_triangle(self):
        d = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=float)
        coords = mds_2d(d)
        for i in range(3):
            for j in range(i + 1, 3):
                got = np.linalg.norm(coords[i] - coords[j])
                assert math.isclose(got, 1.0, abs_tol=1e-6)

    def test_two_points(self):
        d = np.array([[0.0, 4.0], [4.0, 0.0]])
        coords = mds_2d(d)
        assert math.isclose(np.linalg.norm(coords[0] - coords[1]), 4.0, abs_tol=1e-9)

    def test_recovers_planar_configurations(self):
        rng = np.random.default_rng(11)
        pts = rng.random((12, 2)) * 10
        d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        coords = mds_2d(d)
        d_back = np.linalg.norm(coords[:, None, :] - coords[None, :, :], axis=2)
        assert np.abs(d_back - d).max() < 1e-6

    def test_asymmetric_rejected(self):
        d = np.zeros((3, 3))
        d[0, 1] = 1.0
        with pytest.raises(ValueError, match="symmetric"):
            mds_2d(d)

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(ValueError, match="diagonal"):
            mds_2d(np.eye(3))

    def test_zero_dimensional_rejected(self):
        with pytest.raises(ValueError, match="square"):
            mds_2d(np.array(0.0))

    def test_single_point_rejected(self):
        with pytest.raises(ValueError, match="at least 2 points"):
            mds_2d(np.zeros((1, 1)))


class TestSymmetricPartMirrorsAbsoluteScore:
    def test_synchronous_trips_reduce_to_absolute(self):
        # with no time differences the signed and absolute scores coincide,
        # so the symmetric part of the car matrix equals the plain matrix
        rng = np.random.default_rng(12)
        reps = []
        for _ in range(6):
            pts = rng.random((2, 3))
            pts[:, 2] = (0.2, 0.8)
            reps.append(pts)
        car = build_affinity(reps, lambda a, b: car_score(a, b, W)).values
        s, _, _ = sym_decompose(car)
        plain = build_affinity(
            reps, lambda a, b: wgm_sim(a, b, W), symmetric_scorer=True).values
        assert np.allclose(s, plain, atol=1e-12)

    def test_symmetric_part_elementwise_oracle(self):
        rng = np.random.default_rng(13)
        reps = []
        for _ in range(5):
            pts = rng.random((2, 3))
            pts[:, 2] = np.sort(pts[:, 2])
            reps.append(pts)
        car = build_affinity(reps, lambda a, b: car_score(a, b, W)).values
        s, _, _ = sym_decompose(car)
        for i in range(5):
            for j in range(5):
                direct = (car_score(reps[i], reps[j], W) +
                          car_score(reps[j], reps[i], W)) / 2.0
                assert math.isclose(s[i, j], direct, rel_tol=1e-12)
