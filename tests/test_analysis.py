"""Tests for PCA reduction and the exact t-SNE embedding."""
import csv

import numpy as np
import pytest

from speechseg.analysis import (
    PcaResult,
    calibrate_conditionals,
    pca_reduce,
    tsne_embed,
    write_projection_csv,
)
from speechseg.errors import (
    DegenerateData,
    InvalidConfig,
    NonFiniteInput,
    PerplexityTooLarge,
)


def two_means(points, iters=100):
    """Plain Lloyd 2-means with deterministic farthest-pair init."""
    d = ((points[:, None, :] - points[None, :, :]) ** 2).sum(-1)
    i, j = np.unravel_index(int(np.argmax(d)), d.shape)
    centers = points[[i, j]].astype(np.float64)
    assign = np.zeros(len(points), dtype=int)
    for _ in range(iters):
        dist = ((points[:, None, :] - centers[None]) ** 2).sum(-1)
        assign = dist.argmin(axis=1)
        new = centers.copy()
        for c in (0, 1):
            if (assign == c).any():
                new[c] = points[assign == c].mean(axis=0)
        if np.allclose(new, centers):
            break
        centers = new
    return assign


def blob_pair(n_per, dim, sep, seed=0):
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(dim)
    direction /= np.linalg.norm(direction)
    a = rng.standard_normal((n_per, dim)) + 0.0
    b = rng.standard_normal((n_per, dim)) + sep * direction
    x = np.vstack([a, b])
    truth = np.array([0] * n_per + [1] * n_per)
    return x, truth


class TestPcaReduce:
    def test_collinear_points_rank_one(self):
        t = np.linspace(-3.0, 3.0, 25)
        x = np.stack([2.0 * t + 5.0, -1.0 * t + 7.0], axis=1)
        res = pca_reduce(x, target_variance=0.95)
        assert res.k == 1
        assert res.ratios[0] == pytest.approx(1.0, abs=1e-9)

    def test_isotropic_gaussian_needs_all_components(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((10000, 3))
        res = pca_reduce(x, target_variance=0.95)
        assert res.k == 3
        assert np.all(res.ratios > 0.25)

    def test_rank_k_reconstruction(self):
        rng = np.random.default_rng(5)
        basis = rng.standard_normal((3, 20))
        scores = rng.standard_normal((40, 3)) * np.array([3.0, 2.0, 1.5])
        x = scores @ basis + rng.standard_normal(20)
        res = pca_reduce(x, target_variance=0.999999)
        assert res.k == 3
        back = res.reduced @ res.components + res.mean
        assert np.max(np.abs(back - x)) < 1e-6

    def test_ratios_sum_to_one_and_decrease(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((60, 12)) * np.linspace(3.0, 0.5, 12)
        res = pca_reduce(x, target_variance=0.9)
        assert float(res.ratios.sum()) == pytest.approx(1.0, abs=1e-9)
        assert np.all(np.diff(res.ratios) <= 1e-12)

    def test_chosen_k_brackets_target(self):
        rng = np.random.default_rng(3)
        for target in (0.5, 0.8, 0.95, 0.99):
            x = rng.standard_normal((80, 10)) * np.linspace(4.0, 0.2, 10)
            res = pca_reduce(x, target_variance=target)
            cum = np.cumsum(res.ratios)
            assert cum[res.k - 1] > target
            if res.k > 1:
                assert cum[res.k - 2] <= target

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((50, 8)) * np.linspace(2.0, 0.3, 8)
        perm = rng.permutation(50)
        a = pca_reduce(x, 0.9)
        b = pca_reduce(x[perm], 0.9)
        assert np.allclose(a.ratios, b.ratios, atol=1e-10)
        assert a.k == b.k
        assert np.allclose(a.reduced[perm], b.reduced, atol=1e-8)

    def test_zero_variance_rejected(self):
        x = np.ones((5, 4))
        with pytest.raises(DegenerateData):
            pca_reduce(x)

    def test_preconditions(self):
        with pytest.raises(InvalidConfig):
            pca_reduce(np.zeros((1, 4)))
        with pytest.raises(InvalidConfig):
            pca_reduce(np.random.default_rng(0).standard_normal((5, 3)), 0.0)
        with pytest.raises(InvalidConfig):
            pca_reduce(np.random.default_rng(0).standard_normal((5, 3)), 1.5)
        bad = np.zeros((4, 3))
        bad[1, 1] = np.nan
        with pytest.raises(NonFiniteInput):
            pca_reduce(bad)


class TestCalibrateConditionals:
    def test_entropy_matches_log_perplexity(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((100, 8))
        norms = (x * x).sum(1)
        sq = norms[:, None] + norms[None, :] - 2.0 * (x @ x.T)
        np.fill_diagonal(sq, 0.0)
        cond, betas = calibrate_conditionals(sq, perplexity=20.0)
        assert np.allclose(cond.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(np.diag(cond) == 0.0)
        assert np.all(betas > 0.0)
        for row in cond:
            live = row[row > 0.0]
            entropy = -float(live @ np.log(live))
            assert abs(entropy - np.log(20.0)) < 1e-4


class TestTsneEmbed:
    def test_two_blobs_recovered_by_two_means(self):
        x, truth = blob_pair(100, 512, sep=10.0, seed=1)
        reduced = pca_reduce(x, 0.95).reduced
        res = tsne_embed(reduced, perplexity=30.0, iters=1000, seed=0)
        assert res.coords.shape == (200, 2)
        assert np.isfinite(res.coords).all()
        assign = two_means(res.coords)
        agree = max(
            float(np.mean(assign == truth)), float(np.mean(assign != truth))
        )
        assert agree >= 0.95

    def test_kl_trend_after_exaggeration(self):
        x, _ = blob_pair(60, 16, sep=8.0, seed=2)
        res = tsne_embed(x, perplexity=10.0, iters=1000, seed=3)
        kls = {step: kl for step, kl in res.kl_checkpoints}
        assert res.kl_divergence == kls[1000]
        post = [kls[s] for s in sorted(kls) if s >= 300]
        violations = sum(
            1 for a, b in zip(post, post[1:]) if b > a + 1e-9
        )
        assert violations <= 1
        assert res.kl_divergence <= post[0] + 1e-9
        assert res.kl_divergence > 0.0

    def test_duplicate_rows_land_together(self):
        # Identical rows share a similarity row, so their images must sit
        # in the closest 1% of output pairs once the layout settles.
        rng = np.random.default_rng(6)
        centers = rng.standard_normal((3, 10)) * 6.0
        x = np.vstack(
            [centers[i] + rng.standard_normal((50, 10)) for i in range(3)]
        )
        x[75] = x[10]
        res = tsne_embed(x, perplexity=10.0, iters=1000, seed=2)
        diffs = res.coords[:, None, :] - res.coords[None, :, :]
        dist = np.sqrt((diffs**2).sum(-1))
        iu = np.triu_indices(len(x), k=1)
        all_pairs = np.sort(dist[iu])
        dup = dist[10, 75]
        cutoff = all_pairs[max(0, int(0.01 * len(all_pairs)) - 1)]
        assert dup <= cutoff + 1e-12

    def test_deterministic_given_seed(self):
        x, _ = blob_pair(30, 8, sep=6.0, seed=7)
        a = tsne_embed(x, perplexity=8.0, iters=300, seed=5)
        b = tsne_embed(x, perplexity=8.0, iters=300, seed=5)
        c = tsne_embed(x, perplexity=8.0, iters=300, seed=6)
        assert np.array_equal(a.coords, b.coords)
        assert not np.array_equal(a.coords, c.coords)

    def test_perplexity_too_large(self):
        rng = np.random.default_rng(0)
        with pytest.raises(PerplexityTooLarge):
            tsne_embed(rng.standard_normal((50, 4)), perplexity=30.0)

    def test_preconditions(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((40, 4))
        with pytest.raises(InvalidConfig):
            tsne_embed(x, perplexity=0.5)
        with pytest.raises(InvalidConfig):
            tsne_embed(x, perplexity=5.0, iters=0)
        bad = x.copy()
        bad[0, 0] = np.inf
        with pytest.raises(NonFiniteInput):
            tsne_embed(bad, perplexity=5.0)


class TestProjectionCsv:
    def test_roundtrip(self, tmp_path):
        coords = np.array([[0.25, -1.5], [3.0, 4.125]])
        labels = ["speech", "noise"]
        sources = ["srcA", "srcB"]
        p = tmp_path / "proj.csv"
        write_projection_csv(coords, labels, sources, p)
        with open(p, encoding="utf-8", newline="") as f:
            header, *rows = csv.reader(f)
        assert header == ["x", "y", "label", "source-id"]
        got = np.array([[float(r[0]), float(r[1])] for r in rows])
        assert np.array_equal(got, coords)
        assert [r[2] for r in rows] == labels
        assert [r[3] for r in rows] == sources

    def test_header_enforced(self, tmp_path):
        p = tmp_path / "empty.csv"
        write_projection_csv(np.zeros((0, 2)), [], [], p)
        assert p.read_bytes() == b"x,y,label,source-id\r\n"

    def test_length_mismatch(self, tmp_path):
        with pytest.raises(InvalidConfig):
            write_projection_csv(
                np.zeros((2, 2)), ["speech"], ["s1"], tmp_path / "x.csv"
            )

    def test_reconstruct_shape(self):
        res = PcaResult(
            np.zeros((3, 1)), np.array([1.0]), np.ones((1, 4)), np.zeros(4)
        )
        assert (res.reduced @ res.components + res.mean).shape == (3, 4)
