"""Dimensionality reduction for embedding inspection.

PCA keeps the smallest component count whose cumulative explained variance
exceeds the target, then exact t-SNE maps the reduced points to 2-D for
plotting. Everything is O(N^2) and intended for a few thousand points;
there is no approximate (Barnes-Hut) path.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DegenerateData,
    InvalidConfig,
    NonFiniteInput,
    PerplexityTooLarge,
)

# Early exaggeration and the momentum switch both end at this iteration.
EXAGGERATION_FACTOR = 12.0
EXAGGERATION_ITERS = 250
# Floor of the step size; it holds for N up to 4 * 12 * 50 = 2,400 points.
MIN_LEARNING_RATE = 50.0
KL_CHECKPOINT_EVERY = 100
_PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class PcaResult:
    reduced: np.ndarray      # N x k scores
    ratios: np.ndarray       # explained-variance ratios, full spectrum
    components: np.ndarray   # k x D row basis
    mean: np.ndarray         # D

    @property
    def k(self) -> int:
        return self.components.shape[0]


@dataclass(frozen=True)
class TsneResult:
    coords: np.ndarray                      # N x 2
    kl_divergence: float
    kl_checkpoints: tuple                   # ((iteration, kl), ...)


def pca_reduce(x: np.ndarray, target_variance: float = 0.95) -> PcaResult:
    """Mean-center and project onto the leading principal components.

    k is the smallest count whose cumulative explained-variance ratio
    strictly exceeds target_variance (all components if none does, which
    only happens at target 1.0).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise InvalidConfig("need a 2-D matrix with at least 2 rows")
    if not np.isfinite(x).all():
        raise NonFiniteInput("embedding matrix contains non-finite values")
    if not 0.0 < target_variance <= 1.0:
        raise InvalidConfig("target_variance must lie in (0, 1]")

    mean = x.mean(axis=0)
    centered = x - mean
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    power = s * s
    total = float(power.sum())
    if total <= 0.0:
        raise DegenerateData("all rows identical: zero total variance")
    ratios = power / total

    cum = np.cumsum(ratios)
    above = np.nonzero(cum > target_variance)[0]
    k = int(above[0]) + 1 if above.size else len(ratios)

    components = vt[:k].copy()
    # Deterministic orientation: largest-magnitude coordinate positive.
    for row in components:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    return PcaResult(centered @ components.T, ratios, components, mean)


def calibrate_conditionals(
    sq_dists: np.ndarray,
    perplexity: float,
    tol: float = 1e-5,
    max_steps: int = 100,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-point Gaussian conditionals whose entropy matches log(perplexity).

    Binary search on each row's precision beta = 1/(2 sigma^2). Returns the
    row-stochastic conditional matrix (zero diagonal) and the betas.
    """
    n = sq_dists.shape[0]
    target_h = float(np.log(perplexity))
    cond = np.zeros((n, n))
    betas = np.ones(n)
    idx = np.arange(n)
    for i in range(n):
        d = np.delete(sq_dists[i], i)
        d = d - d.min()  # shift leaves the entropy unchanged
        beta, lo, hi = 1.0, 0.0, np.inf
        p = np.exp(-beta * d)
        for _ in range(max_steps):
            sum_p = p.sum()
            h = np.log(sum_p) + beta * float(d @ p) / sum_p
            if abs(h - target_h) < tol:
                break
            if h > target_h:
                lo = beta
                beta = beta * 2.0 if hi == np.inf else (beta + hi) / 2.0
            else:
                hi = beta
                beta = (lo + beta) / 2.0
            p = np.exp(-beta * d)
        betas[i] = beta
        cond[i, idx != i] = p / p.sum()
    return cond, betas


def tsne_embed(
    x: np.ndarray,
    perplexity: float = 30.0,
    iters: int = 1000,
    seed: int = 0,
) -> TsneResult:
    """Exact t-SNE to 2-D by KL gradient descent.

    Early exaggeration (x12) for the first 250 iterations, momentum 0.5
    switching to 0.8 at iteration 250, adaptive per-coordinate gains. The
    learning rate is sized to the data, ``max(N / (12 * 4), 50)`` (Belkina
    et al. 2019, "Automated optimized parameters for t-SNE", Nat. Commun.;
    the rule behind openTSNE's and scikit-learn's ``'auto'``): a fixed
    rate of 200 overshoots at small N, so KL climbs again after the
    exaggeration ends. KL against the true (un-exaggerated) target is
    recorded every 100 iterations and at the end.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 3:
        raise InvalidConfig("need a 2-D matrix with at least 3 rows")
    if not np.isfinite(x).all():
        raise NonFiniteInput("input matrix contains non-finite values")
    if perplexity <= 1.0:
        raise InvalidConfig("perplexity must exceed 1")
    if iters < 1:
        raise InvalidConfig("iters must be positive")
    n = x.shape[0]
    if n < 3.0 * perplexity:
        raise PerplexityTooLarge(
            f"{n} points cannot support perplexity {perplexity}: "
            f"need at least {3.0 * perplexity:.0f}"
        )

    sq = _pairwise_sq_dists(x)
    cond, _ = calibrate_conditionals(sq, perplexity)
    p = (cond + cond.T) / (2.0 * n)
    p = np.maximum(p, _PROB_FLOOR)

    learning_rate = max(n / (EXAGGERATION_FACTOR * 4.0), MIN_LEARNING_RATE)
    rng = np.random.default_rng(seed)
    y = rng.standard_normal((n, 2)) * 1e-4
    velocity = np.zeros((n, 2))
    gains = np.ones((n, 2))
    checkpoints = []

    for it in range(iters):
        num = 1.0 / (1.0 + _pairwise_sq_dists(y))
        np.fill_diagonal(num, 0.0)
        q = np.maximum(num / num.sum(), _PROB_FLOOR)

        target = p * EXAGGERATION_FACTOR if it < EXAGGERATION_ITERS else p
        g = (target - q) * num
        grad = 4.0 * (g.sum(axis=1)[:, None] * y - g @ y)

        momentum = 0.5 if it < EXAGGERATION_ITERS else 0.8
        # Boost a coordinate's gain while it still moves against its
        # gradient (steady descent); decay once the gradient flips.
        boost = velocity * grad < 0.0
        gains = np.where(boost, gains + 0.2, gains * 0.8)
        gains = np.maximum(gains, 0.01)
        velocity = momentum * velocity - learning_rate * (gains * grad)
        y = y + velocity
        y = y - y.mean(axis=0)

        step = it + 1
        if step % KL_CHECKPOINT_EVERY == 0 or step == iters:
            kl = float(np.sum(p * np.log(p / q)))
            if not checkpoints or checkpoints[-1][0] != step:
                checkpoints.append((step, kl))

    return TsneResult(y, checkpoints[-1][1], tuple(checkpoints))


def _pairwise_sq_dists(x: np.ndarray) -> np.ndarray:
    norms = np.einsum("ij,ij->i", x, x)
    sq = norms[:, None] + norms[None, :] - 2.0 * (x @ x.T)
    np.maximum(sq, 0.0, out=sq)
    np.fill_diagonal(sq, 0.0)
    return sq


def write_projection_csv(
    coords: np.ndarray,
    labels: list[str],
    source_ids: list[str],
    path: str | Path,
) -> None:
    """CSV rows `x,y,label,source-id` for external plotting."""
    coords = np.asarray(coords, dtype=np.float64)
    if coords.ndim != 2 or coords.shape[1] != 2:
        raise InvalidConfig("coords must be N x 2")
    if len(labels) != coords.shape[0] or len(source_ids) != coords.shape[0]:
        raise InvalidConfig("labels and source ids must match coords rows")
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["x", "y", "label", "source-id"])
        for (px, py), lab, src in zip(coords, labels, source_ids):
            writer.writerow([repr(float(px)), repr(float(py)), lab, src])

