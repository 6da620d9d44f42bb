"""Speech/noise classifier: L1 normalizer, linear SVM, Platt calibration.

Training data is an N x D matrix of embeddings with one "speech" or
"noise" label per row, and scoring takes such a matrix too: every row is
L1-normalized, scored with one np.vecdot (bit for bit the per-vector dot
product w @ x) and mapped through the calibrated sigmoid. Training
solves the L2-regularized hinge-loss SVM in its dual with coordinate
descent (the bias enters as an extra always-one feature). Probability
calibration fits the sigmoid p = 1 / (1 + exp(A*s + B)) on out-of-fold
decision scores from a stratified cross-validation, using the standard
smoothed targets and a damped Newton solver. The per-epoch dual
objective is recorded during SVM training and never increases.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import (
    CalibrationDegenerate,
    DimMismatch,
    InvalidConfig,
    NoNegatives,
    NonConvergence,
    NonFiniteInput,
    SingleClassData,
    read_text,
)
from .metrics import roc_curve, tpr_at_fpr

SPEECH, NOISE = "speech", "noise"

MODEL_FORMAT_VERSION = 1
# keys a model file must carry; the training provenance keys are optional
MODEL_KEYS = ("w", "b", "calib_A", "calib_B", "decision_threshold")


@dataclass(frozen=True)
class TrainConfig:
    C: float = 1.0
    max_iter: int = 1000
    tolerance: float = 1e-4
    folds: int = 3
    seed: int = 0

    def __post_init__(self):
        # each check is written so that a NaN fails it too
        if not 0 < self.C < math.inf:
            raise InvalidConfig("C must be positive and finite")
        if not self.folds >= 2:
            raise InvalidConfig("calibration needs at least 2 folds")
        if not (self.max_iter >= 1 and self.tolerance > 0):
            raise InvalidConfig("max_iter and tolerance must be positive")


@dataclass(frozen=True)
class CalibratedLinearModel:
    w: np.ndarray
    b: float
    calib_A: float
    calib_B: float
    decision_threshold: float = 0.5
    train_C: float = 1.0
    train_folds: int = 3
    train_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "w", np.asarray(self.w, dtype=np.float64))
        scalars = (self.b, self.calib_A, self.calib_B, self.decision_threshold)
        if not (np.isfinite(self.w).all() and all(map(math.isfinite, scalars))):
            raise NonFiniteInput("model parameters must be finite")
        if not 0 <= self.decision_threshold <= 1:
            raise InvalidConfig("decision threshold must lie in [0, 1]")

    def scores(self, x: np.ndarray) -> np.ndarray:
        """Raw SVM scores of a D-vector or of each row of an N x D matrix."""
        x = np.asarray(x)
        if x.ndim not in (1, 2) or x.shape[-1:] != self.w.shape:
            raise DimMismatch(
                f"expected {self.w.shape[0]}-dim input, got {x.shape}"
            )
        return np.vecdot(l1_normalize(x), self.w) + self.b

    def probabilities(self, x: np.ndarray) -> np.ndarray:
        """Calibrated speech probabilities, shaped as scores(x)."""
        return _sigmoid(self.calib_A * self.scores(x) + self.calib_B)

    def probability(self, x: np.ndarray) -> float:
        return float(self.probabilities(x))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(z)), through exp(-|z|) so that neither tail overflows."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, e / (1.0 + e), 1.0 / (1.0 + e))


def l1_normalize(x: np.ndarray) -> np.ndarray:
    """A float64 copy of x scaled to unit L1 norm along its last axis;
    zero vectors unchanged."""
    x = np.array(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise NonFiniteInput("cannot normalize non-finite values")
    norm = np.abs(x).sum(axis=-1, keepdims=True)
    return np.divide(x, norm, out=x, where=norm != 0.0)


# -----------------------------------------------------------------------------
# SVM training
# -----------------------------------------------------------------------------

def _targets(labels, n: int) -> np.ndarray:
    """+1 for speech and -1 for noise, one per row of an n-row matrix."""
    if len(labels) != n:
        raise DimMismatch(f"{len(labels)} labels for {n} rows")
    for lab in labels:
        if lab not in (SPEECH, NOISE):
            raise InvalidConfig(
                f"label must be speech or noise, got {str(lab)!r}"
            )
    return np.array([1.0 if lab == SPEECH else -1.0 for lab in labels])


def _design_matrix(x: np.ndarray, labels):
    """L1-normalized rows (non-finite values rejected) and their targets."""
    x = np.asarray(x, dtype=np.float64)
    y = _targets(labels, len(x))
    if (y > 0).all() or (y < 0).all():
        raise SingleClassData("training data must contain both classes")
    return l1_normalize(x), y


def train_linear_svm(
    x: np.ndarray,
    labels,
    cfg: TrainConfig = TrainConfig(),
    history: list | None = None,
) -> tuple[np.ndarray, float]:
    """Dual coordinate descent for the L1-hinge linear SVM.

    x holds one embedding per row, labeled speech or noise by labels; rows
    are L1-normalized internally. Returns (w, b); when a list is passed as
    ``history``, the dual objective after each epoch is appended to it
    (non-increasing by construction).
    """
    x, y = _design_matrix(x, labels)
    n, dim = x.shape
    # bias as a constant feature: w_aug = [w, b]
    xa = np.concatenate([x, np.ones((n, 1))], axis=1)

    q_diag = np.einsum("ij,ij->i", xa, xa)
    alpha = np.zeros(n)
    w = np.zeros(dim + 1)
    rng = np.random.default_rng(cfg.seed)

    # converged once the per-epoch dual objective decrease drops under
    # tolerance * C; coordinate steps never increase the objective. The
    # objective grows with C (-C per support vector at the bound), so a
    # tolerance fixed in absolute terms would tighten as C grows: on 40
    # overlapping rows, C = 100 ran out of epochs still improving by more
    # than 1e-4. At C = 1 the rule is the plain tolerance
    stop = cfg.tolerance * cfg.C
    prev_obj = 0.0  # dual objective at alpha = 0
    converged = False
    for _ in range(cfg.max_iter):
        for i in rng.permutation(n):
            g = y[i] * (w @ xa[i]) - 1.0
            if alpha[i] <= 0.0:
                pg = min(g, 0.0)
            elif alpha[i] >= cfg.C:
                pg = max(g, 0.0)
            else:
                pg = g
            if pg != 0.0:
                new = min(max(alpha[i] - g / q_diag[i], 0.0), cfg.C)
                if new != alpha[i]:
                    w += (new - alpha[i]) * y[i] * xa[i]
                    alpha[i] = new
        obj = 0.5 * float(w @ w) - float(alpha.sum())
        if history is not None:
            history.append(obj)
        decrease = prev_obj - obj
        prev_obj = obj
        if decrease < stop:
            converged = True
            break
    if not converged:
        raise NonConvergence(
            f"SVM objective still improving by {decrease:.2e} per epoch "
            f"after {cfg.max_iter} epochs (tolerance {cfg.tolerance:.0e} "
            f"x C = {stop:.0e})"
        )
    return w[:dim], float(w[dim])


# -----------------------------------------------------------------------------
# Platt calibration
# -----------------------------------------------------------------------------

def _stratified_folds(y: np.ndarray, folds: int, seed: int):
    """Stratified round-robin fold assignment over one global shuffle.

    Walking a single label-independent permutation and counting per class
    keeps the assignment identical when every label in the dataset is
    flipped, which the calibration symmetry contract relies on.
    """
    rng = np.random.default_rng(seed)
    assignment = np.empty(len(y), dtype=np.int64)
    seen = {1.0: 0, -1.0: 0}
    for i in rng.permutation(len(y)):
        assignment[i] = seen[y[i]] % folds
        seen[y[i]] += 1
    return assignment


def _fit_sigmoid(scores: np.ndarray, is_pos: np.ndarray):
    """Regularized ML sigmoid fit (damped Newton, max 100 iters).

    Raises CalibrationDegenerate when the scores are all identical or the
    fitted slope is not negative, so the scores do not separate the
    classes.
    """
    if scores.max() - scores.min() < 1e-12:
        raise CalibrationDegenerate("all calibration scores identical")
    n_pos = int(is_pos.sum())
    n_neg = len(is_pos) - n_pos
    hi = (n_pos + 1.0) / (n_pos + 2.0)
    lo = 1.0 / (n_neg + 2.0)
    t = np.where(is_pos, hi, lo)

    def objective(a, b):
        z = a * scores + b
        # cross-entropy written against log(1+exp) for stability
        return float(
            np.sum(np.where(z >= 0, t * z, (t - 1) * z)
                   + np.log1p(np.exp(-np.abs(z))))
        )

    a, b = 0.0, math.log((n_neg + 1.0) / (n_pos + 1.0))
    fval = objective(a, b)
    for _ in range(100):
        z = a * scores + b
        p = _sigmoid(z)
        grad_a = float(np.sum((t - p) * scores))
        grad_b = float(np.sum(t - p))
        if max(abs(grad_a), abs(grad_b)) < 1e-10:
            break
        wgt = p * (1.0 - p)
        h_aa = float(np.sum(wgt * scores * scores)) + 1e-12
        h_ab = float(np.sum(wgt * scores))
        h_bb = float(np.sum(wgt)) + 1e-12
        det = h_aa * h_bb - h_ab * h_ab
        if det <= 0:
            raise CalibrationDegenerate("singular Hessian in sigmoid fit")
        step_a = (h_bb * grad_a - h_ab * grad_b) / det
        step_b = (h_aa * grad_b - h_ab * grad_a) / det
        # damped Newton: halve the step until the objective decreases
        scale = 1.0
        for _ in range(30):
            na, nb = a - scale * step_a, b - scale * step_b
            nf = objective(na, nb)
            if nf < fval + 1e-15:
                a, b, fval = na, nb, nf
                break
            scale *= 0.5
        else:
            break
    if not a < 0:
        raise CalibrationDegenerate(
            "calibration slope is not negative; scores do not separate "
            "the classes"
        )
    return a, b


def platt_calibrate(
    x: np.ndarray, labels, cfg: TrainConfig = TrainConfig()
) -> CalibratedLinearModel:
    """Out-of-fold scores -> sigmoid fit; final SVM retrained on all rows."""
    raw = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels)
    x, y = _design_matrix(raw, labels)
    n_pos = int((y > 0).sum())
    n_neg = int((y < 0).sum())
    if min(n_pos, n_neg) < cfg.folds:
        raise SingleClassData(
            f"need at least {cfg.folds} examples per class for "
            f"{cfg.folds}-fold calibration"
        )

    assignment = _stratified_folds(y, cfg.folds, cfg.seed)
    scores = np.empty(len(y))
    for fold in range(cfg.folds):
        held = assignment == fold
        fold_cfg = replace(cfg, seed=cfg.seed + 1000 * (fold + 1))
        w, b = train_linear_svm(raw[~held], labels[~held], fold_cfg)
        scores[held] = x[held] @ w + b

    a, b_cal = _fit_sigmoid(scores, y > 0)

    w, b = train_linear_svm(raw, labels, cfg)
    return CalibratedLinearModel(
        w, b, a, b_cal,
        decision_threshold=0.5,
        train_C=cfg.C, train_folds=cfg.folds, train_seed=cfg.seed,
    )


def recalibrate(
    model: CalibratedLinearModel, x: np.ndarray, labels
) -> CalibratedLinearModel:
    """Refit only the sigmoid on fresh labeled rows, keeping the separator.

    For when the decision boundary still holds but the score-to-
    probability mapping has drifted (new recording conditions). Needs
    both classes present and scores that actually separate them.
    """
    is_pos = _targets(labels, len(x)) > 0
    if is_pos.all() or not is_pos.any():
        raise SingleClassData("recalibration needs both classes")
    a, b_cal = _fit_sigmoid(model.scores(x), is_pos)
    return replace(model, calib_A=a, calib_B=b_cal)


# -----------------------------------------------------------------------------
# Threshold selection
# -----------------------------------------------------------------------------

@dataclass(frozen=True)
class ThresholdReport:
    threshold: float
    achieved_fpr: float
    achieved_tpr: float
    interpolated_tpr: float
    target_fpr: float


def select_threshold(
    scores: np.ndarray, positive: np.ndarray, target_fpr: float
) -> ThresholdReport:
    """Smallest decision threshold whose empirical FPR is within target.

    scores are probabilities and positive flags the rows that are truly
    speech. Predictions are positive at probability >= threshold, so FPR
    is non-increasing in the threshold and the smallest feasible
    threshold also maximizes TPR. The returned threshold sits just above
    the highest score that must stay excluded. TPR at the exact target is
    additionally reported by linear interpolation along the ROC curve.
    """
    if not 0 < target_fpr < 1:
        raise InvalidConfig("target FPR must lie strictly between 0 and 1")
    scores = np.asarray(scores, dtype=np.float64)
    positive = np.asarray(positive, dtype=bool)
    if scores.shape != positive.shape:
        raise DimMismatch(f"{positive.shape} labels for {scores.shape} scores")
    neg = np.sort(scores[~positive])[::-1]
    if not len(neg):
        raise NoNegatives("threshold selection needs negative examples")
    allowed = int(math.floor(target_fpr * len(neg)))
    # the (allowed+1)-th highest negative must fall below the threshold
    threshold = float(np.nextafter(neg[allowed], np.inf))

    pos = scores[positive]
    achieved_fpr = np.count_nonzero(neg >= threshold) / len(neg)
    achieved_tpr = (
        np.count_nonzero(pos >= threshold) / len(pos) if len(pos) else 0.0
    )
    interpolated = (
        tpr_at_fpr(roc_curve(scores, positive), target_fpr)
        if len(pos) else 0.0
    )
    return ThresholdReport(
        threshold, achieved_fpr, achieved_tpr, interpolated, target_fpr
    )


# -----------------------------------------------------------------------------
# Model file: JSON with floats printed at 17 significant digits so values
# survive the round trip bit-exactly.
# -----------------------------------------------------------------------------

def _fmt(x: float) -> str:
    if not math.isfinite(x):
        raise NonFiniteInput("cannot serialize non-finite value")
    return format(float(x), ".17g")


def save_model(model: CalibratedLinearModel, path: str | Path) -> None:
    lines = [
        "{",
        f'  "format_version": {MODEL_FORMAT_VERSION},',
        f'  "b": {_fmt(model.b)},',
        f'  "calib_A": {_fmt(model.calib_A)},',
        f'  "calib_B": {_fmt(model.calib_B)},',
        f'  "decision_threshold": {_fmt(model.decision_threshold)},',
        f'  "train_C": {_fmt(model.train_C)},',
        f'  "train_folds": {model.train_folds},',
        f'  "train_seed": {model.train_seed},',
        '  "w": [' + ", ".join(_fmt(v) for v in model.w) + "]",
        "}",
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_model(path: str | Path) -> CalibratedLinearModel:
    try:
        doc = json.loads(read_text(path))
    except json.JSONDecodeError as e:
        raise InvalidConfig(f"{path}: not a model file ({e})") from e
    if not isinstance(doc, dict):
        raise InvalidConfig(f"{path}: not a model file (not a JSON object)")
    if doc.get("format_version") != MODEL_FORMAT_VERSION:
        raise InvalidConfig(
            f"{path}: unsupported model format version "
            f"{doc.get('format_version')!r}"
        )
    for key in MODEL_KEYS:
        if key not in doc:
            raise InvalidConfig(f"{path}: model file lacks key {key!r}")
    try:
        return CalibratedLinearModel(
            np.asarray(doc["w"], dtype=np.float64),
            float(doc["b"]),
            float(doc["calib_A"]),
            float(doc["calib_B"]),
            float(doc["decision_threshold"]),
            float(doc.get("train_C", 1.0)),
            int(doc.get("train_folds", 3)),
            int(doc.get("train_seed", 0)),
        )
    except (TypeError, ValueError, OverflowError) as e:
        raise InvalidConfig(f"{path}: malformed model value ({e})") from e
