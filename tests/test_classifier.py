"""L1 normalization, SVM training, calibration, thresholding, model I/O."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speechseg.classifier import (
    CalibratedLinearModel,
    ThresholdReport,
    TrainConfig,
    l1_normalize,
    load_model,
    platt_calibrate,
    recalibrate,
    save_model,
    select_threshold,
    train_linear_svm,
)
from speechseg.errors import (
    CalibrationDegenerate,
    DimMismatch,
    InvalidConfig,
    NoNegatives,
    NonFiniteInput,
    SingleClassData,
)


def blob_dataset(n_per_class=200, margin=0.5, sigma=0.01, dim=512, seed=0):
    """(x, labels): two separable clouds at +/- margin along the first
    axis, speech rows first."""
    rng = np.random.default_rng(seed)
    x = sigma * rng.standard_normal((2 * n_per_class, dim))
    x[:n_per_class, 0] += margin
    x[n_per_class:, 0] -= margin
    return x, ["speech"] * n_per_class + ["noise"] * n_per_class


def predicted(model, x):
    """Speech iff the probability reaches the decision threshold."""
    p = model.probability(x)
    return ("speech" if p >= model.decision_threshold else "noise"), p


class TestL1Normalize:
    def test_basic(self):
        np.testing.assert_array_equal(
            l1_normalize(np.array([3.0, 1.0])), [0.75, 0.25]
        )

    def test_zero_vector_passthrough(self):
        np.testing.assert_array_equal(
            l1_normalize(np.zeros(4)), np.zeros(4)
        )

    def test_signs_preserved(self):
        out = l1_normalize(np.array([-2.0, 2.0]))
        np.testing.assert_array_equal(out, [-0.5, 0.5])
        assert np.abs(out).sum() == 1.0

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteInput):
            l1_normalize(np.array([1.0, np.nan]))

    @given(
        dim=st.integers(1, 16),
        seed=st.integers(0, 10_000),
        scale=st.floats(1e-6, 1e6),
    )
    @settings(max_examples=60, deadline=None)
    def test_norm_and_idempotence(self, dim, seed, scale):
        x = scale * np.random.default_rng(seed).standard_normal(dim)
        once = l1_normalize(x)
        norm = np.abs(once).sum()
        assert norm == 0.0 or abs(norm - 1.0) < 1e-9
        twice = l1_normalize(once)
        np.testing.assert_allclose(twice, once, atol=1e-12)


class TestTrainConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"C": 0.0}, {"C": -1.0}, {"C": float("nan")}, {"C": float("inf")},
            {"tolerance": 0.0}, {"tolerance": float("nan")},
            {"max_iter": 0}, {"folds": 1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        # C = nan would run every epoch and then raise NonConvergence
        with pytest.raises(InvalidConfig):
            TrainConfig(**kwargs)


class TestSvmTraining:
    def test_separable_blobs_holdout(self):
        x, labels = blob_dataset()
        train = np.r_[0:150, 200:350]
        holdout = np.r_[150:200, 350:400]
        w, b = train_linear_svm(x[train], [labels[i] for i in train])
        correct = 0
        for i in holdout:
            score = w @ l1_normalize(x[i]) + b
            correct += ("speech" if score > 0 else "noise") == labels[i]
        assert correct / len(holdout) >= 0.99
        # speech side of the boundary is the +margin side
        speech_mean = np.zeros(512)
        speech_mean[0] = 0.5
        assert w @ l1_normalize(speech_mean) + b > 0

    def test_single_class_rejected(self):
        x = np.arange(1.0, 5.0)[:, None] * np.ones(8)
        with pytest.raises(SingleClassData):
            train_linear_svm(x, ["speech"] * 4)

    def test_rows_checked(self):
        x = np.eye(4)
        with pytest.raises(InvalidConfig, match="'silence'"):
            train_linear_svm(x, ["speech", "noise", "silence", "noise"])
        with pytest.raises(DimMismatch, match="3 labels for 4 rows"):
            train_linear_svm(x, ["speech", "noise", "noise"])
        x[2, 1] = np.nan
        with pytest.raises(NonFiniteInput):
            train_linear_svm(x, ["speech", "noise", "speech", "noise"])
        with pytest.raises(NonFiniteInput):
            platt_calibrate(np.tile(x, (3, 1)), ["speech", "noise"] * 6)

    def test_symmetric_pair_zero_bias(self):
        w, b = train_linear_svm(np.array([[-1.0], [1.0]]), ["noise", "speech"])
        assert abs(b / w[0]) <= 0.1  # boundary crosses near 0
        assert w[0] * 1 + b > 0
        assert w[0] * -1 + b < 0

    def test_objective_history_non_increasing(self):
        x, labels = blob_dataset(n_per_class=40, dim=16, sigma=0.2)
        history = []
        train_linear_svm(x, labels, TrainConfig(seed=3), history=history)
        assert len(history) >= 1
        for a, b in zip(history, history[1:]):
            assert b <= a + 1e-12

    @given(seed=st.integers(0, 200))
    @settings(max_examples=15, deadline=None)
    def test_objective_monotone_random_data(self, seed):
        rng = np.random.default_rng(seed)
        x, labels = [], []
        for _ in range(30):
            x.append(rng.standard_normal(6))
            labels.append("speech" if rng.uniform() < 0.5 else "noise")
        if len(set(labels)) < 2:
            return
        history = []
        try:
            train_linear_svm(
                np.array(x), labels, TrainConfig(seed=seed), history=history
            )
        finally:
            for a, b in zip(history, history[1:]):
                assert b <= a + 1e-12

    def test_deterministic(self):
        x, labels = blob_dataset(n_per_class=30, dim=8, sigma=0.3)
        w1, b1 = train_linear_svm(x, labels, TrainConfig(seed=5))
        w2, b2 = train_linear_svm(x, labels, TrainConfig(seed=5))
        assert np.array_equal(w1, w2) and b1 == b2


class TestCalibration:
    def test_blob_probabilities(self):
        model = platt_calibrate(*blob_dataset())
        speech_mean = np.zeros(512)
        speech_mean[0] = 0.5
        assert model.probability(speech_mean) >= 0.9
        assert model.probability(-speech_mean) <= 0.1
        assert model.calib_A < 0

    def test_identical_scores_degenerate(self):
        labels = ["speech" if i % 2 else "noise" for i in range(12)]
        with pytest.raises(CalibrationDegenerate):
            platt_calibrate(np.ones((12, 16)), labels)

    def test_label_flip_symmetry(self):
        x, labels = blob_dataset(n_per_class=60, dim=32, sigma=0.05, seed=4)
        flipped = ["noise" if lab == "speech" else "speech" for lab in labels]
        m = platt_calibrate(x, labels)
        mf = platt_calibrate(x, flipped)
        probe = np.random.default_rng(4).standard_normal((20, 32))
        for row in probe:
            assert mf.probability(row) == pytest.approx(
                1.0 - m.probability(row), abs=1e-6
            )

    def test_too_few_per_class(self):
        with pytest.raises(SingleClassData):
            platt_calibrate(*blob_dataset(n_per_class=2, dim=8))

    def test_recalibrate_keeps_separator(self):
        x, labels = blob_dataset(n_per_class=30, dim=16, sigma=0.3)
        model = platt_calibrate(x, labels)
        again = recalibrate(model, x, labels)
        assert np.array_equal(again.w, model.w) and again.b == model.b
        assert again.calib_A < 0
        with pytest.raises(DimMismatch):
            recalibrate(model, x, labels[1:])
        with pytest.raises(SingleClassData):
            recalibrate(model, x[:30], labels[:30])

    def test_monotone_in_score(self):
        model = platt_calibrate(*blob_dataset(n_per_class=50, dim=16))
        rng = np.random.default_rng(6)
        points = [rng.standard_normal(16) for _ in range(40)]
        pairs = sorted(
            (model.raw_score(p), model.probability(p)) for p in points
        )
        for (s1, p1), (s2, p2) in zip(pairs, pairs[1:]):
            assert s1 <= s2
            assert p1 <= p2 + 1e-15


class TestPredict:
    def test_sigmoid_midpoint(self):
        model = CalibratedLinearModel(
            np.zeros(4), 0.0, calib_A=-1.0, calib_B=0.0
        )
        label, p = predicted(model, np.array([1.0, 2.0, 3.0, 4.0]))
        assert p == 0.5
        assert label == "speech"  # 0.5 >= default threshold 0.5

    def test_positive_scaling_invariance(self):
        model = platt_calibrate(*blob_dataset(n_per_class=30, dim=16))
        rng = np.random.default_rng(7)
        for _ in range(10):
            x = rng.standard_normal(16)
            label, p = predicted(model, x)
            # power-of-two scaling is exactly invariant
            label4, p4 = predicted(model, 4.0 * x)
            assert (label4, p4) == (label, p)
            # arbitrary positive scaling agrees to rounding error
            label10, p10 = predicted(model, 10.0 * x)
            assert label10 == label
            assert p10 == pytest.approx(p, abs=1e-12)

    def test_speech_mean_classified(self):
        model = platt_calibrate(*blob_dataset())
        speech_mean = np.zeros(512)
        speech_mean[0] = 0.5
        label, p = predicted(model, speech_mean)
        assert label == "speech"
        assert p >= 0.9

    def test_dim_mismatch(self):
        model = CalibratedLinearModel(np.zeros(4), 0.0, -1.0, 0.0)
        with pytest.raises(DimMismatch):
            model.probability(np.ones(5))


class TestSelectThreshold:
    def test_perfect_separation(self):
        scored = [(0.9, 1), (0.8, 1), (0.2, 0), (0.1, 0)]
        report = select_threshold(scored, target_fpr=0.315)
        assert 0.2 < report.threshold <= 0.8
        assert report.achieved_fpr == 0.0
        assert report.achieved_tpr == 1.0

    def test_four_negative_example(self):
        scored = [(0.1, 0), (0.2, 0), (0.3, 0), (0.9, 0), (0.85, 1), (0.95, 1)]
        report = select_threshold(scored, target_fpr=0.315)
        assert report.threshold == pytest.approx(0.3, abs=1e-9)
        assert report.threshold > 0.3  # strictly above the cut score
        assert report.achieved_fpr == 0.25

    def test_near_unconstrained_target(self):
        # positives all sit above the lowest negative, so excluding only
        # that negative keeps every positive
        scored = [(0.05, 0), (0.5, 0), (0.6, 1), (0.7, 1), (0.9, 1)]
        report = select_threshold(scored, target_fpr=0.999)
        assert report.achieved_tpr == 1.0
        assert report.threshold <= 0.6  # at or below min positive score
        assert report.achieved_fpr <= 0.999

    def test_no_negatives(self):
        with pytest.raises(NoNegatives):
            select_threshold([(0.5, 1)], 0.5)

    def test_bad_target(self):
        scored = [(0.5, 1), (0.4, 0)]
        for t in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(InvalidConfig):
                select_threshold(scored, t)

    @given(
        n=st.integers(2, 80),
        seed=st.integers(0, 10_000),
        target=st.floats(0.01, 0.99),
    )
    @settings(max_examples=100, deadline=None)
    def test_fpr_never_exceeds_target(self, n, seed, target):
        rng = np.random.default_rng(seed)
        scored = [
            (float(rng.uniform()), int(rng.integers(0, 2))) for _ in range(n)
        ]
        if not any(y == 0 for _, y in scored):
            scored[0] = (scored[0][0], 0)
        report = select_threshold(scored, target)
        assert report.achieved_fpr <= target + 1e-12

    def test_tpr_monotone_in_target(self):
        rng = np.random.default_rng(8)
        scored = [
            (float(rng.uniform()), int(rng.integers(0, 2))) for _ in range(60)
        ]
        scored[0] = (0.5, 0)
        scored[1] = (0.6, 1)
        tprs = [
            select_threshold(scored, t).achieved_tpr
            for t in (0.05, 0.1, 0.2, 0.4, 0.8)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(tprs, tprs[1:]))


class TestModelIo:
    def test_roundtrip_bit_exact(self, tmp_path):
        model = platt_calibrate(*blob_dataset(n_per_class=20, dim=16))
        model = replace(model, decision_threshold=1 / 3)
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        assert np.array_equal(back.w, model.w)
        assert back.b == model.b
        assert back.calib_A == model.calib_A
        assert back.calib_B == model.calib_B
        assert back.decision_threshold == model.decision_threshold
        assert back.train_seed == model.train_seed

    def test_awkward_floats_roundtrip(self, tmp_path):
        model = CalibratedLinearModel(
            np.array([0.1, 1e-300, -1234567.89012345678, 2**-40]),
            b=math.pi,
            calib_A=-math.e,
            calib_B=1e17,
            decision_threshold=0.1,
        )
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        assert np.array_equal(back.w, model.w)
        assert (back.b, back.calib_A, back.calib_B) == (
            model.b, model.calib_A, model.calib_B,
        )

    def test_rejects_bad_version(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"format_version": 99}', encoding="utf-8")
        with pytest.raises(InvalidConfig):
            load_model(path)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("not json", encoding="utf-8")
        with pytest.raises(InvalidConfig):
            load_model(path)

    def test_rejects_infinite_integer_field(self, tmp_path):
        model = CalibratedLinearModel(np.ones(4), 0.0, -1.0, 0.0)
        path = tmp_path / "model.json"
        save_model(model, path)
        text = path.read_text(encoding="utf-8").replace(
            '"train_folds": 3', '"train_folds": 1e999'
        )
        path.write_text(text, encoding="utf-8")
        with pytest.raises(InvalidConfig, match="malformed model value"):
            load_model(path)
