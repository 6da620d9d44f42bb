"""Top-level acceptance checks, one test per criterion.

Each criterion carries an explicit wall-clock budget measured around its
whole body, and prints a single tagged PASS line with the observed
numbers once every assertion has held (run with -v or -s to see them).
Oracles come from reference.py and are written without touching the
production implementations.
"""
import math
import time
from pathlib import Path

import numpy as np

from corpus import training_embeddings
from reference import (
    ref_edit_distance,
    ref_forward_xvector,
    ref_median_filter,
    ref_roc,
    ref_window_spans,
)
from test_xvector import net_to_plain

from speechseg.analysis import pca_reduce, tsne_embed
from speechseg.baseline import FrameDecisionTrack, median_filter, merge_segments
from speechseg.classifier import TrainConfig, platt_calibrate
from speechseg.cli import main as cli_main
from speechseg.frontend import apply_cmvn, compute_mfcc
from speechseg.metrics import (
    RocCurve,
    align_wer,
    condition_frames,
    frame_vad_eval,
    rasterize,
    roc_curve,
    tpr_at_fpr,
    wer_from_counts,
)
from speechseg.pipeline import PipelineConfig, run_pipeline
from speechseg.segments import Segment
from speechseg.synth import make_speech_proxy, make_speech_then_tone
from speechseg.xvector import extract_sequence, forward_window, make_test_net


def _passed(num, name, elapsed, budget, detail):
    assert elapsed < budget, (
        f"criterion {num} ({name}) took {elapsed:.1f}s, budget {budget}s"
    )
    print(f"\n[acceptance {num:02d}] PASS {name}: {detail} "
          f"({elapsed:.2f}s < {budget:g}s)")


# Published STT error breakdowns: (#TOT, #ERR, #INS, #DEL, #SUB, %WER)
# for two datasets x three VAD front-ends.
WER_ROWS = [
    (82361, 22128, 3776, 7795, 10557, 26.9),
    (82364, 21712, 3115, 8259, 10338, 26.4),
    (82368, 22012, 2862, 9125, 10025, 26.7),
    (35936, 11144, 5458, 1886, 3800, 31.0),
    (35937, 10206, 4438, 1939, 3829, 28.4),
    (35936, 8821, 3021, 2004, 3796, 24.5),
]


def test_criterion_01_wer_table_arithmetic():
    budget, t0 = 1.0, time.perf_counter()
    for tot, err, ins, dels, subs, wer in WER_ROWS:
        assert ins + dels + subs == err
        assert round(wer_from_counts(tot, ins, dels, subs), 1) == wer
    _passed(1, "published WER table arithmetic",
            time.perf_counter() - t0, budget,
            f"{len(WER_ROWS)} rows consistent and reproduced to 1 decimal")


def test_criterion_02_wer_oracle_equivalence():
    budget, t0 = 10.0, time.perf_counter()
    rng = np.random.default_rng(202)
    vocab = [f"w{k}" for k in range(10)]
    for _ in range(200):
        ref = [vocab[k] for k in rng.integers(0, 10, rng.integers(1, 13))]
        hyp = [vocab[k] for k in rng.integers(0, 10, rng.integers(0, 13))]
        got = align_wer(ref, hyp)
        errors, _, _, _ = ref_edit_distance(ref, hyp)
        assert got.errors == errors, (ref, hyp)
    _passed(2, "WER alignment vs exhaustive DP oracle",
            time.perf_counter() - t0, budget,
            "200 random pairs, exact error-count match")


def test_criterion_03_roc_oracle_equivalence():
    budget, t0 = 10.0, time.perf_counter()
    rng = np.random.default_rng(303)
    for _ in range(100):
        n = int(rng.integers(2, 501))
        labels = rng.integers(0, 2, n)
        if labels.all() or not labels.any():
            labels[0] = 1 - labels[0]
        if rng.integers(0, 2):
            scores = rng.integers(0, 20, n) / 20.0  # ties on purpose
        else:
            scores = np.round(rng.standard_normal(n), 3)
        scored = [(float(s), int(y)) for s, y in zip(scores, labels)]
        got = roc_curve(scores, labels)
        want = ref_roc(scored)
        assert np.array_equal(got.fpr, [w[0] for w in want])
        assert np.array_equal(got.tpr, [w[1] for w in want])
        assert np.array_equal(got.thresholds, [w[2] for w in want])
    fixture = RocCurve(
        np.array([0.0, 0.2, 0.4]),
        np.array([0.0, 0.6, 0.8]),
        np.array([math.inf, 0.9, 0.5]),
    )
    by_hand = 0.6 + (0.315 - 0.2) / (0.4 - 0.2) * (0.8 - 0.6)
    assert abs(tpr_at_fpr(fixture, 0.315) - by_hand) <= 1e-9
    _passed(3, "ROC vs brute-force threshold oracle",
            time.perf_counter() - t0, budget,
            f"100 scored sets exact; 3-point interpolation = {by_hand}")


def test_criterion_04_forward_pass_oracle():
    budget, t0 = 30.0, time.perf_counter()
    worst = 0.0
    for seed in range(20):
        net = make_test_net(seed, preset="small")
        x = np.random.default_rng(1000 + seed).standard_normal((150, 30))
        got = forward_window(net, x)
        want = ref_forward_xvector(net_to_plain(net), x)
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-8)
        denom = np.maximum(np.abs(want), 1e-8)
        worst = max(worst, float(np.max(np.abs(got - want) / denom)))
    _passed(4, "TDNN forward vs layer-by-layer oracle",
            time.perf_counter() - t0, budget,
            f"20 nets x 150 frames, worst relative error {worst:.2e}")


def test_criterion_05_extraction_protocol():
    budget, t0 = 5.0, time.perf_counter()
    net = make_test_net(0, preset="small")
    feats = apply_cmvn(compute_mfcc(make_speech_proxy(3.0, seed=1)))
    vecs = extract_sequence(net, feats)
    starts = [v.window_start_s for v in vecs]
    assert len(vecs) == 3
    assert starts == [0.0, 0.75, 1.5]
    assert all(v.values.shape == (512,) for v in vecs)
    spans = ref_window_spans(feats.span_s)
    assert [(v.window_start_s, v.window_end_s) for v in vecs] == spans
    _passed(5, "sliding-window extraction protocol",
            time.perf_counter() - t0, budget,
            "3.0s stream -> 3 windows at 0/0.75/1.5s, 512-d each")


def _blobs(n_per_class, margin, sigma, dim, seed):
    """(x, labels): speech rows at +margin on axis 0, then noise rows."""
    rng = np.random.default_rng(seed)
    x = sigma * rng.standard_normal((2 * n_per_class, dim))
    x[:n_per_class, 0] += margin
    x[n_per_class:, 0] -= margin
    return x, ["speech"] * n_per_class + ["noise"] * n_per_class


def _predict(model, x):
    p = model.probability(x)
    return ("speech" if p >= model.decision_threshold else "noise"), p


def test_criterion_06_classifier_end_to_end():
    budget, t0 = 30.0, time.perf_counter()
    x, labels = _blobs(n_per_class=200, margin=0.5, sigma=0.01, dim=512,
                       seed=6)
    train = np.r_[0:150, 200:350]
    hold = np.r_[150:200, 350:400]
    model = platt_calibrate(x[train], [labels[i] for i in train],
                            TrainConfig(seed=0))

    hits = sum(1 for i in hold if _predict(model, x[i])[0] == labels[i])
    accuracy = hits / len(hold)
    assert accuracy >= 0.99

    raws = model.scores(x[hold])
    probs = model.probabilities(x[hold])
    order = np.argsort(raws)
    assert (np.diff(probs[order]) >= 0).all()

    rng = np.random.default_rng(60)
    for _ in range(10):
        v = rng.standard_normal(512)
        base = _predict(model, v)
        # powers of two scale both numerator and L1 norm exactly
        assert _predict(model, 4.0 * v) == base
        assert _predict(model, 0.25 * v) == base
        label37, p37 = _predict(model, 3.7 * v)
        assert label37 == base[0]
        assert abs(p37 - base[1]) < 1e-12
    _passed(6, "classifier on separable 512-d blobs",
            time.perf_counter() - t0, budget,
            f"holdout accuracy {accuracy:.3f}, probabilities monotone, "
            "scaling invariant")


def test_criterion_07_pipeline_end_to_end():
    budget, t0 = 120.0, time.perf_counter()
    net = make_test_net(7, preset="small")
    model = platt_calibrate(*training_embeddings(net, 500, seed=0),
                            TrainConfig(seed=0))
    audio = make_speech_then_tone(4.0, 6.0, seed=5)
    duration = audio.duration_s
    conditions = condition_frames(
        [Segment(0.0, 4.0, "clean_speech"),
         Segment(4.0, duration, "no_speech")],
        0.010, duration,
    )
    observed = []
    for strategy in ("xvector_filt", "xvector_seg_filt"):
        cfg = PipelineConfig(strategy=strategy)
        res = run_pipeline(audio, cfg, model=model, net=net)
        assert res.segments, f"{strategy} emitted nothing"
        span_start = min(s.start_s for s in res.segments)
        span_end = max(s.end_s for s in res.segments)
        assert abs(span_start - 0.0) <= 0.75, (strategy, span_start)
        assert abs(span_end - 4.0) <= 0.75, (strategy, span_end)
        report = frame_vad_eval(
            rasterize(list(res.segments), 0.010, duration), conditions
        )
        assert report.tpr_all >= 0.9, (strategy, report.tpr_all)
        assert report.fpr <= 0.1, (strategy, report.fpr)
        observed.append(
            f"{strategy} span [{span_start:.2f},{span_end:.2f}] "
            f"tpr {report.tpr_all:.3f} fpr {report.fpr:.3f}"
        )
    _passed(7, "synthetic pipeline end-to-end",
            time.perf_counter() - t0, budget, "; ".join(observed))


def test_criterion_08_baseline_post_processing():
    budget, t0 = 10.0, time.perf_counter()
    rng = np.random.default_rng(808)
    for _ in range(1000):
        n = int(rng.integers(0, 60))
        decisions = rng.integers(0, 2, n)
        width = int(rng.choice([1, 3, 5, 7, 9]))
        got = median_filter(FrameDecisionTrack(decisions), width)
        assert list(got.decisions) == ref_median_filter(
            list(decisions), width
        )

    def random_track(single_label):
        segs, t = [], 0.0
        for _ in range(int(rng.integers(0, 12))):
            t += float(rng.choice([0.0, 0.2, 0.5, 0.50001, 0.7, 1.3]))
            dur = 0.1 + float(rng.random())
            label = "speech" if single_label else str(
                rng.choice(["spk0", "spk1"])
            )
            segs.append(Segment(t, t + dur, label))
            t += dur
        return segs

    for trial in range(300):
        segs = random_track(single_label=trial < 200)
        merged = merge_segments(segs, 0.5)
        assert merge_segments(merged, 0.5) == merged
        by_label = {}
        for seg in merged:
            prev = by_label.get(seg.label)
            if prev is not None:
                assert seg.start_s - prev.end_s > 0.5, (prev, seg)
            by_label[seg.label] = seg
    _passed(8, "median filter and gap merging",
            time.perf_counter() - t0, budget,
            "1000 tracks match brute force; merge idempotent, "
            "no residual gap <= 0.5s")


def _two_means(points):
    """Plain 2-means seeded from the farthest pair; returns assignments."""
    diffs = points[:, None, :] - points[None, :, :]
    dist = (diffs ** 2).sum(-1)
    i, j = np.unravel_index(int(dist.argmax()), dist.shape)
    centers = np.stack([points[i], points[j]])
    assign = np.zeros(len(points), dtype=int)
    for _ in range(100):
        d = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(-1)
        new_assign = d.argmin(axis=1)
        if (new_assign == assign).all() and _ > 0:
            break
        assign = new_assign
        for c in (0, 1):
            if (assign == c).any():
                centers[c] = points[assign == c].mean(axis=0)
    return assign


def test_criterion_09_pca_tsne():
    budget, t0 = 120.0, time.perf_counter()
    rng = np.random.default_rng(99)
    x = np.outer(rng.standard_normal(40), rng.standard_normal(8))
    pca = pca_reduce(x, 0.95)
    assert pca.k == 1
    assert abs(float(pca.ratios[0]) - 1.0) <= 1e-9

    blob_rng = np.random.default_rng(4)
    direction = blob_rng.standard_normal(10)
    direction /= np.linalg.norm(direction)
    a = blob_rng.standard_normal((30, 10))
    b = blob_rng.standard_normal((30, 10)) + 8.0 * direction
    points = np.vstack([a, b])
    truth = np.array([0] * 30 + [1] * 30)
    agreements = []
    for seed in (0, 1, 2):
        res = tsne_embed(points, perplexity=10.0, iters=1000, seed=seed)
        assign = _two_means(res.coords)
        agree = max(
            float(np.mean(assign == truth)), float(np.mean(assign != truth))
        )
        assert agree >= 0.95, (seed, agree)
        agreements.append(f"{agree:.3f}")
    _passed(9, "PCA rank recovery and t-SNE blob separation",
            time.perf_counter() - t0, budget,
            f"k=1 ratio 1.0; 2-means agreement {', '.join(agreements)}")


def _cli(argv):
    try:
        code = cli_main(list(argv))
    except SystemExit as e:  # argparse exits
        code = e.code if e.code is not None else 0
    assert code == 0, f"cli {argv} exited {code}"


def test_criterion_10_cli_determinism(tmp_path, capsys):
    budget, t0 = 180.0, time.perf_counter()
    d = tmp_path
    _cli(["gen-test-model", "--out", str(d / "net.xvnw"), "--seed", "3",
          "--preset", "small"])
    _cli(["gen-test-audio", "--out", str(d / "mix.wav"),
          "--kind", "speech_then_tone", "--seed", "5"])
    lines = []
    for i in range(4):
        sp, tn = d / f"sp{i}.wav", d / f"tn{i}.wav"
        _cli(["gen-test-audio", "--out", str(sp), "--kind", "speech",
              "--duration", "1.5", "--seed", str(200 + i)])
        _cli(["gen-test-audio", "--out", str(tn), "--kind", "tone",
              "--duration", "1.5", "--freq", str(400 + 500 * i)])
        lines += [f"{sp}\tspeech\tsp{i}", f"{tn}\tnoise\ttn{i}"]
    (d / "train.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    for run in ("1", "2"):
        _cli(["train", "--manifest", str(d / "train.tsv"),
              "--net", str(d / "net.xvnw"), "--seed", "0",
              "--out", str(d / f"model{run}.json")])
        _cli(["segment", "--strategy", "xvector_seg_filt",
              "--audio", str(d / "mix.wav"), "--net", str(d / "net.xvnw"),
              "--model", str(d / "model1.json"),
              "--out", str(d / f"seg{run}")])
        _cli(["reduce", "--manifest", str(d / "train.tsv"),
              "--net", str(d / "net.xvnw"), "--seed", "0",
              "--perplexity", "2", "--iters", "250",
              "--out", str(d / f"proj{run}.csv")])
    capsys.readouterr()

    compared = []
    pairs = [(d / "model1.json", d / "model2.json"),
             (d / "proj1.csv", d / "proj2.csv")]
    for name in ("mix.seg.tsv", "mix.rttm", "mix.xvec", "mix.decisions.log"):
        pairs.append((d / "seg1" / name, d / "seg2" / name))
    for first, second in pairs:
        assert first.read_bytes() == second.read_bytes(), first.name
        compared.append(first.name)
    _passed(10, "CLI determinism across reruns",
            time.perf_counter() - t0, budget,
            f"byte-identical: {', '.join(compared)}")
