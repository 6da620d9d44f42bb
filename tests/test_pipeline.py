"""Clustering, probability filtering, and the three segmentation strategies."""
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speechseg.classifier import TrainConfig, platt_calibrate
from speechseg.errors import EmptyInput, InvalidConfig, UnsortedInput
from speechseg import pipeline, xvector
from speechseg.frontend import AudioBuffer, write_wav
from speechseg.metrics import condition_frames, frame_vad_eval, rasterize
from speechseg.pipeline import (
    DECISION,
    STRATEGIES,
    PipelineConfig,
    _runs_to_segments,
    cluster_ahc,
    filter_segments,
    run_pipeline,
    write_decision_log,
)
from speechseg.segments import Segment, check_sorted, write_tsv
from speechseg.synth import (
    make_noise,
    make_silence,
    make_speech_proxy,
    make_speech_then_tone,
    make_tone,
)
from speechseg.xvector import make_test_net, save_archive

from corpus import training_embeddings
from reference import (
    ref_cluster_ahc,
    ref_filter_segments,
    ref_runs_to_segments,
)

SR = 16000
DIM = 512


def matrix(*vectors):
    """The vectors as float32 rows, as the x-vectors the pipeline stacks."""
    return np.stack(vectors).astype(np.float32)


def basis(i, scale=1.0):
    v = np.zeros(DIM)
    v[i] = scale
    return v


@pytest.fixture(scope="module")
def net():
    return make_test_net(seed=7, preset="small")


@pytest.fixture(scope="module")
def model(net):
    x, labels = training_embeddings(net, 120, seed=0)
    return platt_calibrate(x, labels, TrainConfig(seed=0))


@pytest.fixture(scope="module")
def fixture_audio():
    return make_speech_then_tone(4.0, 6.0, seed=5)


class TestClusterAhc:
    def test_single_vector_single_cluster(self):
        out = cluster_ahc(matrix(basis(0)), 0.35)
        assert out.cluster_ids == [0]

    def test_two_orthogonal_bundles_split(self):
        # near-duplicates within each bundle, ~90 degrees across
        rng = np.random.default_rng(0)
        vecs = []
        for _ in range(10):
            vecs.append(basis(0) + 1e-3 * rng.standard_normal(DIM))
            vecs.append(basis(1) + 1e-3 * rng.standard_normal(DIM))
        ids = cluster_ahc(matrix(*vecs), 0.35).cluster_ids
        assert ids[0::2] == [0] * 10
        assert ids[1::2] == [1] * 10

    def test_threshold_two_merges_everything(self):
        rng = np.random.default_rng(1)
        vecs = rng.standard_normal((12, DIM)).astype(np.float32)
        assert set(cluster_ahc(vecs, 2.0).cluster_ids) == {0}

    def test_threshold_zero_keeps_distinct_vectors_apart(self):
        vecs = matrix(*(basis(i) for i in range(6)))
        assert cluster_ahc(vecs, 0.0).cluster_ids == list(range(6))

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyInput):
            cluster_ahc(np.empty((0, DIM), dtype=np.float32), 0.35)

    def test_one_distance_matrix_at_a_time(self):
        # the n x n float64 distance matrix is 8 MB here; the float64 and
        # unit-norm embeddings add half a matrix each
        n = 1000
        rng = np.random.default_rng(5)
        vecs = rng.standard_normal((n, DIM)).astype(np.float32)
        tracemalloc.start()
        try:
            cluster_ahc(vecs, 0.35, center=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * n * n * 8

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        vecs = rng.standard_normal((20, DIM)).astype(np.float32)
        assert cluster_ahc(vecs, 0.8).cluster_ids == cluster_ahc(
            vecs, 0.8
        ).cluster_ids

    def test_centering_separates_offset_dominated_classes(self):
        # a large shared direction swamps the class signal in raw cosine
        vecs = matrix(
            basis(0, 100.0) + basis(1),
            basis(0, 100.0) + basis(1),
            basis(0, 100.0) - basis(1),
            basis(0, 100.0) - basis(1),
        )
        assert set(cluster_ahc(vecs, 0.35).cluster_ids) == {0}
        assert cluster_ahc(vecs, 0.35, center=True).cluster_ids == [0, 0, 1, 1]

    def test_centering_skipped_below_three_vectors(self):
        vecs = matrix(basis(0, 100.0) + basis(1), basis(0, 100.0) - basis(1))
        assert cluster_ahc(vecs, 0.35, center=True).cluster_ids == [0, 0]

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.lists(
            st.tuples(
                st.integers(0, 5),
                st.sampled_from(["same", "scaled", "near", "axis", "fresh"]),
                st.sampled_from([0.125, 0.5, 2.0, 3.0, 1000.0]),
            ),
            min_size=1, max_size=80,
        ),
        threshold=st.sampled_from([0.0, 0.35, 0.8, 2.0]),
        center=st.booleans(),
    )
    def test_matches_full_scan_oracle(self, seed, rows, threshold, center):
        # exact duplicates, positive multiples and shared axes give tied
        # distances, so the lowest-(i, j) rule on ties is exercised
        rng = np.random.default_rng(seed)
        protos = rng.standard_normal((6, DIM))
        vecs = []
        for proto, kind, scale in rows:
            if kind == "same":
                v = protos[proto]
            elif kind == "scaled":
                v = scale * protos[proto]
            elif kind == "near":
                v = protos[proto] + 0.3 * rng.standard_normal(DIM)
            elif kind == "axis":
                v = basis(proto, scale)
            else:
                v = rng.standard_normal(DIM)
            vecs.append(v)
        values = matrix(*vecs)
        assert cluster_ahc(values, threshold, center=center).cluster_ids == (
            ref_cluster_ahc(values, threshold, center=center)
        )

    def test_rounding_tie_goes_to_lowest_column(self):
        # window 0 is equally far from windows 2 and 3 (mirror images), and
        # one ulp farther from window 1 (9 times window 3). Once 1 and 3
        # merge at distance 0, the average rounds back down to the tie, so
        # window 0's nearest becomes the lower column 1, as a full scan of
        # the matrix finds. Every dot product here is exact.
        up = np.r_[2.0, 9.0, 2.0, np.zeros(DIM - 3)]
        down = np.r_[2.0, -9.0, 2.0, np.zeros(DIM - 3)]
        values = matrix(basis(0), 9.0 * down, up, down)
        assert ref_cluster_ahc(values, 0.8) == [0, 0, 1, 0]
        assert cluster_ahc(values, 0.8).cluster_ids == [0, 0, 1, 0]


class TestClusteredSequence:
    def test_ids_must_be_dense_from_zero(self):
        # ids count up from 0 in order of first appearance, whatever
        # basis vector a bundle sits on
        vecs = matrix(basis(5), basis(2), basis(5), basis(0), basis(2))
        assert cluster_ahc(vecs, 0.35).cluster_ids == [0, 1, 0, 2, 1]


def decisions_of(rows):
    """A DECISION recarray of (start, end, probability, speech, cluster)."""
    return np.array(rows, DECISION).view(np.recarray)


def clustered_at(centers_probs, cut=0.5):
    """Decisions of 1.5 s windows centered at the given times, labeled as
    a model with decision threshold cut labels them."""
    return decisions_of(
        [(c - 0.75, c + 0.75, p, p >= cut, 0) for c, p in centers_probs]
    )


class TestRunsToSegments:
    @settings(max_examples=300, deadline=None)
    @given(
        t0=st.integers(0, 1000).map(lambda t: 0.01 * t),
        windows=st.lists(
            st.tuples(
                # strides since the previous window's start: more than one
                # after skipped windows, and off the stride when nudged
                st.sampled_from([1, 1, 1, 2, 3]),
                st.sampled_from([0.0, 0.0, 0.0, 0.01, -0.2]),
                st.integers(-1, 2),
            ),
            max_size=30,
        ),
        tail=st.sampled_from([None, 0.5, 0.6, 0.75, 1.2]),
    )
    def test_matches_loop(self, t0, windows, tail):
        # ids repeat after gaps of other ids and of -1 (never clustered),
        # and a clamped tail can end before the window ahead of it
        rows, start = [], t0 - 0.75
        for strides, nudge, cid in windows:
            start += 0.75 * strides + nudge
            rows.append((start, start + 1.5, 0.5, True, cid))
        if rows and tail is not None:
            start, _, *rest = rows[-1]
            rows[-1] = (start, start + tail, *rest)
        decisions = decisions_of(rows)
        got = [(s.start_s, s.end_s, s.label)
               for s in _runs_to_segments(decisions)]
        assert got == ref_runs_to_segments(decisions)


class TestFilterSegments:
    def test_all_speech_kept(self):
        seq = clustered_at([(c, 0.9) for c in (0.5, 1.5, 2.5, 3.5)])
        segs = [Segment(0.0, 4.0, "spk0")]
        assert filter_segments(seq, segs, 0.5) == segs

    def test_all_noise_rejected(self):
        seq = clustered_at([(c, 0.1) for c in (0.5, 1.5, 2.5, 3.5)])
        assert filter_segments(seq, [Segment(0.0, 4.0, "spk0")], 0.5) == []

    def test_half_noise_is_not_strictly_greater(self):
        seq = clustered_at([(0.5, 0.9), (1.5, 0.9), (2.5, 0.1), (3.5, 0.1)])
        segs = [Segment(0.0, 4.0, "spk0")]
        assert filter_segments(seq, segs, 0.5) == segs

    def test_zero_attribution_rejected(self):
        seq = clustered_at([(0.5, 0.9)])
        segs = [Segment(0.0, 1.0, "spk0"), Segment(10.0, 12.0, "spk1")]
        assert filter_segments(seq, segs, 0.5) == [segs[0]]

    def test_window_center_goes_to_first_containing_segment(self):
        # centers 2.5 and 3.5 sit inside both overlapping segments and must
        # count only toward the first; the second then holds just noise
        seq = clustered_at([(2.5, 0.9), (3.5, 0.9), (4.5, 0.1)])
        segs = [Segment(0.0, 4.0, "spk0"), Segment(2.0, 6.0, "spk1")]
        assert filter_segments(seq, segs, 0.5) == [segs[0]]

    def test_noise_counts_follow_decision_labels(self):
        # the same probabilities, labeled by models cut at 0.5 and at 0.3
        centers = [(0.5, 0.4), (1.5, 0.4)]
        segs = [Segment(0.0, 2.0, "spk0")]
        assert filter_segments(clustered_at(centers), segs, 0.5) == []
        assert filter_segments(clustered_at(centers, 0.3), segs, 0.5) == segs

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_loop_on_overlapping_runs(self, data):
        # starts and ends on a 0.25 s grid, so segments overlap, nest and
        # touch, and window centers land exactly on their ends
        ticks = st.integers(0, 40)
        spans = data.draw(st.lists(
            st.tuples(ticks, st.integers(1, 16)), max_size=8
        ))
        segs = sorted(
            (Segment(0.25 * a, 0.25 * (a + n), f"spk{k}")
             for k, (a, n) in enumerate(spans)),
            key=lambda s: s.start_s,
        )
        centers = data.draw(st.lists(
            st.tuples(st.integers(0, 56).map(lambda t: 0.25 * t),
                      st.sampled_from([0.1, 0.9])),
            max_size=30,
        ))
        decisions = clustered_at(centers)
        rho = data.draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]))
        assert filter_segments(decisions, segs, rho) == ref_filter_segments(
            decisions, segs, rho
        )

    def test_segments_must_be_sorted_by_start(self):
        segs = [Segment(2.0, 4.0, "spk0"), Segment(0.0, 4.0, "spk1")]
        with pytest.raises(UnsortedInput):
            filter_segments(clustered_at([(1.0, 0.9)]), segs, 0.5)


def speech_eval(result, duration_s=10.0):
    conds = condition_frames(
        [Segment(0.0, 4.0, "clean_speech")], 0.010, duration_s
    )
    hyp = rasterize(
        [Segment(s.start_s, s.end_s, "speech") for s in result.segments],
        0.010,
        duration_s,
    )
    return frame_vad_eval(hyp, conds)


class TestRunPipeline:
    @pytest.mark.parametrize("strategy", ["xvector_filt", "xvector_seg_filt"])
    def test_recovers_speech_region(self, net, model, fixture_audio, strategy):
        cfg = PipelineConfig(strategy=strategy)
        res = run_pipeline(fixture_audio, cfg, model=model, net=net)
        assert res.segments
        lo = min(s.start_s for s in res.segments)
        hi = max(s.end_s for s in res.segments)
        assert abs(lo - 0.0) <= 0.75  # one stride per edge
        assert abs(hi - 4.0) <= 0.75
        rep = speech_eval(res)
        assert rep.tpr_all >= 0.9
        assert rep.fpr <= 0.1

    def test_window_grid_and_decision_count(self, net, model, fixture_audio):
        cfg = PipelineConfig(strategy="xvector_filt")
        res = run_pipeline(fixture_audio, cfg, model=model, net=net)
        starts = [v.window_start_s for v in res.xvectors]
        # 12 full windows plus the clamped tail starting at 9.0
        assert starts == pytest.approx([0.75 * k for k in range(13)])
        assert res.xvectors[-1].window_end_s == pytest.approx(9.98)
        assert len(res.decisions) == 13

    def test_filt_never_builds_from_low_probability(
        self, net, model, fixture_audio
    ):
        cfg = PipelineConfig(strategy="xvector_filt")
        kept = []
        for cut in (0.5, 0.9):
            tuned = replace(model, decision_threshold=cut)
            res = run_pipeline(fixture_audio, cfg, model=tuned, net=net)
            for d in res.decisions:
                assert (d.cluster >= 0) == (d.probability >= cut)
            kept_starts = {d.start_s for d in res.decisions if d.cluster >= 0}
            kept_ends = {d.end_s for d in res.decisions if d.cluster >= 0}
            for seg in res.segments:
                assert seg.start_s in kept_starts
                assert seg.end_s in kept_ends
            kept.append(kept_starts)
        # the fixture has windows between the two cuts
        assert kept[1] < kept[0]

    def test_strategies_agree_on_window_decisions(
        self, net, model, fixture_audio
    ):
        # a cut away from 0.5, so the labels can only come from the model
        cut = 0.9
        tuned = replace(model, decision_threshold=cut)
        res = {
            s: run_pipeline(fixture_audio, PipelineConfig(strategy=s),
                            model=tuned, net=net).decisions
            for s in STRATEGIES
        }
        filt, seg = res["xvector_filt"], res["xvector_seg_filt"]

        def window(d):
            return d.start_s, d.end_s, d.probability, d.speech

        assert [window(d) for d in filt] == [window(d) for d in seg]
        assert filt.speech.any() and not filt.speech.all()
        for d in filt:
            assert (d.cluster == -1) == (d.probability < cut)
        assert all(d.cluster >= 0 for d in seg)
        assert len(res["baseline"])
        for d in res["baseline"]:
            assert d.speech == (d.probability >= cut)
            assert d.cluster >= 0

    def test_seg_filt_noise_proportion_bound(self, net, model, fixture_audio):
        cfg = PipelineConfig(strategy="xvector_seg_filt")
        res = run_pipeline(fixture_audio, cfg, model=model, net=net)
        assert res.segments
        counts = [[0, 0] for _ in res.segments]  # [total, noise]
        for d in res.decisions:
            center = (d.start_s + d.end_s) / 2
            for k, seg in enumerate(res.segments):
                if seg.start_s <= center < seg.end_s:
                    counts[k][0] += 1
                    counts[k][1] += not d.speech
                    break
        for total, noise in counts:
            assert total > 0
            assert noise / total <= cfg.noise_proportion_threshold

    def test_baseline_covers_energetic_audio(self, net, model, fixture_audio):
        cfg = PipelineConfig(strategy="baseline")
        res = run_pipeline(fixture_audio, cfg, model=model, net=net)
        assert res.segments
        # the energy criterion has no notion of tonality, so the sine
        # region stays in; x-vector strategies exist to fix exactly this
        covered = sum(s.end_s - s.start_s for s in res.segments)
        assert covered >= 8.0
        for seg in res.segments:
            assert re.fullmatch(r"spk\d+", seg.label)
            for b in (seg.start_s, seg.end_s):
                r = b % 0.030
                assert min(r, 0.030 - r) < 1e-6

    def test_baseline_runs_without_classifier(self, net, fixture_audio):
        cfg = PipelineConfig(strategy="baseline")
        res = run_pipeline(fixture_audio, cfg, net=net)
        assert res.segments
        assert all(d.probability == 1.0 for d in res.decisions)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_digital_silence_yields_empty(self, net, model, strategy):
        cfg = PipelineConfig(strategy=strategy)
        res = run_pipeline(make_silence(10.0), cfg, model=model, net=net)
        assert res.segments == ()
        assert len(res.xvectors) == 0
        assert len(res.decisions) == 0

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_output_invariants(self, net, model, fixture_audio, strategy):
        cfg = PipelineConfig(strategy=strategy)
        res = run_pipeline(fixture_audio, cfg, model=model, net=net)
        check_sorted(list(res.segments))
        for seg in res.segments:
            assert seg.end_s > seg.start_s
            assert 0.0 <= seg.start_s
            assert seg.end_s <= fixture_audio.duration_s + 1e-9

    @pytest.mark.parametrize("strategy", ["xvector_filt", "xvector_seg_filt"])
    def test_boundaries_on_stride_grid(
        self, net, model, fixture_audio, strategy
    ):
        cfg = PipelineConfig(strategy=strategy)
        res = run_pipeline(fixture_audio, cfg, model=model, net=net)
        tail_end = 9.98  # clamped final window may end off-grid
        for seg in res.segments:
            for b in (seg.start_s, seg.end_s):
                r = b % 0.75
                assert min(r, 0.75 - r) < 1e-6 or abs(b - tail_end) < 1e-6

    def test_two_runs_byte_identical(
        self, net, model, fixture_audio, tmp_path
    ):
        cfg = PipelineConfig(strategy="xvector_seg_filt")
        blobs = []
        for run in range(2):
            res = run_pipeline(fixture_audio, cfg, model=model, net=net)
            tsv = tmp_path / f"run{run}.tsv"
            log = tmp_path / f"run{run}.log"
            write_tsv(list(res.segments), tsv)
            write_decision_log(res.decisions, log)
            blobs.append(tsv.read_bytes() + log.read_bytes())
        assert blobs[0] == blobs[1]

    def test_path_input_matches_buffer(
        self, net, model, fixture_audio, tmp_path
    ):
        wav = tmp_path / "fixture.wav"
        write_wav(fixture_audio, wav, encoding="float32")
        cfg = PipelineConfig(strategy="xvector_seg_filt")
        a = run_pipeline(wav, cfg, model=model, net=net)
        b = run_pipeline(fixture_audio, cfg, model=model, net=net)
        key = lambda r: [(s.start_s, s.end_s, s.label) for s in r.segments]
        assert key(a) == key(b)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_skipping_silent_windows_matches_dropping_them(
        self, net, model, strategy, monkeypatch, tmp_path
    ):
        # digital silence at the start, 3.5 s in the middle (whole windows
        # silent) and at the end: windows that extraction skips must give
        # what embedding every window and then dropping them gave. The
        # baseline embeds only inside VAD regions, so a merge gap longer
        # than the middle silence puts silent windows in one
        audio = AudioBuffer(np.concatenate([
            make_silence(1.6).samples,
            make_speech_proxy(3.0, seed=2).samples,
            make_silence(3.5).samples,
            make_tone(2.4, 440.0).samples,
            make_speech_proxy(1.5, seed=3).samples,
            make_silence(2.2).samples,
        ]), SR)
        cfg = PipelineConfig(strategy=strategy, merge_gap_s=4.0)

        def outputs(tag):
            res = run_pipeline(audio, cfg, model=model, net=net)
            save_archive(res.xvectors, tmp_path / f"{tag}.xvec")
            write_decision_log(res.decisions, tmp_path / f"{tag}.log")
            return ((tmp_path / f"{tag}.xvec").read_bytes(),
                    (tmp_path / f"{tag}.log").read_bytes(), res.segments)

        skipped = outputs("skip")
        dropped = []

        def embed_all_then_drop(net, streams, keep):
            for got in xvector.extract_streams(net, streams):
                kept = np.array([keep(v.window_start_s, v.window_end_s)
                                 for v in got], dtype=bool)
                dropped.extend(got[~kept])
                yield got[kept]

        monkeypatch.setattr(pipeline, "extract_streams", embed_all_then_drop)
        monkeypatch.setattr(
            pipeline, "extract_sequence",
            lambda net, feats, keep: next(embed_all_then_drop(
                net, [feats], keep)),
        )
        assert outputs("drop") == skipped
        assert dropped  # some windows were silent
        assert skipped[2]

    def test_xvector_strategy_requires_model(self, net, fixture_audio):
        with pytest.raises(InvalidConfig):
            run_pipeline(
                fixture_audio, PipelineConfig(strategy="xvector_filt"), net=net
            )



NAN = float("nan")


class TestPipelineConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"strategy": "bogus"},
            {"strategy": "baseline", "noise_proportion_threshold": 1.5},
            {"strategy": "baseline", "noise_proportion_threshold": -0.1},
            {"strategy": "baseline", "cluster_distance_threshold": -1.0},
            {"strategy": "baseline", "baseline_aggressiveness": 5},
            {"strategy": "baseline", "median_width": 4},
            {"strategy": "baseline", "median_width": -3},
            {"strategy": "baseline", "merge_gap_s": -0.5},
            # a NaN cut would put every window into one cluster
            {"strategy": "baseline", "noise_proportion_threshold": NAN},
            {"strategy": "baseline", "cluster_distance_threshold": NAN},
            {"strategy": "baseline", "merge_gap_s": NAN},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(InvalidConfig):
            PipelineConfig(**kwargs)

    def test_defaults(self, model):
        cfg = PipelineConfig(strategy="xvector_filt")
        # the probability cut is the model's, and training writes 0.5
        assert model.decision_threshold == 0.5
        assert cfg.noise_proportion_threshold == 0.5
        assert cfg.cluster_distance_threshold == 0.35
        assert cfg.merge_gap_s == 0.5


class TestDecisionLog:
    def test_line_format(self, tmp_path):
        recs = decisions_of([
            (0.0, 1.5, 0.987654321, True, 0),
            (0.75, 2.25, 0.0123, False, -1),
        ])
        path = tmp_path / "d.log"
        write_decision_log(recs, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "0.000 1.500 0.987654 speech 0"
        assert lines[1] == "0.750 2.250 0.012300 noise -1"


class TestSyntheticAudio:
    def test_silence_is_zero(self):
        s = make_silence(1.0)
        assert s.samples.shape == (SR,)
        assert not s.samples.any()

    def test_tone_frequency(self):
        tone = make_tone(2.0, freq_hz=440.0)
        spec = np.abs(np.fft.rfft(tone.samples))
        peak = np.fft.rfftfreq(tone.samples.size, 1 / SR)[np.argmax(spec)]
        assert peak == pytest.approx(440.0, abs=1.0)

    def test_amplitude_normalization(self):
        assert np.abs(make_noise(1.0, seed=3).samples).max() == pytest.approx(
            0.1
        )
        proxy = make_speech_proxy(1.0, seed=3)
        assert np.abs(proxy.samples).max() == pytest.approx(0.3)

    def test_proxy_seed_determinism(self):
        a = make_speech_proxy(1.0, seed=5)
        b = make_speech_proxy(1.0, seed=5)
        c = make_speech_proxy(1.0, seed=6)
        assert np.array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    def test_speech_then_tone_layout(self):
        mix = make_speech_then_tone(4.0, 6.0, seed=5)
        assert mix.samples.shape == (10 * SR,)
        assert np.array_equal(mix.samples[4 * SR :], make_tone(6.0).samples)
        assert np.abs(mix.samples[: 4 * SR]).max() == pytest.approx(0.3)

    def test_generator_preconditions(self):
        with pytest.raises(InvalidConfig):
            make_tone(1.0, freq_hz=9000.0)  # above Nyquist
        with pytest.raises(InvalidConfig):
            make_tone(1.0, amplitude=0.0)
        with pytest.raises(InvalidConfig):
            make_silence(0.0)
