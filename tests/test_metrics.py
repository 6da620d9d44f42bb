"""ROC, frame VAD scoring, rasterization, and WER alignment."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speechseg.baseline import FrameDecisionTrack
from speechseg.errors import (
    DegenerateLabels,
    EmptyReference,
    InvalidConfig,
    LengthMismatch,
    SegmentOutOfBounds,
    ZeroTotal,
)
from speechseg.metrics import (
    CONDITIONS,
    RocCurve,
    align_wer,
    condition_frames,
    frame_vad_eval,
    normalize_text,
    rasterize,
    read_condition_labels,
    read_transcripts,
    roc_curve,
    score_transcripts,
    tpr_at_fpr,
    wer_from_counts,
)
from speechseg.segments import Segment

from reference import (
    ref_condition_frames,
    ref_edit_distance,
    ref_rasterize,
    ref_roc,
)


def roc_of(pairs):
    """roc_curve of (score, label) pairs, the form ref_roc takes."""
    scores, labels = zip(*pairs)
    return roc_curve(np.array(scores), np.array(labels))

# published benchmark rows: total words, total errors, and the
# insertion/deletion/substitution breakdown, with the expected percent
BENCHMARK_WER_ROWS = [
    (82361, 22128, 3776, 7795, 10557, 26.9),
    (82364, 21712, 3115, 8259, 10338, 26.4),
    (82368, 22012, 2862, 9125, 10025, 26.7),
    (35936, 11144, 5458, 1886, 3800, 31.0),
    (35937, 10206, 4438, 1939, 3829, 28.4),
    (35936, 8821, 3021, 2004, 3796, 24.5),
]


class TestRasterize:
    def test_one_second_segment(self):
        out = rasterize([Segment(0, 1.0, "speech")], 0.01, 2.0)
        assert len(out) == 200
        assert out.decisions[:100].all()
        assert not out.decisions[100:].any()

    def test_empty(self):
        out = rasterize([], 0.01, 1.0)
        assert len(out) == 100
        assert not out.decisions.any()

    def test_half_open_centers(self):
        out = rasterize([Segment(0.005, 0.015, "speech")], 0.01, 0.05)
        assert out.decisions.tolist() == [1, 0, 0, 0, 0]

    def test_out_of_bounds(self):
        with pytest.raises(SegmentOutOfBounds):
            rasterize([Segment(0.5, 3.0, "speech")], 0.01, 2.0)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data(), period=st.sampled_from([0.01, 0.03, 0.1, 0.7]),
           n=st.integers(0, 60))
    def test_grids_match_per_segment_masks(self, data, period, n):
        # bounds exactly on frame centers, halfway between them, or
        # anywhere; segments may overlap or hold no frame center
        bound = st.one_of(
            st.integers(0, n).map(lambda k: (k + 0.5) * period),
            st.integers(0, n).map(lambda k: k * period),
            st.floats(0, n * period),
        )
        pairs = data.draw(st.lists(st.tuples(bound, bound).filter(
            lambda p: p[0] != p[1]).map(sorted), max_size=8))
        pairs = [(a, b) for a, b in pairs if b <= n * period]
        labels = data.draw(st.lists(st.sampled_from(CONDITIONS),
                                    min_size=len(pairs),
                                    max_size=len(pairs)))
        labeled = [(a, b, c) for (a, b), c in zip(pairs, labels)]
        segs = [Segment(*t) for t in labeled]
        track = rasterize(segs, period, n * period)
        assert len(track) == n
        assert track.decisions.dtype == np.int8
        assert (track.decisions == ref_rasterize(pairs, period, n)).all()
        assert condition_frames(segs, period, n * period) == (
            ref_condition_frames(labeled, period, n))

    # the last three ask for more frames than MAX_GRID_FRAMES: one more
    # than it, 3.6e12 and an infinite count; each is refused before any
    # grid is allocated
    @pytest.mark.parametrize("period,duration", [
        (0.0, 2.0), (-0.01, 2.0), (0.01, -1.0), (float("nan"), 2.0),
        (0.01, float("nan")), (0.01, 100_000.01), (1e-9, 3600.0),
        (0.01, float("inf")),
    ])
    @pytest.mark.parametrize("grid", [rasterize, condition_frames])
    def test_bad_grid_rejected(self, grid, period, duration):
        with pytest.raises(InvalidConfig):
            grid([], period, duration)


class TestRoc:
    def test_perfect_separation_through_0_1(self):
        scores = [(0.9, 1), (0.8, 1), (0.2, 0), (0.1, 0)]
        curve = roc_of(scores)
        points = set(zip(curve.fpr.tolist(), curve.tpr.tolist()))
        assert (0.0, 1.0) in points
        assert (0.0, 0.0) in points and (1.0, 1.0) in points

    def test_all_scores_equal(self):
        curve = roc_of([(0.5, 1), (0.5, 0), (0.5, 1)])
        assert curve.fpr.tolist() == [0.0, 1.0]
        assert curve.tpr.tolist() == [0.0, 1.0]

    def test_six_items_vs_brute_force(self):
        scores = [(0.9, 1), (0.7, 0), (0.7, 1), (0.4, 1), (0.3, 0), (0.1, 0)]
        curve = roc_of(scores)
        want = ref_roc(scores)
        got = list(
            zip(curve.fpr.tolist(), curve.tpr.tolist(), curve.thresholds.tolist())
        )
        assert got == want

    @given(
        n=st.integers(2, 60),
        dup=st.booleans(),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_force(self, n, dup, seed):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 2, n)
        if labels.all() or not labels.any():
            labels[0] = 1 - labels[0]
        raw = rng.uniform(0, 1, n)
        if dup:  # force tied scores
            raw = np.round(raw, 1)
        scores = list(zip(raw.tolist(), labels.tolist()))
        curve = roc_of(scores)
        want = ref_roc(scores)
        got = list(
            zip(curve.fpr.tolist(), curve.tpr.tolist(), curve.thresholds.tolist())
        )
        assert got == pytest.approx(want)
        assert (np.diff(curve.fpr) >= 0).all()
        assert (np.diff(curve.tpr) >= 0).all()

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateLabels):
            roc_of([(0.5, 1), (0.6, 1)])

    def test_lengths_must_match(self):
        with pytest.raises(LengthMismatch):
            roc_curve(np.array([0.5, 0.6]), np.array([True]))


class TestTprAtFpr:
    def test_perfect_curve_at_zero(self):
        curve = roc_of([(0.9, 1), (0.1, 0)])
        assert tpr_at_fpr(curve, 0.0) == 1.0

    def test_target_one_is_anchor(self):
        curve = roc_of([(0.3, 1), (0.6, 0), (0.2, 0)])
        assert tpr_at_fpr(curve, 1.0) == 1.0

    def test_three_point_interpolation(self):
        curve = RocCurve(
            np.array([0.2, 0.4]), np.array([0.6, 0.8]), np.array([0.5, 0.3])
        )
        assert tpr_at_fpr(curve, 0.315) == pytest.approx(0.715, abs=1e-9)

    def test_monotone_in_target(self):
        rng = np.random.default_rng(5)
        scores = [
            (float(rng.uniform()), int(rng.integers(0, 2))) for _ in range(50)
        ]
        scores[0] = (0.5, 1)
        scores[1] = (0.5, 0)
        curve = roc_of(scores)
        values = [tpr_at_fpr(curve, t) for t in np.linspace(0, 1, 21)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


class TestFrameVadEval:
    def test_exact_match(self):
        cond = ["clean_speech"] * 5 + ["no_speech"] * 5
        hyp = FrameDecisionTrack(np.array([1] * 5 + [0] * 5), 0.01)
        report = frame_vad_eval(hyp, cond)
        assert report.tpr_by_condition["clean_speech"] == 1.0
        assert report.tpr_all == 1.0
        assert report.fpr == 0.0

    def test_all_speech_hypothesis(self):
        cond = ["speech_with_music"] * 4 + ["no_speech"] * 4
        hyp = FrameDecisionTrack(np.ones(8, dtype=int), 0.01)
        report = frame_vad_eval(hyp, cond)
        assert report.tpr_by_condition["speech_with_music"] == 1.0
        assert report.fpr == 1.0

    def test_hand_counted_case(self):
        cond = (
            ["clean_speech"] * 4 + ["speech_with_music"] * 3 + ["no_speech"] * 3
        )
        hyp = FrameDecisionTrack(
            np.array([1, 1, 1, 0, 1, 1, 0, 0, 0, 1]), 0.01
        )
        report = frame_vad_eval(hyp, cond)
        assert report.tpr_by_condition["clean_speech"] == pytest.approx(0.75)
        assert report.tpr_by_condition["speech_with_music"] == pytest.approx(2 / 3)
        assert report.tpr_by_condition["speech_with_noise"] is None
        assert report.tpr_all == pytest.approx(5 / 7)
        assert report.fpr == pytest.approx(1 / 3)

    def test_length_mismatch(self):
        hyp = FrameDecisionTrack(np.zeros(3, dtype=int), 0.01)
        with pytest.raises(LengthMismatch):
            frame_vad_eval(hyp, ["no_speech"] * 4)

    def test_streams_concatenate_and_arrays_agree(self):
        hyp = FrameDecisionTrack(
            np.array([1, 0, 1, 1, 1, 0, 1, 0, 0, 1]), 0.01)
        truth = []
        truth += condition_frames(
            [Segment(0.0, 0.04, "clean_speech")], 0.01, 0.05)
        truth += condition_frames(
            [Segment(0.0, 0.02, "speech_with_noise")], 0.01, 0.05)
        assert truth == (["clean_speech"] * 4 + ["no_speech"]
                         + ["speech_with_noise"] * 2 + ["no_speech"] * 3)
        assert frame_vad_eval(hyp, truth) == frame_vad_eval(
            hyp, np.array(truth))

    @pytest.mark.parametrize("conditions", [
        ["no_speech", "bogus", "other"],
        np.array(["no_speech", "bogus", "other"]),
    ])
    def test_unknown_label_named(self, conditions):
        hyp = FrameDecisionTrack(np.zeros(3, dtype=int), 0.01)
        with pytest.raises(InvalidConfig, match=r"^unknown condition 'bogus'$"):
            frame_vad_eval(hyp, conditions)


class TestAlignWer:
    def test_identical(self):
        report = align_wer(["a", "b", "c"], ["a", "b", "c"])
        assert (report.insertions, report.deletions, report.substitutions) == (
            0, 0, 0,
        )
        assert report.wer_percent == 0.0

    def test_single_substitution(self):
        report = align_wer(["a", "b", "c"], ["a", "x", "c"])
        assert report.substitutions == 1
        assert report.errors == 1
        assert report.wer_percent == pytest.approx(33.333, abs=1e-3)

    def test_empty_hypothesis_all_deletions(self):
        report = align_wer(["a", "b", "c"], [])
        assert report.deletions == 3
        assert report.errors == 3

    def test_empty_reference_rejected(self):
        with pytest.raises(EmptyReference):
            align_wer([], ["a"])

    def test_tie_prefers_fewer_substitutions(self):
        # ref "a b", hyp "b": cost 1 via deleting "a" (0 subs); the
        # sub+ins route also costs 2 but must not win at cost ties
        report = align_wer(["a", "b"], ["b"])
        assert (report.insertions, report.deletions, report.substitutions) == (
            0, 1, 0,
        )

    @given(
        ref_len=st.integers(1, 12),
        hyp_len=st.integers(0, 12),
        seed=st.integers(0, 100_000),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_exhaustive_oracle(self, ref_len, hyp_len, seed):
        rng = np.random.default_rng(seed)
        vocab = [f"w{k}" for k in range(10)]
        ref = [vocab[i] for i in rng.integers(0, 10, ref_len)]
        hyp = [vocab[i] for i in rng.integers(0, 10, hyp_len)]
        report = align_wer(ref, hyp)
        err, subs, ins, dels = ref_edit_distance(ref, hyp)
        assert report.errors == err
        assert report.substitutions == subs
        assert report.insertions == ins
        assert report.deletions == dels
        assert err <= max(len(ref), len(hyp))

    def test_longer_transcripts_match_oracle(self):
        # words are coded as integers once: words on one side only, and
        # words of any script, length and sort order
        rng = np.random.default_rng(23)
        vocab = ["the", "a", "über", "o'clock", "re-run", "zz", "ab",
                 *(f"w{k}" for k in range(23))]
        for _ in range(4):
            ref = [vocab[i] for i in rng.integers(0, 20, rng.integers(40, 80))]
            hyp = [vocab[i] for i in rng.integers(10, 30, rng.integers(0, 80))]
            report = align_wer(ref, hyp)
            err, subs, ins, dels = ref_edit_distance(ref, hyp)
            assert (report.errors, report.substitutions, report.insertions,
                    report.deletions) == (err, subs, ins, dels)

    def test_triangle_sanity(self):
        rng = np.random.default_rng(11)
        vocab = [f"w{k}" for k in range(5)]
        for _ in range(25):
            a, b, c = (
                [vocab[i] for i in rng.integers(0, 5, rng.integers(1, 10))]
                for _ in range(3)
            )
            ab = align_wer(a, b).errors
            ac = align_wer(a, c).errors
            cb = align_wer(c, b).errors
            assert ab <= ac + cb


class TestWerFromCounts:
    @pytest.mark.parametrize("tot,err,ins,dels,subs,want", BENCHMARK_WER_ROWS)
    def test_benchmark_rows(self, tot, err, ins, dels, subs, want):
        assert ins + dels + subs == err
        assert float(f"{wer_from_counts(tot, ins, dels, subs):.1f}") == want

    def test_zero_errors(self):
        assert wer_from_counts(100, 0, 0, 0) == 0.0

    def test_zero_total_rejected(self):
        with pytest.raises(ZeroTotal):
            wer_from_counts(0, 1, 1, 1)


class TestTextAndFiles:
    def test_normalize(self):
        assert normalize_text("Hello, World!") == ["hello", "world"]
        assert normalize_text("it's a well-known fact") == [
            "it's", "a", "well-known", "fact",
        ]
        assert normalize_text("  spaced   out  ") == ["spaced", "out"]

    def test_transcript_roundtrip(self, tmp_path):
        path = tmp_path / "ref.txt"
        path.write_text(
            "fileA\tHello there.\nfileB\tSecond utterance\n"
            "fileA\tmore words\n",
            encoding="utf-8",
        )
        out = read_transcripts(path)
        assert out["fileA"] == ["hello", "there", "more", "words"]
        assert out["fileB"] == ["second", "utterance"]

    def test_score_transcripts_pools_counts(self):
        ref = {"a": ["x", "y"], "b": ["z"]}
        hyp = {"a": ["x", "q"], "b": []}
        total, per_file = score_transcripts(ref, hyp)
        assert per_file["a"].substitutions == 1
        assert per_file["b"].deletions == 1
        assert total.tot == 3
        assert total.errors == 2

    def test_condition_labels_io(self, tmp_path):
        path = tmp_path / "cond.tsv"
        path.write_text(
            "0.000\t1.000\tclean_speech\n1.000\t2.000\tno_speech\n",
            encoding="utf-8",
        )
        segs = read_condition_labels(path)
        assert [s.label for s in segs] == ["clean_speech", "no_speech"]
        frames = condition_frames(segs, 0.5, 2.0)
        assert frames == ["clean_speech", "clean_speech", "no_speech",
                          "no_speech"]

    def test_bad_condition_rejected(self, tmp_path):
        path = tmp_path / "cond.tsv"
        path.write_text("0\t1\tspeechy\n", encoding="utf-8")
        with pytest.raises(InvalidConfig):
            read_condition_labels(path)
