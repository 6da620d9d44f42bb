"""Energy VAD, median filtering, segment formation, and gap merging."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speechseg.baseline import (
    FrameDecisionTrack,
    decisions_to_segments,
    energy_vad_frames,
    median_filter,
    merge_segments,
)
from speechseg.errors import AudioTooShort, InvalidConfig, UnsortedInput
from speechseg.frontend import AudioBuffer
from speechseg.segments import Segment

from reference import ref_median_filter

SR = 16000


def track(bits, period=0.030):
    return FrameDecisionTrack(np.array(bits, dtype=np.int8), period)


class TestEnergyVad:
    def test_digital_silence_all_zero(self):
        audio = AudioBuffer(np.zeros(SR * 2), SR)
        out = energy_vad_frames(audio, aggressiveness=0)
        assert not out.decisions.any()
        assert out.frame_period_s == 0.030

    def test_white_noise_all_speech(self):
        rng = np.random.default_rng(0)
        audio = AudioBuffer(rng.uniform(-1, 1, SR * 3), SR)
        out = energy_vad_frames(audio, aggressiveness=0)
        assert out.decisions[10:].all()  # warm-up frames exempt

    def test_alternating_blocks(self):
        # 300 ms loud / 300 ms silence = 10 frames on, 10 off
        rng = np.random.default_rng(1)
        block = int(0.3 * SR)
        pieces = []
        for i in range(6):
            if i % 2 == 0:
                pieces.append(rng.uniform(-0.8, 0.8, block))
            else:
                pieces.append(np.zeros(block))
        audio = AudioBuffer(np.concatenate(pieces), SR)
        got = energy_vad_frames(audio, aggressiveness=0).decisions
        want = np.tile(np.repeat([1, 0], 10), 3)
        # allow one frame of slack at each block boundary
        mismatches = np.nonzero(got != want)[0]
        boundaries = np.arange(10, 60, 10)
        assert all(min(abs(m - b) for b in boundaries) <= 1 for m in mismatches)

    def test_aggressiveness_monotone(self):
        rng = np.random.default_rng(2)
        quiet = 0.02 * rng.standard_normal(SR * 2)
        audio = AudioBuffer(np.clip(quiet, -1, 1), SR)
        counts = [
            energy_vad_frames(audio, a).decisions.sum() for a in range(4)
        ]
        assert counts == sorted(counts, reverse=True)

    def test_too_short(self):
        with pytest.raises(AudioTooShort):
            energy_vad_frames(AudioBuffer(np.zeros(100), SR))

    def test_bad_mode(self):
        with pytest.raises(InvalidConfig):
            energy_vad_frames(AudioBuffer(np.zeros(SR), SR), aggressiveness=4)


class TestMedianFilter:
    def test_isolated_spike_removed(self):
        out = median_filter(track([0, 0, 1, 0, 0]), width=5)
        assert out.decisions.tolist() == [0, 0, 0, 0, 0]

    def test_constant_unchanged(self):
        out = median_filter(track([1, 1, 1, 1, 1]), width=5)
        assert out.decisions.tolist() == [1, 1, 1, 1, 1]

    def test_matches_brute_force_long(self):
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, 1000)
        got = median_filter(track(bits), width=5).decisions.tolist()
        assert got == ref_median_filter(bits, 5)

    @given(
        n=st.integers(1, 80),
        width=st.sampled_from([1, 3, 5, 7, 9]),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_force(self, n, width, seed):
        bits = np.random.default_rng(seed).integers(0, 2, n)
        got = median_filter(track(bits), width=width).decisions
        assert got.tolist() == ref_median_filter(bits, width)
        assert len(got) == n
        assert np.isin(got, (0, 1)).all()

    def test_width_beyond_int64(self):
        # clamped to the track before NumPy sees it, so it filters as any
        # width of at least 2 n + 1 does
        bits = np.random.default_rng(4).integers(0, 2, 50)
        got = median_filter(track(bits), width=10**23 + 1).decisions
        want = median_filter(track(bits), width=2 * 50 + 1).decisions
        assert got.tolist() == want.tolist() == ref_median_filter(bits, 101)

    def test_even_width_rejected(self):
        with pytest.raises(InvalidConfig):
            median_filter(track([0, 1]), width=4)


class TestDecisionsToSegments:
    def test_single_run(self):
        segs = decisions_to_segments(track([0, 1, 1, 0]))
        assert len(segs) == 1
        assert segs[0].label == "speech"
        assert (segs[0].start_s, segs[0].end_s) == (
            pytest.approx(0.030), pytest.approx(0.090),
        )

    def test_all_zero(self):
        assert decisions_to_segments(track([0, 0, 0])) == []

    def test_two_runs(self):
        segs = decisions_to_segments(track([1, 0, 1]))
        spans = [(s.start_s, s.end_s) for s in segs]
        assert spans == [
            (pytest.approx(0.0), pytest.approx(0.030)),
            (pytest.approx(0.060), pytest.approx(0.090)),
        ]

    @given(n=st.integers(1, 60), seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_rasterize_roundtrip(self, n, seed):
        # segments -> frames -> segments is identity on the frame grid
        from speechseg.metrics import rasterize

        bits = np.random.default_rng(seed).integers(0, 2, n)
        segs = decisions_to_segments(track(bits))
        back = rasterize(segs, 0.030, n * 0.030)
        assert back.decisions.tolist() == bits.tolist()


class TestMergeSegments:
    def test_small_gap_merged(self):
        segs = [Segment(0, 1.0, "speech"), Segment(1.3, 2.0, "speech")]
        out = merge_segments(segs)
        assert [(s.start_s, s.end_s) for s in out] == [(0, 2.0)]

    def test_large_gap_kept(self):
        segs = [Segment(0, 1.0, "speech"), Segment(1.6, 2.0, "speech")]
        assert merge_segments(segs) == segs

    def test_chain_collapses(self):
        segs = [Segment(1.4 * i, 1.4 * i + 1.0, "speech") for i in range(10)]
        out = merge_segments(segs)
        assert len(out) == 1
        assert out[0].start_s == 0
        assert out[0].end_s == pytest.approx(1.4 * 9 + 1.0)

    def test_labels_merge_independently(self):
        segs = [
            Segment(0.0, 1.0, "spk0"),
            Segment(1.05, 1.15, "spk1"),
            Segment(1.4, 2.0, "spk0"),
        ]
        out = merge_segments(segs)  # spk0 gap 0.4 merges across spk1
        assert [(s.start_s, s.end_s, s.label) for s in out] == [
            (0.0, 2.0, "spk0"),
            (1.05, 1.15, "spk1"),
        ]

    def test_cross_label_gap_not_merged(self):
        segs = [
            Segment(0.0, 1.0, "spk0"),
            Segment(1.1, 2.0, "spk1"),
            Segment(2.1, 3.0, "spk0"),
        ]
        out = merge_segments(segs)  # spk0 gap is 1.1 s, stays split
        assert out == segs

    def test_unsorted_rejected(self):
        segs = [Segment(1.0, 2.0, "speech"), Segment(0.0, 0.5, "speech")]
        with pytest.raises(UnsortedInput):
            merge_segments(segs)

    @given(
        n=st.integers(0, 25),
        gap_scale=st.floats(0.05, 1.5),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=80, deadline=None)
    def test_idempotent_and_gap_free(self, n, gap_scale, seed):
        rng = np.random.default_rng(seed)
        segs = []
        t = 0.0
        for _ in range(n):
            t += gap_scale * rng.uniform(0.01, 1.0)
            dur = rng.uniform(0.05, 2.0)
            segs.append(Segment(round(t, 3), round(t + dur, 3), "speech"))
            t += dur
        once = merge_segments(segs)
        twice = merge_segments(once)
        assert once == twice
        for a, b in zip(once, once[1:]):
            assert b.start_s - a.end_s > 0.5
        total_in = sum(s.duration_s for s in segs)
        total_out = sum(s.duration_s for s in once)
        assert total_out >= total_in - 1e-9
