"""Audio decoding, MFCC and CMVN."""
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from speechseg import cpu, frontend
from speechseg.baseline import energy_vad_frames
from speechseg.errors import (
    AudioTooShort,
    ChannelMismatch,
    EmptyFeatures,
    InvalidConfig,
    TruncatedFile,
    UnsupportedEncoding,
)
from speechseg.frontend import (
    MAX_SAMPLE_RATE_HZ,
    AudioBuffer,
    FeatureMatrix,
    apply_cmvn,
    compute_mfcc,
    frame_count,
    read_wav,
    write_wav,
)
from speechseg.pipeline import _silent_window
from speechseg.synth import make_silence, make_speech_then_tone

from corpus import extensible_wav
from reference import ref_cmvn, ref_mfcc


def sine(freq, duration_s, sr=16000, amp=0.5):
    t = np.arange(int(duration_s * sr)) / sr
    return AudioBuffer(amp * np.sin(2 * np.pi * freq * t), sr)


# -----------------------------------------------------------------------------
# WAV container
# -----------------------------------------------------------------------------

class TestWav:
    def test_pcm16_header_arithmetic(self, tmp_path):
        path = tmp_path / "a.wav"
        write_wav(AudioBuffer(np.zeros(32000), 16000), path)
        audio = read_wav(path)
        assert len(audio.samples) == 32000
        assert audio.sample_rate == 16000
        assert audio.duration_s == 2.0

    def test_int16_max_scaling(self, tmp_path):
        path = tmp_path / "a.wav"
        payload = struct.pack("<h", 32767) * 100
        path.write_bytes(_wav_header(1, 1, 16000, 16, len(payload)) + payload)
        audio = read_wav(path)
        assert audio.samples.dtype == np.int16 and audio.samples[0] == 32767
        assert audio.decoded()[0] == pytest.approx(32767 / 32768, abs=0)

    def test_stereo_rejected_without_downmix(self, tmp_path):
        path = tmp_path / "a.wav"
        payload = struct.pack("<hh", 1000, 3000) * 50
        path.write_bytes(_wav_header(1, 2, 16000, 16, len(payload)) + payload)
        with pytest.raises(ChannelMismatch, match="2 channels"):
            read_wav(path)

    def test_float32_roundtrip(self, tmp_path):
        path = tmp_path / "a.wav"
        x = np.linspace(-1, 1, 777)
        write_wav(AudioBuffer(x, 8000), path, encoding="float32")
        back = read_wav(path)
        np.testing.assert_allclose(back.samples, x, atol=1e-7)
        assert back.sample_rate == 8000

    def test_pcm16_roundtrip_quantizes(self, tmp_path):
        path = tmp_path / "a.wav"
        x = 0.5 * np.sin(np.linspace(0, 20, 2000))
        write_wav(AudioBuffer(x, 16000), path)
        back = read_wav(path)
        np.testing.assert_allclose(back.decoded(), x, atol=1.0 / 32768)

    def test_compressed_format_rejected(self, tmp_path):
        path = tmp_path / "a.wav"
        payload = b"\x00" * 64
        path.write_bytes(_wav_header(85, 1, 16000, 16, len(payload)) + payload)
        with pytest.raises(UnsupportedEncoding):
            read_wav(path)

    def test_not_riff_rejected(self, tmp_path):
        path = tmp_path / "a.wav"
        path.write_bytes(b"OggS" + b"\x00" * 100)
        with pytest.raises(UnsupportedEncoding):
            read_wav(path)

    def test_truncated_data_chunk(self, tmp_path):
        path = tmp_path / "a.wav"
        full = _wav_header(1, 1, 16000, 16, 1000) + b"\x00" * 1000
        path.write_bytes(full[:-500])
        with pytest.raises(TruncatedFile):
            read_wav(path)

    @pytest.mark.parametrize("rate", [MAX_SAMPLE_RATE_HZ + 1, 16_777_216])
    def test_absurd_sample_rate_rejected(self, tmp_path, rate):
        # header only: the rate alone is checked, and nothing is sized by it
        path = tmp_path / "fast.wav"
        path.write_bytes(_wav_header(1, 1, rate, 16, 0))
        with pytest.raises(
            InvalidConfig, match=re.escape(f"{path}: sample rate {rate} Hz")
        ):
            read_wav(path)

    def test_highest_sample_rate_read(self, tmp_path):
        path = tmp_path / "top.wav"
        path.write_bytes(_wav_header(1, 1, MAX_SAMPLE_RATE_HZ, 16, 4) + bytes(4))
        audio = read_wav(path)
        assert audio.sample_rate == MAX_SAMPLE_RATE_HZ
        assert len(audio.samples) == 2

    @pytest.mark.parametrize("channels,bits,size", [
        (1, 16, 3001), (2, 16, 3002), (1, 32, 3002), (1, 64, 4004),
    ])
    def test_partial_sample_frame(self, tmp_path, channels, bits, size):
        path = tmp_path / "a.wav"
        tag = 1 if bits == 16 else 3
        path.write_bytes(
            _wav_header(tag, channels, 16000, bits, size) + b"\x00" * (size + 1)
        )
        with pytest.raises(TruncatedFile, match=f"{size} bytes"):
            read_wav(path)

    @pytest.mark.parametrize("encoding", ["pcm16", "float32"])
    def test_extensible_decodes_like_plain_tag(self, tmp_path, encoding):
        plain = tmp_path / "plain.wav"
        x = 0.9 * np.sin(np.linspace(0, 50, 3001))
        write_wav(AudioBuffer(x, 16000), plain, encoding=encoding)
        ext = tmp_path / "ext.wav"
        ext.write_bytes(extensible_wav(plain.read_bytes()))
        a, b = read_wav(plain), read_wav(ext)
        assert b.sample_rate == a.sample_rate
        assert b.samples.tobytes() == a.samples.tobytes()

    @pytest.mark.parametrize("fmt_size", [18, 24, 38])
    def test_short_extensible_fmt_is_truncated(self, tmp_path, fmt_size):
        plain = tmp_path / "plain.wav"
        write_wav(AudioBuffer(np.zeros(100), 16000), plain)
        ext = tmp_path / "ext.wav"
        ext.write_bytes(extensible_wav(plain.read_bytes(), fmt_size=fmt_size))
        with pytest.raises(TruncatedFile, match=re.escape(str(ext))):
            read_wav(ext)

    def test_extensible_other_subformat_rejected(self, tmp_path):
        plain = tmp_path / "plain.wav"
        write_wav(AudioBuffer(np.zeros(100), 16000), plain)
        ext = tmp_path / "ext.wav"
        raw = extensible_wav(plain.read_bytes(), subformat_tag=2)  # ADPCM
        ext.write_bytes(raw)
        with pytest.raises(UnsupportedEncoding, match=re.escape(str(ext))):
            read_wav(ext)
        # right tag, but not a KSDATAFORMAT_SUBTYPE GUID
        at = raw.index(bytes.fromhex("1000800000aa00389b71"))
        ext.write_bytes(raw[:at] + b"\x11" + raw[at + 1:])
        with pytest.raises(UnsupportedEncoding, match=re.escape(str(ext))):
            read_wav(ext)


def _wav_header(fmt_tag, channels, sr, bits, data_len):
    return struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + data_len, b"WAVE", b"fmt ", 16,
        fmt_tag, channels, sr, sr * channels * bits // 8,
        channels * bits // 8, bits, b"data", data_len,
    )


# -----------------------------------------------------------------------------
# MFCC
# -----------------------------------------------------------------------------

class TestMfcc:
    def test_frame_count_two_seconds(self):
        audio = sine(440, 2.0)
        feats = compute_mfcc(audio)
        assert feats.num_frames == (32000 - 400) // 160 + 1 == 198
        assert feats.dim == 30
        assert feats.frame_shift_s == 0.010

    @given(
        num_samples=st.integers(400, 50000),
        frame_len=st.integers(80, 400),
        shift=st.integers(40, 400),
    )
    def test_frame_count_formula(self, num_samples, frame_len, shift):
        if num_samples < frame_len:
            assert frame_count(num_samples, frame_len, shift) == 0
        else:
            n = frame_count(num_samples, frame_len, shift)
            assert n == (num_samples - frame_len) // shift + 1
            # last frame fits, one more would not
            assert (n - 1) * shift + frame_len <= num_samples
            assert n * shift + frame_len > num_samples

    def test_dc_silence_rows_identical(self):
        audio = AudioBuffer(np.zeros(16000), 16000)
        rows = compute_mfcc(audio).rows
        assert np.abs(rows - rows[0]).max() < 1e-9

    def test_sine_matches_reference_chain(self):
        audio = sine(440, 0.5)
        got = compute_mfcc(audio).rows
        want = ref_mfcc(audio.samples, audio.sample_rate)
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-9)

    def test_sine_other_config_matches_reference(self):
        # 8 kHz: 200-sample frames in a 256-point FFT, where 16 kHz has 512
        audio = sine(1234.5, 0.3, sr=8000, amp=0.9)
        got = compute_mfcc(audio).rows
        want = ref_mfcc(audio.samples, 8000)
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-9)

    def test_deterministic(self):
        audio = sine(440, 1.0)
        a = compute_mfcc(audio).rows
        b = compute_mfcc(audio).rows
        assert np.array_equal(a, b)

    def test_finite_on_noise_and_silence(self):
        rng = np.random.default_rng(7)
        noisy = AudioBuffer(
            np.clip(rng.standard_normal(8000) * 0.3, -1, 1), 16000
        )
        for audio in (noisy, AudioBuffer(np.zeros(8000), 16000)):
            rows = compute_mfcc(audio).rows
            assert np.isfinite(rows).all()

    @pytest.mark.parametrize("step,given,error", [
        (compute_mfcc, AudioBuffer(np.zeros(100), 16000), AudioTooShort),
        (apply_cmvn, FeatureMatrix(np.zeros((0, 30)), 0.01), EmptyFeatures),
    ], ids=["mfcc-under-one-frame", "cmvn-no-rows"])
    def test_too_short_raises(self, step, given, error):
        with pytest.raises(error):
            step(given)

    def test_short_audio_at_a_huge_rate_builds_no_constants(self,
                                                          monkeypatch):
        # a WAV header may claim any u32 rate; at 4 GHz the filterbank
        # alone would be 21 GB, so the frame check must come first
        def never(rate):
            raise AssertionError(f"constants built for {rate} Hz")

        monkeypatch.setattr(frontend, "_mfcc_constants", never)
        with pytest.raises(AudioTooShort, match="one frame of 107374182"):
            compute_mfcc(AudioBuffer(np.zeros(80), 2**32 - 1))

    def test_bad_config_rejected(self):
        # below 60 Hz a 25 ms frame rounds to 1 sample (a 0/0 Hamming
        # window) and at 50 Hz and under a 10 ms shift rounds to 0
        for rate in (1, 40, 45, 50, 55, 59):
            with pytest.raises(InvalidConfig, match=f"sample rate {rate} Hz"):
                compute_mfcc(AudioBuffer(np.ones(600), rate))

    def test_lowest_sample_rate_is_finite(self):
        rows = compute_mfcc(AudioBuffer(np.sin(np.arange(600.0)), 60)).rows
        assert rows.shape == (599, 30) and np.isfinite(rows).all()

    def test_cached_constants_match_fresh_computation(self):
        # three sample rates, interleaved, so every call after the first
        # three reads another rate's constants in between
        rates = (8000, 16000, 22050)
        audio = {sr: sine(440, 0.5, sr=sr) for sr in rates}
        fresh = {}
        for sr in rates:
            frontend._mfcc_constants.cache_clear()
            fresh[sr] = compute_mfcc(audio[sr]).rows.tobytes()
        frontend._mfcc_constants.cache_clear()
        for sr in rates + rates[::-1] + rates:
            assert compute_mfcc(audio[sr]).rows.tobytes() == fresh[sr]
        assert frontend._mfcc_constants.cache_info().currsize == len(rates)

    def test_cached_constants_read_only(self):
        *_, window, fbank, dct = frontend._mfcc_constants(16000)
        for arr in (window, fbank, dct):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0


# -----------------------------------------------------------------------------
# CMVN
# -----------------------------------------------------------------------------

class TestCmvn:
    def test_full_window_is_global(self):
        rng = np.random.default_rng(1)
        feats = FeatureMatrix(rng.standard_normal((200, 30)), 0.01)
        out = apply_cmvn(feats).rows
        assert np.abs(out.mean(axis=0)).max() < 1e-9
        assert np.abs(out.std(axis=0) - 1.0).max() < 1e-6

    def test_constant_column_zeroed(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((150, 5))
        x[:, 3] = 4.25
        out = apply_cmvn(FeatureMatrix(x, 0.01)).rows
        assert np.array_equal(out[:, 3], np.zeros(150))
        assert np.abs(out[:, 0].mean()) < 1e-9

    def test_matches_naive_sliding_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1000, 8)) * 3.0 + 1.5
        got = apply_cmvn(FeatureMatrix(x, 0.01)).rows
        np.testing.assert_allclose(got, ref_cmvn(x, 301), atol=1e-9)

    @given(
        t=st.one_of(st.integers(1, 700), st.integers(299, 303)),
        d=st.integers(1, 4),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle_small(self, t, d, seed):
        # T below, at and above the 301-frame window: global CMVN, one
        # full window, and windows sliding at both edges
        x = np.random.default_rng(seed).standard_normal((t, d))
        got = apply_cmvn(FeatureMatrix(x, 0.01)).rows
        np.testing.assert_allclose(got, ref_cmvn(x, 301), atol=1e-9)

    def test_preserves_grid(self):
        feats = FeatureMatrix(np.ones((10, 3)), 0.02, start_time_s=1.5)
        out = apply_cmvn(feats)
        assert out.frame_shift_s == 0.02
        assert out.start_time_s == 1.5


# -----------------------------------------------------------------------------
# Blocks: MFCC and CMVN run FRONTEND_BLOCK_FRAMES frames at a time
# -----------------------------------------------------------------------------

def speech_tone_silence(speech_s, tone_s):
    """Speech proxy, then a steady tone, then 5 s of digital silence: the
    tone and the silence drive CMVN's near-zero-variance recompute."""
    head = make_speech_then_tone(speech_s, tone_s, seed=3)
    tail = make_silence(5.0)
    return AudioBuffer(np.concatenate([head.samples, tail.samples]), 16000)


def traced_peak_above_output(fn, *args):
    """tracemalloc peak of one call, less the bytes of its T x D output."""
    tracemalloc.start()
    try:
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - out.rows.nbytes


def never_same(a, b):
    """frontend._same_rows for a CMVN that recomputes every flagged window."""
    return np.zeros(a.shape[:-1], dtype=bool)


def count_recomputes(monkeypatch):
    """A list that grows by the number of CMVN windows whose moments each
    call of frontend._window_moments recomputes."""
    moments = frontend._window_moments
    counts = []

    def spy(x, starts):
        counts.append(len(starts))
        return moments(x, starts)

    monkeypatch.setattr(frontend, "_window_moments", spy)
    return counts


def cmvn_bytes(x):
    return apply_cmvn(FeatureMatrix(x, 0.01)).rows.tobytes()


def run_then_column():
    """Rows 100-499 repeat one row and column 1 repeats its value on to
    row 799: windows starting at 100-199 lie in the run, and those
    starting at 200-499 are flagged, but reach past it."""
    x = np.random.default_rng(5).standard_normal((900, 2))
    x[100:500] = 0.5, 1.0
    x[500:800, 1] = 1.0
    return x


@st.composite
def rows_with_runs(draw):
    """A T x D matrix longer than the CMVN window, with up to four runs of
    one repeated row written over it: shorter and longer than the window,
    at either end, at the last run's start or anywhere. A run repeats a
    new row, the row before it (so it joins that row's run), or a signed
    zero, whose bits differ from the other zero's. Some of its columns may
    go on repeating past its end: a window that starts in the run and
    reaches into that stretch is flagged, but its rows are not one run."""
    t = draw(st.integers(302, 1200))
    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((t, d))
    at = 0
    for _ in range(draw(st.integers(0, 4))):
        size = draw(st.integers(2, 700))
        at = draw(st.sampled_from([0, t - size, at]) | st.integers(0, t))
        at = max(at, 0)
        kind = draw(st.sampled_from(["new", "before", "+0", "-0"]))
        if kind == "new":
            row = rng.standard_normal(d)
        elif kind == "before":
            row = x[max(at - 1, 0)].copy()
        else:
            row = np.full(d, 0.0 if kind == "+0" else -0.0)
        x[at : at + size] = row
        cols = draw(st.sampled_from([slice(0, 1), slice(1, None)]))
        x[at + size : at + size + draw(st.integers(0, 400)), cols] = row[cols]
    return x


class TestBlocks:
    def test_blocks_match_one_block_pass(self, monkeypatch):
        audio = speech_tone_silence(20.0, 15.0)
        monkeypatch.setattr(frontend, "MFCC_BLOCK_FRAMES", 10**9)
        monkeypatch.setattr(frontend, "FRONTEND_BLOCK_FRAMES", 10**9)
        whole = compute_mfcc(audio)
        whole_cmvn = apply_cmvn(whole)

        # MFCC blocks of whole 24-row slices, on 1 to 3 worker threads:
        # every row comes from the same products wherever blocks start;
        # CMVN has no matrix product and takes 7-row blocks, far below
        # its window
        for block in (24, 48, 240, 264):
            monkeypatch.setattr(frontend, "MFCC_BLOCK_FRAMES", block)
            for workers in (1, 2, 3):
                monkeypatch.setattr(cpu, "count", lambda: workers)
                blocked = compute_mfcc(audio)
                assert blocked.rows.tobytes() == whole.rows.tobytes()
        assert apply_cmvn(whole).rows.tobytes() == whole_cmvn.rows.tobytes()
        monkeypatch.setattr(frontend, "FRONTEND_BLOCK_FRAMES", 7)
        assert apply_cmvn(whole).rows.tobytes() == whole_cmvn.rows.tobytes()

        # the frames on either side of the first MFCC block boundary
        # against the per-frame oracle, run on the samples around them
        edge = 264
        first, last = edge - 2, edge + 2
        samples = audio.samples[(first - 1) * 160 : (last - 1) * 160 + 400]
        want = ref_mfcc(samples, 16000)[1:]
        np.testing.assert_allclose(
            blocked.rows[first:last], want, rtol=1e-6, atol=1e-9
        )
        np.testing.assert_allclose(
            whole_cmvn.rows, ref_cmvn(whole.rows, 301), atol=1e-9
        )

    @pytest.mark.parametrize("rate", [8000, 16000, 22050, 44100])
    @pytest.mark.parametrize("frames", [2, 25, 49, 241, 2000])
    def test_products_stay_under_the_blas_threading_size(
        self, monkeypatch, rate, frames
    ):
        # OpenBLAS runs a gemm of M*N*K <= 4 * 65536 on the calling thread;
        # a 1-row product would be a gemv. 25, 49 and 241 frames leave one
        # row after the last whole 24-row slice or 240-row block. A stacked
        # matmul runs one product per matrix of the stack
        frame_len, shift, *_ = frontend._mfcc_constants(rate)
        x = np.sin(np.arange((frames - 1) * shift + frame_len) * 0.1)
        shapes = []
        matmul = np.matmul

        def spy(a, b, *args, **kwargs):
            shapes.append((a.shape[-2], b.shape[-1], a.shape[-1]))
            return matmul(a, b, *args, **kwargs)

        monkeypatch.setattr(np, "matmul", spy)
        feats = compute_mfcc(AudioBuffer(x, rate))
        assert feats.num_frames == frames
        assert len(shapes) >= 2
        for m, n, k in shapes:
            assert 2 <= m and m * n * k <= 4 * 65536

    def test_silence_reuses_window_moments_exactly(self, monkeypatch):
        # every window in the 5 s of digital silence is flagged; one whose
        # 301 rows are a single repeated row takes the moments of the
        # flagged window before it, which must be the bits a recompute
        # gives, in blocks or in one block, and within the oracle's reach
        feats = compute_mfcc(speech_tone_silence(20.0, 5.0))
        recomputes = count_recomputes(monkeypatch)
        got = apply_cmvn(feats).rows
        reusing = sum(recomputes)
        recomputes.clear()

        monkeypatch.setattr(frontend, "_same_rows", never_same)
        assert apply_cmvn(feats).rows.tobytes() == got.tobytes()
        assert sum(recomputes) - reusing > 150
        monkeypatch.undo()
        monkeypatch.setattr(frontend, "FRONTEND_BLOCK_FRAMES", 10**9)
        assert apply_cmvn(feats).rows.tobytes() == got.tobytes()
        np.testing.assert_allclose(got, ref_cmvn(feats.rows, 301), atol=1e-9)

    def test_run_is_recomputed_once_per_block(self, monkeypatch):
        # rows 500-1199 repeat one row, far from the rows around them, so
        # the windows of frames 650-1049 (starts 500-899) are the flagged
        # ones, all inside one run: one recompute in each of the five
        # 100-row blocks they fall in, and the rest of each block reuse it
        x = np.random.default_rng(8).standard_normal((1500, 2))
        x[500:1200] = 3.0, -3.0
        monkeypatch.setattr(frontend, "FRONTEND_BLOCK_FRAMES", 100)
        recomputes = count_recomputes(monkeypatch)
        got = cmvn_bytes(x)
        assert sum(recomputes) == 5
        monkeypatch.setattr(frontend, "_same_rows", never_same)
        assert cmvn_bytes(x) == got
        assert sum(recomputes) == 5 + 400
        monkeypatch.undo()
        monkeypatch.setattr(frontend, "FRONTEND_BLOCK_FRAMES", 10**9)
        assert cmvn_bytes(x) == got
        np.testing.assert_allclose(
            np.frombuffer(got).reshape(x.shape), ref_cmvn(x, 301), atol=1e-9
        )

    @given(x=rows_with_runs(), block=st.integers(2, 700))
    @example(x=run_then_column(), block=64)
    @settings(max_examples=60, deadline=None)
    def test_runs_keep_the_bytes_in_any_blocks(self, x, block):
        # a flagged window that takes another's moments must hold that
        # window's bits, wherever the runs and the block edges fall
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(frontend, "FRONTEND_BLOCK_FRAMES", 10**9)
            whole = cmvn_bytes(x)
            patch.setattr(frontend, "FRONTEND_BLOCK_FRAMES", block)
            assert cmvn_bytes(x) == whole
            patch.setattr(frontend, "_same_rows", never_same)
            assert cmvn_bytes(x) == whole
        np.testing.assert_allclose(
            np.frombuffer(whole).reshape(x.shape), ref_cmvn(x, 301), atol=1e-9
        )

    @pytest.mark.parametrize("block", [50, 10**9])
    def test_reuse_needs_the_whole_window_in_one_run(self, monkeypatch, block):
        # column 1 is constant from row 400 on, so every window there is
        # flagged; column 0 repeats one row over rows 400-799 only. A
        # window starting in that run but reaching past it has the run's
        # first row, yet must not take the run's moments. With 50-row
        # blocks the first such window (frame 650, start 500) opens a block
        x = np.random.default_rng(6).standard_normal((1200, 2))
        x[400:800, 0], x[400:, 1] = 0.5, 1.0
        monkeypatch.setattr(frontend, "FRONTEND_BLOCK_FRAMES", block)
        assert (650, 700) in cpu.spans(1200, block) or block > 1200
        recomputes = count_recomputes(monkeypatch)
        got = cmvn_bytes(x)
        # starts 400 (the run's head), then 500-899, one window each; the
        # windows of frames 1050-1199 all start at 899. Each block
        # recomputes its own: with 50-row blocks the run's windows fall in
        # two blocks, and the windows starting at 899 in four
        assert sum(recomputes) == (1 + 400 if block > 1200 else 2 + 400 + 3)
        monkeypatch.setattr(frontend, "_same_rows", never_same)
        assert cmvn_bytes(x) == got
        np.testing.assert_allclose(
            np.frombuffer(got).reshape(x.shape), ref_cmvn(x, 301), atol=1e-9
        )

    def test_rfft_sees_one_block_at_a_time(self, monkeypatch):
        audio = speech_tone_silence(10.0, 5.0)
        rows = []
        rfft = np.fft.rfft

        def record(frames, *args, **kwargs):
            rows.append(len(frames))
            return rfft(frames, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", record)
        feats = compute_mfcc(audio)
        block = frontend.MFCC_BLOCK_FRAMES
        assert feats.num_frames > 2 * block
        assert len(rows) == -(-feats.num_frames // block)
        assert sum(rows) == feats.num_frames and max(rows) <= block

    @pytest.mark.parametrize("workers", [1, 2])
    def test_peak_memory_does_not_grow_with_the_stream(self, monkeypatch,
                                                       workers):
        monkeypatch.setattr(cpu, "count", lambda: workers)
        peaks = []
        for seconds in (60.0, 300.0):
            audio = speech_tone_silence(seconds - 10.0, 5.0)
            feats = compute_mfcc(audio)
            peaks.append((traced_peak_above_output(compute_mfcc, audio),
                          traced_peak_above_output(apply_cmvn, feats)))
        (mfcc_60, cmvn_60), (mfcc_300, cmvn_300) = peaks
        assert abs(mfcc_300 - mfcc_60) < 2 * 2**20
        assert abs(cmvn_300 - cmvn_60) < 2 * 2**20


# -----------------------------------------------------------------------------
# PCM16 samples stay int16 and are decoded one block at a time
# -----------------------------------------------------------------------------

def independent_decode(path):
    """A 44-byte-header mono WAV's samples as float64, decoded without the
    package: PCM16 divided by 32768, IEEE float clipped to [-1, 1]."""
    raw = path.read_bytes()
    (tag,) = struct.unpack_from("<H", raw, 20)
    (bits,) = struct.unpack_from("<H", raw, 34)
    if tag == 1:
        return np.frombuffer(raw[44:], dtype="<i2") / 32768.0
    x = np.frombuffer(raw[44:], dtype=f"<f{bits // 8}").astype(np.float64)
    return np.clip(x, -1.0, 1.0)


def window_spans(duration_s):
    n = int((duration_s - 1.5) / 0.75) + 1
    return [(0.75 * i, 0.75 * i + 1.5) for i in range(n)]


def assert_same_front_end(audio, want):
    """Every sample reader gives the bits on ``audio`` that it gives on the
    float64 buffer ``want``."""
    assert len(audio.samples) == len(want.samples)
    got_mfcc, want_mfcc = compute_mfcc(audio), compute_mfcc(want)
    assert got_mfcc.rows.tobytes() == want_mfcc.rows.tobytes()
    assert (apply_cmvn(got_mfcc).rows.tobytes()
            == apply_cmvn(want_mfcc).rows.tobytes())
    for mode in (0, 3):
        assert (energy_vad_frames(audio, mode).decisions.tobytes()
                == energy_vad_frames(want, mode).decisions.tobytes())
    spans = window_spans(audio.duration_s)
    silent = [_silent_window(audio, *v) for v in spans]
    assert silent == [_silent_window(want, *v) for v in spans]
    return silent


def recording_wav(path, speech_s, tone_s):
    """A PCM16 WAV: 1 s of noise within one step of zero, whose level
    (about -92 dB) decides the energy VAD's mode-3 frames, then
    speech_tone_silence."""
    quiet = np.random.default_rng(4).integers(-1, 2, 16000) / 32768.0
    body = speech_tone_silence(speech_s, tone_s).samples
    write_wav(AudioBuffer(np.concatenate([quiet, body]), 16000), path)
    return path


class TestPcmPath:
    # 21.3 s is four MFCC blocks and two energy-VAD blocks; 4.5 s is
    # under one block of either
    @pytest.mark.parametrize("speech_s,tone_s", [(10.0, 5.3), (1.0, 1.0)])
    def test_pcm16_matches_float_path(self, tmp_path, speech_s, tone_s):
        path = recording_wav(tmp_path / "a.wav", speech_s, tone_s)
        audio = read_wav(path)
        assert audio.samples.dtype == np.int16
        want = AudioBuffer(independent_decode(path), 16000)
        assert audio.decoded().tobytes() == want.samples.tobytes()
        silent = assert_same_front_end(audio, want)
        assert any(silent) and not all(silent)
        # the oracle reads the independent decode, not AudioBuffer.decoded
        np.testing.assert_allclose(
            compute_mfcc(audio).rows[:40],
            ref_mfcc(want.samples[: 39 * 160 + 400], 16000),
            rtol=1e-6, atol=1e-9,
        )

    def test_decoded_spans_match_whole_decode(self, tmp_path):
        audio = read_wav(recording_wav(tmp_path / "a.wav", 1.0, 1.0))
        whole = audio.decoded()
        for a, b in [(0, 1), (1, 400), (17, 17), (5000, None), (0, None)]:
            assert audio.decoded(a, b).tobytes() == whole[a:b].tobytes()

    @pytest.mark.parametrize("bits", [32, 64])
    def test_float_wav_matches_float_path(self, tmp_path, bits):
        x = speech_tone_silence(10.0, 5.3).samples.copy()
        x[1000], x[2000] = 1.5, -3.0  # out of range: clipped on read
        payload = x.astype(f"<f{bits // 8}").tobytes()
        path = tmp_path / "f.wav"
        path.write_bytes(_wav_header(3, 1, 16000, bits, len(payload)) + payload)
        audio = read_wav(path)
        assert audio.samples.dtype == np.float64
        assert audio.samples[1000] == 1.0 and audio.samples[2000] == -1.0
        want = AudioBuffer(independent_decode(path), 16000)
        assert audio.samples.tobytes() == want.samples.tobytes()
        assert_same_front_end(audio, want)

    @pytest.mark.parametrize("bits", [32, 64])
    def test_float_wav_nan_rejected(self, tmp_path, bits):
        x = np.zeros(1600)
        x[800] = np.nan
        payload = x.astype(f"<f{bits // 8}").tobytes()
        path = tmp_path / "f.wav"
        path.write_bytes(_wav_header(3, 1, 16000, bits, len(payload)) + payload)
        with pytest.raises(InvalidConfig, match="finite"):
            read_wav(path)

    def test_read_wav_holds_no_decoded_copy(self, tmp_path):
        path = recording_wav(tmp_path / "a.wav", 25.0, 5.0)
        tracemalloc.start()
        try:
            audio = read_wav(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(audio.samples) == 36 * 16000
        assert peak <= path.stat().st_size + 64 * 2**10

    def test_peak_grows_only_by_the_output(self, tmp_path):
        peaks, sizes = [], []
        for seconds in (60.0, 120.0):
            path = tmp_path / f"{seconds:.0f}.wav"
            audio = read_wav(recording_wav(path, seconds - 10.0, 5.0))
            tracemalloc.start()
            try:
                feats = compute_mfcc(audio)
                mfcc_peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                track = energy_vad_frames(audio)
                vad_peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            peaks.append((mfcc_peak, vad_peak))
            # the VAD keeps one float64 energy per 30 ms frame while it runs
            sizes.append((feats.rows.nbytes, 9 * len(track)))
        (mfcc_60, vad_60), (mfcc_120, vad_120) = peaks
        (rows_60, frames_60), (rows_120, frames_120) = sizes
        # slack for the block list's Python objects; a float64 copy of the
        # extra 60 s would be 7.7 MB
        slack = 16 * 2**10
        assert mfcc_120 - mfcc_60 <= rows_120 - rows_60 + slack
        assert vad_120 - vad_60 <= frames_120 - frames_60 + slack
