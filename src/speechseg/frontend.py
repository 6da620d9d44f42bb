"""Audio decoding and MFCC feature extraction.

The front-end produces 30-dimensional MFCCs (C0 included) from mono PCM
audio, followed by sliding-window cepstral mean and variance normalization.
Conventions, shared with the reference DSP chain used in tests:

* framing: frame i covers samples [i*shift, i*shift + frame_len),
  T = floor((len - frame_len) / shift) + 1;
* pre-emphasis applied to the whole signal, y[n] = x[n] - coef*x[n-1],
  y[0] = x[0]*(1 - coef);
* power spectrum from a zero-padded FFT of the Hamming-windowed frame
  (nfft = next power of two >= frame length), no normalization;
* mel filterbank: triangular filters in the Hz domain with centers evenly
  spaced on the HTK mel scale (2595*log10(1 + f/700)) between 20 Hz and
  the Nyquist frequency;
* log energies floored at 1e-10 before the natural log;
* orthonormal DCT-II truncated to num_ceps coefficients.

A PCM16 file's samples stay int16, a view of the bytes read_wav read,
and AudioBuffer.decoded turns one span of them into float64 when a block
reads it, so no front-end path holds a float64 copy of a whole
recording: for PCM16 input that copy would be four times the file.

MFCC and CMVN run in blocks of at most FRONTEND_BLOCK_FRAMES (512)
frames, so beyond the samples and the T x D output their peak memory is
the same for a clip and for an hour-long recording: at 16 kHz, about
6 MB of block buffers for MFCC and 2 MB for CMVN (tracemalloc).
compute_mfcc decodes, pre-emphasizes, frames and transforms one block of
samples at a time; a block's first pre-emphasized sample looks back at
the sample before the block, as the whole-signal filter does. apply_cmvn
streams its prefix sums: each block of rows continues the running sums
from the first row its windows reach. The output is byte-identical to a
whole-matrix pass, because every value goes through the same float64
operations in the same order: frames are independent once
pre-emphasized, and cumsum and the axis-0 sums add rows one after
another. Blocks split the frames evenly, so no block has fewer
than half a block of rows unless the whole input is that short: BLAS
sums a matrix product of a few dozen rows with another kernel, whose
last bits differ, and a short tail block would take it.

CMVN recomputes the moments of a window whose variance is near zero with
an exact two-pass sum over its 301 rows. In digital silence most such
windows hold one repeated row, bit for bit the rows of the window
recomputed before, so they take its moments instead: one pass per block
numbers the runs of bit-equal rows, and a window whose rows are one run
of the row the last recomputed window repeated needs no sum. On a
20-minute benchmark recording that skips 2,294 of 3,040 recomputes.

The analysis settings are module constants: 25 ms frames every 10 ms,
pre-emphasis 0.97, 40 mel bins from 20 Hz, 30 cepstra, and a 301-frame
CMVN window. The FFT size, Hamming window, mel filterbank and DCT matrix
then depend only on the sample rate, so _mfcc_constants builds them once
per rate and caches them read-only; a manifest of short clips would
otherwise rebuild the filterbank for every clip. A rate too low to give
a frame of 2 samples and a shift of 1 is rejected there.
"""
from __future__ import annotations

import functools
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    AudioTooShort,
    ChannelMismatch,
    EmptyFeatures,
    InvalidConfig,
    TruncatedFile,
    UnsupportedEncoding,
)

FRAME_LENGTH_MS = 25.0
FRAME_SHIFT_MS = 10.0
NUM_MEL_BINS = 40
NUM_CEPS = 30
PRE_EMPHASIS = 0.97
LOW_FREQ_HZ = 20.0
LOG_ENERGY_FLOOR = 1e-10
CMVN_WINDOW_FRAMES = 301

# frames per block of compute_mfcc and rows per block of apply_cmvn
FRONTEND_BLOCK_FRAMES = 512


@dataclass(frozen=True)
class AudioBuffer:
    """Mono samples with their sample rate.

    ``samples`` is int16 PCM, whose values stand for sample / 32768, or
    finite float64 values in [-1, 1]; any other dtype is converted to
    float64. PCM16 samples stay int16 for the buffer's life, and readers
    take float64 one span at a time through ``decoded``.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples)
        pcm = samples.dtype == np.int16
        if not pcm:
            samples = samples.astype(np.float64, copy=False)
        object.__setattr__(self, "samples", samples)
        if self.sample_rate <= 0:
            raise InvalidConfig(f"sample_rate must be positive, got {self.sample_rate}")
        if samples.ndim != 1:
            raise InvalidConfig("AudioBuffer samples must be one-dimensional")
        if not pcm and samples.size and not np.isfinite(samples).all():
            raise InvalidConfig("AudioBuffer samples must be finite")

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate

    def decoded(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Samples [start, stop) as float64: int16 PCM converted and then
        divided by 32768.0, float samples as a view that callers must not
        write to."""
        x = self.samples[start:stop]
        if x.dtype == np.int16:
            x = x.astype(np.float64)
            x /= 32768.0
        return x


@dataclass
class FeatureMatrix:
    """T x D feature rows with the time grid they were computed on."""

    rows: np.ndarray
    frame_shift_s: float
    start_time_s: float = 0.0

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.float64)
        if self.rows.ndim != 2:
            raise InvalidConfig("feature rows must be a 2-d matrix")
        if self.frame_shift_s <= 0:
            raise InvalidConfig("frame_shift_s must be positive")

    @property
    def num_frames(self) -> int:
        return self.rows.shape[0]

    @property
    def dim(self) -> int:
        return self.rows.shape[1]

    @property
    def span_s(self) -> float:
        """Seconds of signal the matrix stands for (one shift per frame)."""
        return self.num_frames * self.frame_shift_s


# -----------------------------------------------------------------------------
# WAV container
# -----------------------------------------------------------------------------

_WAVE_FORMAT_EXTENSIBLE = 0xFFFE
# Every KSDATAFORMAT_SUBTYPE GUID ends the same way; its first two bytes
# hold the plain format tag (1 for PCM, 3 for IEEE float).
_SUBFORMAT_GUID_TAIL = bytes.fromhex("000000001000800000aa00389b71")


def read_wav(path: str | Path) -> AudioBuffer:
    """Decode a mono RIFF/WAVE file holding PCM16 or IEEE float samples.

    PCM16 samples are kept as int16, a read-only view of the file's bytes;
    IEEE float samples become float64 clipped to [-1, 1], and a non-finite
    one raises InvalidConfig. WAVE_FORMAT_EXTENSIBLE files are read by the
    format tag in their SubFormat GUID. Multi-channel files are rejected
    with ChannelMismatch.
    """
    raw = Path(path).read_bytes()
    if len(raw) < 12 or raw[0:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise UnsupportedEncoding(f"{path}: not a RIFF/WAVE file")

    view = memoryview(raw)
    fmt = None
    data = None
    pos = 12
    while pos + 8 <= len(raw):
        chunk_id = raw[pos : pos + 4]
        (chunk_size,) = struct.unpack_from("<I", raw, pos + 4)
        body = view[pos + 8 : pos + 8 + chunk_size]
        if chunk_id == b"fmt ":
            if len(body) < 16:
                raise TruncatedFile(f"{path}: fmt chunk truncated")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
            if fmt[0] == _WAVE_FORMAT_EXTENSIBLE:
                if len(body) < 40:
                    raise TruncatedFile(
                        f"{path}: extensible fmt chunk of {len(body)} bytes, "
                        "need 40"
                    )
                guid = bytes(body[24:40])
                if guid[2:] != _SUBFORMAT_GUID_TAIL:
                    raise UnsupportedEncoding(
                        f"{path}: extensible SubFormat {guid.hex()} is not "
                        "PCM or IEEE float"
                    )
                fmt = struct.unpack_from("<H", guid) + fmt[1:]
        elif chunk_id == b"data":
            if len(body) < chunk_size:
                raise TruncatedFile(
                    f"{path}: data chunk declares {chunk_size} bytes, "
                    f"only {len(body)} present"
                )
            data = body
        pos += 8 + chunk_size + (chunk_size & 1)

    if fmt is None or data is None:
        raise TruncatedFile(f"{path}: missing fmt or data chunk")

    audio_format, channels, sample_rate, _, _, bits = fmt
    if audio_format == 1 and bits == 16:
        dtype = "<i2"
    elif audio_format == 3 and bits in (32, 64):
        dtype = f"<f{bits // 8}"
    else:
        raise UnsupportedEncoding(
            f"{path}: format tag {audio_format} with {bits} bits is not "
            "PCM16 or IEEE float"
        )
    if channels < 1:
        raise UnsupportedEncoding(f"{path}: zero channels")
    if len(data) % (channels * bits // 8):
        raise TruncatedFile(
            f"{path}: data chunk of {len(data)} bytes is not a whole number "
            f"of {channels}-channel {bits}-bit frames"
        )

    if channels > 1:
        raise ChannelMismatch(f"{path}: {channels} channels; need mono")

    if audio_format == 1:
        # int16 / 32768 lies in [-1, 1), so PCM16 needs no clip
        return AudioBuffer(
            np.frombuffer(data, dtype=dtype).astype(np.int16, copy=False),
            sample_rate,
        )
    values = np.frombuffer(data, dtype=dtype).astype(np.float64)
    return AudioBuffer(np.clip(values, -1.0, 1.0, out=values), sample_rate)


def write_wav(
    audio: AudioBuffer, path: str | Path, encoding: str = "pcm16"
) -> None:
    """Write mono audio as PCM16 (default) or float32 WAV."""
    if encoding == "pcm16":
        fmt_tag, bits = 1, 16
        pcm = np.clip(np.round(audio.decoded() * 32768.0), -32768, 32767)
        payload = pcm.astype("<i2").tobytes()
    elif encoding == "float32":
        fmt_tag, bits = 3, 32
        payload = audio.decoded().astype("<f4").tobytes()
    else:
        raise InvalidConfig(f"unknown encoding {encoding!r}")

    byte_rate = audio.sample_rate * bits // 8
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + len(payload),
        b"WAVE",
        b"fmt ",
        16,
        fmt_tag,
        1,
        audio.sample_rate,
        byte_rate,
        bits // 8,
        bits,
        b"data",
        len(payload),
    )
    Path(path).write_bytes(header + payload)


# -----------------------------------------------------------------------------
# MFCC
# -----------------------------------------------------------------------------

def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(
    num_bins: int, nfft: int, sample_rate: int, low_hz: float, high_hz: float
) -> np.ndarray:
    """Triangular mel filters evaluated at the nfft/2+1 FFT bin frequencies."""
    mel_points = np.linspace(hz_to_mel(low_hz), hz_to_mel(high_hz), num_bins + 2)
    hz_points = mel_to_hz(mel_points)
    bin_freqs = np.arange(nfft // 2 + 1) * (sample_rate / nfft)

    fbank = np.zeros((num_bins, nfft // 2 + 1))
    for m in range(num_bins):
        left, center, right = hz_points[m], hz_points[m + 1], hz_points[m + 2]
        rising = (bin_freqs - left) / (center - left)
        falling = (right - bin_freqs) / (right - center)
        fbank[m] = np.maximum(0.0, np.minimum(rising, falling))
    return fbank


def dct_matrix(num_ceps: int, num_bins: int) -> np.ndarray:
    """Orthonormal DCT-II, first num_ceps rows."""
    n = np.arange(num_bins)
    k = np.arange(num_ceps)[:, None]
    mat = np.cos(np.pi * k * (2 * n + 1) / (2 * num_bins)) * np.sqrt(2.0 / num_bins)
    mat[0] /= np.sqrt(2.0)
    return mat


def frame_count(num_samples: int, frame_len: int, shift: int) -> int:
    if num_samples < frame_len:
        return 0
    return (num_samples - frame_len) // shift + 1


def _hamming(length: int) -> np.ndarray:
    n = np.arange(length)
    return 0.54 - 0.46 * np.cos(2 * np.pi * n / (length - 1))


def _blocks(n: int) -> list[tuple[int, int]]:
    """[start, stop) spans of near-equal blocks of at most
    FRONTEND_BLOCK_FRAMES that cover range(n)."""
    size = -(-n // -(-n // FRONTEND_BLOCK_FRAMES))
    return [(a, min(a + size, n)) for a in range(0, n, size)]


def _pre_emphasized(audio: AudioBuffer, a: int, b: int) -> np.ndarray:
    """Samples [a, b) of y[n] = x[n] - coef*x[n-1], y[0] = x[0]*(1 - coef),
    with coef = PRE_EMPHASIS, decoding only samples [a - 1, b) of x."""
    coef = PRE_EMPHASIS
    if a > 0:
        x = audio.decoded(a - 1, b)
        return x[1:] - coef * x[:-1]
    x = audio.decoded(0, b)
    y = np.empty(b)
    y[0] = x[0] * (1.0 - coef)
    y[1:] = x[1:] - coef * x[:-1]
    return y


@functools.lru_cache(maxsize=16)
def _mfcc_constants(sample_rate: int) -> tuple:
    """(frame_len, shift, nfft, window, fbank, dct) for one sample rate,
    built once; the arrays are read-only, since every caller shares them.
    A rate whose frame is shorter than 2 samples (a 1-sample Hamming
    window is 0/0) or whose shift rounds to 0 is rejected."""
    frame_len = round(FRAME_LENGTH_MS * sample_rate / 1000.0)
    shift = round(FRAME_SHIFT_MS * sample_rate / 1000.0)
    if frame_len < 2 or shift < 1:
        raise InvalidConfig(
            f"sample rate {sample_rate} Hz gives a {frame_len}-sample frame "
            f"and a {shift}-sample shift; need at least 2 and 1"
        )
    nfft = 1
    while nfft < frame_len:
        nfft *= 2
    arrays = (
        _hamming(frame_len),
        mel_filterbank(
            NUM_MEL_BINS, nfft, sample_rate, LOW_FREQ_HZ, sample_rate / 2.0
        ),
        dct_matrix(NUM_CEPS, NUM_MEL_BINS),
    )
    for arr in arrays:
        arr.flags.writeable = False
    return (frame_len, shift, nfft, *arrays)


def compute_mfcc(audio: AudioBuffer) -> FeatureMatrix:
    """MFCC rows for every frame of ``audio``, computed one block of
    frames at a time; deterministic, and byte-identical to a single pass
    over the whole signal."""
    frame_len, shift, nfft, window, fbank, dct = _mfcc_constants(
        audio.sample_rate
    )
    n = len(audio.samples)
    if n < frame_len:
        raise AudioTooShort(f"{n} samples < one frame of {frame_len}")

    T = frame_count(n, frame_len, shift)
    ceps = np.empty((T, NUM_CEPS))
    for f0, f1 in _blocks(T):
        y = _pre_emphasized(audio, f0 * shift, (f1 - 1) * shift + frame_len)
        frames = sliding_window_view(y, frame_len)[::shift] * window
        spectrum = np.abs(np.fft.rfft(frames, n=nfft, axis=1)) ** 2
        log_energies = np.log(np.maximum(spectrum @ fbank.T, LOG_ENERGY_FLOOR))
        ceps[f0:f1] = log_energies @ dct.T

    return FeatureMatrix(ceps, FRAME_SHIFT_MS / 1000.0)


def _prefix_sums(rows: np.ndarray, carry: np.ndarray | None) -> np.ndarray:
    """(n + 1) x D running sums of the rows, added in row order: row 0 is
    carry (zeros when None), row k adds rows[k - 1] to row k - 1."""
    out = np.empty((len(rows) + 1, rows.shape[1]))
    if carry is None:
        # the first sum is rows[0] itself, as in a cumsum over the whole
        # matrix; 0.0 + rows[0] would turn a -0.0 into +0.0
        out[0] = 0.0
        np.cumsum(rows, axis=0, out=out[1:])
    else:
        out[0] = carry
        out[1:] = rows
        np.cumsum(out, axis=0, out=out)
    return out


def _same_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Whether each row of a holds the same bits as that row of b (for
    finite values: equal, and with the same sign, which tells -0.0 from
    0.0; NaN matches nothing)."""
    return ((a == b) & (np.signbit(a) == np.signbit(b))).all(axis=-1)


def _normalized(x: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    out = x - mean
    live = std > 1e-10
    return np.where(live, out / np.where(live, std, 1.0), out)


def apply_cmvn(feats: FeatureMatrix) -> FeatureMatrix:
    """Sliding-window mean/variance normalization, per dimension.

    The CMVN_WINDOW_FRAMES window is centered on each frame; near the
    edges it slides rather than shrinks, so it keeps its full span whenever
    T >= CMVN_WINDOW_FRAMES and truncates to the whole matrix otherwise
    (hence a shorter T reduces to global CMVN). Dimensions with (near-)zero
    variance inside the window are only mean-subtracted; columns that are
    globally constant come out as exact zeros.
    """
    if feats.num_frames < 1:
        raise EmptyFeatures("cannot normalize an empty feature matrix")

    window_frames = CMVN_WINDOW_FRAMES
    x = feats.rows
    T = len(x)
    half = window_frames // 2

    if T <= window_frames:
        out = _normalized(x, x.mean(axis=0), x.std(axis=0))
    else:
        # prefix sums over globally centered data give O(T*D) windowed
        # moments; centering keeps the E[z^2]-E[z]^2 cancellation small
        center = x.mean(axis=0)
        blocks = _blocks(T)
        sq = None
        for b0, b1 in blocks:
            z = x[b0:b1] - center
            z *= z
            sq = _prefix_sums(z, sq)[-1]
        # the same row-order sum as (z * z).mean(axis=0)
        guard = np.maximum(1e-5 * (sq / T), 1e-20)

        out = np.empty_like(x)
        p0 = 0
        s1 = s2 = None
        last, last_flat = -1, False  # chunk start of the last recompute
        for b0, b1 in blocks:
            lo = np.maximum(
                0, np.minimum(np.arange(b0, b1) - half, T - window_frames)
            )
            # running sums from row lo[0], where the block's first window
            # starts, to the end of its last window; the previous block's
            # sums already reach lo[0]
            start, stop = lo[0], lo[-1] + window_frames
            c1 = s1[start - p0] if start else None
            c2 = s2[start - p0] if start else None
            p0 = start
            z = x[start:stop] - center
            s1 = _prefix_sums(z, c1)
            z *= z
            s2 = _prefix_sums(z, c2)

            at, to = lo - start, lo - start + window_frames
            mz = (s1[to] - s1[at]) / window_frames
            var = np.maximum((s2[to] - s2[at]) / window_frames - mz * mz, 0.0)
            mean = mz + center

            # windows whose variance sits near the rounding floor get an exact
            # two-pass recompute; cancellation there can fake a nonzero std.
            # A window whose chunk has the bits of the last recomputed one
            # (the same start, or both inside one run of a repeated row)
            # takes its moments; run numbers the runs of bit-equal rows
            flagged = np.nonzero((var < guard).any(axis=1))[0]
            if len(flagged):
                rows = x[start:stop]
                run = np.cumsum(np.concatenate(
                    ([False], ~_same_rows(rows[1:], rows[:-1]))
                ))
            for t in flagged:
                a = lo[t]
                flat = run[at[t]] == run[to[t] - 1]
                if not (a == last or flat and last_flat
                        and _same_rows(x[a], x[last])):
                    chunk = x[a : a + window_frames]
                    m, v = chunk.mean(axis=0), chunk.var(axis=0)
                mean[t], var[t] = m, v
                last, last_flat = a, flat
            out[b0:b1] = _normalized(x[b0:b1], mean, np.sqrt(var))

    constant = x.max(axis=0) == x.min(axis=0)
    out[:, constant] = 0.0

    return FeatureMatrix(out, feats.frame_shift_s, feats.start_time_s)
