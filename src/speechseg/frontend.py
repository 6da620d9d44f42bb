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

compute_mfcc splits the frames into blocks of MFCC_BLOCK_FRAMES (240),
and the blocks into one contiguous range per CPU, each a cpu.run job
(speechseg.cpu sets out the rules they keep); a 1.5 s clip is one block.
On 2 cores the MFCC of a 20-minute recording takes 0.21-0.24 s against
0.37-0.40 s on one thread. A job writes each block's rows straight into
the output, and every step of a block into its buffers (_mfcc_buffers,
about 3.2 MB at 16 kHz) with out= (rfft has it from NumPy 2.0): a fresh
temporary per step and block costs more than the arithmetic it holds
(pre-emphasizing one 512-frame block took 0.82 ms with new arrays and
0.15 ms with buffers).

The mel product (257 -> 40 at 16 kHz) and the DCT (40 -> 30) run in
slices of 24 rows (cpu.sliced_matmul). Two prototypes lost to the
slices: workers computing spectra while the main thread alone ran the
products (0.49-0.60 s where the slices took 0.31-0.41 s in the same
probe), and mel energies without BLAS (gather plus reduceat: 1.33 ms
per block against 0.17 ms). Slices change an MFCC's last bits against
whole-block products, by up to 3e-16 relative, and they are why rows do
not depend on block size or CPU count: with scipy-openblas 0.3.31 a mel
row has the same bits in any slice of 2 to 30 rows but not in one of 31
rows or more, and a DCT row the same bits only in slices of a multiple
of 4 rows up to 40. So slices start at multiples of 24 from frame 0,
every block but the last is a multiple of 24 rows, and a last slice or
block of one row joins the one before it.

apply_cmvn runs in blocks of FRONTEND_BLOCK_FRAMES (512) rows on one
thread, in about 1.2 MB beyond the output at 16 kHz. It streams its
prefix sums: each block keeps the running sums its windows share with
the block before and adds the rows after them, so every running sum is
computed once, and it normalizes in place. The output is byte-identical
to a whole-matrix pass, because every value goes through the same
float64 operations in the same order: cumsum and the axis-0 sums add
rows one after another. A two-thread CMVN prototype gave the same bytes
but held the GIL too often to pay (0.15 -> 0.14 s).

CMVN recomputes the moments of a window whose variance is near zero with
an exact two-pass sum over its 301 rows. In digital silence most such
windows hold one repeated row, so each block gives its flagged windows a
key: the id of the run of bit-equal rows that holds all 301 rows (one
pass numbers the runs), else the window's start. Windows with one key
hold the same bits, so only the first window of each key in the block is
recomputed and the rest take its moments. Nothing but the running sums
crosses blocks, so a run that spans several blocks is recomputed once in
each: the 20-minute benchmark recording recomputes 751 of its 3,040
flagged windows with distinct starts for seed 7 (749 of 3,038 for seed
13), 5 more than a chain carried across blocks. The recomputed windows
are summed one at a time, over a view: gathering 4 windows per sum saved
3 ms per 20-minute pass but copied 0.5 MB more.

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

from . import cpu
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
# the highest rate read_wav accepts: the mel filterbank's width grows with
# the rate in the header, so a small file claiming 16,777,216 Hz would
# size a front end of about 100 MB
MAX_SAMPLE_RATE_HZ = 384_000

# frames per block of compute_mfcc, in each cpu.run job
MFCC_BLOCK_FRAMES = 240
# rows per block of apply_cmvn (and of the baseline's energy VAD)
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

    def decoded(
        self, start: int = 0, stop: int | None = None,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Samples [start, stop) as float64: int16 PCM converted and then
        divided by 32768.0, into the front of out if given, float samples
        as a view that callers must not write to."""
        x = self.samples[start:stop]
        if x.dtype == np.int16:
            if out is None:
                return np.divide(x, 32768.0)
            # cast, then divide in place: one ufunc from int16 into out
            # would allocate a 64 KB cast buffer on every call
            out = out[: len(x)]
            np.copyto(out, x)
            x = np.divide(out, 32768.0, out=out)
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
    with ChannelMismatch, and rates above MAX_SAMPLE_RATE_HZ with
    InvalidConfig.
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
    if sample_rate > MAX_SAMPLE_RATE_HZ:
        raise InvalidConfig(
            f"{path}: sample rate {sample_rate} Hz is above the "
            f"{MAX_SAMPLE_RATE_HZ} Hz limit"
        )

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


def _pre_emphasized(
    audio: AudioBuffer, a: int, b: int, x: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Samples [a, b) of y[n] = x[n] - coef*x[n-1], y[0] = x[0]*(1 - coef),
    with coef = PRE_EMPHASIS, written into the buffer y; only samples
    [a - 1, b) of x are decoded, into the buffer x."""
    coef = PRE_EMPHASIS
    first = int(a == 0)
    x = audio.decoded(a - 1 + first, b, out=x)
    y = y[: b - a]
    if first:
        y[0] = x[0] * (1.0 - coef)
    np.multiply(x[:-1], coef, out=y[first:])
    np.subtract(x[1:], y[first:], out=y[first:])
    return y


@functools.lru_cache(maxsize=16)
def _mfcc_constants(sample_rate: int) -> tuple:
    """(frame_len, shift, nfft, slice_rows, window, fbank, dct) for one
    sample rate, built once; the arrays are read-only, since every caller
    shares them. slice_rows is the largest multiple of 4 (at least 2)
    within cpu.slice_limit of the mel product: 24 at 16 kHz. A rate
    whose frame is shorter than 2 samples (a 1-sample Hamming window is
    0/0) or whose shift rounds to 0 is rejected."""
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
    fit = cpu.slice_limit(NUM_MEL_BINS * (nfft // 2 + 1))
    slice_rows = max(fit // 4 * 4, 2)
    arrays = (
        _hamming(frame_len),
        mel_filterbank(
            NUM_MEL_BINS, nfft, sample_rate, LOW_FREQ_HZ, sample_rate / 2.0
        ),
        dct_matrix(NUM_CEPS, NUM_MEL_BINS),
    )
    for arr in arrays:
        arr.flags.writeable = False
    return (frame_len, shift, nfft, slice_rows, *arrays)


def _mfcc_buffers(rows: int, frame_len: int, shift: int, nfft: int) -> tuple:
    """One job's buffers for blocks of up to rows frames: decoded and
    pre-emphasized samples, zero-padded frames, spectrum, power, mel."""
    samples = (rows - 1) * shift + frame_len
    return (
        np.empty(samples + 1), np.empty(samples),
        np.zeros((rows, nfft)),  # columns from frame_len on stay 0
        np.empty((rows, nfft // 2 + 1), dtype=np.complex128),
        np.empty((rows, nfft // 2 + 1)), np.empty((rows, NUM_MEL_BINS)),
    )


def _mfcc_range(audio: AudioBuffer, blocks: list[tuple[int, int]],
                buffers: tuple, ceps: np.ndarray) -> None:
    """Write the MFCC rows of every block in blocks into ceps, through the
    caller's buffers, with the mel and DCT products in slices of
    slice_rows rows from each block's start, a multiple of slice_rows."""
    frame_len, shift, _, slice_rows, window, fbank, dct = _mfcc_constants(
        audio.sample_rate
    )
    decoded, emphasized, padded, spectrum, power, mel = buffers
    for f0, f1 in blocks:
        m = f1 - f0
        y = _pre_emphasized(audio, f0 * shift, (f1 - 1) * shift + frame_len,
                            decoded, emphasized)
        # np.multiply would pass these strided rows through 192 KB of
        # iterator buffers per call, which two jobs can hold at once;
        # einsum writes each product straight into the output
        np.einsum("ij,j->ij", sliding_window_view(y, frame_len)[::shift],
                  window, out=padded[:m, :frame_len])
        np.fft.rfft(padded[:m], axis=1, out=spectrum[:m])
        np.abs(spectrum[:m], out=power[:m])
        np.square(power[:m], out=power[:m])
        cpu.sliced_matmul(power[:m], fbank.T, mel[:m], slice_rows)
        np.maximum(mel[:m], LOG_ENERGY_FLOOR, out=mel[:m])
        np.log(mel[:m], out=mel[:m])
        cpu.sliced_matmul(mel[:m], dct.T, ceps[f0:f1], slice_rows)


def compute_mfcc(audio: AudioBuffer) -> FeatureMatrix:
    """MFCC rows for every frame of ``audio``, computed one block of
    frames at a time in one cpu.run job per CPU; deterministic, and
    byte-identical for any block size and CPU count."""
    n = len(audio.samples)
    # checked before the constants, which grow with the rate a header
    # claims: a few samples at 4 GHz would build a 21 GB mel filterbank
    frame_len = round(FRAME_LENGTH_MS * audio.sample_rate / 1000.0)
    if n < frame_len:
        raise AudioTooShort(f"{n} samples < one frame of {frame_len}")
    _, shift, nfft, slice_rows, *_ = _mfcc_constants(audio.sample_rate)

    T = frame_count(n, frame_len, shift)
    ceps = np.empty((T, NUM_CEPS))
    # blocks of whole slices, so no slice depends on where blocks start
    step = max(MFCC_BLOCK_FRAMES // slice_rows, 1) * slice_rows
    blocks = cpu.spans(T, step)
    jobs = min(cpu.count(), len(blocks))
    cuts = [len(blocks) * i // jobs for i in range(jobs + 1)]
    rows = max(b - a for a, b in blocks)
    cpu.run([
        functools.partial(_mfcc_range, audio, blocks[a:b],
                          _mfcc_buffers(rows, frame_len, shift, nfft), ceps)
        for a, b in zip(cuts, cuts[1:])
    ])
    return FeatureMatrix(ceps, FRAME_SHIFT_MS / 1000.0)


def _same_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Whether each row of a holds the same bits as that row of b (for
    finite values: equal, and with the same sign, which tells -0.0 from
    0.0; NaN matches nothing)."""
    return ((a == b) & (np.signbit(a) == np.signbit(b))).all(axis=-1)


def _window_moments(
    x: np.ndarray, starts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Exact two-pass mean and variance of the CMVN_WINDOW_FRAMES rows
    from each start, one window (a view of x) at a time."""
    mean = np.empty((len(starts), x.shape[1]))
    var = np.empty_like(mean)
    for i, a in enumerate(starts):
        chunk = x[a : a + CMVN_WINDOW_FRAMES]
        mean[i], var[i] = chunk.mean(axis=0), chunk.var(axis=0)
    return mean, var


def _normalize(out: np.ndarray, x: np.ndarray, mean: np.ndarray,
               std: np.ndarray) -> None:
    """out = (x - mean) / std where std > 1e-10, else x - mean, in place."""
    np.subtract(x, mean, out=out)
    np.divide(out, std, out=out, where=std > 1e-10)


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
    out = np.empty_like(x)
    if T <= window_frames:
        _normalize(out, x, x.mean(axis=0), x.std(axis=0))
    else:
        # prefix sums over globally centered data give O(T*D) windowed
        # moments; centering keeps the E[z^2]-E[z]^2 cancellation small
        center = x.mean(axis=0)
        blocks = cpu.spans(T, FRONTEND_BLOCK_FRAMES)
        sq = None
        for b0, b1 in blocks:
            z = x[b0:b1] - center
            z *= z
            if sq is not None:  # the sum so far goes first, then the rows
                z[0] += sq
            sq = np.add.reduce(z, axis=0)
        # the same row-order sum as (z * z).mean(axis=0)
        guard = np.maximum(1e-5 * (sq / T), 1e-20)

        # s1, s2 row i: the running sums of z and z * z over rows [0, p0 + i)
        # (row 0 is 0.0, and row 1 the first row itself, as in a cumsum), for
        # p0 + i up to p1; each block keeps the rows its windows reach and
        # adds the rest, so every running sum is computed once
        longest = max(b - a for a, b in blocks)
        s1 = np.empty((longest + window_frames + 1, x.shape[1]))
        s2 = np.empty_like(s1)
        s1[0] = s2[0] = 0.0
        p0 = p1 = 0
        for b0, b1 in blocks:
            lo = np.maximum(
                0, np.minimum(np.arange(b0, b1) - half, T - window_frames)
            )
            # running sums from row lo[0], where the block's first window
            # starts, to the end of its last window
            start, stop = lo[0], lo[-1] + window_frames
            keep = p1 - start + 1  # running sums kept, to row p1
            s1[:keep] = s1[start - p0 : p1 - p0 + 1]
            s2[:keep] = s2[start - p0 : p1 - p0 + 1]
            new = slice(keep, keep + stop - p1)
            # the first sum is the first row itself, as in a cumsum over the
            # whole matrix; 0.0 + z[0] would turn a -0.0 into +0.0
            grow = slice(keep - (p1 > 0), new.stop)
            z = np.subtract(x[p1:stop], center, out=s1[new])
            np.multiply(z, z, out=s2[new])
            np.cumsum(s1[grow], axis=0, out=s1[grow])
            np.cumsum(s2[grow], axis=0, out=s2[grow])
            p0, p1 = start, stop

            at, to = lo - start, lo - start + window_frames
            # every interior block's windows start on consecutive rows, so
            # its sums are read as slices rather than gathered
            if lo[-1] - start == len(lo) - 1:
                at_rows = slice(0, len(lo))
                to_rows = slice(window_frames, window_frames + len(lo))
            else:
                at_rows, to_rows = at, to
            mean = np.subtract(s1[to_rows], s1[at_rows])
            mean /= window_frames
            var = np.subtract(s2[to_rows], s2[at_rows])
            var /= window_frames
            var -= mean * mean
            np.maximum(var, 0.0, out=var)
            mean += center

            # windows whose variance sits near the rounding floor get an exact
            # two-pass recompute; cancellation there can fake a nonzero std.
            # Flagged windows with one key hold the same bits: the key is
            # the id of the run of bit-equal rows that holds all 301 rows
            # (run numbers the runs), else the window's start. Only the
            # first window of each key is recomputed, and the rest take its
            # moments
            flagged = np.nonzero((var < guard).any(axis=1))[0]
            if len(flagged):
                rows = x[start:stop]
                run = np.cumsum(np.concatenate(
                    ([False], ~_same_rows(rows[1:], rows[:-1]))
                ))
                first = run[at[flagged]]
                flat = first == run[to[flagged] - 1]
                key = np.where(flat, -1 - first, lo[flagged])
                _, heads, which = np.unique(
                    key, return_index=True, return_inverse=True
                )
                heads_mean, heads_var = _window_moments(x, lo[flagged[heads]])
                mean[flagged] = heads_mean[which]
                var[flagged] = heads_var[which]
            _normalize(out[b0:b1], x[b0:b1], mean, np.sqrt(var, out=var))

    constant = x.max(axis=0) == x.min(axis=0)
    out[:, constant] = 0.0

    return FeatureMatrix(out, feats.frame_shift_s, feats.start_time_s)
