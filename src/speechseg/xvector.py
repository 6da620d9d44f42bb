"""TDNN x-vector inference and embedding archives.

The network is the standard x-vector TDNN: five time-delay frame layers
(affine over a small set of temporal context offsets, then ReLU, then
batch normalization in inference mode), statistics pooling (per-dimension
mean and population standard deviation over time), and two segment-level
affine layers. The 512-dim embedding is the output of the first segment
affine, taken before its activation.

Frame layers use valid convolution: each layer shrinks the frame axis by
(max offset - min offset). Inputs shorter than the net's receptive field
are padded by edge-frame replication, with the extra copy on the leading
edge when the padding is odd.

Windows lie on one fixed grid, the module constants WINDOW_S, STRIDE_S
and MIN_WINDOW_S: a model is only valid on the grid it was trained on,
so no command takes another.

Because the frame layers are a convolution, extraction runs them once
over a tape, not once per window: the windows overlap by half, so a
per-window pass would push most rows through twice. The tape is the
feature rows of every window the caller keeps, each row once, streams
concatenated in order. It goes through the frame layers in chunks of at
most BLOCK_FRAMES new rows, and each layer carries its last span input
rows into the next chunk, so every frame-layer row is computed once and
shared by the windows that read it, as in Peddinti et al. 2015 ("A time
delay neural network architecture for efficient modeling of long
temporal contexts"). Memory stays flat however long the stream. Short
streams (manifest clips, baseline VAD regions) share chunks; a window
that straddles two chunks pools the last frame layer's output it kept
from the one before. After each chunk, the windows it finished take the
first segment affine as one matrix product. A window the caller's keep
predicate rejects is left out of the tape, so its rows never reach the
frame layers unless a kept window needs them.

How windows fall into chunks does not change an embedding in any case
measured, but that rests on the float32 cast, not on equal float64 bits.
BLAS picks its summation kernel by the shape of a product: a row of a
wide frame layer can get other last bits in a chunk than in a per-window
pass, and the tap's matrix product other last bits than one window's
vector product. On a 60 s stream of 79 windows, every float64 embedding
of the small net and of the standard net differed from forward_window's
in the last bits (with a per-window tap, none of the small net's and 69
of the standard net's with two BLAS threads, 41 with one); every float32
embedding was equal. What is checked bit for bit: every small-net window
against a per-window pass and packed against one stream at a time, a few
standard-net streams and chunk edges against both (tests/test_xvector.py),
and the artifacts of the benchmark's four workloads.

Weights live as float32; arithmetic runs in float64. load_weights returns
them as read-only views of the file's bytes, which it reads once.
"""
from __future__ import annotations

import struct
import zlib
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    BadMagic,
    CorruptArchive,
    DimMismatch,
    EmptyInput,
    InvalidConfig,
    NonFiniteWeight,
)
from .frontend import FeatureMatrix

EMBEDDING_DIM = 512
BN_EPSILON = 1e-5
# new feature rows per chunk of extract_streams' frame-layer pass. It bounds
# the chunk's float64 intermediates, so peak memory does not grow with the
# stream. With the context carried, a smaller chunk recomputes no rows, but
# every chunk casts each weight to float64 again. Picked by peak RSS:
# segmenting 4 x 60 s with the standard net (2 cores, OpenBLAS) peaked at
# 75.9 MB with 500 rows, 78.1 MB with 600 and 81.4 MB with 750, against
# 75.7 MB for the 750-row blocks that recomputed the overlap; the baseline
# strategy on the same audio, at 77.3 MB with 500 rows and 80.2 MB with 600
BLOCK_FRAMES = 500

# the sliding window grid, in seconds: a window of WINDOW_S every
# STRIDE_S, and a tail window clamped to the stream end if at least
# MIN_WINDOW_S of it remains; the 1.5 s / 0.75 s of x-vector diarization
WINDOW_S = 1.5
STRIDE_S = 0.75
MIN_WINDOW_S = 0.5

WEIGHTS_MAGIC = b"XVNW"
WEIGHTS_VERSION = 1
ARCHIVE_MAGIC = b"XVEC"

_FRAME, _POOL, _SEGMENT = 0, 1, 2


@dataclass(frozen=True)
class AffineLayer:
    """One affine layer record; kind is "frame" or "segment".

    weight has shape (out_dim, in_dim * len(offsets)), the input being the
    previous layer's frames at the given offsets, concatenated in offset
    order. Frame layers apply ReLU then batch norm; segment layers are
    plain affines as far as inference goes (the forward pass stops at the
    first of them).
    """

    kind: str
    offsets: tuple[int, ...]
    in_dim: int
    out_dim: int
    weight: np.ndarray
    bias: np.ndarray
    bn_mean: np.ndarray
    bn_var: np.ndarray

    @property
    def span(self) -> int:
        return max(self.offsets) - min(self.offsets)


class StatsPool:
    """Marker separating frame layers from segment layers."""

    def __repr__(self):
        return "StatsPool()"

    def __eq__(self, other):
        return isinstance(other, StatsPool)


@dataclass(frozen=True)
class XVectorNet:
    layers: tuple

    def __post_init__(self):
        self._validate()

    def _validate(self) -> None:
        layers = self.layers
        kinds = [
            "pool" if isinstance(l, StatsPool) else l.kind for l in layers
        ]
        if kinds.count("pool") != 1:
            raise DimMismatch("net must contain exactly one stats-pooling stage")
        pool_at = kinds.index("pool")
        if pool_at == 0 or not all(k == "frame" for k in kinds[:pool_at]):
            raise DimMismatch("all layers before pooling must be frame layers")
        if pool_at == len(kinds) - 1 or not all(
            k == "segment" for k in kinds[pool_at + 1 :]
        ):
            raise DimMismatch("all layers after pooling must be segment layers")

        cur = layers[0].in_dim
        for layer in layers:
            if isinstance(layer, StatsPool):
                cur = 2 * cur
                continue
            if layer.kind == "segment" and layer.offsets != (0,):
                raise DimMismatch("segment layers take a single zero offset")
            if layer.in_dim != cur:
                raise DimMismatch(
                    f"layer expects input dim {layer.in_dim}, chain gives {cur}"
                )
            want = (layer.out_dim, layer.in_dim * len(layer.offsets))
            if layer.weight.shape != want:
                raise DimMismatch(
                    f"weight shape {layer.weight.shape}, expected {want}"
                )
            for vec in (layer.bias, layer.bn_mean, layer.bn_var):
                if vec.shape != (layer.out_dim,):
                    raise DimMismatch("per-unit vectors must match out_dim")
            for arr in (layer.weight, layer.bias, layer.bn_mean, layer.bn_var):
                if not np.isfinite(arr).all():
                    raise NonFiniteWeight("non-finite value in layer parameters")
            if (layer.bn_var < 0).any():
                raise NonFiniteWeight("negative batch-norm variance")
            cur = layer.out_dim

    @property
    def frame_layers(self) -> list[AffineLayer]:
        return [
            l for l in self.layers
            if isinstance(l, AffineLayer) and l.kind == "frame"
        ]

    @property
    def segment_layers(self) -> list[AffineLayer]:
        return [
            l for l in self.layers
            if isinstance(l, AffineLayer) and l.kind == "segment"
        ]

    @property
    def input_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def embedding_dim(self) -> int:
        return self.segment_layers[0].out_dim

    @property
    def total_context(self) -> int:
        """Frames of valid-convolution shrink across all frame layers."""
        return sum(l.span for l in self.frame_layers)

    @property
    def min_frames(self) -> int:
        return self.total_context + 1


@dataclass(frozen=True)
class XVector:
    """One embedding with the audio interval it was computed from."""

    values: np.ndarray
    window_start_s: float
    window_end_s: float

    def __post_init__(self):
        object.__setattr__(
            self, "values", np.asarray(self.values, dtype=np.float32)
        )
        if self.values.shape != (EMBEDDING_DIM,):
            raise DimMismatch(
                f"x-vector must have {EMBEDDING_DIM} values, "
                f"got {self.values.shape}"
            )
        if not np.isfinite(self.values).all():
            raise NonFiniteWeight("x-vector contains non-finite values")
        if not self.window_end_s > self.window_start_s:
            raise InvalidConfig("window must have positive length")


# -----------------------------------------------------------------------------
# Forward pass
# -----------------------------------------------------------------------------

def stats_pool(frames: np.ndarray) -> np.ndarray:
    """Mean and population std per dimension, concatenated.

    One sum per column gives the mean, which also centers the deviations,
    squared in place in one scratch buffer: the bits of np.mean and
    np.std.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[0] < 1:
        raise EmptyInput("stats pooling needs at least one frame")
    n, d = frames.shape
    out = np.empty(2 * d)
    mean = np.divide(np.add.reduce(frames, axis=0), n, out=out[:d])
    dev = frames - mean
    np.multiply(dev, dev, out=dev)
    np.sqrt(np.add.reduce(dev, axis=0) / n, out=out[d:])
    return out


def _pad_to(x: np.ndarray, need: int) -> np.ndarray:
    if len(x) >= need:
        return x
    missing = need - len(x)
    left = (missing + 1) // 2
    return np.pad(x, ((left, missing - left), (0, 0)), mode="edge")


def _frame_layers(
    net: XVectorNet, x: np.ndarray, carry: list | None = None
) -> np.ndarray:
    """Frame-layer outputs for float64 rows x.

    Without carry, x is a whole input of at least min_frames rows, and
    output row t depends only on input rows t .. t + total_context. With
    carry, x is the next chunk of a longer input: carry[k] holds the last
    span input rows of frame layer k from the chunks before (none at the
    start) and is updated in place, so the output continues theirs and no
    row is computed twice.

    Each layer's weights are converted to float64 once per call, and the
    elementwise steps run in place on the layer output. A layer's input is
    dropped once its stacked copy exists; a single-offset layer multiplies
    its input as it is.
    """
    for k, layer in enumerate(net.frame_layers):
        if carry is not None:
            if len(carry[k]):
                x = np.concatenate([carry[k], x])
            carry[k] = x[max(len(x) - layer.span, 0):].copy()
        t_out = len(x) - layer.span
        if t_out <= 0:  # a chunk too short to reach this layer's output
            x = np.empty((0, layer.out_dim))
            continue
        if len(layer.offsets) == 1:
            stacked = x
        else:
            lo = min(layer.offsets)
            stacked = np.concatenate(
                [x[off - lo : off - lo + t_out] for off in layer.offsets],
                axis=1,
            )
        del x  # not alive while the layer's product is allocated
        x = stacked @ layer.weight.T.astype(np.float64)
        del stacked  # not alive while the next layer stacks its input
        x += layer.bias
        np.maximum(x, 0.0, out=x)
        x -= layer.bn_mean
        x /= np.sqrt(layer.bn_var.astype(np.float64) + BN_EPSILON)
    return x


def forward_window(net: XVectorNet, frames: np.ndarray) -> np.ndarray:
    """Embedding for one window of feature frames (T x input_dim)."""
    x = np.asarray(frames, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise EmptyInput("forward pass needs at least one frame")
    if x.shape[1] != net.input_dim:
        raise DimMismatch(
            f"net expects {net.input_dim}-dim frames, got {x.shape[1]}"
        )
    pooled = stats_pool(_frame_layers(net, _pad_to(x, net.min_frames)))
    tap = net.segment_layers[0]
    return pooled @ tap.weight.T.astype(np.float64) + tap.bias


def _window_grid(feats: FeatureMatrix):
    """(start_s, end_s) spans of a stream's windows and their [a, b) rows.

    Windows start at multiples of STRIDE_S from the start of the stream.
    Full windows are emitted while they fit; if audio remains past the
    last full window and the tail is at least MIN_WINDOW_S long, one final
    window clamped to the stream end is emitted as well. A stream shorter
    than MIN_WINDOW_S has no window.
    """
    total_s = feats.span_s
    spans = []
    k = 0
    while k * STRIDE_S + WINDOW_S <= total_s:
        spans.append((k * STRIDE_S, k * STRIDE_S + WINDOW_S))
        k += 1
    tail_start = k * STRIDE_S
    if (not spans or spans[-1][1] < total_s) and (
        total_s - tail_start >= MIN_WINDOW_S
    ):
        spans.append((tail_start, total_s))

    shift = feats.frame_shift_s
    rows = [
        (round(start / shift), min(round(end / shift), feats.num_frames))
        for start, end in spans
    ]
    return spans, rows


class _Tape:
    """The frame layers over a tape of feature rows, fed in chunks.

    add appends rows, by reference, and windows holds (values, k, a, b)
    for each window on the tape rows [a, b). feed(final) runs every full
    chunk of BLOCK_FRAMES new rows through _frame_layers with the carried
    context, and with final the last short one too. After each chunk, the
    windows whose rows are all fed stats-pool their rows of the last frame
    layer's output, then take the tap as one product, and each stores its
    embedding in row k of its stream's float32 matrix values. The output
    rows of a window not yet finished are kept as the tail.
    """

    def __init__(self, net: XVectorNet):
        self.net = net
        self.carry = [np.empty((0, l.in_dim)) for l in net.frame_layers]
        self.parts = deque()  # rows added but not yet fed
        self.queued = 0  # rows in parts
        self.size = 0  # rows added
        self.fed = 0  # rows fed
        self.windows = deque()  # (values, k, a, b), in tape order
        self.tail = None  # output rows [tail_at, fed - context)
        self.tail_at = 0

    def add(self, rows: np.ndarray) -> None:
        self.parts.append(rows)
        self.queued += len(rows)
        self.size += len(rows)

    def feed(self, final: bool = False) -> None:
        while self.queued >= BLOCK_FRAMES or (final and self.queued):
            self._chunk(min(self.queued, BLOCK_FRAMES))

    def _chunk(self, n: int) -> None:
        take = []
        while n:
            rows = self.parts.popleft()
            if len(rows) > n:
                self.parts.appendleft(rows[n:])
                rows = rows[:n]
            take.append(rows)
            n -= len(rows)
            self.queued -= len(rows)
            self.fed += len(rows)
        context = self.net.total_context
        y = _frame_layers(
            self.net,
            take[0] if len(take) == 1 else np.concatenate(take),
            self.carry,
        )
        del take
        at = self.fed - context - len(y)  # tape row of y's first row
        done = []
        while self.windows and self.windows[0][3] <= self.fed:
            done.append(self.windows.popleft())
        pooled = [
            stats_pool(
                y[a - at : b - context - at] if a >= at
                else np.concatenate(  # a window straddling chunks
                    [self.tail[a - self.tail_at :], y[: b - context - at]]
                )
            )
            for _, _, a, b in done
        ]
        if self.windows:
            a = self.windows[0][2]
            if a >= at:
                self.tail = y[a - at :].copy()
            else:
                self.tail = np.concatenate([self.tail[a - self.tail_at :], y])
            self.tail_at = a
        else:
            self.tail = None
        del y  # not alive during the tap product
        if pooled:
            tap = self.net.segment_layers[0]
            out = np.stack(pooled) @ tap.weight.T.astype(np.float64)
            out += tap.bias
            for (values, k, _, _), v in zip(done, out):
                values[k] = v  # the float32 cast XVector makes


def extract_streams(
    net: XVectorNet,
    streams: Iterable[FeatureMatrix],
    keep: Callable[[float, float], bool] | None = None,
) -> Iterator[list[XVector]]:
    """Embeddings over the sliding window grid of each stream in turn.

    Reads the FeatureMatrix iterable lazily and yields one list[XVector]
    per stream, in input order, as soon as its windows are embedded; a
    stream shorter than MIN_WINDOW_S yields []. Times are offset by each
    stream's start_time_s. keep(start_s, end_s), given those times, is
    called once per window in order; a window it rejects is left out and
    its rows need not be computed.

    The kept windows' feature rows, each row once, concatenated in stream
    order, form the tape that _Tape runs through the frame layers. A
    window pools only its own rows; output rows whose receptive field
    straddles two runs of the tape are computed but never read. Windows
    shorter than the receptive field go through forward_window's padded
    path.
    """
    tape = _Tape(net)
    # (start_time_s, spans, values, tape rows fed when it is done)
    pending = deque()

    def finished():
        while pending and pending[0][3] <= tape.fed:
            t0, spans, values, _ = pending.popleft()
            yield [
                XVector(v, t0 + start, t0 + end)
                for v, (start, end) in zip(values, spans)
            ]

    for feats in streams:
        if feats.dim != net.input_dim:
            raise DimMismatch(
                f"net expects {net.input_dim}-dim frames, got {feats.dim}"
            )
        t0 = feats.start_time_s
        spans, rows = _window_grid(feats)
        kept = [
            k for k, (start, stop) in enumerate(spans)
            if keep is None or keep(t0 + start, t0 + stop)
        ]
        # one float32 matrix per stream, allocated before the chunks' float64
        # temporaries: a small array per window, allocated among them,
        # fragments the heap (segmenting one 1,200 s recording over and over,
        # peak RSS then grew pass by pass from 134 to 166 MB)
        values = np.empty((len(kept), net.embedding_dim), np.float32)
        run = None  # stream rows [a, b) of the current run of the tape
        for j, k in enumerate(kept):
            a, b = rows[k]
            if b - a < net.min_frames:
                values[j] = forward_window(net, feats.rows[a:b])
                continue
            if run is None or a > run[1]:  # start a new run of the tape
                if run:
                    tape.add(feats.rows[run[0] : run[1]])
                run, base = [a, b], tape.size - a
            run[1] = b
            tape.windows.append((values, j, base + a, base + b))
        if run:  # a run goes onto the tape as one view of the stream's rows
            tape.add(feats.rows[run[0] : run[1]])
        pending.append((t0, [spans[k] for k in kept], values, tape.size))
        tape.feed()
        yield from finished()
    tape.feed(final=True)
    yield from finished()


def extract_sequence(
    net: XVectorNet,
    feats: FeatureMatrix,
    keep: Callable[[float, float], bool] | None = None,
) -> list[XVector]:
    """Embeddings over one stream's sliding window grid: extract_streams
    on a single stream, so [] for a stream shorter than MIN_WINDOW_S."""
    return next(extract_streams(net, [feats], keep))


# -----------------------------------------------------------------------------
# Seeded test nets
# -----------------------------------------------------------------------------

# frame-layer context offsets shared by both presets
_CONTEXTS = ((-2, -1, 0, 1, 2), (-2, 0, 2), (-3, 0, 3), (0,), (0,))

# per-preset frame-layer widths; embedding and final dims stay 512
_PRESETS = {
    "standard": (512, 512, 512, 512, 1500),
    "small": (48, 48, 48, 48, 256),
}


def make_test_net(
    seed: int = 0, preset: str = "standard", input_dim: int = 30
) -> XVectorNet:
    """Random-weight net for tests and fixtures; deterministic per seed."""
    if preset not in _PRESETS:
        raise InvalidConfig(f"unknown preset {preset!r}")
    rng = np.random.default_rng(seed)
    widths = _PRESETS[preset]

    def affine(kind, offsets, d_in, d_out):
        fan_in = d_in * len(offsets)
        return AffineLayer(
            kind=kind,
            offsets=offsets,
            in_dim=d_in,
            out_dim=d_out,
            weight=(rng.standard_normal((d_out, fan_in)) / np.sqrt(fan_in))
            .astype(np.float32),
            bias=(0.1 * rng.standard_normal(d_out)).astype(np.float32),
            bn_mean=(0.1 * rng.standard_normal(d_out)).astype(np.float32),
            bn_var=rng.uniform(0.5, 1.5, d_out).astype(np.float32),
        )

    layers = []
    d = input_dim
    for offsets, width in zip(_CONTEXTS, widths):
        layers.append(affine("frame", offsets, d, width))
        d = width
    layers.append(StatsPool())
    layers.append(affine("segment", (0,), 2 * d, EMBEDDING_DIM))
    layers.append(affine("segment", (0,), EMBEDDING_DIM, EMBEDDING_DIM))
    return XVectorNet(tuple(layers))


# -----------------------------------------------------------------------------
# Files. The weight file and the embedding archive share one framing: a
# 4-byte magic, a body starting with a 4-byte header, and a CRC32 (u32) of
# everything before it. Little-endian.
#
# Weight file: magic "XVNW", u16 version, u16 record count, then per-record
# u8 type (0 frame, 1 pool, 2 segment); affine records carry u8 offset count,
# i16 offsets, u32 in/out dims, f32 weights row-major, f32 bias, f32 bn
# mean/var.
#
# Embedding archive: magic "XVEC", u32 count, then count _RECORDs: f64
# start_s, f64 end_s, 512 f32 values.
# -----------------------------------------------------------------------------

_RECORD = np.dtype([("start", "<f8"), ("end", "<f8"),
                    ("values", "<f4", EMBEDDING_DIM)])


def _write_checked(path: str | Path, body: bytes) -> None:
    """Write body (magic first) and its CRC32."""
    with open(path, "wb") as f:
        f.write(body)
        f.write(struct.pack("<I", zlib.crc32(body)))


def _read_checked(path: str | Path, magic: bytes, what: str) -> memoryview:
    """The bytes of a checked file before its CRC32, magic included: a
    read-only view of the one buffer the file is read into."""
    raw = Path(path).read_bytes()
    if len(raw) < 12 or raw[:4] != magic:
        raise BadMagic(f"{path}: not {what}")
    body = memoryview(raw)[:-4]
    if zlib.crc32(body) != struct.unpack("<I", raw[-4:])[0]:
        raise CorruptArchive(f"{path}: checksum mismatch")
    return body


def save_weights(net: XVectorNet, path: str | Path) -> None:
    parts = [
        WEIGHTS_MAGIC,
        struct.pack("<HH", WEIGHTS_VERSION, len(net.layers)),
    ]
    for layer in net.layers:
        if isinstance(layer, StatsPool):
            parts.append(struct.pack("<B", _POOL))
            continue
        tag = _FRAME if layer.kind == "frame" else _SEGMENT
        parts.append(struct.pack("<BB", tag, len(layer.offsets)))
        parts.append(struct.pack(f"<{len(layer.offsets)}h", *layer.offsets))
        parts.append(struct.pack("<II", layer.in_dim, layer.out_dim))
        for arr in (layer.weight, layer.bias, layer.bn_mean, layer.bn_var):
            parts.append(arr.astype("<f4").tobytes())
    _write_checked(path, b"".join(parts))


def load_weights(path: str | Path) -> XVectorNet:
    """Read a weight file. Every weight, bias and batch-norm array is a
    read-only view of the one buffer the file is read into, so loading
    holds the file's bytes once rather than a copy per array as well."""
    body = _read_checked(path, WEIGHTS_MAGIC, "a weight file")
    version, count = struct.unpack_from("<HH", body, 4)
    if version != WEIGHTS_VERSION:
        raise BadMagic(f"{path}: unsupported weight format version {version}")

    pos = 8

    def take(fmt):
        nonlocal pos
        size = struct.calcsize(fmt)
        if pos + size > len(body):
            raise CorruptArchive(f"{path}: truncated layer record")
        pos += size
        return struct.unpack_from(fmt, body, pos - size)

    layers = []
    for _ in range(count):
        (tag,) = take("<B")
        if tag == _POOL:
            layers.append(StatsPool())
            continue
        if tag not in (_FRAME, _SEGMENT):
            raise CorruptArchive(f"{path}: unknown layer tag {tag}")
        (noffs,) = take("<B")
        offsets = take(f"<{noffs}h")
        d_in, d_out = take("<II")
        counts = (d_out * d_in * noffs, d_out, d_out, d_out)
        if pos + 4 * sum(counts) > len(body):
            raise CorruptArchive(f"{path}: truncated layer record")
        arrays = []
        for n in counts:
            arrays.append(np.frombuffer(body, dtype="<f4", count=n, offset=pos))
            pos += 4 * n
        w, bias, bn_mean, bn_var = arrays
        layers.append(
            AffineLayer(
                kind="frame" if tag == _FRAME else "segment",
                offsets=tuple(offsets),
                in_dim=d_in,
                out_dim=d_out,
                weight=w.reshape(d_out, d_in * noffs),
                bias=bias,
                bn_mean=bn_mean,
                bn_var=bn_var,
            )
        )
    if pos != len(body):
        raise CorruptArchive(f"{path}: {len(body) - pos} trailing bytes")
    return XVectorNet(tuple(layers))


def save_archive(vectors: list[XVector], path: str | Path) -> None:
    records = np.fromiter(
        ((v.window_start_s, v.window_end_s, v.values) for v in vectors),
        _RECORD, len(vectors),
    )
    header = ARCHIVE_MAGIC + struct.pack("<I", len(vectors))
    _write_checked(path, b"".join((header, records)))  # one copy of records


def load_archive(path: str | Path) -> list[XVector]:
    """Read an archive. Each XVector's values are a read-only view of the
    one buffer the file is read into."""
    body = _read_checked(path, ARCHIVE_MAGIC, "an x-vector archive")
    (count,) = struct.unpack_from("<I", body, 4)
    size = 8 + count * _RECORD.itemsize
    if len(body) != size:
        raise CorruptArchive(f"{path}: {len(body)} bytes, expected {size}")
    r = np.frombuffer(body, _RECORD, offset=8)
    return list(map(XVector, r["values"], r["start"].tolist(),
                    r["end"].tolist()))
