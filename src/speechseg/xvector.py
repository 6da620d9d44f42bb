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

Because the frame layers are a convolution, sliding-window extraction runs
them once per block of consecutive windows, not once per window: the
windows overlap (by half at the default stride), so a per-window pass
would push most frames through them twice. Each window then stats-pools
its own rows of the block output and applies the first segment affine.
A block spans at most BLOCK_FRAMES (750) frames, which keeps peak memory
flat however long the stream is, and the one bound serves both ways a
block forms. extract_streams embeds many streams in turn: consecutive
streams whose windows fit in one block share it, their rows
concatenated, so a manifest of short clips pays the per-block costs (five
small matrix products, the float64 weight casts) once per block rather
than once per clip; a longer stream is cut into blocks at window starts.
A window pools only its own stream's rows; rows whose receptive field
straddles two streams are computed but never read.

How windows fall into blocks does not change an embedding in any case
measured, but that rests on the float32 cast, not on equal float64 bits.
BLAS picks its summation kernel by the shape of a product, so a row of a
wide frame layer can get other last bits in a block of another length.
On the standard net (OpenBLAS, 2 cores), 71 of the 79 windows of a 60 s
benchmark recording with one BLAS thread, and all 79 with two, had
frame-layer rows whose float64 bits differed from a per-window pass in
750-row blocks (all 79 in 1,500-row blocks); yet every float32 embedding
equaled forward_window's. On the small net the float64 rows agree too.
What is checked bit for bit: every small-net window against a per-window
pass and packed against one stream at a time, a few standard-net streams
packed against one at a time (tests/test_xvector.py), and the artifacts
of the benchmark's four workloads, the same at 1,500- and 750-row blocks.

Weights live as float32; arithmetic runs in float64. load_weights returns
them as read-only views of the file's bytes, which it reads once.
"""
from __future__ import annotations

import struct
import zlib
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    BadMagic,
    CorruptArchive,
    DimMismatch,
    EmptyInput,
    InvalidConfig,
    IoFailure,
    NonFiniteWeight,
    StreamTooShort,
)
from .frontend import FeatureMatrix

EMBEDDING_DIM = 512
BN_EPSILON = 1e-5
# longest frame span of one block of windows in extract_streams, whether
# it packs several short streams or cuts a long one. It bounds the block's
# float64 intermediates, so peak memory does not grow with the stream.
# Each cut recomputes half a window of rows (75 at the default grid), so
# smaller blocks cost time. Segmenting 4 x 60 s with the standard net
# (2 cores, OpenBLAS) peaked at 118 MB RSS with 1,500 rows and at 83 MB
# with 750 at the same speed; 500 rows reached 77 MB, 15% slower
BLOCK_FRAMES = 750

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
    def activation(self) -> bool:
        return self.kind == "frame"

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


@dataclass(frozen=True)
class ExtractionConfig:
    window_s: float = 1.5
    stride_s: float = 0.75
    min_window_s: float = 0.5

    def __post_init__(self):
        if not 0 < self.stride_s <= self.window_s:
            raise InvalidConfig("need 0 < stride_s <= window_s")
        if not 0 < self.min_window_s <= self.window_s:
            raise InvalidConfig("need 0 < min_window_s <= window_s")


# -----------------------------------------------------------------------------
# Forward pass
# -----------------------------------------------------------------------------

def stats_pool(frames: np.ndarray) -> np.ndarray:
    """Mean and population std per dimension, concatenated."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[0] < 1:
        raise EmptyInput("stats pooling needs at least one frame")
    mean = frames.mean(axis=0)
    std = frames.std(axis=0)
    return np.concatenate([mean, std])


def _pad_to(x: np.ndarray, need: int) -> np.ndarray:
    if len(x) >= need:
        return x
    missing = need - len(x)
    left = (missing + 1) // 2
    return np.pad(x, ((left, missing - left), (0, 0)), mode="edge")


def _frame_layers(net: XVectorNet, x: np.ndarray) -> np.ndarray:
    """Frame-layer outputs for float64 rows x (at least min_frames of them).

    Row t of the output depends only on input rows t .. t + total_context.
    Each layer's weights are converted to float64 once per call, and the
    elementwise steps run in place on the layer output. A layer's input is
    dropped once its stacked copy exists.
    """
    for layer in net.frame_layers:
        lo = min(layer.offsets)
        t_out = x.shape[0] - layer.span
        stacked = np.concatenate(
            [x[off - lo : off - lo + t_out] for off in layer.offsets], axis=1
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


def _window_grid(feats: FeatureMatrix, cfg: ExtractionConfig):
    """(start_s, end_s) spans of a stream's windows and their [a, b) rows.

    Windows start at multiples of stride_s from the start of the stream.
    Full windows are emitted while they fit; if audio remains past the
    last full window and the tail is at least min_window_s long, one final
    window clamped to the stream end is emitted as well. A stream shorter
    than min_window_s has no window.
    """
    total_s = feats.span_s
    spans = []
    k = 0
    while k * cfg.stride_s + cfg.window_s <= total_s:
        spans.append((k * cfg.stride_s, k * cfg.stride_s + cfg.window_s))
        k += 1
    tail_start = k * cfg.stride_s
    if (not spans or spans[-1][1] < total_s) and (
        total_s - tail_start >= cfg.min_window_s
    ):
        spans.append((tail_start, total_s))

    shift = feats.frame_shift_s
    rows = [
        (round(start / shift), min(round(end / shift), feats.num_frames))
        for start, end in spans
    ]
    return spans, rows


def extract_streams(
    net: XVectorNet,
    streams: Iterable[FeatureMatrix],
    cfg: ExtractionConfig = ExtractionConfig(),
) -> Iterator[list[XVector]]:
    """Embeddings over the sliding window grid of each stream in turn.

    Reads the FeatureMatrix iterable lazily and yields one list[XVector]
    per stream, in input order; a stream shorter than min_window_s yields
    []. Times are offset by each stream's start_time_s.

    The frame layers run once per block of at most BLOCK_FRAMES rows (one
    longer window is a block of its own), and each window stats-pools its
    own rows of the block output. A stream starts a new block unless all
    its windows fit in the current one, so short streams share a block,
    their rows concatenated, while a stream longer than BLOCK_FRAMES is
    cut into blocks at window starts. Windows shorter than the receptive
    field go through forward_window's padded path.
    """
    context, min_frames = net.total_context, net.min_frames
    tap = net.segment_layers[0]
    pending = []  # (start_time_s, spans, values) of streams not yet yielded
    chunks = []  # [rows, a, b]: feature rows [a, b) of one stream, in order
    jobs = []  # (values, k, a, b): window k pools block rows [a, b - context)
    used = 0  # rows in the current block

    def flush():
        nonlocal used
        if used:
            parts = [rows[a:b] for rows, a, b in chunks]
            y = _frame_layers(
                net, parts[0] if len(parts) == 1 else np.concatenate(parts)
            )
            pooled = [stats_pool(y[a : b - context]) for _, _, a, b in jobs]
            del y, parts  # not alive during the tap product
            tap_weight = tap.weight.T.astype(np.float64)
            for (values, k, _, _), p in zip(jobs, pooled):
                # the float32 cast XVector makes, made now, so a long
                # stream holds half the bytes until it is yielded
                values[k] = (p @ tap_weight + tap.bias).astype(np.float32)
            chunks.clear()
            jobs.clear()
            used = 0
        for t0, spans, values in pending:
            yield [
                XVector(v, t0 + start, t0 + end)
                for v, (start, end) in zip(values, spans)
            ]
        pending.clear()

    for feats in streams:
        if feats.dim != net.input_dim:
            raise DimMismatch(
                f"net expects {net.input_dim}-dim frames, got {feats.dim}"
            )
        spans, rows = _window_grid(feats, cfg)
        values = [None] * len(spans)
        full = [(a, b) for a, b in rows if b - a >= min_frames]
        if full and used + full[-1][1] - full[0][0] > BLOCK_FRAMES:
            yield from flush()
        end = None  # end of this stream's rows in the current block
        for k, (a, b) in enumerate(rows):
            if b - a < min_frames:
                values[k] = forward_window(net, feats.rows[a:b])
                continue
            if end is not None and used + b - end > BLOCK_FRAMES:
                yield from flush()
                end = None
            if end is None:
                chunks.append([feats.rows, a, a])
                base, end = used - a, a
            chunks[-1][2] = b
            used += b - end
            end = b
            jobs.append((values, k, base + a, base + b))
        pending.append((feats.start_time_s, spans, values))
        if not used:
            yield from flush()
    yield from flush()


def extract_sequence(
    net: XVectorNet,
    feats: FeatureMatrix,
    cfg: ExtractionConfig = ExtractionConfig(),
) -> list[XVector]:
    """Embeddings over one stream's sliding window grid: extract_streams
    on a single stream, raising StreamTooShort where that yields nothing
    because the stream is shorter than min_window_s."""
    if feats.span_s < cfg.min_window_s:
        raise StreamTooShort(
            f"stream of {feats.span_s:.3f}s is shorter than the "
            f"{cfg.min_window_s}s minimum window"
        )
    return next(extract_streams(net, [feats], cfg))


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
# Weight file: magic "XVNW", u16 version, u16 record count, then per-record
# u8 type (0 frame, 1 pool, 2 segment); affine records carry u8 offset count,
# i16 offsets, u32 in/out dims, f32 weights row-major, f32 bias, f32 bn
# mean/var. Trailing CRC32 over everything before it. Little-endian.
# -----------------------------------------------------------------------------

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
    body = b"".join(parts)
    try:
        Path(path).write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    except OSError as e:
        raise IoFailure(str(e)) from e


def load_weights(path: str | Path) -> XVectorNet:
    """Read a weight file. Every weight, bias and batch-norm array is a
    read-only view of the one buffer the file is read into, so loading
    holds the file's bytes once rather than a copy per array as well."""
    try:
        raw = Path(path).read_bytes()
    except OSError as e:
        raise IoFailure(str(e)) from e
    if len(raw) < 12 or raw[:4] != WEIGHTS_MAGIC:
        raise BadMagic(f"{path}: not a weight file")
    body = memoryview(raw)[:-4]
    if zlib.crc32(body) != struct.unpack("<I", raw[-4:])[0]:
        raise CorruptArchive(f"{path}: weight file checksum mismatch")

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


# -----------------------------------------------------------------------------
# Embedding archive: magic "XVEC", u32 count, then per vector f64 start_s,
# f64 end_s, 512 f32 values; trailing CRC32. Little-endian.
# -----------------------------------------------------------------------------

def save_archive(vectors: list[XVector], path: str | Path) -> None:
    parts = [ARCHIVE_MAGIC, struct.pack("<I", len(vectors))]
    for vec in vectors:
        parts.append(struct.pack("<dd", vec.window_start_s, vec.window_end_s))
        parts.append(vec.values.astype("<f4").tobytes())
    body = b"".join(parts)
    try:
        Path(path).write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    except OSError as e:
        raise IoFailure(str(e)) from e


def load_archive(path: str | Path) -> list[XVector]:
    try:
        raw = Path(path).read_bytes()
    except OSError as e:
        raise IoFailure(str(e)) from e
    if len(raw) < 12 or raw[:4] != ARCHIVE_MAGIC:
        raise BadMagic(f"{path}: not an x-vector archive")
    body, crc_bytes = raw[:-4], raw[-4:]
    if zlib.crc32(body) != struct.unpack("<I", crc_bytes)[0]:
        raise CorruptArchive(f"{path}: archive checksum mismatch")

    (count,) = struct.unpack_from("<I", body, 4)
    record = 16 + 4 * EMBEDDING_DIM
    if len(body) != 8 + count * record:
        raise CorruptArchive(
            f"{path}: expected {8 + count * record} bytes, got {len(body)}"
        )
    out = []
    pos = 8
    for _ in range(count):
        start, end = struct.unpack_from("<dd", body, pos)
        values = np.frombuffer(
            body, dtype="<f4", count=EMBEDDING_DIM, offset=pos + 16
        ).copy()
        out.append(XVector(values, start, end))
        pos += record
    return out
