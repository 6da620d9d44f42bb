"""TDNN x-vector inference and embedding archives.

The network is the standard x-vector TDNN: five time-delay frame layers
(affine over a small set of temporal context offsets, then ReLU, then
batch normalization in inference mode, folded into the next affine as
set out below), statistics pooling (per-dimension mean and population
standard deviation over time), and two segment-level affine layers.
The 512-dim embedding is the output of the first segment affine, taken
before its activation.

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
from the one before. The windows a chunk finishes stats-pool their rows
into a batch, and every TAP_BATCH of them take the tap (the first
segment affine) as one matrix product. A window the caller's keep
predicate rejects is left out of the tape, so its rows never reach the
frame layers unless a kept window needs them.

On the small net a long stream runs on one tape per CPU the process may
use (frontend._cpus), as compute_mfcc does. extract_streams cuts the
stream's windows into contiguous ranges of about equal tape rows, no
more ranges than CPUs and none of fewer than about SPLIT_FRAMES rows, so
a stream splits once its kept windows cover 2 x SPLIT_FRAMES rows (15
minutes at 10 ms); every shorter stream (clips, VAD regions) stays on
the shared tape. A split pays a fixed cost, which OpenBLAS's helper
threads raise while they still spin after the shared tape's threaded
products, so a shorter stream would gain only while they are idle (see
SPLIT_FRAMES). Each range gets a _SplitTape of its own: one runs on the
calling thread, the rest on a per-call ThreadPoolExecutor, and all write
into the stream's one record array. A range's tape holds the rows of its
windows, so only the rows that the windows at a cut share go through the
frame layers twice. The shared tape is fed to its end first, so streams
still come out in input order, and the keep predicate, the padded
windows and the non-finite check stay on the calling thread.

Two tapes pay only while neither wakes OpenBLAS's threads, so a split
tape runs each frame layer in row slices (frontend._sliced_matmul) and
the tap in column slices, every product at or under the size OpenBLAS
runs on the calling thread, with the weights cast once per stream
(_sliced). A stream is split only when every frame layer's product of
two rows fits that size: the small net's widest layer (48 x 256) does;
the standard net's 1,536 x 512 does not, and its products already keep
both cores busy through OpenBLAS: extracting the benchmark's seed-7
4 x 60 s with two standard-net tapes per stream took 1,182-1,326 ms
against 1,033-1,104 ms on one tape. On 2 cores (numpy 2.4.6, OpenBLAS
0.3.31) extracting its seed-7 1,200 s recording with the small net took
265-273 ms on one tape and 179-188 ms on two.

Every tape runs one chunk routine, _Tape._chunk, through three hooks:
_empty makes its arrays, _product runs its frame-layer products and
_embed its tap products. The shared tape makes each array for one chunk
and runs whole products, so a layer's input is freed once its product
exists; with buffers kept between chunks, the benchmark's stream-standard
workload peaked at 94.1-94.3 MB RSS against 77.8-77.9 MB (seed 13). A
_SplitTape's arrays are views of buffers the calling thread makes before
the workers start (arrays a worker thread makes land in its own glibc
arena, which keeps their pages), and its products run in slices.

Files run by segment --jobs each split their own streams, so N jobs can
run N tapes per CPU; as no split product wakes OpenBLAS's threads, that
still gained on 2 cores: segmenting two copies of the benchmark's
1,200 s recording with --jobs 2 took 1,048-1,136 ms on split tapes against 1,293-1,442 ms
on one tape each (--jobs 1: 1,111-1,118 ms against 1,292-1,306 ms).

Batch norm is folded into the affine after it, as is usual for
inference (Jacob et al. 2018, "Quantization and training of neural
networks for efficient integer-arithmetic-only inference"): a frame
layer is one product, then bias and ReLU, and the next frame layer, or
the tap after pooling, divides its weight columns by the batch-norm
scale and takes the shift into its bias (_Folded). The folded biases are
computed once per net, and the scale is applied in the pass that casts
each weight to float64 for a chunk, but that divide is not free: on 2
cores (numpy 2.4.6, OpenBLAS) it took 0.92-0.97 ms on a 512 x 1,536 or
1,500 x 512 weight where a plain cast took 0.36-0.39 ms, and 1.83 ms
against 0.73 ms on the standard net's 512 x 3,000 tap. That is about
3 ms of a 28 ms 500-row standard-net chunk, 1.9 ms more than plain
casts; float32 frame layers, an open ROADMAP item, would drop the cast.

Neither the fold nor how windows fall into chunks and tap batches
changes an embedding in any case measured, but that rests on the
float32 cast, not on equal float64 bits. The fold rounds differently
from (r - mean) / std, and BLAS picks its summation kernel by the shape
of a product: a row of a wide frame layer can get other last bits in a
chunk than in a per-window pass, and a batch of windows at the tap other
last bits than one window's product. On a 60 s stream of 79 windows,
every float64 embedding of the small net and of the standard net
differed from forward_window's in the last bits, with one BLAS thread or
two; every float32 embedding was equal. What is checked bit for bit:
every small-net window against a per-window pass and packed against one
stream at a time, a few standard-net streams and chunk edges against
both, a standard-net stream over three tap batches against the
per-window pass, a stream split across two and three tapes against one
tape (tests/test_xvector.py), and the artifacts of the benchmark's four
workloads. The tests also hold embeddings within tolerance of the
unfolded oracle: every window of that stream, and some windows of the
others.

Weights live as float32; arithmetic runs in float64. load_weights returns
them as read-only views of the file's bytes, which it reads once.

Embeddings travel as record arrays of RECORD (window_start_s,
window_end_s, 512 float32 values): extraction fills one per stream, and
an .xvec archive is one such array behind a header and a CRC.
"""
from __future__ import annotations

import math
import struct
import zlib
from bisect import bisect_left
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import frontend
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
# finished windows per tap product in extract_streams. Each product casts
# the tap's weights to float64 again (512 x 3,000 on the standard net), and
# a stream waits for the batch that holds its last window. Picked by
# measurement (2 cores, OpenBLAS, the benchmark's seed-7 inputs):
# extracting the 1,200 s recording with the small net took 0.55-0.59 s
# with 8 windows, 0.47-0.55 s with 16 and 0.44-0.50 s with 32, 64 or 128
# (medians of 7 and 9); segmenting 4 x 60 s with the standard net peaked
# at 76.9 MB RSS with 16, 77.0 MB with 32, 78.1 MB with 64 and 79.5 MB
# with 128, against 76.3 MB with one tap product per chunk
TAP_BATCH = 32
# tape rows each tape gets, at the least, when extract_streams splits a
# small-net stream across tapes (_ranges): on 2 CPUs a stream splits once
# its kept windows cover 90,000 rows, 15 minutes at 10 ms. A split pays a
# fixed cost, and a larger one while OpenBLAS's helper threads still spin
# after a threaded product, as they do once the shared tape has run a
# stream. Split time over one-tape time, extracting speech-proxy streams
# (2 cores, medians of 7 to 11 alternating runs): with the helpers idle,
# 1.78 at 10.5 s, 1.34 at 20 s, 1.06 at 30 s, 0.81 at 60 s, 0.74 at
# 120 s, 0.68 at 480 s and 0.70 at 900 s; right after a one-tape
# extraction of 5 s, 1.31 at 60 s, 1.24 at 120 s, 1.15 at 480 s, 1.09 at
# 600 s, 1.02 at 720 s, 0.93 at 900 s and 0.83 at 1,200 s
SPLIT_FRAMES = 45_000

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

# one embedding and the audio interval it was computed from: extraction
# yields np.recarrays of these, and an archive stores them as they are
RECORD = np.dtype([("window_start_s", "<f8"), ("window_end_s", "<f8"),
                   ("values", "<f4", EMBEDDING_DIM)])


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


class _Folded(NamedTuple):
    """An affine layer that acts on the ReLU output of the frame layer
    before it, with that layer's batch norm folded in (_fold)."""

    layer: AffineLayer
    span: int
    scale: np.ndarray | None  # per weight column, float64
    bias: np.ndarray  # float64

    def weights(self) -> np.ndarray:
        """weight.T in float64 with the fold applied: one pass over the
        float32 weights, made again on every call, so no float64 copy of
        a weight matrix outlives the product it is made for."""
        if self.scale is None:
            return self.layer.weight.astype(np.float64).T
        return np.divide(self.layer.weight, self.scale).T


def _matvec(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """float32 w @ float64 v, 64 rows at a time, so that loading a net
    makes no float64 copy of a whole weight matrix."""
    return np.concatenate([w[i : i + 64] @ v for i in range(0, len(w), 64)])


def _fold(frame: tuple, tap: AffineLayer) -> tuple:
    """_Folded frame layers, then the folded tap. A frame layer's batch
    norm, (r - m) / s with s = sqrt(bn_var + BN_EPSILON), feeds the next
    frame layer at every offset, so that layer's weight columns divide by
    s repeated once per offset, and its bias loses W @ (m / s) tiled the
    same way. The first frame layer has no scale. The tap reads the pooled
    mean and std of the last frame layer, (mean(r) - m) / s and
    std(r) / s: both halves of its columns divide by s, and only the mean
    half takes the shift."""
    folded, before = [], None
    for layer in (*frame, tap):
        bias = layer.bias.astype(np.float64)
        scale = None
        if before is not None:
            s = np.sqrt(before.bn_var.astype(np.float64) + BN_EPSILON)
            shift = before.bn_mean / s
            if layer is tap:
                scale = np.concatenate([s, s])
                bias -= _matvec(layer.weight[:, : len(s)], shift)
            else:
                reps = len(layer.offsets)
                scale = np.tile(s, reps)
                bias -= _matvec(layer.weight, np.tile(shift, reps))
        folded.append(_Folded(layer, layer.span, scale, bias))
        before = layer
    return tuple(folded)


@dataclass(frozen=True)
class XVectorNet:
    """The layers, and what inference reads from them on every chunk,
    computed once: the frame and segment layers, the total context, and
    the layers with batch norm folded in (folded_frames, folded_tap)."""

    layers: tuple
    frame_layers: tuple = field(init=False, repr=False, compare=False)
    segment_layers: tuple = field(init=False, repr=False, compare=False)
    # frames of valid-convolution shrink across all frame layers
    total_context: int = field(init=False, repr=False, compare=False)
    folded_frames: tuple = field(init=False, repr=False, compare=False)
    folded_tap: _Folded = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._validate()
        affine = [l for l in self.layers if isinstance(l, AffineLayer)]
        frame = tuple(l for l in affine if l.kind == "frame")
        segment = tuple(l for l in affine if l.kind == "segment")
        *folded_frames, folded_tap = _fold(frame, segment[0])
        for name, value in (
            ("frame_layers", frame),
            ("segment_layers", segment),
            ("total_context", sum(l.span for l in frame)),
            ("folded_frames", tuple(folded_frames)),
            ("folded_tap", folded_tap),
        ):
            object.__setattr__(self, name, value)

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
    def input_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def embedding_dim(self) -> int:
        return self.segment_layers[0].out_dim

    @property
    def min_frames(self) -> int:
        return self.total_context + 1


# -----------------------------------------------------------------------------
# Forward pass
# -----------------------------------------------------------------------------

def stats_pool(
    frames: np.ndarray, out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Mean and population std per dimension, concatenated, into out if
    given.

    One sum per column gives the mean, which also centers the deviations,
    squared in place in one scratch buffer (the front rows of scratch if
    given): the bits of np.mean and np.std.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[0] < 1:
        raise EmptyInput("stats pooling needs at least one frame")
    n, d = frames.shape
    if out is None:
        out = np.empty(2 * d)
    mean, std = out[:d], out[d:]
    np.divide(np.add.reduce(frames, axis=0, out=mean), n, out=mean)
    dev = np.subtract(
        frames, mean, out=None if scratch is None else scratch[:n]
    )
    np.multiply(dev, dev, out=dev)
    np.divide(np.add.reduce(dev, axis=0, out=std), n, out=std)
    np.sqrt(std, out=std)
    return out


def _pad_to(x: np.ndarray, need: int) -> np.ndarray:
    if len(x) >= need:
        return x
    missing = need - len(x)
    left = (missing + 1) // 2
    return np.pad(x, ((left, missing - left), (0, 0)), mode="edge")


def _stack(layer: AffineLayer, x: np.ndarray,
           out: np.ndarray | None = None) -> np.ndarray:
    """The input of a frame layer's product: the rows of x at each of its
    offsets side by side (into out if given), or x itself for a single
    offset."""
    if len(layer.offsets) == 1:
        return x
    lo = min(layer.offsets)
    t_out = len(x) - (max(layer.offsets) - lo)
    return np.concatenate(
        [x[off - lo : off - lo + t_out] for off in layer.offsets],
        axis=1, out=out,
    )


def _frame_layers(net: XVectorNet, x: np.ndarray) -> np.ndarray:
    """Frame-layer ReLU outputs for a whole float64 input x of at least
    min_frames rows, batch norm left to the layer after: output row t
    depends only on input rows t .. t + total_context. Each layer is one
    product with its folded weights, then bias and ReLU in place, two
    passes over its output. This is forward_window's pass; extraction runs
    the same layers over a tape in chunks (_Tape).

    A layer's input is dropped once its stacked copy exists.
    """
    for fold in net.folded_frames:
        stacked = _stack(fold.layer, x)
        del x  # not alive while the layer's product is allocated
        x = stacked @ fold.weights()
        del stacked  # not alive while the next layer stacks its input
        x += fold.bias
        np.maximum(x, 0.0, out=x)
    return x


def _tap(net: XVectorNet, pooled: np.ndarray) -> np.ndarray:
    """Embeddings of the rows of pooled (the stats-pooled ReLU outputs of
    the last frame layer, one row per window): the first segment affine,
    with the last batch norm folded in, as one product."""
    out = pooled @ net.folded_tap.weights()
    out += net.folded_tap.bias
    return out


def _sliced(net: XVectorNet) -> tuple | None:
    """(float64 weights, rows per slice) of each frame layer, then the
    tap's (weights, column spans), for products that stay at or under
    the size up to which OpenBLAS runs a gemm on the calling thread: a
    frame layer's slice, with one row more, and the tap's slice over
    TAP_BATCH rows, with one column more. The column spans are those of
    frontend._spans, so no slice is a single column (a gemv). None, with
    nothing cast, when a frame layer's product of two rows or the tap's
    of two columns is above that size: the standard net's 1,536 x 512
    layer is."""
    size = frontend._SERIAL_GEMM_MNK
    tap = net.folded_tap.layer.weight
    step = [size // f.layer.weight.size - 1 for f in net.folded_frames]
    cols = size // (TAP_BATCH * tap.shape[1]) - 1
    if min(*step, cols) < 1:
        return None
    return (*((f.weights(), n) for f, n in zip(net.folded_frames, step)),
            (net.folded_tap.weights(), frontend._spans(tap.shape[0], cols)))


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
    return _tap(net, pooled[None])[0]


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

    add appends rows, by reference, and window lists a window on the tape
    rows [a, b) whose embedding goes to row k of values, its stream's
    float32 matrix. feed(final) runs every full chunk of BLOCK_FRAMES new
    rows through the frame layers (_chunk), and with final the last short
    one too. After each chunk, the windows whose rows are all fed
    stats-pool their rows of the last frame layer's output into the tap
    batch, and every TAP_BATCH pooled rows take the tap as one product
    (flush); final taps what is left. tapped counts the windows tapped, in
    tape order. The output rows of a window not yet finished are kept as
    the tail. A chunk's arrays come from _empty and its products from
    _product and _embed, the hooks _SplitTape overrides.
    """

    def __init__(self, net: XVectorNet):
        self.net = net
        # the last span input rows of each frame layer, in front of its
        # next chunk's rows; held[k] of carry[k]'s rows are in use
        self.carry = [np.empty((l.span, l.in_dim)) for l in net.frame_layers]
        self.held = [0] * len(net.frame_layers)
        self.parts = deque()  # rows added but not yet fed
        self.queued = 0  # rows in parts
        self.size = 0  # rows added
        self.fed = 0  # rows fed
        self.windows = deque()  # (values, k, a, b), in tape order
        self.listed = 0  # windows listed
        self.tail = None  # output rows [tail_at, fed - context)
        self.tail_at = 0
        self.batch = np.empty((TAP_BATCH, 2 * net.frame_layers[-1].out_dim))
        self.dest = []  # (values, k) of each batch row in use
        self.tapped = 0

    def add(self, rows: np.ndarray) -> None:
        self.parts.append(rows)
        self.queued += len(rows)
        self.size += len(rows)

    def window(self, values: np.ndarray, k: int, a: int, b: int) -> None:
        self.windows.append((values, k, a, b))
        self.listed += 1

    def feed(self, final: bool = False) -> None:
        while self.queued >= BLOCK_FRAMES or (final and self.queued):
            self._chunk(min(self.queued, BLOCK_FRAMES))
        if final:
            self.flush()

    def _take(self, n: int):
        """Yield the next n queued rows as views of the added parts."""
        while n:
            rows = self.parts.popleft()
            if len(rows) > n:
                self.parts.appendleft(rows[n:])
                rows = rows[:n]
            n -= len(rows)
            self.queued -= len(rows)
            self.fed += len(rows)
            yield rows

    def _finished(self):
        """The listed windows whose rows are all fed, popped in order."""
        while self.windows and self.windows[0][3] <= self.fed:
            yield self.windows.popleft()

    def _chunk(self, n: int) -> None:
        """Feed the next n queued rows. The last frame layer's output is
        gone before the finished windows' pooled rows take the tap."""
        done, pooled = self._pool(self._frames(n))
        for (values, k, _, _), row in zip(done, pooled):
            self.batch[len(self.dest)] = row
            self.dest.append((values, k))
            if len(self.dest) == TAP_BATCH:
                self.flush()

    def _frames(self, n: int) -> np.ndarray:
        """The last frame layer's ReLU output for the next n queued rows.
        Layer k's input is _empty(k): its held context, then the rows the
        layer before writes after it (k = len(frame_layers): the output).
        An input is freed once its stacked copy exists."""
        held = [*self.held, 0]  # context rows in front of each array
        x = self._empty(0, (held[0] + n, self.net.input_dim))
        at = held[0]
        for rows in self._take(n):
            x[at : at + len(rows)] = rows
            at += len(rows)
        for k, fold in enumerate(self.net.folded_frames):
            layer = fold.layer
            x[: held[k]] = self.carry[k][: held[k]]
            keep = min(len(x), fold.span)
            self.carry[k][:keep] = x[len(x) - keep :]  # the next context
            self.held[k] = keep
            new = len(x) - keep  # rows of this layer's output
            stacked = x
            if new and len(layer.offsets) > 1:
                stacked = _stack(layer, x, self._empty(
                    "stacked", (new, layer.weight.shape[1])))
            del x
            x = self._empty(k + 1, (held[k + 1] + new, layer.out_dim))
            out = x[held[k + 1] :]
            if new:
                self._product(k, stacked, out)
                out += fold.bias
                np.maximum(out, 0.0, out=out)
            del stacked, out  # not alive while the next layer stacks
        return x

    def _pool(self, y: np.ndarray) -> tuple:
        """The windows that y, the last frame layer's new output rows,
        finishes, popped, and their pooled rows; the output rows from the
        next window's start are kept as the tail."""
        context, width = self.net.total_context, y.shape[1]
        at = self.fed - context - len(y)  # tape row of y's first row
        done = list(self._finished())
        pooled = np.empty((len(done), 2 * width))
        for row, (_, _, a, b) in zip(pooled, done):
            if a >= at:
                rows = y[a - at : b - context - at]
            else:  # a window straddling chunks: the tail, then y
                rows = self._empty("joined", (b - context - a, width))
                rows[: at - a] = self.tail[a - self.tail_at :]
                rows[at - a :] = y[: b - context - at]
            stats_pool(rows, row, self._empty("dev", rows.shape))
        if self.windows:
            a = self.windows[0][2]
            kept = max(at - a, 0)  # rows of the tail before y
            rest = y[max(a - at, 0) :]
            tail = self._empty("tail", (kept + len(rest), width))
            if kept:
                tail[:kept] = self.tail[a - self.tail_at :]
            tail[kept:] = rest
            self.tail, self.tail_at = tail, a
        else:
            self.tail = None
        return done, pooled

    def flush(self) -> None:
        """The tap on the pooled rows of the batch."""
        n = len(self.dest)
        if n:
            out = self._embed(self.batch[:n])
            for (values, k), v in zip(self.dest, out):
                values[k] = v  # cast to the record's float32
            self.dest.clear()
            self.tapped += n

    def _empty(self, key, shape: tuple) -> np.ndarray:
        """A float64 array for the chunk's use named key."""
        return np.empty(shape)

    def _product(self, k: int, stacked: np.ndarray, out: np.ndarray) -> None:
        """out = stacked @ frame layer k's folded weights, one product."""
        np.matmul(stacked, self.net.folded_frames[k].weights(), out=out)

    def _embed(self, pooled: np.ndarray) -> np.ndarray:
        """The tap on pooled, as one product (_tap)."""
        return _tap(self.net, pooled)


class _SplitTape(_Tape):
    """A _Tape for one range of windows of a split stream (_split), with
    every product in slices under OpenBLAS's threading size (sliced, from
    _sliced), and every array of a chunk a view of a buffer made here, on
    the calling thread, each sized for BLOCK_FRAMES new rows or for
    longest, the most rows of any window listed. Arrays that a worker
    thread makes land in its own glibc arena, which keeps their pages:
    with per-chunk arrays, the long-small benchmark peaked at 138.7-141.7
    MB RSS, with these buffers at 134.4-134.6 MB, and on one tape at
    133.7-134.1 MB (seed 13, 10 runs each)."""

    def __init__(self, net: XVectorNet, sliced: tuple, longest: int):
        super().__init__(net)
        *self.frame_sliced, self.tap = sliced
        layers = net.frame_layers
        rows, width = max(longest - net.total_context, 1), layers[-1].out_dim
        sizes = {k: (BLOCK_FRAMES + l.span) * l.in_dim
                 for k, l in enumerate(layers)}
        sizes.update({
            len(layers): BLOCK_FRAMES * width,
            "stacked": BLOCK_FRAMES * max(l.weight.shape[1] for l in layers),
            "tail": rows * width, "joined": rows * width, "dev": rows * width,
            "tap": TAP_BATCH * net.embedding_dim,
        })
        self.buffers = {key: np.empty(size) for key, size in sizes.items()}

    def _empty(self, key, shape: tuple) -> np.ndarray:
        """A view of the front of buffer key."""
        return self.buffers[key][: math.prod(shape)].reshape(shape)

    def _product(self, k: int, stacked: np.ndarray, out: np.ndarray) -> None:
        """_product in the row slices of _sliced."""
        weights, step = self.frame_sliced[k]
        frontend._sliced_matmul(stacked, weights, out, step)

    def _embed(self, pooled: np.ndarray) -> np.ndarray:
        """_tap in the column slices of _sliced."""
        weights, spans = self.tap
        out = self._empty("tap", (len(pooled), weights.shape[1]))
        for c0, c1 in spans:
            np.matmul(pooled, weights[:, c0:c1], out=out[:, c0:c1])
        out += self.net.folded_tap.bias
        return out


def _list(tape: _Tape, rows: np.ndarray, values: np.ndarray,
          windows: list) -> None:
    """List windows, (j, a, b) for row j of values on stream rows [a, b),
    on the tape, and add their rows: each run of overlapping windows as
    one view of rows."""
    run = None  # stream rows [a, b) of the current run of the tape
    for j, a, b in windows:
        if run is None or a > run[1]:  # start a new run of the tape
            if run:
                tape.add(rows[run[0] : run[1]])
            run, base = [a, b], tape.size - a
        run[1] = b
        tape.window(values, j, base + a, base + b)
    if run:
        tape.add(rows[run[0] : run[1]])


def _ranges(windows: list, cpus: int) -> list:
    """windows, (j, a, b) in stream order, cut into contiguous ranges of
    about equal tape rows: as many as cpus, but no more than give each
    about SPLIT_FRAMES rows. A range's rows are those of its windows, so
    the rows that the windows at a cut share go on both tapes."""
    if not windows or windows[-1][2] - windows[0][1] < 2 * SPLIT_FRAMES:
        return [windows]  # fewer tape rows than two ranges need
    ends, end, total = [], windows[0][1], 0  # tape rows to each window's end
    for _, a, b in windows:
        total += b - max(a, end)
        end = b
        ends.append(total)
    parts = min(cpus, total // SPLIT_FRAMES)
    cuts = {bisect_left(ends, total * i / parts) for i in range(1, parts)}
    bounds = sorted({0, *cuts, len(windows)})
    return [windows[i:j] for i, j in zip(bounds, bounds[1:])]


def _split(net: XVectorNet, sliced: tuple, rows: np.ndarray,
           values: np.ndarray, ranges: list) -> None:
    """Embed each range of windows (_ranges) on a tape of its own, all
    writing into values: the first on the calling thread, the rest on
    worker threads of a per-call ThreadPoolExecutor. Every tape and its
    buffers are made here, on the calling thread."""
    tapes = []
    for windows in ranges:
        longest = max(b - a for _, a, b in windows)
        tapes.append(_SplitTape(net, sliced, longest))
        _list(tapes[-1], rows, values, windows)
    with ThreadPoolExecutor(len(tapes) - 1) as pool:
        futures = [pool.submit(t.feed, True) for t in tapes[1:]]
        tapes[0].feed(final=True)
        for future in futures:
            future.result()


def extract_streams(
    net: XVectorNet,
    streams: Iterable[FeatureMatrix],
    keep: Callable[[float, float], bool] | None = None,
) -> Iterator[np.recarray]:
    """Embeddings over the sliding window grid of each stream in turn.

    Reads the FeatureMatrix iterable lazily and yields one np.recarray of
    RECORD per stream, in input order, as soon as its windows are
    embedded; a stream shorter than MIN_WINDOW_S yields an empty one.
    Times are offset by each stream's start_time_s. keep(start_s, end_s),
    given those times, is called once per window in order; a window it
    rejects is left out and its rows need not be computed.

    The kept windows' feature rows, each row once, concatenated in stream
    order, form the tape that _Tape runs through the frame layers. A
    window pools only its own rows; output rows whose receptive field
    straddles two runs of the tape are computed but never read. A stream
    is embedded once the tap batch holding its last window is tapped, so
    the input is read at most about TAP_BATCH windows ahead. Windows
    shorter than the receptive field go through forward_window's padded
    path. A stream whose tape rows would make more than one _ranges range
    goes on one _SplitTape per range (_split), if the net's products can
    be sliced (_sliced), once the streams before it are embedded.
    """
    tape = _Tape(net)
    pending = deque()  # (records, windows listed on the tape when done)
    cpus = frontend._cpus()

    def finished():
        while pending and pending[0][1] <= tape.tapped:
            records = pending.popleft()[0]
            if not np.isfinite(records.values).all():
                raise NonFiniteWeight("x-vector contains non-finite values")
            yield records

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
        # one record array per stream, allocated before the chunks' float64
        # temporaries: a small array per window, allocated among them,
        # fragments the heap (segmenting one 1,200 s recording over and over,
        # peak RSS then grew pass by pass from 134 to 166 MB)
        records = np.recarray(len(kept), RECORD)
        times = t0 + np.reshape([spans[k] for k in kept], (-1, 2))
        records.window_start_s, records.window_end_s = times.T
        values = records.values
        listed = []  # (j, a, b): row j of values, on stream rows [a, b)
        for j, k in enumerate(kept):
            a, b = rows[k]
            if b - a < net.min_frames:
                values[j] = forward_window(net, feats.rows[a:b])
            else:
                listed.append((j, a, b))
        ranges = _ranges(listed, cpus)
        sliced = _sliced(net) if len(ranges) > 1 else None
        if sliced is None:
            _list(tape, feats.rows, values, listed)
        else:  # the streams before go out first, in input order
            tape.feed(final=True)
            yield from finished()
            _split(net, sliced, feats.rows, values, ranges)
        pending.append((records, tape.listed))
        tape.feed()
        yield from finished()
    tape.feed(final=True)
    yield from finished()


def extract_sequence(
    net: XVectorNet,
    feats: FeatureMatrix,
    keep: Callable[[float, float], bool] | None = None,
) -> np.recarray:
    """Embeddings over one stream's sliding window grid: extract_streams
    on a single stream, so empty for a stream shorter than MIN_WINDOW_S."""
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
# Embedding archive: magic "XVEC", u32 count, then count RECORDs: f64
# window_start_s, f64 window_end_s, 512 f32 values.
# -----------------------------------------------------------------------------

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


def save_archive(records: np.ndarray, path: str | Path) -> None:
    """Write a RECORD array as it is."""
    header = ARCHIVE_MAGIC + struct.pack("<I", len(records))
    body = b"".join((header, np.ascontiguousarray(records, RECORD)))
    _write_checked(path, body)  # one copy of the records


def load_archive(path: str | Path) -> list:
    """Read an archive: the rows of a read-only RECORD recarray over the
    one buffer the file is read into, as a list, whose truth value says
    whether there are any. Every value must be finite, and every window
    must end after it starts."""
    body = _read_checked(path, ARCHIVE_MAGIC, "an x-vector archive")
    (count,) = struct.unpack_from("<I", body, 4)
    size = 8 + count * RECORD.itemsize
    if len(body) != size:
        raise CorruptArchive(f"{path}: {len(body)} bytes, expected {size}")
    records = np.frombuffer(body, RECORD, offset=8).view(np.recarray)
    if not np.isfinite(records.values).all():
        raise NonFiniteWeight(f"{path}: x-vector contains non-finite values")
    if not (records.window_end_s > records.window_start_s).all():
        raise InvalidConfig(f"{path}: window must have positive length")
    return list(records)
