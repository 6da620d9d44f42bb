"""TDNN forward pass, extraction protocol, and binary formats."""
import struct
import tracemalloc
import zlib
from contextlib import contextmanager, nullcontext
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from speechseg import cpu, xvector
from speechseg.errors import (
    BadMagic,
    CorruptArchive,
    DimMismatch,
    EmptyInput,
    InvalidConfig,
    NonFiniteWeight,
)
from speechseg.frontend import FeatureMatrix
from speechseg.xvector import (
    BLOCK_FRAMES,
    EMBEDDING_DIM,
    RECORD,
    TAP_BATCH,
    AffineLayer,
    StatsPool,
    XVectorNet,
    extract_sequence,
    extract_streams,
    forward_window,
    load_archive,
    load_weights,
    make_test_net,
    save_archive,
    save_weights,
    stats_pool,
)

from reference import (
    ref_forward_xvector,
    ref_stats_pool,
    ref_window_spans,
    ref_xvec_bytes,
)


def net_to_plain(net):
    """Unpack a net into the plain-array form the reference oracle takes."""
    out = []
    for layer in net.layers:
        if isinstance(layer, StatsPool):
            out.append("pool")
        else:
            out.append(
                dict(
                    kind=layer.kind,
                    offsets=layer.offsets,
                    weight=layer.weight,
                    bias=layer.bias,
                    bn_mean=layer.bn_mean,
                    bn_var=layer.bn_var,
                )
            )
    return out


def tiny_net(seed=0, d_in=6, hidden=8, emb=512,
             offsets=((-1, 0, 1), (-2, 0, 2))):
    """Two frame layers, pool, two segment layers; small enough to read."""
    rng = np.random.default_rng(seed)

    def layer(kind, offsets, d1, d2):
        fan = d1 * len(offsets)
        return AffineLayer(
            kind, offsets, d1, d2,
            weight=rng.standard_normal((d2, fan)).astype(np.float32),
            bias=rng.standard_normal(d2).astype(np.float32),
            bn_mean=rng.standard_normal(d2).astype(np.float32) * 0.1,
            bn_var=rng.uniform(0.5, 1.5, d2).astype(np.float32),
        )

    return XVectorNet(
        (
            layer("frame", offsets[0], d_in, hidden),
            layer("frame", offsets[1], hidden, hidden),
            StatsPool(),
            layer("segment", (0,), 2 * hidden, emb),
            layer("segment", (0,), emb, emb),
        )
    )


# -----------------------------------------------------------------------------
# stats pooling
# -----------------------------------------------------------------------------

class TestStatsPool:
    def test_constant_frames(self):
        v = np.array([3.0, -1.0, 0.5])
        out = stats_pool(np.tile(v, (7, 1)))
        np.testing.assert_array_equal(out, np.concatenate([v, np.zeros(3)]))

    def test_two_frames_one_dim(self):
        np.testing.assert_array_equal(
            stats_pool(np.array([[0.0], [2.0]])), [1.0, 1.0]
        )

    def test_matches_two_pass_oracle(self):
        x = np.random.default_rng(0).standard_normal((100, 1500))
        np.testing.assert_allclose(
            stats_pool(x), ref_stats_pool(x), rtol=1e-6, atol=1e-12
        )

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            stats_pool(np.zeros((0, 4)))

    def test_bits_of_numpy_mean_and_std(self):
        # windows of one block, as extraction pools them, into new arrays
        # and into a split tape's buffers
        y = np.random.default_rng(1).standard_normal((300, 1500)) ** 3
        out, scratch = np.empty(3000), np.empty((300, 1500))
        for a, b in ((0, 136), (75, 211), (150, 300), (299, 300)):
            want = np.concatenate([y[a:b].mean(axis=0), y[a:b].std(axis=0)])
            assert stats_pool(y[a:b]).tobytes() == want.tobytes()
            assert stats_pool(y[a:b], out, scratch) is out
            assert out.tobytes() == want.tobytes()

    @given(t=st.integers(1, 40), d=st.integers(1, 6), seed=st.integers(0, 999))
    @settings(max_examples=40, deadline=None)
    def test_std_nonnegative_zero_iff_constant(self, t, d, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((t, d))
        x[:, 0] = 2.5  # one constant column
        out = stats_pool(x)
        std = out[d:]
        assert (std >= 0).all()
        assert std[0] == 0.0
        for j in range(d):
            assert (std[j] == 0.0) == (x[:, j].max() == x[:, j].min())


# -----------------------------------------------------------------------------
# forward pass
# -----------------------------------------------------------------------------

class TestForward:
    def test_deterministic(self):
        net = tiny_net()
        x = np.random.default_rng(1).standard_normal((40, 6))
        assert np.array_equal(forward_window(net, x), forward_window(net, x))

    def test_matches_reference_oracle(self):
        for seed in range(3):
            net = tiny_net(seed)
            x = np.random.default_rng(100 + seed).standard_normal((40, 6))
            got = forward_window(net, x)
            want = ref_forward_xvector(net_to_plain(net), x)
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-8)

    def test_standard_preset_matches_oracle(self):
        net = make_test_net(seed=7)
        x = np.random.default_rng(7).standard_normal((150, 30))
        got = forward_window(net, x)
        want = ref_forward_xvector(net_to_plain(net), x)
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-8)
        assert got.shape == (512,)

    def test_short_input_padded(self):
        net = tiny_net()
        for t in (1, 2, 6):  # receptive field of tiny_net is 7 frames
            x = np.random.default_rng(t).standard_normal((t, 6))
            got = forward_window(net, x)
            want = ref_forward_xvector(net_to_plain(net), x)
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-8)

    def test_folded_batch_norm_near_zero_variance(self):
        # batch norm is folded into the next layer's weights and bias. A
        # variance near 0 divides those columns by about sqrt(BN_EPSILON)
        # and a large mean puts a large shift into the bias, which must
        # cancel against the scaled product as the unfolded oracle's
        # (r - mean) / std does, in the windowed and the streamed pass
        rng = np.random.default_rng(11)
        layers = []
        for layer in tiny_net(seed=5, d_in=30).layers:
            if isinstance(layer, AffineLayer) and layer.kind == "frame":
                d = layer.out_dim
                layer = replace(
                    layer,
                    bn_mean=rng.uniform(50.0, 200.0, d).astype(np.float32),
                    bn_var=np.where(np.arange(d) % 2, 1e-9, 1e-3)
                    .astype(np.float32),
                )
            layers.append(layer)
        net = XVectorNet(tuple(layers))
        plain = net_to_plain(net)
        feats = feats_of(3.0)
        for v in extract_sequence(net, feats):
            a, b = window_rows(feats, v)
            want = ref_forward_xvector(plain, feats.rows[a:b])
            np.testing.assert_allclose(
                forward_window(net, feats.rows[a:b]), want,
                rtol=1e-5, atol=1e-8,
            )
            np.testing.assert_allclose(v.values, want, rtol=1e-5, atol=1e-8)
        assert np.abs(want).max() > 1e4  # the scale reached the embedding

    def test_empty_and_mismatched_input(self):
        net = tiny_net()
        with pytest.raises(EmptyInput):
            forward_window(net, np.zeros((0, 6)))
        with pytest.raises(DimMismatch):
            forward_window(net, np.zeros((20, 5)))

    def test_receptive_field(self):
        assert make_test_net().min_frames == 15  # 7 frames context per side
        assert tiny_net().min_frames == 7


class TestNetValidation:
    def test_broken_chain_rejected(self):
        net = tiny_net()
        bad = list(net.layers)
        bad[1] = tiny_net(d_in=6, hidden=9).layers[1]  # in_dim 9 != 8
        with pytest.raises(DimMismatch):
            XVectorNet(tuple(bad))

    def test_nan_weight_rejected(self):
        net = tiny_net()
        layer = net.layers[0]
        w = layer.weight.copy()
        w[0, 0] = np.nan
        bad = AffineLayer(
            layer.kind, layer.offsets, layer.in_dim, layer.out_dim,
            w, layer.bias, layer.bn_mean, layer.bn_var,
        )
        with pytest.raises(NonFiniteWeight):
            XVectorNet((bad,) + net.layers[1:])

    def test_pool_required(self):
        net = tiny_net()
        no_pool = tuple(l for l in net.layers if not isinstance(l, StatsPool))
        with pytest.raises(DimMismatch):
            XVectorNet(no_pool)

    def test_frame_layer_without_offsets_rejected(self):
        # a (d_out, 0) weight matches no offsets; the layer's span would
        # be max(()) when the net folds its batch norm
        net = tiny_net()
        layer = net.layers[1]
        bad = replace(layer, offsets=(), weight=layer.weight[:, :0])
        with pytest.raises(DimMismatch, match="no context offset"):
            XVectorNet((net.layers[0], bad) + net.layers[2:])

    def test_embedding_other_than_512_rejected(self):
        # RECORD holds EMBEDDING_DIM values, so a 16-wide embedding could
        # not be extracted
        with pytest.raises(DimMismatch, match="16 wide.* 512 wide"):
            tiny_net(emb=16)


def traced(fn, *args):
    """fn(*args) with the bytes it left allocated and its peak, by
    tracemalloc."""
    tracemalloc.start()
    try:
        out = fn(*args)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, kept, peak


# -----------------------------------------------------------------------------
# weight file
# -----------------------------------------------------------------------------

class TestWeightsFormat:
    def test_standard_net_shape(self, tmp_path):
        path = tmp_path / "m.xvnw"
        save_weights(make_test_net(seed=3), path)
        assert path.read_bytes()[:4] == b"XVNW"
        net = load_weights(path)
        assert net.input_dim == 30
        assert net.embedding_dim == 512
        assert len(net.frame_layers) == 5

    def test_roundtrip_forward_bit_identical(self, tmp_path):
        path = tmp_path / "m.xvnw"
        net = make_test_net(seed=4, preset="small")
        save_weights(net, path)
        back = load_weights(path)
        x = np.random.default_rng(4).standard_normal((60, 30))
        assert np.array_equal(forward_window(net, x), forward_window(back, x))

    def test_load_holds_the_file_once(self, tmp_path):
        # the arrays are read-only views of the bytes read, not copies
        path = tmp_path / "m.xvnw"
        save_weights(make_test_net(seed=3), path)
        _, _, peak = traced(load_weights, path)
        assert peak < 1.25 * path.stat().st_size

    def test_nan_in_file_rejected(self, tmp_path):
        path = tmp_path / "m.xvnw"
        save_weights(tiny_net(), path)
        raw = bytearray(path.read_bytes())
        # first frame-layer weight starts after the 8-byte header plus the
        # record prefix: type u8, count u8, 3 i16 offsets, two u32 dims
        off = 8 + 1 + 1 + 6 + 8
        raw[off : off + 4] = struct.pack("<f", np.nan)
        body = bytes(raw[:-4])
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(NonFiniteWeight):
            load_weights(path)

    def test_corrupted_crc(self, tmp_path):
        path = tmp_path / "m.xvnw"
        save_weights(tiny_net(), path)
        raw = bytearray(path.read_bytes())
        raw[20] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptArchive):
            load_weights(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.xvnw"
        path.write_bytes(b"WXYZ" + b"\x00" * 20)
        with pytest.raises(BadMagic):
            load_weights(path)

    def test_dim_mismatch_in_file(self, tmp_path):
        path = tmp_path / "m.xvnw"
        net = tiny_net()
        save_weights(net, path)
        raw = bytearray(path.read_bytes())
        # patch the declared input dim of the first layer (u32 after
        # type, offset count, and 3 i16 offsets)
        struct.pack_into("<I", raw, 8 + 1 + 1 + 6, 7)
        body = bytes(raw[:-4])
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises((DimMismatch, CorruptArchive)):
            load_weights(path)


@pytest.mark.parametrize("load,magic", [
    (load_weights, b"XVNW"), (load_archive, b"XVEC"),
])
def test_checked_file_shorter_than_its_header(tmp_path, load, magic):
    # the magic and a valid CRC32, but not the 4-byte header after it
    path = tmp_path / "short"
    for body in (magic, magic + b"\0\0\0"):
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(BadMagic, match="short: not a"):
            load(path)


# -----------------------------------------------------------------------------
# extraction protocol
# -----------------------------------------------------------------------------

def feats_of(duration_s, shift=0.01, dim=30, seed=0):
    t = round(duration_s / shift)
    rows = np.random.default_rng(seed).standard_normal((t, dim))
    return FeatureMatrix(rows, shift)


@contextmanager
def grid(window_s, stride_s, min_window_s):
    """Extraction on another window grid than xvector's fixed one."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(xvector, "WINDOW_S", window_s)
        mp.setattr(xvector, "STRIDE_S", stride_s)
        mp.setattr(xvector, "MIN_WINDOW_S", min_window_s)
        yield


def window_rows(feats, vec):
    """Feature rows [a, b) that extract_sequence gives one window."""
    a = round(vec.window_start_s / feats.frame_shift_s)
    b = round(vec.window_end_s / feats.frame_shift_s)
    return a, min(b, feats.num_frames)


class TestExtraction:
    def test_three_second_stream(self):
        vecs = extract_sequence(make_test_net(preset="small"), feats_of(3.0))
        spans = [(v.window_start_s, v.window_end_s) for v in vecs]
        assert spans == [(0.0, 1.5), (0.75, 2.25), (1.5, 3.0)]

    def test_exactly_one_window(self):
        vecs = extract_sequence(make_test_net(preset="small"), feats_of(1.5))
        assert [(v.window_start_s, v.window_end_s) for v in vecs] == [(0.0, 1.5)]

    def test_clamped_tail(self):
        vecs = extract_sequence(make_test_net(preset="small"), feats_of(3.2))
        spans = [(v.window_start_s, v.window_end_s) for v in vecs]
        assert spans[:3] == [(0.0, 1.5), (0.75, 2.25), (1.5, 3.0)]
        assert spans[3] == (2.25, pytest.approx(3.2))
        assert spans[3][1] - spans[3][0] == pytest.approx(0.95)

    def test_too_short(self):
        got = extract_sequence(make_test_net(preset="small"), feats_of(0.4))
        assert isinstance(got, np.recarray) and got.dtype == RECORD
        assert len(got) == 0

    def test_non_finite_embedding_rejected(self):
        feats = feats_of(3.0)
        feats.rows[100, 3] = np.inf
        with np.errstate(all="ignore"), pytest.raises(NonFiniteWeight):
            extract_sequence(make_test_net(preset="small"), feats)

    def test_values_match_forward_of_slice(self):
        # 2 s: one block; 20.3 s: three blocks, windows straddling block
        # boundaries and a clamped tail; 0.1 s windows are shorter than the
        # receptive field, so each takes the padded path. The standard net's
        # wide layers are where BLAS could pick another kernel by shape
        small = make_test_net(preset="small")
        standard = make_test_net(preset="standard")
        for net, duration, short in ((small, 2.0, False),
                                     (small, 20.3, False),
                                     (small, 3.0, True),
                                     (standard, 20.3, False)):
            feats = feats_of(duration)
            with grid(0.1, 0.05, 0.05) if short else nullcontext():
                vecs = extract_sequence(net, feats)
            rows = [window_rows(feats, v) for v in vecs]
            for v, (a, b) in zip(vecs, rows):
                want = forward_window(net, feats.rows[a:b]).astype(np.float32)
                assert v.values.tobytes() == want.tobytes()

            straddling = next(
                (k for k, (_, b) in enumerate(rows) if b > BLOCK_FRAMES), 0
            )
            for k in sorted({0, straddling, len(vecs) - 1}):
                a, b = rows[k]
                want = ref_forward_xvector(net_to_plain(net), feats.rows[a:b])
                np.testing.assert_allclose(
                    vecs[k].values, want, rtol=1e-5, atol=1e-8
                )

    def test_blocks_bound_the_frame_layer_input(self, monkeypatch):
        # peak memory stays flat only while no frame-layer pass takes more
        # than BLOCK_FRAMES new rows plus each layer's carried context,
        # however long the stream; and every row goes through once
        passes = []
        chunk = xvector._Tape._chunk

        def record(tape, n):
            passes.append(n)
            assert all(h <= l.span
                       for h, l in zip(tape.held, tape.net.frame_layers))
            chunk(tape, n)

        monkeypatch.setattr(xvector._Tape, "_chunk", record)
        feats = feats_of(20.3)
        vecs = extract_sequence(make_test_net(preset="small"), feats)
        rows = [window_rows(feats, v) for v in vecs]
        assert feats.num_frames > 2 * BLOCK_FRAMES
        assert rows[-1] == (1950, 2030)  # clamped tail
        assert any(a < BLOCK_FRAMES < b for a, b in rows)
        assert passes == [BLOCK_FRAMES] * 4 + [2030 - 4 * BLOCK_FRAMES]

    def test_peak_memory_is_one_block(self):
        # the larger of two working sets: the widest frame layer on a
        # chunk of BLOCK_FRAMES rows and its carried context (stacked
        # input, output, float64 weights), or the tap on a full batch
        # (float64 weights and output). Alive through both: the last
        # layer's output rows of one window kept for the next chunk, and
        # the tap batch of pooled rows. Besides the embeddings it
        # returns, nothing grows with the stream
        net = make_test_net(seed=3)
        tap = net.segment_layers[0]
        frame_layers = 8 * max(
            (BLOCK_FRAMES + l.span) * (l.weight.shape[1] + l.out_dim)
            + l.weight.size
            for l in net.frame_layers
        )
        tap_product = 8 * (tap.weight.size + TAP_BATCH * tap.out_dim)
        block = max(frame_layers, tap_product)
        block += 8 * 150 * net.frame_layers[-1].out_dim
        block += 8 * TAP_BATCH * tap.in_dim
        above_output = []
        for seconds in (60.0, 300.0):
            _, kept, peak = traced(extract_sequence, net, feats_of(seconds))
            above_output.append(peak - kept)
        assert max(above_output) < block + 2**20
        assert abs(above_output[1] - above_output[0]) < 2**18

    @given(
        duration=st.floats(0.5, 40.0),
        window=st.sampled_from([0.1, 1.0, 1.5, 2.0]),
        stride=st.sampled_from([0.05, 0.25, 0.5, 0.75, 1.0]),
    )
    @example(duration=3.03, window=0.1, stride=0.05)  # a 0.08 s tail
    @settings(max_examples=25, deadline=None)
    def test_matches_hand_enumeration(self, duration, window, stride):
        if stride > window:
            return
        feats = feats_of(round(duration, 2))
        min_window = min(0.5, window / 2)
        net = make_test_net(preset="small")
        with grid(window, stride, min_window):
            vecs = extract_sequence(net, feats)
        got = [(v.window_start_s, v.window_end_s) for v in vecs]
        want = ref_window_spans(feats.span_s, window, stride, min_window)
        assert got == pytest.approx(want)
        starts = [s for s, _ in got]
        for a, b in zip(starts, starts[1:]):
            assert b - a == pytest.approx(stride)
        for v in vecs:
            a, b = window_rows(feats, v)
            want = forward_window(net, feats.rows[a:b]).astype(np.float32)
            assert v.values.tobytes() == want.tobytes()

    def test_wide_receptive_field_pads_short_windows(self, tmp_path,
                                                     monkeypatch):
        # a window shorter than the receptive field takes the padded path.
        # The shortest window on the grid is MIN_WINDOW_S (50 rows), so
        # only a weight file whose net sees more than 50 rows gets there:
        # this one sees 121, so the 150-row windows run in a block and the
        # 80-row clamped tail is padded
        path = tmp_path / "wide.xvnw"
        save_weights(tiny_net(d_in=30, offsets=((-30, 0, 30),) * 2), path)
        net = load_weights(path)
        assert net.min_frames == 121
        padded = []

        def record(net, frames):
            padded.append(len(frames))
            return forward_window(net, frames)

        monkeypatch.setattr(xvector, "forward_window", record)
        feats = feats_of(3.8)
        vecs = extract_sequence(net, feats)
        rows = [window_rows(feats, v) for v in vecs]
        assert [b - a for a, b in rows] == [150, 150, 150, 150, 80]
        assert padded == [80]
        for v, (a, b) in zip(vecs, rows):
            want = forward_window(net, feats.rows[a:b]).astype(np.float32)
            assert v.values.tobytes() == want.tobytes()
            want = ref_forward_xvector(net_to_plain(net), feats.rows[a:b])
            np.testing.assert_allclose(v.values, want, rtol=1e-5, atol=1e-8)


def assert_matches_forward(net, feats, vecs):
    """Each embedding equals forward_window on its own rows, bit for bit."""
    for v in vecs:
        a, b = window_rows(feats, v)
        want = forward_window(net, feats.rows[a:b]).astype(np.float32)
        assert v.values.tobytes() == want.tobytes()


@pytest.fixture
def passes(monkeypatch):
    """New rows of each chunk fed through the frame layers."""
    fed = []
    chunk = xvector._Tape._chunk

    def record(tape, n):
        fed.append(n)
        chunk(tape, n)

    monkeypatch.setattr(xvector._Tape, "_chunk", record)
    return fed


class TestCarry:
    """Chunk edges of the one frame-layer pass over the tape."""

    @pytest.mark.parametrize("preset", ["small", "standard"])
    def test_final_chunk_shorter_than_widest_span(self, passes, preset):
        net = make_test_net(seed=3, preset=preset)
        widest = max(l.span for l in net.frame_layers)
        rng = np.random.default_rng(5)
        feats = FeatureMatrix(
            rng.standard_normal((BLOCK_FRAMES + widest - 1, 30)), 0.01
        )
        vecs = extract_sequence(net, feats)
        assert passes == [BLOCK_FRAMES, widest - 1]
        assert window_rows(feats, vecs[-1])[1] == feats.num_frames
        assert_matches_forward(net, feats, vecs)

    def test_streams_packed_across_chunk_boundary(self, passes):
        net = make_test_net(preset="small")
        rng = np.random.default_rng(6)
        streams = [
            FeatureMatrix(rng.standard_normal((t, 30)), 0.01,
                          start_time_s=s)
            for t, s in ((120, 0.0), (230, 4.0), (180, 9.0), (90, 20.0))
        ]
        got = list(extract_streams(net, streams))
        # the third stream's rows are tape rows [350, 530)
        assert passes == [BLOCK_FRAMES, 620 - BLOCK_FRAMES]
        for feats, vecs in zip(streams, got):
            shifted = vecs.copy()
            shifted.window_start_s -= feats.start_time_s
            shifted.window_end_s -= feats.start_time_s
            assert_matches_forward(net, feats, shifted)
        assert_same_vectors(got, per_stream(net, streams))

    def test_standard_net_window_straddles_chunks(self):
        net = make_test_net(seed=3)
        feats = feats_of(7.0)
        vecs = extract_sequence(net, feats)
        # the last frame layer's first chunk ends at output row 486
        first = BLOCK_FRAMES - net.total_context
        rows = [window_rows(feats, v) for v in vecs]
        assert sum(a < first < b - net.total_context for a, b in rows) == 2
        assert_matches_forward(net, feats, vecs)

    def test_keep_leaves_out_rejected_windows_and_their_rows(self, passes):
        net = make_test_net(preset="small")
        feats = feats_of(12.0)
        every = extract_sequence(net, feats)
        del passes[:]
        asked = []

        def keep(start_s, end_s):
            asked.append((start_s, end_s))
            return not 2.0 < start_s < 8.0

        vecs = extract_sequence(net, feats, keep)
        assert asked == [(v.window_start_s, v.window_end_s) for v in every]
        want = [v for v in every if keep(v.window_start_s, v.window_end_s)]
        assert_same_vectors([vecs], [want])
        # windows starting at 0 to 1.5 s and 8.25 to 10.5 s: feature rows
        # [0, 300) and [825, 1200), each fed once
        assert sum(passes) == 300 + 375


@contextmanager
def block_frames(rows):
    """Extraction in chunks of rows new tape rows, not BLOCK_FRAMES."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(xvector, "BLOCK_FRAMES", rows)
        yield


class TestChunkSize:
    """Any chunk size gives the same records. With chunks shorter than a
    window, each window straddles many chunks, and the last frame layer's
    output carries its rows from one chunk to the next."""

    @given(
        rows=st.integers(2, 160),
        frames=st.lists(st.integers(30, 400), min_size=1, max_size=4),
        seed=st.integers(0, 2**16),
    )
    @example(rows=2, frames=[330], seed=0)
    @example(rows=3, frames=[151, 40, 149], seed=1)
    @example(rows=5, frames=[60, 330], seed=2)  # a longer window comes later
    @settings(max_examples=30, deadline=None)
    def test_small_net(self, rows, frames, seed):
        # records byte for byte those of the default chunks and of
        # forward_window, both taken before the chunk size changes
        net = make_test_net(preset="small")
        rng = np.random.default_rng(seed)
        streams = [FeatureMatrix(rng.standard_normal((t, 30)), 0.01)
                   for t in frames]
        want = list(extract_streams(net, streams))
        for feats, vecs in zip(streams, want):
            assert_matches_forward(net, feats, vecs)
        with block_frames(rows):
            got = list(extract_streams(net, streams))
        assert_same_vectors(got, want)

    def test_standard_net(self):
        # 7-row chunks over 3.2 s: three 1.5 s windows and a clamped tail
        # of 0.95 s, each over more than a dozen chunks
        net = make_test_net(seed=3)
        feats = feats_of(3.2, seed=4)
        want = extract_sequence(net, feats)
        with block_frames(7):
            got = extract_sequence(net, feats)
        assert_same_vectors([got], [want])
        assert_matches_forward(net, feats, got)
        for v in got:
            a, b = window_rows(feats, v)
            ref = ref_forward_xvector(net_to_plain(net), feats.rows[a:b])
            np.testing.assert_allclose(v.values, ref, rtol=1e-5, atol=1e-8)


class TestTapBatch:
    """Windows take the tap in batches of TAP_BATCH."""

    def test_standard_net_stream_over_three_batches(self, passes,
                                                     monkeypatch):
        # 0.3 s windows every 0.2 s keep the oracle cheap: 83 windows on
        # 16.52 s, of which keep rejects 11 in the middle, so the 72 kept
        # ones fill two batches and start a third. Windows straddle the
        # chunks, the rejected ones cut the tape in two runs, and the
        # clamped tail of 0.12 s takes the padded path. Every float32
        # record is forward_window's, and within the oracle's tolerance
        net = make_test_net(seed=3)
        plain = net_to_plain(net)
        feats = feats_of(16.52, seed=8)

        def keep(start_s, end_s):
            return not 8.0 <= start_s < 10.2

        padded = []

        def record(net, frames):
            padded.append((len(frames), len(passes)))  # chunks before it
            return forward_window(net, frames)

        monkeypatch.setattr(xvector, "forward_window", record)
        with grid(0.3, 0.2, 0.1):
            vecs = extract_sequence(net, feats, keep)
        rows = [window_rows(feats, v) for v in vecs]
        assert 3 * TAP_BATCH > len(vecs) == 72 > 2 * TAP_BATCH
        assert rows[-1][1] - rows[-1][0] < net.min_frames  # padded tail
        # the padded tail alone, on a tape of its own min_frames rows, then
        # the tape: stream rows [0, 810) and [1020, 1650), so the rejected
        # windows' own rows are never fed
        assert padded == [(rows[-1][1] - rows[-1][0], 0)]
        assert passes == [net.min_frames, 500, 500, 810 + 1650 - 1020 - 1000]
        context = net.total_context
        ends = np.cumsum(passes[1:]) - context  # output rows after each chunk
        assert any(
            a < e < b - context for e in ends for a, b in rows if b <= 810
        )
        assert_matches_forward(net, feats, vecs)
        for v, (a, b) in zip(vecs, rows):
            want = ref_forward_xvector(plain, feats.rows[a:b])
            np.testing.assert_allclose(v.values, want, rtol=1e-5, atol=1e-8)


def per_stream(net, streams):
    """extract_sequence on each stream alone."""
    return [extract_sequence(net, feats) for feats in streams]


def assert_same_vectors(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert [(v.window_start_s, v.window_end_s) for v in g] == [
            (v.window_start_s, v.window_end_s) for v in w
        ]
        assert [v.values.tobytes() for v in g] == [v.values.tobytes() for v in w]


class TestStreams:
    @given(
        frames=st.lists(st.integers(30, 3100), min_size=1, max_size=12),
        seed=st.integers(0, 2**16),
        short_windows=st.booleans(),
    )
    @example(frames=[40, 150, BLOCK_FRAMES + 700, 49, 150], seed=1,
             short_windows=False)
    @example(frames=[150] * (BLOCK_FRAMES // 150 + 1) + [30], seed=2,
             short_windows=False)
    @settings(max_examples=40, deadline=None)
    def test_packed_matches_per_stream(self, frames, seed, short_windows):
        # streams below MIN_WINDOW_S (50 rows), streams sharing a block,
        # and streams longer than one block, in any order. Short windows
        # are 30 rows, with clamped tails of 10 to 29 rows: those shorter
        # than the nets' 15-frame receptive field take the padded path
        net = make_test_net(preset="small")
        rng = np.random.default_rng(seed)
        streams = [
            FeatureMatrix(rng.standard_normal((t, 30)), 0.01,
                          start_time_s=0.01 * int(rng.integers(0, 10**5)))
            for t in frames
        ]
        with grid(0.3, 0.15, 0.1) if short_windows else nullcontext():
            got = list(extract_streams(net, streams))
            assert_same_vectors(got, per_stream(net, streams))

    def test_standard_net_packed_matches_per_stream(self):
        net = make_test_net(seed=3)
        rng = np.random.default_rng(4)
        streams = [
            FeatureMatrix(rng.standard_normal((t, 30)), 0.01, start_time_s=s)
            for t, s in ((150, 0.0), (49, 2.0), (420, 3.5), (3100, 9.0),
                         (60, 45.0), (150, 47.0), (1337, 50.0))
        ]
        got = list(extract_streams(net, streams))
        assert [len(g) for g in got] == [1, 0, 5, 41, 1, 1, 17]
        assert_same_vectors(got, per_stream(net, streams))

    def test_short_streams_share_blocks(self, passes):
        # clips of 150 rows, a 1,600-row stream and another clip: one tape
        # of 3,550 rows, cut into chunks wherever BLOCK_FRAMES falls, so
        # chunks hold several clips and clips straddle chunks
        streams = [feats_of(1.5, seed=k) for k in range(12)]
        streams += [feats_of(16.0, seed=12), feats_of(1.5, seed=13)]
        got = list(extract_streams(make_test_net(preset="small"), streams))
        assert [len(g) for g in got] == [1] * 12 + [21, 1]
        assert BLOCK_FRAMES == 500
        assert passes == [500] * 7 + [50]

    def test_reads_lazily(self):
        # the first result is out once the tap batch that holds its window
        # is full: the 1.5 s clips are one 150-row window each, so that
        # is the chunk that finishes the TAP_BATCH-th clip, long before
        # the input ends
        pulled = []

        def streams():
            for k in range(100):
                pulled.append(k)
                yield feats_of(1.5, seed=k)

        out = extract_streams(make_test_net(preset="small"), streams())
        first = next(out)
        chunks = -(-TAP_BATCH * 150 // BLOCK_FRAMES)
        assert len(pulled) == chunks * BLOCK_FRAMES // 150 + 1 < 100
        assert len(first) == 1

    def test_split_stream_matches_one_tape(self, monkeypatch):
        # on the 0.3 s / 0.2 s grid, a 16.52 s stream starting at 10 s,
        # between a 1.5 s stream and a 0.12 s one before it and a 2 s one
        # and one too short for a window after. keep rejects the windows
        # starting at 17.6 to 18.4 s, so the split stream's tape is rows
        # [0, 770) and [860, 1650): two tapes cut where the rejected
        # windows are, three tapes inside the runs. The 0.12 s stream's
        # window and the split stream's clamped tail of 0.12 s take the
        # padded path. Records are byte for byte those of one tape. Tapes
        # of BLOCK_FRAMES rows, not SPLIT_FRAMES, keep the streams short
        monkeypatch.setattr(xvector, "SPLIT_FRAMES", BLOCK_FRAMES)
        net = make_test_net(preset="small")
        rng = np.random.default_rng(9)
        streams = [
            FeatureMatrix(rng.standard_normal((t, 30)), 0.01, start_time_s=s)
            for t, s in ((150, 0.0), (12, 2.0), (1652, 10.0), (200, 30.0),
                         (5, 33.0))
        ]

        def keep(start_s, end_s):
            return not 17.6 <= start_s < 18.5

        split, ranges = xvector._split, []

        def record(net, sliced, rows, values, cut):
            ranges.append([(w[0][1], w[-1][2]) for w in cut])
            split(net, sliced, rows, values, cut)

        monkeypatch.setattr(xvector, "_split", record)
        got = {}
        with grid(0.3, 0.2, 0.1):
            for cpus in (1, 2, 3):
                monkeypatch.setattr(cpu, "count", lambda: cpus)
                got[cpus] = list(extract_streams(net, streams, keep))
        assert ranges == [[(0, 770), (860, 1650)],
                          [(0, 510), (500, 1110), (1100, 1650)]]
        assert [len(g) for g in got[1]] == [7, 1, 78, 10, 0]
        for cpus in (2, 3):
            assert_same_vectors(got[cpus], got[1])
        for feats, vecs in zip(streams, got[2]):
            assert (vecs.window_start_s >= feats.start_time_s).all()
            shifted = vecs.copy()
            shifted.window_start_s -= feats.start_time_s
            shifted.window_end_s -= feats.start_time_s
            assert_matches_forward(net, feats, shifted)

    def test_split_stream_within_one_ulp_of_one_tape(self, monkeypatch):
        # a split tape slices the products that one tape runs whole, and
        # the slices can move a float64 value's last bits: with OpenBLAS
        # 0.3.31, window 142 (21.3 s) of this 2,922-row stream on the
        # 0.3 s / 0.15 s grid differs from one tape's in one float32
        # value, by one ulp, on two tapes and on three. So the records of
        # a split stream depend on the CPU count, within one ulp
        monkeypatch.setattr(xvector, "SPLIT_FRAMES", BLOCK_FRAMES)
        net = make_test_net(preset="small")
        rng = np.random.default_rng(51)
        n = rng.integers(1000, 6000)
        rng.integers(0, 2)
        streams = [FeatureMatrix(rng.standard_normal((n, 30)), 0.01)]
        got = {}
        with grid(0.3, 0.15, 0.1):
            for cpus in (1, 2, 3):
                monkeypatch.setattr(cpu, "count", lambda: cpus)
                (got[cpus],) = extract_streams(net, streams)
        for cpus in (2, 3):
            np.testing.assert_array_equal(got[cpus].window_start_s,
                                          got[1].window_start_s)
            np.testing.assert_array_max_ulp(got[cpus].values, got[1].values,
                                            maxulp=1)

    def test_split_windows_longer_than_a_chunk(self, monkeypatch):
        # 12 s windows every 5 s hold 1,200 rows, so a split tape keeps a
        # window's rows across more than two chunks
        monkeypatch.setattr(xvector, "SPLIT_FRAMES", BLOCK_FRAMES)
        net = make_test_net(preset="small")
        streams = [feats_of(61.23, seed=3)]
        got = {}
        with grid(12.0, 5.0, 1.0):
            for cpus in (1, 2):
                monkeypatch.setattr(cpu, "count", lambda: cpus)
                got[cpus] = list(extract_streams(net, streams))
        assert len(got[1][0]) == 11
        assert_same_vectors(got[2], got[1])

    def test_split_tapes_chunk_in_their_buffers(self, monkeypatch):
        # every array a split tape's chunk takes is a view of a buffer its
        # __init__ made on the calling thread: an array a worker thread
        # made would land in that thread's glibc arena, which keeps its
        # pages. 25 s of 1.5 s windows on two tapes of 1,250 rows, so
        # windows straddle chunks, and the records are one tape's
        monkeypatch.setattr(xvector, "SPLIT_FRAMES", BLOCK_FRAMES)
        net = make_test_net(preset="small")
        empty, keys = xvector._SplitTape._empty, set()

        def record(tape, key, shape):
            out = empty(tape, key, shape)
            assert out.base is tape.buffers[key]
            assert out.size <= tape.buffers[key].size
            keys.add(key)
            return out

        monkeypatch.setattr(xvector._SplitTape, "_empty", record)
        streams = [feats_of(25.0, seed=5)]
        got = {}
        for cpus in (1, 2):
            monkeypatch.setattr(cpu, "count", lambda: cpus)
            got[cpus] = list(extract_streams(net, streams))
        assert keys == {*range(len(net.frame_layers) + 1), "stacked",
                        "tail", "dev", "tap"}
        assert_same_vectors(got[2], got[1])

    def test_split_tap_has_no_single_column(self, monkeypatch):
        # a last frame layer 56 wide gives the tap 112 inputs, so slices
        # of 73 columns would leave one of 512 over: a gemv. The spans of
        # cpu.spans never do, and the split records are one tape's
        monkeypatch.setattr(xvector, "SPLIT_FRAMES", BLOCK_FRAMES)
        monkeypatch.setitem(xvector._PRESETS, "narrow", (48, 48, 48, 48, 56))
        net = make_test_net(preset="narrow")
        *_, (weights, spans) = xvector._sliced(net)
        assert spans[0][0] == 0 and spans[-1][1] == weights.shape[1]
        assert all(b - a > 1 for a, b in spans)
        assert max(b - a for a, b in spans) * TAP_BATCH * 112 <= (
            cpu.SERIAL_GEMM_MNK
        )
        streams = [feats_of(25.0, seed=5)]
        got = {}
        for cpus in (1, 2):
            monkeypatch.setattr(cpu, "count", lambda: cpus)
            got[cpus] = list(extract_streams(net, streams))
        assert_same_vectors(got[2], got[1])

    @pytest.mark.parametrize("rows, parts", [
        (2 * xvector.SPLIT_FRAMES - 1, 1), (2 * xvector.SPLIT_FRAMES, 2),
        (3 * xvector.SPLIT_FRAMES - 1, 2),
    ])
    def test_streams_split_from_two_split_frames(self, rows, parts):
        # 150-row windows every 75 rows, the last one clamped to the end
        windows = [(j, a, min(a + 150, rows))
                   for j, a in enumerate(range(0, rows - 75, 75))]
        assert windows[-1][2] == rows
        assert len(xvector._ranges(windows, 3)) == parts

    def test_dim_mismatch(self):
        streams = [feats_of(1.5), feats_of(1.5, dim=20)]
        with pytest.raises(DimMismatch):
            list(extract_streams(make_test_net(preset="small"), streams))


# -----------------------------------------------------------------------------
# archive
# -----------------------------------------------------------------------------

def records(spans, rows):
    """A RECORD recarray of (start_s, end_s) spans and their value rows."""
    out = np.recarray(len(spans), RECORD)
    out.window_start_s, out.window_end_s = np.reshape(spans, (-1, 2)).T
    out.values = np.reshape(rows, (-1, EMBEDDING_DIM))
    return out


class TestArchive:
    def test_empty(self, tmp_path):
        path = tmp_path / "e.xvec"
        save_archive(records([], []), path)
        assert load_archive(path) == []
        assert len(path.read_bytes()) == 12  # magic, count, crc

    def test_single_zero_vector(self, tmp_path):
        path = tmp_path / "z.xvec"
        save_archive(records([(0.0, 1.5)], np.zeros(512)), path)
        (back,) = load_archive(path)
        assert np.array_equal(back.values, np.zeros(512))
        assert (back.window_start_s, back.window_end_s) == (0.0, 1.5)

    def test_bulk_roundtrip_and_size(self, tmp_path):
        rng = np.random.default_rng(9)
        vecs = records(
            [(0.75 * i, 0.75 * i + 1.5) for i in range(10_000)],
            rng.standard_normal((10_000, 512)),
        )
        path = tmp_path / "big.xvec"
        save_archive(vecs, path)
        assert path.stat().st_size == 8 + 10_000 * (16 + 512 * 4) + 4
        back = load_archive(path)
        assert len(back) == 10_000
        for a, b in zip(vecs[::997], back[::997]):
            assert np.array_equal(a.values, b.values)
            assert a.window_start_s == b.window_start_s
            assert a.window_end_s == b.window_end_s

    @pytest.mark.parametrize("n", [0, 1, 10_000])
    def test_bytes_match_per_record_packer(self, tmp_path, n):
        rng = np.random.default_rng(n)
        spans = [(0.1 * i, 0.1 * i + 1.5) for i in range(n)]
        rows = rng.standard_normal((n, 512)).astype(np.float32)
        path = tmp_path / "a.xvec"
        save_archive(records(spans, rows), path)
        assert path.read_bytes() == ref_xvec_bytes(spans, rows.tolist())
        back = load_archive(path)
        assert [(v.window_start_s, v.window_end_s) for v in back] == spans
        assert all(isinstance(v.window_start_s, float) for v in back)
        assert np.array_equal(
            np.reshape([v.values for v in back], (n, 512)), rows
        )
        assert not any(v.values.flags.writeable for v in back)

    def test_corruption_detected(self, tmp_path):
        path = tmp_path / "c.xvec"
        save_archive(records([(0.0, 1.5)], np.ones(512)), path)
        raw = bytearray(path.read_bytes())
        raw[30] ^= 1
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptArchive):
            load_archive(path)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "t.xvec"
        save_archive(records([(0.0, 1.5)], np.ones(512)), path)
        path.write_bytes(path.read_bytes()[:-100])
        with pytest.raises(CorruptArchive):
            load_archive(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.xvec"
        path.write_bytes(b"FEAT" + b"\x00" * 40)
        with pytest.raises(BadMagic):
            load_archive(path)

    @pytest.mark.parametrize("start,end,value,error", [
        (0.0, 1.5, np.nan, NonFiniteWeight),
        (0.0, 1.5, np.inf, NonFiniteWeight),
        (1.5, 1.5, 0.0, InvalidConfig),  # end == start
        (1.5, 0.75, 0.0, InvalidConfig),  # end < start
    ])
    def test_bad_record_rejected(self, tmp_path, start, end, value, error):
        # the second of two records is bad, under a valid CRC
        rows = np.zeros((2, 512), dtype=np.float32)
        rows[1, 7] = value
        path = tmp_path / "bad.xvec"
        path.write_bytes(
            ref_xvec_bytes([(0.0, 1.5), (start, end)], rows.tolist())
        )
        with pytest.raises(error, match="bad.xvec"):
            load_archive(path)
