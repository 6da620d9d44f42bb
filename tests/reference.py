"""Independent reference implementations used as test oracles.

Everything here is written from the documented contracts alone, in the most
literal way possible (per-frame loops, explicit formulas), and must not
import anything from the package under test. Slow is fine; these run on
small inputs.
"""
import math

import numpy as np


# -----------------------------------------------------------------------------
# MFCC chain, coded straight from the textbook definitions.
# -----------------------------------------------------------------------------

def ref_mel(f):
    return 2595.0 * np.log10(1.0 + f / 700.0)


def ref_mel_inv(m):
    return 700.0 * (10.0 ** (m / 2595.0) - 1.0)


def ref_mfcc(samples, sample_rate, frame_length_ms=25.0, frame_shift_ms=10.0,
             num_mel_bins=40, num_ceps=30, pre_emphasis=0.97, low_hz=20.0):
    """Per-frame loop MFCC: pre-emphasis, Hamming, FFT, mel, log, DCT-II."""
    x = np.asarray(samples, dtype=np.float64)
    frame_len = round(frame_length_ms * sample_rate / 1000.0)
    shift = round(frame_shift_ms * sample_rate / 1000.0)

    y = np.empty_like(x)
    y[0] = x[0] * (1.0 - pre_emphasis)
    for n in range(1, len(x)):
        y[n] = x[n] - pre_emphasis * x[n - 1]

    nfft = 1
    while nfft < frame_len:
        nfft *= 2

    # Hamming window, periodic-symmetric form with N-1 denominator
    win = np.array(
        [0.54 - 0.46 * np.cos(2.0 * np.pi * n / (frame_len - 1))
         for n in range(frame_len)]
    )

    # mel filterbank built bin by bin
    high_hz = sample_rate / 2.0
    mel_edges = np.linspace(ref_mel(low_hz), ref_mel(high_hz), num_mel_bins + 2)
    hz_edges = ref_mel_inv(mel_edges)
    n_bins = nfft // 2 + 1
    freqs = np.array([k * sample_rate / nfft for k in range(n_bins)])
    bank = np.zeros((num_mel_bins, n_bins))
    for m in range(num_mel_bins):
        lo, mid, hi = hz_edges[m], hz_edges[m + 1], hz_edges[m + 2]
        for k in range(n_bins):
            f = freqs[k]
            if lo < f <= mid:
                bank[m, k] = (f - lo) / (mid - lo)
            elif mid < f < hi:
                bank[m, k] = (hi - f) / (hi - mid)
            elif f == lo == mid:  # degenerate, not hit with real configs
                bank[m, k] = 1.0

    num_frames = (len(x) - frame_len) // shift + 1
    out = np.zeros((num_frames, num_ceps))
    for t in range(num_frames):
        frame = y[t * shift : t * shift + frame_len] * win
        spec = np.fft.rfft(frame, n=nfft)
        power = spec.real ** 2 + spec.imag ** 2
        mel_energy = bank @ power
        logmel = np.log(np.maximum(mel_energy, 1e-10))
        for k in range(num_ceps):
            acc = 0.0
            for j in range(num_mel_bins):
                acc += logmel[j] * np.cos(
                    np.pi * k * (2 * j + 1) / (2.0 * num_mel_bins)
                )
            scale = np.sqrt(1.0 / num_mel_bins) if k == 0 else np.sqrt(
                2.0 / num_mel_bins
            )
            out[t, k] = acc * scale
    return out


def ref_cmvn(x, window):
    """Naive per-frame sliding CMVN.

    Window stays full-length by sliding at the edges; shorter matrices fall
    back to one global window.
    """
    x = np.asarray(x, dtype=np.float64)
    T, D = x.shape
    half = window // 2
    out = np.zeros_like(x)
    for t in range(T):
        lo = max(0, min(t - half, T - window))
        hi = min(T, lo + window)
        chunk = x[lo:hi]
        mean = chunk.mean(axis=0)
        std = chunk.std(axis=0)  # population std
        for d in range(D):
            if std[d] > 1e-10:
                out[t, d] = (x[t, d] - mean[d]) / std[d]
            else:
                out[t, d] = x[t, d] - mean[d]
    for d in range(D):
        if x[:, d].max() == x[:, d].min():
            out[:, d] = 0.0
    return out


# -----------------------------------------------------------------------------
# TDNN forward pass, frame by frame. Takes the network as plain arrays:
# layers = list of dicts with keys kind ("frame"/"segment"), offsets, weight,
# bias, bn_mean, bn_var, or the string "pool".
# -----------------------------------------------------------------------------

def ref_stats_pool(frames):
    """Two-pass mean / population std, explicit loops."""
    frames = np.asarray(frames, dtype=np.float64)
    T, D = frames.shape
    mean = np.zeros(D)
    for t in range(T):
        mean += frames[t]
    mean /= T
    var = np.zeros(D)
    for t in range(T):
        var += (frames[t] - mean) ** 2
    var /= T
    return np.concatenate([mean, np.sqrt(var)])


def ref_forward_xvector(layers, frames, bn_eps=1e-5):
    """Reference forward pass: pad to the receptive field by edge
    replication (extra copy leading), valid convolution per frame layer
    with affine -> ReLU -> batch norm, stats pooling, then the first
    segment affine with no activation."""
    x = np.asarray(frames, dtype=np.float64)

    need = 1
    for layer in layers:
        if layer != "pool" and layer["kind"] == "frame":
            need += max(layer["offsets"]) - min(layer["offsets"])
    if len(x) < need:
        missing = need - len(x)
        left = (missing + 1) // 2
        x = np.concatenate(
            [np.repeat(x[:1], left, axis=0), x,
             np.repeat(x[-1:], missing - left, axis=0)]
        )

    for layer in layers:
        if layer == "pool":
            x = ref_stats_pool(x).reshape(1, -1)
            continue
        w = np.asarray(layer["weight"], dtype=np.float64)
        b = np.asarray(layer["bias"], dtype=np.float64)
        offsets = list(layer["offsets"])
        if layer["kind"] == "segment":
            # first segment affine is the embedding tap
            return w @ x[0] + b
        lo, hi = min(offsets), max(offsets)
        t_out = len(x) - (hi - lo)
        rows = []
        for t in range(t_out):
            parts = [x[t + off - lo] for off in offsets]
            pre = w @ np.concatenate(parts) + b
            act = np.where(pre > 0, pre, 0.0)
            norm = (act - np.asarray(layer["bn_mean"], dtype=np.float64)) / (
                np.sqrt(np.asarray(layer["bn_var"], dtype=np.float64) + bn_eps)
            )
            rows.append(norm)
        x = np.stack(rows)
    raise AssertionError("net had no segment layer")


def ref_median_filter(decisions, width):
    """Sort-the-window median with shrunken odd centered edge windows."""
    x = list(decisions)
    n = len(x)
    out = []
    for i in range(n):
        k = min(width // 2, i, n - 1 - i)
        window = sorted(x[i - k : i + k + 1])
        out.append(window[len(window) // 2])
    return out


def ref_roc(scores):
    """Brute-force ROC: every distinct score as a threshold, descending,
    plus the (0,0) anchor; positive prediction iff score >= threshold."""
    pos = [s for s, y in scores if y]
    neg = [s for s, y in scores if not y]
    points = [(0.0, 0.0, float("inf"))]
    for thr in sorted(set(s for s, _ in scores), reverse=True):
        tp = sum(1 for s in pos if s >= thr)
        fp = sum(1 for s in neg if s >= thr)
        points.append((fp / len(neg), tp / len(pos), thr))
    return points


def ref_edit_distance(ref, hyp):
    """Tuple-cost DP: minimize (errors, subs, ins) lexicographically."""
    rows = len(ref) + 1
    cols = len(hyp) + 1
    d = [[None] * cols for _ in range(rows)]
    d[0][0] = (0, 0, 0)
    for j in range(1, cols):
        e, s, i = d[0][j - 1]
        d[0][j] = (e + 1, s, i + 1)
    for r in range(1, rows):
        e, s, i = d[r - 1][0]
        d[r][0] = (e + 1, s, i)
        for c in range(1, cols):
            e, s, i = d[r - 1][c]
            cand = [(e + 1, s, i)]  # deletion
            e, s, i = d[r][c - 1]
            cand.append((e + 1, s, i + 1))  # insertion
            e, s, i = d[r - 1][c - 1]
            if ref[r - 1] == hyp[c - 1]:
                cand.append((e, s, i))
            else:
                cand.append((e + 1, s + 1, i))  # substitution
            d[r][c] = min(cand)
    errors, subs, ins = d[rows - 1][cols - 1]
    return errors, subs, ins, errors - subs - ins


def ref_window_spans(total_s, window_s=1.5, stride_s=0.75, min_window_s=0.5):
    """Sliding-window spans enumerated by hand."""
    spans = []
    k = 0
    while k * stride_s + window_s <= total_s:
        spans.append((k * stride_s, k * stride_s + window_s))
        k += 1
    tail = total_s - k * stride_s
    covered = spans and spans[-1][1] == total_s
    if not covered and tail >= min_window_s:
        spans.append((k * stride_s, total_s))
    return spans


def ref_cluster_ahc(values, distance_threshold, center=False):
    """Average-linkage AHC by a full-matrix scan per merge.

    Each merge takes the row-major argmin of the whole cosine-distance
    matrix (lowest (i, j) on ties) and applies the Lance-Williams update.
    Returns dense cluster ids in order of first appearance.
    """
    x = np.asarray(values, dtype=np.float64)
    n = len(x)
    if center and n >= 3:
        x = x - x.mean(axis=0)
    norms = np.linalg.norm(x, axis=1)
    unit = x / np.where(norms > 0, norms, 1.0)[:, None]
    dist = np.clip(1.0 - unit @ unit.T, 0.0, 2.0)
    np.fill_diagonal(dist, np.inf)

    sizes = np.ones(n)
    members = {i: [i] for i in range(n)}
    while len(members) > 1:
        i, j = divmod(int(np.argmin(dist)), n)
        if dist[i, j] > distance_threshold:
            break
        merged = (sizes[i] * dist[i] + sizes[j] * dist[j]) / (
            sizes[i] + sizes[j]
        )
        dist[i, :] = merged
        dist[:, i] = merged
        dist[i, i] = np.inf
        dist[j, :] = np.inf
        dist[:, j] = np.inf
        sizes[i] += sizes[j]
        members[i].extend(members.pop(j))

    ids = [0] * n
    for cid, group in enumerate(sorted(members.values(), key=min)):
        for t in group:
            ids[t] = cid
    return ids


# -----------------------------------------------------------------------------
# Segments from window decisions, as loops over the windows. decisions is a
# record array with fields start_s, end_s, probability, speech (bool) and
# cluster (-1 for a window that never reached clustering).
# -----------------------------------------------------------------------------

def ref_runs_to_segments(decisions, stride_s=0.75):
    """(start, end, "spk<id>") per run of clustered windows that share a
    cluster and start stride_s apart; windows with cluster -1 are skipped."""
    segments = []
    run_start = run_end = None
    run_id = None
    prev_start = None
    for d in decisions:
        if d.cluster < 0:
            continue
        adjacent = (
            prev_start is not None
            and abs(d.start_s - prev_start - stride_s) < 1e-9
        )
        if run_id == d.cluster and adjacent:
            run_end = max(run_end, d.end_s)
        else:
            if run_id is not None:
                segments.append((run_start, run_end, f"spk{run_id}"))
            run_start, run_end, run_id = d.start_s, d.end_s, d.cluster
        prev_start = d.start_s
    if run_id is not None:
        segments.append((run_start, run_end, f"spk{run_id}"))
    return segments


def ref_filter_segments(decisions, segments, noise_proportion_threshold):
    """Keep a segment iff windows attributed to it exist and at most the
    threshold fraction of them is labeled noise; a window is attributed
    to the first segment whose [start, end) holds its center."""
    totals = [0] * len(segments)
    noise = [0] * len(segments)
    for start, end, speech in zip(
        decisions.start_s, decisions.end_s, decisions.speech
    ):
        center = (start + end) / 2.0
        for k, seg in enumerate(segments):
            if seg.start_s <= center < seg.end_s:
                totals[k] += 1
                if not speech:
                    noise[k] += 1
                break
    return [
        seg
        for k, seg in enumerate(segments)
        if totals[k] > 0 and noise[k] / totals[k] <= noise_proportion_threshold
    ]


# -----------------------------------------------------------------------------
# Calibrated linear scoring, one vector at a time.
# -----------------------------------------------------------------------------

def ref_probability(w, b, calib_a, calib_b, x):
    """(raw score, probability) of one vector: divide x by the sum of its
    absolute values (a zero vector stays zero), take w . x + b, then
    p = 1 / (1 + exp(calib_a * score + calib_b)), evaluated through
    exp(-z) for z >= 0 and exp(z) below so neither branch overflows."""
    x = np.asarray(x, dtype=np.float64)
    norm = np.abs(x).sum()
    if norm != 0.0:
        x = x / norm
    score = float(np.asarray(w, dtype=np.float64) @ x + b)
    z = calib_a * score + calib_b
    if z >= 0:
        e = math.exp(-z)
        return score, e / (1.0 + e)
    return score, 1.0 / (1.0 + math.exp(z))


# -----------------------------------------------------------------------------
# Frame-level VAD scoring grids, one full-length mask per segment.
# -----------------------------------------------------------------------------

def ref_rasterize(spans, period, n):
    """int8 frame track: frame i is 1 iff its center (i + 0.5) * period
    lies in some [start, end) of spans."""
    decisions = np.zeros(n, dtype=np.int8)
    centers = (np.arange(n) + 0.5) * period
    for start, end in spans:
        decisions[(centers >= start) & (centers < end)] = 1
    return decisions


def ref_condition_frames(labeled, period, n):
    """Per-frame labels from (start, end, label) triples in order: a frame
    takes the label of the last triple holding its center, no_speech if
    none does."""
    out = ["no_speech"] * n
    centers = (np.arange(n) + 0.5) * period
    for start, end, label in labeled:
        for i in np.nonzero((centers >= start) & (centers < end))[0]:
            out[i] = label
    return out


# -----------------------------------------------------------------------------
# .xvec archive bytes, packed one record at a time.
# -----------------------------------------------------------------------------

def ref_xvec_bytes(spans, rows):
    """The .xvec file for (start_s, end_s) spans and their value rows:
    magic "XVEC", u32 count, per record f64 start, f64 end and the row as
    f32, then a CRC32 of everything before it; little-endian."""
    import struct
    import zlib

    parts = [b"XVEC", struct.pack("<I", len(spans))]
    for (start, end), row in zip(spans, rows):
        parts.append(struct.pack("<dd", start, end))
        parts.append(struct.pack(f"<{len(row)}f", *row))
    body = b"".join(parts)
    return body + struct.pack("<I", zlib.crc32(body))
