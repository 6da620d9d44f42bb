"""End-to-end speech segmentation.

The three strategies share one decision path (_decide). Windows lie on
the fixed grid of speechseg.xvector: WINDOW_S (1.5 s) long, STRIDE_S
(0.75 s) apart, with a clamped tail of at least MIN_WINDOW_S. Every window
gets a calibrated speech probability (1.0 for the baseline without a
model), one AHC pass clusters the embedding matrix of the windows the
strategy picks, and every window gets one row of a DECISION record array
(span, probability, speech or not by the probability cut, cluster id),
whose columns the decision log, segment building and segment filtering
read. Embeddings come in as one xvector.RECORD array; no stage builds an
object per window.
The cut is the model's own decision_threshold: `train` writes 0.5 and
`threshold --out` writes the operating point picked for a target FPR.
They differ in three things only:

- baseline: adaptive-energy VAD per 30 ms frame, median filter, gap merge;
  embeddings are computed only inside the resulting segments, every
  window is clustered on centered directions, and each VAD segment takes
  its windows' majority cluster as its speaker label.
- xvector_filt: embed every sliding window and cluster only the windows
  at or above the probability cut, on raw directions; the others are
  logged with cluster -1. Same-cluster runs of clustered windows that
  start STRIDE_S apart become segments.
- xvector_seg_filt: embed every window and cluster all of them on
  centered directions, form segments from the runs, then reject
  segments whose noise proportion is too high.

Output segments are sorted, non-overlapping per label, and labeled spkN,
where N is the clustering id of the run (dense before any filtering).

Windows whose samples are all exactly zero carry no evidence and are
skipped outright, before extraction, so digital silence never reaches the
TDNN or the classifier and an all-zero stream yields an empty segment
list under every strategy. The test reads the buffer's own samples, int16
for a PCM16 file: the recording stays PCM16 through the whole run, and
the front end and the energy VAD decode it to float64 one block at a
time.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .baseline import (
    decisions_to_segments,
    energy_vad_frames,
    median_filter,
    merge_segments,
)
from .classifier import CalibratedLinearModel
from .errors import EmptyInput, InvalidConfig, UnsortedInput
from .frontend import AudioBuffer, FeatureMatrix, apply_cmvn, compute_mfcc, read_wav
from .segments import Segment, check_sorted
from .xvector import (
    RECORD,
    STRIDE_S,
    XVectorNet,
    extract_sequence,
    extract_streams,
)

STRATEGIES = ("baseline", "xvector_filt", "xvector_seg_filt")


@dataclass(frozen=True)
class PipelineConfig:
    strategy: str
    noise_proportion_threshold: float = 0.5   # rho
    cluster_distance_threshold: float = 0.35  # delta, cosine
    baseline_aggressiveness: int = 0
    median_width: int = 5
    merge_gap_s: float = 0.5

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise InvalidConfig(
                f"strategy must be one of {STRATEGIES}, got {self.strategy!r}"
            )
        # each check is written so that a NaN fails it too
        if not 0.0 <= self.noise_proportion_threshold <= 1.0:
            raise InvalidConfig("noise_proportion_threshold must lie in [0, 1]")
        if not self.cluster_distance_threshold >= 0.0:
            raise InvalidConfig("cluster_distance_threshold must be >= 0")
        if self.baseline_aggressiveness not in (0, 1, 2, 3):
            raise InvalidConfig("baseline_aggressiveness must be 0..3")
        if not (self.median_width >= 1 and self.median_width % 2 == 1):
            raise InvalidConfig("median_width must be odd and positive")
        if not self.merge_gap_s >= 0.0:
            raise InvalidConfig("merge_gap_s must be nonnegative")


@dataclass(frozen=True)
class ClusteredSequence:
    """The cluster id of each row given to cluster_ahc."""

    cluster_ids: list[int]


# one window's decision: its span, calibrated speech probability, whether
# that is at or above the cut, and its cluster id (-1 when the window never
# reached clustering)
DECISION = np.dtype([("start_s", "<f8"), ("end_s", "<f8"),
                     ("probability", "<f8"), ("speech", "?"),
                     ("cluster", "<i8")])


@dataclass(frozen=True)
class PipelineResult:
    segments: tuple
    xvectors: np.recarray  # of xvector.RECORD
    decisions: np.recarray  # of DECISION, one per row of xvectors


def cluster_ahc(
    values: np.ndarray, distance_threshold: float, center: bool = False
) -> ClusteredSequence:
    """Average-linkage agglomerative clustering of the rows of an N x D
    matrix under cosine distance.

    Merging stops once the closest pair of clusters is farther apart than
    the threshold; ties break toward the lowest pair index. Ids are dense
    from 0 in order of first appearance.

    Each row caches its nearest cluster (nn, the lowest column holding
    the row's minimum) and that distance (nd), after Müllner 2011
    (arXiv:1109.2378). The closest pair is then argmin(nd) and its cached
    column, which is the pair a row-major scan of the whole matrix would
    pick, ties included. A merge updates the matrix with the same
    Lance-Williams arithmetic as a full scan would, rescans only the rows
    whose cached nearest was one of the merged pair, and compares every
    other row against the merged column. Memory is the O(n^2) distance
    matrix; time is about O(n^2) in practice, and O(n^3) only when most
    rows point at the merged pair on most merges. The merge sequence and
    every distance are those of the full scan, so the partition is too.

    center subtracts the mean row before measuring distances (values
    itself is left untouched). Raw embeddings of very different content
    can sit within a few degrees of each other, so the pipeline clusters
    on centered directions; centering needs at least 3 rows to be
    meaningful and is skipped below that.
    """
    n = len(values)
    if n == 0:
        raise EmptyInput("clustering needs at least one vector")

    x = np.asarray(values, dtype=np.float64)
    if center and n >= 3:
        x = x - x.mean(axis=0)
    norms = np.linalg.norm(x, axis=1)
    unit = x / np.where(norms > 0, norms, 1.0)[:, None]
    # one n x n matrix: the subtraction and the clip run in place
    dist = np.matmul(unit, unit.T)
    np.subtract(1.0, dist, out=dist)
    np.clip(dist, 0.0, 2.0, out=dist)
    np.fill_diagonal(dist, np.inf)

    sizes = np.ones(n)
    owner = np.arange(n)  # the row that holds each input row's cluster
    live = np.ones(n, dtype=bool)
    nn = dist.argmin(axis=1)
    nd = dist[np.arange(n), nn]
    for _ in range(n - 1):
        i = int(np.argmin(nd))  # lowest row holding the global minimum
        j = int(nn[i])
        if nd[i] > distance_threshold:
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
        owner[owner == j] = i
        live[j] = False
        nd[j] = np.inf

        stale = live & ((nn == i) | (nn == j))
        stale[i] = True
        # average linkage is reducible, so merged >= nd holds exactly for
        # every other row; only rounding can move one to column i
        closer = live & ~stale & (
            (merged < nd) | ((merged == nd) & (nn > i))
        )
        nn[closer] = i
        nd[closer] = merged[closer]
        rows = np.flatnonzero(stale)
        nn[rows] = dist[rows].argmin(axis=1)
        nd[rows] = dist[rows, nn[rows]]

    # number the clusters by their first input row
    _, first, ids = np.unique(owner, return_index=True, return_inverse=True)
    return ClusteredSequence(np.argsort(np.argsort(first))[ids].tolist())


def filter_segments(
    decisions: np.recarray,
    segments: list[Segment],
    noise_proportion_threshold: float,
) -> list[Segment]:
    """Drop segments whose attributed windows are mostly noise.

    decisions is a DECISION recarray. A window belongs to the first
    segment containing its center. A segment is rejected iff the fraction
    of its windows not labeled speech strictly exceeds the noise
    proportion threshold; segments with no attributed window are rejected
    too. Segments must be sorted by start, as _runs_to_segments returns
    them; they may overlap.
    """
    starts = np.array([s.start_s for s in segments])
    if np.any(starts[1:] < starts[:-1]):
        raise UnsortedInput("filter_segments needs segments sorted by start")
    centers = (decisions.start_s + decisions.end_s) / 2.0
    noisy = ~decisions.speech
    # with starts sorted, the first segment whose end exceeds c is the
    # first one whose running maximum of ends does; it contains c iff it
    # starts at or before c, and else no segment does
    reach = np.maximum.accumulate(np.array([s.end_s for s in segments]))
    k = np.searchsorted(reach, centers, side="right")
    hit = k < len(segments)
    hit[hit] = starts[k[hit]] <= centers[hit]
    totals = np.bincount(k[hit], minlength=len(segments))
    noise = np.bincount(k[hit & noisy], minlength=len(segments))
    return [
        seg
        for k, seg in enumerate(segments)
        if totals[k] > 0 and noise[k] / totals[k] <= noise_proportion_threshold
    ]


def run_pipeline(
    audio: str | Path | AudioBuffer,
    cfg: PipelineConfig,
    net: XVectorNet,
    model: CalibratedLinearModel | None = None,
) -> PipelineResult:
    """Segment one stream under the configured strategy.

    The x-vector strategies need a model; the baseline without one gives
    every window probability 1.0. No speech found is an empty result, not
    an error.
    """
    if isinstance(audio, (str, Path)):
        audio = read_wav(audio)
    if cfg.strategy != "baseline" and model is None:
        raise InvalidConfig(
            f"strategy {cfg.strategy} requires a classifier model"
        )

    if cfg.strategy == "baseline":
        segments, records, decisions = _run_baseline(audio, cfg, model, net)
    else:
        segments, records, decisions = _run_xvector(audio, cfg, model, net)

    segments = sorted(segments, key=lambda s: (s.start_s, s.end_s, s.label))
    check_sorted(segments)
    return PipelineResult(tuple(segments), records, decisions)


def _features(audio: AudioBuffer):
    return apply_cmvn(compute_mfcc(audio))


def _silent_window(audio: AudioBuffer, start_s: float, end_s: float) -> bool:
    """Whether every sample of the window [start_s, end_s) is zero; a
    PCM16 sample is zero exactly when its decoded value is."""
    a = int(round(start_s * audio.sample_rate))
    b = int(round(end_s * audio.sample_rate))
    return not np.any(audio.samples[a:b])


def _audible(audio: AudioBuffer):
    """The keep predicate of extraction: windows not all zero."""
    return lambda start_s, end_s: not _silent_window(audio, start_s, end_s)


def _decide(records, cfg, model):
    """Score, cluster and log every window: a DECISION recarray.

    A window is speech when its probability is at or above the model's
    decision_threshold; without a model every window has probability 1.0
    and is speech. xvector_filt clusters only the speech windows, on raw
    directions: that set is single-class by construction, so
    recording-level centering would only amplify residual noise. The
    other strategies cluster every window on centered directions. A
    window left out of clustering is logged with cluster -1.
    """
    out = np.recarray(len(records), DECISION)
    out.start_s, out.end_s = records.window_start_s, records.window_end_s
    if model is None:
        out.probability, cut = 1.0, 1.0
    else:
        out.probability = model.probabilities(records.values)
        cut = model.decision_threshold
    out.speech = out.probability >= cut
    out.cluster = -1
    if cfg.strategy == "xvector_filt":
        picked = np.flatnonzero(out.speech)
    else:
        picked = np.arange(len(records))
    if len(picked):
        out.cluster[picked] = cluster_ahc(
            records.values[picked],
            cfg.cluster_distance_threshold,
            center=cfg.strategy != "xvector_filt",
        ).cluster_ids
    return out


def _run_xvector(audio, cfg, model, net):
    records = extract_sequence(net, _features(audio), _audible(audio))
    decisions = _decide(records, cfg, model)
    runs = _runs_to_segments(decisions)
    if cfg.strategy == "xvector_seg_filt":
        runs = filter_segments(
            decisions, runs, cfg.noise_proportion_threshold
        )
    return merge_segments(runs, cfg.merge_gap_s), records, decisions


def _runs_to_segments(decisions):
    """Stride-adjacent clustered windows sharing a cluster become one
    segment; windows with cluster -1 are skipped."""
    d = decisions[decisions.cluster >= 0]
    head = np.ones(len(d), dtype=bool)  # whether a window starts a run
    head[1:] = (d.cluster[1:] != d.cluster[:-1]) | ~(
        np.abs(d.start_s[1:] - d.start_s[:-1] - STRIDE_S) < 1e-9
    )
    at = np.flatnonzero(head)
    ends = np.maximum.reduceat(d.end_s, at)
    return [
        Segment(start, end, f"spk{cid}")
        for start, end, cid in zip(
            d.start_s[at].tolist(), ends.tolist(), d.cluster[at].tolist()
        )
    ]


def _run_baseline(audio, cfg, model, net):
    track = energy_vad_frames(audio, cfg.baseline_aggressiveness)
    track = median_filter(track, cfg.median_width)
    vad_segments = merge_segments(
        decisions_to_segments(track), cfg.merge_gap_s
    )
    records = np.recarray(0, RECORD)
    if not vad_segments:
        return [], records, _decide(records, cfg, model)

    feats = _features(audio)
    shift = feats.frame_shift_s
    pieces = {}  # index into vad_segments -> its feature rows
    for k, seg in enumerate(vad_segments):
        a = int(round(seg.start_s / shift))
        b = min(int(round(seg.end_s / shift)), feats.num_frames)
        if b > a:
            pieces[k] = FeatureMatrix(
                feats.rows[a:b], shift, start_time_s=a * shift
            )
    got = list(extract_streams(net, pieces.values(), _audible(audio)))
    records = np.concatenate([records, *got]).view(np.recarray)
    decisions = _decide(records, cfg, model)

    # majority cluster labels each VAD segment; ties pick the lowest id,
    # and segments too short to embed get fresh ids after the real ones.
    # A segment's windows are consecutive rows
    count = dict(zip(pieces, map(len, got)))
    ids = decisions.cluster
    next_fresh = int(ids.max()) + 1 if len(ids) else 0
    at = 0
    segments = []
    for k, seg in enumerate(vad_segments):
        n = count.get(k, 0)
        if n:
            best = int(np.bincount(ids[at : at + n]).argmax())
            at += n
        else:
            best = next_fresh
            next_fresh += 1
        segments.append(Segment(seg.start_s, seg.end_s, f"spk{best}"))
    return segments, records, decisions


def write_decision_log(decisions, path: str | Path) -> None:
    """One line per window of a DECISION recarray:
    `start end probability label cluster`."""
    with open(path, "w", encoding="utf-8") as f:
        for start, end, p, speech, cid in decisions.tolist():
            label = "speech" if speech else "noise"
            f.write(f"{start:.3f} {end:.3f} {p:.6f} {label} {cid}\n")
