"""Frame-level VAD metrics and word-error-rate scoring.

VAD scoring rasterizes segments onto a frame grid (frame i speech iff its
center lies in a speech segment) and reports per-condition true positive
rates plus the false positive rate over non-speech frames. WER uses a
minimum-edit-distance alignment with unit insertion/deletion/substitution
costs; cost ties are broken toward fewer substitutions, then fewer
insertions, by minimizing the triple (errors, subs, ins) lexicographically.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .baseline import FrameDecisionTrack
from .errors import (
    DegenerateLabels,
    EmptyReference,
    InvalidConfig,
    LengthMismatch,
    SegmentOutOfBounds,
    ZeroTotal,
    read_text,
)
from .segments import Segment, parse_segment

CONDITIONS = (
    "clean_speech",
    "speech_with_noise",
    "speech_with_music",
    "no_speech",
)
SPEECH_CONDITIONS = CONDITIONS[:3]
# the longest frame grid that scoring builds: a grid costs about 137 B per
# frame through condition_frames, rasterize and frame_vad_eval, so 10**7
# frames (27.8 h at 10 ms) take about 1.4 GB, and a tiny period is refused
# before it asks for terabytes
MAX_GRID_FRAMES = 10**7


# -----------------------------------------------------------------------------
# Rasterization
# -----------------------------------------------------------------------------

def _frame_total(duration_s: float, period_s: float) -> int:
    # written so that a NaN period or duration fails the check too
    if not (period_s > 0 and duration_s >= 0):
        raise InvalidConfig(
            f"frame period must be positive and duration nonnegative, "
            f"got period {period_s} and duration {duration_s}"
        )
    # ceil(duration/period), robust to duration being a rounded multiple
    frames = np.ceil(duration_s / period_s - 1e-9)
    if not frames <= MAX_GRID_FRAMES:
        raise InvalidConfig(
            f"duration {duration_s} s at a {period_s} s frame period gives "
            f"{frames:.0f} frames, more than the {MAX_GRID_FRAMES} a frame "
            f"grid may hold"
        )
    return int(frames)


def _frame_ranges(
    segments: list[Segment], frame_period_s: float, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """[lo, hi) per segment: the frames whose center (i+0.5)*period lies
    in [start, end), found by binary search over the rising centers, so
    each bound is the comparison a per-frame mask would make."""
    centers = (np.arange(n) + 0.5) * frame_period_s
    starts = np.array([seg.start_s for seg in segments], dtype=np.float64)
    ends = np.array([seg.end_s for seg in segments], dtype=np.float64)
    return np.searchsorted(centers, starts), np.searchsorted(centers, ends)


def rasterize(
    segments: list[Segment],
    frame_period_s: float,
    stream_duration_s: float,
) -> FrameDecisionTrack:
    """Frame i is 1 iff its center (i+0.5)*period lies in a segment."""
    n = _frame_total(stream_duration_s, frame_period_s)
    for seg in segments:
        if seg.start_s < -1e-9 or seg.end_s > stream_duration_s + 1e-9:
            raise SegmentOutOfBounds(
                f"[{seg.start_s}, {seg.end_s}) outside stream of "
                f"{stream_duration_s}s"
            )
    lo, hi = _frame_ranges(segments, frame_period_s, n)
    # segments covering each frame: +1 where one starts, -1 after it ends
    depth = np.cumsum(
        np.bincount(lo, minlength=n + 1) - np.bincount(hi, minlength=n + 1)
    )
    return FrameDecisionTrack((depth[:n] > 0).astype(np.int8), frame_period_s)


def condition_frames(
    condition_segments: list[Segment],
    frame_period_s: float,
    stream_duration_s: float,
) -> list[str]:
    """Per-frame condition labels from labeled segments; gaps are
    no_speech, and where segments overlap the later one wins. A list, so
    that `+=` concatenates the labels of several streams (on a NumPy
    array it would add elementwise)."""
    n = _frame_total(stream_duration_s, frame_period_s)
    for seg in condition_segments:
        if seg.label not in CONDITIONS:
            raise InvalidConfig(f"unknown condition {seg.label!r}")
    codes = np.full(n, CONDITIONS.index("no_speech"), dtype=np.int8)
    lo, hi = _frame_ranges(condition_segments, frame_period_s, n)
    for seg, a, b in zip(condition_segments, lo, hi):
        codes[a:b] = CONDITIONS.index(seg.label)
    return np.array(CONDITIONS)[codes].tolist()


# -----------------------------------------------------------------------------
# ROC
# -----------------------------------------------------------------------------

@dataclass(frozen=True)
class RocCurve:
    """Operating points swept over descending thresholds; anchored at (0,0)."""

    fpr: np.ndarray
    tpr: np.ndarray
    thresholds: np.ndarray

    def __post_init__(self):
        for arr in (self.fpr, self.tpr):
            if ((arr < 0) | (arr > 1)).any():
                raise InvalidConfig("rates must lie in [0, 1]")
            if (np.diff(arr) < 0).any():
                raise InvalidConfig("curve must be non-decreasing")


def roc_curve(scores: np.ndarray, positive: np.ndarray) -> RocCurve:
    """Exact ROC of scores against truly-positive flags: one operating
    point per distinct score, positive iff score >= threshold, plus the
    (0,0) anchor at threshold +inf."""
    values = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(positive, dtype=bool).astype(np.int64)
    if values.shape != labels.shape:
        raise LengthMismatch(f"{labels.size} labels for {values.size} scores")
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabels("ROC needs at least one of each class")

    order = np.argsort(-values, kind="stable")
    values = values[order]
    labels = labels[order]
    tp = np.cumsum(labels)
    fp = np.cumsum(1 - labels)
    # last index of each run of equal scores = counts at "threshold = value"
    last = np.nonzero(np.concatenate([values[1:] != values[:-1], [True]]))[0]
    fpr = np.concatenate([[0.0], fp[last] / n_neg])
    tpr = np.concatenate([[0.0], tp[last] / n_pos])
    thresholds = np.concatenate([[np.inf], values[last]])
    return RocCurve(fpr, tpr, thresholds)


def tpr_at_fpr(curve: RocCurve, target: float = 0.315) -> float:
    """TPR linearly interpolated between curve points straddling target."""
    if not 0 <= target <= 1:
        raise InvalidConfig("target FPR must lie in [0, 1]")
    # collapse duplicate fpr values to their best tpr before interpolating
    fpr, tpr = curve.fpr, curve.tpr
    keep = np.concatenate([fpr[1:] != fpr[:-1], [True]])
    return float(np.interp(target, fpr[keep], tpr[keep]))


# -----------------------------------------------------------------------------
# Frame VAD evaluation
# -----------------------------------------------------------------------------

@dataclass(frozen=True)
class VadEvalReport:
    tpr_by_condition: dict
    tpr_all: float | None
    fpr: float | None
    frames_by_condition: dict

    def summary(self) -> dict:
        def f(x):
            return None if x is None else round(x, 6)

        return {
            "tpr_clean": f(self.tpr_by_condition.get("clean_speech")),
            "tpr_noise": f(self.tpr_by_condition.get("speech_with_noise")),
            "tpr_music": f(self.tpr_by_condition.get("speech_with_music")),
            "tpr_all": f(self.tpr_all),
            "fpr": f(self.fpr),
        }


def frame_vad_eval(
    hyp: FrameDecisionTrack, conditions: np.ndarray | list[str]
) -> VadEvalReport:
    """Per-condition TPR over speech frames; FPR over no_speech frames.

    conditions holds one label per frame, as an array or a list."""
    if len(hyp) != len(conditions):
        raise LengthMismatch(
            f"{len(hyp)} hypothesis frames vs {len(conditions)} labels"
        )
    cond = np.asarray(conditions, dtype=str)
    unknown = cond[~np.isin(cond, CONDITIONS)]
    if len(unknown):
        raise InvalidConfig(f"unknown condition {str(unknown[0])!r}")

    dec = hyp.decisions
    tpr_by = {}
    counts = {}
    for c in SPEECH_CONDITIONS:
        mask = cond == c
        counts[c] = int(mask.sum())
        tpr_by[c] = float(dec[mask].mean()) if counts[c] else None

    speech_mask = cond != "no_speech"
    n_speech = int(speech_mask.sum())
    tpr_all = float(dec[speech_mask].mean()) if n_speech else None

    neg_mask = cond == "no_speech"
    counts["no_speech"] = int(neg_mask.sum())
    fpr = float(dec[neg_mask].mean()) if counts["no_speech"] else None
    return VadEvalReport(tpr_by, tpr_all, fpr, counts)


# -----------------------------------------------------------------------------
# WER
# -----------------------------------------------------------------------------

@dataclass(frozen=True)
class WerReport:
    tot: int
    insertions: int
    deletions: int
    substitutions: int

    @property
    def errors(self) -> int:
        return self.insertions + self.deletions + self.substitutions

    @property
    def wer_percent(self) -> float:
        return wer_from_counts(
            self.tot, self.insertions, self.deletions, self.substitutions
        )


# counts packed into one int64 so numpy minimization is lexicographic over
# (errors, substitutions, insertions); fields must stay below _PACK
_PACK = 1 << 21
_DEL = _PACK * _PACK
_INS = _PACK * _PACK + 1
_SUB = _PACK * _PACK + _PACK


def align_wer(ref: list[str], hyp: list[str]) -> WerReport:
    """Minimum-edit alignment; ties prefer fewer SUB, then fewer INS."""
    if len(ref) == 0:
        raise EmptyReference("reference transcript has no words")
    # keeps every intermediate packed cost below 2^63
    if len(ref) + len(hyp) > (1 << 20):
        raise InvalidConfig("transcript too long to align")

    # each word coded once as an integer, so the rows compare integers
    _, codes = np.unique(np.array([*ref, *hyp], dtype=object),
                         return_inverse=True)
    ref_codes, hyp_codes = codes[: len(ref)], codes[len(ref) :]
    ramp = np.arange(len(hyp) + 1, dtype=np.int64) * _INS
    row = ramp.copy()
    best = np.empty_like(row)
    for i, word in enumerate(ref_codes.tolist(), 1):
        sub_step = np.where(hyp_codes == word, 0, _SUB)
        best[0] = i * _DEL
        np.minimum(row[1:] + _DEL, row[:-1] + sub_step, out=best[1:])
        # fold in insertions along the row with a running prefix minimum
        np.subtract(best, ramp, out=best)
        np.minimum.accumulate(best, out=row)
        row += ramp
    packed = int(row[-1])
    errors, rest = divmod(packed, _PACK * _PACK)
    subs, ins = divmod(rest, _PACK)
    return WerReport(len(ref), ins, errors - subs - ins, subs)


def wer_from_counts(tot: int, ins: int, dels: int, subs: int) -> float:
    if tot <= 0:
        raise ZeroTotal("reference word count must be positive")
    return (ins + dels + subs) / tot * 100.0


_TOKEN = re.compile(r"[^\W_]+(?:['’-][^\W_]+)*")


def normalize_text(line: str) -> list[str]:
    """Lowercase, keep intra-word apostrophes/hyphens, drop other
    punctuation, collapse whitespace."""
    return _TOKEN.findall(line.lower())


# -----------------------------------------------------------------------------
# Transcript and condition-label files
# -----------------------------------------------------------------------------

def read_transcripts(path: str | Path) -> dict:
    """`file-id<TAB>words...` per line -> {file-id: normalized word list}."""
    out: dict[str, list[str]] = {}
    for lineno, line in enumerate(read_text(path).splitlines(), 1):
        if not line.strip():
            continue
        file_id, _, text = line.partition("\t")
        if not file_id.strip():
            raise InvalidConfig(f"{path}:{lineno}: missing file id")
        out.setdefault(file_id.strip(), []).extend(normalize_text(text))
    return out


def score_transcripts(
    ref: dict, hyp: dict
) -> tuple[WerReport, dict[str, WerReport]]:
    """Align per file id, then pool counts over all reference files."""
    per_file = {}
    tot = ins = dels = subs = 0
    for file_id in sorted(ref):
        report = align_wer(ref[file_id], hyp.get(file_id, []))
        per_file[file_id] = report
        tot += report.tot
        ins += report.insertions
        dels += report.deletions
        subs += report.substitutions
    if tot == 0:
        raise EmptyReference("no reference words to score")
    return WerReport(tot, ins, dels, subs), per_file


def read_condition_labels(path: str | Path) -> list[Segment]:
    """TSV `start<TAB>end<TAB>condition` rows, validated and sorted."""
    out = []
    for lineno, line in enumerate(read_text(path).splitlines(), 1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise InvalidConfig(f"{path}:{lineno}: expected 3 fields")
        if parts[2] not in CONDITIONS:
            raise InvalidConfig(f"{path}:{lineno}: bad condition {parts[2]!r}")
        out.append(parse_segment(parts, path, lineno))
    return sorted(out, key=lambda s: (s.start_s, s.end_s))
