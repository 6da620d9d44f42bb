"""Baseline VAD path: frame decisions, median filter, segments, merging.

The frame classifier is an adaptive-energy stand-in for the GMM VAD used
by the original system (which is out of scope here). It keeps the parts
that matter for pipeline comparisons: 30 ms frame decisions, a 4-level
aggressiveness knob, 5-frame median filtering, and 500 ms gap merging.

Noise floor model: running minimum of frame log-energy that drops
instantly on quieter frames and rises linearly at 0.05 dB per frame
otherwise. A frame is speech when its energy exceeds the floor by a
margin of {6, 9, 12, 15} dB for aggressiveness 0 to 3.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AudioTooShort, InvalidConfig
from .frontend import FRONTEND_BLOCK_FRAMES, AudioBuffer
from .segments import Segment, check_sorted

FRAME_PERIOD_S = 0.030
FLOOR_INIT_DB = -100.0
FLOOR_RISE_DB_PER_FRAME = 0.05
MARGINS_DB = (6.0, 9.0, 12.0, 15.0)
ENERGY_FLOOR = 1e-10


@dataclass
class FrameDecisionTrack:
    decisions: np.ndarray
    frame_period_s: float = FRAME_PERIOD_S

    def __post_init__(self):
        self.decisions = np.asarray(self.decisions, dtype=np.int8)
        if self.frame_period_s <= 0:
            raise InvalidConfig("frame_period_s must be positive")
        if not np.isin(self.decisions, (0, 1)).all():
            raise InvalidConfig("decisions must be 0 or 1")

    def __len__(self):
        return len(self.decisions)


def energy_vad_frames(
    audio: AudioBuffer, aggressiveness: int = 0
) -> FrameDecisionTrack:
    """Adaptive-energy speech/non-speech decision per 30 ms frame.

    Mode 0 uses the smallest margin and therefore returns the most speech.
    """
    if aggressiveness not in (0, 1, 2, 3):
        raise InvalidConfig(
            f"aggressiveness must be 0..3, got {aggressiveness}"
        )
    frame_len = round(FRAME_PERIOD_S * audio.sample_rate)
    if frame_len < 1:
        raise InvalidConfig(
            f"sample rate {audio.sample_rate} Hz gives a 0-sample "
            f"{FRAME_PERIOD_S * 1000:.0f} ms frame; need at least 1"
        )
    n = len(audio.samples) // frame_len
    if n < 1:
        raise AudioTooShort(
            f"need at least one {FRAME_PERIOD_S * 1000:.0f} ms frame"
        )

    # decode FRONTEND_BLOCK_FRAMES frames at a time; a frame's mean sums
    # only its own row, so blocks give the bits of a whole-signal pass
    energy_db = np.empty(n)
    for f0 in range(0, n, FRONTEND_BLOCK_FRAMES):
        f1 = min(f0 + FRONTEND_BLOCK_FRAMES, n)
        frames = audio.decoded(f0 * frame_len, f1 * frame_len)
        frames = frames.reshape(f1 - f0, frame_len)
        energy_db[f0:f1] = 10.0 * np.log10(
            np.mean(frames * frames, axis=1) + ENERGY_FLOOR
        )

    margin = MARGINS_DB[aggressiveness]
    decisions = np.zeros(n, dtype=np.int8)
    floor = FLOOR_INIT_DB
    for i, e in enumerate(energy_db):
        floor = min(e, floor + FLOOR_RISE_DB_PER_FRAME)
        decisions[i] = 1 if e > floor + margin else 0
    return FrameDecisionTrack(decisions, FRAME_PERIOD_S)


def median_filter(track: FrameDecisionTrack, width: int = 5) -> FrameDecisionTrack:
    """Windowed median; edge windows shrink to stay odd and centered."""
    if width < 1 or width % 2 == 0:
        raise InvalidConfig("median width must be odd and positive")
    x = track.decisions
    i = np.arange(len(x))
    # each frame's half-width, shrunken at the edges
    k = np.minimum(width // 2, np.minimum(i, len(x) - 1 - i))
    prefix = np.concatenate([[0], np.cumsum(x, dtype=np.int64)])
    ones = prefix[i + k + 1] - prefix[i - k]  # ones in each window
    return FrameDecisionTrack(2 * ones > 2 * k + 1, track.frame_period_s)


def decisions_to_segments(track: FrameDecisionTrack) -> list[Segment]:
    """Maximal runs of 1-frames as [start, end) "speech" segments on the
    frame grid."""
    x = np.concatenate([[0], track.decisions, [0]])
    starts = np.nonzero(np.diff(x) == 1)[0]
    ends = np.nonzero(np.diff(x) == -1)[0]
    p = track.frame_period_s
    return [Segment(a * p, b * p, "speech") for a, b in zip(starts, ends)]


def merge_segments(
    segments: list[Segment], max_gap_s: float = 0.5
) -> list[Segment]:
    """Close gaps of at most max_gap_s between same-label neighbors.

    Chains collapse transitively. Merging is per label: each segment joins
    the previous segment of its own label when the gap between them is
    small enough, independently of other labels in between.
    """
    check_sorted(segments)
    if max_gap_s < 0:
        raise InvalidConfig("max_gap_s must be nonnegative")
    out: list[Segment] = []
    last_by_label: dict[str, int] = {}
    for seg in segments:
        at = last_by_label.get(seg.label)
        if at is not None and seg.start_s - out[at].end_s <= max_gap_s:
            prev = out[at]
            out[at] = Segment(
                prev.start_s, max(prev.end_s, seg.end_s), prev.label
            )
        else:
            last_by_label[seg.label] = len(out)
            out.append(seg)
    return out
