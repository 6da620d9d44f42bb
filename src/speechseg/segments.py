"""Time-labeled segments and their on-disk formats.

A segment is a half-open interval [start_s, end_s) with a label (a class
name such as "speech" or a speaker id such as "spk0").
Two text formats are written; TSV is also read back:

* TSV: ``start<TAB>end<TAB>label`` with 3-decimal fixed-point times.
* RTTM: ``SPEAKER <file-id> 1 <start> <dur> <NA> <NA> <label> <NA> <NA>``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .errors import InvalidSegment, UnsortedInput, read_text


@dataclass(frozen=True)
class Segment:
    start_s: float
    end_s: float
    label: str

    def __post_init__(self):
        if not (math.isfinite(self.start_s) and math.isfinite(self.end_s)):
            raise InvalidSegment("segment bounds must be finite")
        if self.end_s <= self.start_s:
            raise InvalidSegment(
                f"segment end {self.end_s} must exceed start {self.start_s}"
            )

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


def check_sorted(segments: list[Segment]) -> None:
    """Raise UnsortedInput unless starts are non-decreasing and same-label
    segments do not overlap."""
    last_end: dict[str, float] = {}
    prev_start = -math.inf
    for seg in segments:
        if seg.start_s < prev_start:
            raise UnsortedInput(
                f"segment at {seg.start_s:.3f} starts before predecessor"
            )
        prev_start = seg.start_s
        if seg.label in last_end and seg.start_s < last_end[seg.label]:
            raise UnsortedInput(
                f"segments with label {seg.label!r} overlap at {seg.start_s:.3f}"
            )
        last_end[seg.label] = max(last_end.get(seg.label, -math.inf), seg.end_s)


def write_tsv(segments: list[Segment], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for seg in segments:
            f.write(f"{seg.start_s:.3f}\t{seg.end_s:.3f}\t{seg.label}\n")


def read_tsv(path: str | Path) -> list[Segment]:
    segments = []
    for lineno, line in enumerate(read_text(path).split("\n"), 1):
        line = line.strip()
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise InvalidSegment(
                f"{path}:{lineno}: expected 3 tab-separated fields"
            )
        segments.append(parse_segment(parts, path, lineno))
    return segments


def parse_segment(
    fields: list[str], path: str | Path, lineno: int
) -> Segment:
    """Segment from a line's start, end and label fields; errors name the
    file and the line."""
    try:
        start, end = float(fields[0]), float(fields[1])
    except ValueError:
        raise InvalidSegment(
            f"{path}:{lineno}: unparsable time in {fields[:2]!r}"
        ) from None
    try:
        return Segment(start, end, fields[2])
    except InvalidSegment as e:
        raise InvalidSegment(f"{path}:{lineno}: {e}") from None


def write_rttm(segments: list[Segment], file_id: str, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for seg in segments:
            f.write(
                f"SPEAKER {file_id} 1 {seg.start_s:.3f} {seg.duration_s:.3f} "
                f"<NA> <NA> {seg.label} <NA> <NA>\n"
            )

