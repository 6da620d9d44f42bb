"""Dataset preparation: segment ground truth from word alignments, and
stratified train/eval splits grouped by source.

Word-level time codes are coalesced into segments wherever the inter-word
gap stays within max_gap_s, which regenerates tight speech segments from
loose subtitle-style timings. Splitting never lets a source id straddle
the train/eval boundary, so no program leaks across the split.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    EmptyClass,
    InsufficientSources,
    InvalidConfig,
    UnsortedInput,
    read_text,
)
from .segments import Segment


@dataclass(frozen=True)
class WordAlignment:
    word: str
    start_s: float
    end_s: float
    file_id: str

    def __post_init__(self):
        if not (np.isfinite(self.start_s) and np.isfinite(self.end_s)):
            raise InvalidConfig(
                f"word {self.word!r}: times must be finite, got start "
                f"{self.start_s} and end {self.end_s}"
            )
        if not self.end_s > self.start_s:
            raise InvalidConfig(
                f"word {self.word!r}: end {self.end_s} must exceed start "
                f"{self.start_s}"
            )


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    label: str
    source_id: str

    def __post_init__(self):
        if "\0" in self.path:
            raise InvalidConfig(f"path {self.path!r} holds a NUL character")
        if self.label not in ("speech", "noise"):
            raise InvalidConfig(f"label must be speech or noise, got {self.label!r}")


def realign_segments(
    words: list[WordAlignment],
    max_gap_s: float = 0.5,
    min_dur_s: float = 0.5,
) -> list[Segment]:
    """Coalesce consecutive words into segments, dropping short ones.

    Consecutive words whose gap is at most max_gap_s join one segment
    spanning [first.start, last.end); segments shorter than min_dur_s are
    dropped afterwards.
    """
    if max_gap_s < 0 or min_dur_s < 0:
        raise InvalidConfig("gap and duration thresholds must be nonnegative")
    for a, b in zip(words, words[1:]):
        if b.start_s < a.start_s:
            raise UnsortedInput(
                f"word {b.word!r} at {b.start_s} after {a.start_s}"
            )

    out = []
    run_start = run_end = None
    for w in words:
        if run_start is None:
            run_start, run_end = w.start_s, w.end_s
        elif w.start_s - run_end <= max_gap_s:
            run_end = max(run_end, w.end_s)
        else:
            out.append((run_start, run_end))
            run_start, run_end = w.start_s, w.end_s
    if run_start is not None:
        out.append((run_start, run_end))
    return [
        Segment(a, b, "speech") for a, b in out if b - a >= min_dur_s
    ]


def build_dataset(
    speech_entries: list[ManifestEntry],
    noise_entries: list[ManifestEntry],
    split_fraction: float = 0.9,
    seed: int = 0,
) -> tuple[list[ManifestEntry], list[ManifestEntry]]:
    """Stratified source-grouped split into (train, eval) manifests.

    Sources are whole units: every entry of a source lands in the same
    split. Per class, round(fraction * n_sources) sources go to train,
    clamped so both splits keep at least one source.
    """
    if not 0 < split_fraction < 1:
        raise InvalidConfig("split_fraction must lie strictly between 0 and 1")
    rng = np.random.default_rng(seed)
    train: list[ManifestEntry] = []
    evaluation: list[ManifestEntry] = []
    for label, entries in (("speech", speech_entries), ("noise", noise_entries)):
        if not entries:
            raise EmptyClass(f"no {label} entries")
        if any(e.label != label for e in entries):
            raise InvalidConfig(f"manifest for {label} mixes labels")
        by_source: dict[str, list[ManifestEntry]] = {}
        for e in entries:
            by_source.setdefault(e.source_id, []).append(e)
        sources = sorted(by_source)
        if len(sources) < 2:
            raise InsufficientSources(
                f"class {label} needs at least 2 sources to split, "
                f"has {len(sources)}"
            )
        n_train = int(round(split_fraction * len(sources)))
        n_train = min(max(n_train, 1), len(sources) - 1)
        order = rng.permutation(len(sources))
        chosen = {sources[i] for i in order[:n_train]}
        for src in sources:
            (train if src in chosen else evaluation).extend(by_source[src])
    return train, evaluation


# -----------------------------------------------------------------------------
# CTM word alignments: `file-id channel start dur word` per line.
# Manifests: `path<TAB>label<TAB>source-id` per line.
# -----------------------------------------------------------------------------

def read_ctm(path: str | Path) -> dict[str, list[WordAlignment]]:
    """CTM rows grouped by file id, sorted by start within each file."""
    out: dict[str, list[WordAlignment]] = {}
    for lineno, line in enumerate(read_text(path).splitlines(), 1):
        if not line.strip() or line.startswith(";;"):
            continue
        parts = line.split()
        if len(parts) < 5:
            raise InvalidConfig(f"{path}:{lineno}: expected 5 CTM fields")
        file_id, _channel, start, dur, word = parts[:5]
        try:
            start_s = float(start)
            end_s = start_s + float(dur)
        except ValueError:
            raise InvalidConfig(
                f"{path}:{lineno}: unparsable time in {[start, dur]!r}"
            ) from None
        try:
            aligned = WordAlignment(word, start_s, end_s, file_id)
        except InvalidConfig as e:
            raise InvalidConfig(f"{path}:{lineno}: {e}") from None
        out.setdefault(file_id, []).append(aligned)
    for words in out.values():
        words.sort(key=lambda w: (w.start_s, w.end_s))
    return out


def write_manifest(entries: list[ManifestEntry], path: str | Path) -> None:
    lines = [f"{e.path}\t{e.label}\t{e.source_id}" for e in entries]
    Path(path).write_text("".join(l + "\n" for l in lines), encoding="utf-8")


def read_manifest(path: str | Path) -> list[ManifestEntry]:
    out = []
    for lineno, line in enumerate(read_text(path).splitlines(), 1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise InvalidConfig(f"{path}:{lineno}: expected 3 fields")
        try:
            out.append(ManifestEntry(*parts))
        except InvalidConfig as e:
            raise InvalidConfig(f"{path}:{lineno}: {e}") from None
    return out
