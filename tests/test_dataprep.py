"""Tests for word-alignment realignment and the source-grouped dataset split."""
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speechseg.dataprep import (
    ManifestEntry,
    WordAlignment,
    build_dataset,
    read_ctm,
    read_manifest,
    realign_segments,
    write_manifest,
)
from speechseg.errors import (
    EmptyClass,
    InsufficientSources,
    InvalidConfig,
    UnsortedInput,
)


def _words(spans, file_id="f1"):
    return [
        WordAlignment(f"w{i}", a, b, file_id) for i, (a, b) in enumerate(spans)
    ]


class TestRealignSegments:
    def test_small_gap_coalesces(self):
        segs = realign_segments(_words([(0.0, 0.3), (0.35, 0.6)]), 0.5, 0.0)
        assert len(segs) == 1
        assert segs[0].start_s == 0.0
        assert segs[0].end_s == 0.6
        assert segs[0].label == "speech"

    def test_large_gap_splits(self):
        segs = realign_segments(_words([(0.0, 0.3), (1.5, 1.8)]), 0.5, 0.0)
        assert [(s.start_s, s.end_s) for s in segs] == [(0.0, 0.3), (1.5, 1.8)]

    def test_gap_exactly_max_gap_merges(self):
        segs = realign_segments(_words([(0.0, 0.3), (0.8, 1.0)]), 0.5, 0.0)
        assert len(segs) == 1

    def test_short_segments_dropped(self):
        segs = realign_segments(_words([(0.0, 0.2), (5.0, 6.0)]), 0.5, 0.5)
        assert [(s.start_s, s.end_s) for s in segs] == [(5.0, 6.0)]

    def test_empty_input(self):
        assert realign_segments([], 0.5, 0.5) == []

    def test_unsorted_rejected(self):
        with pytest.raises(UnsortedInput):
            realign_segments(_words([(1.0, 1.2), (0.0, 0.3)]), 0.5, 0.0)

    def test_negative_threshold_rejected(self):
        with pytest.raises(InvalidConfig):
            realign_segments([], -0.1, 0.5)

    def test_overlapping_words_merge(self):
        segs = realign_segments(_words([(0.0, 1.0), (0.5, 0.7)]), 0.1, 0.0)
        assert [(s.start_s, s.end_s) for s in segs] == [(0.0, 1.0)]

    def test_random_streams_gap_property(self):
        # Every output-internal gap must exceed max_gap, checked by brute
        # scan, and a nonempty stream with min_dur 0 yields >= 1 segment.
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            starts = np.cumsum(rng.uniform(0.0, 1.5, size=n))
            durs = rng.uniform(0.05, 0.8, size=n)
            words = _words(list(zip(starts, starts + durs)))
            max_gap = float(rng.uniform(0.05, 1.0))
            segs = realign_segments(words, max_gap, 0.0)
            assert len(segs) >= 1
            for a, b in zip(segs, segs[1:]):
                assert b.start_s - a.end_s > max_gap
            total = sum(s.duration_s for s in segs)
            span = max(w.end_s for w in words) - words[0].start_s
            assert total <= span + 1e-9

    @given(
        st.lists(
            st.tuples(
                st.floats(0.0, 2.0, allow_nan=False),
                st.floats(0.05, 1.0, allow_nan=False),
            ),
            min_size=1,
            max_size=30,
        ),
        st.floats(0.01, 1.0, allow_nan=False),
        st.floats(0.01, 1.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_wider_gap_never_adds_segments(self, steps, gap_small, gap_extra):
        t = 0.0
        spans = []
        for delta, dur in steps:
            t += delta
            spans.append((t, t + dur))
            t += dur
        words = _words(spans)
        few = realign_segments(words, gap_small + gap_extra, 0.0)
        many = realign_segments(words, gap_small, 0.0)
        assert len(few) <= len(many)


def _manifest(label, n_sources, files_per_source=2):
    return [
        ManifestEntry(f"{label}/{s}/{k}.wav", label, f"{label}-src{s:03d}")
        for s in range(n_sources)
        for k in range(files_per_source)
    ]


def _source_ids(entries):
    return {e.source_id for e in entries}


class TestBuildDataset:
    def test_stratified_fractions(self):
        speech = _manifest("speech", 100)
        noise = _manifest("noise", 100)
        train, ev = build_dataset(speech, noise, split_fraction=0.9, seed=3)
        for label in ("speech", "noise"):
            tr = {e.source_id for e in train if e.label == label}
            ew = {e.source_id for e in ev if e.label == label}
            assert abs(len(tr) - 90) <= 1
            assert abs(len(ew) - 10) <= 1
            assert not tr & ew

    def test_no_source_straddles(self):
        speech = _manifest("speech", 17, files_per_source=3)
        noise = _manifest("noise", 9, files_per_source=3)
        train, ev = build_dataset(speech, noise, split_fraction=0.7, seed=0)
        assert not _source_ids(train) & _source_ids(ev)
        assert _source_ids(train) | _source_ids(ev) == _source_ids(
            speech
        ) | _source_ids(noise)
        assert len(train) + len(ev) == len(speech) + len(noise)

    def test_extreme_fraction_keeps_one_source_each_side(self):
        speech = _manifest("speech", 2)
        noise = _manifest("noise", 2)
        try:
            train, ev = build_dataset(speech, noise, split_fraction=0.999, seed=1)
        except InsufficientSources:
            return
        for label in ("speech", "noise"):
            assert any(e.label == label for e in train)
            assert any(e.label == label for e in ev)

    def test_single_source_class_rejected(self):
        speech = _manifest("speech", 1)
        noise = _manifest("noise", 5)
        with pytest.raises(InsufficientSources):
            build_dataset(speech, noise, split_fraction=0.5, seed=0)

    def test_empty_class_rejected(self):
        with pytest.raises(EmptyClass):
            build_dataset([], _manifest("noise", 3), split_fraction=0.5, seed=0)

    def test_bad_fraction_rejected(self):
        speech = _manifest("speech", 4)
        noise = _manifest("noise", 4)
        for frac in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(InvalidConfig):
                build_dataset(speech, noise, split_fraction=frac, seed=0)

    def test_determinism(self):
        speech = _manifest("speech", 20)
        noise = _manifest("noise", 20)
        a = build_dataset(speech, noise, split_fraction=0.8, seed=42)
        b = build_dataset(speech, noise, split_fraction=0.8, seed=42)
        assert a == b

    def test_seeds_differ(self):
        speech = _manifest("speech", 40)
        noise = _manifest("noise", 40)
        a = build_dataset(speech, noise, split_fraction=0.5, seed=0)
        b = build_dataset(speech, noise, split_fraction=0.5, seed=1)
        assert a != b

    def test_mixed_label_manifest_rejected(self):
        speech = _manifest("speech", 3) + _manifest("noise", 1)
        with pytest.raises(InvalidConfig):
            build_dataset(speech, _manifest("noise", 3), 0.5, 0)


class TestFileFormats:
    def test_ctm_roundtrip_grouping(self, tmp_path):
        p = tmp_path / "a.ctm"
        p.write_text(
            ";; comment\n"
            "ep1 1 0.00 0.30 hello\n"
            "ep2 1 2.00 0.50 world\n"
            "ep1 1 0.40 0.20 there\n",
            encoding="utf-8",
        )
        table = read_ctm(p)
        assert sorted(table) == ["ep1", "ep2"]
        ep1 = table["ep1"]
        assert [w.word for w in ep1] == ["hello", "there"]
        assert ep1[1].start_s == pytest.approx(0.40)
        assert ep1[1].end_s == pytest.approx(0.60)
        assert table["ep2"][0].file_id == "ep2"

    def test_ctm_short_row_rejected(self, tmp_path):
        p = tmp_path / "bad.ctm"
        p.write_text("ep1 1 0.0 0.3\n", encoding="utf-8")
        with pytest.raises(InvalidConfig):
            read_ctm(p)

    @pytest.mark.parametrize("row", [
        "ep1 1 abc 0.30 the",    # start does not parse
        "ep1 1 0.50 x the",      # duration does not parse
        "ep1 1 0.50 -0.30 the",  # reversed
        "ep1 1 nan 0.30 the",
        "ep1 1 0.50 inf the",    # infinite duration
        "ep1 1 -inf 1.00 the",
    ])
    def test_ctm_bad_time_names_the_line(self, tmp_path, row):
        p = tmp_path / "bad.ctm"
        p.write_text("ep1 1 0.00 0.30 a\n" + row + "\n", encoding="utf-8")
        with pytest.raises(InvalidConfig, match=re.escape(f"{p}:2:")):
            read_ctm(p)

    def test_manifest_roundtrip(self, tmp_path):
        entries = _manifest("speech", 3) + _manifest("noise", 2)
        p = tmp_path / "m.tsv"
        write_manifest(entries, p)
        assert read_manifest(p) == entries

    def test_manifest_bad_field_count(self, tmp_path):
        p = tmp_path / "m.tsv"
        p.write_text("a.wav\tspeech\n", encoding="utf-8")
        with pytest.raises(InvalidConfig):
            read_manifest(p)

    def test_manifest_bad_label(self, tmp_path):
        p = tmp_path / "m.tsv"
        p.write_text("a.wav\tmusic\tsrc1\n", encoding="utf-8")
        with pytest.raises(InvalidConfig):
            read_manifest(p)

    def test_manifest_path_with_nul(self, tmp_path):
        # open() would raise ValueError on it, a traceback at the CLI
        p = tmp_path / "m.tsv"
        p.write_text("a.wav\tspeech\tsrc1\n\0b.wav\tnoise\tsrc2\n",
                     encoding="utf-8")
        with pytest.raises(InvalidConfig, match=re.escape(f"{p}:2:")):
            read_manifest(p)

    def test_word_alignment_validation(self):
        with pytest.raises(InvalidConfig):
            WordAlignment("bad", 1.0, 1.0, "f1")
        with pytest.raises(InvalidConfig, match="finite"):
            WordAlignment("bad", 1.0, float("inf"), "f1")
