"""Correctness gate and quality figures, run after the timed passes.

Three checks per input:
1. sampled windows (first, middle and last of each file) recomputed by
   the layer-by-layer oracle in tests/reference.py from the package's
   CMVN features, at the oracle tolerances rtol=1e-5, atol=1e-8;
2. every artifact parses back, decisions.log has one line per .xvec
   record, and the segments are sorted and lie inside the file;
3. every pass of one run wrote byte-identical artifacts.

An input fails in a pass when that pass exited non-zero or one of the
checks fails for it.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
from reference import ref_forward_xvector
from speechseg.baseline import FrameDecisionTrack
from speechseg.classifier import load_model
from speechseg.errors import SpeechSegError
from speechseg.frontend import apply_cmvn, compute_mfcc, read_wav
from speechseg.metrics import (
    condition_frames,
    frame_vad_eval,
    rasterize,
    read_condition_labels,
)
from speechseg.segments import read_tsv
from speechseg.xvector import StatsPool, extract_sequence, load_archive, load_weights

RTOL, ATOL = 1e-5, 1e-8
FRAME_PERIOD_S = 0.010
SEGMENT_ARTIFACTS = (".seg.tsv", ".rttm", ".xvec", ".decisions.log")


class GateResult:
    def __init__(self, inputs: int, passes: int):
        self.attempted = inputs * passes
        self.failed = 0
        self.problems: list[str] = []
        self.tpr: float | None = None
        self.fpr: float | None = None

    def fail(self, count: int, why: str):
        self.failed += count
        self.problems.append(why)


def plain_layers(net) -> list:
    """The net in the plain-array form the oracle takes."""
    return [
        "pool" if isinstance(layer, StatsPool) else dict(
            kind=layer.kind, offsets=layer.offsets, weight=layer.weight,
            bias=layer.bias, bn_mean=layer.bn_mean, bn_var=layer.bn_var,
        )
        for layer in net.layers
    ]


def features(path: str):
    return apply_cmvn(compute_mfcc(read_wav(path)))


def oracle_agrees(layers, feats, vectors) -> bool:
    """First, middle and last window match the oracle on their frames."""
    shift = feats.frame_shift_s
    for i in sorted({0, len(vectors) // 2, len(vectors) - 1}):
        v = vectors[i]
        a = round(v.window_start_s / shift)
        b = min(round(v.window_end_s / shift), feats.num_frames)
        want = ref_forward_xvector(layers, feats.rows[a:b])
        if not np.allclose(v.values, want, rtol=RTOL, atol=ATOL):
            return False
    return True


def _digest(path: Path, pass_dir: Path) -> str:
    data = path.read_bytes()
    if path.name == "report.json":  # holds the pass directory's own paths
        data = data.replace(str(pass_dir).encode(), b"{out}")
    return hashlib.sha256(data).hexdigest()


def _segments_ok(files, pass_dir: Path) -> dict[str, str]:
    """Check 2 for one pass: file id -> problem, for the files failing it."""
    try:
        report = json.loads((pass_dir / "report.json").read_text())
        reported = {f["id"]: f for f in report["files"]}
    except (OSError, ValueError, KeyError, TypeError) as e:
        return {f["id"]: f"report does not parse: {e}" for f in files}
    bad = {}
    for f in files:
        fid = f["id"]
        try:
            segs = read_tsv(pass_dir / f"{fid}.seg.tsv")
            records = load_archive(pass_dir / f"{fid}.xvec")
            log = (pass_dir / f"{fid}.decisions.log").read_text().splitlines()
            rttm = (pass_dir / f"{fid}.rttm").read_text().splitlines()
        except (OSError, ValueError, SpeechSegError) as e:
            bad[fid] = f"artifact does not parse: {e}"
            continue
        keys = [(s.start_s, s.end_s, s.label) for s in segs]
        if len(log) != len(records):
            bad[fid] = f"{len(log)} log lines for {len(records)} records"
        elif keys != sorted(keys):
            bad[fid] = "segments not sorted"
        elif segs and (segs[0].start_s < 0 or max(s.end_s for s in segs)
                       > f["duration_s"] + 1e-9):
            bad[fid] = "segment outside the file"
        elif len(rttm) != len(segs):
            bad[fid] = f"{len(rttm)} rttm lines for {len(segs)} segments"
        elif reported.get(fid, {}).get("segments") != len(segs):
            bad[fid] = "report disagrees with the segment file"
    return bad


def segment_gate(spec: dict, dirs: list[Path], codes: list[int]) -> GateResult:
    files = spec["files"]
    res = GateResult(len(files), len(dirs))
    good = [d for d, rc in zip(dirs, codes) if rc == 0]
    for d, rc in zip(dirs, codes):
        if rc != 0:
            res.fail(len(files), f"{d.name}: exit code {rc}")
    if not good:
        return res
    ref = good[0]
    ref_digests = {p.name: _digest(p, ref) for p in ref.iterdir()}
    failing: dict[str, dict] = {f["id"]: {} for f in files}  # id -> pass -> why
    for d in good:
        bad = _segments_ok(files, d)
        report_same = _digest(d / "report.json", d) == ref_digests["report.json"]
        for fid, why in failing.items():
            names = [fid + ext for ext in SEGMENT_ARTIFACTS]
            if fid in bad:
                why[d.name] = bad[fid]
            elif not report_same or any(
                _digest(d / n, d) != ref_digests.get(n) for n in names
            ):
                why[d.name] = f"artifacts differ from {ref.name}"

    # segments are scored only when the reference pass wrote sound ones
    scoreable = not any(ref.name in why for why in failing.values())
    layers = plain_layers(load_weights(spec["net"]))
    for f in files:
        if ref.name in failing[f["id"]]:
            continue
        records = load_archive(ref / f"{f['id']}.xvec")
        if records and not oracle_agrees(layers, features(f["wav"]), records):
            # identical artifacts carry the disagreement into every pass
            failing[f["id"]].update(
                {d.name: "windows disagree with the oracle" for d in good})
    for fid, why in failing.items():
        for name, text in sorted(why.items()):
            res.fail(1, f"{name}/{fid}: {text}")
    if scoreable:
        hyp, truth = [], []
        for f in files:
            segs = read_tsv(ref / f"{f['id']}.seg.tsv")
            hyp.append(
                rasterize(segs, FRAME_PERIOD_S, f["duration_s"]).decisions)
            truth += condition_frames(read_condition_labels(f["cond"]),
                                      FRAME_PERIOD_S, f["duration_s"])
        report = frame_vad_eval(
            FrameDecisionTrack(np.concatenate(hyp), FRAME_PERIOD_S), truth)
        res.tpr, res.fpr = report.tpr_all, report.fpr
    return res


def train_gate(spec: dict, dirs: list[Path], codes: list[int]) -> GateResult:
    """The clips of a pass all fail with it: its model is one artifact."""
    clips = spec["clips"]
    res = GateResult(clips, len(dirs))
    why: dict[str, str] = {}  # pass -> first failing check
    for d, rc in zip(dirs, codes):
        if rc != 0:
            why[d.name] = f"exit code {rc}"
            continue
        try:
            load_model(d / "model.json")
            json.loads((d / "report.json").read_text())
        except (OSError, ValueError, KeyError, SpeechSegError) as e:
            why[d.name] = f"artifact does not parse: {e}"
    good = [d for d in dirs if d.name not in why]
    if good:
        ref = good[0]
        for d in good[1:]:
            if any(_digest(d / n, d) != _digest(ref / n, ref)
                   for n in ("model.json", "report.json")):
                why[d.name] = f"artifacts differ from {ref.name}"
        net = load_weights(spec["net"])
        layers = plain_layers(net)
        model = load_model(ref / "model.json")
        heldout = spec["heldout"]
        sampled = {0, len(heldout) // 2, len(heldout) - 1}
        counts = {"speech": [0, 0], "noise": [0, 0]}  # [windows, called speech]
        for i, item in enumerate(heldout):
            feats = features(item["wav"])
            vectors = extract_sequence(net, feats)
            if i in sampled and not oracle_agrees(layers, feats, vectors):
                for d in good:
                    why.setdefault(d.name, f"held-out clip {i}: windows "
                                   "disagree with the oracle")
            for v in vectors:
                counts[item["label"]][0] += 1
                counts[item["label"]][1] += (
                    model.probability(v.values) >= model.decision_threshold)
        res.tpr = counts["speech"][1] / counts["speech"][0]
        res.fpr = counts["noise"][1] / counts["noise"][0]
    for name, text in sorted(why.items()):
        res.fail(clips, f"{name}: {text}")
    return res
