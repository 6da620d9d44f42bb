"""Seeded benchmark inputs: recordings with ground truth, labeled clips,
the TDNN net and the trained model.

Everything here is numpy and the standard library, so the inputs stay
byte-stable per seed whatever the package under test does; only the net
and the model come from the package itself (its `gen-test-model` and
`train` subcommands), because they are program artifacts.

Recordings are built from a fixed 60 s block of speech-proxy, tone and
digital-silence regions, shuffled differently in every block. The seed
draws the speech content; the order of the regions, the tones' frequency
and level, the net and the model are the same for every seed. So every
seed gives inputs of the same size and layout, which keeps the timings
and the tpr/fpr figures comparable across seeds: with seeded tones,
layouts and nets, the share of tone frames called speech moved fpr by up
to 20% from seed to seed.

Clips follow the four kinds of the test corpus, cycled: speech proxy,
tone, proxy-then-tone and tone-then-proxy, each 1.5 s, a mixed clip
labeled by its majority content.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import struct
from pathlib import Path

import numpy as np

SAMPLE_RATE = 16000
CLIP_S = 1.5
_SPLITS = (0.25, 0.5, 1.0, 1.25)  # proxy/tone split points of mixed clips
_FORMANTS = ((500.0, 180.0), (1500.0, 300.0), (2500.0, 450.0))

# One 60 s block of regions: (kind, seconds). 34 s speech, 18 s tone,
# 8 s digital silence; boundaries mostly off the 0.75 s window stride.
BLOCK = (
    [("speech", s) for s in (3.0, 4.5, 6.0, 3.5, 5.0, 4.0, 2.5, 5.5)]
    + [("tone", s) for s in (2.5, 4.0, 3.0, 5.0, 3.5)]
    + [("silence", s) for s in (2.0, 1.5, 3.0, 1.5)]
)

# Manifest labels must be speech/noise; recordings are unlabeled inputs.
_REC_LABEL = "speech"

# (files, blocks per file, net preset) per recording set
RECORDING_SETS = {"rec": (4, 1, "standard"), "long": (1, 20, "small")}
TRAIN_CLIPS = 400     # clips-train manifest
HELDOUT_CLIPS = 400   # held-out clips scoring the trained model
MODEL_CLIPS = 160     # clips training the model the segment workloads use
FIXED_SEED = 1000     # layout, tones, net and model ignore the run's seed


# -----------------------------------------------------------------------------
# Signals
# -----------------------------------------------------------------------------

def speech_proxy(rng: np.random.Generator, n: int) -> np.ndarray:
    """Formant-shaped noise with a syllable-rate envelope."""
    spectrum = np.fft.rfft(rng.standard_normal(n))
    freqs = np.fft.rfftfreq(n, 1.0 / SAMPLE_RATE)
    shape = np.zeros_like(freqs)
    for center, width in _FORMANTS:
        shape += np.exp(-0.5 * ((freqs - center) / width) ** 2)
    shape /= 1.0 + np.exp((freqs - 4000.0) / 400.0)
    x = np.fft.irfft(spectrum * shape, n)
    t = np.arange(n) / SAMPLE_RATE
    rate, phase = rng.uniform(3.0, 7.0), rng.uniform(0.0, 2.0 * np.pi)
    x *= 0.35 + 0.65 * (0.5 + 0.5 * np.sin(2.0 * np.pi * rate * t + phase))
    return x * (rng.uniform(0.2, 0.4) / max(np.abs(x).max(), 1e-12))


def tone(params: np.random.Generator, n: int) -> np.ndarray:
    freq, amp = params.uniform(200.0, 3000.0), params.uniform(0.1, 0.3)
    return amp * np.sin(2.0 * np.pi * freq * np.arange(n) / SAMPLE_RATE)


def write_wav(path: Path, samples: np.ndarray) -> None:
    """Mono PCM16 RIFF/WAVE."""
    pcm = np.clip(np.round(samples * 32768.0), -32768, 32767).astype("<i2")
    payload = pcm.tobytes()
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(payload), b"WAVE", b"fmt ",
        16, 1, 1, SAMPLE_RATE, 2 * SAMPLE_RATE, 2, 16, b"data", len(payload),
    )
    path.write_bytes(header + payload)


def _n(seconds: float) -> int:
    return int(round(seconds * SAMPLE_RATE))


def _fixed(stream: int) -> np.random.Generator:
    """Layout and tone parameters: the same sequence for every seed."""
    return np.random.default_rng([FIXED_SEED, stream])


def recording(rng: np.random.Generator, fixed: np.random.Generator,
              blocks: int, scale: float = 1.0):
    """(samples, speech spans) for `blocks` shuffled copies of BLOCK;
    rng draws the speech, fixed the order of regions and the tones.

    scale shrinks every region, for smoke tests at tiny sizes.
    """
    parts, speech, t = [], [], 0.0
    for _ in range(blocks):
        for k in fixed.permutation(len(BLOCK)):
            kind, seconds = BLOCK[k]
            n = _n(seconds * scale)
            if kind == "speech":
                parts.append(speech_proxy(rng, n))
                speech.append((t, t + n / SAMPLE_RATE))
            elif kind == "tone":
                parts.append(tone(fixed, n))
            else:
                parts.append(np.zeros(n))
            t += n / SAMPLE_RATE
    return np.concatenate(parts), speech


def clip(rng: np.random.Generator, tones: np.random.Generator, i: int):
    """(samples, label) of clip i; the kind cycles with i."""
    kind, split = i % 4, _SPLITS[(i // 4) % 4]
    n = _n(CLIP_S)
    if kind == 0:
        return speech_proxy(rng, n), "speech"
    if kind == 1:
        return tone(tones, n), "noise"
    proxy_n = _n(split) if kind == 2 else n - _n(split)
    proxy = speech_proxy(rng, proxy_n)
    rest = tone(tones, n - proxy_n)
    samples = np.concatenate([proxy, rest] if kind == 2 else [rest, proxy])
    return samples, "speech" if 2 * proxy_n > n else "noise"


# -----------------------------------------------------------------------------
# Cached input sets. Paths are relative to the working directory (the
# checkout root), so manifests and indexes are byte-stable per seed.
# -----------------------------------------------------------------------------

def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def _build(dest: Path, make) -> dict:
    """Run make(tmp_dir) once per destination; the index survives runs."""
    index = dest / "index.json"
    if index.exists():
        return json.loads(index.read_text())
    tmp = dest.with_name(dest.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    info = make(tmp)
    whole = hashlib.sha256()
    for p in sorted(p for p in tmp.iterdir() if p.is_file()):
        whole.update(p.name.encode() + b"\0" + _digest(p).encode())
    info["digest"] = whole.hexdigest()[:16]
    (tmp / "index.json").write_text(json.dumps(info, indent=1, sort_keys=True))
    shutil.rmtree(dest, ignore_errors=True)
    os.replace(tmp, dest)
    return json.loads(index.read_text())


def keep_only(cache: Path, seed: int) -> None:
    """Drop other seeds' inputs, so the cache holds one seed at a time."""
    for d in cache.glob("seed-*"):
        if d.name != f"seed-{seed}":
            shutil.rmtree(d)


def recordings(cache: Path, name: str, seed: int,
               scale: float = 1.0) -> dict:
    files, blocks, _ = RECORDING_SETS[name]
    dest = cache / f"seed-{seed}" / f"{name}-x{scale:g}"

    def make(tmp):
        rng = np.random.default_rng([seed, 1, files, blocks])
        fixed = _fixed(1)
        items, lines = [], []
        for f in range(files):
            samples, speech = recording(rng, fixed, blocks, scale)
            wav = tmp / f"{name}{f}.wav"
            write_wav(wav, samples)
            cond = tmp / f"{name}{f}.cond.tsv"
            cond.write_text("".join(
                f"{a:.6f}\t{b:.6f}\tclean_speech\n" for a, b in speech
            ))
            path = str(dest / wav.name)
            lines.append(f"{path}\t{_REC_LABEL}\t{name}{f}\n")
            items.append({
                "id": wav.stem, "wav": path,
                "cond": str(dest / cond.name),
                "duration_s": len(samples) / SAMPLE_RATE,
            })
        (tmp / "manifest.tsv").write_text("".join(lines))
        return {"files": items, "manifest": str(dest / "manifest.tsv")}

    return _build(dest, make)


def clips(cache: Path, name: str, seed: int, count: int,
          stream: int) -> dict:
    """count labeled clips plus their manifest; stream separates the
    training set from the held-out set of the same seed."""
    dest = cache / f"seed-{seed}" / f"{name}-n{count}"

    def make(tmp):
        rng = np.random.default_rng([seed, 2, stream])
        tones = _fixed(2 + stream)
        lines, items = [], []
        for i in range(count):
            samples, label = clip(rng, tones, i)
            wav = tmp / f"{name}{i:04d}.wav"
            write_wav(wav, samples)
            path = str(dest / wav.name)
            lines.append(f"{path}\t{label}\t{name}-src{i % 25}\n")
            items.append({"wav": path, "label": label})
        (tmp / "manifest.tsv").write_text("".join(lines))
        return {"files": items, "manifest": str(dest / "manifest.tsv"),
                "duration_s": count * CLIP_S}

    return _build(dest, make)


def net_and_model(cache: Path, preset: str, model_clips: int, main) -> dict:
    """The net and a model trained on a fixed clip set through the
    package's CLI (`main`); built once, then cached."""
    dest = cache / f"model-{preset}-n{model_clips}"

    def make(tmp):
        train_set = clips(tmp, "mclip", FIXED_SEED, model_clips, stream=3)
        net = tmp / "net.xvnw"
        model = tmp / "model.json"
        for argv in (
            ["gen-test-model", "--out", str(net), "--seed", str(FIXED_SEED),
             "--preset", preset],
            ["train", "--manifest", train_set["manifest"], "--net", str(net),
             "--out", str(model)],
        ):
            if _quiet_main(main, argv) != 0:
                raise RuntimeError(f"input build failed: {' '.join(argv)}")
        return {"net": str(dest / "net.xvnw"),
                "model": str(dest / "model.json")}

    return _build(dest, make)


def _quiet_main(main, argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)
