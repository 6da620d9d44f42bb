"""Synthetic audio corpora shared by pipeline and acceptance tests.

Training clips come in four kinds, cycled: pure speech proxy, pure tone,
proxy-then-tone, and tone-then-proxy. Mixed clips are labeled by their
majority content (speech iff the proxy covers more than half the clip),
so a classifier trained on them learns to call boundary-straddling
windows by what dominates, which keeps segment edges within one stride
of the truth.

extensible_wav rewraps a plain WAV for the reader tests.
"""
import struct

import numpy as np

from speechseg.frontend import AudioBuffer, apply_cmvn, compute_mfcc
from speechseg.synth import DEFAULT_SAMPLE_RATE, make_speech_proxy, make_tone
from speechseg.xvector import WINDOW_S, extract_sequence

CLIP_S = WINDOW_S  # one clip is one window of xvector's fixed grid


def embed_clip(net, audio):
    """Single embedding of a window-sized clip."""
    return extract_sequence(net, apply_cmvn(compute_mfcc(audio)))[0]


def training_embeddings(net, n_per_class, seed=0):
    """(x, labels): one float64 embedding row per clip and its label."""
    rng = np.random.default_rng(seed)
    rows, labels = [], []
    have = {"speech": 0, "noise": 0}
    i = 0
    while min(have.values()) < n_per_class:
        i += 1
        kind = i % 4
        freq = float(rng.uniform(200.0, 3000.0))
        if kind == 0:
            audio = make_speech_proxy(CLIP_S, seed=10_000 + i)
            label = "speech"
        elif kind == 1:
            audio = make_tone(CLIP_S, freq_hz=freq)
            label = "noise"
        else:
            a = float(rng.choice([0.25, 0.5, 1.0, 1.25]))
            proxy = make_speech_proxy(
                a if kind == 2 else CLIP_S - a, seed=20_000 + i
            )
            tone = make_tone(CLIP_S - proxy.duration_s, freq_hz=freq)
            first, second = (proxy, tone) if kind == 2 else (tone, proxy)
            audio = AudioBuffer(
                np.concatenate([first.samples, second.samples]),
                DEFAULT_SAMPLE_RATE,
            )
            label = "speech" if proxy.duration_s > CLIP_S / 2 else "noise"
        if have[label] < n_per_class:
            rows.append(embed_clip(net, audio).values)
            labels.append(label)
            have[label] += 1
    return np.stack(rows).astype(np.float64), labels


def extensible_wav(plain: bytes, fmt_size=40, subformat_tag=None) -> bytes:
    """Rewrap a canonical 44-byte-header WAV as WAVE_FORMAT_EXTENSIBLE.

    The fmt chunk is cut to fmt_size bytes; the SubFormat GUID carries
    subformat_tag (default: the plain file's own format tag).
    """
    tag, channels, rate, byte_rate, align, bits = struct.unpack_from(
        "<HHIIHH", plain, 20
    )
    guid = struct.pack("<H", subformat_tag or tag) + bytes.fromhex(
        "000000001000800000aa00389b71"
    )
    fmt = struct.pack(
        "<HHIIHHHHI", 0xFFFE, channels, rate, byte_rate, align, bits,
        22, bits, 4,
    ) + guid
    fmt = fmt[:fmt_size]
    data = plain[36:]
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt + data
    return b"RIFF" + struct.pack("<I", len(body)) + body
