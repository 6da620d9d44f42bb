"""Fuzzing of every file reader: a malformed file ends in a SpeechSegError.

Each reader gets a small valid file with bytes flipped, cut or inserted,
and arbitrary bytes. For the two checksummed binary formats the mutated
body is also resealed with a fresh CRC32, so the parser behind the
checksum sees the damage too. The reader must return a value or raise a
SpeechSegError; any other exception is a traceback at the CLI.
"""
import struct
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from speechseg.classifier import CalibratedLinearModel, load_model, save_model
from speechseg.dataprep import read_ctm, read_manifest
from speechseg.errors import SpeechSegError
from speechseg.frontend import AudioBuffer, read_wav, write_wav
from speechseg.metrics import read_condition_labels, read_transcripts
from speechseg.segments import read_tsv
from speechseg.xvector import (
    EMBEDDING_DIM,
    AffineLayer,
    RECORD,
    StatsPool,
    XVectorNet,
    load_archive,
    load_weights,
    save_archive,
    save_weights,
)

from corpus import extensible_wav


def tiny_net():
    rng = np.random.default_rng(0)

    def affine(kind, offsets, d_in, d_out):
        return AffineLayer(
            kind, offsets, d_in, d_out,
            rng.standard_normal((d_out, d_in * len(offsets))),
            rng.standard_normal(d_out), np.zeros(d_out), np.ones(d_out),
        )

    return XVectorNet((
        affine("frame", (-1, 0, 1), 2, 3), StatsPool(),
        affine("segment", (0,), 6, 4),
    ))


READERS = {
    "read_wav": read_wav, "read_wav_extensible": read_wav,
    "load_weights": load_weights,
    "load_archive": load_archive, "load_model": load_model,
    "read_tsv": read_tsv, "read_ctm": read_ctm,
    "read_manifest": read_manifest,
    "read_condition_labels": read_condition_labels,
    "read_transcripts": read_transcripts,
}
CHECKSUMMED = ("load_weights", "load_archive")


@pytest.fixture(scope="module")
def valid_dir(tmp_path_factory):
    """One valid file per reader, named after the reader."""
    d = tmp_path_factory.mktemp("valid")
    write_wav(AudioBuffer(np.linspace(-0.5, 0.5, 80), 8000), d / "read_wav")
    (d / "read_wav_extensible").write_bytes(
        extensible_wav((d / "read_wav").read_bytes())
    )
    save_weights(tiny_net(), d / "load_weights")
    save_archive(
        np.array([(0.0, 1.5, np.full(EMBEDDING_DIM, 0.25)),
                  (0.75, 2.25, np.full(EMBEDDING_DIM, -0.5))], RECORD),
        d / "load_archive",
    )
    save_model(
        CalibratedLinearModel(np.array([0.5, -0.25, 1.0]), 0.1, -2.0, 0.3),
        d / "load_model",
    )
    for name, text in [
        ("read_tsv", "0.000\t1.500\tspeech\n1.500\t2.000\tnoise\n"),
        ("read_ctm", "rec1 1 0.50 0.30 the\nrec1 1 0.85 0.40 quick\n"),
        ("read_manifest", "a.wav\tspeech\tsrc1\nb.wav\tnoise\tsrc2\n"),
        ("read_condition_labels",
         "0.0\t1.0\tclean_speech\n1.0\t2.5\tno_speech\n"),
        ("read_transcripts", "rec1\tthe quick fox\nrec2\tjumps\n"),
    ]:
        (d / name).write_text(text, encoding="utf-8")
    return d


def flip(data, edits):
    out = bytearray(data)
    for at, mask in edits:
        out[at % len(out)] ^= mask
    return bytes(out)


def mutations(valid: bytes):
    n = len(valid)
    return st.one_of(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, 255)),
                 min_size=1, max_size=4).map(lambda e: flip(valid, e)),
        st.integers(0, n - 1).map(lambda k: valid[:k]),
        st.tuples(st.integers(0, n), st.binary(min_size=1, max_size=12)).map(
            lambda t: valid[: t[0]] + t[1] + valid[t[0]:]),
        st.binary(max_size=64),
    )


def reseal(data: bytes) -> bytes:
    body = data[:-4]
    return body + struct.pack("<I", zlib.crc32(body))


def test_valid_files_read(valid_dir):
    for name, reader in READERS.items():
        assert reader(valid_dir / name), name


@pytest.mark.parametrize("name", list(READERS))
@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_malformed_file_is_a_named_error(valid_dir, tmp_path, name, data):
    raw = data.draw(mutations((valid_dir / name).read_bytes()))
    if name in CHECKSUMMED and len(raw) >= 4 and data.draw(st.booleans()):
        raw = reseal(raw)
    path = tmp_path / name
    path.write_bytes(raw)
    try:
        READERS[name](path)
    except SpeechSegError:
        pass
