"""End-to-end tests for the subcommand CLI.

Everything runs in-process through cli.main so exit codes and streams
are observable directly; one test goes through the installed console
script to prove the packaging wiring. Reports are validated against the
schemas shipped inside the package.
"""
import csv
import json
import os
import re
import struct
import subprocess
import zlib
import sys
import tracemalloc
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from speechseg.classifier import load_model
from speechseg.cli import COMMANDS, main
from speechseg.dataprep import read_ctm, read_manifest
from speechseg.errors import UnsupportedEncoding
from speechseg.frontend import (
    AudioBuffer,
    apply_cmvn,
    compute_mfcc,
    read_wav,
    write_wav,
)
from speechseg.metrics import read_condition_labels, read_transcripts
from speechseg.segments import read_tsv
from speechseg.synth import make_speech_proxy
from speechseg.xvector import (
    WEIGHTS_MAGIC,
    WEIGHTS_VERSION,
    extract_sequence,
    load_archive,
    load_weights,
    make_test_net,
    save_archive,
    save_weights,
)

from test_readers import (  # noqa: F401
    CHECKSUMMED,
    flip,
    mutations,
    reseal,
    valid_dir,
)


def run(argv):
    """Exit code for one invocation; argparse exits become codes too."""
    try:
        return main(list(argv))
    except SystemExit as e:
        return e.code if e.code is not None else 0


def validate_report(doc):
    schema = json.loads(
        resources.files("speechseg.schemas")
        .joinpath(f"{doc['command']}.json")
        .read_text(encoding="utf-8")
    )
    jsonschema.validate(doc, schema)


@pytest.fixture()
def run_json(capsys):
    """Invoke, demand success, parse and schema-check the report."""

    def invoke(argv):
        code = run(argv)
        out, err = capsys.readouterr()
        assert code == 0, f"exit {code}: {err}"
        doc = json.loads(out)
        validate_report(doc)
        return doc

    return invoke


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """Shared workspace: net weights, a mixed fixture, a labeled clip
    manifest, and a classifier trained from it through the CLI."""
    d = tmp_path_factory.mktemp("cliwork")
    assert run(["gen-test-model", "--out", str(d / "net.xvnw"),
                "--seed", "7", "--preset", "small"]) == 0
    assert run(["gen-test-audio", "--out", str(d / "mix.wav"),
                "--kind", "speech_then_tone", "--seed", "5"]) == 0
    lines = []
    for i in range(8):
        sp = d / f"sp{i}.wav"
        tn = d / f"tn{i}.wav"
        assert run(["gen-test-audio", "--out", str(sp), "--kind", "speech",
                    "--duration", "1.5", "--seed", str(100 + i)]) == 0
        assert run(["gen-test-audio", "--out", str(tn), "--kind", "tone",
                    "--duration", "1.5", "--freq", str(300 + 350 * i)]) == 0
        lines.append(f"{sp}\tspeech\tsp{i}")
        lines.append(f"{tn}\tnoise\ttn{i}")
    (d / "train.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run(["train", "--manifest", str(d / "train.tsv"),
                "--net", str(d / "net.xvnw"),
                "--out", str(d / "model.json")]) == 0
    return d


class TestParsing:
    def test_version_banner(self, capsys):
        assert run(["--version"]) == 0
        out = capsys.readouterr().out
        assert "speechseg 0.1.0" in out
        assert "weights 1" in out
        assert "model 1" in out

    def test_console_script_installed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "speechseg.cli", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "speechseg" in proc.stdout

    def test_runtime_imports_only_numpy(self):
        # every package module, imported in a fresh interpreter, may pull
        # in only the standard library and numpy
        import speechseg

        probe = (
            "import pkgutil, sys, importlib\n"
            "before = set(sys.modules)\n"
            "import speechseg\n"
            "for m in pkgutil.iter_modules(speechseg.__path__):\n"
            "    importlib.import_module('speechseg.' + m.name)\n"
            "tops = {n.split('.')[0] for n in set(sys.modules) - before}\n"
            "print(' '.join(sorted(tops)))\n"
        )
        src = str(Path(speechseg.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, check=True)
        tops = set(proc.stdout.split())
        assert {"speechseg", "numpy"} <= tops
        allowed = set(sys.stdlib_module_names) | {"speechseg", "numpy"}
        assert tops <= allowed, sorted(tops - allowed)

    def test_no_subcommand_is_usage_error(self, capsys):
        assert run([]) == 2
        capsys.readouterr()

    def test_bad_choice_names_the_flag(self, work, capsys):
        code = run(["segment", "--strategy", "bogus",
                    "--out", str(work / "x"),
                    "--net", str(work / "net.xvnw"),
                    "--audio", str(work / "mix.wav")])
        err = capsys.readouterr().err
        assert code == 2
        assert "--strategy" in err

    def test_missing_required_flag_named(self, work, capsys):
        code = run(["train", "--manifest", str(work / "train.tsv"),
                    "--net", str(work / "net.xvnw")])
        err = capsys.readouterr().err
        assert code == 2
        assert "--out" in err

    def test_every_subcommand_ships_a_schema(self):
        root = resources.files("speechseg.schemas")
        for name in COMMANDS:
            doc = json.loads(
                root.joinpath(f"{name}.json").read_text(encoding="utf-8")
            )
            assert doc["properties"]["command"] == {"const": name}
            assert doc["additionalProperties"] is False


class TestConfigResolution:
    def hyp_files(self, tmp_path):
        hyp = tmp_path / "hyp.tsv"
        cond = tmp_path / "cond.tsv"
        hyp.write_text("0.000\t4.000\tspeech\n", encoding="utf-8")
        cond.write_text(
            "0.0\t4.0\tclean_speech\n4.0\t10.0\tno_speech\n",
            encoding="utf-8",
        )
        return hyp, cond

    def test_config_overrides_defaults(self, tmp_path, run_json):
        hyp, cond = self.hyp_files(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"period": 0.02}', encoding="utf-8")
        doc = run_json(["eval-vad", "--config", str(cfg),
                        "--hyp", str(hyp), "--conditions", str(cond),
                        "--duration", "10"])
        assert doc["frame_period_s"] == 0.02

    def test_flag_overrides_config(self, tmp_path, run_json):
        hyp, cond = self.hyp_files(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"period": 0.02}', encoding="utf-8")
        doc = run_json(["eval-vad", "--config", str(cfg),
                        "--hyp", str(hyp), "--conditions", str(cond),
                        "--duration", "10", "--period", "0.05"])
        assert doc["frame_period_s"] == 0.05

    def test_config_int_becomes_float(self, tmp_path, run_json):
        hyp, cond = self.hyp_files(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"duration": 10, "hyp": str(hyp),
                        "conditions": str(cond)}),
            encoding="utf-8",
        )
        doc = run_json(["eval-vad", "--config", str(cfg)])
        assert doc["duration_s"] == 10.0

    @pytest.mark.parametrize("command,doc", [
        ("segment", {"jobs": "2"}),
        ("train", {"tolerance": "abc"}),
        ("segment", {"jobs": None}),
        ("train", {"svm_c": True}),
    ], ids=["jobs-str", "tolerance-str", "jobs-null", "svm_c-bool"])
    def test_config_value_of_wrong_type_rejected(self, work, tmp_path,
                                                 capsys, command, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "out"
        code = run([command, "--config", str(cfg), "--out", str(out),
                    "--net", str(work / "net.xvnw"),
                    "--manifest", str(work / "train.tsv")])
        err = capsys.readouterr().err
        assert code == 2
        (key,) = doc
        assert f"config key {key!r} must be" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["extract", "train", "calibrate",
                                         "threshold", "segment", "reduce"])
    @pytest.mark.parametrize("key,value", [
        ("window", 1.5), ("stride", 0.75), ("min_window", 0.5),
    ])
    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_window_grid_is_not_an_option(self, work, tmp_path, capsys,
                                          command, key, value, how):
        # the grid is xvector's WINDOW_S / STRIDE_S / MIN_WINDOW_S; even
        # its own values are refused, by flag and by config key
        argv = invocation(work, tmp_path, command, {})
        if how == "flag":
            flag = "--" + key.replace("_", "-")
            argv += [flag, str(value)]
            named = f"unrecognized arguments: {flag}"
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({key: value}), encoding="utf-8")
            argv += ["--config", str(cfg)]
            named = f"unknown config key {key!r}"
        assert run(argv) == 2
        assert named in capsys.readouterr().err
        assert not list(tmp_path.glob("out*"))

    @pytest.mark.parametrize("command", ["gen-test-model", "gen-test-audio",
                                         "train", "reduce", "split"])
    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_negative_seed_rejected(self, work, tmp_path, capsys, command,
                                    how):
        # np.random.default_rng takes no negative seed
        if command in INVOCATIONS:
            argv = invocation(work, tmp_path, command, {})
        else:
            argv = [command, "--out", str(tmp_path / "out")]
            if command == "gen-test-audio":
                argv += ["--kind", "tone"]
        if how == "flag":
            argv += ["--seed", "-4"]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text('{"seed": -4}', encoding="utf-8")
            argv += ["--config", str(cfg)]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert "usage error: --seed must be at least 0" in err
        assert "Traceback" not in err
        assert not list(tmp_path.glob("out*"))

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        hyp, cond = self.hyp_files(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"perod": 0.02}', encoding="utf-8")
        code = run(["eval-vad", "--config", str(cfg), "--hyp", str(hyp),
                    "--conditions", str(cond), "--duration", "10"])
        err = capsys.readouterr().err
        assert code == 2
        assert "perod" in err

    def test_config_path_with_nul_rejected(self, tmp_path, capsys):
        hyp, cond = self.hyp_files(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"hyp": f"{hyp}\0"}), encoding="utf-8")
        code = run(["eval-vad", "--config", str(cfg),
                    "--conditions", str(cond), "--duration", "10"])
        err = capsys.readouterr().err
        assert code == 2
        assert "usage error: config key 'hyp' holds a NUL character" in err

    def test_config_must_be_object(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]", encoding="utf-8")
        code = run(["eval-wer", "--config", str(cfg),
                    "--ref", "r", "--hyp", "h"])
        assert code == 2
        capsys.readouterr()

    def test_config_must_be_json(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{nope", encoding="utf-8")
        code = run(["eval-wer", "--config", str(cfg),
                    "--ref", "r", "--hyp", "h"])
        assert code == 2
        capsys.readouterr()

    def test_config_must_be_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"seed": "\xff"}')
        code = run(["gen-test-model", "--config", str(cfg),
                    "--out", str(tmp_path / "n.xvnw")])
        err = capsys.readouterr().err
        assert code == 2
        assert "usage error: config is not UTF-8 JSON" in err

    def test_report_flag_writes_same_document(self, tmp_path, capsys):
        ref = tmp_path / "ref.txt"
        ref.write_text("rec1\ta b c\n", encoding="utf-8")
        out = tmp_path / "report.json"
        code = run(["eval-wer", "--ref", str(ref), "--hyp", str(ref),
                    "--report", str(out)])
        stdout = capsys.readouterr().out
        assert code == 0
        assert json.loads(out.read_text(encoding="utf-8")) == json.loads(
            stdout
        )


class TestFrontendCommands:
    def test_mfcc_writes_npy(self, work, tmp_path, run_json):
        out = tmp_path / "mix.npy"
        doc = run_json(["mfcc", "--audio", str(work / "mix.wav"),
                        "--out", str(out)])
        rows = np.load(out)
        assert rows.shape == (doc["frames"], doc["dim"])
        assert doc["dim"] == 30
        assert doc["cmvn"] is True
        expected = apply_cmvn(compute_mfcc(read_wav(work / "mix.wav")))
        assert np.array_equal(rows, expected.rows)

    def test_mfcc_raw_skips_normalization(self, work, tmp_path, run_json):
        out = tmp_path / "raw.npy"
        doc = run_json(["mfcc", "--audio", str(work / "mix.wav"),
                        "--out", str(out), "--raw"])
        assert doc["cmvn"] is False
        rows = np.load(out)
        raw = compute_mfcc(read_wav(work / "mix.wav"))
        assert np.array_equal(rows, raw.rows)

    @pytest.mark.parametrize("rate", [45, 55])
    @pytest.mark.parametrize("command", ["mfcc", "extract"])
    def test_sample_rate_below_two_sample_frames(self, work, tmp_path,
                                                 capsys, rate, command):
        # 45 Hz rounds the 10 ms shift to 0 samples, 55 Hz the 25 ms
        # frame to 1 sample (a 0/0 Hamming window)
        wav = tmp_path / f"{rate}.wav"
        write_wav(AudioBuffer(np.sin(np.arange(10.0 * rate)), rate), wav)
        out = tmp_path / "out"
        argv = [command, "--audio", str(wav), "--out", str(out)]
        if command == "extract":
            argv += ["--net", str(work / "net.xvnw")]
        code = run(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert f"InvalidConfig: sample rate {rate} Hz" in err
        assert "Traceback" not in err
        assert not out.exists() or not any(out.iterdir())

    def test_absurd_sample_rate_is_domain_error(self, tmp_path, capsys):
        # a header-only file: the claimed rate is rejected before the
        # front end sizes anything by it
        wav = tmp_path / "fast.wav"
        wav.write_bytes(
            struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36, b"WAVE", b"fmt ",
                        16, 1, 1, 16_777_216, 33_554_432, 2, 16, b"data", 0))
        out = tmp_path / "m.npy"
        code = run(["mfcc", "--audio", str(wav), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert f"InvalidConfig: {wav}: sample rate 16777216 Hz" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_gen_audio_kinds(self, tmp_path, run_json):
        for kind in ("silence", "tone", "noise", "speech"):
            doc = run_json(["gen-test-audio", "--kind", kind,
                            "--out", str(tmp_path / f"{kind}.wav"),
                            "--duration", "0.8"])
            assert doc["duration_s"] == pytest.approx(0.8)
        doc = run_json(["gen-test-audio", "--kind", "speech_then_tone",
                        "--out", str(tmp_path / "m.wav")])
        assert doc["duration_s"] == pytest.approx(10.0)

    def test_gen_audio_beyond_address_space_is_memory_error(self, tmp_path,
                                                             capsys):
        # 1.6e16 float64 samples (114 PiB) exceed the address space, so
        # numpy refuses the array before touching any memory
        code = run(["gen-test-audio", "--kind", "silence", "--duration",
                    "1e12", "--out", str(tmp_path / "x.wav")])
        err = capsys.readouterr().err
        assert code == 1
        assert re.search(r"error: \w*MemoryError: ", err)
        assert "Traceback" not in err
        assert not (tmp_path / "x.wav").exists()

    def test_gen_audio_bad_duration_is_domain_error(self, tmp_path, capsys):
        code = run(["gen-test-audio", "--kind", "tone",
                    "--out", str(tmp_path / "t.wav"), "--duration", "0"])
        err = capsys.readouterr().err
        assert code == 1
        assert "InvalidConfig" in err


def write_layers(path, layers, seed=0):
    """A checksummed weight file of one record per layer, written as
    load_weights reads it, since save_weights needs a valid net. A layer
    is "pool", or (tag, offsets, in_dim, out_dim) for a frame (tag 0) or
    segment (tag 2) layer with random parameters."""
    rng = np.random.default_rng(seed)
    parts = [WEIGHTS_MAGIC, struct.pack("<HH", WEIGHTS_VERSION, len(layers))]
    for layer in layers:
        if layer == "pool":
            parts.append(struct.pack("<B", 1))
            continue
        tag, offsets, d_in, d_out = layer
        parts.append(struct.pack(f"<BB{len(offsets)}hII", tag, len(offsets),
                                 *offsets, d_in, d_out))
        for n in (d_out * d_in * len(offsets), d_out, d_out):
            parts.append(rng.standard_normal(n).astype("<f4").tobytes())
        parts.append(rng.uniform(0.5, 1.5, d_out).astype("<f4").tobytes())
    body = b"".join(parts)
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))


@st.composite
def layer_specs(draw):
    """write_layers specs: frame layers whose offsets may be empty,
    unsorted or repeated, of odd and even widths, a pool, and segment
    layers whose embedding may be other than 512 wide."""
    offsets = st.lists(st.integers(-3, 3), max_size=4).map(tuple)
    d = draw(st.sampled_from([30, 30, 7]))
    layers = []
    for _ in range(draw(st.integers(1, 3))):
        width = draw(st.integers(1, 9))
        layers.append((0, draw(offsets), d, width))
        d = width
    emb = draw(st.sampled_from([512, 512, 16, 3]))
    layers += ["pool", (2, draw(st.sampled_from([(0,), (0,), (1,), ()])),
                        2 * d, emb)]
    if draw(st.booleans()):
        layers.append((2, (0,), emb, draw(st.integers(1, 9))))
    return layers


class TestEmbeddingCommands:
    def test_extract_single_file(self, work, tmp_path, run_json):
        doc = run_json(["extract", "--audio", str(work / "mix.wav"),
                        "--net", str(work / "net.xvnw"),
                        "--out", str(tmp_path / "xv")])
        assert doc["total_windows"] == 13
        vecs = load_archive(doc["files"][0]["out"])
        assert len(vecs) == 13
        assert vecs[0].values.shape == (512,)

    @pytest.mark.parametrize("preset", ["small", "standard"])
    def test_extract_archives_match_per_input_extraction(
            self, work, tmp_path, run_json, preset):
        # every input of a manifest shares one tape; each archive is the
        # one extract_sequence gives that input alone, byte for byte
        net_path = work / "net.xvnw"
        if preset == "standard":
            net_path = tmp_path / "std.xvnw"
            save_weights(make_test_net(7, "standard"), net_path)
        short = tmp_path / "short.wav"
        tail = tmp_path / "tail.wav"
        write_wav(make_speech_proxy(0.3, seed=1), short)
        write_wav(make_speech_proxy(3.2, seed=2), tail)
        paths = [work / "mix.wav", work / "sp0.wav", short, tail,
                 work / "tn0.wav", work / "tn1.wav"]
        man = tmp_path / "man.tsv"
        man.write_text("".join(f"{p}\tspeech\ts{i}\n"
                               for i, p in enumerate(paths)),
                       encoding="utf-8")
        doc = run_json(["extract", "--manifest", str(man),
                        "--net", str(net_path), "--out", str(tmp_path / "xv")])
        assert [f["id"] for f in doc["files"]] == [p.stem for p in paths]
        assert [f["windows"] for f in doc["files"]] == [13, 1, 0, 4, 1, 1]
        net = load_weights(net_path)
        for path, f in zip(paths, doc["files"]):
            alone = tmp_path / "alone.xvec"
            feats = apply_cmvn(compute_mfcc(read_wav(path)))
            save_archive(extract_sequence(net, feats), alone)
            assert Path(f["out"]).read_bytes() == alone.read_bytes(), f["id"]

    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_extract_has_no_jobs(self, work, tmp_path, capsys, how):
        argv = ["extract", "--manifest", str(work / "train.tsv"),
                "--net", str(work / "net.xvnw"), "--out", str(tmp_path / "x")]
        if how == "flag":
            argv += ["--jobs", "2"]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"jobs": 2}), encoding="utf-8")
            argv += ["--config", str(cfg)]
        assert run(argv) == 2
        assert "jobs" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_extract_failing_input(self, work, tmp_path, capsys):
        # the tape reads up to TAP_BATCH windows ahead before it yields a
        # stream, so an input before the failing one may have no archive
        bad = tmp_path / "bad.wav"
        bad.write_bytes(b"RIFF")
        man = tmp_path / "man.tsv"
        man.write_text(f"{work / 'mix.wav'}\tspeech\ta\n{bad}\tnoise\tb\n",
                       encoding="utf-8")
        out = tmp_path / "x"
        code = run(["extract", "--manifest", str(man),
                    "--net", str(work / "net.xvnw"), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert f"error: UnsupportedEncoding: {bad}" in err
        assert "Traceback" not in err
        assert list(out.iterdir()) == []

    def test_partial_sample_is_domain_error(self, work, tmp_path, capsys):
        # a PCM16 data chunk of 3,001 bytes ends in half a sample
        wav = tmp_path / "odd.wav"
        data = b"\x01\x00" * 1500 + b"\x01"
        wav.write_bytes(
            struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(data) + 1,
                        b"WAVE", b"fmt ", 16, 1, 1, 16000, 32000, 2, 16,
                        b"data", len(data))
            + data + b"\x00"
        )
        code = run(["extract", "--audio", str(wav),
                    "--net", str(work / "net.xvnw"),
                    "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == 1
        assert "TruncatedFile" in err and str(wav) in err

    def test_weight_count_beyond_records_is_domain_error(self, work,
                                                         tmp_path, capsys):
        # the header promises five layers; no record follows
        body = WEIGHTS_MAGIC + struct.pack("<HH", WEIGHTS_VERSION, 5)
        net = tmp_path / "trunc.xvnw"
        net.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        code = run(["extract", "--audio", str(work / "mix.wav"),
                    "--net", str(net), "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == 1
        assert "CorruptArchive" in err and str(net) in err

    def test_frame_layer_without_offsets_is_domain_error(self, work,
                                                         tmp_path, capsys):
        # a record of 0 offsets and a (8, 0) weight is self-consistent
        net = tmp_path / "bad.xvnw"
        write_layers(net, [(0, (), 30, 8), "pool", (2, (0,), 16, 512)])
        code = run(["extract", "--audio", str(work / "mix.wav"),
                    "--net", str(net), "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == 1
        assert "error: DimMismatch: " in err and "no context offset" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["extract"], ["segment", "--strategy", "baseline"],
    ])
    def test_narrow_embedding_is_domain_error(self, work, tmp_path, capsys,
                                              argv):
        # the small net's layers with a 16-wide embedding
        layers = [
            (0, offsets, d_in, d_out)
            for offsets, d_in, d_out in zip(
                ((-2, -1, 0, 1, 2), (-2, 0, 2), (-3, 0, 3), (0,), (0,)),
                (30, 48, 48, 48, 48), (48, 48, 48, 48, 256))
        ]
        net = tmp_path / "narrow.xvnw"
        write_layers(net, [*layers, "pool", (2, (0,), 512, 16),
                           (2, (0,), 16, 512)])
        code = run([*argv, "--audio", str(work / "mix.wav"),
                    "--net", str(net), "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == 1
        assert "error: DimMismatch: " in err
        assert "16 wide" in err and "512 wide" in err
        assert "Traceback" not in err

    @settings(max_examples=60, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(layers=layer_specs())
    def test_well_formed_weight_file_exits_cleanly(self, work, tmp_path,
                                                   capsys, layers):
        # every record self-consistent, as a byte-flipped file almost never
        # is: the net is used, or rejected with a named error
        net = tmp_path / "net.xvnw"
        write_layers(net, layers)
        code = run(["extract", "--audio", str(work / "mix.wav"),
                    "--net", str(net), "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code in (0, 1)
        assert "Traceback" not in err
        if code == 1:
            assert re.match(r"error: [A-Za-z]+: ", err), err

    def test_jobs_below_one_rejected(self, work, tmp_path, capsys):
        code = run(["segment", "--strategy", "baseline",
                    "--audio", str(work / "mix.wav"),
                    "--net", str(work / "net.xvnw"),
                    "--out", str(tmp_path / "x"), "--jobs", "0"])
        assert code == 2
        assert "--jobs must be at least 1" in capsys.readouterr().err

    def test_audio_and_manifest_conflict(self, work, tmp_path, capsys):
        for extra in ([], ["--audio", str(work / "mix.wav"),
                           "--manifest", str(work / "train.tsv")]):
            code = run(["extract", "--net", str(work / "net.xvnw"),
                        "--out", str(tmp_path / "x"), *extra])
            assert code == 2
        capsys.readouterr()

    def test_duplicate_stems_rejected(self, work, tmp_path, capsys):
        man = tmp_path / "dup.tsv"
        wav = work / "mix.wav"
        man.write_text(
            f"{wav}\tspeech\ta\n{wav}\tspeech\tb\n", encoding="utf-8"
        )
        code = run(["extract", "--manifest", str(man),
                    "--net", str(work / "net.xvnw"),
                    "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == 2
        assert "mix" in err


class TestModelCommands:
    def test_train_report_counts(self, work, tmp_path, run_json):
        out = tmp_path / "m.json"
        doc = run_json(["train", "--manifest", str(work / "train.tsv"),
                        "--net", str(work / "net.xvnw"),
                        "--out", str(out)])
        assert doc["n_speech"] == 8
        assert doc["n_noise"] == 8
        model = load_model(out)
        assert model.calib_A == doc["calib_a"]
        assert model.decision_threshold == 0.5

    def _train_with_extra_clip(self, work, tmp_path, samples):
        """train on the shared manifest with one more clip of the given
        samples in the middle: (exit code, stderr, model path)."""
        clip = tmp_path / "extra.wav"
        write_wav(AudioBuffer(samples, 16000), clip)
        lines = (work / "train.tsv").read_text(encoding="utf-8").splitlines()
        lines.insert(5, f"{clip}\tspeech\textra")
        manifest = tmp_path / "train.tsv"
        manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "model.json"
        code = run(["train", "--manifest", str(manifest),
                    "--net", str(work / "net.xvnw"), "--out", str(out)])
        return code, out

    def test_train_clip_shorter_than_a_frame(self, work, tmp_path, capsys):
        code, out = self._train_with_extra_clip(
            work, tmp_path, np.full(200, 0.1)
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "AudioTooShort" in err and "Traceback" not in err
        assert not out.exists()

    def test_train_clip_shorter_than_a_window(self, work, tmp_path, capsys):
        # 0.3 s: MFCC frames, but no 0.5 s window, so no embedding
        rng = np.random.default_rng(0)
        code, out = self._train_with_extra_clip(
            work, tmp_path, 0.1 * rng.standard_normal(4800)
        )
        capsys.readouterr()
        assert code == 0
        alone = tmp_path / "alone.json"
        assert run(["train", "--manifest", str(work / "train.tsv"),
                    "--net", str(work / "net.xvnw"), "--out", str(alone)]) == 0
        assert out.read_bytes() == alone.read_bytes()

    def test_train_without_any_window_is_domain_error(self, tmp_path,
                                                      work, capsys):
        # two 0.3 s clips: MFCC frames, but not one embedding window
        rng = np.random.default_rng(1)
        lines = []
        for label in ("speech", "noise"):
            clip = tmp_path / f"{label}.wav"
            write_wav(AudioBuffer(0.1 * rng.standard_normal(4800), 16000),
                      clip)
            lines.append(f"{clip}\t{label}\t{label}")
        manifest = tmp_path / "short.tsv"
        manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "model.json"
        code = run(["train", "--manifest", str(manifest),
                    "--net", str(work / "net.xvnw"), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert "EmptyInput" in err
        assert not out.exists()

    def test_train_non_convergence_is_domain_error(self, work, tmp_path,
                                                   capsys):
        out = tmp_path / "model.json"
        code = run(["train", "--manifest", str(work / "train.tsv"),
                    "--net", str(work / "net.xvnw"), "--out", str(out),
                    "--max-iter", "1"])
        err = capsys.readouterr().err
        assert code == 1
        assert "error: NonConvergence: " in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("svm_c, code", [("100", 0), ("1000", 1)])
    def test_train_epochs_grow_with_svm_c(self, work, tmp_path, capsys,
                                          svm_c, code):
        # training takes about 1.1 x C epochs: 200 cover C = 100, not
        # C = 1,000
        out = tmp_path / "model.json"
        assert run(["train", "--manifest", str(work / "train.tsv"),
                    "--net", str(work / "net.xvnw"), "--out", str(out),
                    "--svm-c", svm_c, "--max-iter", "200"]) == code
        err = capsys.readouterr().err
        assert ("error: NonConvergence: " in err) == bool(code)
        assert "Traceback" not in err
        assert out.exists() != bool(code)

    def test_calibrate_keeps_separator(self, work, tmp_path, run_json):
        out = tmp_path / "recal.json"
        doc = run_json(["calibrate", "--model", str(work / "model.json"),
                        "--manifest", str(work / "train.tsv"),
                        "--net", str(work / "net.xvnw"),
                        "--out", str(out)])
        before = load_model(work / "model.json")
        after = load_model(out)
        assert np.array_equal(before.w, after.w)
        assert before.b == after.b
        assert after.calib_A == doc["calib_a"]
        assert after.calib_A < 0

    def test_threshold_pick_and_rethreshold(self, work, tmp_path,
                                            run_json):
        out = tmp_path / "tuned.json"
        doc = run_json(["threshold", "--model", str(work / "model.json"),
                        "--manifest", str(work / "train.tsv"),
                        "--net", str(work / "net.xvnw"),
                        "--target-fpr", "0.05", "--out", str(out)])
        assert doc["achieved_fpr"] <= 0.05
        assert load_model(out).decision_threshold == doc["threshold"]

    def test_threshold_without_out_writes_nothing(self, work, run_json):
        doc = run_json(["threshold", "--model", str(work / "model.json"),
                        "--manifest", str(work / "train.tsv"),
                        "--net", str(work / "net.xvnw"),
                        "--target-fpr", "0.5"])
        assert doc["out"] is None


class TestSegmentCommand:
    LOG_LINE = re.compile(
        r"^\d+\.\d{3} \d+\.\d{3} [01]\.\d{6} (speech|noise) (-1|\d+)$"
    )

    def test_file_contract(self, work, tmp_path, run_json):
        out = tmp_path / "seg"
        doc = run_json(["segment", "--strategy", "xvector_seg_filt",
                        "--audio", str(work / "mix.wav"),
                        "--net", str(work / "net.xvnw"),
                        "--model", str(work / "model.json"),
                        "--out", str(out)])
        entry = doc["files"][0]
        assert entry["id"] == "mix"
        segs = read_tsv(entry["tsv"])
        assert len(segs) == entry["segments"]
        assert len(load_archive(entry["xvec"])) == entry["windows"] == 13
        rttm = Path(entry["rttm"]).read_text(encoding="utf-8")
        for line in rttm.splitlines():
            assert line.startswith("SPEAKER mix ")
        for line in Path(entry["log"]).read_text(
            encoding="utf-8"
        ).splitlines():
            assert self.LOG_LINE.match(line), line

    def test_median_width_beyond_int64(self, work, tmp_path, run_json):
        # no track is that long: the segments of any width past twice the
        # track's frames
        tsv = {}
        for width in ("100000000000000000000001", "100001"):
            doc = run_json(["segment", "--strategy", "baseline",
                            "--audio", str(work / "mix.wav"),
                            "--net", str(work / "net.xvnw"),
                            "--out", str(tmp_path / width),
                            "--median-width", width])
            tsv[width] = Path(doc["files"][0]["tsv"]).read_bytes()
        assert tsv["100000000000000000000001"] == tsv["100001"]

    def test_reruns_byte_identical(self, work, tmp_path, run_json):
        docs = []
        for name in ("r1", "r2"):
            docs.append(
                run_json(["segment", "--strategy", "xvector_filt",
                          "--audio", str(work / "mix.wav"),
                          "--net", str(work / "net.xvnw"),
                          "--model", str(work / "model.json"),
                          "--out", str(tmp_path / name)])
            )
        a, b = docs[0]["files"][0], docs[1]["files"][0]
        for key in ("tsv", "rttm", "xvec", "log"):
            assert Path(a[key]).read_bytes() == Path(b[key]).read_bytes()

    def test_blas_threads_leave_every_byte(self, work, tmp_path):
        # each run in a fresh interpreter, since OpenBLAS reads its thread
        # count once at load: one BLAS thread, then the library's default
        # (every thread variable it reads removed). Outputs are relative
        # to the run's directory, so the reports match byte for byte too.
        # With tapes of BLOCK_FRAMES rows at the least, the 20 s recording
        # is long enough that, on more than one CPU, extraction splits its
        # stream across tapes (xvector._split)
        import speechseg

        audio = tmp_path / "long.wav"
        assert run(["gen-test-audio", "--out", str(audio),
                    "--kind", "speech_then_tone", "--speech-s", "10",
                    "--tone-s", "10", "--seed", "5"]) == 0
        probe = (
            "import sys\n"
            "from speechseg import xvector\n"
            "from speechseg.cli import main\n"
            "xvector.SPLIT_FRAMES = xvector.BLOCK_FRAMES\n"
            "audio, net, model = sys.argv[1:]\n"
            "for s in ('xvector_seg_filt', 'baseline'):\n"
            "    assert main(['segment', '--strategy', s, '--audio', audio,\n"
            "                 '--net', net, '--model', model, '--out', s,\n"
            "                 '--report', s + '.json']) == 0\n"
        )
        src = str(Path(speechseg.__file__).resolve().parent.parent)
        base = {k: v for k, v in os.environ.items() if k not in (
            "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
        outputs = []
        for name, extra in (("one", {"OPENBLAS_NUM_THREADS": "1"}),
                            ("default", {})):
            cwd = tmp_path / name
            cwd.mkdir()
            proc = subprocess.run(
                [sys.executable, "-c", probe, str(audio),
                 str(work / "net.xvnw"), str(work / "model.json")],
                env=dict(base, PYTHONPATH=src, **extra), cwd=cwd,
                capture_output=True, check=True,
            )
            files = {str(f.relative_to(cwd)): f.read_bytes()
                     for f in sorted(cwd.rglob("*")) if f.is_file()}
            outputs.append((proc.stdout, files))
        (out_one, one), (out_default, default) = outputs
        assert len(one) == 10  # four artifacts and a report per strategy
        assert one.keys() == default.keys()
        for name in one:
            assert one[name] == default[name], name
        assert out_one == out_default

    def test_cuts_at_the_model_threshold(self, work, tmp_path, run_json):
        tuned = tmp_path / "m2.json"
        run_json(["threshold", "--model", str(work / "model.json"),
                  "--manifest", str(work / "train.tsv"),
                  "--net", str(work / "net.xvnw"),
                  "--target-fpr", "0.05", "--out", str(tuned)])
        cut = load_model(tuned).decision_threshold
        assert cut != 0.5
        tsv = {}
        for name, model in (("base", work / "model.json"), ("tuned", tuned)):
            doc = run_json(["segment", "--strategy", "xvector_filt",
                            "--audio", str(work / "mix.wav"),
                            "--net", str(work / "net.xvnw"),
                            "--model", str(model),
                            "--out", str(tmp_path / name)])
            tsv[name] = Path(doc["files"][0]["tsv"]).read_bytes()
        log = Path(doc["files"][0]["log"]).read_text(encoding="utf-8")
        for line in log.splitlines():
            _, _, p, label, _ = line.split()
            assert label == ("speech" if float(p) >= cut else "noise"), line
        assert tsv["tuned"] != tsv["base"]

    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_no_second_probability_cut(self, work, tmp_path, capsys, how):
        argv = ["segment", "--strategy", "xvector_filt",
                "--audio", str(work / "mix.wav"),
                "--net", str(work / "net.xvnw"),
                "--model", str(work / "model.json"),
                "--out", str(tmp_path / "x")]
        if how == "flag":
            argv += ["--vad-threshold", "0.5"]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text('{"vad_threshold": 0.5}', encoding="utf-8")
            argv += ["--config", str(cfg)]
        assert run(argv) == 2
        assert "vad" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_baseline_needs_no_model(self, work, tmp_path, run_json):
        doc = run_json(["segment", "--strategy", "baseline",
                        "--audio", str(work / "mix.wav"),
                        "--net", str(work / "net.xvnw"),
                        "--out", str(tmp_path / "bl")])
        assert doc["strategy"] == "baseline"
        assert doc["files"][0]["segments"] >= 1

    @pytest.mark.parametrize("rate", [1, 16])
    def test_baseline_rate_below_one_sample_frame(self, work, tmp_path,
                                                  capsys, rate):
        # the energy VAD's 30 ms frame rounds to 0 samples below 17 Hz
        wav = tmp_path / f"{rate}.wav"
        write_wav(AudioBuffer(np.sin(np.arange(10.0 * rate)), rate), wav)
        out = tmp_path / "bl"
        code = run(["segment", "--strategy", "baseline",
                    "--audio", str(wav), "--net", str(work / "net.xvnw"),
                    "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert f"InvalidConfig: sample rate {rate} Hz" in err
        assert "Traceback" not in err
        assert not out.exists() or not any(out.iterdir())

    def test_xvector_strategy_requires_model(self, work, tmp_path, capsys):
        code = run(["segment", "--strategy", "xvector_filt",
                    "--audio", str(work / "mix.wav"),
                    "--net", str(work / "net.xvnw"),
                    "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == 2
        assert "--model" in err

    def test_model_missing_key_is_domain_error(self, work, tmp_path,
                                               capsys):
        doc = json.loads((work / "model.json").read_text(encoding="utf-8"))
        del doc["w"]
        bad = tmp_path / "no_w.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        code = run(["segment", "--strategy", "xvector_filt",
                    "--audio", str(work / "mix.wav"),
                    "--net", str(work / "net.xvnw"), "--model", str(bad),
                    "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == 1
        assert "InvalidConfig" in err and "'w'" in err

    def test_manifest_batch_with_jobs(self, work, tmp_path, run_json):
        man = tmp_path / "two.tsv"
        man.write_text(
            f"{work / 'sp0.wav'}\tspeech\tsp0\n"
            f"{work / 'tn0.wav'}\tnoise\ttn0\n",
            encoding="utf-8",
        )
        doc = run_json(["segment", "--strategy", "baseline",
                        "--manifest", str(man),
                        "--net", str(work / "net.xvnw"),
                        "--out", str(tmp_path / "batch"), "--jobs", "2"])
        assert [f["id"] for f in doc["files"]] == ["sp0", "tn0"]


class TestNonFiniteOptions:
    """A NaN or infinite float option is a usage error naming the flag,
    whether it comes from the command line or from --config."""

    def eval_vad(self, tmp_path, *extra):
        hyp = tmp_path / "hyp.tsv"
        cond = tmp_path / "cond.tsv"
        hyp.write_text("0.0\t4.0\tspeech\n", encoding="utf-8")
        cond.write_text("0.0\t4.0\tclean_speech\n", encoding="utf-8")
        return ["eval-vad", "--hyp", str(hyp), "--conditions", str(cond),
                *extra]

    @pytest.mark.parametrize("extra,flag", [
        (("--duration", "inf"), "--duration"),
        (("--duration", "nan"), "--duration"),
        (("--duration", "10", "--period", "nan"), "--period"),
    ], ids=["duration-inf", "duration-nan", "period-nan"])
    def test_eval_vad(self, tmp_path, capsys, extra, flag):
        assert run(self.eval_vad(tmp_path, *extra)) == 2
        err = capsys.readouterr().err
        assert f"{flag} must be finite" in err and "Traceback" not in err

    def test_gen_test_audio_duration(self, tmp_path, capsys):
        out = tmp_path / "t.wav"
        code = run(["gen-test-audio", "--kind", "tone", "--out", str(out),
                    "--duration", "nan"])
        assert code == 2
        assert "--duration must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_segment_cluster_threshold(self, work, tmp_path, capsys):
        out = tmp_path / "seg"
        code = run(["segment", "--strategy", "xvector_seg_filt",
                    "--audio", str(work / "mix.wav"),
                    "--net", str(work / "net.xvnw"),
                    "--model", str(work / "model.json"),
                    "--out", str(out), "--cluster-threshold", "nan"])
        assert code == 2
        assert "--cluster-threshold must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_train_svm_c(self, work, tmp_path, capsys):
        out = tmp_path / "m.json"
        code = run(["train", "--manifest", str(work / "train.tsv"),
                    "--net", str(work / "net.xvnw"), "--out", str(out),
                    "--svm-c", "nan"])
        assert code == 2
        assert "--svm-c must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_config_value(self, tmp_path, capsys, value):
        # Python's json reads these three words as floats
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"period": {value}}}', encoding="utf-8")
        argv = self.eval_vad(tmp_path, "--duration", "10",
                             "--config", str(cfg))
        assert run(argv) == 2
        assert "--period must be finite" in capsys.readouterr().err


class TestEvalCommands:
    def test_eval_vad_zero_period_is_domain_error(self, tmp_path, capsys):
        hyp = tmp_path / "hyp.tsv"
        cond = tmp_path / "cond.tsv"
        hyp.write_text("0.0\t4.0\tspeech\n", encoding="utf-8")
        cond.write_text("0.0\t4.0\tclean_speech\n", encoding="utf-8")
        code = run(["eval-vad", "--hyp", str(hyp), "--conditions", str(cond),
                    "--duration", "10", "--period", "0"])
        err = capsys.readouterr().err
        assert code == 1
        assert "InvalidConfig" in err and "period" in err

    # 10 s / 1e-300 is a frame count beyond any index, and 10 s / 1e-320
    # (a subnormal) is infinite; a period whose count fits but cannot be
    # allocated is deliberately not tried
    @pytest.mark.parametrize("period", ["1e-300", "1e-320"])
    def test_eval_vad_frame_count_overflow_is_domain_error(
        self, tmp_path, capsys, period
    ):
        hyp = tmp_path / "hyp.tsv"
        cond = tmp_path / "cond.tsv"
        hyp.write_text("0.0\t4.0\tspeech\n", encoding="utf-8")
        cond.write_text("0.0\t4.0\tclean_speech\n", encoding="utf-8")
        code = run(["eval-vad", "--hyp", str(hyp), "--conditions", str(cond),
                    "--duration", "10", "--period", period])
        err = capsys.readouterr().err
        assert code == 1
        assert "InvalidConfig" in err and "frame period" in err
        assert "Traceback" not in err

    def test_eval_vad_grid_past_the_cap_allocates_nothing(
        self, tmp_path, capsys
    ):
        # an hour at 1e-9 s is 3.6e12 frames, hundreds of terabytes of grid
        hyp = tmp_path / "hyp.tsv"
        cond = tmp_path / "cond.tsv"
        hyp.write_text("0.0\t4.0\tspeech\n", encoding="utf-8")
        cond.write_text("0.0\t4.0\tclean_speech\n", encoding="utf-8")
        tracemalloc.start()
        try:
            code = run(["eval-vad", "--hyp", str(hyp),
                        "--conditions", str(cond),
                        "--duration", "3600", "--period", "1e-9"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert code == 1
        assert "InvalidConfig" in err and "Traceback" not in err
        assert "3600" in err and "1e-09" in err and "3600000000000" in err
        assert peak < 2**20

    def test_eval_vad_exact_hypothesis(self, tmp_path, run_json):
        hyp = tmp_path / "hyp.tsv"
        cond = tmp_path / "cond.tsv"
        hyp.write_text("0.000\t4.000\tspeech\n", encoding="utf-8")
        cond.write_text(
            "0.0\t4.0\tclean_speech\n4.0\t10.0\tno_speech\n",
            encoding="utf-8",
        )
        doc = run_json(["eval-vad", "--hyp", str(hyp),
                        "--conditions", str(cond), "--duration", "10"])
        assert doc["tpr_all"] == 1.0
        assert doc["fpr"] == 0.0
        assert doc["tpr_noise"] is None
        assert doc["frames_by_condition"]["clean_speech"] == 400

    def test_eval_vad_reversed_segment_is_domain_error(self, tmp_path):
        hyp = tmp_path / "bad.seg.tsv"
        cond = tmp_path / "c.tsv"
        hyp.write_text("0.0\t1.0\tspeech\n2.0\t1.0\tspeech\n",
                       encoding="utf-8")
        cond.write_text("0.0\t3.0\tclean_speech\n", encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "speechseg.cli", "eval-vad",
             "--hyp", str(hyp), "--conditions", str(cond),
             "--duration", "3"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "InvalidSegment" in proc.stderr
        assert f"{hyp}:2:" in proc.stderr

    def test_eval_vad_unparsable_time_names_line(self, tmp_path, capsys):
        hyp = tmp_path / "hyp.tsv"
        cond = tmp_path / "c.tsv"
        hyp.write_text("0.0\t1.0\tspeech\n", encoding="utf-8")
        cond.write_text("0.0\t1.5\tclean_speech\n1.5\tthree\tno_speech\n",
                        encoding="utf-8")
        code = run(["eval-vad", "--hyp", str(hyp), "--conditions", str(cond),
                    "--duration", "3"])
        err = capsys.readouterr().err
        assert code == 1
        assert "InvalidSegment" in err and f"{cond}:2:" in err

    def test_eval_vad_non_utf8_byte_is_domain_error(self, tmp_path, capsys):
        hyp = tmp_path / "hyp.tsv"
        cond = tmp_path / "c.tsv"
        hyp.write_bytes(b"0.0\t1.0\tsp\xffeech\n")
        cond.write_text("0.0\t3.0\tclean_speech\n", encoding="utf-8")
        code = run(["eval-vad", "--hyp", str(hyp), "--conditions", str(cond),
                    "--duration", "3"])
        err = capsys.readouterr().err
        assert code == 1
        assert "UnsupportedEncoding" in err and str(hyp) in err

    def test_eval_wer_identical_is_zero(self, tmp_path, run_json):
        ref = tmp_path / "ref.txt"
        ref.write_text(
            "rec1\tthe quick brown fox\nrec2\thello world\n",
            encoding="utf-8",
        )
        doc = run_json(["eval-wer", "--ref", str(ref), "--hyp", str(ref)])
        assert doc["wer_percent"] == 0.0
        assert doc["errors"] == 0
        assert set(doc["per_file"]) == {"rec1", "rec2"}

    def test_eval_wer_counts_errors(self, tmp_path, run_json):
        ref = tmp_path / "ref.txt"
        hyp = tmp_path / "hyp.txt"
        ref.write_text("rec1\ta b c d\n", encoding="utf-8")
        hyp.write_text("rec1\ta b x d e\n", encoding="utf-8")
        doc = run_json(["eval-wer", "--ref", str(ref), "--hyp", str(hyp)])
        assert doc["substitutions"] == 1
        assert doc["insertions"] == 1
        assert doc["wer_percent"] == 50.0

    def test_eval_wer_empty_reference_is_domain_error(self, tmp_path,
                                                      capsys):
        ref = tmp_path / "ref.txt"
        ref.write_text("rec1\n", encoding="utf-8")
        code = run(["eval-wer", "--ref", str(ref), "--hyp", str(ref)])
        err = capsys.readouterr().err
        assert code == 1
        assert "EmptyReference" in err


@pytest.mark.parametrize("reader", [
    read_tsv, read_ctm, read_manifest, read_transcripts,
    read_condition_labels, load_model,
])
def test_text_readers_reject_non_utf8(tmp_path, reader):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"0.0\t1.0\tsp\xffeech\n")
    with pytest.raises(UnsupportedEncoding, match=re.escape(str(path))):
        reader(path)


class TestDataCommands:
    def test_realign_contract(self, tmp_path, run_json):
        ctm = tmp_path / "words.ctm"
        ctm.write_text(
            "rec1 1 0.50 0.30 the\n"
            "rec1 1 0.85 0.40 quick\n"
            "rec1 1 2.00 0.50 fox\n",
            encoding="utf-8",
        )
        doc = run_json(["realign", "--ctm", str(ctm),
                        "--out", str(tmp_path / "out")])
        entry = doc["files"][0]
        assert entry["id"] == "rec1"
        assert entry["words"] == 3
        segs = read_tsv(entry["out"])
        assert len(segs) == entry["segments"] == 2

    @pytest.mark.parametrize("file_id", ["../escaped", "sub/escaped",
                                         "..", ".", "nul\0id"])
    def test_realign_id_that_is_not_a_file_name(self, tmp_path, capsys,
                                                file_id):
        ctm = tmp_path / "t.ctm"
        ctm.write_text(
            f"{file_id} 1 0.00 0.60 hello\n{file_id} 1 0.70 0.60 world\n"
            "rec1 1 0.00 0.60 hi\n",
            encoding="utf-8",
        )
        before = set(tmp_path.rglob("*"))
        code = run(["realign", "--ctm", str(ctm),
                    "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert "InvalidConfig" in err and repr(file_id) in err
        assert "Traceback" not in err
        assert set(tmp_path.rglob("*")) == before

    def test_realign_unparsable_time_is_domain_error(self, tmp_path):
        self._assert_bad_ctm_row_named(tmp_path, "rec1 1 abc 0.30 the")

    def test_realign_infinite_time_is_domain_error(self, tmp_path):
        self._assert_bad_ctm_row_named(tmp_path, "rec1 1 0.5 inf the")

    @staticmethod
    def _assert_bad_ctm_row_named(tmp_path, row):
        ctm = tmp_path / "bad.ctm"
        ctm.write_text(row + "\n", encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "speechseg.cli", "realign",
             "--ctm", str(ctm), "--out", str(tmp_path / "out")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert "InvalidConfig" in proc.stderr
        assert f"{ctm}:1:" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_split_counts(self, work, tmp_path, run_json):
        sp = tmp_path / "sp.tsv"
        tn = tmp_path / "tn.tsv"
        rows = (work / "train.tsv").read_text(encoding="utf-8").splitlines()
        sp.write_text(
            "\n".join(r for r in rows if "\tspeech\t" in r) + "\n",
            encoding="utf-8",
        )
        tn.write_text(
            "\n".join(r for r in rows if "\tnoise\t" in r) + "\n",
            encoding="utf-8",
        )
        doc = run_json(["split", "--speech", str(sp), "--noise", str(tn),
                        "--fraction", "0.75", "--seed", "3",
                        "--out-train", str(tmp_path / "tr.tsv"),
                        "--out-eval", str(tmp_path / "ev.tsv")])
        assert doc["n_train_speech"] + doc["n_eval_speech"] == 8
        assert doc["n_train_noise"] + doc["n_eval_noise"] == 8
        assert doc["n_train_speech"] == 6
        train = read_manifest(tmp_path / "tr.tsv")
        assert len(train) == doc["n_train_speech"] + doc["n_train_noise"]

    def test_reduce_projection(self, work, tmp_path, run_json):
        out = tmp_path / "proj.csv"
        doc = run_json(["reduce", "--manifest", str(work / "train.tsv"),
                        "--net", str(work / "net.xvnw"),
                        "--out", str(out),
                        "--perplexity", "5", "--iters", "250"])
        with open(out, encoding="utf-8", newline="") as f:
            header, *rows = csv.reader(f)
        assert header == ["x", "y", "label", "source-id"]
        coords = np.array([[float(r[0]), float(r[1])] for r in rows])
        labels = [r[2] for r in rows]
        assert coords.shape == (doc["n"], 2)
        assert doc["n"] == 16
        assert set(labels) == {"speech", "noise"}
        assert doc["pca_k"] >= 1


# -----------------------------------------------------------------------------
# the error contract for files, through cli.main
# -----------------------------------------------------------------------------

# options naming a file that a command reads
READ_OPTIONS = ("audio", "manifest", "net", "model", "hyp", "conditions",
                "ref", "ctm", "speech", "noise")
# options naming a file or directory that a command writes
WRITE_OPTIONS = ("out", "out_train", "out_eval")

# the files each command reads in a valid invocation (extract and segment
# read --audio or --manifest), then its other required options
INVOCATIONS = {
    "mfcc": (("audio",), ["--out", "{out}.npy"]),
    "extract": (("net", "audio"), ["--out", "{out}"]),
    "train": (("manifest", "net"), ["--out", "{out}.json"]),
    "calibrate": (("model", "manifest", "net"), ["--out", "{out}.json"]),
    "threshold": (("model", "manifest", "net"), ["--target-fpr", "0.5"]),
    "segment": (("net", "model", "audio"),
                ["--strategy", "xvector_filt", "--out", "{out}"]),
    "eval-vad": (("hyp", "conditions"), ["--duration", "3"]),
    "eval-wer": (("ref", "hyp"), []),
    "realign": (("ctm",), ["--out", "{out}"]),
    "split": (("speech", "noise"),
              ["--out-train", "{out}.tr", "--out-eval", "{out}.ev"]),
    "reduce": (("manifest", "net"), ["--out", "{out}.csv"]),
}

FILE_CASES = [
    (command, o.key)
    for command, (_, opts, _) in COMMANDS.items()
    for o in opts
    if o.key in READ_OPTIONS
]


def invocation(work, tmp_path, command, files):
    """argv for command, reading `files` (option -> path) where given and
    a valid file of the command's kind otherwise."""
    text = {
        "hyp": "rec1\tthe quick fox\n" if command == "eval-wer"
        else "0.000\t1.500\tspeech\n",
        "conditions": "0.0\t1.5\tclean_speech\n",
        "ref": "rec1\tthe quick fox\n",
        "ctm": "rec1 1 0.50 0.30 the\n",
    }
    valid = {"audio": work / "mix.wav", "manifest": work / "train.tsv",
             "net": work / "net.xvnw", "model": work / "model.json",
             "speech": work / "train.tsv", "noise": work / "train.tsv"}
    for key, body in text.items():
        valid[key] = tmp_path / f"valid.{key}"
        valid[key].write_text(body, encoding="utf-8")
    reads, rest = INVOCATIONS[command]
    if "manifest" in files and "audio" in reads:
        reads = tuple("manifest" if k == "audio" else k for k in reads)
    argv = [command]
    for key in reads:
        argv += ["--" + key, str(files.get(key, valid[key]))]
    out = str(tmp_path / "out")
    return argv + [a.replace("{out}", out) for a in rest]


class TestFileErrors:
    def test_every_path_option_is_read_or_written(self):
        for command, (_, opts, _) in COMMANDS.items():
            for o in opts:
                if o.typ is str and o.choices is None:
                    assert o.key in READ_OPTIONS + WRITE_OPTIONS, (command, o)

    @pytest.mark.parametrize("command,option", FILE_CASES)
    @pytest.mark.parametrize("kind,error", [
        ("missing", "FileNotFoundError"), ("directory", "IsADirectoryError"),
    ])
    def test_unreadable_file_is_os_error(self, work, tmp_path, capsys,
                                         command, option, kind, error):
        bad = tmp_path / "bad"
        if kind == "directory":
            bad.mkdir()
        code = run(invocation(work, tmp_path, command, {option: bad}))
        err = capsys.readouterr().err
        assert code == 1, err
        assert f"error: {error}: " in err and str(bad) in err
        assert "Traceback" not in err

    def test_unwritable_report_is_os_error(self, tmp_path, capsys):
        report = tmp_path / "missing" / "r.json"
        code = run(["gen-test-model", "--out", str(tmp_path / "n.xvnw"),
                    "--report", str(report)])
        out, err = capsys.readouterr()
        assert code == 1
        assert "error: FileNotFoundError: " in err and str(report) in err
        assert "Traceback" not in err and out == ""

    def test_unreadable_config_stays_a_usage_error(self, tmp_path, capsys):
        code = run(["eval-wer", "--config", str(tmp_path / "missing.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert "usage error: cannot read config" in err

    # one byte of each reader's valid file from test_readers, flipped;
    # the checksummed weight file is resealed so its parser sees the flip.
    # No command reads an .xvec archive, so load_archive has no case here.
    @pytest.mark.parametrize("reader,command,option,at,mask,error", [
        # channel count 1 -> 2
        ("read_wav", "mfcc", "audio", 22, 0x03, "ChannelMismatch"),
        # SubFormat GUID's format tag 1 -> 0
        ("read_wav_extensible", "mfcc", "audio", 44, 0x01,
         "UnsupportedEncoding"),
        # first record's type 0 (frame) -> 7
        ("load_weights", "extract", "net", 8, 0x07, "CorruptArchive"),
        # the opening brace
        ("load_model", "segment", "model", 0, 0x01, "InvalidConfig"),
        # the first start time "0.000" -> "x.000"
        ("read_tsv", "eval-vad", "hyp", 0, 0x48, "InvalidSegment"),
        # the first start time "0.50" -> "x.50"
        ("read_ctm", "realign", "ctm", 7, 0x48, "InvalidConfig"),
        # the first label "speech" -> "speecx"
        ("read_manifest", "train", "manifest", 11, 0x10, "InvalidConfig"),
        # the first condition "clean_speech" -> "alean_speech"
        ("read_condition_labels", "eval-vad", "conditions", 8, 0x02,
         "InvalidConfig"),
        # the first byte -> 0xff, not UTF-8
        ("read_transcripts", "eval-wer", "ref", 0, 0x8D,
         "UnsupportedEncoding"),
    ])
    def test_malformed_file_is_named_error(self, work, valid_dir, tmp_path,
                                           capsys, reader, command, option,
                                           at, mask, error):
        raw = flip((valid_dir / reader).read_bytes(), [(at, mask)])
        if reader in CHECKSUMMED:
            raw = reseal(raw)
        bad = tmp_path / "bad"
        bad.write_bytes(raw)
        code = run(invocation(work, tmp_path, command, {option: bad}))
        err = capsys.readouterr().err
        assert code == 1, err
        assert f"error: {error}: " in err and str(bad) in err
        assert "Traceback" not in err

    # each reader's valid file from test_readers (and a --config document)
    # mutated many ways, through the command that reads it: the run ends
    # in exit 0, 1 with a named error or 2 with a usage error, and an
    # exception that escapes cli.main fails the test
    FUZZ_CASES = {
        "read_wav": ("mfcc", "audio"),
        "read_wav_extensible": ("mfcc", "audio"),
        "load_weights": ("extract", "net"),
        "load_model": ("segment", "model"),
        "read_tsv": ("eval-vad", "hyp"),
        "read_condition_labels": ("eval-vad", "conditions"),
        "read_ctm": ("realign", "ctm"),
        "read_manifest": ("train", "manifest"),
        "read_transcripts": ("eval-wer", "ref"),
        "config": ("realign", "config"),
    }

    @pytest.mark.parametrize("reader", list(FUZZ_CASES))
    @settings(max_examples=80, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mutated_file_exits_cleanly(self, work, valid_dir, tmp_path,
                                        monkeypatch, capsys, reader, data):
        command, option = self.FUZZ_CASES[reader]
        if reader == "config":
            valid = json.dumps({"ctm": "valid.ctm", "max_gap": 0.5,
                                "min_dur": 0.25}).encode()
        else:
            valid = (valid_dir / reader).read_bytes()
        raw = data.draw(mutations(valid))
        if reader in CHECKSUMMED and len(raw) >= 4 and data.draw(st.booleans()):
            raw = reseal(raw)
        bad = tmp_path / "bad"
        bad.write_bytes(raw)
        # the valid manifest names a.wav and b.wav; give it clips to read
        monkeypatch.chdir(valid_dir)
        if option == "config":
            # the flags win over the document, so no path in it is opened
            argv = invocation(work, tmp_path, command, {})
            argv += ["--config", str(bad)]
        else:
            argv = invocation(work, tmp_path, command, {option: bad})
        code = run(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code == 1:
            assert re.match(r"error: [A-Za-z]+: ", err), err
        elif code == 2:
            assert err.startswith("usage error: "), err
