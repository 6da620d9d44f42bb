"""End-to-end tests for the subcommand CLI.

Everything runs in-process through cli.main so exit codes and streams
are observable directly; one test goes through the installed console
script to prove the packaging wiring. Reports are validated against the
schemas shipped inside the package.
"""
import json
import os
import re
import struct
import subprocess
import zlib
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from speechseg.classifier import load_model
from speechseg.cli import COMMANDS, main
from speechseg.analysis import read_projection_csv
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
from speechseg.xvector import WEIGHTS_MAGIC, WEIGHTS_VERSION, load_archive


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
        ("extract", {"jobs": "2"}),
        ("extract", {"window": "abc"}),
        ("extract", {"jobs": None}),
        ("train", {"svm_c": True}),
    ], ids=["jobs-str", "window-str", "jobs-null", "svm_c-bool"])
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

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        hyp, cond = self.hyp_files(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"perod": 0.02}', encoding="utf-8")
        code = run(["eval-vad", "--config", str(cfg), "--hyp", str(hyp),
                    "--conditions", str(cond), "--duration", "10"])
        err = capsys.readouterr().err
        assert code == 2
        assert "perod" in err

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

    def test_missing_audio_is_domain_error(self, tmp_path, capsys):
        code = run(["mfcc", "--audio", str(tmp_path / "nope.wav"),
                    "--out", str(tmp_path / "x.npy")])
        err = capsys.readouterr().err
        assert code == 1
        assert "FileNotFoundError" in err

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

    def test_gen_audio_kinds(self, tmp_path, run_json):
        for kind in ("silence", "tone", "noise", "speech"):
            doc = run_json(["gen-test-audio", "--kind", kind,
                            "--out", str(tmp_path / f"{kind}.wav"),
                            "--duration", "0.8"])
            assert doc["duration_s"] == pytest.approx(0.8)
        doc = run_json(["gen-test-audio", "--kind", "speech_then_tone",
                        "--out", str(tmp_path / "m.wav")])
        assert doc["duration_s"] == pytest.approx(10.0)

    def test_gen_audio_bad_duration_is_domain_error(self, tmp_path, capsys):
        code = run(["gen-test-audio", "--kind", "tone",
                    "--out", str(tmp_path / "t.wav"), "--duration", "0"])
        err = capsys.readouterr().err
        assert code == 1
        assert "InvalidConfig" in err


class TestEmbeddingCommands:
    def test_extract_single_file(self, work, tmp_path, run_json):
        doc = run_json(["extract", "--audio", str(work / "mix.wav"),
                        "--net", str(work / "net.xvnw"),
                        "--out", str(tmp_path / "xv")])
        assert doc["total_windows"] == 13
        vecs = load_archive(doc["files"][0]["out"])
        assert len(vecs) == 13
        assert vecs[0].values.shape == (512,)

    def test_extract_manifest_jobs_match_serial(self, work, tmp_path,
                                                run_json):
        a = run_json(["extract", "--manifest", str(work / "train.tsv"),
                      "--net", str(work / "net.xvnw"),
                      "--out", str(tmp_path / "a"), "--jobs", "1"])
        b = run_json(["extract", "--manifest", str(work / "train.tsv"),
                      "--net", str(work / "net.xvnw"),
                      "--out", str(tmp_path / "b"), "--jobs", "4"])
        assert len(a["files"]) == 16
        assert a["total_windows"] == b["total_windows"]
        for fa, fb in zip(a["files"], b["files"]):
            assert fa["id"] == fb["id"]
            assert Path(fa["out"]).read_bytes() == Path(
                fb["out"]
            ).read_bytes()

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

    def test_jobs_below_one_rejected(self, work, tmp_path, capsys):
        code = run(["extract", "--audio", str(work / "mix.wav"),
                    "--net", str(work / "net.xvnw"),
                    "--out", str(tmp_path / "x"), "--jobs", "0"])
        assert code == 2
        capsys.readouterr()

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


class TestEvalCommands:
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
    read_condition_labels, read_projection_csv, load_model,
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
        coords, labels, sources = read_projection_csv(out)
        assert coords.shape == (doc["n"], 2)
        assert doc["n"] == 16
        assert set(labels) == {"speech", "noise"}
        assert doc["pca_k"] >= 1
