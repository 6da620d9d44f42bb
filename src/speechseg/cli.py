"""Subcommand command-line interface.

One executable, shell-composable. Parameter resolution per subcommand:
built-in defaults, then a JSON --config document, then explicit flags;
unknown config keys are rejected. Exit codes: 0 success, 1 domain error,
OSError or MemoryError (message carries the error type name), 2 usage
error. Every subcommand prints a JSON report with a schema_version field;
--report additionally writes the same document to a file. The report
shapes ship as JSON schemas in speechseg/schemas/.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import pca_reduce, tsne_embed, write_projection_csv
from .classifier import (
    MODEL_FORMAT_VERSION,
    TrainConfig,
    load_model,
    platt_calibrate,
    recalibrate,
    save_model,
    select_threshold,
)
from .dataprep import (
    build_dataset,
    read_ctm,
    read_manifest,
    realign_segments,
    write_manifest,
)
from .errors import EmptyInput, InvalidConfig, SpeechSegError
from .frontend import apply_cmvn, compute_mfcc, read_wav, write_wav
from .metrics import (
    condition_frames,
    frame_vad_eval,
    rasterize,
    read_condition_labels,
    read_transcripts,
    score_transcripts,
)
from .pipeline import (
    STRATEGIES,
    PipelineConfig,
    run_pipeline,
    write_decision_log,
)
from .segments import read_tsv, write_rttm, write_tsv
from .synth import (
    make_noise,
    make_silence,
    make_speech_proxy,
    make_speech_then_tone,
    make_tone,
)
from .xvector import (
    ARCHIVE_MAGIC,
    EMBEDDING_DIM,
    WEIGHTS_VERSION,
    extract_sequence,  # unused here; bench/tracing.py wraps it by name
    extract_streams,
    load_weights,
    make_test_net,
    save_archive,
    save_weights,
)

SCHEMA_VERSION = 1

AUDIO_KINDS = ("silence", "tone", "noise", "speech", "speech_then_tone")


class UsageError(Exception):
    """Bad invocation: wrong flag values or config keys; exit code 2."""


@dataclass(frozen=True)
class Opt:
    key: str
    typ: type = str
    default: object = None
    help: str = ""
    required: bool = False
    choices: tuple | None = None

    @property
    def flag(self) -> str:
        return "--" + self.key.replace("_", "-")


def _features(path):
    return apply_cmvn(compute_mfcc(read_wav(path)))


def _embed_manifest(cfg, net):
    """(x, owners): the x-vectors of every window of every clip of the
    --manifest as float64 rows, and the manifest entry of each row. Clips
    shorter than xvector.MIN_WINDOW_S contribute nothing."""
    entries = read_manifest(cfg["manifest"])
    streams = extract_streams(net, (_features(e.path) for e in entries))
    values, owners = [], []
    for entry, records in zip(entries, streams):
        values.append(records.values)
        owners.extend([entry] * len(records))
    if not owners:
        raise EmptyInput("manifest produced no embeddings")
    return np.concatenate(values, dtype=np.float64), owners


def _gather_inputs(cfg):
    audio, manifest = cfg.get("audio"), cfg.get("manifest")
    if (audio is None) == (manifest is None):
        raise UsageError("pass exactly one of --audio or --manifest")
    if audio is not None:
        paths = [audio]
    else:
        paths = [e.path for e in read_manifest(manifest)]
    ids = [Path(p).stem for p in paths]
    dupes = sorted({i for i in ids if ids.count(i) > 1})
    if dupes:
        raise UsageError(
            "duplicate input ids (file stems): " + ", ".join(dupes)
        )
    return list(zip(ids, paths))


def _parallel(fn, items, jobs):
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


# -----------------------------------------------------------------------------
# Subcommand handlers: resolved config in, report fields out
# -----------------------------------------------------------------------------

def _cmd_mfcc(cfg):
    feats = compute_mfcc(read_wav(cfg["audio"]))
    if not cfg["raw"]:
        feats = apply_cmvn(feats)
    with open(cfg["out"], "wb") as f:
        np.save(f, feats.rows)
    return {
        "audio": cfg["audio"],
        "out": cfg["out"],
        "frames": int(feats.num_frames),
        "dim": int(feats.rows.shape[1]),
        "frame_shift_s": float(feats.frame_shift_s),
        "cmvn": not cfg["raw"],
    }


def _cmd_extract(cfg):
    net = load_weights(cfg["net"])
    out_dir = Path(cfg["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    inputs = _gather_inputs(cfg)
    streams = extract_streams(net, (_features(path) for _, path in inputs))
    files = []
    for (file_id, path), vecs in zip(inputs, streams):
        out = out_dir / f"{file_id}.xvec"
        save_archive(vecs, out)
        files.append(
            {"id": file_id, "audio": path, "out": str(out),
             "windows": len(vecs)}
        )
    return {
        "net": cfg["net"],
        "out_dir": str(out_dir),
        "files": files,
        "total_windows": sum(f["windows"] for f in files),
    }


def _cmd_train(cfg):
    net = load_weights(cfg["net"])
    x, owners = _embed_manifest(cfg, net)
    labels = [e.label for e in owners]
    train_cfg = TrainConfig(
        C=cfg["svm_c"],
        max_iter=cfg["max_iter"],
        tolerance=cfg["tolerance"],
        folds=cfg["folds"],
        seed=cfg["seed"],
    )
    model = platt_calibrate(x, labels, train_cfg)
    save_model(model, cfg["out"])
    return {
        "manifest": cfg["manifest"],
        "net": cfg["net"],
        "out": cfg["out"],
        "n_speech": labels.count("speech"),
        "n_noise": labels.count("noise"),
        "calib_a": float(model.calib_A),
        "calib_b": float(model.calib_B),
        "decision_threshold": float(model.decision_threshold),
    }


def _cmd_calibrate(cfg):
    model = load_model(cfg["model"])
    net = load_weights(cfg["net"])
    x, owners = _embed_manifest(cfg, net)
    labels = [e.label for e in owners]
    updated = recalibrate(model, x, labels)
    save_model(updated, cfg["out"])
    return {
        "model": cfg["model"],
        "manifest": cfg["manifest"],
        "net": cfg["net"],
        "out": cfg["out"],
        "n_speech": labels.count("speech"),
        "n_noise": labels.count("noise"),
        "calib_a": float(updated.calib_A),
        "calib_b": float(updated.calib_B),
    }


def _cmd_threshold(cfg):
    model = load_model(cfg["model"])
    net = load_weights(cfg["net"])
    x, owners = _embed_manifest(cfg, net)
    positive = np.array([e.label == "speech" for e in owners], dtype=bool)
    report = select_threshold(
        model.probabilities(x), positive, cfg["target_fpr"]
    )
    if cfg["out"] is not None:
        save_model(
            replace(model, decision_threshold=report.threshold), cfg["out"]
        )
    return {
        "model": cfg["model"],
        "manifest": cfg["manifest"],
        "net": cfg["net"],
        "out": cfg["out"],
        "target_fpr": float(report.target_fpr),
        "threshold": float(report.threshold),
        "achieved_fpr": float(report.achieved_fpr),
        "achieved_tpr": float(report.achieved_tpr),
        "interpolated_tpr": float(report.interpolated_tpr),
    }


def _cmd_segment(cfg):
    if cfg["strategy"] != "baseline" and cfg["model"] is None:
        raise UsageError(
            f"--model is required for strategy {cfg['strategy']}"
        )
    net = load_weights(cfg["net"])
    model = load_model(cfg["model"]) if cfg["model"] is not None else None
    pipeline_cfg = PipelineConfig(
        strategy=cfg["strategy"],
        noise_proportion_threshold=cfg["noise_proportion"],
        cluster_distance_threshold=cfg["cluster_threshold"],
        baseline_aggressiveness=cfg["aggressiveness"],
        median_width=cfg["median_width"],
        merge_gap_s=cfg["merge_gap"],
    )
    out_dir = Path(cfg["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    inputs = _gather_inputs(cfg)

    def one(item):
        file_id, path = item
        res = run_pipeline(path, pipeline_cfg, model=model, net=net)
        tsv = out_dir / f"{file_id}.seg.tsv"
        rttm = out_dir / f"{file_id}.rttm"
        xvec = out_dir / f"{file_id}.xvec"
        log = out_dir / f"{file_id}.decisions.log"
        write_tsv(list(res.segments), tsv)
        write_rttm(list(res.segments), file_id, rttm)
        save_archive(res.xvectors, xvec)
        write_decision_log(res.decisions, log)
        return {
            "id": file_id,
            "audio": path,
            "segments": len(res.segments),
            "windows": len(res.xvectors),
            "tsv": str(tsv),
            "rttm": str(rttm),
            "xvec": str(xvec),
            "log": str(log),
        }

    files = _parallel(one, inputs, cfg["jobs"])
    return {
        "strategy": cfg["strategy"],
        "out_dir": str(out_dir),
        "files": files,
    }


def _cmd_eval_vad(cfg):
    hyp_segments = read_tsv(cfg["hyp"])
    cond_segments = read_condition_labels(cfg["conditions"])
    conditions = condition_frames(
        cond_segments, cfg["period"], cfg["duration"]
    )
    track = rasterize(hyp_segments, cfg["period"], cfg["duration"])
    report = frame_vad_eval(track, conditions)
    out = {
        "hyp": cfg["hyp"],
        "conditions": cfg["conditions"],
        "frame_period_s": cfg["period"],
        "duration_s": cfg["duration"],
        "frames_by_condition": report.frames_by_condition,
    }
    out.update(report.summary())
    return out


def _cmd_eval_wer(cfg):
    ref = read_transcripts(cfg["ref"])
    hyp = read_transcripts(cfg["hyp"])
    overall, per_file = score_transcripts(ref, hyp)

    def blob(r):
        return {
            "ref_words": r.tot,
            "insertions": r.insertions,
            "deletions": r.deletions,
            "substitutions": r.substitutions,
            "errors": r.errors,
            "wer_percent": r.wer_percent,
        }

    return {
        "ref": cfg["ref"],
        "hyp": cfg["hyp"],
        **blob(overall),
        "per_file": {k: blob(v) for k, v in sorted(per_file.items())},
    }


def _cmd_realign(cfg):
    words_by_file = read_ctm(cfg["ctm"])
    for file_id in words_by_file:
        # the id names an output file, which must land inside --out
        if (Path(file_id).name != file_id or file_id in (".", "..")
                or "\0" in file_id):
            raise InvalidConfig(f"CTM file id {file_id!r} is not a file name")
    out_dir = Path(cfg["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    files = []
    for file_id in sorted(words_by_file):
        words = words_by_file[file_id]
        segs = realign_segments(words, cfg["max_gap"], cfg["min_dur"])
        out = out_dir / f"{file_id}.seg.tsv"
        write_tsv(segs, out)
        files.append(
            {
                "id": file_id,
                "words": len(words),
                "segments": len(segs),
                "out": str(out),
            }
        )
    return {
        "ctm": cfg["ctm"],
        "out_dir": str(out_dir),
        "max_gap_s": cfg["max_gap"],
        "min_dur_s": cfg["min_dur"],
        "files": files,
    }


def _cmd_split(cfg):
    speech = read_manifest(cfg["speech"])
    noise = read_manifest(cfg["noise"])
    train_set, eval_set = build_dataset(
        speech, noise, cfg["fraction"], cfg["seed"]
    )
    write_manifest(train_set, cfg["out_train"])
    write_manifest(eval_set, cfg["out_eval"])

    def count(entries, label):
        return sum(1 for e in entries if e.label == label)

    return {
        "speech": cfg["speech"],
        "noise": cfg["noise"],
        "fraction": cfg["fraction"],
        "seed": cfg["seed"],
        "out_train": cfg["out_train"],
        "out_eval": cfg["out_eval"],
        "n_train_speech": count(train_set, "speech"),
        "n_train_noise": count(train_set, "noise"),
        "n_eval_speech": count(eval_set, "speech"),
        "n_eval_noise": count(eval_set, "noise"),
    }


def _cmd_reduce(cfg):
    net = load_weights(cfg["net"])
    x, owners = _embed_manifest(cfg, net)
    labels = [e.label for e in owners]
    sources = [e.source_id for e in owners]
    pca = pca_reduce(x, cfg["target_variance"])
    ts = tsne_embed(
        pca.reduced, cfg["perplexity"], cfg["iters"], cfg["seed"]
    )
    write_projection_csv(ts.coords, labels, sources, cfg["out"])
    return {
        "manifest": cfg["manifest"],
        "net": cfg["net"],
        "out": cfg["out"],
        "n": len(owners),
        "input_dim": int(x.shape[1]),
        "pca_k": int(pca.k),
        "target_variance": cfg["target_variance"],
        "perplexity": cfg["perplexity"],
        "iters": cfg["iters"],
        "seed": cfg["seed"],
        "kl_divergence": float(ts.kl_divergence),
    }


def _cmd_gen_test_model(cfg):
    net = make_test_net(cfg["seed"], cfg["preset"])
    save_weights(net, cfg["out"])
    return {
        "out": cfg["out"],
        "seed": cfg["seed"],
        "preset": cfg["preset"],
        "embedding_dim": EMBEDDING_DIM,
    }


def _cmd_gen_test_audio(cfg):
    kind = cfg["kind"]
    if kind == "silence":
        audio = make_silence(cfg["duration"])
    elif kind == "tone":
        audio = make_tone(cfg["duration"], cfg["freq"])
    elif kind == "noise":
        audio = make_noise(cfg["duration"], seed=cfg["seed"])
    elif kind == "speech":
        audio = make_speech_proxy(cfg["duration"], seed=cfg["seed"])
    else:
        audio = make_speech_then_tone(
            cfg["speech_s"], cfg["tone_s"], seed=cfg["seed"]
        )
    write_wav(audio, cfg["out"], cfg["encoding"])
    return {
        "out": cfg["out"],
        "kind": kind,
        "duration_s": float(audio.duration_s),
        "sample_rate": int(audio.sample_rate),
        "seed": cfg["seed"],
        "encoding": cfg["encoding"],
    }


COMMANDS = {
    "mfcc": (
        "compute MFCC features to a .npy file",
        [
            Opt("audio", str, help="input WAV file", required=True),
            Opt("out", str, help="output .npy path", required=True),
            Opt("raw", bool, False, "skip mean/variance normalization"),
        ],
        _cmd_mfcc,
    ),
    "extract": (
        "embed sliding windows into .xvec archives",
        [
            Opt("net", str, help="TDNN weight file", required=True),
            Opt("out", str, help="output directory", required=True),
            Opt("audio", str, help="single input WAV"),
            Opt("manifest", str, help="batch input manifest TSV"),
        ],
        _cmd_extract,
    ),
    "train": (
        "train the speech/noise classifier on a labeled manifest",
        [
            Opt("manifest", str, help="labeled clip manifest", required=True),
            Opt("net", str, help="TDNN weight file", required=True),
            Opt("out", str, help="output model JSON", required=True),
            Opt("svm_c", float, 1.0, "SVM regularization constant; "
                "training can take about 1.1 x C epochs"),
            Opt("max_iter", int, 1000, "SVM epoch limit, NonConvergence "
                "beyond it: a C above about 900 may need it raised"),
            Opt("tolerance", float, 1e-4,
                "SVM convergence tolerance, per unit of C"),
            Opt("folds", int, 3, "calibration cross-validation folds"),
            Opt("seed", int, 0, "fold shuffling seed"),
        ],
        _cmd_train,
    ),
    "calibrate": (
        "refit the probability sigmoid of a trained model",
        [
            Opt("model", str, help="existing model JSON", required=True),
            Opt("manifest", str, help="labeled clip manifest", required=True),
            Opt("net", str, help="TDNN weight file", required=True),
            Opt("out", str, help="output model JSON", required=True),
        ],
        _cmd_calibrate,
    ),
    "threshold": (
        "pick the decision threshold for a target false positive rate",
        [
            Opt("model", str, help="model JSON", required=True),
            Opt("manifest", str, help="labeled clip manifest", required=True),
            Opt("net", str, help="TDNN weight file", required=True),
            Opt("target_fpr", float, help="highest acceptable FPR",
                required=True),
            Opt("out", str, help="write the re-thresholded model here; "
                "segment cuts at its threshold"),
        ],
        _cmd_threshold,
    ),
    "segment": (
        "run the segmentation pipeline and write per-file artifacts",
        [
            Opt("strategy", str, help="pipeline strategy", required=True,
                choices=STRATEGIES),
            Opt("out", str, help="output directory", required=True),
            Opt("net", str, help="TDNN weight file", required=True),
            Opt("model", str, help="classifier model JSON"),
            Opt("audio", str, help="single input WAV"),
            Opt("manifest", str, help="batch input manifest TSV"),
            Opt("noise_proportion", float, 0.5,
                "segment rejection proportion"),
            Opt("cluster_threshold", float, 0.35,
                "cosine distance merge stop"),
            Opt("aggressiveness", int, 0, "energy VAD level 0..3"),
            Opt("median_width", int, 5, "VAD median filter width"),
            Opt("merge_gap", float, 0.5, "largest gap merged, seconds"),
            Opt("jobs", int, 1, "parallel workers for batch input"),
        ],
        _cmd_segment,
    ),
    "eval-vad": (
        "frame-level VAD scoring against condition labels",
        [
            Opt("hyp", str, help="hypothesis segment TSV", required=True),
            Opt("conditions", str, help="condition label TSV",
                required=True),
            Opt("duration", float, help="stream duration in seconds",
                required=True),
            Opt("period", float, 0.010, "scoring frame period in seconds"),
        ],
        _cmd_eval_vad,
    ),
    "eval-wer": (
        "word error rate between reference and hypothesis transcripts",
        [
            Opt("ref", str, help="reference transcript", required=True),
            Opt("hyp", str, help="hypothesis transcript", required=True),
        ],
        _cmd_eval_wer,
    ),
    "realign": (
        "coalesce word alignments into speech segments",
        [
            Opt("ctm", str, help="word alignment CTM file", required=True),
            Opt("out", str, help="output directory", required=True),
            Opt("max_gap", float, 0.5, "largest intra-segment word gap"),
            Opt("min_dur", float, 0.5, "shortest emitted segment"),
        ],
        _cmd_realign,
    ),
    "split": (
        "source-grouped train/eval split of labeled manifests",
        [
            Opt("speech", str, help="speech manifest TSV", required=True),
            Opt("noise", str, help="noise manifest TSV", required=True),
            Opt("fraction", float, 0.9, "train fraction of sources"),
            Opt("seed", int, 0, "source shuffling seed"),
            Opt("out_train", str, help="output train manifest",
                required=True),
            Opt("out_eval", str, help="output eval manifest",
                required=True),
        ],
        _cmd_split,
    ),
    "reduce": (
        "PCA then t-SNE projection of manifest embeddings to CSV",
        [
            Opt("manifest", str, help="labeled clip manifest", required=True),
            Opt("net", str, help="TDNN weight file", required=True),
            Opt("out", str, help="output projection CSV", required=True),
            Opt("target_variance", float, 0.95,
                "PCA retained variance fraction"),
            Opt("perplexity", float, 30.0, "t-SNE perplexity"),
            Opt("iters", int, 1000, "t-SNE gradient steps"),
            Opt("seed", int, 0, "t-SNE init seed"),
        ],
        _cmd_reduce,
    ),
    "gen-test-model": (
        "write seeded random TDNN weights for tests",
        [
            Opt("out", str, help="output weight file", required=True),
            Opt("seed", int, 0, "weight seed"),
            Opt("preset", str, "small", "network size",
                choices=("small", "standard")),
        ],
        _cmd_gen_test_model,
    ),
    "gen-test-audio": (
        "write synthetic WAV fixtures",
        [
            Opt("out", str, help="output WAV path", required=True),
            Opt("kind", str, help="fixture kind", required=True,
                choices=AUDIO_KINDS),
            Opt("duration", float, 1.5, "clip length in seconds"),
            Opt("freq", float, 1000.0, "tone frequency in Hz"),
            Opt("seed", int, 0, "generator seed"),
            Opt("speech_s", float, 4.0, "speech part of speech_then_tone"),
            Opt("tone_s", float, 6.0, "tone part of speech_then_tone"),
            Opt("encoding", str, "float32", "sample encoding",
                choices=("float32", "pcm16")),
        ],
        _cmd_gen_test_audio,
    ),
}


def _version_string() -> str:
    return (
        f"speechseg {__version__} (weights {WEIGHTS_VERSION}, "
        f"model {MODEL_FORMAT_VERSION}, "
        f"xvec {ARCHIVE_MAGIC.decode()} 1, reports {SCHEMA_VERSION})"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="speechseg",
        description="offline speech segmentation toolkit",
    )
    parser.add_argument(
        "--version", action="version", version=_version_string()
    )
    sub = parser.add_subparsers(
        dest="command", required=True, metavar="subcommand"
    )
    for name, (help_text, opts, handler) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument("--config", help="JSON document of option values")
        p.add_argument("--report", help="also write the JSON report here")
        for o in opts:
            if o.typ is bool:
                p.add_argument(
                    o.flag, dest=o.key, action="store_true", default=None,
                    help=o.help,
                )
            else:
                kwargs = dict(
                    dest=o.key, type=o.typ, default=None, help=o.help
                )
                if o.choices is not None:
                    kwargs["choices"] = list(o.choices)
                p.add_argument(o.flag, **kwargs)
        p.set_defaults(options=opts, handler=handler)
    return parser


def _typed(o: Opt, value):
    """A config document's value for o, checked against o.typ: an int is
    taken for a float, a bool never for a number, and null only where the
    default is null."""
    if value is None and o.default is None:
        return None
    if o.typ is float and type(value) is int:
        return float(value)
    if isinstance(value, o.typ) and (o.typ is bool) == (type(value) is bool):
        if o.typ is str and "\0" in value:  # no file name holds one
            raise UsageError(f"config key {o.key!r} holds a NUL character")
        return value
    raise UsageError(
        f"config key {o.key!r} must be {o.typ.__name__}, "
        f"got {json.dumps(value)}"
    )


def _resolve(args) -> dict:
    opts = args.options
    cfg = {o.key: o.default for o in opts}
    by_key = {o.key: o for o in opts}
    if args.config:
        try:
            doc = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except OSError as e:
            raise UsageError(f"cannot read config: {e}")
        except ValueError as e:  # not UTF-8, or not JSON
            raise UsageError(f"config is not UTF-8 JSON: {e}")
        if not isinstance(doc, dict):
            raise UsageError("config must be a JSON object")
        for key, value in doc.items():
            if key not in by_key:
                raise UsageError(f"unknown config key {key!r}")
            cfg[key] = _typed(by_key[key], value)
    for o in opts:
        value = getattr(args, o.key)
        if value is not None:
            cfg[o.key] = value
    for o in opts:
        if o.required and cfg[o.key] is None:
            raise UsageError(f"missing required {o.flag}")
        present = cfg[o.key] is not None
        # argparse's float() and json both take nan and inf
        if o.typ is float and present and not math.isfinite(cfg[o.key]):
            raise UsageError(f"{o.flag} must be finite, got {cfg[o.key]}")
        if o.choices is not None and present and cfg[o.key] not in o.choices:
            raise UsageError(
                f"{o.flag} must be one of "
                + ", ".join(map(str, o.choices))
            )
    if cfg.get("jobs") is not None and cfg["jobs"] < 1:
        raise UsageError("--jobs must be at least 1")
    if cfg.get("seed") is not None and cfg["seed"] < 0:  # np.random's rule
        raise UsageError("--seed must be at least 0")
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve(args)
        report = {"schema_version": SCHEMA_VERSION, "command": args.command}
        report.update(args.handler(cfg))
        text = json.dumps(report, indent=2, sort_keys=True)
        if args.report:
            Path(args.report).write_text(text + "\n", encoding="utf-8")
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except (SpeechSegError, OSError, MemoryError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
