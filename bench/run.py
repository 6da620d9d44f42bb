"""speechseg benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload stream-standard --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15 --trace 0

The benchmark drives speechseg the way users do, through
`speechseg.cli.main`, closed loop: one process, `--jobs 1`, one pass over
the workload's inputs after another until --seconds is spent (at least
three passes). The program only sees the generated WAV, manifest, net and
model files. See bench/NOTES.md for why each workload exists.

With --trace 0 the last stdout line carries the end-to-end metrics, with
--trace 1 the per-layer metrics of one extra traced pass, plus its
self-time tree on the lines before. --save appends the run's record to a
JSON-lines file that bench/compare.py reads.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CACHE = Path(".bench_cache")
RUNS = Path(".bench_runs")
SETUP_PROBES = 4  # extra fresh processes timing set-up; the run adds one

WORKLOADS = {
    "stream-standard": {"strategy": "xvector_filt", "inputs": "rec"},
    "long-small": {"strategy": "xvector_seg_filt", "inputs": "long"},
    "baseline-standard": {"strategy": "baseline", "inputs": "rec"},
    "clips-train": {"strategy": None, "inputs": "clips"},
}
END_TO_END = (  # name, unit
    ("setup_s", "s"), ("rtf", "s/s"), ("peak_rss_mb", "MB"),
    ("tpr", "ratio"), ("fpr", "ratio"), ("passed_frac", "ratio"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--save", help="append this run's record (JSON lines)")
    p.add_argument("--scale", type=float, default=1.0,
                   help="shrink every input (smoke tests only)")
    return p.parse_args(argv)


def machine() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without the dict form
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {k: v for k, v in sorted(os.environ.items())
                    if k.endswith("_NUM_THREADS")},
        "platform": platform.platform(),
    }


# -----------------------------------------------------------------------------
# Inputs
# -----------------------------------------------------------------------------

def prepare(workload: str, seed: int, scale: float) -> dict:
    """Generate (or reuse) the seed's inputs; return the worker's spec."""
    import gen
    from speechseg.cli import main as cli_main

    gen.keep_only(CACHE, seed)
    kind = WORKLOADS[workload]
    work = RUNS / workload
    spec = {"workload": workload, "src": str(ROOT / "src"),
            "work": str(work), "model": None}
    n_model = max(int(gen.MODEL_CLIPS * scale), 24)
    if kind["inputs"] == "clips":
        n_clips = max(int(gen.TRAIN_CLIPS * scale), 24)
        train = gen.clips(CACHE, "clip", seed, n_clips, stream=1)
        heldout = gen.clips(CACHE, "held", seed,
                            max(int(gen.HELDOUT_CLIPS * scale), 24), stream=2)
        nets = gen.net_and_model(CACHE, "small", n_model, cli_main)
        spec.update(
            net=nets["net"], clips=n_clips, heldout=heldout["files"],
            audio_s=train["duration_s"],
            argv=["train", "--manifest", train["manifest"], "--net",
                  nets["net"], "--out", "{out}/model.json",
                  "--report", "{out}/report.json"],
            digests={"train": train["digest"], "heldout": heldout["digest"],
                     "net_model": nets["digest"]},
        )
        return spec
    _, _, preset = gen.RECORDING_SETS[kind["inputs"]]
    recs = gen.recordings(CACHE, kind["inputs"], seed, scale)
    nets = gen.net_and_model(CACHE, preset, n_model, cli_main)
    spec.update(
        net=nets["net"], model=nets["model"], files=recs["files"],
        audio_s=sum(f["duration_s"] for f in recs["files"]),
        argv=["segment", "--strategy", kind["strategy"], "--manifest",
              recs["manifest"], "--net", nets["net"], "--model",
              nets["model"], "--jobs", "1", "--out", "{out}",
              "--report", "{out}/report.json"],
        digests={"recordings": recs["digest"], "net_model": nets["digest"]},
    )
    return spec


# -----------------------------------------------------------------------------
# One run
# -----------------------------------------------------------------------------

def _worker(mode: str, spec: dict) -> dict:
    with tempfile.TemporaryDirectory(dir=RUNS) as tmp:
        spec_path, out_path = Path(tmp, "spec.json"), Path(tmp, "out.json")
        spec_path.write_text(json.dumps(spec))
        subprocess.run(
            [sys.executable, str(ROOT / "bench" / "worker.py"), mode,
             str(spec_path), str(out_path)],
            check=True, timeout=170,
        )
        return json.loads(out_path.read_text())


def run_one(args) -> int:
    import gate

    spec = prepare(args.workload, args.seed, args.scale)
    spec.update(seconds=args.seconds, trace=bool(args.trace))
    setups = [_worker("setup", spec)["setup_s"] for _ in range(SETUP_PROBES)]
    out = _worker("run", spec)
    setups.append(out["setup_s"])

    work = Path(spec["work"])
    dirs = [work / f"pass{i}" for i in range(len(out["pass_s"]))]
    codes = list(out["codes"])
    if args.trace:
        dirs.append(work / "traced")
        codes.append(out["traced_code"])
    check = (gate.train_gate if WORKLOADS[args.workload]["strategy"] is None
             else gate.segment_gate)(spec, dirs, codes)

    passes = len(out["pass_s"])
    rtf = statistics.median(out["pass_s"]) / spec["audio_s"]
    correct = check.failed == 0 and None not in (check.tpr, check.fpr)
    values = {
        "setup_s": statistics.median(setups),
        "rtf": rtf,
        "peak_rss_mb": out["peak_rss_mb"],
        # outputs that cannot be scored get the worst rates (and correct=False)
        "tpr": 0.0 if check.tpr is None else check.tpr,
        "fpr": 1.0 if check.fpr is None else check.fpr,
        "passed_frac": 1.0 - check.failed / check.attempted,
    }
    if args.trace:
        print(out["trace_report"])
        metrics = out["layers"]
    else:
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "rtf": f"median of {passes} passes of {spec['audio_s']:.1f} s audio",
        "passed_frac": f"{check.failed} of {check.attempted} inputs failed",
    }
    print(f"== {args.workload} seed {args.seed}: {passes} passes, "
          f"correct={correct}")
    for name, unit in END_TO_END:
        print(f"  {name:12s} {values[name]:12.6g} {unit:6s} "
              f"{notes.get(name, '')}")
    for problem in check.problems:
        print(f"  FAILED {problem}")
    detail = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "scale": args.scale,
        "machine": machine(), "inputs": spec["digests"],
        "audio_s": spec["audio_s"], "pass_s": out["pass_s"],
        "setup_samples": setups, "codes": codes,
        "end_to_end": values, "problems": check.problems,
    }
    print(json.dumps({"bench_detail": detail}, sort_keys=True))
    result = {"correct": correct, "attempted": check.attempted,
              "failed": check.failed, "metrics": metrics}
    if args.save:
        with open(args.save, "a", encoding="utf-8") as f:
            f.write(json.dumps({"detail": detail, "result": result}) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; a table, then one JSON line."""
    results, rc = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", str(args.scale)]
        if args.save:
            cmd += ["--save", args.save]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            rc = 1
            continue
        results[name] = json.loads(lines[-1])
    if results:
        names = sorted({m for r in results.values() for m in r["metrics"]})
        print(f"{'metric':32s} " + " ".join(f"{w:>18s}" for w in results))
        for m in names:
            unit = next(r["metrics"][m]["unit"] for r in results.values()
                        if m in r["metrics"])
            cells = [r["metrics"].get(m, {}).get("value") for r in results.values()]
            print(f"{m + ' (' + unit + ')':32s} " + " ".join(
                f"{'n/a' if c is None else format(c, '.6g'):>18s}" for c in cells))
    print(json.dumps(results))
    return rc


def main(argv=None) -> int:
    args = parse_args(argv)
    for need in ("src/speechseg/cli.py", "tests/reference.py"):
        if not (ROOT / need).is_file():
            print(f"bench: {need} is missing; run from a speechseg checkout",
                  file=sys.stderr)
            return 2
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    RUNS.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
