"""One measuring process: set-up, timed passes, optionally a traced pass.

    python3 bench/worker.py setup SPEC.json OUT.json
    python3 bench/worker.py run SPEC.json OUT.json

The process is fresh, so its set-up time and its peak RSS
(RUSAGE_SELF, which takes the maximum over this process only) belong to
one run. Only the standard library is imported before the clock starts.
"""
import time

import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
from pathlib import Path

MIN_PASSES = 3


def setup(spec):
    """Seconds to import the package and load the net and the model."""
    start = time.perf_counter()
    sys.path.insert(0, spec["src"])
    import speechseg.cli as cli

    cli.load_weights(spec["net"])
    if spec["model"] is not None:
        cli.load_model(spec["model"])
    return time.perf_counter() - start, cli


def one_pass(cli, spec, out: Path) -> tuple[float, int]:
    """Wall seconds and exit code of one CLI invocation writing into out."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    argv = [a.replace("{out}", str(out)) for a in spec["argv"]]
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    return time.perf_counter() - start, rc


def run(spec):
    setup_s, cli = setup(spec)
    work = Path(spec["work"])
    times, codes = [], []
    start = time.perf_counter()
    while True:
        dt, rc = one_pass(cli, spec, work / f"pass{len(times)}")
        times.append(dt)
        codes.append(rc)
        elapsed = time.perf_counter() - start
        if len(times) >= MIN_PASSES and (
            elapsed + statistics.median(times) > spec["seconds"]
        ):
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out = {"setup_s": setup_s, "pass_s": times, "codes": codes,
           "peak_rss_mb": peak_kb / 1024.0}
    if spec["trace"]:
        out.update(traced(cli, spec, work, statistics.median(times)))
    return out


def traced(cli, spec, work: Path, untraced_s: float) -> dict:
    import tracing  # bench/ is this script's directory, first on sys.path

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        dt, rc = one_pass(cli, spec, work / "traced")
    finally:
        tracer.uninstall()
    (work / "spans.json").write_text(json.dumps(tracer.spans))
    metrics = tracing.layer_metrics(tracer, dt, untraced_s)
    return {"traced_code": rc, "layers": metrics,
            "trace_report": tracing.report(tracer, metrics, spec["workload"])}


def main(argv):
    mode, spec_path, out_path = argv
    spec = json.loads(Path(spec_path).read_text())
    if mode == "setup":
        result = {"setup_s": setup(spec)[0]}
    else:
        result = run(spec)
    Path(out_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
