"""Span tracing of speechseg from outside the package.

Wrappers replace the public functions on the names their callers look
up (`speechseg.cli.run_pipeline`, `speechseg.pipeline.extract_sequence`,
`speechseg.xvector.forward_window`, ...), so no file under src/ changes.
Each call records one span (name, start, end, parent span) in memory;
counters are taken at the same boundaries. A span's self time is its
duration minus the time its child spans cover.
"""
from __future__ import annotations

import functools
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

MB = float(1 << 20)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, owner, attr, name=None, count=None, memory=None):
        """Replace owner.attr by a recording wrapper.

        name=None records no span, only the counter. count(counters, args,
        result) runs after each call that returned. When memory(args) is
        true, tracemalloc brackets the call and the largest peak is kept
        under name + ".peak_mb".
        """
        orig = getattr(owner, attr)
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if name is None:
                result = orig(*args, **kwargs)
            else:
                idx = len(spans)
                spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
                stack.append(idx)
                traced = memory is not None and memory(args)
                if traced:
                    tracemalloc.start()
                start = time.perf_counter()
                try:
                    result = orig(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    stack.pop()
                    spans[idx][1:3] = start, end
                    if traced:
                        peak = tracemalloc.get_traced_memory()[1] / MB
                        tracemalloc.stop()
                        key = name + ".peak_mb"
                        counters[key] = max(counters[key], peak)
            if count is not None:
                count(counters, args, result)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -------------------------------------------------------------------------
    # Aggregation
    # -------------------------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def _aggregate(self, keys) -> dict:
        """key -> [calls, inclusive seconds, self seconds], one key per span."""
        out: dict = {}
        for key, (_, start, end, _), own in zip(
            keys, self.spans, self.self_times()
        ):
            row = out.setdefault(key, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += own
        return out

    def totals(self) -> dict:
        """span name -> [calls, inclusive seconds, self seconds]."""
        return self._aggregate(name for name, *_ in self.spans)

    def tree(self) -> list[tuple[tuple, int, float, float]]:
        """(path of names, calls, inclusive s, self s) per call path, in
        depth-first order with the larger inclusive time first."""
        paths: list[tuple] = []
        for name, _, _, parent in self.spans:
            paths.append((paths[parent] if parent >= 0 else ()) + (name,))
        agg = self._aggregate(paths)

        def walk(prefix):
            kids = [p for p in agg if len(p) == len(prefix) + 1
                    and p[: len(prefix)] == prefix]
            for p in sorted(kids, key=lambda p: -agg[p][1]):
                yield (p, *agg[p])
                yield from walk(p)

        return list(walk(()))


def install(tracer: Tracer):
    """Wrap every traced boundary of the segmenting and training paths."""
    import speechseg.classifier as classifier
    import speechseg.cli as cli
    import speechseg.pipeline as pipeline
    import speechseg.xvector as xvector

    def add(key, amount=1):
        def count(counters, args, result):
            counters[key] += amount(args, result) if callable(amount) else amount
        return count

    def frames(args, result):
        return result.num_frames

    longest = [0]

    def longest_yet(args):
        # peak memory grows with the input, so only a call on a longer
        # input than any before can raise the maximum; skipping the rest
        # keeps tracemalloc's cost off the many-clip workload
        n = len(args[0].samples)
        if n <= longest[0]:
            return False
        longest[0] = n
        return True

    for mod in (cli, pipeline):
        tracer.wrap(mod, "read_wav", "frontend.read_wav")
        tracer.wrap(mod, "compute_mfcc", "frontend.compute_mfcc",
                    memory=longest_yet, count=_both(add("frontend.calls"),
                                             add("frontend.frames", frames)))
        tracer.wrap(mod, "apply_cmvn", "frontend.apply_cmvn")
        tracer.wrap(mod, "extract_sequence", "xvector.extract_sequence")

    def padded(args, result):
        net, rows = args[0], args[1]
        return int(len(rows) < net.min_frames)

    tracer.wrap(xvector, "forward_window", "xvector.forward_window",
                count=_both(add("xvector.windows"),
                            add("xvector.padded_windows", padded)))

    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "load_weights", "xvector.load_weights")
    tracer.wrap(cli, "load_model", "classifier.load_model")
    tracer.wrap(cli, "read_manifest", "dataprep.read_manifest")
    tracer.wrap(cli, "save_archive", "xvector.save_archive",
                count=add("xvector.archive_mb",
                          lambda a, r: Path(a[1]).stat().st_size / MB))
    tracer.wrap(cli, "write_decision_log", "pipeline.write_decision_log")
    tracer.wrap(cli, "write_tsv", "segments.write_tsv")
    tracer.wrap(cli, "write_rttm", "segments.write_rttm")
    tracer.wrap(cli, "platt_calibrate", "classifier.platt_calibrate")
    tracer.wrap(cli, "run_pipeline", "pipeline.run_pipeline")

    tracer.wrap(classifier, "train_linear_svm", "classifier.train_linear_svm",
                count=add("classifier.svm_fits"))
    tracer.wrap(classifier.CalibratedLinearModel, "probability",
                "classifier.probability", count=add("classifier.score_calls"))

    tracer.wrap(pipeline, "cluster_ahc", "pipeline.cluster_ahc",
                count=_both(add("pipeline.ahc_n", lambda a, r: len(a[0])),
                            add("pipeline.clusters",
                                lambda a, r: max(r.cluster_ids) + 1)))
    tracer.wrap(pipeline, "filter_segments", "pipeline.filter_segments",
                count=_both(add("pipeline.candidate_segments",
                                lambda a, r: len(a[1])),
                            add("pipeline.segments_kept",
                                lambda a, r: len(r))))
    tracer.wrap(pipeline, "_silent_window", None,
                count=add("pipeline.windows_silent", lambda a, r: int(r)))
    tracer.wrap(pipeline, "energy_vad_frames", "baseline.energy_vad_frames")
    tracer.wrap(pipeline, "median_filter", "baseline.median_filter")
    tracer.wrap(pipeline, "decisions_to_segments", None,
                count=add("baseline.vad_segments", lambda a, r: len(r)))
    tracer.wrap(pipeline, "merge_segments", "baseline.merge_segments")


def _both(*counts):
    def count(counters, args, result):
        for c in counts:
            c(counters, args, result)
    return count


# span name -> per-layer metric holding its inclusive seconds
TIME_METRICS = {
    "frontend.read_wav_s": ("frontend.read_wav",),
    "frontend.mfcc_s": ("frontend.compute_mfcc",),
    "frontend.cmvn_s": ("frontend.apply_cmvn",),
    "xvector.load_weights_s": ("xvector.load_weights",),
    "classifier.load_model_s": ("classifier.load_model",),
    "xvector.extract_s": ("xvector.extract_sequence",),
    "xvector.forward_window_s": ("xvector.forward_window",),
    "xvector.save_archive_s": ("xvector.save_archive",),
    "pipeline.decision_log_s": ("pipeline.write_decision_log",),
    "segments.write_s": ("segments.write_tsv", "segments.write_rttm"),
    "classifier.score_s": ("classifier.probability",),
    "classifier.svm_s": ("classifier.train_linear_svm",),
    "classifier.platt_s": ("classifier.platt_calibrate",),
    "dataprep.read_manifest_s": ("dataprep.read_manifest",),
    "pipeline.ahc_s": ("pipeline.cluster_ahc",),
    "pipeline.filter_segments_s": ("pipeline.filter_segments",),
    "baseline.vad_s": ("baseline.energy_vad_frames",),
    "baseline.median_s": ("baseline.median_filter",),
    "baseline.merge_s": ("baseline.merge_segments",),
}
SELF_METRICS = {"pipeline.self_s": "pipeline.run_pipeline",
                "cli.self_s": "cli.main"}
COUNT_METRICS = (
    "frontend.calls", "frontend.frames", "xvector.windows",
    "xvector.padded_windows", "classifier.score_calls", "classifier.svm_fits",
    "pipeline.ahc_n", "pipeline.clusters", "pipeline.candidate_segments",
    "pipeline.segments_kept", "pipeline.windows_silent",
    "baseline.vad_segments",
)


def layer_metrics(tracer: Tracer, traced_s: float, untraced_s: float) -> dict:
    """Every per-layer metric; layers the workload never calls read 0."""
    totals = tracer.totals()
    c = tracer.counters
    m: dict[str, tuple[float, str]] = {}
    for key, names in TIME_METRICS.items():
        m[key] = (sum(totals.get(n, (0, 0.0, 0.0))[1] for n in names), "s")
    for key, name in SELF_METRICS.items():
        m[key] = (totals.get(name, (0, 0.0, 0.0))[2], "s")
    for key in COUNT_METRICS:
        m[key] = (c.get(key, 0.0), "count")
    windows = c.get("xvector.windows", 0.0)
    m["xvector.ms_per_window"] = (
        1000.0 * m["xvector.forward_window_s"][0] / windows if windows else 0.0,
        "ms",
    )
    m["xvector.archive_mb"] = (c.get("xvector.archive_mb", 0.0), "MB")
    m["frontend.mfcc_peak_mb"] = (
        c.get("frontend.compute_mfcc.peak_mb", 0.0), "MB")
    m["trace.pass_s"] = (traced_s, "s")
    m["trace.overhead_s"] = (traced_s - untraced_s, "s")
    m["trace.spans"] = (float(len(tracer.spans)), "count")
    return {k: {"value": v, "unit": u} for k, (v, u) in sorted(m.items())}


def report(tracer: Tracer, metrics: dict, title: str) -> str:
    """Self-time tree, then every counter and the tracing overhead."""
    lines = [f"== traced pass: {title}",
             f"{'calls':>7} {'incl_s':>9} {'self_s':>9}  span"]
    for path, calls, incl, own in tracer.tree():
        lines.append(f"{calls:7d} {incl:9.4f} {own:9.4f}  "
                     f"{'  ' * (len(path) - 1)}{path[-1]}")
    lines.append("-- per-layer metrics")
    for key, v in metrics.items():
        lines.append(f"{key:32s} {v['value']:14.6f} {v['unit']}")
    return "\n".join(lines)
