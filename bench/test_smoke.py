"""Smoke check of the benchmark at tiny input sizes.

    python3 -m pytest -q bench/test_smoke.py

Every end-to-end metric (tracing off) and every per-layer metric (tracing
on) of BENCHMARK.json is emitted for every workload, and the generator's
inputs are byte-stable per seed and differ between seeds.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402


def run(workload, trace, seed=5):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--scale", "0.1"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted(workload, trace):
    result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def test_inputs_are_stable_per_seed_and_differ_across_seeds(
    tmp_path, monkeypatch
):
    def digests(where, seed):
        # manifests hold cwd-relative paths, so build from a fresh cwd
        where.mkdir()
        monkeypatch.chdir(where)
        cache = Path("cache")
        return (gen.recordings(cache, "rec", seed, 0.1)["digest"],
                gen.clips(cache, "clip", seed, 8, stream=1)["digest"])

    first = digests(tmp_path / "a", 1)
    assert digests(tmp_path / "b", 1) == first
    other = digests(tmp_path / "c", 2)
    assert other[0] != first[0] and other[1] != first[1]
