"""Spread of one result set, or parent-versus-change verdicts for two.

    python3 bench/compare.py RESULTS.jsonl
    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl

Result sets are the JSON-lines files `bench/run.py --save` appends to.
Bounds and directions come from BENCHMARK.json.

One set: per workload and end-to-end metric, the median, the quartiles
and the spread (quartile distance over the median) against the bound.

Two sets: per workload row, each side's median and quartiles, the share
of pairs the change won (pair i is the i-th run of each side, so run the
sides alternately; ties count for neither) and a verdict:
- improved: the change won at least 9/10 of the pairs and the medians
  differ by more than the parent's quartile distance;
- unresolved: the parent's spread is wider than the bound, unless every
  change run beats every parent run;
- regressed: the change's median is worse by more than the bound;
- unchanged: none of these.
Traced runs (per-layer metrics) are listed side by side, without verdict.
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict:
    """(workload, trace) -> metric -> values in file order."""
    out: dict = defaultdict(lambda: defaultdict(list))
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        key = (rec["detail"]["workload"], rec["detail"]["trace"])
        for name, m in rec["result"]["metrics"].items():
            out[key][name].append(m["value"])
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def better(a: float, b: float, direction: str) -> bool:
    return a < b if direction == "lower" else a > b


def verdict(parent, change, bound, direction) -> tuple[str, float]:
    pairs = list(zip(parent, change))
    wins = sum(better(c, p, direction) for p, c in pairs)
    win_frac = wins / len(pairs) if pairs else 0.0
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    every = all(better(c, p, direction) for c in change for p in parent)
    if win_frac >= 0.9 and abs(cm - pm) > p3 - p1 and better(cm, pm, direction):
        return "improved", win_frac
    if spread(parent) > bound and not every:
        return "unresolved", win_frac
    worse = (cm - pm) if direction == "lower" else (pm - cm)
    if worse > bound * abs(pm):
        return "regressed", win_frac
    return "unchanged", win_frac


def fmt(x: float) -> str:
    return f"{x:.6g}"


def report_one(results: dict, spec: dict) -> None:
    print(f"{'workload':18s} {'metric':12s} {'n':>3s} {'median':>12s} "
          f"{'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}  status")
    for (workload, trace), metrics in sorted(results.items()):
        if trace:
            continue
        for m in spec["end_to_end"]:
            values = metrics.get(m["name"], [])
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            s = spread(values)
            status = ("not gated" if m["name"] == "setup_s" else
                      "steady" if s <= m["bound"] / 3 else
                      "within bound" if s <= m["bound"] else "TOO WIDE")
            print(f"{workload:18s} {m['name']:12s} {len(values):3d} "
                  f"{fmt(med):>12s} {fmt(q1):>12s} {fmt(q3):>12s} "
                  f"{s:8.4f} {m['bound']:6.3f}  {status}")


def report_two(parent: dict, change: dict, spec: dict) -> None:
    print(f"{'workload':18s} {'metric':12s} {'parent med [q1, q3]':>36s} "
          f"{'change med [q1, q3]':>36s} {'won':>5s}  verdict")
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        if trace:
            continue
        for m in spec["end_to_end"]:
            p, c = parent[key].get(m["name"]), change[key].get(m["name"])
            if not p or not c:
                continue
            v, won = verdict(p, c, m["bound"], m["better"])
            cells = []
            for values in (p, c):
                q1, med, q3 = quartiles(values)
                cells.append(f"{fmt(med)} [{fmt(q1)}, {fmt(q3)}]")
            print(f"{workload:18s} {m['name']:12s} {cells[0]:>36s} "
                  f"{cells[1]:>36s} {won:5.2f}  {v}")
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        if not trace:
            continue
        print(f"-- per-layer, {workload} (medians of traced runs)")
        for name in sorted(set(parent[key]) | set(change[key])):
            p, c = parent[key].get(name), change[key].get(name)
            pm = statistics.median(p) if p else float("nan")
            cm = statistics.median(c) if c else float("nan")
            print(f"   {name:32s} {fmt(pm):>14s} {fmt(cm):>14s}")


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sets = [load(p) for p in argv]
    if len(sets) == 1:
        report_one(sets[0], spec)
    else:
        report_two(sets[0], sets[1], spec)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
