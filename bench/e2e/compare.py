#!/usr/bin/env python3
"""Compares two sets of pegabench runs, metric by metric and workload by
workload.

    python3 bench/e2e/compare.py A.json B.json

A and B are files written by `bench/e2e/run.sh --out` (A is the baseline,
for example the parent commit, and B the change). Runs pair up in file
order within each workload, so record them alternating: A, B, A, B, ...

For every end-to-end metric of BENCHMARK.json it prints each side's median
and quartiles and a verdict, judged against the metric's bound:

  improved    B beats A in at least 9 of every 10 pairs (ties count for
              neither side), with at least 10 pairs, and the medians differ
              by more than A's quartile spread;
  worse       B's median is worse than A's by more than the bound;
  unresolved  either side's quartile spread, as a share of its median, is
              wider than the bound, unless every B run beats every A run;
  unchanged   otherwise.

Per-layer metrics have no bound: they are printed with their relative shift
and never judged. Exit status: 1 if any verdict is worse, else 0.
"""
import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(path):
    with open(path) as f:
        runs = json.load(f)["runs"]
    if any(r.get("quick") for r in runs):
        print(f"warning: {path} holds --quick runs; their numbers are not "
              "comparable", file=sys.stderr)
    return runs


def by_workload(runs):
    out = {}
    for r in runs:
        out.setdefault(r["workload"], []).append(r)
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a, b, bound, higher_is_better):
    """Judges B against A for one end-to-end metric (lists of run values)."""
    sign = 1.0 if higher_is_better else -1.0
    a1, am, a3 = quartiles(a)
    b1, bm, b3 = quartiles(b)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    gain = sign * (bm - am) / abs(am) if am else 0.0
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) and
            gain > 0 and abs(bm - am) > a3 - a1):
        return "improved"
    if gain < -bound:
        return "worse"
    spread = max((a3 - a1) / abs(am) if am else 0.0,
                 (b3 - b1) / abs(bm) if bm else 0.0)
    all_better = (min(b) > max(a)) if higher_is_better else (max(b) < min(a))
    if spread > bound and not all_better:
        return "unresolved"
    return "unchanged"


def fmt(values):
    q1, med, q3 = quartiles(values)
    return f"{med:12.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    per_layer = {m["name"]: m for m in spec["per_layer"]}
    a_runs = by_workload(load_runs(argv[1]))
    b_runs = by_workload(load_runs(argv[2]))
    worse = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        a, b = a_runs.get(workload, []), b_runs.get(workload, [])
        if not a or not b:
            print(f"{workload}: missing on one side ({len(a)} vs {len(b)} "
                  "runs)")
            continue
        print(f"== {workload}: {len(a)} vs {len(b)} runs")
        print(f"  {'metric':44s} {'A median [q1, q3]':>36s} "
              f"{'B median [q1, q3]':>36s} {'shift':>8s} {'bound':>6s}  "
              "verdict")
        for name, meta in list(end_to_end.items()) + list(per_layer.items()):
            av = [r["metrics"][name]["value"] for r in a
                  if name in r["metrics"]]
            bv = [r["metrics"][name]["value"] for r in b
                  if name in r["metrics"]]
            if not av or not bv:
                continue
            am, bm = statistics.median(av), statistics.median(bv)
            shift = f"{100 * (bm - am) / abs(am):+7.2f}%" if am else "    n/a"
            if name in end_to_end:
                v = verdict(av, bv, meta["bound"], meta["better"] == "higher")
                worse += v == "worse"
                bound = f"{100 * meta['bound']:5.1f}%"
            else:
                v, bound = "-", ""
            print(f"  {name:44s} {fmt(av):>36s} {fmt(bv):>36s} {shift:>8s} "
                  f"{bound:>6s}  {v}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
