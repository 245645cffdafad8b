#!/usr/bin/env python3
"""Gate the BENCH_*.json artifacts CI produces, and condense each into a
summary JSON. Every mode exits 1 when its gate fails or its input section
is missing.

Swap mode (--swap): reads the O(delta) table update sweep ("update_runs")
of bench_stream's BENCH_stream.json and writes BENCH_swap.json: per
(table_entries, patched_entries) point the in-place ApplyDelta latency vs
the rebuild+reseal latency, the speedup, and the bytes the control plane
would push. The gate: the patched table and the resealed table must
decide the probe keys identically (checksum_delta == checksum_reseal) on
every row; a delta that changes decisions is a correctness bug, not a perf
result.

    compare_index_bench.py --swap BENCH_stream.json [BENCH_swap.json]

Flowscale mode (--flowscale): reads bench_flowscale's BENCH_flowscale.json
and writes BENCH_flowscale_compare.json — per (live_flows, eviction) pair
the split vs interleaved layout speedup, plus the second-chance vs LRU
ratio for the split layout. The gate: LRU rows of the two layouts must
report identical hit/miss/eviction counts (layout is physical, not
semantic).

    compare_index_bench.py --flowscale BENCH_flowscale.json \
        [BENCH_flowscale_compare.json]

Latency mode (--latency): reads the "latency_runs" section of
BENCH_stream.json (the unsampled / sampled A/B that bench_stream measures
arm-interleaved, best-of-N) and writes BENCH_latency_compare.json. The
gate: 1-in-32 stage-latency sampling must cost < 2% throughput vs the
unsampled run (counters only) of the same bench. Also prints the
sampled-mode latency quantiles for the log.

    compare_index_bench.py --latency BENCH_stream.json \
        [BENCH_latency_compare.json] [--max-regression 0.02]
"""
import argparse
import json
import sys


def swap_mode(src: str, dst: str) -> int:
    with open(src) as f:
        data = json.load(f)

    updates = []
    mismatches = []
    for r in data.get("update_runs", []):
        row = {
            "table_entries": r.get("table_entries"),
            "patched_entries": r.get("patched_entries"),
            "delta_ms": r.get("delta_ms"),
            "reseal_ms": r.get("reseal_ms"),
            "speedup": r.get("speedup"),
            "bytes_pushed": r.get("bytes_pushed"),
            "decisions_match":
                r.get("checksum_delta") == r.get("checksum_reseal"),
        }
        updates.append(row)
        if not row["decisions_match"]:
            mismatches.append(
                f"table_entries={row['table_entries']} "
                f"patched_entries={row['patched_entries']}: "
                f"checksum_delta={r.get('checksum_delta')} != "
                f"checksum_reseal={r.get('checksum_reseal')}")

    out = {
        "bench": "swap",
        "build_type": data.get("build_type", "unknown"),
        "git_sha": data.get("git_sha", "unknown"),
        "dataset": data.get("dataset", "unknown"),
        "update_runs": updates,
        "update_decision_mismatches": mismatches,
    }
    with open(dst, "w") as f:
        json.dump(out, f, indent=2)
        f.write("\n")

    for u in updates:
        print(f"update n={u['table_entries']} patched={u['patched_entries']}: "
              f"delta {u['delta_ms']} ms vs reseal {u['reseal_ms']} ms "
              f"-> {u['speedup']}x, {u['bytes_pushed']} bytes pushed"
              f"{'' if u['decisions_match'] else '  [DECISION MISMATCH]'}")
    for m in mismatches:
        print(f"error: delta/reseal decision mismatch: {m}", file=sys.stderr)
    if not updates:
        print("warning: no update_runs found in the stream artifact",
              file=sys.stderr)
        return 1
    return 1 if mismatches else 0


def flowscale_mode(src: str, dst: str) -> int:
    with open(src) as f:
        data = json.load(f)

    by_point = {}  # live_flows -> {(layout, eviction): row}
    for r in data.get("runs", []):
        by_point.setdefault(r["live_flows"], {})[
            (r.get("layout"), r.get("eviction"))] = r

    rows = []
    mismatches = []
    for live in sorted(by_point):
        point = by_point[live]
        split = point.get(("split", "lru"))
        inter = point.get(("interleaved", "lru"))
        clock = point.get(("split", "second_chance"))
        if split is None or inter is None:
            continue
        # Layout is a physical choice: the LRU rows must agree on every
        # semantic counter, or the A/B is comparing different workloads.
        for key in ("hits", "misses", "evictions", "probe_hist"):
            if split.get(key) != inter.get(key):
                mismatches.append(f"live_flows={live}: {key} differs "
                                  f"({split.get(key)} vs {inter.get(key)})")
        split_pps = split.get("packets_per_sec") or 0.0
        inter_pps = inter.get("packets_per_sec") or 0.0
        rows.append({
            "live_flows": live,
            "split_packets_per_sec": split_pps,
            "interleaved_packets_per_sec": inter_pps,
            "split_speedup": round(split_pps / inter_pps, 3)
                             if inter_pps else None,
            "second_chance_packets_per_sec":
                clock.get("packets_per_sec") if clock else None,
            "second_chance_vs_lru":
                round((clock.get("packets_per_sec") or 0.0) / split_pps, 3)
                if clock and split_pps else None,
            "hit_rate": split.get("hit_rate"),
            "load_factor": split.get("load_factor"),
            "mean_probe": split.get("mean_probe"),
            "evictions": split.get("evictions"),
        })

    out = {
        "bench": "flowscale_compare",
        "build_type": data.get("build_type", "unknown"),
        "git_sha": data.get("git_sha", "unknown"),
        "comparisons": rows,
        "layout_counter_mismatches": mismatches,
    }
    with open(dst, "w") as f:
        json.dump(out, f, indent=2)
        f.write("\n")

    for r in rows:
        print(f"live={r['live_flows']}: split {r['split_packets_per_sec']:.0f}"
              f" vs interleaved {r['interleaved_packets_per_sec']:.0f} pps"
              f" -> {r['split_speedup']}x (load {r['load_factor']},"
              f" probe {r['mean_probe']},"
              f" second-chance {r['second_chance_vs_lru']}x)")
    for m in mismatches:
        print(f"error: layout counter mismatch: {m}", file=sys.stderr)
    if not rows:
        print("warning: no split/interleaved row pairs found",
              file=sys.stderr)
        return 1
    return 1 if mismatches else 0


def latency_mode(src: str, dst: str, max_regression: float) -> int:
    with open(src) as f:
        data = json.load(f)

    arms = {r.get("mode"): r for r in data.get("latency_runs", [])}
    unsampled = arms.get("unsampled")
    sampled = arms.get("sampled")
    if unsampled is None or sampled is None:
        print("error: latency_runs must contain 'unsampled' and 'sampled' "
              "arms (rebuild bench_stream?)", file=sys.stderr)
        return 1

    base_pps = unsampled.get("packets_per_sec") or 0.0
    pps = sampled.get("packets_per_sec") or 0.0
    gate_ratio = round(pps / base_pps, 4) if base_pps else 0.0
    floor = 1.0 - max_regression
    passed = gate_ratio >= floor

    out = {
        "bench": "latency_compare",
        "build_type": data.get("build_type", "unknown"),
        "git_sha": data.get("git_sha", "unknown"),
        "dataset": data.get("dataset", "unknown"),
        "unsampled_packets_per_sec": base_pps,
        "sampled_packets_per_sec": pps,
        "gate_ratio": gate_ratio,
        "max_regression": max_regression,
        "passed": passed,
        "sampled_latency": {
            "sample_every": sampled.get("sample_every"),
            "p50_ns": sampled.get("latency_p50_ns"),
            "p99_ns": sampled.get("latency_p99_ns"),
            "p999_ns": sampled.get("latency_p999_ns"),
        },
    }
    with open(dst, "w") as f:
        json.dump(out, f, indent=2)
        f.write("\n")

    print(f"unsampled: {base_pps:.0f} pps")
    print(f"sampled: {pps:.0f} pps ({gate_ratio}x of unsampled)")
    print(f"sampled (1-in-{sampled.get('sample_every')}) e2e latency: "
          f"p50 {sampled.get('latency_p50_ns', 0) / 1e3:.1f} us, "
          f"p99 {sampled.get('latency_p99_ns', 0) / 1e3:.1f} us, "
          f"p999 {sampled.get('latency_p999_ns', 0) / 1e3:.1f} us")
    if not passed:
        print(f"error: sampled/unsampled throughput ratio {gate_ratio} "
              f"below the {floor} gate — stage-latency sampling costs more "
              f"than {max_regression:.0%}", file=sys.stderr)
        return 1
    print(f"gate: {gate_ratio} >= {floor} ok")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("src", help="BENCH_stream.json or BENCH_flowscale.json")
    parser.add_argument("dst", nargs="?", default=None,
                        help="output JSON (defaults per mode)")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--swap", action="store_true",
                      help="gate the O(delta) update sweep in "
                           "BENCH_stream.json -> BENCH_swap.json "
                           "(fails on delta/reseal decision mismatch)")
    mode.add_argument("--flowscale", action="store_true",
                      help="summarize BENCH_flowscale.json -> "
                           "BENCH_flowscale_compare.json")
    mode.add_argument("--latency", action="store_true",
                      help="gate the unsampled/sampled telemetry A/B "
                           "in BENCH_stream.json -> "
                           "BENCH_latency_compare.json")
    parser.add_argument("--max-regression", type=float, default=0.02,
                        help="allowed sampling throughput loss "
                             "(latency mode, default 0.02)")
    args = parser.parse_args()

    if args.latency:
        return latency_mode(args.src,
                            args.dst or "BENCH_latency_compare.json",
                            args.max_regression)
    if args.swap:
        return swap_mode(args.src, args.dst or "BENCH_swap.json")
    return flowscale_mode(args.src,
                          args.dst or "BENCH_flowscale_compare.json")


if __name__ == "__main__":
    sys.exit(main())
