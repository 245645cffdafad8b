#!/usr/bin/env python3
"""Condense BENCH_*.json artifacts into CI comparison summaries.

Micro mode (default): reads the google-benchmark BENCH_micro.json, pairs
each BM_*TableLookup/<N> family with its *Linear counterpart, and writes a
compact comparison JSON (speedup per entry count, plus build provenance).

    compare_index_bench.py BENCH_micro.json [BENCH_index_compare.json]

Stream mode (--stream): reads bench_stream's BENCH_stream.json and writes
BENCH_swap.json summarizing the hot-swap rows — per config: swap latency,
throughput during the swap run, and the degradation ratio vs the no-swap
baseline row of the same (model, shards, threads) — and, when the artifact
carries "scaling_runs", the multi-ingest thread-scaling rows: aggregate
pps, scaling efficiency vs the 1x1 run, and the shed rate per config.
With a second stream file (a previous run's artifact), every throughput
row is also diffed across the two runs, so CI can chart serving-path
regressions.

    compare_index_bench.py --stream BENCH_stream.json \
        [--baseline OLD_BENCH_stream.json] [BENCH_swap.json]

Swap mode (--swap): everything --stream does, plus the O(delta) table
update sweep ("update_runs"): per (table_entries, patched_entries) point
the in-place ApplyDelta latency vs the rebuild+reseal latency, the
speedup, and the bytes the control plane would push. The sanity gate:
the patched table and the resealed table must decide the probe keys
identically (checksum_delta == checksum_reseal) on every row; a mismatch
fails the run — a delta that changes decisions is a correctness bug, not
a perf result.

    compare_index_bench.py --swap BENCH_stream.json \
        [--baseline OLD_BENCH_stream.json] [BENCH_swap.json]

Flowscale mode (--flowscale): reads bench_flowscale's BENCH_flowscale.json
and writes BENCH_flowscale_compare.json — per (live_flows, eviction) pair
the split vs interleaved layout speedup, plus the second-chance vs LRU
ratio for the split layout. The sanity gate: LRU rows of the two layouts
must report identical hit/miss/eviction counts (layout is physical, not
semantic); a mismatch fails the run.

    compare_index_bench.py --flowscale BENCH_flowscale.json \
        [BENCH_flowscale_compare.json]

Latency mode (--latency): reads the "latency_runs" section of
BENCH_stream.json (the unsampled / sampled A/B that bench_stream measures
arm-interleaved, best-of-N) and writes BENCH_latency_compare.json. The CI
gate: 1-in-32 stage-latency sampling must cost < 2% throughput vs the
unsampled run (counters only) of the same bench. Also prints the
sampled-mode latency quantiles for the log.

    compare_index_bench.py --latency BENCH_stream.json \
        [BENCH_latency_compare.json] [--max-regression 0.02]
"""
import argparse
import json
import sys


def micro_mode(src: str, dst: str) -> int:
    with open(src) as f:
        data = json.load(f)

    times = {}
    for b in data.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        times[b["name"]] = b["real_time"]  # ns (default time_unit)

    rows = []
    for name, t_indexed in sorted(times.items()):
        if "Linear" in name:
            continue
        base, _, arg = name.partition("/")
        linear = f"{base}Linear/{arg}" if arg else f"{base}Linear"
        if linear not in times:
            continue
        t_linear = times[linear]
        rows.append({
            "family": base.removeprefix("BM_"),
            "entries": int(arg) if arg else None,
            "indexed_ns": round(t_indexed, 2),
            "linear_ns": round(t_linear, 2),
            "speedup": round(t_linear / t_indexed, 2) if t_indexed else None,
        })

    context = data.get("context", {})
    out = {
        "bench": "index_compare",
        "build_type": context.get("build_type", "unknown"),
        "git_sha": context.get("git_sha", "unknown"),
        "library_build_type": context.get("library_build_type", "unknown"),
        "comparisons": rows,
    }
    with open(dst, "w") as f:
        json.dump(out, f, indent=2)
        f.write("\n")

    for r in rows:
        print(f"{r['family']}/{r['entries']}: indexed {r['indexed_ns']} ns "
              f"vs linear {r['linear_ns']} ns -> {r['speedup']}x")
    if not rows:
        print("warning: no indexed/linear benchmark pairs found",
              file=sys.stderr)
        return 1
    return 0


def _run_key(row: dict) -> tuple:
    return (row.get("model"), row.get("feature"), row.get("shards"),
            row.get("threads"))


def stream_mode(src: str, baseline: str, dst: str,
                with_updates: bool = False) -> int:
    with open(src) as f:
        data = json.load(f)

    swaps = []
    for r in data.get("swap_runs", []):
        base_pps = r.get("baseline_packets_per_sec") or 0.0
        pps = r.get("packets_per_sec") or 0.0
        swaps.append({
            "model": r.get("model"),
            "shards": r.get("shards"),
            "threads": r.get("threads"),
            "swaps": r.get("swaps"),
            "swap_latency_ms": r.get("swap_latency_ms"),
            "packets_per_sec": pps,
            "baseline_packets_per_sec": base_pps,
            "throughput_during_swap_ratio":
                round(pps / base_pps, 3) if base_pps else None,
        })

    scaling = []
    for r in data.get("scaling_runs", []):
        offered = r.get("offered") or 0
        shed = (r.get("shed_ring_full") or 0) + (r.get("shed_misrouted") or 0)
        scaling.append({
            "ingest": r.get("ingest"),
            "shards": r.get("shards"),
            "pin_policy": r.get("pin_policy"),
            "shed_enabled": r.get("shed"),
            "packets_per_sec": r.get("packets_per_sec"),
            "scaling_efficiency": r.get("scaling_efficiency"),
            "shed_rate": round(shed / offered, 6) if offered else 0.0,
            "shed_ring_full": r.get("shed_ring_full"),
            "shed_misrouted": r.get("shed_misrouted"),
        })

    updates = []
    update_mismatches = []
    if with_updates:
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
                update_mismatches.append(
                    f"table_entries={row['table_entries']} "
                    f"patched_entries={row['patched_entries']}: "
                    f"checksum_delta={r.get('checksum_delta')} != "
                    f"checksum_reseal={r.get('checksum_reseal')}")

    out = {
        "bench": "swap",
        "build_type": data.get("build_type", "unknown"),
        "git_sha": data.get("git_sha", "unknown"),
        "dataset": data.get("dataset", "unknown"),
        "swap_runs": swaps,
        "scaling_runs": scaling,
    }
    if with_updates:
        out["update_runs"] = updates
        out["update_decision_mismatches"] = update_mismatches

    if baseline:
        with open(baseline) as f:
            prev = json.load(f)
        prev_runs = {_run_key(r): r for r in prev.get("runs", [])}
        diffs = []
        for r in data.get("runs", []):
            old = prev_runs.get(_run_key(r))
            if old is None:
                continue
            pps_new = r.get("packets_per_sec") or 0.0
            pps_old = old.get("packets_per_sec") or 0.0
            diffs.append({
                "model": r.get("model"),
                "feature": r.get("feature"),
                "shards": r.get("shards"),
                "threads": r.get("threads"),
                "packets_per_sec": pps_new,
                "baseline_packets_per_sec": pps_old,
                "speedup_vs_baseline":
                    round(pps_new / pps_old, 3) if pps_old else None,
            })
        out["run_diffs"] = diffs
        out["baseline_git_sha"] = prev.get("git_sha", "unknown")
        out["baseline_build_type"] = prev.get("build_type", "unknown")

    with open(dst, "w") as f:
        json.dump(out, f, indent=2)
        f.write("\n")

    for s in swaps:
        ratio = s["throughput_during_swap_ratio"]
        print(f"{s['model']} shards={s['shards']} threads={s['threads']}: "
              f"swap gap {s['swap_latency_ms']} ms, "
              f"{s['packets_per_sec']:.0f} pps during swap "
              f"({ratio if ratio is not None else '?'}x of no-swap)")
    for s in scaling:
        eff = s["scaling_efficiency"]
        print(f"scaling ingest={s['ingest']} shards={s['shards']}"
              f" pin={s['pin_policy'] or 'none'}"
              f"{' shed' if s['shed_enabled'] else ''}: "
              f"{s['packets_per_sec']:.0f} pps, "
              f"efficiency {eff if eff is not None else '?'}, "
              f"shed rate {s['shed_rate']}")
    for d in out.get("run_diffs", []):
        print(f"{d['model']}/{d['feature']} shards={d['shards']} "
              f"threads={d['threads']}: {d['packets_per_sec']:.0f} pps "
              f"vs baseline {d['baseline_packets_per_sec']:.0f} "
              f"-> {d['speedup_vs_baseline']}x")
    for u in updates:
        print(f"update n={u['table_entries']} patched={u['patched_entries']}: "
              f"delta {u['delta_ms']} ms vs reseal {u['reseal_ms']} ms "
              f"-> {u['speedup']}x, {u['bytes_pushed']} bytes pushed"
              f"{'' if u['decisions_match'] else '  [DECISION MISMATCH]'}")
    for m in update_mismatches:
        print(f"error: delta/reseal decision mismatch: {m}", file=sys.stderr)
    if not swaps:
        print("warning: no swap_runs found in the stream artifact",
              file=sys.stderr)
        return 1
    if with_updates and not updates:
        print("warning: no update_runs found in the stream artifact",
              file=sys.stderr)
        return 1
    return 1 if update_mismatches else 0


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
    parser.add_argument("src", help="BENCH_micro.json or BENCH_stream.json")
    parser.add_argument("dst", nargs="?", default=None,
                        help="output JSON (defaults per mode)")
    parser.add_argument("--stream", action="store_true",
                        help="summarize BENCH_stream.json -> BENCH_swap.json")
    parser.add_argument("--swap", action="store_true",
                        help="like --stream, plus the O(delta) update sweep "
                             "(fails on delta/reseal decision mismatch)")
    parser.add_argument("--flowscale", action="store_true",
                        help="summarize BENCH_flowscale.json -> "
                             "BENCH_flowscale_compare.json")
    parser.add_argument("--baseline", default=None,
                        help="previous BENCH_stream.json to diff against "
                             "(stream mode)")
    parser.add_argument("--latency", action="store_true",
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
    if args.stream or args.swap:
        return stream_mode(args.src, args.baseline,
                           args.dst or "BENCH_swap.json",
                           with_updates=args.swap)
    if args.flowscale:
        return flowscale_mode(args.src,
                              args.dst or "BENCH_flowscale_compare.json")
    return micro_mode(args.src, args.dst or "BENCH_index_compare.json")


if __name__ == "__main__":
    sys.exit(main())
