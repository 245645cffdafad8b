// Serving-side CI gates: the O(delta) table-update sweep and the cost of
// stage-latency sampling, plus the telemetry artifacts CI converts. Writes
// BENCH_stream.json (argv[1] overrides the path) with two sections:
//
//   update_runs  — in-place ApplyDelta vs rebuild+reseal over table size x
//                  patched-entry count. tools/compare_index_bench.py --swap
//                  fails CI when a patched table decides differently from
//                  its resealed twin;
//   latency_runs — MLP-B on 4 shards multi-threaded, unsampled vs 1-in-32
//                  stage-latency sampling, arm-interleaved best of 5.
//                  compare_index_bench.py --latency gates the sampled /
//                  unsampled throughput ratio.
//
// Next to it go BENCH_telemetry.json (the sampled arm's TelemetrySnapshot)
// and BENCH_trace.json (the flight recorder of a swap+shed run, which
// tools/trace_to_chrome.py converts for Perfetto).
//
// Serving throughput and latency are measured by pegabench (bench/e2e):
// each of its workloads serves for seconds, over several passes, behind a
// decision oracle.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common.hpp"
#include "compiler/compiler.hpp"
#include "eval/experiment.hpp"
#include "runtime/stream_server.hpp"

namespace {

namespace dp = pegasus::dataplane;
namespace ev = pegasus::eval;
namespace rt = pegasus::runtime;
namespace tel = pegasus::telemetry;

/// The sampled arm's cadence, the one CI gates.
constexpr std::uint32_t kBenchSampleEvery = 32;

// ---- O(delta) update latency sweep ----------------------------------------
// Compares the two ways a new model version reaches a serving table:
//   delta  — ApplyDelta the changed entries' new action words in place on
//            the sealed table
//            (the per-table patch work StreamServer::SwapModelDelta does;
//            on a switch the update is literally in place);
//   reseal — rebuild the table from the full entry list and Seal() (the
//            full-swap path).
// Each rep patches a fresh Clone() of the base so reps are independent,
// but the clone is harness scaffolding, not update work, and stays
// outside the timed window. Swept over table size x patched-entry count;
// both paths must decide probe keys identically, winner and written word
// (checksums compared by compare_index_bench.py --swap, which fails CI on
// a mismatch).

struct UpdateRow {
  std::size_t table_entries = 0;
  std::size_t patched_entries = 0;
  double delta_ms = 0.0;
  double reseal_ms = 0.0;
  double speedup = 0.0;
  std::uint64_t bytes_pushed = 0;
  std::uint64_t checksum_delta = 0;
  std::uint64_t checksum_reseal = 0;
};

std::uint64_t LookupChecksum(const dp::MatchActionTable& table,
                             const dp::PhvLayout& layout,
                             const std::vector<dp::FieldId>& keys,
                             dp::FieldId out, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  dp::Phv phv(layout);
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (int probe = 0; probe < 512; ++probe) {
    for (const dp::FieldId k : keys) {
      phv.Set(k, static_cast<std::int64_t>(rng() & 0xffff));
    }
    const auto hit = table.Lookup(phv);
    h ^= hit ? static_cast<std::uint64_t>(*hit) + 1 : 0;
    h *= 1099511628211ull;
    // The word the hit writes: a delta changes words, never winners.
    phv.Set(out, -1);
    table.Apply(phv);
    h ^= static_cast<std::uint64_t>(phv.Get(out));
    h *= 1099511628211ull;
  }
  return h;
}

std::vector<UpdateRow> RunUpdateSweep() {
  std::vector<UpdateRow> out;
  std::mt19937_64 rng(404);
  const std::vector<int> widths{16, 16};
  std::vector<dp::ActionOp> prog;  // filled per layout below
  for (const std::size_t n :
       {std::size_t{64}, std::size_t{256}, std::size_t{1024},
        std::size_t{4096}}) {
    dp::PhvLayout layout;
    std::vector<dp::FieldId> keys;
    for (std::size_t i = 0; i < widths.size(); ++i) {
      keys.push_back(layout.AddField("k" + std::to_string(i), widths[i]));
    }
    const dp::FieldId outf = layout.AddField("o", 32);
    prog = {{dp::ActionOp::Kind::kSetFromData, outf, 0, 0, -1}};

    std::vector<dp::TableEntry> entries;
    for (std::size_t e = 0; e < n; ++e) {
      dp::TableEntry entry;
      for (int w : widths) {
        const std::uint64_t dmax = (1ull << w) - 1;
        // Mix exact-value rules with wildcarded ones.
        entry.ternary.push_back(rng() % 4 == 0
                                    ? dp::TernaryRule{rng() & dmax,
                                                      rng() & dmax}
                                    : dp::TernaryRule{rng() & dmax, dmax});
      }
      entry.priority = static_cast<int>(rng() % 4);
      entry.action_data = {static_cast<std::int64_t>(e)};
      entries.push_back(entry);
    }
    auto base = std::make_unique<dp::MatchActionTable>(
        "u", dp::MatchKind::kTernary, keys, widths, prog, 32);
    for (const auto& e : entries) base->AddEntry(e);
    base->Seal();

    std::vector<std::size_t> deltas{1, std::max<std::size_t>(1, n / 100),
                                    std::max<std::size_t>(1, n / 10), n};
    deltas.erase(std::unique(deltas.begin(), deltas.end()), deltas.end());
    for (const std::size_t k : deltas) {
      // k distinct entries get new action words; each patch repeats its
      // entry's rules and priority, as the planner's patches do.
      std::vector<dp::EntryPatch> patches;
      auto mutated = entries;
      for (std::size_t j = 0; j < k; ++j) {
        const std::size_t e = (j * 16777619u) % n;  // spread, distinct for k<=n
        dp::EntryPatch patch;
        patch.entry_index = e;
        patch.priority = entries[e].priority;
        patch.ternary = entries[e].ternary;
        patch.action_data = {static_cast<std::int64_t>(rng() % 100000)};
        mutated[e].action_data = patch.action_data;
        patches.push_back(std::move(patch));
      }

      UpdateRow row;
      row.table_entries = n;
      row.patched_entries = k;
      constexpr int kReps = 5;
      std::unique_ptr<dp::MatchActionTable> patched;
      std::unique_ptr<dp::MatchActionTable> resealed;
      for (int rep = 0; rep < kReps; ++rep) {
        auto clone = base->Clone();  // fresh base per rep, untimed
        auto t0 = std::chrono::steady_clock::now();
        row.bytes_pushed = clone->ApplyDelta(patches);
        auto t1 = std::chrono::steady_clock::now();
        const double delta_ms =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        if (rep == 0 || delta_ms < row.delta_ms) row.delta_ms = delta_ms;
        patched = std::move(clone);

        t0 = std::chrono::steady_clock::now();
        auto fresh = std::make_unique<dp::MatchActionTable>(
            "u", dp::MatchKind::kTernary, keys, widths, prog, 32);
        for (const auto& e : mutated) fresh->AddEntry(e);
        fresh->Seal();
        t1 = std::chrono::steady_clock::now();
        const double reseal_ms =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        if (rep == 0 || reseal_ms < row.reseal_ms) row.reseal_ms = reseal_ms;
        resealed = std::move(fresh);
      }
      row.speedup = row.delta_ms > 0.0 ? row.reseal_ms / row.delta_ms : 0.0;
      row.checksum_delta =
          LookupChecksum(*patched, layout, keys, outf, 1000 + n);
      row.checksum_reseal =
          LookupChecksum(*resealed, layout, keys, outf, 1000 + n);
      out.push_back(row);
    }
  }
  return out;
}

// ---- sampling cost ----------------------------------------------------------

struct LatencyRow {
  std::string mode;
  std::uint32_t sample_every = 0;
  double wall_ms = 0.0;
  double pps = 0.0;
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  double p999_ns = 0.0;
};

rt::StreamServerOptions MlpShardOptions() {
  rt::StreamServerOptions opts;
  opts.num_shards = 4;
  opts.flows_per_shard = 1 << 10;
  opts.feature = rt::FeatureKind::kStat;
  opts.multithreaded = true;
  return opts;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pegasus;
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_stream.json";
  const std::string dir =
      out_path.find('/') != std::string::npos
          ? out_path.substr(0, out_path.rfind('/') + 1)
          : std::string();
  const std::string telemetry_path = dir + "BENCH_telemetry.json";
  const std::string trace_path = dir + "BENCH_trace.json";
  const bench::BenchScale scale = bench::ScaleFromEnv();

  // ---- O(delta) update latency vs delta size -----------------------------
  const auto update_rows = RunUpdateSweep();
  std::printf("O(delta) table update (in-place patch vs rebuild+reseal):\n");
  std::printf("%9s %9s %12s %12s %9s %8s %6s\n", "entries", "patched",
              "delta ms", "reseal ms", "speedup", "bytes", "match");
  for (const auto& r : update_rows) {
    std::printf("%9zu %9zu %12.4f %12.4f %8.1fx %8llu %6s\n",
                r.table_entries, r.patched_entries, r.delta_ms, r.reseal_ms,
                r.speedup, static_cast<unsigned long long>(r.bytes_pushed),
                r.checksum_delta == r.checksum_reseal ? "ok" : "FAIL");
  }

  // ---- MLP-B on the stat path over one merged trace ----------------------
  auto prep = eval::Prepare(traffic::PeerRushSpec(scale.peerrush_flows),
                            /*with_raw_bytes=*/false);
  models::MlpBConfig mlp_cfg;
  mlp_cfg.epochs = scale.epochs_small;
  auto mlp = models::MlpB::Train(prep.stat.train.x, prep.stat.train.labels,
                                 prep.stat.train.size(), prep.stat.train.dim,
                                 prep.num_classes, mlp_cfg);
  runtime::LoweringOptions lopts;
  lopts.stateful_bits_per_flow =
      runtime::OnlineFlowStateSpec(runtime::FeatureKind::kStat).BitsPerFlow();
  const auto mlp_lowered = std::make_shared<const runtime::LoweredModel>(
      compiler::PlaceOnSwitch(mlp->Compiled(), lopts));
  const auto trace = traffic::MergeTrace(prep.dataset.flows);
  std::printf("\ndataset: %s, %zu flows; merged trace: %zu packets\n",
              prep.name.c_str(), prep.dataset.flows.size(), trace.size());

  // Two arms on the same config:
  //   unsampled — sample_every = 0: the always-on counters only (the
  //               baseline);
  //   sampled   — 1-in-32 stage-latency sampling.
  // Arms interleave inside the rep loop and each keeps its best rep: a
  // machine-load drift mid-section biases every arm equally instead of
  // landing on one. The sampled arm's last rep leaves the TelemetrySnapshot
  // JSON artifact.
  constexpr int kLatencyReps = 5;
  std::vector<LatencyRow> latency_rows(2);
  latency_rows[0].mode = "unsampled";
  latency_rows[1].mode = "sampled";
  latency_rows[1].sample_every = kBenchSampleEvery;
  for (int rep = 0; rep < kLatencyReps; ++rep) {
    for (LatencyRow& row : latency_rows) {
      rt::StreamServerOptions opts = MlpShardOptions();
      opts.telemetry.sample_every = row.sample_every;
      rt::StreamServer server(mlp_lowered, opts, 1);
      const auto run = ev::ServeTrace(server, trace);
      if (run.packets_per_sec > row.pps) {
        row.wall_ms = run.wall_ms;
        row.pps = run.packets_per_sec;
        const auto& e2e = run.stats.stage(tel::Stage::kEndToEnd);
        row.p50_ns = e2e.p50_ns;
        row.p99_ns = e2e.p99_ns;
        row.p999_ns = e2e.p999_ns;
      }
      if (row.sample_every != 0 && rep + 1 == kLatencyReps) {
        std::ofstream tf(telemetry_path);
        tel::WriteJson(run.stats, tf);
      }
    }
  }
  std::printf("\nsampling cost (MLP-B, 4 shards MT, best of %d):\n",
              kLatencyReps);
  std::printf("%-9s %10s %12s %9s %9s %9s %9s\n", "mode", "wall ms",
              "pkts/s", "vs unsamp", "p50 us", "p99 us", "p999 us");
  for (const auto& r : latency_rows) {
    std::printf("%-9s %10.1f %12.0f %9.3f %9.2f %9.2f %9.2f\n",
                r.mode.c_str(), r.wall_ms, r.pps,
                latency_rows[0].pps > 0.0 ? r.pps / latency_rows[0].pps
                                          : 0.0,
                r.p50_ns / 1e3, r.p99_ns / 1e3, r.p999_ns / 1e3);
  }
  std::printf("wrote %s\n", telemetry_path.c_str());

  // Flight-recorder artifact: a run with a midpoint hot swap (v1 published
  // again as version 2) on a deliberately small ring, so the dump shows
  // swap begin/apply/publish AND shed markers.
  {
    rt::StreamServerOptions opts = MlpShardOptions();
    // Moderate overload: small enough to shed visibly under burst
    // pressure, big enough that packet spans still dominate the dump.
    opts.queue_capacity = 1 << 9;
    opts.burst = 32;
    opts.shed = true;
    opts.escalation = rt::EscalationPolicy::Immediate();
    opts.telemetry.sample_every = kBenchSampleEvery;
    opts.telemetry.trace_events = 4096;
    rt::StreamServer server(mlp_lowered, opts, 1);
    (void)ev::ServeTraceWithSwap(server, trace, trace.size() / 2,
                                 mlp_lowered, 2);
    std::ofstream tf(trace_path);
    server.WriteTrace(tf);
    std::printf("wrote %s (%zu flight-recorder events; view with "
                "tools/trace_to_chrome.py)\n",
                trace_path.c_str(), server.DumpTrace().size());
  }

  // ---- JSON artifact ------------------------------------------------------
  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"stream\",\n  \"build_type\": \"%s\",\n"
               "  \"git_sha\": \"%s\",\n  \"dataset\": \"%s\",\n"
               "  \"trace_packets\": %zu,\n  \"update_runs\": [\n",
               bench::BuildType(), bench::GitSha(), prep.name.c_str(),
               trace.size());
  for (std::size_t i = 0; i < update_rows.size(); ++i) {
    const UpdateRow& r = update_rows[i];
    std::fprintf(
        f,
        "    {\"table_entries\": %zu, \"patched_entries\": %zu, "
        "\"delta_ms\": %.5f, \"reseal_ms\": %.5f, \"speedup\": %.2f, "
        "\"bytes_pushed\": %llu, \"checksum_delta\": %llu, "
        "\"checksum_reseal\": %llu}%s\n",
        r.table_entries, r.patched_entries, r.delta_ms, r.reseal_ms,
        r.speedup, static_cast<unsigned long long>(r.bytes_pushed),
        static_cast<unsigned long long>(r.checksum_delta),
        static_cast<unsigned long long>(r.checksum_reseal),
        i + 1 < update_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"latency_runs\": [\n");
  for (std::size_t i = 0; i < latency_rows.size(); ++i) {
    const LatencyRow& r = latency_rows[i];
    std::fprintf(
        f,
        "    {\"mode\": \"%s\", \"sample_every\": %u, \"wall_ms\": %.3f, "
        "\"packets_per_sec\": %.1f, \"latency_p50_ns\": %.0f, "
        "\"latency_p99_ns\": %.0f, \"latency_p999_ns\": %.0f}%s\n",
        r.mode.c_str(), r.sample_every, r.wall_ms, r.pps, r.p50_ns,
        r.p99_ns, r.p999_ns, i + 1 < latency_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}
