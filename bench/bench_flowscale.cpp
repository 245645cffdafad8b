// Flow-state scaling benchmark: the FlowTable under churn at 10K → 1M live
// flows — the memory-system story (5GC²ache: LLC behavior, not instruction
// count, governs per-packet serving cost at scale), measured end-to-end
// through the serving path rather than in a table microbenchmark.
//
// Each sweep point streams a deterministic ChurnGenerator scenario
// (elephants + mice with steady retire/replace churn, periodic port-scan
// and SYN-flood bursts of never-repeating flows) through a single-shard
// single-threaded StreamServer on the MLP-B stat path, so the only thing
// that changes across rows at one live-flow count is the FlowTable
// configuration:
//
//   split + lru           — the default split-lane layout (hot 16-byte
//                           metadata lane probed separately from the cold
//                           per-flow state lane);
//   interleaved + lru     — the pre-split baseline (metadata and value in
//                           one slot: every probe step drags a cold line);
//   split + second_chance — the CLOCK-style eviction alternative.
//
// Identical spec -> bit-identical packet sequence, so layout rows at one
// point are directly comparable. Per-row hit rate, evictions, load factor
// and the probe-length histogram land in BENCH_flowscale.json (argv[1]
// overrides the path); tools/compare_index_bench.py --flowscale folds the
// layout A/B into speedup rows. The acceptance signal: split-lane pps >=
// interleaved pps from 256K live flows up, where the metadata lane still
// fits in LLC but the interleaved slot array long since does not.
//
// PEGASUS_BENCH_SCALE=small caps the sweep at 64K live flows for CI; the
// full sweep reaches 1M.
#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "compiler/compiler.hpp"
#include "eval/experiment.hpp"
#include "runtime/stream_server.hpp"
#include "traffic/synthetic.hpp"

namespace {

namespace ev = pegasus::eval;
namespace rt = pegasus::runtime;
namespace tr = pegasus::traffic;

struct FlowScaleRow {
  std::size_t live_flows = 0;
  std::string layout;
  std::string eviction;
  std::size_t table_slots = 0;
  std::uint64_t packets = 0;
  std::uint64_t decisions = 0;
  std::uint64_t warmup = 0;
  std::uint64_t flows_started = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t inserts = 0;
  std::uint64_t evictions = 0;
  std::uint64_t resident = 0;
  double hit_rate = 0.0;
  double load_factor = 0.0;
  double mean_probe = 0.0;
  std::array<std::uint64_t, rt::FlowTableStats::kProbeHistBuckets> probe_hist{};
  double wall_ms = 0.0;
  double pps = 0.0;
};

FlowScaleRow RunPoint(std::shared_ptr<const rt::LoweredModel> model,
                      std::size_t live_flows, std::size_t packets,
                      rt::FlowTableLayout layout,
                      rt::FlowTableEviction eviction, int reps) {
  // The run is deterministic (same spec -> same packets -> same table
  // decisions), so only the wall clock varies across reps; keep the
  // fastest rep, which is the one least perturbed by the host.
  ev::StreamRun run{};
  std::uint64_t flows_started = 0;
  for (int rep = 0; rep < reps; ++rep) {
    tr::ChurnSpec spec;
    spec.live_flows = live_flows;
    spec.packets = packets;
    tr::ChurnGenerator gen(spec);

    rt::StreamServerOptions opts;
    opts.num_shards = 1;
    // Provisioned at the live working set: the never-emptied table
    // saturates as retired mice and burst corpses accumulate (exactly how
    // a hardware flow cache runs), so probes walk past dead slots and
    // eviction is continuous — the regime where layout and eviction policy
    // matter.
    opts.flows_per_shard = live_flows;
    opts.feature = rt::FeatureKind::kStat;
    opts.table_layout = layout;
    opts.table_eviction = eviction;
    rt::StreamServer server(model, opts, 1);
    auto r = ev::ServeChurn(server, gen);
    flows_started = gen.flows_started();
    if (rep == 0 || r.packets_per_sec > run.packets_per_sec) {
      run = std::move(r);
    }
  }

  FlowScaleRow row;
  row.live_flows = live_flows;
  row.layout = rt::FlowTableLayoutName(layout);
  row.eviction = rt::FlowTableEvictionName(eviction);
  row.table_slots = run.stats.table.slots;
  row.packets = run.stats.packets;
  row.decisions = run.stats.decisions;
  row.warmup = run.stats.warmup;
  row.flows_started = flows_started;
  row.hits = run.stats.table.hits;
  row.misses = run.stats.table.misses;
  row.inserts = run.stats.table.inserts;
  row.evictions = run.stats.table.evictions;
  row.resident = run.stats.table.resident;
  const std::uint64_t ops = row.hits + row.misses;
  row.hit_rate = ops ? static_cast<double>(row.hits) /
                           static_cast<double>(ops)
                     : 0.0;
  row.load_factor = run.stats.table.LoadFactor();
  row.mean_probe = run.stats.table.MeanProbe();
  row.probe_hist = run.stats.table.probe_hist;
  row.wall_ms = run.wall_ms;
  row.pps = run.packets_per_sec;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pegasus;
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_flowscale.json";
  const bench::BenchScale scale = bench::ScaleFromEnv();
  const bool small = scale.peerrush_flows < 150;

  // The model is incidental here (the table is the subject); a quickly
  // trained MLP-B on the stat path keeps per-packet inference cost
  // realistic without dominating the run.
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
  auto lowered = std::make_shared<const runtime::LoweredModel>(
      compiler::PlaceOnSwitch(mlp->Compiled(), lopts));

  std::vector<std::size_t> sweep = {10'000, 65'536};
  if (!small) {
    sweep.push_back(262'144);
    sweep.push_back(1'048'576);
  }

  struct Config {
    runtime::FlowTableLayout layout;
    runtime::FlowTableEviction eviction;
  };
  const Config configs[] = {
      {runtime::FlowTableLayout::kSplit, runtime::FlowTableEviction::kLru},
      {runtime::FlowTableLayout::kInterleaved,
       runtime::FlowTableEviction::kLru},
      {runtime::FlowTableLayout::kSplit,
       runtime::FlowTableEviction::kSecondChance},
  };

  std::vector<FlowScaleRow> rows;
  std::printf("%9s %-12s %-13s %10s %10s %9s %8s %7s %10s %12s\n", "live",
              "layout", "eviction", "packets", "evictions", "hit rate",
              "load", "probe", "wall ms", "pkts/s");
  // Best-of-N damps host noise and the first-row cold-start (the very
  // first run also pays page-in and branch-predictor warm-up).
  const int reps = small ? 2 : 3;
  for (const std::size_t live : sweep) {
    // Enough packets to drive the table to saturation (load ~1.0, probes
    // at steady state) well past warm-up; the small CI pass stays quick.
    const std::size_t packets =
        small ? std::max<std::size_t>(100'000, live)
              : std::max<std::size_t>(500'000, 4 * live);
    for (const Config& c : configs) {
      const auto row =
          RunPoint(lowered, live, packets, c.layout, c.eviction, reps);
      std::printf("%9zu %-12s %-13s %10llu %10llu %9.4f %8.3f %7.2f %10.1f "
                  "%12.0f\n",
                  row.live_flows, row.layout.c_str(), row.eviction.c_str(),
                  static_cast<unsigned long long>(row.packets),
                  static_cast<unsigned long long>(row.evictions),
                  row.hit_rate, row.load_factor, row.mean_probe, row.wall_ms,
                  row.pps);
      rows.push_back(row);
    }
  }

  // Headline: split vs interleaved speedup per sweep point (both LRU).
  std::printf("\nsplit-lane speedup vs interleaved (lru):\n");
  for (const std::size_t live : sweep) {
    double split_pps = 0.0, inter_pps = 0.0;
    for (const auto& r : rows) {
      if (r.live_flows != live || r.eviction != "lru") continue;
      (r.layout == "split" ? split_pps : inter_pps) = r.pps;
    }
    std::printf("  %9zu live: %.3fx\n", live,
                inter_pps > 0.0 ? split_pps / inter_pps : 0.0);
  }

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"flowscale\",\n  \"build_type\": \"%s\",\n"
               "  \"git_sha\": \"%s\",\n  \"runs\": [\n",
               bench::BuildType(), bench::GitSha());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const FlowScaleRow& r = rows[i];
    std::string hist = "[";
    for (std::size_t b = 0; b < r.probe_hist.size(); ++b) {
      hist += std::to_string(r.probe_hist[b]);
      if (b + 1 < r.probe_hist.size()) hist += ", ";
    }
    hist += "]";
    std::fprintf(
        f,
        "    {\"live_flows\": %zu, \"layout\": \"%s\", \"eviction\": \"%s\", "
        "\"table_slots\": %zu, \"packets\": %llu, \"decisions\": %llu, "
        "\"warmup\": %llu, \"flows_started\": %llu, \"hits\": %llu, "
        "\"misses\": %llu, \"inserts\": %llu, \"evictions\": %llu, "
        "\"flows_resident\": %llu, \"hit_rate\": %.6f, "
        "\"load_factor\": %.4f, \"mean_probe\": %.4f, "
        "\"probe_hist\": %s, \"wall_ms\": %.3f, "
        "\"packets_per_sec\": %.1f}%s\n",
        r.live_flows, r.layout.c_str(), r.eviction.c_str(), r.table_slots,
        static_cast<unsigned long long>(r.packets),
        static_cast<unsigned long long>(r.decisions),
        static_cast<unsigned long long>(r.warmup),
        static_cast<unsigned long long>(r.flows_started),
        static_cast<unsigned long long>(r.hits),
        static_cast<unsigned long long>(r.misses),
        static_cast<unsigned long long>(r.inserts),
        static_cast<unsigned long long>(r.evictions),
        static_cast<unsigned long long>(r.resident), r.hit_rate,
        r.load_factor, r.mean_probe, hist.c_str(), r.wall_ms, r.pps,
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}
