// The four workloads: their models, their inputs and one measured pass.
#include <algorithm>
#include <cmath>
#include <random>

#include "compiler/compiler.hpp"
#include "eval/experiment.hpp"
#include "io/replay.hpp"
#include "models/cnn_m.hpp"
#include "models/mlp_b.hpp"
#include "pegabench.hpp"
#include "traffic/synthetic.hpp"

namespace pegabench {

namespace {

// Why each workload exists is in README.md. Closed loops sample 1 packet in
// 32 for latency; paced-swap samples 1 in 8 (its latency is the headline).
constexpr WorkloadSpec kWorkloads[] = {
    {Workload::kMlpInfer, "mlp-infer", false, false, 1, 32},
    {Workload::kFlowChurn, "flow-churn", false, false, 1, 32},
    {Workload::kCaptureMt, "capture-mt", true, true, 2, 32},
    {Workload::kPacedSwap, "paced-swap", false, true, 2, 8},
};

/// Input sizes. --quick shrinks everything for a smoke pass.
struct Scale {
  std::size_t peerrush_flows_per_class;
  std::size_t churn_live_flows;
  std::size_t churn_packets;
};
constexpr Scale kFull{2000, 1'000'000, 4'000'000};
constexpr Scale kQuick{300, 100'000, 400'000};

// The models never depend on --seed: PeerRushSpec's own seed, 25 epochs.
constexpr std::size_t kTrainFlowsPerClass = 150;
constexpr std::size_t kEpochs = 25;

// paced-swap: open-loop Poisson arrivals, and a model swap every 250 ms of
// schedule time.
constexpr double kPacedRatePps = 200'000.0;
constexpr std::uint64_t kSwapEveryNs = 250'000'000;

constexpr std::size_t kProbeSwaps = 16;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

std::shared_ptr<const rt::LoweredModel> Lower(
    const pegasus::core::CompiledModel& compiled, rt::FeatureKind kind) {
  rt::LoweringOptions lo;
  lo.stateful_bits_per_flow = rt::OnlineFlowStateSpec(kind).BitsPerFlow();
  return std::make_shared<const rt::LoweredModel>(
      pegasus::compiler::PlaceOnSwitch(compiled, lo));
}

std::vector<rt::StreamDecision> ServePaced(rt::StreamServer& server,
                                           const Models& models,
                                           const Inputs& in, PassResult& r) {
  const auto& trace = in.trace;
  std::vector<std::uint32_t> lag_ns(trace.size());
  std::uint64_t version = 1;
  bool to_v2 = true;
  std::uint64_t next_swap = kSwapEveryNs;
  std::uint64_t push_total_ns = 0;
  server.Start();
  const std::uint64_t start = NowNs();
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const std::uint64_t due = in.due_ns[i];
    if (due >= next_swap) {
      const std::uint64_t s0 = NowNs();
      server.SwapModel(to_v2 ? models.v2 : models.v1, ++version);
      r.swap_call_us.push_back(static_cast<double>(NowNs() - s0) / 1e3);
      r.swaps.push_back({i, version, to_v2});
      to_v2 = !to_v2;
      next_swap += kSwapEveryNs;
    }
    std::uint64_t t = NowNs() - start;
    while (t < due) t = NowNs() - start;
    server.Push(trace[i]);
    push_total_ns += NowNs() - start - t;
    lag_ns[in.flow_base[trace[i].flow] + trace[i].index] =
        static_cast<std::uint32_t>(std::min<std::uint64_t>(t - due, ~0u));
  }
  server.Stop();
  r.wall_s = static_cast<double>(NowNs() - start) / 1e9;
  r.push_ns = static_cast<double>(push_total_ns) /
              static_cast<double>(std::max<std::size_t>(trace.size(), 1));
  std::vector<double> lags(lag_ns.begin(), lag_ns.end());
  r.gen_lag_p99_us = Quantile(std::move(lags), 0.99) / 1e3;

  auto decisions = server.TakeDecisions();
  // A decision's latency runs from its packet's due time: the producer's
  // own lag plus the server's push -> emit time.
  for (const auto& d : decisions) {
    if (d.latency_ns == 0) continue;
    const std::uint32_t lag = lag_ns[in.flow_base[d.flow] + d.index];
    r.latency_us.push_back(static_cast<double>(d.latency_ns + lag) / 1e3);
  }
  return decisions;
}

}  // namespace

std::span<const WorkloadSpec> AllWorkloads() { return kWorkloads; }

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const auto& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

rt::StreamServerOptions ServerOptions(const WorkloadSpec& spec, bool quick) {
  rt::StreamServerOptions so;
  so.num_shards = spec.shards;
  so.multithreaded = spec.multithreaded;
  so.feature = spec.cnn ? rt::FeatureKind::kSeq : rt::FeatureKind::kStat;
  so.flows_per_shard =
      spec.id == Workload::kFlowChurn
          ? (quick ? kQuick : kFull).churn_live_flows
          : std::size_t{1} << 16;
  so.pin_policy = rt::CpuPinPolicy::kNone;
  so.shed = false;
  so.telemetry.sample_every = spec.sample_every;
  return so;
}

Models BuildModels(const WorkloadSpec& spec) {
  namespace models = pegasus::models;
  const auto t0 = Clock::now();
  const auto prep = pegasus::eval::Prepare(
      tr::PeerRushSpec(kTrainFlowsPerClass), /*with_raw_bytes=*/false);
  Models m;
  if (spec.cnn) {
    models::CnnMConfig cfg;
    cfg.epochs = kEpochs;
    const auto& s = prep.seq.train;
    const auto cnn = models::CnnM::Train(s.x, s.labels, s.size(), s.dim,
                                         prep.num_classes, cfg);
    m.train_ms = MsSince(t0);
    const auto t1 = Clock::now();
    m.v1 = Lower(cnn->Compiled(), rt::FeatureKind::kSeq);
    m.lower_ms = MsSince(t1);
    return m;
  }
  models::MlpBConfig cfg;
  cfg.epochs = kEpochs;
  const auto& s = prep.stat.train;
  const auto mlp = models::MlpB::Train(s.x, s.labels, s.size(), s.dim,
                                       prep.num_classes, cfg);
  std::unique_ptr<models::MlpB> unrefined;
  if (spec.id == Workload::kPacedSwap) {
    // Same seed, same data: the same float net, compiled without output
    // refinement. The v1 -> v2 plan reseals 14 of the 32 tables, so only a
    // full SwapModel can publish it, never SwapModelDelta.
    cfg.compile.refine_outputs = false;
    unrefined = models::MlpB::Train(s.x, s.labels, s.size(), s.dim,
                                    prep.num_classes, cfg);
  }
  m.train_ms = MsSince(t0);
  const auto t1 = Clock::now();
  m.v1 = Lower(mlp->Compiled(), rt::FeatureKind::kStat);
  if (unrefined) m.v2 = Lower(unrefined->Compiled(), rt::FeatureKind::kStat);
  m.lower_ms = MsSince(t1);
  return m;
}

Inputs MakeInputs(const WorkloadSpec& spec, const Options& opts) {
  const Scale& scale = opts.quick ? kQuick : kFull;
  const auto t0 = Clock::now();
  Inputs in;
  if (spec.id == Workload::kFlowChurn) {
    tr::ChurnSpec cs;
    cs.live_flows = scale.churn_live_flows;
    cs.packets = scale.churn_packets;
    cs.seed = opts.seed;
    tr::ChurnGenerator gen(cs);
    in.packet_pool.resize(1501);
    for (std::size_t len = 0; len < in.packet_pool.size(); ++len) {
      in.packet_pool[len].len = static_cast<std::uint16_t>(len);
    }
    in.trace.reserve(cs.packets);
    tr::TracePacket p;
    while (gen.Next(p)) {
      p.packet = &in.packet_pool.at(p.packet->len);
      in.trace.push_back(p);
    }
    in.generate_ms = MsSince(t0);
    return in;
  }

  in.dataset = tr::Generate(
      tr::PeerRushSpec(scale.peerrush_flows_per_class, opts.seed));
  tr::MergeOptions merge;
  merge.seed = opts.seed;
  in.trace = tr::MergeTrace(in.dataset.flows, merge);
  if (spec.id == Workload::kCaptureMt) {
    in.pcap_path = opts.out_dir + "/capture-mt.pcap";
    pegasus::io::PcapExportOptions eo;
    eo.merged = true;
    eo.merge = merge;
    pegasus::io::WriteDatasetPcap(in.pcap_path, in.dataset, eo);
    in.labeler = pegasus::io::ImportOptionsFor(in.dataset).labeler;
  }
  if (spec.id == Workload::kPacedSwap) {
    std::mt19937_64 rng(opts.seed ^ 0x5eed'a11'0ca1ull);
    const double mean_gap_ns = 1e9 / kPacedRatePps;
    double t = 0.0;
    in.due_ns.reserve(in.trace.size());
    for (std::size_t i = 0; i < in.trace.size(); ++i) {
      const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;
      t += -std::log1p(-u) * mean_gap_ns;
      in.due_ns.push_back(static_cast<std::uint64_t>(t));
    }
    in.flow_base.reserve(in.dataset.flows.size());
    std::size_t base = 0;
    for (const auto& f : in.dataset.flows) {
      in.flow_base.push_back(base);
      base += f.packets.size();
    }
  }
  in.generate_ms = MsSince(t0);
  return in;
}

PassResult RunPass(const WorkloadSpec& spec, const Models& models,
                   const Inputs& in, const rt::StreamServerOptions& so) {
  PassResult r;
  rt::StreamServer server(models.v1, so, 1);
  if (spec.id == Workload::kPacedSwap) {
    r.offered = in.trace.size();
    r.decisions = ServePaced(server, models, in, r);
  } else {
    if (spec.id == Workload::kCaptureMt) {
      pegasus::io::PcapPacketSource source(in.pcap_path, in.labeler);
      const std::uint64_t t0 = NowNs();
      r.decisions = server.Serve(source);
      r.wall_s = static_cast<double>(NowNs() - t0) / 1e9;
      r.offered = source.parse_stats().frames;
      r.parse_drops = r.offered - source.parse_stats().parsed;
    } else {
      const std::uint64_t t0 = NowNs();
      r.decisions = server.Serve(in.trace);
      r.wall_s = static_cast<double>(NowNs() - t0) / 1e9;
      r.offered = in.trace.size();
    }
    for (const auto& d : r.decisions) {
      if (d.latency_ns != 0) {
        r.latency_us.push_back(static_cast<double>(d.latency_ns) / 1e3);
      }
    }
  }
  r.stats = server.Stats();
  for (const auto& shard : server.Health().shards) {
    r.ring_hwm = std::max(r.ring_hwm, shard.ring_depth_hwm);
  }
  return r;
}

ControlProbe ProbeSwaps(const Models& models,
                        const rt::StreamServerOptions& so) {
  ControlProbe probe;
  rt::StreamServer server(models.v1, so, 1);
  if (so.multithreaded) server.Start();
  for (std::size_t k = 0; k < kProbeSwaps; ++k) {
    const std::uint64_t t0 = NowNs();
    server.SwapModel(models.v1, k + 2);
    probe.call_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
  }
  if (so.multithreaded) server.Stop();
  const auto stats = server.Stats();
  probe.gap_us = stats.swaps ? stats.swap_wall_ms * 1e3 /
                                   static_cast<double>(stats.swaps)
                             : 0.0;
  return probe;
}

}  // namespace pegabench
