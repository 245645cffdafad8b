// Example: the full packet-I/O loop — capture in, decisions out.
//
// 1. Generate a synthetic ISCXVPN-like dataset and *export it as a real
//    pcap capture* (Ethernet/IPv4/TCP|UDP frames, merged trace timing) —
//    the self-hosting stand-in for the paper's non-redistributable traces.
// 2. Re-import the capture through PcapReader -> WireParser ->
//    FlowAssembler into a standard traffic::Dataset and train CNN-M on it,
//    exactly as if the pcap had come from a telescope tap.
// 3. Replay the capture *with trace timing* (speedup xN) straight into the
//    sharded StreamServer via PcapPacketSource + TraceReplayer — no
//    Dataset materialization on the serving path — and report accuracy
//    against the port-encoded ground truth plus replay pacing stats,
//    with a telemetry::StatsReporter printing live serving stats while
//    the paced replay runs.
#include <cstdio>
#include <iostream>
#include <memory>

#include "compiler/compiler.hpp"
#include "eval/experiment.hpp"
#include "io/assemble.hpp"
#include "io/replay.hpp"
#include "models/cnn_m.hpp"
#include "runtime/stream_server.hpp"
#include "telemetry/exposition.hpp"

int main() {
  using namespace pegasus;
  const char* path = "pcap_replay_example.pcap";

  // ---- 1. synthesize + export a capture ----------------------------------
  const auto ds = traffic::Generate(traffic::IscxVpnSpec(30));
  io::PcapExportOptions eopts;
  eopts.merged = true;  // realistic cross-flow interleaving
  const auto records = io::WriteDatasetPcap(path, ds, eopts);
  std::printf("exported %s: %zu flows -> %llu records\n", path,
              ds.flows.size(), static_cast<unsigned long long>(records));

  // ---- 2. import it back + train on the imported view --------------------
  const auto iopts = io::ImportOptionsFor(ds);
  const auto imported = io::ReadDatasetPcap(path, iopts);
  std::printf("imported: %llu frames, %llu parsed, %llu flows\n",
              static_cast<unsigned long long>(imported.parse.frames),
              static_cast<unsigned long long>(imported.parse.parsed),
              static_cast<unsigned long long>(imported.assemble.flows));

  const auto seq = traffic::ExtractSeqFeatures(imported.dataset.flows);
  models::CnnMConfig cfg;
  cfg.epochs = 15;
  auto model =
      models::CnnM::Train(seq.x, seq.labels, seq.size(), seq.dim,
                          imported.dataset.NumClasses(), cfg);
  runtime::LoweringOptions lopts;
  lopts.stateful_bits_per_flow =
      runtime::OnlineFlowStateSpec(runtime::FeatureKind::kSeq).BitsPerFlow();
  const auto lowered = std::make_shared<const runtime::LoweredModel>(
      compiler::PlaceOnSwitch(model->Compiled(), lopts));

  // ---- 3. timed replay straight from the capture -------------------------
  io::PcapPacketSource source(path, iopts.labeler);
  io::ReplayOptions ropts;
  ropts.clock = io::ReplayClock::kSpeedup;
  ropts.speedup = 512.0;
  io::TraceReplayer replayer(source, ropts);

  runtime::StreamServerOptions sopts;
  sopts.num_shards = 2;
  sopts.flows_per_shard = 1 << 10;
  sopts.feature = runtime::FeatureKind::kSeq;
  sopts.telemetry.sample_every = 16;  // stage latency on the replay path
  runtime::StreamServer server(lowered, sopts);

  // Live stats while the paced replay runs: one line per interval with
  // pps, ring depth/HWM, hit rate and the sampled e2e latency quantiles.
  telemetry::StatsReporter reporter(
      [&server] { return server.TelemetrySnapshot(); }, std::cout,
      /*interval_ms=*/250);
  reporter.Start();
  const auto run = eval::ServeTrace(server, replayer);
  reporter.Stop();  // emits a final summary line

  const auto rs = replayer.stats();
  const auto report =
      eval::EvaluateDecisions(run.decisions, imported.dataset.NumClasses());
  std::printf("replayed %llu packets (%s x%.0f): trace span %.2f s in "
              "%.2f s wall, max lag %llu us\n",
              static_cast<unsigned long long>(rs.packets),
              io::ReplayClockName(ropts.clock), ropts.speedup,
              static_cast<double>(rs.TraceSpanUs()) / 1e6,
              rs.wall_ms / 1e3,
              static_cast<unsigned long long>(rs.max_lag_us));
  std::printf("decisions: %llu (accuracy %.3f, macro-F1 %.3f), "
              "%zu flows resident\n",
              static_cast<unsigned long long>(run.stats.decisions),
              report.accuracy, report.f1,
              static_cast<std::size_t>(run.stats.table.resident));
  std::remove(path);
  return 0;
}
