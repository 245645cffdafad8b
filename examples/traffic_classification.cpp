// Example: line-rate encrypted-traffic classification (the paper's §1
// motivating workload).
//
// Trains CNN-M on a synthetic ISCXVPN-like workload, compiles it with
// Advanced Primitive Fusion (one fuzzy Map per packet-pair window), lowers
// it onto the simulated switch, and then serves a live merged packet stream
// through the sharded streaming runtime: the test flows are interleaved
// into one time-ordered trace, each packet updates its flow's preallocated
// state in the shard's FlowTable, and full windows are classified in
// batches through the shard's InferenceEngine.
#include <cstdio>
#include <memory>

#include "compiler/compiler.hpp"
#include "eval/experiment.hpp"
#include "models/cnn_m.hpp"
#include "runtime/stream_server.hpp"

int main() {
  using namespace pegasus;

  // ---- train + compile ---------------------------------------------------
  auto prep = eval::Prepare(traffic::IscxVpnSpec(60), /*with_raw_bytes=*/false);
  std::printf("dataset: %s, %zu flows, %zu classes\n", prep.name.c_str(),
              prep.dataset.flows.size(), prep.num_classes);
  models::CnnMConfig cfg;
  cfg.epochs = 20;
  auto model = models::CnnM::Train(prep.seq.train.x, prep.seq.train.labels,
                                   prep.seq.train.size(), prep.seq.train.dim,
                                   prep.num_classes, cfg);
  std::printf("CNN-M: %.0f Kb of weights fused into %zu tables\n",
              model->ModelSizeKb(), model->Compiled().NumTables());

  runtime::LoweringOptions lopts;
  // Account the per-flow state the serving runtime actually keeps (running
  // min/max + stored fuzzy rings + prev timestamp), so the switch report
  // and the flow-table stats below quote the same bits/flow.
  lopts.stateful_bits_per_flow =
      runtime::OnlineFlowStateSpec(runtime::FeatureKind::kSeq).BitsPerFlow();
  const auto switch_model = std::make_shared<const runtime::LoweredModel>(
      compiler::PlaceOnSwitch(model->Compiled(), lopts));
  const auto rep = switch_model->Report();
  std::printf("switch: %zu stages, %.2f%% SRAM, %.2f%% TCAM, %zu b/flow\n",
              switch_model->StagesUsed(), rep.SramPct({}), rep.TcamPct({}),
              rep.stateful_bits_per_flow);

  // ---- streaming serving -------------------------------------------------
  // Interleave the test flows into one time-ordered trace and serve it:
  // per-flow windows live in the shards' preallocated FlowTables, full
  // windows flush through each shard's batched InferenceEngine.
  const auto trace = eval::TestTrace(prep);
  runtime::StreamServerOptions sopts;
  sopts.num_shards = 2;
  sopts.flows_per_shard = 1 << 10;
  sopts.feature = runtime::FeatureKind::kSeq;
  runtime::StreamServer server(switch_model, sopts);
  const auto run = eval::ServeTrace(server, trace);

  const auto report = eval::EvaluateDecisions(run.decisions, prep.num_classes);
  std::printf("streamed %llu packets over %zu shards "
              "(%llu warm-up, %llu classified in %llu batches)\n",
              static_cast<unsigned long long>(run.stats.packets),
              server.num_shards(),
              static_cast<unsigned long long>(run.stats.warmup),
              static_cast<unsigned long long>(run.stats.decisions),
              static_cast<unsigned long long>(run.stats.batches));
  std::printf("flow tables: %zu flows resident, %llu evictions, "
              "%zu b/flow state, %.1f Kb SRAM\n",
              static_cast<std::size_t>(run.stats.table.resident),
              static_cast<unsigned long long>(run.stats.table.evictions),
              run.stats.stateful_bits_per_flow,
              static_cast<double>(run.stats.flow_table_sram_bits) / 1024.0);
  std::printf("packet-level accuracy %.3f (macro-F1 %.3f) at %.0f Kpps\n",
              report.accuracy, report.f1, run.packets_per_sec / 1000.0);
  return 0;
}
