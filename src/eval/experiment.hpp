// Shared experiment plumbing for the benchmark harness: splitting a
// synthetic dataset by flows, extracting each feature family once, and
// carrying the train/val/test sample sets the Table 5 / Figures 7-9
// drivers all consume — plus the streaming entry points that replay the
// test split through a runtime::StreamServer (the serving-path counterpart
// of offline batch prediction).
#pragma once

#include <cstdint>
#include <string>

#include "eval/metrics.hpp"
#include "runtime/inference_engine.hpp"
#include "runtime/stream_server.hpp"
#include "traffic/features.hpp"
#include "traffic/stream.hpp"
#include "traffic/synthetic.hpp"

namespace pegasus::eval {

/// One feature family, split by flow into train/val/test.
struct FeatureSplit {
  traffic::SampleSet train;
  traffic::SampleSet val;
  traffic::SampleSet test;
};

/// A fully prepared dataset: the flows plus all three feature families.
struct PreparedDataset {
  std::string name;
  std::size_t num_classes = 0;
  traffic::Dataset dataset;
  std::vector<int> flow_split;  // 0 train / 1 val / 2 test per flow
  FeatureSplit stat;
  FeatureSplit seq;
  FeatureSplit raw;
};

/// Generates the dataset and extracts/splits every feature family
/// (75/10/15 by flow, stratified — paper §7.1). The flow split is computed
/// once and reused across all three families.
PreparedDataset Prepare(const traffic::DatasetSpec& spec,
                        bool with_raw_bytes = true,
                        std::uint64_t split_seed = 7);

/// Splits one extracted SampleSet according to a per-flow assignment.
/// Consumes `all` (pass the extractor result straight in): destinations are
/// reserved exactly and the source is freed on return, so peak memory stays
/// at ~2x one family instead of accumulating reallocation overshoot.
FeatureSplit SplitSamples(traffic::SampleSet all,
                          const std::vector<int>& flow_split);

/// Runs every sample of `set` through a lowered model with the batched
/// InferenceEngine (allocation-free inner loop) and returns the argmax
/// class per sample — the switch-simulator counterpart of
/// TrainedModel::PredictClassFuzzy for whole test splits, and the offline
/// reference the streaming parity tests compare against.
std::vector<std::int32_t> PredictClassesLowered(
    runtime::InferenceEngine& engine, const traffic::SampleSet& set);

// ---------------------------------------------------------------------------
// Streaming evaluation: the serving path.
// ---------------------------------------------------------------------------

/// Merges the test-split flows of `prep` into one time-ordered packet
/// stream (traffic::MergeTrace). TracePacket::flow indexes the test subset
/// in dataset order; packets borrow from prep.dataset (keep it alive).
std::vector<traffic::TracePacket> TestTrace(const PreparedDataset& prep,
                                            std::uint64_t seed = 97);

/// Replays `trace` through `server` (Start/Stop around the push loop in
/// multi-threaded mode) and reports wall time alongside the decisions.
struct StreamRun {
  std::vector<runtime::StreamDecision> decisions;
  /// Taken at run end; includes the telemetry snapshot (stage latency
  /// quantiles, ring HWMs, trace-ring occupancy).
  runtime::StreamServerStats stats;
  double wall_ms = 0.0;
  double packets_per_sec = 0.0;
};

StreamRun ServeTrace(runtime::StreamServer& server,
                     std::span<const traffic::TracePacket> trace);

/// Pull-based variant for imported captures / timed replay: drains a
/// runtime::PacketSource (e.g. io::PcapPacketSource, optionally wrapped in
/// an io::TraceReplayer for trace-paced delivery) through the server.
/// `packets_per_sec` counts the packets the source actually produced —
/// read the replayer's own stats for schedule-lag detail.
StreamRun ServeTrace(runtime::StreamServer& server,
                     runtime::PacketSource& source);

/// Multi-ingest variant: splits `trace` by flow digest into
/// server.options().num_ingest partitions (via server.IngestPartitionOf)
/// and drains them through Serve(PartitionedPacketSource&) — N ingest
/// threads, no shared dispatch point. The partition pre-pass is excluded
/// from the timed window. With shedding enabled, `packets_per_sec` counts
/// the packets actually served; read run.stats.shed for the drops.
StreamRun ServeTracePartitioned(
    runtime::StreamServer& server,
    std::span<const traffic::TracePacket> trace);

/// Flow-churn stress run: streams a traffic::ChurnGenerator through the
/// server via runtime::GeneratorPacketSource — packets are produced and
/// consumed on the fly, so a 1M-live-flow sweep never materializes its
/// trace. Generation rides the ingest thread and is included in the timed
/// window (it is a fraction of per-packet serving cost).
StreamRun ServeChurn(runtime::StreamServer& server,
                     traffic::ChurnGenerator& gen);

/// The retrain-and-push scenario: replays `trace`, issuing
/// server.SwapModel(model, version) after pushing the first `swap_at`
/// packets — every earlier packet is decided by the old version, every
/// later one by `model` (decisions carry the version that produced them).
/// Works in both server modes; `swap_at` is clamped to the trace length.
StreamRun ServeTraceWithSwap(
    runtime::StreamServer& server,
    std::span<const traffic::TracePacket> trace, std::size_t swap_at,
    std::shared_ptr<const runtime::LoweredModel> model,
    std::uint64_t version);

/// The O(delta) variant of ServeTraceWithSwap: issues
/// server.SwapModelDelta(patches, version) at the swap point instead of
/// publishing a freshly lowered artifact. With patches from
/// control::CollectPatches against the serving version, the decision
/// stream is identical to the full-swap run — only the swap cost differs.
StreamRun ServeTraceWithDeltaSwap(
    runtime::StreamServer& server,
    std::span<const traffic::TracePacket> trace, std::size_t swap_at,
    std::span<const dataplane::TablePatch> patches, std::uint64_t version);

/// Classification report over per-packet streaming decisions (labels and
/// predictions carried in each decision).
ClassificationReport EvaluateDecisions(
    const std::vector<runtime::StreamDecision>& decisions,
    std::size_t num_classes);

/// Per-model-version slice of a decision stream: accuracy plus the
/// end-to-end latency distribution of the sampled packets that version
/// served. This is what a drift monitor watches — decisions carry the
/// version that produced them and (when telemetry sampling is on) their
/// serving latency, so accuracy and latency can be correlated per
/// version window instead of averaged across a swap boundary.
struct VersionWindowReport {
  std::uint64_t version = 0;
  std::size_t decisions = 0;
  std::size_t correct = 0;
  double accuracy = 0.0;
  /// Decisions with a sampled end-to-end latency (latency_ns != 0).
  std::size_t sampled = 0;
  /// Exact quantiles over the sampled latencies (0 when sampled == 0).
  double latency_p50_ns = 0.0;
  double latency_p99_ns = 0.0;
  double latency_mean_ns = 0.0;
};

/// EvaluateDecisions plus the per-version breakdown, version-ascending.
struct DecisionReport {
  ClassificationReport overall;
  std::vector<VersionWindowReport> versions;
};

DecisionReport EvaluateDecisionsDetailed(
    const std::vector<runtime::StreamDecision>& decisions,
    std::size_t num_classes);

}  // namespace pegasus::eval
