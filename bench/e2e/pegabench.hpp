// pegabench — the end-to-end serving benchmark (README.md has the metric
// and workload tables). One process runs one workload:
//
//   set-up     trains + compiles + lowers the workload's model(s) and builds
//              one server, several times; setup_s is the median.
//   inputs     seed-dependent traffic, generated once.
//   passes     one warm-up pass, then measured passes, each on a fresh
//              StreamServer, until --seconds of serving have been timed.
//   replay     a single-threaded layered replay of the same input that calls
//              the layer APIs directly — the correctness oracle on every
//              run, and (--trace 1) the source of per-layer self times.
//
// Everything here times public calls only; nothing in src/ is
// instrumented for the benchmark.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "io/assemble.hpp"
#include "runtime/stream_server.hpp"
#include "traffic/packet.hpp"
#include "traffic/stream.hpp"

namespace pegabench {

namespace rt = pegasus::runtime;
namespace tr = pegasus::traffic;

enum class Workload { kMlpInfer, kFlowChurn, kCaptureMt, kPacedSwap };

/// The static shape of a workload: which model it serves and how.
struct WorkloadSpec {
  Workload id;
  const char* name;
  /// CNN-M on seq features; otherwise MLP-B on stat features.
  bool cnn;
  bool multithreaded;
  std::size_t shards;
  /// Telemetry sampling (1 in N packets carries a decision latency).
  std::uint32_t sample_every;
};

std::span<const WorkloadSpec> AllWorkloads();
const WorkloadSpec* FindWorkload(const std::string& name);

struct Options {
  const WorkloadSpec* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 15.0;
  /// Final JSON line carries the per-layer metrics (1) or the end-to-end
  /// metrics (0). Both sets are always measured and printed.
  bool trace = true;
  bool quick = false;
  std::string out_dir = "build-bench";
  /// Appends the run's full record (every metric) as one JSON line.
  std::string record;
};

/// The model versions a run serves. v2 (paced-swap only) is the same float
/// net as v1 compiled with output refinement off.
struct Models {
  std::shared_ptr<const rt::LoweredModel> v1;
  std::shared_ptr<const rt::LoweredModel> v2;
  /// nn training, which includes the builders' own compile passes.
  double train_ms = 0.0;
  /// compiler::PlaceOnSwitch for every version.
  double lower_ms = 0.0;
};

/// The seed-dependent traffic of a run.
struct Inputs {
  /// PeerRush workloads: owns every served packet.
  tr::Dataset dataset;
  /// flow-churn: one shared packet per wire length (the stat features read
  /// only the length), so 4M packets cost 40 B each, not 112 B.
  std::vector<tr::Packet> packet_pool;
  /// Served order. TracePacket::flow indexes dataset.flows on the PeerRush
  /// workloads.
  std::vector<tr::TracePacket> trace;
  /// capture-mt: the trace written as a pcap, and the labeler that
  /// recovers its ground truth.
  std::string pcap_path;
  pegasus::io::FlowLabeler labeler;
  /// paced-swap: Poisson due time of trace[i], ns from the pass start, and
  /// flow_base[flow] + index -> a dense per-packet slot.
  std::vector<std::uint64_t> due_ns;
  std::vector<std::size_t> flow_base;
  double generate_ms = 0.0;
};

/// A SwapModel the paced producer issued before pushing trace[at].
struct SwapPoint {
  std::size_t at = 0;
  std::uint64_t version = 0;
  bool to_v2 = false;
};

struct PassResult {
  double wall_s = 0.0;
  std::uint64_t offered = 0;
  std::uint64_t parse_drops = 0;
  rt::StreamServerStats stats;
  /// Highest ring depth any shard reached (Health()); 0 single-threaded.
  std::size_t ring_hwm = 0;
  std::vector<rt::StreamDecision> decisions;
  /// Decision latency of the telemetry-sampled decisions, us.
  std::vector<double> latency_us;
  // paced-swap only.
  std::vector<SwapPoint> swaps;
  std::vector<double> swap_call_us;
  double gen_lag_p99_us = 0.0;
  double push_ns = 0.0;
};

rt::StreamServerOptions ServerOptions(const WorkloadSpec& spec, bool quick);
Models BuildModels(const WorkloadSpec& spec);
Inputs MakeInputs(const WorkloadSpec& spec, const Options& opts);
PassResult RunPass(const WorkloadSpec& spec, const Models& models,
                   const Inputs& inputs, const rt::StreamServerOptions& so);

/// SwapModel cost on an idle server of the workload's shape (the workloads
/// that do not swap under load still report the control layer).
struct ControlProbe {
  std::vector<double> call_us;
  double gap_us = 0.0;
};
ControlProbe ProbeSwaps(const Models& models,
                        const rt::StreamServerOptions& so);

// ---------------------------------------------------------------- tracing

using Clock = std::chrono::steady_clock;

inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// The layer boundaries the replay records spans at.
enum class SpanName : std::uint8_t {
  kPacket,        // one sampled packet, root of the per-packet spans
  kSourceNext,    // io: the next packet from the source
  kPcapRead,      // io: PcapReader::Next
  kWireParse,     // io: WireParser::Parse
  kFlowFind,      // runtime.flow_table: FlowTable::FindOrInsert
  kStreamUpdate,  // traffic.stream: OnlineFeatureExtractor::Update
  kStreamEmit,    // traffic.stream: OnlineFeatureExtractor::Emit*
  kFlush,         // one batch: inference, dequantize, argmax, decisions
  kEngine,        // runtime.inference_engine: InferenceEngine::InferRaw
  kMarshal,       // the bench's copy of the engine's PHV fill
  kPipeline,      // dataplane.pipeline: Pipeline::ProcessBatch
  kCount
};
const char* SpanLabel(SpanName name);

struct Span {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::int32_t parent = -1;
  /// Packet ordinal for per-packet spans, batch ordinal for batch spans.
  std::uint32_t chunk = 0;
  SpanName name = SpanName::kPacket;
};

/// In-memory span store. Begin/End are no-ops on a disabled tracer.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// Allocates and touches room for `n` spans up front, so no page fault
  /// or reallocation lands inside a timed span.
  void Reserve(std::size_t n) { spans_.resize(n); }
  std::int32_t Begin(SpanName name, std::int32_t parent, std::uint32_t chunk) {
    if (!enabled_) return -1;
    if (used_ == spans_.size()) spans_.resize(used_ * 2 + 1024);
    Span& s = spans_[used_];
    s = {0, 0, parent, chunk, name};
    s.start = NowNs();
    return static_cast<std::int32_t>(used_++);
  }
  void End(std::int32_t span) {
    if (span >= 0) spans_[static_cast<std::size_t>(span)].end = NowNs();
  }
  /// Drops spans [from, end) — a sampled packet the source did not produce.
  void Truncate(std::int32_t from) {
    if (from >= 0) used_ = static_cast<std::size_t>(from);
  }
  std::span<const Span> spans() const { return {spans_.data(), used_}; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::size_t used_ = 0;
};

/// The cost of an empty span, measured on this machine before the replay:
/// `inside` is what an empty span's own duration reads, `total` what one
/// costs its parent (both clock reads plus the bookkeeping).
struct SpanCost {
  double inside_ns = 0.0;
  double total_ns = 0.0;
};
SpanCost CalibrateSpans();

// ----------------------------------------------------------------- replay

struct ReplayResult {
  std::vector<rt::StreamDecision> decisions;
  std::uint64_t packets = 0;
  std::uint64_t warmup = 0;
  std::uint64_t batches = 0;
  std::uint64_t parse_drops = 0;
  rt::FlowTableStats table;
  std::uint64_t table_hits = 0;
  /// Rows whose timed, deciding run went through InferenceEngine::InferRaw
  /// and through the bench's marshal + Pipeline::ProcessBatch.
  std::uint64_t engine_rows = 0;
  std::uint64_t pipeline_rows = 0;
  /// Rows whose Pipeline::ProcessBatch outputs differ from
  /// InferenceEngine::InferRaw.
  std::uint64_t raw_mismatches = 0;
  double wall_s = 0.0;
};

/// Replays the run's input through the layer APIs, single-threaded, with
/// the server's routing, table geometry, batch size and swap points.
/// Per-packet spans are sampled 1 in `sample_every`; batch spans are
/// recorded on every call.
ReplayResult Replay(const WorkloadSpec& spec, const Models& models,
                    const Inputs& inputs, const rt::StreamServerOptions& so,
                    std::span<const SwapPoint> swaps, Tracer& tracer,
                    std::uint32_t sample_every);

// ----------------------------------------------------------------- report

/// Per-layer self time of a traced replay, ns per packet unless named
/// per row.
struct LayerTimes {
  double pcap_read = 0.0;
  double wire_parse = 0.0;
  /// The whole source call, its pcap children included.
  double source_next = 0.0;
  double dispatch = 0.0;
  double flow_find = 0.0;
  double stream_update = 0.0;
  /// Per emitted row.
  double stream_emit_per_row = 0.0;
  double stream_emit = 0.0;
  /// Whole InferRaw and ProcessBatch calls, per inferred row and spread
  /// over every packet.
  double engine_per_row = 0.0;
  double pipeline_per_row = 0.0;
  double engine = 0.0;
  double pipeline = 0.0;

  double Attributed() const {
    return source_next + dispatch + flow_find + stream_update + stream_emit +
           engine;
  }
};
LayerTimes AttributeSpans(std::span<const Span> spans, const SpanCost& cost,
                          const ReplayResult& replay);

/// Writes the spans as Chrome trace-event JSON (opens in Perfetto).
void WriteChromeTrace(const std::string& path, std::span<const Span> spans,
                      const std::string& workload, std::uint64_t seed);

double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

}  // namespace pegabench
