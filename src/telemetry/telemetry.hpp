// Serving telemetry: what the metrics core + flight recorder look like
// once wired to the serving path. One ServerTelemetry owns a
// cache-line-aligned ShardTelemetry per shard — the shard's counter block
// (the only storage of every serving counter), its stage histograms and a
// private event ring — plus a control ring for producer/ingest/watchdog
// events, and a monotonic clock whose epoch every timestamp shares. It is
// always built; sampling and tracing are its only knobs.
//
// Sampling discipline (same as the fault hooks, runtime/fault.hpp): the
// per-producer Sampler costs one predictable branch when sample_every is
// 0, and a countdown decrement — no modulo, no RNG — when it is not.
// A sampled packet carries a 32-bit truncated enqueue timestamp through
// the ring (in TracePacket's padding hole, so ShardItem stays 2x64
// bytes); 0 means "unsampled", and the 1-in-4-billion stamp that truly
// lands on 0 is nudged to 1 — a 1ns bias on one sample, not a lost one.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace pegasus::telemetry {

/// The instrumented stages of a packet's life. kSwapPublish is the odd
/// one out (per-swap, not per-packet) but lives in the same set so swap
/// gaps get the same quantile treatment as packet latencies.
enum class Stage : std::uint8_t {
  /// PacketSource::Next — trace decode / pcap parse time at ingest.
  kIngestNext = 0,
  /// Push -> worker pop: time spent queued in the shard's SPSC ring.
  kRingDwell,
  /// FlowTable::FindOrInsert.
  kFlowLookup,
  /// OnlineFeatureExtractor Update + Emit*.
  kFeatureExtract,
  /// One batch flush: Infer + argmax + decision emit, amortized whole-
  /// batch cost (recorded once per flush, not per packet).
  kInferFlush,
  /// ApplySwap's serving gap: partial-batch flush + engine rebuild.
  kSwapPublish,
  /// Push (or ingest stamp) -> decision emitted, per sampled packet.
  kEndToEnd,
};

inline constexpr std::size_t kNumStages = 7;

const char* StageName(Stage stage);

struct TelemetryOptions {
  /// Record stage latencies for 1 in N packets; 0 disables sampling (one
  /// predictable branch on the hot path, nothing else).
  std::uint32_t sample_every = 0;
  /// Per-shard flight-recorder capacity in events (rounded to a power of
  /// two; the control ring gets the same). 0 disables tracing.
  std::size_t trace_events = 0;
};

/// The per-shard serving counters, listed once. The live block
/// (ShardCounters), its plain value row (CounterValues), the server-wide
/// fold, ResetStats, the JSON rows and the Prometheus families all expand
/// this list, so they cannot drift apart.
///
/// X(name, kind, help). kind: kCounter sums across shards and is exposed
/// as the Prometheus counter pegasus_<name>_total; kFlag (0/1 per shard)
/// sums to the number of flagged shards, and kHighWater folds by max —
/// both are exposed as the gauge pegasus_<name>.
#define PEGASUS_SHARD_COUNTERS(X)                                             \
  X(packets, kCounter,                                                        \
    "Packets admitted to flow state (offered == packets + shed_ring_full "    \
    "+ shed_misrouted).")                                                     \
  X(warmup, kCounter, "Packets absorbed before their flow window filled.")    \
  X(decisions, kCounter, "Packets decided by an inference batch.")            \
  X(batches, kCounter, "Inference batches flushed.")                          \
  X(shed_ring_full, kCounter,                                                 \
    "Packets shed at ingest: ring full through the escalation ladder.")       \
  X(shed_misrouted, kCounter,                                                 \
    "Packets shed at ingest: partition disagreed with the shard map.")        \
  X(shed_inference, kCounter,                                                 \
    "Packets shed at the shard: batch dropped after inference retries "       \
    "(packets == decisions + warmup + shed_inference).")                      \
  X(inference_faults, kCounter,                                               \
    "Infer() exceptions absorbed, retried or not.")                           \
  X(batches_dropped, kCounter, "Batches dropped after inference retries.")    \
  X(swaps, kCounter,                                                          \
    "Model swap applies (forward and rollback rebuilds).")                    \
  X(swap_wall_ns, kCounter,                                                   \
    "Serving gap spent in swap applies (flush + engine rebuild), ns.")        \
  X(table_hits, kCounter,                                                     \
    "Flow-table hits, published from the worker's table at each flush.")      \
  X(table_misses, kCounter,                                                   \
    "Flow-table misses, published from the worker's table at each flush.")    \
  X(heartbeat, kCounter, "Worker loop iterations (idle ones included).")      \
  X(stall_events, kCounter, "Times the watchdog flagged the shard stalled.")  \
  X(stalled, kFlag, "1 while the watchdog holds the shard stalled.")          \
  X(ring_depth_hwm, kHighWater,                                               \
    "Highest ring occupancy the worker observed (0 single-threaded).")

enum class CounterKind : std::uint8_t { kCounter, kFlag, kHighWater };

/// One shard's counters as plain values (a snapshot row), or their
/// server-wide fold (Fold).
struct CounterValues {
#define PEGASUS_X(name, kind, help) std::uint64_t name = 0;
  PEGASUS_SHARD_COUNTERS(PEGASUS_X)
#undef PEGASUS_X

  /// Folds another shard's row in: sum, or max for kHighWater.
  CounterValues& Fold(const CounterValues& o);
};

/// Reflection over the list, for code that iterates it at run time.
struct CounterField {
  const char* name;
  CounterKind kind;
  const char* help;
  std::uint64_t CounterValues::*value;
};

inline constexpr CounterField kCounterFields[] = {
#define PEGASUS_X(name, kind, help) \
  {#name, CounterKind::kind, help, &CounterValues::name},
    PEGASUS_SHARD_COUNTERS(PEGASUS_X)
#undef PEGASUS_X
};

/// The live block: one Cell per counter. Writers: the shard's worker (or,
/// single-threaded, the thread calling Push) for everything except
/// shed_ring_full (the ingest thread owning the shard), shed_misrouted
/// (any ingest thread — the one AddShared cell) and stalled/stall_events
/// (the watchdog).
///
/// Live accounting identity: the worker bumps packets before it publishes
/// the packet's outcome — decisions, warmup or shed_inference — with
/// AddRelease, and Load() reads packets last, after acquire-loading the
/// rest. So decisions + warmup + shed_inference <= packets holds in every
/// live snapshot, with equality once the server is stopped.
struct alignas(64) ShardCounters {
#define PEGASUS_X(name, kind, help) Cell name;
  PEGASUS_SHARD_COUNTERS(PEGASUS_X)
#undef PEGASUS_X

  CounterValues Load() const {
    CounterValues v;
#define PEGASUS_X(name, kind, help) v.name = name.Acquire();
    PEGASUS_SHARD_COUNTERS(PEGASUS_X)
#undef PEGASUS_X
    v.packets = packets.Acquire();
    return v;
  }
  void Reset() {
#define PEGASUS_X(name, kind, help) name.Reset();
    PEGASUS_SHARD_COUNTERS(PEGASUS_X)
#undef PEGASUS_X
  }
};

/// 1-in-N countdown. Owned by exactly one thread (each producer/worker
/// keeps its own); never shared.
struct Sampler {
  std::uint32_t every = 0;
  std::uint32_t countdown = 1;  // first eligible event is sampled

  explicit Sampler(std::uint32_t n = 0) : every(n) {}

  bool Sample() {
    if (every == 0) [[likely]] {
      return false;
    }
    if (--countdown != 0) return false;
    countdown = every;
    return true;
  }
};

/// One histogram per stage.
class StageHistograms {
 public:
  void Record(Stage stage, std::uint64_t ns) {
    h_[static_cast<std::size_t>(stage)].Record(ns);
  }
  const Log2Histogram& Of(Stage stage) const {
    return h_[static_cast<std::size_t>(stage)];
  }
  HistogramSnapshot Snapshot(Stage stage) const {
    return h_[static_cast<std::size_t>(stage)].Snapshot();
  }
  void Reset() {
    for (auto& h : h_) h.Reset();
  }

 private:
  Log2Histogram h_[kNumStages];
};

/// One stage's merged histogram + extracted quantiles.
struct StageSnapshot {
  Stage stage = Stage::kIngestNext;
  HistogramSnapshot hist;
  std::uint64_t count = 0;
  double mean_ns = 0.0;
  double p50_ns = 0.0;
  double p90_ns = 0.0;
  double p99_ns = 0.0;
  double p999_ns = 0.0;

  /// Fills count/mean/quantiles from `hist`.
  void Finish();
};

/// One shard's live row: its counters plus the instantaneous ring depth.
struct ShardTelemetrySnapshot : CounterValues {
  std::size_t ring_depth = 0;
};

/// The one live view of a server. A plain value: take one at any time
/// (including while the server runs — every source is an atomic), diff two
/// of them for rates, serialize them with exposition.hpp's writers. The
/// inherited counters are the fold of `shards`.
struct TelemetrySnapshot : CounterValues {
  std::uint32_t sample_every = 0;
  bool tracing = false;
  /// Clock reading (ns since telemetry start) when the snapshot was
  /// taken; diff two snapshots for rates.
  std::uint64_t now_ns = 0;
  std::uint64_t active_version = 0;
  bool running = false;
  std::uint64_t watchdog_checks = 0;
  std::uint64_t trace_events_recorded = 0;

  std::array<StageSnapshot, kNumStages> stages{};
  std::vector<ShardTelemetrySnapshot> shards;

  const StageSnapshot& stage(Stage s) const {
    return stages[static_cast<std::size_t>(s)];
  }
  std::uint64_t shed_total() const {
    return shed_ring_full + shed_misrouted + shed_inference;
  }
  /// No shard is currently wedged (historical, recovered stalls are fine).
  bool healthy() const { return stalled == 0; }
  /// Flow-table hit fraction (0 when the tables have seen nothing).
  double HitRate() const;
};

/// Everything one shard writes. alignas keeps neighbouring shards'
/// telemetry off each other's cache lines.
struct alignas(64) ShardTelemetry {
  explicit ShardTelemetry(std::size_t trace_capacity)
      : ring(trace_capacity) {}

  ShardCounters counters;
  StageHistograms stages;
  EventRing ring;
};

/// The server-wide aggregate: per-shard blocks + the multi-writer control
/// ring + the shared clock.
class ServerTelemetry {
 public:
  ServerTelemetry(const TelemetryOptions& opts, std::size_t num_shards)
      : opts_(opts), control_(opts.trace_events),
        base_(std::chrono::steady_clock::now()) {
    shards_.reserve(num_shards);
    for (std::size_t i = 0; i < num_shards; ++i) {
      shards_.push_back(std::make_unique<ShardTelemetry>(opts.trace_events));
    }
  }

  std::uint32_t sample_every() const { return opts_.sample_every; }
  bool tracing() const { return control_.enabled(); }
  std::size_t num_shards() const { return shards_.size(); }
  ShardTelemetry& shard(std::size_t i) { return *shards_[i]; }
  const ShardTelemetry& shard(std::size_t i) const { return *shards_[i]; }
  EventRing& control_ring() { return control_; }
  const EventRing& control_ring() const { return control_; }

  /// Nanoseconds since this telemetry instance was built (steady clock —
  /// every event and stamp shares the epoch).
  std::uint64_t NowNs() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - base_)
            .count());
  }

  /// Truncated 32-bit stamp for the in-ring dwell/end-to-end clock.
  /// Wraps every ~4.29s; u32 subtraction at the consumer handles one
  /// wrap, and a span longer than that is far beyond any sane ring dwell.
  /// Never returns 0 (the "unsampled" sentinel).
  std::uint32_t Stamp32() const {
    const auto s = static_cast<std::uint32_t>(NowNs());
    return s == 0 ? 1u : s;
  }
  std::uint32_t Stamp32(std::uint64_t now_ns) const {
    const auto s = static_cast<std::uint32_t>(now_ns);
    return s == 0 ? 1u : s;
  }

  /// Merged, time-ordered dump of the control ring + every shard ring.
  std::vector<TraceEvent> DumpTrace() const {
    std::vector<std::vector<TraceEvent>> dumps;
    dumps.reserve(shards_.size() + 1);
    dumps.push_back(control_.Dump());
    for (const auto& s : shards_) dumps.push_back(s->ring.Dump());
    return MergeTraceDumps(std::move(dumps));
  }

  /// Counters, histograms and trace-ring occupancy of every shard. The
  /// caller fills what lives outside telemetry (running, active_version,
  /// ring_depth).
  TelemetrySnapshot Snapshot() const;

  /// Zeroes every counter, histogram and ring.
  void Reset() {
    control_.Reset();
    watchdog_checks.Reset();
    for (auto& s : shards_) {
      s->counters.Reset();
      s->stages.Reset();
      s->ring.Reset();
    }
  }

  /// Watchdog samples taken (written by the watchdog thread only).
  Cell watchdog_checks;

 private:
  TelemetryOptions opts_;
  EventRing control_;
  std::chrono::steady_clock::time_point base_;
  std::vector<std::unique_ptr<ShardTelemetry>> shards_;
};

}  // namespace pegasus::telemetry
