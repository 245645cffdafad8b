// StreamServer — the sharded streaming flow-serving runtime (paper §7.3's
// deployment story: a switch classifying live per-flow traffic, scaled out
// the way a software dataplane would shard it).
//
// One server owns N shards. A packet is routed to shard
// ShardIndexOf(flow digest, N); the shard looks its flow up in a
// preallocated open-addressing FlowTable (runtime/flow_table.hpp) holding
// the flow's OnlineFlowState (running min/max, stored fuzzy indexes, raw
// window — traffic/stream.hpp), updates it in place, and once the window is
// full renders the model's feature family into the shard's batch buffer.
// Full batches flush through the shard's private InferenceEngine
// (Pipeline::ProcessBatch under the hood), turning per-packet inference
// into entry-major batched table matches. The per-packet path performs no
// heap allocation — flow state, batch rows, logits and the PHV pool are all
// preallocated. Decisions append to per-shard sinks that the caller merges
// after Stop() (TakeDecisions); Serve(span) sizes each sink from the
// trace's *observed* shard shares (an exact routing pre-pass), so a skewed
// flow-hash distribution no longer grows a hot shard's vector mid-run.
//
// Execution modes:
//  * single-threaded (default): Push() processes synchronously in trace
//    order — fully deterministic, the mode the parity tests pin down;
//  * multi-threaded: Start() spawns one worker per shard; packets reach a
//    shard through its SPSC ring and the worker drains them in bursts
//    (SpscQueue::TryPopBurst — one cursor publish per burst, with a
//    FlowTable::Prefetch pass over the burst's keys before processing).
//    Ingest does only digest routing; ALL per-packet work (flow lookup,
//    feature extraction, inference) runs on the shard core where the
//    flow's state is cache-resident. Because a flow maps to exactly one
//    shard and the ring preserves order, every shard sees the same packet
//    sequence as in single-threaded mode — per-flow decisions are
//    identical, only cross-shard interleaving differs.
//  * multi-ingest (multi-threaded + Serve(PartitionedPacketSource&)):
//    num_ingest threads each pull their own digest-disjoint partition and
//    feed only the shards they own (shard % num_ingest == ingest), staging
//    packets into per-shard burst buffers flushed with TryPushBurst —
//    RSS-style receive scaling with no shared dispatch point at all. The
//    partition function MUST agree with IngestPartitionOf: a packet whose
//    shard belongs to another ingest thread cannot be enqueued (the rings
//    are single-producer) and is shed + counted (ShedStats::misrouted).
//
// Overload story (SFC-style near-source signaling): when a shard's ring
// stays full, the ingest side walks a bounded escalation ladder — busy
// spin, then sched_yield, then exponential-backoff sleeps — and only once
// the whole ladder is exhausted with zero progress does it shed the
// packets instead of stalling the whole ingest loop, counting them per
// shard and per reason (the shed_* counters; StreamServerStats::shed sums
// them). Shedding is OFF by default — ingest then parks at the ladder's
// top rung and retries forever (pure backpressure), the configuration
// under which MT == ST decision equality is exact: the ladder changes only
// timing, never outcomes.
//
// Self-healing (fault story, see runtime/fault.hpp and tests/
// test_fault.cpp): every shard worker ticks a heartbeat; a watchdog thread
// samples it and flags a shard whose heartbeat stagnates while its ring
// holds work (stall detection is self-clearing when the worker resumes).
// A batch whose engine throws is retried on a bounded backoff ladder and
// then shed (counted as ShedStats::inference), so a transient inference
// fault degrades throughput, never liveness. SwapModel is transactional: a
// publish failure anywhere rolls every shard back to the serving model and
// surfaces SwapError — the server never runs mixed versions and never
// loses its serving model to a failed push.
//
// Metrics: every serving counter has exactly one home, a per-shard block
// of relaxed-atomic cells (telemetry::ShardCounters, fields listed once in
// PEGASUS_SHARD_COUNTERS). TelemetrySnapshot() is the one reader of those
// blocks and works at any time, also while the server runs; Stats() is
// that snapshot plus the worker-private flow-table, engine and occupancy
// numbers, so it needs a stopped server; Health() is another name for
// TelemetrySnapshot().
//
// Bit-exactness: with a large enough flow table (no evictions) the per-
// packet decisions equal the offline Extract*Features +
// eval::PredictClassesLowered path bit for bit — asserted by
// tests/test_stream_server.cpp. Under eviction pressure a re-inserted flow
// restarts its window (counted in the stats), exactly like a switch whose
// register slot was reclaimed.
//
// Hitless model hot-swap (the control plane's retrain-and-push story):
// shards serve through an epoch/RCU-style shared_ptr<const ServingState>
// handle. SwapModel(model, version) retires the active model at a *packet
// boundary*: every packet pushed before the call is decided by the old
// version, every packet after by the new one. In single-threaded mode the
// swap applies synchronously between Push calls; in multi-threaded mode it
// rides each shard's SPSC ring as an in-band control item, so a shard
// applies it after exactly the packets enqueued before the call — the swap
// point in every per-shard (and therefore per-flow) packet sequence is
// identical in both modes, and MT == ST decision equality holds across the
// swap. (SwapModel is a producer-side call: it must come from the thread
// calling Push, and must not race a running Serve(PartitionedPacketSource&)
// — the ingest threads own the rings' producer cursors for that span.)
// Per-flow state in the FlowTables survives (feature extraction is
// model-independent): a flow whose window was full keeps producing a
// decision per packet straight through the swap, with no re-warm-up. The
// shard flushes its partial batch through the outgoing engine first, so no
// decision is lost or reordered; each decision carries the version that
// produced it.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "runtime/affinity.hpp"
#include "runtime/flow_state.hpp"
#include "runtime/flow_table.hpp"
#include "runtime/inference_engine.hpp"
#include "runtime/packet_source.hpp"
#include "telemetry/exposition.hpp"
#include "telemetry/telemetry.hpp"
#include "traffic/stream.hpp"

namespace pegasus::runtime {

/// Which feature family feeds the model (stat and seq are both 16-dim, so
/// the input width alone cannot disambiguate).
enum class FeatureKind { kStat, kSeq, kRaw };

std::size_t FeatureDim(FeatureKind kind);
const char* FeatureKindName(FeatureKind kind);

/// Per-flow register layout of OnlineFlowState for dataplane SRAM
/// accounting (Table 6's "Stateful bits/flow" column, now backed by the
/// actual serving structure): min/max statistics, the stored fuzzy-index
/// rings, the previous-packet timestamp, and — for the raw family — the
/// raw-byte window.
FlowStateSpec OnlineFlowStateSpec(FeatureKind kind);

/// The bounded backpressure ladder a producer walks while a shard's ring
/// stays full: `spin` busy retries, then `yield` sched_yield retries, then
/// `backoff` sleeps doubling from `backoff_start_us` up to
/// `backoff_max_us`. Any successful push resets the ladder. Once the
/// ladder is exhausted with zero progress the producer sheds (when
/// StreamServerOptions::shed) or parks at the top rung and keeps retrying
/// (pure backpressure — the default, under which MT == ST equality is
/// exact). Replaces the old flat `shed_spin` counter: overload now costs
/// escalating-but-bounded CPU instead of a hot spin, and the shed decision
/// happens after a principled amount of waiting instead of N failed CAS
/// loops.
struct EscalationPolicy {
  std::size_t spin = 64;
  std::size_t yield = 128;
  std::size_t backoff = 64;
  std::uint64_t backoff_start_us = 1;
  std::uint64_t backoff_max_us = 256;

  std::size_t rounds() const { return spin + yield + backoff; }
  /// Shed on the very first failed push (the old `shed_spin = 0` idiom).
  static EscalationPolicy Immediate() { return {0, 0, 0, 0, 0}; }
};

/// Thrown by SwapModel when publishing the new model fails. The swap is
/// transactional: by the time this surfaces, every shard has been rolled
/// back to (or never left) the previously serving model.
class SwapError : public std::runtime_error {
 public:
  explicit SwapError(const std::string& what) : std::runtime_error(what) {}
};

struct StreamServerOptions {
  std::size_t num_shards = 1;
  /// FlowTable capacity per shard (rounded up to a power of two).
  std::size_t flows_per_shard = 1 << 12;
  /// Probe bound of each shard's FlowTable.
  std::size_t max_probe = 8;
  /// Physical layout + eviction policy of each shard's FlowTable (split
  /// hot/cold lanes by default; interleaved is the measured baseline —
  /// bench_flowscale A/Bs the two). Both eviction policies are
  /// deterministic; LRU is the default the equality proofs pin down.
  FlowTableLayout table_layout = FlowTableLayout::kSplit;
  FlowTableEviction table_eviction = FlowTableEviction::kLru;
  /// Inference batch size per shard (also the engine's PHV pool size).
  std::size_t batch_size = InferenceEngine::kDefaultBatchCapacity;
  FeatureKind feature = FeatureKind::kSeq;
  /// false: Push() processes synchronously. true: Start()/Stop() run one
  /// worker thread per shard fed by SPSC rings.
  bool multithreaded = false;
  /// Per-shard SPSC ring capacity (multi-threaded mode).
  std::size_t queue_capacity = 1 << 12;
  /// Ingest threads for Serve(PartitionedPacketSource&). Thread t owns the
  /// shards where shard % num_ingest == t and is the sole producer on
  /// their rings.
  std::size_t num_ingest = 1;
  /// Ring transfer granularity: ingest stages up to this many packets per
  /// shard before a TryPushBurst, and workers drain up to this many per
  /// TryPopBurst — one cursor publish per burst instead of per packet.
  std::size_t burst = 64;
  /// Deterministic overload shedding. false (default): a full ring applies
  /// backpressure — ingest walks the escalation ladder and then parks at
  /// its top rung retrying forever, and MT == ST decision equality is
  /// exact. true: once the ladder is exhausted with no progress, the
  /// packets are dropped near the source and counted per shard/per reason
  /// instead of stalling ingest.
  bool shed = false;
  /// The spin → yield → backoff ladder walked on a full ring (see
  /// EscalationPolicy; EscalationPolicy::Immediate() sheds on the first
  /// failed push).
  EscalationPolicy escalation;
  /// Watchdog sampling interval (multi-threaded mode; 0 disables the
  /// watchdog thread). Each tick samples every shard's heartbeat and ring
  /// depth.
  std::uint64_t watchdog_interval_us = 1000;
  /// Consecutive stagnant samples (heartbeat unchanged while the ring
  /// holds work) before a shard is flagged stalled. The flag self-clears
  /// when the heartbeat advances again.
  std::size_t watchdog_stall_intervals = 4;
  /// Bounded retries of a failing InferenceEngine::Infer call before the
  /// batch is shed (ShedStats::inference). Retry k sleeps
  /// k * inference_retry_backoff_us first.
  std::size_t inference_retries = 3;
  std::uint64_t inference_retry_backoff_us = 50;
  /// Core placement of shard workers and ingest threads in multi-threaded
  /// mode (runtime/affinity.hpp): kNone leaves scheduling to the OS;
  /// kCompact / kScatter / kExplicit pin each thread to a CPU. With any
  /// pinning policy (and in MT mode generally) a shard's FlowTable is
  /// constructed on its worker thread, so first-touch places the table's
  /// pages on the worker's NUMA node — the worker probes local memory.
  /// The plan is validated at construction (kExplicit needs a non-empty
  /// worker_cpus list; CPU ids must be < OnlineCpuCount()).
  CpuPinPolicy pin_policy = CpuPinPolicy::kNone;
  /// Explicit CPU lists (pin_policy == kExplicit only): thread i pins to
  /// list[i % list.size()]. An empty ingest list leaves ingest unpinned.
  std::vector<int> worker_cpus;
  std::vector<int> ingest_cpus;
  /// Stage-latency sampling and flight-recorder tracing (src/telemetry/;
  /// both off by default — the counters are always on). MT == ST decision
  /// equality holds at every setting: telemetry observes, never steers.
  telemetry::TelemetryOptions telemetry;
};

/// One per-packet classification (or anomaly score) produced by the server.
struct StreamDecision {
  std::uint64_t flow_digest = 0;
  /// TracePacket.flow / .index of the packet that triggered the decision.
  std::uint32_t flow = 0;
  std::uint32_t index = 0;
  std::int32_t label = 0;
  /// Argmax class over the dequantized outputs (0 for 1-output models).
  std::int32_t predicted = 0;
  /// The winning output value (top logit, or the anomaly score for
  /// 1-output models such as the AutoEncoder).
  float score = 0.0f;
  /// End-to-end latency of the packet that produced this decision
  /// (push/ingest-stamp -> decision emit), filled only when telemetry
  /// sampling picked the packet; 0 otherwise. Lets eval correlate
  /// accuracy with serving latency per model version (sits in what was
  /// the padding hole before `version` — StreamDecision stays 40 bytes).
  std::uint32_t latency_ns = 0;
  /// Model version that produced this decision (see SwapModel).
  std::uint64_t version = 0;
};

/// The immutable per-epoch serving snapshot shards point at. A swap
/// publishes a new ServingState; shards drop their reference at the next
/// packet boundary and the old model is reclaimed when the last shard (and
/// the control plane's registry) lets go — classic RCU grace period, with
/// shared_ptr as the epoch counter.
struct ServingState {
  std::uint64_t version = 0;
  std::shared_ptr<const LoweredModel> model;
};

/// Packets dropped instead of decided, by reason. ring_full and misrouted
/// are shed near the source (never enqueued); inference is shed at the
/// shard (processed into a batch whose engine kept failing). The exact
/// accounting identities the fault soak pins down, per shard and in
/// aggregate:
///   offered == stats.packets + shed.ring_full + shed.misrouted
///   stats.packets == stats.decisions + stats.warmup + shed.inference
/// The second one also holds live as an inequality (<=) in every
/// TelemetrySnapshot row (see telemetry::ShardCounters).
struct ShedStats {
  /// Ring stayed full through the whole escalation ladder with zero
  /// progress (overload; only with StreamServerOptions::shed).
  std::uint64_t ring_full = 0;
  /// Partition function disagreed with the server's shard->ingest map:
  /// the packet's shard ring belongs to another ingest thread, so
  /// enqueueing it would break the single-producer invariant. Always
  /// counted (zero under a correct partitioner).
  std::uint64_t misrouted = 0;
  /// Packets whose batch was dropped after the bounded inference retry
  /// ladder was exhausted (transient engine faults; zero in normal runs).
  std::uint64_t inference = 0;

  std::uint64_t total() const { return ring_full + misrouted + inference; }
};

/// O(delta) update accounting (SwapModelDelta), kept on the producer
/// thread: successful delta publishes, the control-plane bytes they
/// pushed, the dataplane's own delta counters aggregated from each patched
/// model's match indexes (Pipeline::MatchIndexReport) — leaf words
/// rewritten in place, full reseals avoided — and clone+patch time.
struct DeltaSwapStats {
  std::uint64_t swaps = 0;
  std::uint64_t bytes_pushed = 0;
  std::uint64_t deltas_applied = 0;
  std::uint64_t leaf_words_patched = 0;
  std::uint64_t reseals_avoided = 0;
  std::uint64_t apply_ns = 0;
  double wall_ms = 0.0;
};

/// The quiesced report: the telemetry snapshot (every counter, server-wide
/// and per shard in `shards`, plus stage histograms) and what only a
/// stopped server can read.
struct StreamServerStats : telemetry::TelemetrySnapshot {
  /// The snapshot's shed_* counters as one struct.
  ShedStats shed;
  /// swap_wall_ns in milliseconds: the serving gap shards spent flushing
  /// and rebuilding engines across all swap applies (one SwapModel call =
  /// num_shards applies; a rolled-back swap counts forward and rollback).
  double swap_wall_ms = 0.0;
  /// Aggregated over all shards, occupancy snapshot included
  /// (table.resident / table.slots sum each shard's live entries and
  /// capacity, so table.LoadFactor() is the server-wide load factor; the
  /// probe-length histogram sums per-shard histograms).
  FlowTableStats table;
  /// Batched-engine work counters, aggregated over all shards and across
  /// model swaps (engines retired by SwapModel fold their counters into a
  /// per-shard carry, so every inferred packet stays accounted).
  InferenceEngine::Stats engine;
  /// Register accounting: logical bits per flow and the SRAM footprint of
  /// all shards' flow tables (dataplane::FlowTableSramBits).
  std::size_t stateful_bits_per_flow = 0;
  std::size_t flow_table_sram_bits = 0;
  DeltaSwapStats delta;
};

class StreamServer {
 public:
  /// Serves `model` as version `version`. The model must consume
  /// FeatureDim(opts.feature) inputs; throws std::invalid_argument
  /// otherwise. Shared ownership keeps the artifact alive across swaps
  /// even if the registry drops it.
  StreamServer(std::shared_ptr<const LoweredModel> model,
               StreamServerOptions opts = {}, std::uint64_t version = 1);
  ~StreamServer();

  StreamServer(const StreamServer&) = delete;
  StreamServer& operator=(const StreamServer&) = delete;

  const StreamServerOptions& options() const { return opts_; }
  std::size_t num_shards() const { return shards_.size(); }
  /// Version most recently published to the shards (shards in MT mode may
  /// still be draining packets enqueued before the swap).
  std::uint64_t active_version() const { return serving_->version; }

  /// The shard routing map: high bits of the mixed digest, modulo the
  /// shard count (FlowTable slot selection uses the low bits — decorrelated
  /// views of the same mix).
  static std::size_t ShardIndexOf(std::uint64_t digest,
                                  std::size_t num_shards) {
    return (MixDigest(digest) >> 32) % num_shards;
  }

  /// The ingest thread owning `digest`'s shard under this server's
  /// geometry — the partition function Serve(PartitionedPacketSource&)
  /// expects its source to be split by.
  std::size_t IngestPartitionOf(std::uint64_t digest) const {
    return ShardIndexOf(digest, shards_.size()) % opts_.num_ingest;
  }

  /// Routes one packet to its shard. Single-threaded mode processes it
  /// synchronously; multi-threaded mode (after Start()) enqueues it,
  /// spinning if the shard's ring is full (or shedding, when enabled).
  /// The caller is the single producer — do not mix with a concurrent
  /// Serve(PartitionedPacketSource&).
  void Push(const traffic::TracePacket& packet);

  /// Hitless hot swap: every packet pushed before this call is decided by
  /// the previous model, every packet pushed after by `model`; partial
  /// batches flush through the outgoing engine, per-flow state survives.
  /// Call from the producer thread (the one calling Push). Requires the
  /// same input dim as the serving feature family (the output dim may
  /// change) and a strictly increasing version; throws
  /// std::invalid_argument otherwise.
  ///
  /// Transactional: if publishing fails (engine build throws — exercised
  /// by fault site kSwapPublishFail), every shard is rolled back to (or in
  /// multi-threaded mode never leaves) the previously serving model and
  /// SwapError is thrown; active_version() is unchanged and a retry with
  /// the same version number is legal.
  void SwapModel(std::shared_ptr<const LoweredModel> model,
                 std::uint64_t version);

  /// O(delta) hot swap: instead of publishing a freshly lowered artifact,
  /// clones the serving model (tables, placement and compiled match
  /// indexes — no re-lowering), writes the planner's action-word patches
  /// in place on the clone (MatchIndex::ApplyDelta), and publishes the clone
  /// through the identical epoch handoff as SwapModel — single-threaded
  /// at the packet boundary, multi-threaded in-band through the rings.
  /// MT == ST decision equality and the transactional guarantee carry
  /// over unchanged: on publish failure the patched clone is discarded,
  /// SwapError is thrown and active_version() still names the old model.
  ///
  /// `patches` must come from control::CollectPatches on an UpdatePlan
  /// against the serving version (no structure change, no reseals); a
  /// patch that moves a rule, or that MatchActionTable::ValidateDelta
  /// otherwise rejects, throws std::invalid_argument before anything is
  /// published. Call from the producer thread; requires a strictly
  /// increasing version.
  void SwapModelDelta(std::span<const dataplane::TablePatch> patches,
                      std::uint64_t version);

  /// Flushes every shard's partial batch (single-threaded mode; in
  /// multi-threaded mode Stop() flushes instead).
  void Flush();

  /// Multi-threaded mode only: spawn / drain-and-join the shard workers.
  void Start();
  void Stop();

  /// Replays a whole trace: Start + Push each packet + Stop (or Push +
  /// Flush in single-threaded mode) and returns the decisions. Per-shard
  /// decision sinks are reserved from the trace's observed shard shares.
  std::vector<StreamDecision> Serve(
      std::span<const traffic::TracePacket> trace);

  /// Pull-based ingestion: drains `source` (a merged trace, a pcap capture
  /// decoded on the fly, or a pacing io::TraceReplayer) through the shard
  /// rings in bursts. Sources may reuse their packet buffer between Next
  /// calls — the multi-threaded rings carry the payload by value.
  std::vector<StreamDecision> Serve(PacketSource& source);

  /// Multi-ingest ingestion: spawns opts.num_ingest threads (partition 0
  /// runs on the calling thread), each pulling its own partition of
  /// `source` and feeding only the shards it owns. Requires
  /// source.partitions() == opts.num_ingest in multi-threaded mode; the
  /// partition split must follow IngestPartitionOf (misrouted packets are
  /// shed + counted, never enqueued). Single-threaded mode drains the
  /// partitions sequentially — per-flow decisions are identical either
  /// way (with shedding off), since a flow lives in exactly one partition.
  std::vector<StreamDecision> Serve(PartitionedPacketSource& source);

  /// Moves out the accumulated decisions, shard-major (within a shard:
  /// processing order), leaving every shard's sink empty; when one shard
  /// holds them all, its vector itself is handed over, not copied. Throws
  /// std::logic_error while workers are running (the shards are owned by
  /// their worker threads until Stop()).
  std::vector<StreamDecision> TakeDecisions();

  /// TelemetrySnapshot() plus the flow tables, engines and register
  /// accounting. Throws std::logic_error while workers are running —
  /// those live on the worker threads.
  StreamServerStats Stats() const;

  /// The live view, callable from any thread at any time (including while
  /// workers run — every source is an atomic): every serving counter per
  /// shard and folded server-wide, watchdog state (stalled, stall_events,
  /// watchdog_checks, healthy()), ring depth, merged per-stage latency
  /// histograms with p50/p90/p99/p999, and trace-ring occupancy. Serialize
  /// with telemetry::WriteJson / WritePrometheus.
  telemetry::TelemetrySnapshot TelemetrySnapshot() const;
  /// Same as TelemetrySnapshot(), under the name existing callers use.
  telemetry::TelemetrySnapshot Health() const { return TelemetrySnapshot(); }

  /// Merged, time-ordered flight-recorder dump (empty when
  /// trace_events == 0). Callable while running.
  std::vector<telemetry::TraceEvent> DumpTrace() const;

  /// DumpTrace() serialized as the structured trace JSON that
  /// tools/trace_to_chrome.py converts for Perfetto.
  void WriteTrace(std::ostream& os) const;

  /// Zeroes every counter, histogram and trace ring, the flow tables'
  /// stats, the engines' work counters and the delta accounting —
  /// resident flow state and the active model stay untouched, so callers
  /// can report per-phase numbers (e.g. before vs after a swap). Throws
  /// std::logic_error while workers are running.
  void ResetStats();

 private:
  struct Shard;
  struct ShardItem;

  Shard& ShardOf(std::uint64_t digest);
  /// `stamp` is the packet's telemetry enqueue stamp (Stamp32; 0 =
  /// unsampled): nonzero triggers stage timing and flows into the
  /// decision's latency_ns.
  void Process(Shard& shard, const traffic::TracePacket& packet,
               std::uint32_t stamp);
  void FlushShard(Shard& shard);
  /// Rebuilds the shard's engine over `next` at a packet boundary.
  /// `inject_faults` gates the kSwapPublishFail site: true only on the
  /// producer-driven single-threaded apply (which can roll back); the
  /// worker-side in-band apply and the rollback path run fault-free.
  void ApplySwap(Shard& shard, std::shared_ptr<const ServingState> next,
                 bool inject_faults);
  /// Shared publish tail of SwapModel / SwapModelDelta: transactional
  /// single-threaded apply-with-rollback, or multi-threaded probe build +
  /// in-band control items. Throws SwapError on publish failure with
  /// `serving_` unchanged.
  void PublishState(std::shared_ptr<const ServingState> next);
  void WorkerLoop(Shard& shard, int cpu);
  void WatchdogLoop();
  /// Burst-pushes `items` onto the shard's ring: yields under backpressure,
  /// sheds the un-pushed remainder once the no-progress spin budget is
  /// exhausted (shedding mode only).
  void PushStage(Shard& shard, std::span<ShardItem> items);
  /// One ingest thread: pulls partition `t` of `source`, stages packets
  /// into per-shard burst buffers, flushes them with PushStage. `fanout`
  /// is the total ingest thread count (shard ownership: shard % fanout).
  void IngestLoop(PartitionedPacketSource& source, std::size_t t,
                  std::size_t fanout);

  StreamServerOptions opts_;
  traffic::OnlineFeatureExtractor extractor_;
  std::size_t dim_ = 0;
  /// Producer-side view of the active epoch (shards hold their own
  /// references; in MT mode the handle reaches them in-band through the
  /// rings, so no cross-thread load happens on the hot path).
  std::shared_ptr<const ServingState> serving_;
  /// Written only by SwapModelDelta on the producer thread; read by the
  /// quiesced Stats().
  DeltaSwapStats delta_;
  /// Per-thread CPU assignment resolved from opts_.pin_policy at
  /// construction (-1 entries = unpinned).
  PinPlan pin_plan_;
  /// Counters, histograms and trace rings; shards hold a reference to
  /// their block, the control ring takes producer/watchdog events.
  telemetry::ServerTelemetry tele_;
  /// Producer-side 1-in-N countdown for Push() (both modes; the ingest
  /// threads carry their own).
  telemetry::Sampler push_sampler_;
  /// Mirror of serving_->version readable from any thread (serving_
  /// itself is producer-owned): TelemetrySnapshot's live version field.
  std::atomic<std::uint64_t> published_version_{0};
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool> closed_{false};
  /// Written by Start/Stop on the producer thread; atomic so
  /// TelemetrySnapshot() can read it from any thread.
  std::atomic<bool> running_{false};
  /// Watchdog thread (MT mode, watchdog_interval_us > 0): samples shard
  /// heartbeats, flags/clears stalls.
  std::thread watchdog_;
  std::atomic<bool> watchdog_stop_{false};
};

}  // namespace pegasus::runtime
