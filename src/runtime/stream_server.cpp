#include "runtime/stream_server.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>

#include "runtime/fault.hpp"
#include "runtime/spsc_queue.hpp"

namespace pegasus::runtime {

std::size_t FeatureDim(FeatureKind kind) {
  switch (kind) {
    case FeatureKind::kStat:
      return traffic::kStatDim;
    case FeatureKind::kSeq:
      return traffic::kSeqDim;
    case FeatureKind::kRaw:
      return traffic::kRawDim;
  }
  throw std::invalid_argument("FeatureDim: unknown kind");
}

const char* FeatureKindName(FeatureKind kind) {
  switch (kind) {
    case FeatureKind::kStat:
      return "stat";
    case FeatureKind::kSeq:
      return "seq";
    case FeatureKind::kRaw:
      return "raw";
  }
  return "?";
}

FlowStateSpec OnlineFlowStateSpec(FeatureKind kind) {
  FlowStateSpec spec;
  spec.Add("min_len", 8)
      .Add("max_len", 8)
      .Add("min_ipd", 8)
      .Add("max_ipd", 8)
      .Add("fuzzy_len", 8, traffic::kWindow)
      .Add("fuzzy_ipd", 8, traffic::kWindow)
      .Add("prev_ts", 48);
  if (kind == FeatureKind::kRaw) {
    spec.Add("raw_window", 8, traffic::kWindow * traffic::kRawBytesPerPacket);
  }
  return spec;
}

namespace {

struct PendingMeta {
  std::uint64_t digest = 0;
  std::uint32_t flow = 0;
  std::uint32_t index = 0;
  std::int32_t label = 0;
  /// Telemetry enqueue stamp of the packet that filled this row (0 =
  /// unsampled): carried to the batch flush so the decision's
  /// end-to-end latency spans push -> emit, not just the flush.
  std::uint32_t start = 0;
};

std::shared_ptr<const ServingState> MakeServingState(
    std::shared_ptr<const LoweredModel> model, std::uint64_t version) {
  auto state = std::make_shared<ServingState>();
  state->version = version;
  state->model = std::move(model);
  return state;
}

/// Walks one producer's EscalationPolicy ladder against a full ring. The
/// caller resets it on any progress; Exhausted() is the shed gate.
class Escalator {
 public:
  explicit Escalator(const EscalationPolicy& policy) : policy_(policy) {}

  void Reset() { round_ = 0; }
  bool Exhausted() const { return round_ >= policy_.rounds(); }

  /// One rung: busy-spin, yield, or a capped exponentially-growing sleep.
  /// Saturates at the top rung, so a no-shed producer parks at
  /// backoff_max_us per retry instead of burning a core.
  void Wait() {
    if (round_ < policy_.spin) {
      // Busy rung: nothing — the retry itself is the wait.
    } else if (round_ < policy_.spin + policy_.yield) {
      std::this_thread::yield();
    } else {
      const std::size_t k = round_ - policy_.spin - policy_.yield;
      std::uint64_t us = policy_.backoff_start_us == 0
                             ? policy_.backoff_max_us
                             : policy_.backoff_start_us
                                   << std::min<std::size_t>(k, 20);
      us = std::min(us, policy_.backoff_max_us);
      if (us == 0) {
        std::this_thread::yield();  // degenerate policy: never hot-spin
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(us));
      }
    }
    if (round_ < policy_.rounds()) ++round_;
  }

 private:
  const EscalationPolicy& policy_;
  std::size_t round_ = 0;
};

}  // namespace

/// One ring element in multi-threaded mode: either a packet or an in-band
/// control item (`swap != nullptr`) that retires the shard's model at
/// exactly this position in the shard's packet sequence. The payload rides
/// by value: a PacketSource may reuse its buffer the moment Push returns,
/// so the borrowed TracePacket::packet pointer cannot cross the ring — the
/// worker re-aims it at `payload` after popping. Cache-line alignment keeps
/// every element on whole lines (sizeof is already 2×64), so a producer
/// writing slot i and a consumer reading slot i±1 never share a line.
struct alignas(64) StreamServer::ShardItem {
  traffic::TracePacket packet;
  traffic::Packet payload;
  std::shared_ptr<const ServingState> swap;
};

struct StreamServer::Shard {
  Shard(std::shared_ptr<const ServingState> state,
        const StreamServerOptions& opts, std::size_t dim,
        telemetry::ShardTelemetry& telemetry, std::uint32_t shard_index)
      : tele(telemetry),
        counters(telemetry.counters),
        index(shard_index),
        serving(std::move(state)),
        engine(std::make_unique<InferenceEngine>(*serving->model,
                                                 opts.batch_size)),
        out_dim(serving->model->OutputDim()),
        features(opts.batch_size * dim),
        logits(opts.batch_size * out_dim),
        meta(opts.batch_size),
        feature(opts.feature),
        table_opts{opts.flows_per_shard, opts.max_probe, opts.table_layout,
                   opts.table_eviction},
        slot_count(std::bit_ceil(opts.flows_per_shard)) {
    // In multi-threaded mode table construction is deferred to the worker
    // thread (EnsureTables at WorkerLoop entry, after pinning): first-touch
    // then places the table's pages on the worker's NUMA node, which is
    // the other half of core pinning. Single-threaded mode builds eagerly —
    // caller and server are the same thread anyway.
    if (!opts.multithreaded) {
      EnsureTables();
    } else {
      queue = std::make_unique<SpscQueue<ShardItem>>(opts.queue_capacity);
    }
  }

  /// Builds the flow table on the calling thread (idempotent). Exactly one
  /// flow table exists, typed for the feature family, so stat/seq shards
  /// never carry (or reset on eviction) the 480-byte raw-byte window.
  void EnsureTables() {
    if (table || raw_table) return;
    if (feature == FeatureKind::kRaw) {
      raw_table = std::make_unique<FlowTable<traffic::OnlineFlowStateRaw>>(
          table_opts);
    } else {
      table = std::make_unique<FlowTable<traffic::OnlineFlowState>>(
          table_opts);
    }
  }

  /// Counters + occupancy snapshot; a not-yet-built (deferred) table
  /// reports zero counters over `slot_count` slots.
  FlowTableStats TableStats() const {
    if (table) return table->SnapshotStats();
    if (raw_table) return raw_table->SnapshotStats();
    FlowTableStats s;
    s.slots = slot_count;
    return s;
  }
  void ResetTableStats() {
    if (table) {
      table->ResetStats();
    } else if (raw_table) {
      raw_table->ResetStats();
    }
  }
  std::size_t TableSramBits(std::size_t bits_per_flow) const {
    // Priced from the configured slot count so accounting works before a
    // deferred table is built (matches FlowTable::SramBits exactly).
    return dataplane::FlowTableSramBits(bits_per_flow, slot_count);
  }
  void PrefetchFlow(const dataplane::FlowKey& key) const {
    if (table) {
      table->Prefetch(key);
    } else if (raw_table) {
      raw_table->Prefetch(key);
    }
  }

  /// Publishes the worker-private table's hit/miss counts to the block.
  void PublishTableCounts() {
    if (!table && !raw_table) return;
    const FlowTableStats& ts = table ? table->stats() : raw_table->stats();
    counters.table_hits.Set(ts.hits);
    counters.table_misses.Set(ts.misses);
  }

  std::unique_ptr<FlowTable<traffic::OnlineFlowState>> table;
  std::unique_ptr<FlowTable<traffic::OnlineFlowStateRaw>> raw_table;
  /// This shard's telemetry (stage histograms, event ring) and its counter
  /// block — the only storage of the shard's serving counters.
  telemetry::ShardTelemetry& tele;
  telemetry::ShardCounters& counters;
  /// This shard's index in shards_ (trace events need it from contexts
  /// that only hold the Shard&).
  std::uint32_t index = 0;
  /// Epoch handle + the engine built over it. Owned by the worker thread
  /// while running; swapped together at packet boundaries (ApplySwap).
  std::shared_ptr<const ServingState> serving;
  std::unique_ptr<InferenceEngine> engine;
  /// Work counters of engines retired by swaps; Stats() reports
  /// engine_carry + the current engine's counters so a run containing
  /// swaps still accounts every inferred packet.
  InferenceEngine::Stats engine_carry;
  std::size_t out_dim = 0;
  std::vector<float> features;  // batch_size x dim rows
  std::vector<float> logits;    // batch_size x out_dim
  std::vector<PendingMeta> meta;
  FeatureKind feature = FeatureKind::kSeq;
  FlowTableOptions table_opts;
  /// bit_ceil(flows_per_shard): the capacity a (possibly deferred) table
  /// will have, for accounting that must not wait for construction.
  std::size_t slot_count = 0;
  std::size_t pending = 0;
  std::vector<StreamDecision> decisions;
  /// Only allocated in multi-threaded mode.
  std::unique_ptr<SpscQueue<ShardItem>> queue;
  std::thread worker;
};

StreamServer::StreamServer(std::shared_ptr<const LoweredModel> model,
                           StreamServerOptions opts, std::uint64_t version)
    : opts_(opts),
      dim_(FeatureDim(opts.feature)),
      tele_(opts.telemetry, opts.num_shards),
      push_sampler_(opts.telemetry.sample_every) {
  if (model == nullptr) {
    throw std::invalid_argument("StreamServer: null model");
  }
  if (opts_.num_shards == 0) {
    throw std::invalid_argument("StreamServer: zero shards");
  }
  if (opts_.batch_size == 0) {
    throw std::invalid_argument("StreamServer: zero batch size");
  }
  if (opts_.num_ingest == 0) {
    throw std::invalid_argument("StreamServer: zero ingest threads");
  }
  if (opts_.burst == 0) {
    throw std::invalid_argument("StreamServer: zero burst size");
  }
  if (opts_.flows_per_shard == 0) {
    throw std::invalid_argument("StreamServer: zero flows per shard");
  }
  if (opts_.max_probe == 0) {
    throw std::invalid_argument("StreamServer: zero probe length");
  }
  if (model->InputDim() != dim_) {
    throw std::invalid_argument(
        "StreamServer: model input dim does not match the feature family");
  }
  // Resolve (and validate) the thread placement up front, even in
  // single-threaded mode — a bad explicit CPU list should fail at
  // construction, not at Start().
  pin_plan_ = MakePinPlan(opts_.pin_policy, opts_.num_shards,
                          opts_.num_ingest, opts_.worker_cpus,
                          opts_.ingest_cpus);
  serving_ = MakeServingState(std::move(model), version);
  published_version_.store(version, std::memory_order_relaxed);
  shards_.reserve(opts_.num_shards);
  for (std::size_t i = 0; i < opts_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(
        serving_, opts_, dim_, tele_.shard(i), static_cast<std::uint32_t>(i)));
  }
}

StreamServer::~StreamServer() {
  if (running_) Stop();
}

StreamServer::Shard& StreamServer::ShardOf(std::uint64_t digest) {
  return *shards_[ShardIndexOf(digest, shards_.size())];
}

void StreamServer::Push(const traffic::TracePacket& packet) {
  Shard& shard = ShardOf(packet.key.digest);
  // Sampling decision at the boundary (one predictable branch when
  // sample_every == 0): the stamp starts the packet's end-to-end clock
  // and, in MT mode, the ring-dwell clock.
  const std::uint32_t stamp = push_sampler_.Sample() ? tele_.Stamp32() : 0;
  if (!running_) {
    Process(shard, packet, stamp);
    return;
  }
  ShardItem item;
  item.packet = packet;
  item.packet.tele_stamp = stamp;
  item.payload = *packet.packet;
  Escalator esc(opts_.escalation);
  // kRingPushStall makes the ring look full for a round, driving the
  // ladder without needing a genuinely backlogged worker.
  while (FaultFires(FaultSite::kRingPushStall) ||
         !shard.queue->TryPush(std::move(item))) {
    if (opts_.shed && esc.Exhausted()) {
      shard.counters.shed_ring_full.Add();
      // Per-packet sheds are a high-rate event under sustained overload:
      // trace only the sampled packets (same 1-in-N as packet spans), or
      // a drop storm evicts every lifecycle event from the fixed ring.
      // The batch-level shed records (burst remainder, inference) stay
      // unconditional. The shed *counter* above counts every drop.
      if (stamp != 0) {
        shard.tele.ring.Record(telemetry::TraceEventKind::kShed, shard.index,
                               tele_.NowNs(), 0, 1, /*reason=*/0);
      }
      return;
    }
    esc.Wait();  // shard backlogged; escalate backpressure
  }
}

void StreamServer::PushStage(Shard& shard, std::span<ShardItem> items) {
  std::span<ShardItem> rest = items;
  Escalator esc(opts_.escalation);
  while (!rest.empty()) {
    const std::size_t pushed = FaultFires(FaultSite::kRingPushStall)
                                   ? 0
                                   : shard.queue->TryPushBurst(rest);
    rest = rest.subspan(pushed);
    if (rest.empty()) break;
    if (pushed != 0) {
      esc.Reset();  // progress resets the ladder: shed only on a STUCK ring
      continue;
    }
    if (opts_.shed && esc.Exhausted()) {
      // Near-source signal: the remainder of this burst targets a ring
      // that stayed full through the whole escalation ladder — shed it
      // here, deterministically, instead of stalling every other shard
      // this ingest thread feeds.
      shard.counters.shed_ring_full.Add(rest.size());
      // The shard's event ring is multi-writer safe (claim cursor +
      // per-slot seq), so the ingest thread can drop the shed marker on
      // the shard's own track.
      shard.tele.ring.Record(telemetry::TraceEventKind::kShed, shard.index,
                             tele_.NowNs(), 0, rest.size(), /*reason=*/0);
      break;
    }
    esc.Wait();
  }
}

void StreamServer::IngestLoop(PartitionedPacketSource& source, std::size_t t,
                              std::size_t fanout) {
  const std::size_t burst = opts_.burst;
  struct Stage {
    std::vector<ShardItem> items;
    std::size_t n = 0;
  };
  // Staging buffers only for the shards this thread owns; the vector is
  // indexed by shard for O(1) routing.
  std::vector<Stage> stages(shards_.size());
  for (std::size_t s = t; s < shards_.size(); s += fanout) {
    stages[s].items.resize(burst);
  }
  // Each ingest thread keeps its own countdown: a sampled pull times the
  // source decode (Next) and stamps the packet for dwell/end-to-end
  // measurement downstream. With sampling off this is one predictable
  // branch per packet, same as the fault hooks.
  telemetry::Sampler sampler(tele_.sample_every());
  traffic::TracePacket pkt;
  for (;;) {
    const bool sampled = sampler.Sample();
    const std::uint64_t t0 = sampled ? tele_.NowNs() : 0;
    if (!source.Next(t, pkt)) break;
    std::uint64_t now = 0;
    std::uint32_t stamp = 0;
    if (sampled) {
      now = tele_.NowNs();
      stamp = tele_.Stamp32(now);
    }
    const std::size_t s = ShardIndexOf(pkt.key.digest, shards_.size());
    if (s % fanout != t) {
      // The partition function disagrees with the shard map: shard s's
      // ring has another producer, so enqueueing from here would break the
      // SPSC invariant. Count and shed — zero under a correct partitioner.
      shards_[s]->counters.shed_misrouted.AddShared(1);
      shards_[s]->tele.ring.Record(telemetry::TraceEventKind::kShed,
                                   static_cast<std::uint32_t>(s),
                                   tele_.NowNs(), 0, 1, /*reason=*/1);
      continue;
    }
    if (sampled) {
      shards_[s]->tele.stages.Record(telemetry::Stage::kIngestNext,
                                     now - t0);
    }
    Stage& stage = stages[s];
    ShardItem& item = stage.items[stage.n];
    item.packet = pkt;
    item.packet.tele_stamp = stamp;
    item.payload = *pkt.packet;
    item.swap = nullptr;  // staged slots are reused after a flush
    if (++stage.n == burst) {
      PushStage(*shards_[s], std::span<ShardItem>(stage.items.data(),
                                                  stage.n));
      stage.n = 0;
    }
  }
  for (std::size_t s = t; s < shards_.size(); s += fanout) {
    Stage& stage = stages[s];
    if (stage.n != 0) {
      PushStage(*shards_[s], std::span<ShardItem>(stage.items.data(),
                                                  stage.n));
      stage.n = 0;
    }
  }
}

void StreamServer::SwapModel(std::shared_ptr<const LoweredModel> model,
                             std::uint64_t version) {
  if (model == nullptr) {
    throw std::invalid_argument("StreamServer::SwapModel: null model");
  }
  if (model->InputDim() != dim_) {
    throw std::invalid_argument(
        "StreamServer::SwapModel: model input dim does not match the "
        "serving feature family");
  }
  if (version <= serving_->version) {
    throw std::invalid_argument(
        "StreamServer::SwapModel: version must increase (active v" +
        std::to_string(serving_->version) + ", got v" +
        std::to_string(version) + ")");
  }
  PublishState(MakeServingState(std::move(model), version));
}

void StreamServer::SwapModelDelta(
    std::span<const dataplane::TablePatch> patches, std::uint64_t version) {
  if (version <= serving_->version) {
    throw std::invalid_argument(
        "StreamServer::SwapModelDelta: version must increase (active v" +
        std::to_string(serving_->version) + ", got v" +
        std::to_string(version) + ")");
  }
  // Clone-then-patch: the shards keep serving the untouched epoch (they
  // hold their own references and, in MT mode, may not reach the swap
  // boundary for a while), so the patches land on a private deep copy.
  // The clone preserves placement and every compiled match index —
  // ApplyDelta rewrites only the patched entries' action words, never
  // re-sealing a table — so the producer-side cost is O(clone + delta),
  // not O(re-lower). Throws std::invalid_argument (pipeline untouched,
  // nothing published) when a patch moves a rule or otherwise fails
  // validation.
  const auto t0 = std::chrono::steady_clock::now();
  auto patched = std::make_shared<LoweredModel>(serving_->model->Clone());
  const auto before = patched->pipeline().MatchIndexReport();
  const std::size_t bytes = patched->ApplyDelta(patches);
  const auto after = patched->pipeline().MatchIndexReport();
  PublishState(MakeServingState(std::move(patched), version));
  const auto t1 = std::chrono::steady_clock::now();
  // Account only on success: a failed publish discarded the clone and the
  // server still serves (and re-reports) the previous version.
  tele_.control_ring().Record(
      telemetry::TraceEventKind::kDeltaApply,
      telemetry::TraceEvent::kControlTrack, tele_.NowNs(),
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count()),
      version, bytes);
  ++delta_.swaps;
  delta_.bytes_pushed += bytes;
  delta_.deltas_applied += after.deltas_applied - before.deltas_applied;
  delta_.leaf_words_patched +=
      after.leaf_words_patched - before.leaf_words_patched;
  delta_.reseals_avoided += after.reseals_avoided - before.reseals_avoided;
  delta_.apply_ns += after.delta_apply_ns - before.delta_apply_ns;
  delta_.wall_ms += std::chrono::duration<double, std::milli>(t1 - t0).count();
}

void StreamServer::PublishState(std::shared_ptr<const ServingState> next) {
  const std::uint64_t version = next->version;
  const auto prev = serving_;
  tele_.control_ring().Record(telemetry::TraceEventKind::kSwapBegin,
                              telemetry::TraceEvent::kControlTrack,
                              tele_.NowNs(), 0, version, prev->version);
  if (!running_) {
    // Synchronous apply: the caller owns the shards, and "now" is a packet
    // boundary by definition in single-threaded mode. Transactional: a
    // publish failure on shard k (engine build throws — fault site
    // kSwapPublishFail) rolls shards [0, k) back to the serving model, so
    // the server never runs mixed versions.
    std::size_t applied = 0;
    try {
      for (; applied < shards_.size(); ++applied) {
        ApplySwap(*shards_[applied], next, /*inject_faults=*/true);
      }
    } catch (const std::exception& e) {
      for (std::size_t i = 0; i < applied; ++i) {
        // Fault-free by contract: rebuilding over the previously serving
        // model repeats a build that already succeeded.
        ApplySwap(*shards_[i], prev, /*inject_faults=*/false);
      }
      tele_.control_ring().Record(telemetry::TraceEventKind::kSwapRollback,
                                  telemetry::TraceEvent::kControlTrack,
                                  tele_.NowNs(), 0, version, prev->version);
      throw SwapError("StreamServer::SwapModel: publish of v" +
                      std::to_string(version) + " failed (" + e.what() +
                      "); rolled back to v" +
                      std::to_string(prev->version));
    }
    serving_ = std::move(next);
    published_version_.store(version, std::memory_order_relaxed);
    tele_.control_ring().Record(telemetry::TraceEventKind::kSwapPublish,
                                telemetry::TraceEvent::kControlTrack,
                                tele_.NowNs(), 0, version, 0);
    return;
  }
  // Multi-threaded publish: validate on THIS thread before anything
  // reaches the rings — a worker cannot roll back its siblings, so the
  // in-band apply must be infallible by the time it is enqueued. The
  // probe build is exactly the work each worker will repeat.
  try {
    if (FaultFires(FaultSite::kSwapPublishFail)) {
      throw FaultInjectedError(FaultSite::kSwapPublishFail,
                               "probe engine build");
    }
    InferenceEngine probe(*next->model, opts_.batch_size);
    (void)probe;
  } catch (const std::exception& e) {
    tele_.control_ring().Record(telemetry::TraceEventKind::kSwapRollback,
                                telemetry::TraceEvent::kControlTrack,
                                tele_.NowNs(), 0, version, prev->version);
    throw SwapError("StreamServer::SwapModel: publish of v" +
                    std::to_string(version) + " failed (" + e.what() +
                    "); still serving v" + std::to_string(prev->version));
  }
  serving_ = next;
  published_version_.store(version, std::memory_order_relaxed);
  // In-band apply: the control item is ordered after every packet already
  // enqueued and before everything pushed later — the same swap point the
  // single-threaded path applies, per shard. Control items are never shed:
  // a lost swap would leave shards serving different versions.
  for (auto& shard : shards_) {
    ShardItem item;
    item.swap = next;
    while (!shard->queue->TryPush(std::move(item))) {
      std::this_thread::yield();
    }
  }
  tele_.control_ring().Record(telemetry::TraceEventKind::kSwapPublish,
                              telemetry::TraceEvent::kControlTrack,
                              tele_.NowNs(), 0, version, 0);
}

void StreamServer::ApplySwap(Shard& shard,
                             std::shared_ptr<const ServingState> next,
                             bool inject_faults) {
  // Drain the partial batch through the outgoing engine so no decision is
  // lost, then rebuild the engine over the incoming model. Flow state is
  // untouched — feature extraction is model-independent. The recorded gap
  // covers both: the shard serves nothing from flush start to rebuild end.
  const auto t0 = std::chrono::steady_clock::now();
  FlushShard(shard);
  if (inject_faults && FaultFires(FaultSite::kSwapPublishFail)) {
    throw FaultInjectedError(FaultSite::kSwapPublishFail,
                             "engine rebuild mid-apply");
  }
  // Build the incoming engine BEFORE retiring the outgoing one: if the
  // build throws, the shard still holds a fully consistent old engine
  // (and its stats), so the caller's rollback has nothing to repair here.
  auto incoming =
      std::make_unique<InferenceEngine>(*next->model, opts_.batch_size);
  shard.engine_carry += shard.engine->stats();
  shard.engine = std::move(incoming);
  shard.out_dim = next->model->OutputDim();
  shard.logits.resize(opts_.batch_size * shard.out_dim);
  shard.serving = std::move(next);
  const auto t1 = std::chrono::steady_clock::now();
  const auto gap_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  shard.counters.swaps.Add();
  shard.counters.swap_wall_ns.Add(gap_ns);
  // The serving gap is a lifecycle event, not a sampled one: every apply
  // lands in the swap_publish histogram and on the shard's trace track, so
  // a slow rebuild is visible even at sample_every == 0.
  shard.tele.stages.Record(telemetry::Stage::kSwapPublish, gap_ns);
  shard.tele.ring.Record(telemetry::TraceEventKind::kSwapApply, shard.index,
                         tele_.NowNs(), gap_ns, shard.serving->version, 0);
}

void StreamServer::Process(Shard& shard, const traffic::TracePacket& packet,
                           std::uint32_t stamp) {
  // MT mode defers table construction to the worker; the one path that can
  // get here first without a worker is Push() before Start(), where the
  // caller owns the shard — build on demand (idempotent, single-threaded).
  if (!shard.table && !shard.raw_table) shard.EnsureTables();
  // packets is bumped before the packet's outcome (warmup, decisions or
  // shed_inference) is published with release — the order the live
  // accounting identity rests on (telemetry::ShardCounters).
  shard.counters.packets.Add();
  // Sampled packets (nonzero stamp) pay three extra clock reads to split
  // lookup from extraction; everything else takes one predictable branch
  // here and none below.
  const bool sampled = stamp != 0;
  std::uint64_t t0 = 0;
  std::uint64_t t1 = 0;
  float* row = shard.features.data() + shard.pending * dim_;
  bool full;
  if (sampled) t0 = tele_.NowNs();
  if (opts_.feature == FeatureKind::kRaw) {
    traffic::OnlineFlowStateRaw& state =
        shard.raw_table->FindOrInsert(packet.key);
    if (sampled) t1 = tele_.NowNs();
    extractor_.Update(state, *packet.packet, packet.ts_us);
    full = state.WindowFull();
    if (full) extractor_.EmitRaw(state, row);
  } else {
    traffic::OnlineFlowState& state = shard.table->FindOrInsert(packet.key);
    if (sampled) t1 = tele_.NowNs();
    extractor_.Update(state, *packet.packet, packet.ts_us);
    full = state.WindowFull();
    if (full) {
      if (opts_.feature == FeatureKind::kStat) {
        extractor_.EmitStat(state, row);
      } else {
        extractor_.EmitSeq(state, row);
      }
    }
  }
  if (sampled) {
    const std::uint64_t t2 = tele_.NowNs();
    shard.tele.stages.Record(telemetry::Stage::kFlowLookup, t1 - t0);
    shard.tele.stages.Record(telemetry::Stage::kFeatureExtract, t2 - t1);
  }
  if (!full) {
    shard.counters.warmup.AddRelease();
    return;
  }
  shard.meta[shard.pending] = {packet.key.digest, packet.flow, packet.index,
                               packet.label, stamp};
  if (++shard.pending == opts_.batch_size) FlushShard(shard);
}

void StreamServer::FlushShard(Shard& shard) {
  // Every flush, empty ones included (Flush, Stop, swap), publishes the
  // table's hit/miss counts, so they are exact on a flushed server.
  shard.PublishTableCounts();
  const std::size_t n = shard.pending;
  if (n == 0) return;
  const std::size_t out_dim = shard.out_dim;
  telemetry::ShardCounters& counters = shard.counters;
  // The flush is timed whole (Infer + argmax + emit) whenever sampling is
  // enabled — it is already batch-amortized, so per-flush (not 1-in-N)
  // costs two clock reads per `batch_size` packets.
  const bool timed = tele_.sample_every() != 0;
  const std::uint64_t flush_t0 = timed ? tele_.NowNs() : 0;
  // Bounded retry ladder around the engine: a transient Infer failure
  // (fault site kInferenceFault, or a genuine blip) is retried with a
  // linear backoff; once the budget is exhausted the batch is shed and
  // counted (ShedStats::inference) — the shard keeps serving either way.
  for (std::size_t attempt = 0;; ++attempt) {
    try {
      if (FaultFires(FaultSite::kInferenceFault)) {
        throw FaultInjectedError(FaultSite::kInferenceFault, "Infer");
      }
      shard.engine->Infer(
          std::span<const float>(shard.features.data(), n * dim_), n,
          std::span<float>(shard.logits.data(), n * out_dim));
      break;
    } catch (const std::exception&) {
      counters.inference_faults.Add();
      if (attempt >= opts_.inference_retries) {
        counters.batches_dropped.Add();
        counters.shed_inference.AddRelease(n);
        shard.pending = 0;
        shard.tele.ring.Record(telemetry::TraceEventKind::kShed, shard.index,
                               tele_.NowNs(), 0, n, /*reason=*/2);
        return;
      }
      if (opts_.inference_retry_backoff_us != 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(
            (attempt + 1) * opts_.inference_retry_backoff_us));
      }
    }
  }
  // One clock read covers every sampled packet in the batch: their
  // end-to-end spans all close at this flush.
  const std::uint64_t emit_ns = timed ? tele_.NowNs() : 0;
  const auto emit32 = static_cast<std::uint32_t>(emit_ns);
  for (std::size_t i = 0; i < n; ++i) {
    const float* row = shard.logits.data() + i * out_dim;
    std::size_t best = 0;
    for (std::size_t d = 1; d < out_dim; ++d) {
      if (row[d] > row[best]) best = d;
    }
    StreamDecision decision;
    decision.flow_digest = shard.meta[i].digest;
    decision.flow = shard.meta[i].flow;
    decision.index = shard.meta[i].index;
    decision.label = shard.meta[i].label;
    decision.predicted = static_cast<std::int32_t>(best);
    decision.score = row[best];
    decision.version = shard.serving->version;
    const std::uint32_t start = shard.meta[i].start;
    if (start != 0) {
      // u32 wraparound subtraction: correct for spans < ~4.29s.
      const std::uint32_t lat = emit32 - start;
      decision.latency_ns = lat;
      shard.tele.stages.Record(telemetry::Stage::kEndToEnd, lat);
      shard.tele.ring.Record(telemetry::TraceEventKind::kPacketSpan,
                             shard.index, emit_ns - lat, lat,
                             decision.flow_digest, decision.version);
    }
    shard.decisions.push_back(decision);
  }
  counters.batches.Add();
  counters.decisions.AddRelease(n);
  shard.pending = 0;
  if (timed) {
    shard.tele.stages.Record(telemetry::Stage::kInferFlush,
                             tele_.NowNs() - flush_t0);
  }
}

void StreamServer::Flush() {
  if (running_) {
    throw std::logic_error("StreamServer::Flush: workers are running");
  }
  for (auto& shard : shards_) FlushShard(*shard);
}

void StreamServer::Start() {
  if (!opts_.multithreaded) {
    throw std::logic_error("StreamServer::Start: single-threaded server");
  }
  if (running_) return;
  closed_.store(false, std::memory_order_release);
  running_ = true;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard* s = shards_[i].get();
    const int cpu = pin_plan_.worker_cpu[i];
    s->worker = std::thread([this, s, cpu] { WorkerLoop(*s, cpu); });
  }
  if (opts_.watchdog_interval_us != 0) {
    watchdog_stop_.store(false, std::memory_order_release);
    watchdog_ = std::thread([this] { WatchdogLoop(); });
  }
}

void StreamServer::Stop() {
  if (!running_) return;
  closed_.store(true, std::memory_order_release);
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
  if (watchdog_.joinable()) {
    watchdog_stop_.store(true, std::memory_order_release);
    watchdog_.join();
  }
  // Every worker drained its ring and exited: whatever the watchdog's last
  // sample said, a quiesced server is not stalled. stall_events stays — a
  // recovered stall remains part of the run's history.
  for (auto& shard : shards_) shard->counters.stalled.Set(0);
  running_ = false;
}

void StreamServer::WatchdogLoop() {
  const auto interval = std::chrono::microseconds(opts_.watchdog_interval_us);
  std::vector<std::uint64_t> last_beat(shards_.size(), 0);
  std::vector<std::size_t> stagnant(shards_.size(), 0);
  while (!watchdog_stop_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(interval);
    tele_.watchdog_checks.Add();
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      Shard& s = *shards_[i];
      telemetry::ShardCounters& c = s.counters;
      const std::uint64_t beat = c.heartbeat.value();
      const bool has_work = s.queue && s.queue->SizeApprox() != 0;
      if (beat == last_beat[i] && has_work) {
        // Worker hasn't ticked since the last sample while its ring
        // holds work: count toward a stall verdict.
        if (++stagnant[i] >= opts_.watchdog_stall_intervals &&
            c.stalled.value() == 0) {
          c.stalled.Set(1);
          c.stall_events.Add();
          tele_.control_ring().Record(telemetry::TraceEventKind::kStall,
                                      s.index, tele_.NowNs(), 0, beat,
                                      s.queue->SizeApprox());
        }
      } else {
        // Progress (or an empty ring): self-clear.
        stagnant[i] = 0;
        if (c.stalled.value() != 0) {
          c.stalled.Set(0);
          tele_.control_ring().Record(telemetry::TraceEventKind::kStallClear,
                                      s.index, tele_.NowNs(), 0, beat, 0);
        }
      }
      last_beat[i] = beat;
    }
  }
}

telemetry::TelemetrySnapshot StreamServer::TelemetrySnapshot() const {
  telemetry::TelemetrySnapshot snap = tele_.Snapshot();
  snap.running = running_.load(std::memory_order_acquire);
  snap.active_version = published_version_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const auto& queue = shards_[i]->queue;
    snap.shards[i].ring_depth = queue ? queue->SizeApprox() : 0;
  }
  return snap;
}

std::vector<telemetry::TraceEvent> StreamServer::DumpTrace() const {
  return tele_.DumpTrace();
}

void StreamServer::WriteTrace(std::ostream& os) const {
  telemetry::WriteTraceJson(DumpTrace(), os);
}

void StreamServer::WorkerLoop(Shard& shard, int cpu) {
  // Pin first, then build the shard's tables: the first write to each page
  // happens on this (now placed) thread, so the kernel's first-touch
  // policy backs the table with memory local to the pinned core's node.
  PinThisThread(cpu);
  shard.EnsureTables();
  const auto handle = [this, &shard](ShardItem& item) {
    if (item.swap) {
      // Worker-side applies are fault-free by contract: SwapModel probed
      // the build on the producer thread before enqueueing, and a worker
      // cannot roll back its siblings.
      ApplySwap(shard, std::move(item.swap), /*inject_faults=*/false);
    } else {
      item.packet.packet = &item.payload;  // rebind after the ring move
      Process(shard, item.packet, item.packet.tele_stamp);
    }
  };
  // Burst drain: one head publish per burst, and a prefetch pass over the
  // burst's flow keys before any per-packet work — by the time packet i is
  // processed, its flow entry is (likely) already in flight to this core's
  // cache.
  std::vector<ShardItem> burst(opts_.burst);
  const bool sampling = tele_.sample_every() != 0;
  // Resume from the published mark, so a Stop/Start cycle never lowers it.
  std::size_t hwm = shard.counters.ring_depth_hwm.value();
  const auto drain = [&](std::size_t n) {
    // Ring-depth high watermark: the burst in hand plus what is still
    // queued behind it. One relaxed store only when the mark moves, so
    // the common case is a compare against a local.
    const std::size_t depth = n + shard.queue->SizeApprox();
    if (depth > hwm) {
      hwm = depth;
      shard.counters.ring_depth_hwm.Set(depth);
    }
    if (sampling) {
      // Ring dwell closes here for every sampled packet in the burst —
      // one clock read per burst, u32 wrap-safe subtraction per packet.
      const auto pop32 = static_cast<std::uint32_t>(tele_.NowNs());
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t stamp = burst[i].packet.tele_stamp;
        if (stamp != 0 && !burst[i].swap) {
          shard.tele.stages.Record(telemetry::Stage::kRingDwell,
                                   pop32 - stamp);
        }
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (!burst[i].swap) shard.PrefetchFlow(burst[i].packet.key);
    }
    for (std::size_t i = 0; i < n; ++i) handle(burst[i]);
    // Worker fault sites, after a burst so backpressure is real: kSlow is
    // a hiccup shorter than the watchdog window; kStuck freezes the
    // heartbeat long enough for the watchdog to flag (and then clear)
    // a stall.
    if (FaultFires(FaultSite::kWorkerSlow)) {
      std::this_thread::sleep_for(std::chrono::microseconds(
          FaultInjector::Instance().Param(FaultSite::kWorkerSlow)));
    }
    if (FaultFires(FaultSite::kWorkerStuck)) {
      std::this_thread::sleep_for(std::chrono::microseconds(
          FaultInjector::Instance().Param(FaultSite::kWorkerStuck)));
    }
  };
  for (;;) {
    // The heartbeat ticks every loop iteration, idle ones included: a
    // live-but-idle worker keeps beating, so the watchdog's stall signal
    // (stagnant heartbeat + non-empty ring) has no idle false positives.
    shard.counters.heartbeat.Add();
    const std::size_t n = shard.queue->TryPopBurst(std::span<ShardItem>(burst));
    if (n != 0) {
      drain(n);
      continue;
    }
    if (closed_.load(std::memory_order_acquire)) {
      // The producer has stopped; drain what raced in, then exit.
      std::size_t tail;
      while ((tail = shard.queue->TryPopBurst(
                  std::span<ShardItem>(burst))) != 0) {
        drain(tail);
      }
      break;
    }
    std::this_thread::yield();
  }
  FlushShard(shard);
}

std::vector<StreamDecision> StreamServer::Serve(
    std::span<const traffic::TracePacket> trace) {
  // Reserve each shard's decision sink from the trace's observed shard
  // share (an exact routing pre-pass — MixDigest per packet, nothing
  // else), not an even-split estimate: a skewed flow-hash distribution no
  // longer reallocates a hot shard's vector mid-run, and light shards no
  // longer over-reserve.
  std::vector<std::size_t> share(shards_.size(), 0);
  for (const auto& p : trace) {
    ++share[ShardIndexOf(p.key.digest, shards_.size())];
  }
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    shards_[i]->decisions.reserve(shards_[i]->decisions.size() + share[i]);
  }
  SpanPacketSource source(trace);
  return Serve(source);
}

namespace {

/// Adapts a plain PacketSource to the ingest loop: one partition, pulled by
/// the calling thread, which owns every shard (fanout 1).
class SinglePartitionSource final : public PartitionedPacketSource {
 public:
  explicit SinglePartitionSource(PacketSource& inner) : inner_(inner) {}
  std::size_t partitions() const override { return 1; }
  bool Next(std::size_t, traffic::TracePacket& out) override {
    return inner_.Next(out);
  }

 private:
  PacketSource& inner_;
};

}  // namespace

std::vector<StreamDecision> StreamServer::Serve(PacketSource& source) {
  if (opts_.multithreaded) {
    // The calling thread is the single ingest thread; it stages per-shard
    // bursts exactly like the multi-ingest path with fanout 1. Ingest
    // pinning is scoped — the caller's affinity mask is restored on exit.
    SinglePartitionSource adapter(source);
    Start();
    {
      ScopedThreadPin pin(pin_plan_.ingest_cpu[0]);
      IngestLoop(adapter, 0, 1);
    }
    Stop();
  } else {
    traffic::TracePacket packet;
    while (source.Next(packet)) Push(packet);
    Flush();
  }
  return TakeDecisions();
}

std::vector<StreamDecision> StreamServer::Serve(
    PartitionedPacketSource& source) {
  const std::size_t parts = source.partitions();
  if (parts == 0) {
    throw std::invalid_argument("StreamServer::Serve: zero partitions");
  }
  if (!opts_.multithreaded) {
    // Deterministic reference mode: drain the partitions sequentially. A
    // flow lives in exactly one partition, so per-flow decision streams
    // match the multi-ingest run exactly (with shedding off).
    traffic::TracePacket packet;
    for (std::size_t p = 0; p < parts; ++p) {
      while (source.Next(p, packet)) Push(packet);
    }
    Flush();
    return TakeDecisions();
  }
  if (parts != opts_.num_ingest) {
    throw std::invalid_argument(
        "StreamServer::Serve: source partitions (" + std::to_string(parts) +
        ") != num_ingest (" + std::to_string(opts_.num_ingest) + ")");
  }
  Start();
  std::vector<std::thread> ingest;
  ingest.reserve(parts - 1);
  for (std::size_t t = 1; t < parts; ++t) {
    const int cpu = pin_plan_.ingest_cpu[t];
    ingest.emplace_back([this, &source, t, parts, cpu] {
      PinThisThread(cpu);
      IngestLoop(source, t, parts);
    });
  }
  {
    // Partition 0 rides the calling thread; pin it only for the loop.
    ScopedThreadPin pin(pin_plan_.ingest_cpu[0]);
    IngestLoop(source, 0, parts);
  }
  for (auto& th : ingest) th.join();
  Stop();
  return TakeDecisions();
}

std::vector<StreamDecision> StreamServer::TakeDecisions() {
  if (running_) {
    throw std::logic_error(
        "StreamServer::TakeDecisions: workers are running (Stop first)");
  }
  std::size_t total = 0;
  std::size_t holders = 0;
  Shard* holder = nullptr;
  for (auto& shard : shards_) {
    total += shard->decisions.size();
    if (!shard->decisions.empty()) {
      ++holders;
      holder = shard.get();
    }
  }
  // One shard holds every decision (always so with one shard): hand its
  // vector over rather than copy it, so no second copy outlives the call.
  if (holders == 0) return {};
  if (holders == 1) return std::exchange(holder->decisions, {});
  std::vector<StreamDecision> out;
  out.reserve(total);
  for (auto& shard : shards_) {
    out.insert(out.end(), shard->decisions.begin(), shard->decisions.end());
    shard->decisions.clear();
  }
  return out;
}

StreamServerStats StreamServer::Stats() const {
  if (running_) {
    throw std::logic_error(
        "StreamServer::Stats: workers are running (Stop first)");
  }
  StreamServerStats stats;
  static_cast<telemetry::TelemetrySnapshot&>(stats) = TelemetrySnapshot();
  stats.shed = {stats.shed_ring_full, stats.shed_misrouted,
                stats.shed_inference};
  stats.swap_wall_ms = static_cast<double>(stats.swap_wall_ns) / 1e6;
  stats.stateful_bits_per_flow =
      OnlineFlowStateSpec(opts_.feature).BitsPerFlow();
  for (const auto& shard : shards_) {
    stats.table += shard->TableStats();
    stats.engine += shard->engine_carry;
    stats.engine += shard->engine->stats();
    stats.flow_table_sram_bits +=
        shard->TableSramBits(stats.stateful_bits_per_flow);
  }
  stats.delta = delta_;
  return stats;
}

void StreamServer::ResetStats() {
  if (running_) {
    throw std::logic_error(
        "StreamServer::ResetStats: workers are running (Stop first)");
  }
  tele_.Reset();
  for (auto& shard : shards_) {
    shard->ResetTableStats();
    shard->engine_carry = {};
    shard->engine->ResetStats();
  }
  delta_ = {};
}

}  // namespace pegasus::runtime
