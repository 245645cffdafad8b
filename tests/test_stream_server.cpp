// The streaming runtime's acceptance criteria (ISSUE 2):
//
//  * Parity — replaying a merged trace through a single-shard StreamServer
//    produces bit-identical per-packet class decisions to the offline
//    Extract*Features + eval::PredictClassesLowered path, for both the
//    stat and the seq feature family.
//  * Multi-threaded mode produces the same per-flow decision multiset as
//    the deterministic single-threaded mode.
//  * The merged trace is time-ordered, flow-order-preserving and
//    deterministic.
#include "runtime/stream_server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <utility>

#include "compiler/compiler.hpp"
#include "control/planner.hpp"
#include "core/operators.hpp"
#include "eval/experiment.hpp"
#include "runtime/fault.hpp"
#include "traffic/stream.hpp"
#include "traffic/synthetic.hpp"

namespace core = pegasus::core;
namespace rt = pegasus::runtime;
namespace tr = pegasus::traffic;
namespace ev = pegasus::eval;

namespace {

/// A small multi-class model over one 16-dim feature family: Partition into
/// 2-dim segments, per-segment fuzzy linear Maps, SumReduce, ReLU head.
/// Trained (fuzzy tables calibrated) on the actual extracted features.
rt::LoweredModel Build16DimModel(std::span<const float> train_x,
                                 std::size_t n, std::uint64_t seed) {
  core::ProgramBuilder b(16);
  // 8 segments of 2 dims (Partition(vec, dim=2, stride=2) over 16 inputs).
  auto segs = b.Partition(b.input(), 2, 2);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> w(-0.05f, 0.05f);
  std::vector<core::ValueId> maps;
  for (auto seg : segs) {
    std::vector<float> weights(2 * 3);
    for (float& v : weights) v = w(rng);
    maps.push_back(
        b.Map(seg, core::MakeLinear(std::move(weights), 2, 3, {}), 32));
  }
  auto sum = b.SumReduce(std::span<const core::ValueId>(maps));
  auto out = b.Map(sum, core::MakeReLU(3), 64);
  return pegasus::compiler::CompileToSwitch(b.Finish(out), train_x, n)
      .lowered;
}

/// A non-owning handle to a model the test keeps alive past the server.
std::shared_ptr<const rt::LoweredModel> Alias(const rt::LoweredModel& m) {
  return std::shared_ptr<const rt::LoweredModel>(std::shared_ptr<void>{},
                                                 &m);
}

tr::ExtractOptions EveryPacket() {
  tr::ExtractOptions opts;
  opts.max_samples_per_flow = std::numeric_limits<std::size_t>::max();
  return opts;
}

/// Offline reference: per-(flow, packet index) predicted class. With an
/// uncapped walk, a flow's k-th sample is the window ending at packet
/// kWindow-1+k.
std::map<std::pair<std::uint32_t, std::uint32_t>, std::int32_t>
OfflineByPacket(const tr::SampleSet& set,
                const std::vector<std::int32_t>& predictions) {
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::int32_t> out;
  std::map<std::size_t, std::uint32_t> emitted;  // per-flow sample counter
  for (std::size_t i = 0; i < set.size(); ++i) {
    const auto flow = static_cast<std::uint32_t>(set.flow_index[i]);
    const std::uint32_t k = emitted[flow]++;
    const auto index = static_cast<std::uint32_t>(tr::kWindow) - 1 + k;
    out[{flow, index}] = predictions[i];
  }
  return out;
}

std::map<std::pair<std::uint32_t, std::uint32_t>, std::int32_t> StreamByPacket(
    const std::vector<rt::StreamDecision>& decisions) {
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::int32_t> out;
  for (const auto& d : decisions) out[{d.flow, d.index}] = d.predicted;
  return out;
}

void CheckParity(rt::FeatureKind kind, std::uint64_t model_seed) {
  const auto ds = tr::Generate(tr::PeerRushSpec(8, 2024));
  const auto offline = kind == rt::FeatureKind::kStat
                           ? tr::ExtractStatFeatures(ds.flows, EveryPacket())
                           : tr::ExtractSeqFeatures(ds.flows, EveryPacket());
  ASSERT_GT(offline.size(), 0u);

  const auto lowered =
      Build16DimModel(offline.x, offline.size(), model_seed);
  rt::InferenceEngine engine(lowered, 64);
  const auto offline_pred = ev::PredictClassesLowered(engine, offline);
  const auto want = OfflineByPacket(offline, offline_pred);

  const auto trace = tr::MergeTrace(ds.flows);
  rt::StreamServerOptions opts;
  opts.num_shards = 1;
  opts.flows_per_shard = 1 << 10;
  opts.max_probe = 16;
  opts.batch_size = 32;  // exercises batch flush boundaries
  opts.feature = kind;
  rt::StreamServer server(Alias(lowered), opts);
  const auto decisions = server.Serve(trace);

  const auto stats = server.Stats();
  ASSERT_EQ(stats.table.evictions, 0u) << "capacity must avoid evictions";
  EXPECT_EQ(stats.packets, trace.size());
  EXPECT_EQ(stats.decisions, decisions.size());

  const auto got = StreamByPacket(decisions);
  ASSERT_EQ(got.size(), want.size());
  for (const auto& [at, predicted] : want) {
    const auto it = got.find(at);
    ASSERT_NE(it, got.end()) << "flow " << at.first << " pkt " << at.second;
    EXPECT_EQ(it->second, predicted)
        << "flow " << at.first << " pkt " << at.second;
  }
}

}  // namespace

TEST(StreamServer, StatParityWithOfflinePath) {
  CheckParity(rt::FeatureKind::kStat, 1);
}

TEST(StreamServer, SeqParityWithOfflinePath) {
  CheckParity(rt::FeatureKind::kSeq, 2);
}

TEST(StreamServer, MultiThreadedMatchesSingleThreadedDecisions) {
  const auto ds = tr::Generate(tr::PeerRushSpec(10, 77));
  const auto offline = tr::ExtractSeqFeatures(ds.flows, EveryPacket());
  const auto lowered = Build16DimModel(offline.x, offline.size(), 3);
  const auto trace = tr::MergeTrace(ds.flows);

  auto serve = [&](bool mt) {
    rt::StreamServerOptions opts;
    opts.num_shards = 4;
    opts.flows_per_shard = 1 << 10;
    opts.feature = rt::FeatureKind::kSeq;
    opts.multithreaded = mt;
    rt::StreamServer server(Alias(lowered), opts);
    auto decisions = server.Serve(trace);
    // Order-normalize: a flow lives on exactly one shard, so the per-flow
    // sequences must agree; only cross-shard interleaving may differ.
    std::sort(decisions.begin(), decisions.end(),
              [](const rt::StreamDecision& a, const rt::StreamDecision& b) {
                return std::tie(a.flow, a.index) < std::tie(b.flow, b.index);
              });
    return decisions;
  };

  const auto st = serve(false);
  const auto mt = serve(true);
  ASSERT_EQ(st.size(), mt.size());
  for (std::size_t i = 0; i < st.size(); ++i) {
    EXPECT_EQ(st[i].flow, mt[i].flow);
    EXPECT_EQ(st[i].index, mt[i].index);
    EXPECT_EQ(st[i].predicted, mt[i].predicted);
    EXPECT_EQ(st[i].score, mt[i].score);
    EXPECT_EQ(st[i].label, mt[i].label);
  }
}

TEST(StreamServer, RejectsMismatchedFeatureFamily) {
  const auto ds = tr::Generate(tr::PeerRushSpec(6, 5));
  const auto offline = tr::ExtractSeqFeatures(ds.flows);
  const auto lowered = Build16DimModel(offline.x, offline.size(), 4);
  rt::StreamServerOptions opts;
  opts.feature = rt::FeatureKind::kRaw;  // 480-dim family vs 16-dim model
  EXPECT_THROW(rt::StreamServer(Alias(lowered), opts), std::invalid_argument);
  opts.feature = rt::FeatureKind::kSeq;
  opts.num_shards = 0;
  EXPECT_THROW(rt::StreamServer(Alias(lowered), opts), std::invalid_argument);
}

TEST(StreamServer, ShardStateIsInaccessibleWhileWorkersRun) {
  const auto ds = tr::Generate(tr::PeerRushSpec(4, 15));
  const auto offline = tr::ExtractSeqFeatures(ds.flows);
  const auto lowered = Build16DimModel(offline.x, offline.size(), 9);
  rt::StreamServerOptions opts;
  opts.feature = rt::FeatureKind::kSeq;
  opts.multithreaded = true;
  rt::StreamServer server(Alias(lowered), opts);
  server.Start();
  // The workers own the shards until Stop(); reads would race them.
  EXPECT_THROW(server.Stats(), std::logic_error);
  EXPECT_THROW(server.TakeDecisions(), std::logic_error);
  EXPECT_THROW(server.Flush(), std::logic_error);
  server.Stop();
  EXPECT_EQ(server.Stats().packets, 0u);
  // Single-threaded servers reject Start().
  rt::StreamServerOptions st_opts;
  st_opts.feature = rt::FeatureKind::kSeq;
  rt::StreamServer st_server(Alias(lowered), st_opts);
  EXPECT_THROW(st_server.Start(), std::logic_error);
}

TEST(StreamServer, TakeDecisionsReturnsEachRoundOnce) {
  // One shard holds every decision, so TakeDecisions hands its sink over
  // instead of copying it. Two Push/Flush/TakeDecisions rounds must each
  // return exactly their own round's decisions: the first equals a fresh
  // server serving the first half, and together they equal one run over
  // the whole trace, nothing repeated and nothing lost.
  const auto ds = tr::Generate(tr::PeerRushSpec(6, 31));
  const auto offline = tr::ExtractSeqFeatures(ds.flows);
  const auto lowered = Build16DimModel(offline.x, offline.size(), 5);
  const auto trace = tr::MergeTrace(ds.flows);
  const std::size_t half = trace.size() / 2;
  rt::StreamServerOptions opts;
  opts.num_shards = 1;
  opts.feature = rt::FeatureKind::kSeq;

  rt::StreamServer server(Alias(lowered), opts);
  std::vector<rt::StreamDecision> got;
  std::size_t first_round = 0;
  for (const auto& [begin, end] : {std::pair{std::size_t{0}, half},
                                   std::pair{half, trace.size()}}) {
    for (std::size_t i = begin; i < end; ++i) server.Push(trace[i]);
    server.Flush();
    const auto round = server.TakeDecisions();
    ASSERT_FALSE(round.empty());
    if (begin == 0) first_round = round.size();
    got.insert(got.end(), round.begin(), round.end());
  }
  EXPECT_TRUE(server.TakeDecisions().empty());
  EXPECT_EQ(server.Stats().decisions, got.size());

  rt::StreamServer first_half(Alias(lowered), opts);
  EXPECT_EQ(first_half.Serve(std::span(trace).first(half)).size(),
            first_round);
  rt::StreamServer whole(Alias(lowered), opts);
  const auto want = whole.Serve(trace);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].flow, want[i].flow) << i;
    EXPECT_EQ(got[i].index, want[i].index) << i;
    EXPECT_EQ(got[i].predicted, want[i].predicted) << i;
    EXPECT_EQ(got[i].score, want[i].score) << i;
  }
}

TEST(StreamServer, EvictionPressureRestartsFlowsButKeepsServing) {
  const auto ds = tr::Generate(tr::PeerRushSpec(20, 9));
  const auto offline = tr::ExtractSeqFeatures(ds.flows);
  const auto lowered = Build16DimModel(offline.x, offline.size(), 6);
  const auto trace = tr::MergeTrace(ds.flows);

  rt::StreamServerOptions opts;
  opts.num_shards = 1;
  opts.flows_per_shard = 8;  // far fewer slots than the 60 concurrent flows
  opts.max_probe = 4;
  opts.feature = rt::FeatureKind::kSeq;
  rt::StreamServer server(Alias(lowered), opts);
  const auto decisions = server.Serve(trace);

  const auto stats = server.Stats();
  EXPECT_GT(stats.table.evictions, 0u);
  EXPECT_EQ(stats.packets, trace.size());
  // Evicted flows restart their 8-packet warm-up, so strictly fewer
  // decisions than the no-eviction packet budget — but the stream keeps
  // flowing and every packet is accounted for.
  EXPECT_EQ(stats.decisions + stats.warmup, stats.packets);
  EXPECT_GT(decisions.size(), 0u);
}

// ---------------------------------------------------------------------------
// Model lifecycle: hitless hot swap (ISSUE 4 acceptance criteria).
// ---------------------------------------------------------------------------

namespace {

/// Serves `trace`, swapping v1 -> v2 after pushing `swap_at` packets, and
/// returns the decisions sorted per flow.
std::vector<rt::StreamDecision> ServeWithSwap(
    const rt::LoweredModel& v1, const rt::LoweredModel& v2,
    std::span<const tr::TracePacket> trace, std::size_t swap_at,
    std::size_t shards, bool mt) {
  rt::StreamServerOptions opts;
  opts.num_shards = shards;
  opts.flows_per_shard = 1 << 10;
  opts.batch_size = 32;
  opts.feature = rt::FeatureKind::kSeq;
  opts.multithreaded = mt;
  rt::StreamServer server(Alias(v1), opts);
  auto run = ev::ServeTraceWithSwap(server, trace, swap_at, Alias(v2), 2);
  EXPECT_EQ(run.stats.swaps, shards) << "one swap application per shard";
  EXPECT_EQ(run.stats.active_version, 2u);
  // Engines retired by the swap fold their counters into the shard carry:
  // every decision of the whole run stays accounted.
  EXPECT_EQ(run.stats.engine.packets, run.stats.decisions);
  std::sort(run.decisions.begin(), run.decisions.end(),
            [](const rt::StreamDecision& a, const rt::StreamDecision& b) {
              return std::tie(a.flow, a.index) < std::tie(b.flow, b.index);
            });
  return run.decisions;
}

}  // namespace

TEST(StreamServer, HotSwapIsHitlessAndDeterministic) {
  const auto ds = tr::Generate(tr::PeerRushSpec(8, 41));
  const auto offline = tr::ExtractSeqFeatures(ds.flows, EveryPacket());
  const auto v1 = Build16DimModel(offline.x, offline.size(), 21);
  const auto v2 = Build16DimModel(offline.x, offline.size(), 22);
  const auto trace = tr::MergeTrace(ds.flows);
  const std::size_t swap_at = trace.size() / 2;

  // Reference runs: the whole trace under each version alone.
  auto serve_pure = [&](const rt::LoweredModel& m) {
    rt::StreamServerOptions opts;
    opts.num_shards = 1;
    opts.flows_per_shard = 1 << 10;
    opts.batch_size = 32;
    opts.feature = rt::FeatureKind::kSeq;
    rt::StreamServer server(Alias(m), opts);
    return StreamByPacket(server.Serve(trace));
  };
  const auto pure_v1 = serve_pure(v1);
  const auto pure_v2 = serve_pure(v2);

  const auto swapped = ServeWithSwap(v1, v2, trace, swap_at, 1, false);

  // Zero lost decisions: exactly the no-swap decision count, every packet
  // position present, per-flow order intact.
  ASSERT_EQ(swapped.size(), pure_v1.size());
  std::map<std::uint32_t, std::uint32_t> last_index;
  for (const auto& d : swapped) {
    const auto it = last_index.find(d.flow);
    if (it != last_index.end()) {
      EXPECT_LT(it->second, d.index) << "reordered decision in flow " << d.flow;
    }
    last_index[d.flow] = d.index;
  }

  // The swap point splits the decision stream exactly: pre-swap decisions
  // equal the pure-v1 run, post-swap the pure-v2 run — for every flow,
  // which is only possible if per-flow state survived the swap (a restarted
  // window would drop the first kWindow-1 post-swap decisions).
  std::size_t from_v1 = 0, from_v2 = 0;
  for (const auto& d : swapped) {
    ASSERT_TRUE(d.version == 1 || d.version == 2);
    const auto& want = d.version == 1 ? pure_v1 : pure_v2;
    const auto it = want.find({d.flow, d.index});
    ASSERT_NE(it, want.end());
    EXPECT_EQ(it->second, d.predicted)
        << "flow " << d.flow << " pkt " << d.index << " v" << d.version;
    (d.version == 1 ? from_v1 : from_v2) += 1;
  }
  EXPECT_GT(from_v1, 0u);
  EXPECT_GT(from_v2, 0u);

  // MT == ST across the swap point: identical per-flow decision streams,
  // including each decision's version tag.
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    const auto st = ServeWithSwap(v1, v2, trace, swap_at, shards, false);
    const auto mt = ServeWithSwap(v1, v2, trace, swap_at, shards, true);
    ASSERT_EQ(st.size(), mt.size());
    for (std::size_t i = 0; i < st.size(); ++i) {
      EXPECT_EQ(st[i].flow, mt[i].flow);
      EXPECT_EQ(st[i].index, mt[i].index);
      EXPECT_EQ(st[i].predicted, mt[i].predicted);
      EXPECT_EQ(st[i].score, mt[i].score);
      EXPECT_EQ(st[i].version, mt[i].version);
    }
    // The ST swap stream must also match the 1-shard reference exactly
    // (sharding must not move the swap point within any flow).
    ASSERT_EQ(st.size(), swapped.size());
    for (std::size_t i = 0; i < st.size(); ++i) {
      EXPECT_EQ(st[i].version, swapped[i].version);
      EXPECT_EQ(st[i].predicted, swapped[i].predicted);
    }
  }
}

TEST(StreamServer, SwapRejectsMismatchedModelsAndStaleVersions) {
  const auto ds = tr::Generate(tr::PeerRushSpec(4, 13));
  const auto offline = tr::ExtractSeqFeatures(ds.flows);
  const auto v1 = Build16DimModel(offline.x, offline.size(), 31);
  const auto v2 = Build16DimModel(offline.x, offline.size(), 32);

  rt::StreamServerOptions opts;
  opts.feature = rt::FeatureKind::kSeq;
  rt::StreamServer server(Alias(v1), opts, 5);
  EXPECT_EQ(server.active_version(), 5u);
  EXPECT_THROW(server.SwapModel(nullptr, 6), std::invalid_argument);
  EXPECT_THROW(server.SwapModel(Alias(v2), 5), std::invalid_argument);
  EXPECT_THROW(server.SwapModel(Alias(v2), 4), std::invalid_argument);
  server.SwapModel(Alias(v2), 6);
  EXPECT_EQ(server.active_version(), 6u);
  EXPECT_EQ(server.Stats().swaps, 1u);
}

TEST(StreamServer, ResetStatsReportsPerPhaseCounters) {
  const auto ds = tr::Generate(tr::PeerRushSpec(6, 17));
  const auto offline = tr::ExtractSeqFeatures(ds.flows, EveryPacket());
  const auto lowered = Build16DimModel(offline.x, offline.size(), 23);
  const auto trace = tr::MergeTrace(ds.flows);
  const std::size_t half = trace.size() / 2;

  rt::StreamServerOptions opts;
  opts.num_shards = 2;
  opts.flows_per_shard = 1 << 10;
  opts.feature = rt::FeatureKind::kSeq;
  rt::StreamServer server(Alias(lowered), opts);

  for (std::size_t i = 0; i < half; ++i) server.Push(trace[i]);
  server.Flush();
  const auto phase1 = server.Stats();
  EXPECT_EQ(phase1.packets, half);
  EXPECT_GT(phase1.engine.packets, 0u);
  EXPECT_EQ(phase1.engine.packets, phase1.decisions);
  EXPECT_GT(phase1.engine.table_hits, 0u);
  EXPECT_GT(phase1.table.inserts, 0u);

  server.ResetStats();
  const auto cleared = server.Stats();
  EXPECT_EQ(cleared.packets, 0u);
  EXPECT_EQ(cleared.decisions, 0u);
  EXPECT_EQ(cleared.batches, 0u);
  EXPECT_EQ(cleared.engine.packets, 0u);
  EXPECT_EQ(cleared.engine.table_hits, 0u);
  EXPECT_EQ(cleared.table.hits, 0u);
  EXPECT_EQ(cleared.table.inserts, 0u);
  EXPECT_EQ(cleared.swaps, 0u);
  // Resident flow state is NOT reset — only the counters are.
  EXPECT_GT(cleared.table.resident, 0u);
  EXPECT_EQ(cleared.table.resident, phase1.table.resident);

  // Phase 2 counts only its own work; resident windows keep serving (the
  // phase-2 warm-up count stays below a cold start's).
  for (std::size_t i = half; i < trace.size(); ++i) server.Push(trace[i]);
  server.Flush();
  const auto phase2 = server.Stats();
  EXPECT_EQ(phase2.packets, trace.size() - half);
  EXPECT_EQ(phase2.decisions + phase2.warmup, phase2.packets);
}

// ---------------------------------------------------------------------------
// Multi-ingest burst dataplane (ISSUE 6 acceptance criteria).
// ---------------------------------------------------------------------------

namespace {

/// Sorts decisions into the canonical per-flow order used by every
/// equality check (a flow lives on one shard, so (flow, index) is total).
void SortByFlow(std::vector<rt::StreamDecision>& decisions) {
  std::sort(decisions.begin(), decisions.end(),
            [](const rt::StreamDecision& a, const rt::StreamDecision& b) {
              return std::tie(a.flow, a.index) < std::tie(b.flow, b.index);
            });
}

}  // namespace

TEST(StreamServer, PartitionedMultiIngestMatchesSingleThreaded) {
  const auto ds = tr::Generate(tr::PeerRushSpec(10, 77));
  const auto offline = tr::ExtractSeqFeatures(ds.flows, EveryPacket());
  const auto lowered = Build16DimModel(offline.x, offline.size(), 3);
  const auto trace = tr::MergeTrace(ds.flows);

  auto serve = [&](bool mt, std::size_t ingest) {
    rt::StreamServerOptions opts;
    opts.num_shards = 4;
    opts.flows_per_shard = 1 << 10;
    opts.feature = rt::FeatureKind::kSeq;
    opts.multithreaded = mt;
    opts.num_ingest = ingest;
    opts.burst = 16;  // forces many partial-burst flushes on a small trace
    rt::StreamServer server(Alias(lowered), opts);
    auto run = ev::ServeTracePartitioned(server, trace);
    EXPECT_EQ(run.stats.shed.total(), 0u)
        << "shedding disabled + correct partitioner must shed nothing";
    EXPECT_EQ(run.stats.packets, trace.size());
    SortByFlow(run.decisions);
    return run.decisions;
  };

  // Reference: the deterministic single-threaded push loop.
  rt::StreamServerOptions ref_opts;
  ref_opts.num_shards = 4;
  ref_opts.flows_per_shard = 1 << 10;
  ref_opts.feature = rt::FeatureKind::kSeq;
  rt::StreamServer ref_server(Alias(lowered), ref_opts);
  auto ref = ref_server.Serve(trace);
  SortByFlow(ref);

  // Single-threaded partitioned drain and 1/2-ingest multi-threaded runs
  // must all equal the reference per flow, bit for bit.
  for (auto& got : {serve(false, 1), serve(true, 1), serve(true, 2)}) {
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].flow, ref[i].flow);
      EXPECT_EQ(got[i].index, ref[i].index);
      EXPECT_EQ(got[i].predicted, ref[i].predicted);
      EXPECT_EQ(got[i].score, ref[i].score);
      EXPECT_EQ(got[i].label, ref[i].label);
    }
  }
}

TEST(StreamServer, MultiIngestHotSwapKeepsPerFlowDecisions) {
  // SwapModel before a partitioned run: every ingest thread's packets must
  // be decided by the new version (the swap rides the rings before any
  // packet), and per-flow decisions equal the single-threaded run on the
  // same version — the multi-ingest path composes with the lifecycle API.
  const auto ds = tr::Generate(tr::PeerRushSpec(8, 41));
  const auto offline = tr::ExtractSeqFeatures(ds.flows, EveryPacket());
  const auto v1 = Build16DimModel(offline.x, offline.size(), 21);
  const auto v2 = Build16DimModel(offline.x, offline.size(), 22);
  const auto trace = tr::MergeTrace(ds.flows);

  auto serve = [&](bool mt, std::size_t ingest) {
    rt::StreamServerOptions opts;
    opts.num_shards = 4;
    opts.flows_per_shard = 1 << 10;
    opts.feature = rt::FeatureKind::kSeq;
    opts.multithreaded = mt;
    opts.num_ingest = ingest;
    rt::StreamServer server(Alias(v1), opts, 1);
    server.SwapModel(Alias(v2), 2);
    auto run = ev::ServeTracePartitioned(server, trace);
    EXPECT_EQ(run.stats.active_version, 2u);
    SortByFlow(run.decisions);
    return run.decisions;
  };

  const auto st = serve(false, 1);
  const auto mt = serve(true, 2);
  ASSERT_EQ(st.size(), mt.size());
  for (std::size_t i = 0; i < st.size(); ++i) {
    EXPECT_EQ(st[i].flow, mt[i].flow);
    EXPECT_EQ(st[i].index, mt[i].index);
    EXPECT_EQ(st[i].predicted, mt[i].predicted);
    EXPECT_EQ(st[i].version, 2u);
  }
}

TEST(StreamServer, SheddingIsBoundedAndAccounted) {
  const auto ds = tr::Generate(tr::PeerRushSpec(10, 77));
  const auto offline = tr::ExtractSeqFeatures(ds.flows);
  const auto lowered = Build16DimModel(offline.x, offline.size(), 3);
  const auto trace = tr::MergeTrace(ds.flows);

  rt::StreamServerOptions opts;
  opts.num_shards = 1;
  opts.flows_per_shard = 1 << 10;
  opts.feature = rt::FeatureKind::kSeq;
  opts.multithreaded = true;
  opts.queue_capacity = 4;  // the ring can never hold a full 64-burst...
  opts.burst = 64;
  opts.shed = true;
  // ...and an immediately-exhausted ladder sheds every stall
  opts.escalation = rt::EscalationPolicy::Immediate();
  rt::StreamServer server(Alias(lowered), opts);
  const auto decisions = server.Serve(trace);

  const auto stats = server.Stats();
  // Every offered packet is either served or counted shed — none lost.
  EXPECT_GT(stats.shed.ring_full, 0u);
  EXPECT_EQ(stats.shed.misrouted, 0u);
  EXPECT_EQ(stats.packets + stats.shed.total(), trace.size());
  EXPECT_EQ(stats.decisions + stats.warmup, stats.packets);
  EXPECT_EQ(stats.decisions, decisions.size());
  // Per-shard breakdown sums to the aggregate.
  ASSERT_EQ(stats.shards.size(), 1u);
  EXPECT_EQ(stats.shards[0].shed_ring_full, stats.shed.ring_full);

  // ResetStats clears the shed counters too.
  server.ResetStats();
  EXPECT_EQ(server.Stats().shed.total(), 0u);
}

TEST(StreamServer, ShedAccountingHoldsAcrossMidStreamSwap) {
  // A mid-stream SwapModel under active shedding must not lose or double-
  // count anything: offered == packets + shed, shard by shard and in
  // aggregate, with decisions from both model versions present.
  const auto ds = tr::Generate(tr::PeerRushSpec(10, 91));
  const auto offline = tr::ExtractSeqFeatures(ds.flows);
  const auto v1 = Build16DimModel(offline.x, offline.size(), 41);
  const auto v2 = Build16DimModel(offline.x, offline.size(), 42);
  const auto trace = tr::MergeTrace(ds.flows);

  rt::StreamServerOptions opts;
  opts.num_shards = 4;
  opts.flows_per_shard = 1 << 10;
  opts.feature = rt::FeatureKind::kSeq;
  opts.multithreaded = true;
  // Small enough to force ring_full sheds on both sides of the swap, big
  // enough that flows still clear warmup and decide under both versions.
  opts.queue_capacity = 64;
  opts.burst = 64;
  opts.shed = true;
  opts.escalation = rt::EscalationPolicy::Immediate();
  rt::StreamServer server(Alias(v1), opts);

  std::vector<std::uint64_t> offered(opts.num_shards, 0);
  for (const auto& p : trace) {
    ++offered[rt::StreamServer::ShardIndexOf(p.key.digest, opts.num_shards)];
  }

  auto run =
      ev::ServeTraceWithSwap(server, trace, trace.size() / 2, Alias(v2), 2);
  const auto& stats = run.stats;
  EXPECT_EQ(stats.active_version, 2u);
  EXPECT_GT(stats.shed.ring_full, 0u);

  // Aggregate identities (documented on ShedStats).
  EXPECT_EQ(stats.packets + stats.shed.ring_full + stats.shed.misrouted,
            trace.size());
  EXPECT_EQ(stats.decisions + stats.warmup + stats.shed.inference,
            stats.packets);
  EXPECT_EQ(stats.decisions, run.decisions.size());

  // Per-shard: each shard's offered load is exactly served + shed there,
  // and the per-shard breakdowns sum to the aggregate.
  ASSERT_EQ(stats.shards.size(), opts.num_shards);
  std::uint64_t shed_sum = 0;
  std::uint64_t packet_sum = 0;
  for (std::size_t s = 0; s < opts.num_shards; ++s) {
    const auto& sh = stats.shards[s];
    EXPECT_EQ(sh.packets + sh.shed_ring_full + sh.shed_misrouted, offered[s])
        << "shard " << s;
    shed_sum += sh.shed_ring_full + sh.shed_misrouted + sh.shed_inference;
    packet_sum += sh.packets;
  }
  EXPECT_EQ(shed_sum, stats.shed.total());
  EXPECT_EQ(packet_sum, stats.packets);

  // The swap actually took effect mid-stream: both versions decided.
  bool saw_v1 = false, saw_v2 = false;
  for (const auto& d : run.decisions) {
    saw_v1 |= d.version == 1;
    saw_v2 |= d.version == 2;
  }
  EXPECT_TRUE(saw_v1);
  EXPECT_TRUE(saw_v2);
}

TEST(StreamServer, MisroutedPacketsAreShedNotEnqueued) {
  const auto ds = tr::Generate(tr::PeerRushSpec(8, 19));
  const auto offline = tr::ExtractSeqFeatures(ds.flows);
  const auto lowered = Build16DimModel(offline.x, offline.size(), 5);
  const auto trace = tr::MergeTrace(ds.flows);

  rt::StreamServerOptions opts;
  opts.num_shards = 4;
  opts.flows_per_shard = 1 << 10;
  opts.feature = rt::FeatureKind::kSeq;
  opts.multithreaded = true;
  opts.num_ingest = 2;
  rt::StreamServer server(Alias(lowered), opts);

  // A broken partitioner that claims EVERY packet for partition 0: ingest
  // thread 0 then pulls packets whose shard rings belong to thread 1.
  // Those cannot be enqueued (single-producer invariant) — they must be
  // shed and counted, regardless of the shed knob being off.
  rt::DigestPartitionedSource source(trace, 2,
                                     [](std::uint64_t) { return 0u; });
  std::size_t expect_misrouted = 0;
  for (const auto& p : trace) {
    if (server.IngestPartitionOf(p.key.digest) != 0) ++expect_misrouted;
  }
  ASSERT_GT(expect_misrouted, 0u) << "trace must hit both partitions";

  const auto decisions = server.Serve(source);
  const auto stats = server.Stats();
  EXPECT_EQ(stats.shed.misrouted, expect_misrouted);
  EXPECT_EQ(stats.shed.ring_full, 0u);
  EXPECT_EQ(stats.packets + stats.shed.total(), trace.size());
  EXPECT_EQ(stats.decisions, decisions.size());
}

TEST(StreamServer, RejectsBadPartitionAndBurstConfigs) {
  const auto ds = tr::Generate(tr::PeerRushSpec(4, 13));
  const auto offline = tr::ExtractSeqFeatures(ds.flows);
  const auto lowered = Build16DimModel(offline.x, offline.size(), 31);
  const auto trace = tr::MergeTrace(ds.flows);

  rt::StreamServerOptions opts;
  opts.feature = rt::FeatureKind::kSeq;
  opts.num_ingest = 0;
  EXPECT_THROW(rt::StreamServer(Alias(lowered), opts), std::invalid_argument);
  opts.num_ingest = 1;
  opts.burst = 0;
  EXPECT_THROW(rt::StreamServer(Alias(lowered), opts), std::invalid_argument);

  // MT mode requires the source's partition count to match num_ingest.
  opts.burst = 64;
  opts.multithreaded = true;
  opts.num_ingest = 2;
  opts.num_shards = 4;
  rt::StreamServer server(Alias(lowered), opts);
  rt::DigestPartitionedSource three(
      trace, 3, [](std::uint64_t d) { return std::size_t{d % 3}; });
  EXPECT_THROW(server.Serve(three), std::invalid_argument);

  // DigestPartitionedSource rejects degenerate construction and
  // out-of-range partition functions.
  EXPECT_THROW(
      rt::DigestPartitionedSource(trace, 0, [](std::uint64_t) { return 0u; }),
      std::invalid_argument);
  EXPECT_THROW(rt::DigestPartitionedSource(trace, 2, nullptr),
               std::invalid_argument);
  EXPECT_THROW(
      rt::DigestPartitionedSource(trace, 2,
                                  [](std::uint64_t) { return 7u; }),
      std::out_of_range);
}

TEST(StreamServer, StatsAccountRegisterFootprint) {
  const auto ds = tr::Generate(tr::PeerRushSpec(4, 3));
  const auto offline = tr::ExtractSeqFeatures(ds.flows);
  const auto lowered = Build16DimModel(offline.x, offline.size(), 8);
  rt::StreamServerOptions opts;
  opts.num_shards = 2;
  opts.flows_per_shard = 256;
  opts.feature = rt::FeatureKind::kSeq;
  rt::StreamServer server(Alias(lowered), opts);

  const auto stats = server.Stats();
  const auto spec = rt::OnlineFlowStateSpec(rt::FeatureKind::kSeq);
  EXPECT_EQ(stats.stateful_bits_per_flow, spec.BitsPerFlow());
  EXPECT_EQ(stats.flow_table_sram_bits,
            2 * pegasus::dataplane::FlowTableSramBits(spec.BitsPerFlow(),
                                                      256));
  // The raw family additionally carries the 8x60-byte window.
  EXPECT_GT(rt::OnlineFlowStateSpec(rt::FeatureKind::kRaw).BitsPerFlow(),
            spec.BitsPerFlow());
}

// ---------------------------------------------------------------------------
// Flow churn at eviction pressure + CPU pinning (ISSUE 7 acceptance
// criteria): per-flow decisions stay bit-identical between single- and
// multi-threaded serving — including across a mid-stream model swap — when
// the table is overloaded, evicting continuously, and the dataplane
// threads are pinned.
// ---------------------------------------------------------------------------

namespace {

tr::ChurnTrace SmallChurn(std::size_t packets = 60'000) {
  tr::ChurnSpec spec;
  spec.live_flows = 512;
  spec.packets = packets;
  spec.scan_every = 10'000;
  spec.scan_burst = 256;
  spec.flood_every = 25'000;
  spec.flood_burst = 1'024;
  return tr::MaterializeChurn(spec);
}

std::vector<rt::StreamDecision> SortPerFlow(
    std::vector<rt::StreamDecision> decisions) {
  std::sort(decisions.begin(), decisions.end(),
            [](const rt::StreamDecision& a, const rt::StreamDecision& b) {
              return std::tie(a.flow, a.index) < std::tie(b.flow, b.index);
            });
  return decisions;
}

}  // namespace

TEST(StreamServer, ChurnMtMatchesStUnderEvictionWithPinning) {
  const auto churn = SmallChurn();
  const auto ds = tr::Generate(tr::PeerRushSpec(6, 70));
  const auto offline = tr::ExtractStatFeatures(ds.flows);
  const auto lowered = Build16DimModel(offline.x, offline.size(), 71);

  auto serve = [&](bool mt, rt::CpuPinPolicy pin) {
    rt::StreamServerOptions opts;
    opts.num_shards = 4;
    opts.flows_per_shard = 64;  // far under the 512-flow working set
    opts.max_probe = 4;
    opts.feature = rt::FeatureKind::kStat;
    opts.multithreaded = mt;
    opts.pin_policy = pin;
    rt::StreamServer server(Alias(lowered), opts);
    auto decisions = SortPerFlow(server.Serve(churn.trace));
    const auto stats = server.Stats();
    EXPECT_GT(stats.table.evictions, 1'000u) << "churn must stress eviction";
    EXPECT_EQ(stats.packets, churn.trace.size());
    return decisions;
  };

  const auto st = serve(false, rt::CpuPinPolicy::kNone);
  const auto mt = serve(true, rt::CpuPinPolicy::kCompact);
  ASSERT_EQ(st.size(), mt.size());
  for (std::size_t i = 0; i < st.size(); ++i) {
    ASSERT_EQ(st[i].flow, mt[i].flow) << "decision " << i;
    ASSERT_EQ(st[i].index, mt[i].index) << "decision " << i;
    ASSERT_EQ(st[i].predicted, mt[i].predicted) << "decision " << i;
    ASSERT_EQ(st[i].score, mt[i].score) << "decision " << i;
  }
  // Scatter pinning is just a different placement: same decisions again.
  const auto scattered = serve(true, rt::CpuPinPolicy::kScatter);
  ASSERT_EQ(scattered.size(), st.size());
  for (std::size_t i = 0; i < st.size(); ++i) {
    ASSERT_EQ(scattered[i].predicted, st[i].predicted) << "decision " << i;
  }
}

TEST(StreamServer, ChurnLayoutsAndEvictionPoliciesDecideConsistently) {
  const auto churn = SmallChurn(30'000);
  const auto ds = tr::Generate(tr::PeerRushSpec(6, 72));
  const auto offline = tr::ExtractStatFeatures(ds.flows);
  const auto lowered = Build16DimModel(offline.x, offline.size(), 73);

  auto serve = [&](rt::FlowTableLayout layout, rt::FlowTableEviction ev) {
    rt::StreamServerOptions opts;
    opts.num_shards = 2;
    opts.flows_per_shard = 64;
    opts.max_probe = 4;
    opts.feature = rt::FeatureKind::kStat;
    opts.table_layout = layout;
    opts.table_eviction = ev;
    rt::StreamServer server(Alias(lowered), opts);
    auto decisions = server.Serve(churn.trace);  // ST: deterministic order
    const auto stats = server.Stats();
    EXPECT_GT(stats.table.evictions, 0u);
    return std::pair{std::move(decisions), stats};
  };

  // The layout is a physical choice only: bit-identical decisions AND
  // bit-identical table counters (hits/misses/evictions/probe histogram),
  // for either eviction policy.
  for (const auto ev : {rt::FlowTableEviction::kLru,
                        rt::FlowTableEviction::kSecondChance}) {
    const auto [split, split_stats] = serve(rt::FlowTableLayout::kSplit, ev);
    const auto [inter, inter_stats] =
        serve(rt::FlowTableLayout::kInterleaved, ev);
    ASSERT_EQ(split.size(), inter.size());
    for (std::size_t i = 0; i < split.size(); ++i) {
      ASSERT_EQ(split[i].flow, inter[i].flow) << "decision " << i;
      ASSERT_EQ(split[i].index, inter[i].index) << "decision " << i;
      ASSERT_EQ(split[i].predicted, inter[i].predicted) << "decision " << i;
    }
    EXPECT_EQ(split_stats.table.hits, inter_stats.table.hits);
    EXPECT_EQ(split_stats.table.misses, inter_stats.table.misses);
    EXPECT_EQ(split_stats.table.evictions, inter_stats.table.evictions);
    EXPECT_EQ(split_stats.table.probes, inter_stats.table.probes);
    EXPECT_EQ(split_stats.table.probe_hist, inter_stats.table.probe_hist);
  }
}

TEST(StreamServer, ChurnMtMatchesStAcrossMidStreamSwapWithPinning) {
  const auto churn = SmallChurn(40'000);
  const auto ds = tr::Generate(tr::PeerRushSpec(6, 74));
  const auto offline = tr::ExtractStatFeatures(ds.flows);
  const auto v1 = Build16DimModel(offline.x, offline.size(), 75);
  const auto v2 = Build16DimModel(offline.x, offline.size(), 76);

  auto serve = [&](bool mt) {
    rt::StreamServerOptions opts;
    opts.num_shards = 4;
    opts.flows_per_shard = 64;
    opts.max_probe = 4;
    opts.feature = rt::FeatureKind::kStat;
    opts.multithreaded = mt;
    opts.pin_policy = mt ? rt::CpuPinPolicy::kCompact : rt::CpuPinPolicy::kNone;
    rt::StreamServer server(Alias(v1), opts);
    auto run = ev::ServeTraceWithSwap(
        server, churn.trace, churn.trace.size() / 2, Alias(v2), 2);
    EXPECT_EQ(run.stats.active_version, 2u);
    EXPECT_GT(run.stats.table.evictions, 0u);
    return SortPerFlow(std::move(run.decisions));
  };

  const auto st = serve(false);
  const auto mt = serve(true);
  ASSERT_EQ(st.size(), mt.size());
  for (std::size_t i = 0; i < st.size(); ++i) {
    ASSERT_EQ(st[i].flow, mt[i].flow) << "decision " << i;
    ASSERT_EQ(st[i].index, mt[i].index) << "decision " << i;
    ASSERT_EQ(st[i].predicted, mt[i].predicted) << "decision " << i;
    ASSERT_EQ(st[i].score, mt[i].score) << "decision " << i;
  }
}

TEST(StreamServer, PinningOptionsValidateAtConstruction) {
  const auto ds = tr::Generate(tr::PeerRushSpec(4, 77));
  const auto offline = tr::ExtractStatFeatures(ds.flows);
  const auto lowered = Build16DimModel(offline.x, offline.size(), 78);

  rt::StreamServerOptions opts;
  opts.feature = rt::FeatureKind::kStat;
  opts.pin_policy = rt::CpuPinPolicy::kExplicit;  // empty worker_cpus
  EXPECT_THROW(rt::StreamServer(Alias(lowered), opts), std::invalid_argument);
  opts.worker_cpus = {1 << 20};  // no such CPU
  EXPECT_THROW(rt::StreamServer(Alias(lowered), opts), std::invalid_argument);
  // A valid explicit plan constructs and serves.
  opts.worker_cpus = {0};
  opts.ingest_cpus = {0};
  rt::StreamServer server(Alias(lowered), opts);
  const auto churn = SmallChurn(5'000);
  const auto decisions = server.Serve(churn.trace);
  EXPECT_EQ(decisions.size(), server.Stats().decisions);
}

// ---------------------------------------------------------------------------
// O(delta) hot swap (SwapModelDelta): publishing the planner's entry
// patches against a clone of the serving model must be decision-identical
// to a full SwapModel of the freshly lowered target — single- and
// multi-threaded — and must keep the transactional rollback guarantee.
// ---------------------------------------------------------------------------

namespace ctrl = pegasus::control;
namespace comp = pegasus::compiler;
namespace dp = pegasus::dataplane;

namespace {

struct DeltaFixture {
  comp::VersionedModel v1, v2;
  std::vector<dp::TablePatch> patches;
  std::size_t plan_bytes = 0;
};

/// Two compiles of the same 16-dim program over the same training data,
/// differing only in §4.4 output refinement: identical tree geometry and
/// quantization, moved leaf output words — a pure entry-delta plan. The
/// head map is quadratic so refinement genuinely moves outputs (for a
/// linear map it is a no-op).
DeltaFixture BuildDeltaFixture(std::span<const float> train_x,
                               std::size_t n) {
  auto build = [] {
    core::ProgramBuilder b(16);
    auto segs = b.Partition(b.input(), 2, 2);
    std::mt19937_64 rng(91);
    std::uniform_real_distribution<float> w(-0.05f, 0.05f);
    std::vector<core::ValueId> maps;
    for (auto seg : segs) {
      std::vector<float> weights(2 * 3);
      for (float& v : weights) v = w(rng);
      maps.push_back(
          b.Map(seg, core::MakeLinear(std::move(weights), 2, 3, {}), 32));
    }
    auto sum = b.SumReduce(std::span<const core::ValueId>(maps));
    core::MapFunction quad;
    quad.name = "quad_head";
    quad.in_dim = 3;
    quad.out_dim = 3;
    quad.fn = [](std::span<const float> x) {
      return std::vector<float>{x[0] * x[0] / 16.0f, x[1] * x[1] / 16.0f,
                                x[2] * x[2] / 16.0f};
    };
    return b.Finish(b.Map(sum, std::move(quad), 64));
  };
  core::CompileOptions with;
  core::CompileOptions without;
  without.refine_outputs = false;
  DeltaFixture fx;
  fx.v1 = comp::CompileVersioned(build(), train_x, n, with);
  fx.v2 = comp::CompileVersioned(build(), train_x, n, without);
  const auto plan = ctrl::PlanUpdate(fx.v1, fx.v2);
  EXPECT_FALSE(plan.structure_changed);
  EXPECT_GT(plan.entry_delta, 0u);
  EXPECT_EQ(plan.reseal, 0u);
  fx.patches = ctrl::CollectPatches(plan);
  fx.plan_bytes = plan.total_bytes_to_push;
  return fx;
}

rt::StreamServerOptions DeltaSwapOptions(std::size_t shards, bool mt) {
  rt::StreamServerOptions opts;
  opts.num_shards = shards;
  opts.flows_per_shard = 1 << 10;
  opts.batch_size = 32;
  opts.feature = rt::FeatureKind::kSeq;
  opts.multithreaded = mt;
  return opts;
}

void SortDecisions(std::vector<rt::StreamDecision>& v) {
  std::sort(v.begin(), v.end(),
            [](const rt::StreamDecision& a, const rt::StreamDecision& b) {
              return std::tie(a.flow, a.index) < std::tie(b.flow, b.index);
            });
}

}  // namespace

TEST(StreamServerDelta, DeltaSwapMatchesFullSwapDecisionForDecision) {
  const auto ds = tr::Generate(tr::PeerRushSpec(8, 47));
  const auto offline = tr::ExtractSeqFeatures(ds.flows, EveryPacket());
  const auto fx = BuildDeltaFixture(offline.x, offline.size());
  const auto trace = tr::MergeTrace(ds.flows);
  const std::size_t swap_at = trace.size() / 2;

  // Reference: full SwapModel of the freshly lowered target (ST, 1 shard).
  rt::StreamServer full(Alias(*fx.v1.lowered), DeltaSwapOptions(1, false));
  auto full_run =
      ev::ServeTraceWithSwap(full, trace, swap_at, Alias(*fx.v2.lowered), 2);
  SortDecisions(full_run.decisions);
  std::size_t post_swap = 0;
  for (const auto& d : full_run.decisions) post_swap += d.version == 2;
  ASSERT_GT(post_swap, 0u) << "swap point must split the decision stream";

  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    for (const bool mt : {false, true}) {
      rt::StreamServer server(Alias(*fx.v1.lowered),
                              DeltaSwapOptions(shards, mt));
      auto run =
          ev::ServeTraceWithDeltaSwap(server, trace, swap_at, fx.patches, 2);
      EXPECT_EQ(run.stats.active_version, 2u);
      EXPECT_EQ(run.stats.swaps, shards)
          << "delta swap still rebuilds one engine per shard";
      EXPECT_EQ(run.stats.delta.swaps, 1u);
      EXPECT_EQ(run.stats.delta.bytes_pushed, fx.plan_bytes)
          << "served delta cost must equal the plan's byte estimate";
      EXPECT_GT(run.stats.delta.deltas_applied, 0u);
      EXPECT_GT(run.stats.delta.leaf_words_patched, 0u);
      EXPECT_GT(run.stats.delta.reseals_avoided, 0u);
      SortDecisions(run.decisions);
      ASSERT_EQ(run.decisions.size(), full_run.decisions.size())
          << shards << " shards, mt=" << mt;
      for (std::size_t i = 0; i < run.decisions.size(); ++i) {
        ASSERT_EQ(run.decisions[i].flow, full_run.decisions[i].flow);
        ASSERT_EQ(run.decisions[i].index, full_run.decisions[i].index);
        ASSERT_EQ(run.decisions[i].predicted, full_run.decisions[i].predicted)
            << "flow " << run.decisions[i].flow << " pkt "
            << run.decisions[i].index << " (" << shards << " shards, mt="
            << mt << ")";
        ASSERT_EQ(run.decisions[i].score, full_run.decisions[i].score);
        ASSERT_EQ(run.decisions[i].version, full_run.decisions[i].version);
      }
    }
  }
}

TEST(StreamServerDelta, DeltaOnOneSumMemberMatchesReseal) {
  // The fixture's 8 Maps form one SumReduce unit. Patching exactly one of
  // them must serve as the freshly lowered target whose install sequence
  // carries that member's new words, through a 64-row engine across chunk
  // boundaries, and an engine built before the delta must throw.
  const auto ds = tr::Generate(tr::PeerRushSpec(8, 47));
  const auto offline = tr::ExtractSeqFeatures(ds.flows, EveryPacket());
  const auto fx = BuildDeltaFixture(offline.x, offline.size());
  ASSERT_EQ(fx.v1.lowered->NumTables(), 9u);
  ASSERT_EQ(fx.v1.lowered->pipeline().NumUnits(), 2u)
      << "the SumReduce's 8 Maps, then the head Map";
  // The target: v1's install sequence with every other entry of one
  // member (a middle Map; the head is pushed last) moved by 5 per word,
  // lowered afresh. The patch repeats each entry's match and priority.
  auto pushes = ctrl::EmitPushSequence(fx.v1);
  ASSERT_EQ(pushes.size(), 9u);
  rt::TableEntryPush& member = pushes[3];
  dp::TablePatch patch{member.table, {}};
  for (std::size_t e = 0; e < member.entries.size(); e += 2) {
    dp::TableEntry& entry = member.entries[e];
    for (std::int64_t& w : entry.action_data) w += 5;
    patch.patches.push_back({.entry_index = e,
                             .ternary = entry.ternary,
                             .range_lo = entry.range_lo,
                             .range_hi = entry.range_hi,
                             .priority = entry.priority,
                             .action_data = entry.action_data});
  }
  const rt::LoweredModel target =
      rt::LowerFromPush(*fx.v1.compiled, fx.v1.lowering, pushes);

  rt::LoweredModel patched = fx.v1.lowered->Clone();
  rt::InferenceEngine stale(patched, 64);
  patched.ApplyDelta(std::span(&patch, 1));

  constexpr std::size_t kRows = 150;
  ASSERT_GE(offline.size(), kRows);
  const std::span<const float> x(offline.x.data(), kRows * 16);
  std::vector<std::int64_t> got(kRows * stale.output_dim());
  EXPECT_THROW(stale.InferRaw(x, kRows, got), std::logic_error);
  std::vector<std::int64_t> want(got.size()), before(got.size());
  rt::InferenceEngine(patched, 64).InferRaw(x, kRows, got);
  rt::InferenceEngine(target, 64).InferRaw(x, kRows, want);
  rt::InferenceEngine(*fx.v1.lowered, 64).InferRaw(x, kRows, before);
  EXPECT_EQ(got, want);
  EXPECT_NE(got, before) << "the patched member must move some output";
}

TEST(StreamServerDelta, RejectsStaleVersionsAndUnknownTables) {
  const auto ds = tr::Generate(tr::PeerRushSpec(4, 48));
  const auto offline = tr::ExtractSeqFeatures(ds.flows);
  const auto fx = BuildDeltaFixture(offline.x, offline.size());

  rt::StreamServer server(Alias(*fx.v1.lowered), DeltaSwapOptions(2, false));
  EXPECT_THROW(server.SwapModelDelta(fx.patches, 1), std::invalid_argument);
  EXPECT_THROW(server.SwapModelDelta(fx.patches, 0), std::invalid_argument);
  std::vector<dp::TablePatch> unknown{{"map_999", {}}};
  EXPECT_THROW(server.SwapModelDelta(unknown, 2), std::invalid_argument);
  EXPECT_EQ(server.active_version(), 1u);
  EXPECT_EQ(server.Stats().delta.swaps, 0u);
  // The real patches still apply after the rejections.
  server.SwapModelDelta(fx.patches, 2);
  EXPECT_EQ(server.active_version(), 2u);
  EXPECT_EQ(server.Stats().delta.swaps, 1u);
}

TEST(StreamServerDelta, RuleMovingPatchIsRejectedAndServingContinues) {
  // A patch whose match selects other keys than its entry's is a reseal,
  // not a delta: SwapModelDelta throws before publishing, and the server
  // decides every packet exactly as one that was never swapped.
  const auto ds = tr::Generate(tr::PeerRushSpec(8, 50));
  const auto offline = tr::ExtractSeqFeatures(ds.flows, EveryPacket());
  const auto fx = BuildDeltaFixture(offline.x, offline.size());
  const auto trace = tr::MergeTrace(ds.flows);
  const std::size_t swap_at = trace.size() / 2;

  // The first planned patch with its rule moved: one value bit flipped
  // inside a ternary mask, or a range's upper bound moved by one key.
  std::vector<dp::TablePatch> moving{{fx.patches.at(0).table,
                                      {fx.patches.at(0).patches.at(0)}}};
  dp::EntryPatch& patch = moving[0].patches[0];
  const auto masked = std::find_if(
      patch.ternary.begin(), patch.ternary.end(),
      [](const dp::TernaryRule& r) { return r.mask != 0; });
  if (masked != patch.ternary.end()) {
    masked->value ^= masked->mask & (~masked->mask + 1);  // lowest mask bit
  } else {
    ASSERT_FALSE(patch.range_hi.empty());
    std::uint64_t& hi = patch.range_hi[0];
    hi = hi > patch.range_lo[0] ? hi - 1 : hi + 1;
  }

  for (const bool mt : {false, true}) {
    rt::StreamServer never(Alias(*fx.v1.lowered), DeltaSwapOptions(2, mt));
    auto want = ev::ServeTrace(never, trace).decisions;

    rt::StreamServer server(Alias(*fx.v1.lowered), DeltaSwapOptions(2, mt));
    if (mt) server.Start();
    for (std::size_t i = 0; i < swap_at; ++i) server.Push(trace[i]);
    EXPECT_THROW(server.SwapModelDelta(moving, 2), std::invalid_argument)
        << "mt=" << mt;
    EXPECT_EQ(server.active_version(), 1u);
    for (std::size_t i = swap_at; i < trace.size(); ++i) {
      server.Push(trace[i]);
    }
    if (mt) {
      server.Stop();
    } else {
      server.Flush();
    }
    EXPECT_EQ(server.active_version(), 1u);
    EXPECT_EQ(server.Stats().delta.swaps, 0u);
    auto got = server.TakeDecisions();
    SortDecisions(want);
    SortDecisions(got);
    ASSERT_EQ(got.size(), want.size()) << "mt=" << mt;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].flow, want[i].flow);
      ASSERT_EQ(got[i].index, want[i].index);
      ASSERT_EQ(got[i].predicted, want[i].predicted)
          << "flow " << got[i].flow << " pkt " << got[i].index
          << " (mt=" << mt << ")";
      ASSERT_EQ(got[i].score, want[i].score);
      ASSERT_EQ(got[i].version, 1u);
    }
  }
}

TEST(StreamServerDelta, PublishFailureRollsBackAndRetries) {
  const auto ds = tr::Generate(tr::PeerRushSpec(8, 49));
  const auto offline = tr::ExtractSeqFeatures(ds.flows, EveryPacket());
  const auto fx = BuildDeltaFixture(offline.x, offline.size());
  const auto trace = tr::MergeTrace(ds.flows);
  const std::size_t half = trace.size() / 2;

  // Single-threaded: fail on the third shard apply — shards 0 and 1 roll
  // back, the patched clone is discarded, the old version keeps serving.
  rt::StreamServer server(Alias(*fx.v1.lowered), DeltaSwapOptions(4, false));
  for (std::size_t i = 0; i < half; ++i) server.Push(trace[i]);
  {
    rt::FaultPlan plan;
    plan.Arm(rt::FaultSite::kSwapPublishFail, /*first=*/2, 1, 1);
    rt::FaultScope scope(plan);
    EXPECT_THROW(server.SwapModelDelta(fx.patches, 2), rt::SwapError);
    EXPECT_EQ(server.active_version(), 1u);
    EXPECT_EQ(server.Stats().delta.swaps, 0u)
        << "a rolled-back delta swap must not count as published";
    server.SwapModelDelta(fx.patches, 2);
    EXPECT_EQ(server.active_version(), 2u);
  }
  for (std::size_t i = half; i < trace.size(); ++i) server.Push(trace[i]);
  server.Flush();
  auto got = server.TakeDecisions();
  SortDecisions(got);
  EXPECT_EQ(server.Stats().delta.swaps, 1u);

  // Decisions match a clean delta run with the swap at the same boundary:
  // the failed attempt was hitless.
  rt::StreamServer clean(Alias(*fx.v1.lowered), DeltaSwapOptions(4, false));
  auto clean_run =
      ev::ServeTraceWithDeltaSwap(clean, trace, half, fx.patches, 2);
  SortDecisions(clean_run.decisions);
  ASSERT_EQ(got.size(), clean_run.decisions.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].predicted, clean_run.decisions[i].predicted);
    EXPECT_EQ(got[i].version, clean_run.decisions[i].version);
  }

  // Multi-threaded: the probe build fails before anything reaches a ring.
  rt::StreamServer mt(Alias(*fx.v1.lowered), DeltaSwapOptions(2, true));
  mt.Start();
  for (std::size_t i = 0; i < half; ++i) mt.Push(trace[i]);
  {
    rt::FaultPlan plan;
    plan.Arm(rt::FaultSite::kSwapPublishFail, 0, 1, 1);
    rt::FaultScope scope(plan);
    EXPECT_THROW(mt.SwapModelDelta(fx.patches, 2), rt::SwapError);
    EXPECT_EQ(mt.active_version(), 1u);
    mt.SwapModelDelta(fx.patches, 2);
    EXPECT_EQ(mt.active_version(), 2u);
  }
  for (std::size_t i = half; i < trace.size(); ++i) mt.Push(trace[i]);
  mt.Stop();
  const auto stats = mt.Stats();
  EXPECT_EQ(stats.active_version, 2u);
  EXPECT_EQ(stats.swaps, 2u) << "the failed probe never reached a ring";
  EXPECT_EQ(stats.delta.swaps, 1u);
}
