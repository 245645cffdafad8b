// Telemetry acceptance:
//
//  * Metrics core — log2 histogram bucket boundaries, merge and quantile
//    properties; counter cells; sampler cadence.
//  * Flight recorder — ring retention/overflow semantics, multi-writer
//    safety, JSON dump shape.
//  * The counter list — one PEGASUS_SHARD_COUNTERS entry drives the block,
//    its reset, the server-wide fold and both writers; the remaining
//    hand-merged stats structs are pinned by sizeof.
//  * Serving integration — sampled stage histograms populate in ST and MT
//    runs; decisions carry end-to-end latency; MT == ST decision equality
//    is UNCHANGED by sampling (it observes, never steers);
//    TelemetrySnapshot() is callable while the server runs and its
//    accounting identities hold live (the TSan job runs this suite); the
//    live and quiesced counts agree across a mid-stream swap; swap + shed +
//    stall lifecycle events land in the trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <iterator>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>

#include "compiler/compiler.hpp"
#include "core/operators.hpp"
#include "dataplane/match_index.hpp"
#include "eval/experiment.hpp"
#include "runtime/fault.hpp"
#include "runtime/stream_server.hpp"
#include "telemetry/exposition.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"
#include "traffic/stream.hpp"
#include "traffic/synthetic.hpp"

namespace core = pegasus::core;
namespace rt = pegasus::runtime;
namespace tr = pegasus::traffic;
namespace tel = pegasus::telemetry;
namespace ev = pegasus::eval;

namespace {

// ---------------------------------------------------------------------------
// Metrics core.
// ---------------------------------------------------------------------------

TEST(Log2Histogram, BucketBoundaries) {
  // Bucket 0 holds exactly {0}; bucket k >= 1 holds [2^(k-1), 2^k).
  EXPECT_EQ(tel::HistogramBucketOf(0), 0u);
  EXPECT_EQ(tel::HistogramBucketOf(1), 1u);
  EXPECT_EQ(tel::HistogramBucketOf(2), 2u);
  EXPECT_EQ(tel::HistogramBucketOf(3), 2u);
  EXPECT_EQ(tel::HistogramBucketOf(4), 3u);
  EXPECT_EQ(tel::HistogramBucketOf(7), 3u);
  EXPECT_EQ(tel::HistogramBucketOf(8), 4u);
  for (std::size_t k = 1; k < 62; ++k) {
    const std::uint64_t lo = std::uint64_t{1} << (k - 1);
    EXPECT_EQ(tel::HistogramBucketOf(lo), k) << "k=" << k;
    EXPECT_EQ(tel::HistogramBucketOf(2 * lo - 1), k) << "k=" << k;
    EXPECT_EQ(tel::HistogramBucketLow(k), lo);
    EXPECT_EQ(tel::HistogramBucketHigh(k), 2 * lo - 1);
  }
  // The last bucket absorbs the top of the range.
  EXPECT_EQ(tel::HistogramBucketOf(~std::uint64_t{0}),
            tel::kHistogramBuckets - 1);

  tel::Log2Histogram h;
  h.Record(0);
  h.Record(1);
  h.Record(2);
  h.Record(3);
  h.Record(1024);
  const auto s = h.Snapshot();
  EXPECT_EQ(s.count, 5u);
  EXPECT_EQ(s.sum, 0u + 1 + 2 + 3 + 1024);
  EXPECT_EQ(s.buckets[0], 1u);
  EXPECT_EQ(s.buckets[1], 1u);
  EXPECT_EQ(s.buckets[2], 2u);
  EXPECT_EQ(s.buckets[11], 1u);  // 1024 = 2^10 -> bit_width 11
}

TEST(Log2Histogram, QuantileProperties) {
  tel::Log2Histogram h;
  EXPECT_EQ(tel::HistogramSnapshot{}.Quantile(0.5), 0.0);  // empty -> 0

  // All mass in one bucket: every quantile stays within that bucket.
  for (int i = 0; i < 1000; ++i) h.Record(100);  // bucket [64, 127]
  auto s = h.Snapshot();
  for (double q : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_GE(s.Quantile(q), 64.0) << q;
    EXPECT_LE(s.Quantile(q), 127.0) << q;
  }

  // Monotonicity in q, and bucket-level correctness against a known
  // distribution: 90 small values, 10 large ones.
  h.Reset();
  for (int i = 0; i < 90; ++i) h.Record(10);     // [8, 15]
  for (int i = 0; i < 10; ++i) h.Record(10000);  // [8192, 16383]
  s = h.Snapshot();
  EXPECT_LE(s.Quantile(0.5), s.Quantile(0.9));
  EXPECT_LE(s.Quantile(0.9), s.Quantile(0.99));
  EXPECT_LE(s.Quantile(0.99), s.Quantile(0.999));
  EXPECT_LE(s.Quantile(0.5), 15.0);
  EXPECT_GE(s.Quantile(0.95), 8192.0);
  EXPECT_NEAR(s.Mean(), (90.0 * 10 + 10 * 10000) / 100.0, 1e-9);

  // Randomized: the histogram quantile must land inside the bucket of the
  // exact quantile (log2 buckets guarantee a within-2x answer).
  std::mt19937_64 rng(7);
  std::vector<std::uint64_t> vals;
  h.Reset();
  std::lognormal_distribution<double> d(6.0, 2.0);
  for (int i = 0; i < 5000; ++i) {
    const auto v = static_cast<std::uint64_t>(d(rng)) + 1;
    vals.push_back(v);
    h.Record(v);
  }
  std::sort(vals.begin(), vals.end());
  s = h.Snapshot();
  for (double q : {0.5, 0.9, 0.99}) {
    const std::uint64_t exact =
        vals[static_cast<std::size_t>(q * (vals.size() - 1))];
    const double approx = s.Quantile(q);
    const std::size_t bucket = tel::HistogramBucketOf(exact);
    EXPECT_GE(approx, static_cast<double>(tel::HistogramBucketLow(
                          bucket > 0 ? bucket - 1 : 0)))
        << q;
    EXPECT_LE(approx,
              static_cast<double>(tel::HistogramBucketHigh(bucket + 1)))
        << q;
  }
}

TEST(Log2Histogram, MergeEqualsUnion) {
  tel::Log2Histogram a;
  tel::Log2Histogram b;
  tel::Log2Histogram u;
  std::mt19937_64 rng(11);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rng() % 100000;
    if (i % 2 == 0) {
      a.Record(v);
    } else {
      b.Record(v);
    }
    u.Record(v);
  }
  auto sa = a.Snapshot();
  sa.Merge(b.Snapshot());
  const auto su = u.Snapshot();
  EXPECT_EQ(sa.count, su.count);
  EXPECT_EQ(sa.sum, su.sum);
  for (std::size_t i = 0; i < tel::kHistogramBuckets; ++i) {
    EXPECT_EQ(sa.buckets[i], su.buckets[i]) << i;
  }
  EXPECT_EQ(sa.Quantile(0.99), su.Quantile(0.99));
}

TEST(Metrics, CellOperations) {
  tel::Cell c;
  c.Add();
  c.Add(40);
  c.AddRelease();
  EXPECT_EQ(c.value(), 42u);
  c.AddShared(8);
  EXPECT_EQ(c.Acquire(), 50u);
  c.Set(7);
  EXPECT_EQ(c.value(), 7u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
  static_assert(sizeof(tel::Cell) == 8);
}

TEST(Metrics, SamplerCadence) {
  tel::Sampler off(0);
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(off.Sample());

  // every = 4: fires on the 1st eligible event, then every 4th.
  tel::Sampler s(4);
  int fired = 0;
  std::vector<int> at;
  for (int i = 0; i < 40; ++i) {
    if (s.Sample()) {
      ++fired;
      at.push_back(i);
    }
  }
  EXPECT_EQ(fired, 10);
  ASSERT_GE(at.size(), 2u);
  EXPECT_EQ(at[0], 0);
  EXPECT_EQ(at[1] - at[0], 4);

  tel::Sampler every(1);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(every.Sample());
}

// ---------------------------------------------------------------------------
// Flight recorder.
// ---------------------------------------------------------------------------

TEST(EventRing, RetainsLastCapacityEvents) {
  tel::EventRing ring(8);
  EXPECT_TRUE(ring.enabled());
  for (std::uint64_t i = 0; i < 5; ++i) {
    ring.Record(tel::TraceEventKind::kShed, 1, 100 + i, 0, i, 0);
  }
  auto dump = ring.Dump();
  ASSERT_EQ(dump.size(), 5u);

  // Overflow: 20 more events into capacity 8 — exactly the newest 8
  // survive, identified by seq.
  for (std::uint64_t i = 5; i < 25; ++i) {
    ring.Record(tel::TraceEventKind::kShed, 1, 100 + i, 0, i, 0);
  }
  EXPECT_EQ(ring.recorded(), 25u);
  dump = ring.Dump();
  ASSERT_EQ(dump.size(), 8u);
  std::uint64_t min_seq = ~std::uint64_t{0};
  for (const auto& e : dump) min_seq = std::min(min_seq, e.seq);
  EXPECT_EQ(min_seq, 18u);  // seqs 18..25 of 25

  ring.Reset();
  EXPECT_TRUE(ring.Dump().empty());
}

TEST(EventRing, DisabledRingIsNoOp) {
  tel::EventRing ring(0);
  EXPECT_FALSE(ring.enabled());
  ring.Record(tel::TraceEventKind::kStall, 0, 1);
  EXPECT_TRUE(ring.Dump().empty());
  EXPECT_EQ(ring.recorded(), 0u);
}

TEST(EventRing, MultiWriterSurvivesContention) {
  // 4 threads hammer a 4-slot ring, so writers a capacity apart meet in
  // one slot all the time. Every field is a function of one value v, so
  // a dump holding a mix of two writes shows up as a mismatch; the dump
  // after the join holds exactly the last `capacity` claims.
  tel::EventRing ring(4);
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 5000;
  const auto expect_whole = [](const tel::TraceEvent& e) {
    const std::uint64_t v = e.ts_ns;
    ASSERT_EQ(e.dur_ns, 3 * v);
    ASSERT_EQ(e.arg_a, v);
    ASSERT_EQ(e.arg_b, ~v);
    ASSERT_EQ(e.shard, v / kPerWriter);
    ASSERT_EQ(e.kind, tel::TraceEventKind::kPacketSpan);
  };
  std::vector<std::thread> ts;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const auto& e : ring.Dump()) expect_whole(e);
    }
  });
  for (int w = 0; w < kWriters; ++w) {
    ts.emplace_back([&ring, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        const std::uint64_t v =
            static_cast<std::uint64_t>(w) * kPerWriter + i;
        ring.Record(tel::TraceEventKind::kPacketSpan,
                    static_cast<std::uint32_t>(w), v, 3 * v, v, ~v);
      }
    });
  }
  for (auto& t : ts) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  const std::uint64_t recorded = ring.recorded();
  EXPECT_EQ(recorded, static_cast<std::uint64_t>(kWriters) * kPerWriter);
  auto dump = ring.Dump();
  ASSERT_EQ(dump.size(), ring.capacity());
  std::sort(dump.begin(), dump.end(),
            [](const auto& a, const auto& b) { return a.seq < b.seq; });
  for (std::size_t i = 0; i < dump.size(); ++i) {
    EXPECT_EQ(dump[i].seq, recorded - ring.capacity() + 1 + i);
    expect_whole(dump[i]);
  }
}

TEST(EventRing, TraceJsonShape) {
  tel::EventRing ring(8);
  ring.Record(tel::TraceEventKind::kSwapPublish,
              tel::TraceEvent::kControlTrack, 123, 0, 2, 0);
  ring.Record(tel::TraceEventKind::kPacketSpan, 1, 50, 10, 99, 2);
  std::ostringstream os;
  tel::WriteTraceJson(tel::MergeTraceDumps({ring.Dump()}), os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"swap_publish\""), std::string::npos);
  EXPECT_NE(json.find("\"packet_span\""), std::string::npos);
  EXPECT_NE(json.find("\"shard\": -1"), std::string::npos);  // control track
  // Merge sorts by timestamp: packet_span (ts 50) precedes swap (ts 123).
  EXPECT_LT(json.find("packet_span"), json.find("swap_publish"));
}

// ---------------------------------------------------------------------------
// The counter list and the remaining hand-merged stats structs.
// ---------------------------------------------------------------------------

constexpr std::size_t kNumCounters = std::size(tel::kCounterFields);

TEST(CounterList, DrivesBlockFoldAndReset) {
  // Every list entry is a plain u64 in CounterValues and a Cell in the
  // block, and the block is whole cache lines.
  static_assert(sizeof(tel::CounterValues) == 8 * kNumCounters);
  static_assert(alignof(tel::ShardCounters) == 64);
  static_assert(sizeof(tel::ShardCounters) % 64 == 0);
  static_assert(std::is_same_v<decltype(tel::CounterValues::ring_depth_hwm),
                               std::size_t>);

  tel::ShardCounters block;
  tel::CounterValues a;
  tel::CounterValues b;
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    a.*tel::kCounterFields[i].value = i + 1;
    b.*tel::kCounterFields[i].value = 100;
  }
  // Load() reads every cell.
  block.packets.Add(3);
  block.ring_depth_hwm.Set(9);
  block.shed_misrouted.AddShared(2);
  const tel::CounterValues loaded = block.Load();
  EXPECT_EQ(loaded.packets, 3u);
  EXPECT_EQ(loaded.ring_depth_hwm, 9u);
  EXPECT_EQ(loaded.shed_misrouted, 2u);
  block.Reset();
  const tel::CounterValues zero = block.Load();
  for (const auto& f : tel::kCounterFields) {
    EXPECT_EQ(zero.*f.value, 0u) << f.name;
  }

  // Fold: sum, except the high watermark, which takes the max.
  a.Fold(b);
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    const auto& f = tel::kCounterFields[i];
    const std::uint64_t want =
        f.kind == tel::CounterKind::kHighWater ? 100 : 100 + i + 1;
    EXPECT_EQ(a.*f.value, want) << f.name;
  }
}

TEST(StatsAudit, FlowTableStatsMergesEveryField) {
  static_assert(sizeof(rt::FlowTableStats) == 184,
                "FlowTableStats changed: extend operator+= and this test");
  rt::FlowTableStats a;
  a.hits = 1;
  a.misses = 2;
  a.inserts = 3;
  a.evictions = 4;
  a.probes = 5;
  for (std::size_t i = 0; i < rt::FlowTableStats::kProbeHistBuckets; ++i) {
    a.probe_hist[i] = i + 1;
  }
  a.resident = 6;
  a.slots = 7;
  rt::FlowTableStats b = a;
  a += b;
  EXPECT_EQ(a.hits, 2u);
  EXPECT_EQ(a.misses, 4u);
  EXPECT_EQ(a.inserts, 6u);
  EXPECT_EQ(a.evictions, 8u);
  EXPECT_EQ(a.probes, 10u);
  for (std::size_t i = 0; i < rt::FlowTableStats::kProbeHistBuckets; ++i) {
    EXPECT_EQ(a.probe_hist[i], 2 * (i + 1)) << i;
  }
  EXPECT_EQ(a.resident, 12u);  // resident/slots were the PR 7 merge trap
  EXPECT_EQ(a.slots, 14u);
}

TEST(StatsAudit, InferenceEngineStatsMergesEveryField) {
  static_assert(sizeof(rt::InferenceEngine::Stats) == 24,
                "InferenceEngine::Stats changed: extend operator+=");
  rt::InferenceEngine::Stats a{1, 2, 3};
  a += rt::InferenceEngine::Stats{10, 20, 30};
  EXPECT_EQ(a.packets, 11u);
  EXPECT_EQ(a.chunks, 22u);
  EXPECT_EQ(a.table_hits, 33u);
}

TEST(StatsAudit, MatchIndexStatsShapeIsPinned) {
  // Aggregated field-by-field in Pipeline::MatchIndexReport (the PR 9
  // delta counters were the trap there) — pin the struct so a new field
  // forces that aggregation to be revisited.
  static_assert(sizeof(pegasus::dataplane::MatchIndexStats) == 96,
                "MatchIndexStats changed: extend Pipeline::MatchIndexReport");
  SUCCEED();
}

TEST(StatsAudit, StreamDecisionAndTracePacketStayPacked) {
  // latency_ns landed in StreamDecision's tail padding and tele_stamp in
  // TracePacket's interior hole: neither struct may grow (the MT ring
  // item is exactly two cache lines).
  static_assert(sizeof(rt::StreamDecision) == 40);
  static_assert(sizeof(tr::TracePacket) == 40);
  SUCCEED();
}

// ---------------------------------------------------------------------------
// Serving integration.
// ---------------------------------------------------------------------------

rt::LoweredModel BuildModel(std::span<const float> train_x, std::size_t n,
                            std::uint64_t seed) {
  core::ProgramBuilder b(16);
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

struct World {
  tr::Dataset ds;
  std::vector<tr::TracePacket> trace;
  std::shared_ptr<const rt::LoweredModel> model;
};

World MakeWorld(std::uint64_t seed = 2024) {
  World w;
  w.ds = tr::Generate(tr::PeerRushSpec(10, seed));
  tr::ExtractOptions every;
  every.max_samples_per_flow = std::numeric_limits<std::size_t>::max();
  const auto feats = tr::ExtractSeqFeatures(w.ds.flows, every);
  w.model = std::make_shared<const rt::LoweredModel>(
      BuildModel(feats.x, feats.size(), 3));
  w.trace = tr::MergeTrace(w.ds.flows);
  return w;
}

rt::StreamServerOptions BaseOpts() {
  rt::StreamServerOptions opts;
  opts.num_shards = 2;
  opts.flows_per_shard = 1 << 10;
  opts.max_probe = 16;
  opts.batch_size = 32;
  opts.feature = rt::FeatureKind::kSeq;
  return opts;
}

std::vector<rt::StreamDecision> Sorted(std::vector<rt::StreamDecision> d) {
  std::sort(d.begin(), d.end(), [](const auto& a, const auto& b) {
    return std::tie(a.flow, a.index) < std::tie(b.flow, b.index);
  });
  return d;
}

TEST(ServerTelemetry, SampledStagesPopulateSingleThreaded) {
  const World w = MakeWorld();
  auto opts = BaseOpts();
  opts.telemetry.sample_every = 1;  // sample every packet
  opts.telemetry.trace_events = 256;
  rt::StreamServer server(w.model, opts);
  const auto decisions = server.Serve(w.trace);
  ASSERT_GT(decisions.size(), 0u);

  const auto snap = server.TelemetrySnapshot();
  EXPECT_EQ(snap.sample_every, 1u);
  EXPECT_TRUE(snap.tracing);
  EXPECT_EQ(snap.packets, w.trace.size());
  EXPECT_EQ(snap.decisions, decisions.size());

  // Every packet was sampled: lookup/extract counts equal the packet
  // count, end-to-end equals the decision count.
  EXPECT_EQ(snap.stage(tel::Stage::kFlowLookup).count, w.trace.size());
  EXPECT_EQ(snap.stage(tel::Stage::kFeatureExtract).count, w.trace.size());
  EXPECT_EQ(snap.stage(tel::Stage::kEndToEnd).count, decisions.size());
  EXPECT_GT(snap.stage(tel::Stage::kInferFlush).count, 0u);
  // ST mode has no ring: dwell stays empty.
  EXPECT_EQ(snap.stage(tel::Stage::kRingDwell).count, 0u);

  // Quantiles are ordered and nonzero for a real latency distribution.
  const auto& e2e = snap.stage(tel::Stage::kEndToEnd);
  EXPECT_GT(e2e.p50_ns, 0.0);
  EXPECT_LE(e2e.p50_ns, e2e.p99_ns);
  EXPECT_LE(e2e.p99_ns, e2e.p999_ns);

  // Every decision carries its end-to-end latency at sample_every == 1.
  for (const auto& d : decisions) EXPECT_NE(d.latency_ns, 0u);

  // Packet spans landed in the trace.
  const auto trace_dump = server.DumpTrace();
  bool saw_span = false;
  for (const auto& e : trace_dump) {
    if (e.kind == tel::TraceEventKind::kPacketSpan) saw_span = true;
  }
  EXPECT_TRUE(saw_span);
}

TEST(ServerTelemetry, UnsampledServerStillCounts) {
  const World w = MakeWorld();
  rt::StreamServer server(w.model, BaseOpts());  // sampling + tracing off
  const auto decisions = server.Serve(w.trace);
  const auto snap = server.TelemetrySnapshot();
  EXPECT_FALSE(snap.tracing);
  EXPECT_EQ(snap.packets, w.trace.size());  // counters are always on
  EXPECT_EQ(snap.decisions, decisions.size());
  EXPECT_EQ(snap.stage(tel::Stage::kEndToEnd).count, 0u);
  EXPECT_TRUE(server.DumpTrace().empty());
  for (const auto& d : decisions) EXPECT_EQ(d.latency_ns, 0u);
}

TEST(ServerTelemetry, SamplingNeverChangesDecisions) {
  // The equality contract: decisions (flow, index, predicted, score,
  // version) are bit-identical unsampled and sampled, in both execution
  // modes.
  const World w = MakeWorld();
  auto run = [&](bool mt, std::uint32_t sample_every) {
    auto opts = BaseOpts();
    opts.multithreaded = mt;
    opts.telemetry.sample_every = sample_every;
    opts.telemetry.trace_events = sample_every != 0 ? 128 : 0;
    rt::StreamServer server(w.model, opts);
    return Sorted(server.Serve(w.trace));
  };
  const auto off = run(false, 0);
  ASSERT_GT(off.size(), 0u);
  for (const bool mt : {false, true}) {
    for (const std::uint32_t every : {0u, 7u, 1u}) {
      const auto got = run(mt, every);
      ASSERT_EQ(got.size(), off.size())
          << "mt=" << mt << " every=" << every;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].flow, off[i].flow);
        EXPECT_EQ(got[i].index, off[i].index);
        EXPECT_EQ(got[i].predicted, off[i].predicted);
        EXPECT_EQ(got[i].score, off[i].score);
        EXPECT_EQ(got[i].version, off[i].version);
      }
    }
  }
}

TEST(ServerTelemetry, MultiThreadedDwellAndHwm) {
  const World w = MakeWorld();
  auto opts = BaseOpts();
  opts.multithreaded = true;
  opts.telemetry.sample_every = 2;
  opts.telemetry.trace_events = 512;
  rt::StreamServer server(w.model, opts);
  const auto decisions = server.Serve(w.trace);
  ASSERT_GT(decisions.size(), 0u);

  const auto snap = server.TelemetrySnapshot();
  // Ring dwell is measured in MT mode; roughly 1-in-2 packets sampled.
  EXPECT_GT(snap.stage(tel::Stage::kRingDwell).count, 0u);
  EXPECT_LE(snap.stage(tel::Stage::kRingDwell).count, w.trace.size());
  EXPECT_GT(snap.stage(tel::Stage::kEndToEnd).count, 0u);

  // The worker observed a nonzero ring depth at some drain.
  const auto health = server.Health();
  ASSERT_EQ(health.shards.size(), 2u);
  std::size_t hwm = 0;
  for (const auto& sh : health.shards) {
    hwm = std::max(hwm, sh.ring_depth_hwm);
    EXPECT_LE(sh.ring_depth_hwm, opts.queue_capacity);
  }
  EXPECT_GT(hwm, 0u);

  // ResetStats clears the HWM and the histograms.
  server.ResetStats();
  const auto after = server.TelemetrySnapshot();
  EXPECT_EQ(after.stage(tel::Stage::kEndToEnd).count, 0u);
  for (const auto& sh : server.Health().shards) {
    EXPECT_EQ(sh.ring_depth_hwm, 0u);
  }
}

TEST(ServerTelemetry, SwapAndShedEventsInTrace) {
  // A mid-trace hot swap plus forced shedding must both be visible in the
  // flight recorder — the Perfetto story of the acceptance criteria.
  const World w = MakeWorld(77);
  tr::ExtractOptions every;
  every.max_samples_per_flow = std::numeric_limits<std::size_t>::max();
  const auto feats = tr::ExtractSeqFeatures(w.ds.flows, every);
  auto v2 = std::make_shared<const rt::LoweredModel>(
      BuildModel(feats.x, feats.size(), 99));

  auto opts = BaseOpts();
  opts.multithreaded = true;
  opts.queue_capacity = 1 << 4;  // tiny ring: force overload
  opts.burst = 4;
  opts.shed = true;
  opts.escalation = rt::EscalationPolicy::Immediate();
  opts.telemetry.sample_every = 8;
  opts.telemetry.trace_events = 1024;
  rt::StreamServer server(w.model, opts);

  const auto run = ev::ServeTraceWithSwap(
      server, w.trace, w.trace.size() / 2, v2, /*version=*/2);

  bool saw_swap_begin = false;
  bool saw_swap_publish = false;
  bool saw_swap_apply = false;
  for (const auto& e : server.DumpTrace()) {
    saw_swap_begin |= e.kind == tel::TraceEventKind::kSwapBegin;
    saw_swap_publish |= e.kind == tel::TraceEventKind::kSwapPublish;
    saw_swap_apply |= e.kind == tel::TraceEventKind::kSwapApply;
  }
  EXPECT_TRUE(saw_swap_begin);
  EXPECT_TRUE(saw_swap_publish);
  EXPECT_TRUE(saw_swap_apply);
  // Both the serving-gap histogram and the stats agree swaps happened.
  const auto snap = server.TelemetrySnapshot();
  EXPECT_EQ(snap.stage(tel::Stage::kSwapPublish).count,
            server.num_shards());
  EXPECT_EQ(snap.active_version, 2u);
  EXPECT_EQ(run.stats.swaps, server.num_shards());

  // If the tiny ring shed anything (expected under Immediate), the trace
  // carries shed events; either way accounting must agree.
  if (run.stats.shed.total() != 0) {
    bool saw_shed = false;
    for (const auto& e : server.DumpTrace()) {
      saw_shed |= e.kind == tel::TraceEventKind::kShed;
    }
    EXPECT_TRUE(saw_shed);
  }
  EXPECT_EQ(run.stats.packets + run.stats.shed.total(), w.trace.size());
}

TEST(ServerTelemetry, AccountingIdentityWithTelemetry) {
  // offered == packets + shed; packets == decisions + warmup +
  // shed.inference — per shard and in aggregate, with sampling on
  // (telemetry must not perturb accounting).
  const World w = MakeWorld(5);
  auto opts = BaseOpts();
  opts.multithreaded = true;
  opts.telemetry.sample_every = 3;
  rt::StreamServer server(w.model, opts);
  const auto decisions = server.Serve(w.trace);
  const auto stats = server.Stats();
  EXPECT_EQ(stats.packets + stats.shed.ring_full + stats.shed.misrouted,
            w.trace.size());
  EXPECT_EQ(stats.packets,
            stats.decisions + stats.warmup + stats.shed.inference);
  EXPECT_EQ(stats.decisions, decisions.size());
  std::uint64_t shard_sum = 0;
  for (const auto& sh : stats.shards) {
    shard_sum += sh.packets;
    EXPECT_EQ(sh.packets, sh.decisions + sh.warmup + sh.shed_inference);
  }
  EXPECT_EQ(shard_sum, stats.packets);
  // The flushed server published its exact flow-table counts.
  EXPECT_EQ(stats.table_hits, stats.table.hits);
  EXPECT_EQ(stats.table_misses, stats.table.misses);
}

TEST(ServerTelemetry, SwapCountsEachPacketOnce) {
  // The live packet count and the quiesced one are the same counter, and
  // the in-band swap item each shard pops off its ring is not a packet.
  const World w = MakeWorld();
  tr::ExtractOptions every;
  every.max_samples_per_flow = std::numeric_limits<std::size_t>::max();
  const auto feats = tr::ExtractSeqFeatures(w.ds.flows, every);
  auto v2 = std::make_shared<const rt::LoweredModel>(
      BuildModel(feats.x, feats.size(), 99));
  auto opts = BaseOpts();
  opts.multithreaded = true;
  rt::StreamServer server(w.model, opts);
  const auto run =
      ev::ServeTraceWithSwap(server, w.trace, w.trace.size() / 2, v2, 2);
  ASSERT_EQ(run.stats.swaps, opts.num_shards);

  const auto snap = server.TelemetrySnapshot();
  EXPECT_EQ(snap.packets, w.trace.size());
  EXPECT_EQ(server.Stats().packets, w.trace.size());
  std::ostringstream prom;
  tel::WritePrometheus(snap, prom);
  EXPECT_NE(prom.str().find("\npegasus_packets_total " +
                            std::to_string(w.trace.size()) + "\n"),
            std::string::npos);
}

TEST(ServerTelemetry, LiveAccountingIdentitiesHold) {
  // The live-observer contract under the TSan job: an observer snapshots
  // and dumps the trace of a sampled multi-ingest server with shedding
  // armed (tiny ring, immediate escalation) and injected inference faults.
  // On every live snapshot, per shard: every counter except the stall flag
  // is monotone, and decisions + warmup + shed_inference <= packets. After
  // Stop() both identities hold exactly.
  const World w = MakeWorld(31);
  auto opts = BaseOpts();
  opts.num_shards = 4;
  opts.multithreaded = true;
  opts.num_ingest = 2;
  opts.queue_capacity = 1 << 4;
  opts.burst = 4;
  opts.shed = true;
  opts.escalation = rt::EscalationPolicy::Immediate();
  opts.inference_retries = 0;
  opts.inference_retry_backoff_us = 0;
  opts.telemetry.sample_every = 4;
  opts.telemetry.trace_events = 256;
  rt::StreamServer server(w.model, opts);

  rt::FaultPlan plan;
  plan.Arm(rt::FaultSite::kInferenceFault, 3, 5, 20);
  rt::FaultScope faults(plan);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> snapshots{0};
  std::atomic<std::uint64_t> violations{0};
  std::thread observer([&] {
    std::vector<tel::ShardTelemetrySnapshot> last(opts.num_shards);
    while (!stop.load(std::memory_order_acquire)) {
      const auto snap = server.TelemetrySnapshot();
      for (std::size_t i = 0; i < snap.shards.size(); ++i) {
        const auto& sh = snap.shards[i];
        bool ok = sh.decisions + sh.warmup + sh.shed_inference <= sh.packets;
        for (const auto& f : tel::kCounterFields) {
          if (f.kind != tel::CounterKind::kFlag) {
            ok &= sh.*f.value >= last[i].*f.value;
          }
        }
        if (!ok) violations.fetch_add(1, std::memory_order_relaxed);
        last[i] = sh;
      }
      (void)server.DumpTrace();
      snapshots.fetch_add(1, std::memory_order_relaxed);
    }
  });
  constexpr int kRounds = 3;
  std::uint64_t decided = 0;
  for (int round = 0; round < kRounds; ++round) {
    decided += ev::ServeTracePartitioned(server, w.trace).decisions.size();
  }
  stop.store(true, std::memory_order_release);
  observer.join();
  EXPECT_GT(snapshots.load(), 0u);
  EXPECT_EQ(violations.load(), 0u);

  std::vector<std::uint64_t> offered(opts.num_shards, 0);
  for (const auto& p : w.trace) {
    offered[rt::StreamServer::ShardIndexOf(p.key.digest, opts.num_shards)] +=
        kRounds;
  }
  const auto stats = server.Stats();
  EXPECT_GT(stats.shed.ring_full, 0u);
  EXPECT_GT(stats.shed.inference, 0u);
  EXPECT_EQ(stats.shed.misrouted, 0u);
  EXPECT_EQ(stats.decisions, decided);
  for (std::size_t i = 0; i < opts.num_shards; ++i) {
    const auto& sh = stats.shards[i];
    EXPECT_EQ(sh.packets + sh.shed_ring_full + sh.shed_misrouted, offered[i])
        << "shard " << i;
    EXPECT_EQ(sh.packets, sh.decisions + sh.warmup + sh.shed_inference)
        << "shard " << i;
  }
}

// ---------------------------------------------------------------------------
// Exposition.
// ---------------------------------------------------------------------------

TEST(Exposition, JsonAndPrometheusWriters) {
  const World w = MakeWorld();
  auto opts = BaseOpts();
  opts.telemetry.sample_every = 1;
  opts.telemetry.trace_events = 64;
  rt::StreamServer server(w.model, opts);
  (void)server.Serve(w.trace);
  const auto snap = server.TelemetrySnapshot();

  std::ostringstream js;
  tel::WriteJson(snap, js);
  const std::string json = js.str();
  EXPECT_NE(json.find("\"end_to_end\""), std::string::npos);
  EXPECT_NE(json.find("\"p999_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"packets\": " + std::to_string(w.trace.size())),
            std::string::npos);
  // Balanced braces/brackets — the writer is hand-rolled.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));

  std::ostringstream prom;
  tel::WritePrometheus(snap, prom);
  const std::string text = prom.str();
  // Every counter appears in both writers: server-wide and per shard.
  for (const auto& f : tel::kCounterFields) {
    const std::string key = std::string("\"") + f.name + "\": ";
    std::size_t hits = 0;
    for (auto at = json.find(key); at != std::string::npos;
         at = json.find(key, at + 1)) {
      ++hits;
    }
    EXPECT_EQ(hits, 1 + snap.shards.size()) << f.name;
    const std::string family =
        std::string("pegasus_") + f.name +
        (f.kind == tel::CounterKind::kCounter ? "_total" : "");
    EXPECT_NE(text.find("\n" + family + " "), std::string::npos) << family;
    EXPECT_NE(text.find("\n" + family + "{shard=\"1\"} "), std::string::npos)
        << family;
  }
  EXPECT_NE(text.find("# TYPE pegasus_packets_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("pegasus_stage_latency_seconds_bucket{stage=\"end_"
                      "to_end\",le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(text.find("pegasus_ring_depth_hwm{shard=\"0\"}"),
            std::string::npos);
}

TEST(Exposition, StatsReporterEmitsLines) {
  std::atomic<int> calls{0};
  std::ostringstream os;
  tel::StatsReporter reporter(
      [&calls] {
        tel::TelemetrySnapshot snap;
        snap.now_ns = static_cast<std::uint64_t>(
                          calls.fetch_add(1, std::memory_order_relaxed) + 1) *
                      1000000ull;
        snap.packets = static_cast<std::uint64_t>(calls.load()) * 500;
        return snap;
      },
      os, /*interval_ms=*/20);
  reporter.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  reporter.Stop();
  EXPECT_GE(reporter.ticks(), 2u);  // interval ticks + the final flush
  const std::string out = os.str();
  EXPECT_NE(out.find("[telemetry] pps="), std::string::npos);
  EXPECT_NE(out.find("e2e_p50="), std::string::npos);
}

// ---------------------------------------------------------------------------
// eval: per-version accuracy/latency correlation (satellite).
// ---------------------------------------------------------------------------

TEST(Eval, EvaluateDecisionsDetailedSlicesByVersion) {
  std::vector<rt::StreamDecision> decisions;
  // v1: 3 decisions, 2 correct, latencies 100/200 sampled on two of them.
  for (int i = 0; i < 3; ++i) {
    rt::StreamDecision d;
    d.version = 1;
    d.label = 1;
    d.predicted = i < 2 ? 1 : 0;
    d.latency_ns = i == 0 ? 100 : (i == 1 ? 200 : 0);
    decisions.push_back(d);
  }
  // v2: 2 decisions, both correct, unsampled.
  for (int i = 0; i < 2; ++i) {
    rt::StreamDecision d;
    d.version = 2;
    d.label = 0;
    d.predicted = 0;
    decisions.push_back(d);
  }
  const auto report = ev::EvaluateDecisionsDetailed(decisions, 2);
  ASSERT_EQ(report.versions.size(), 2u);
  const auto& v1 = report.versions[0];
  EXPECT_EQ(v1.version, 1u);
  EXPECT_EQ(v1.decisions, 3u);
  EXPECT_EQ(v1.correct, 2u);
  EXPECT_NEAR(v1.accuracy, 2.0 / 3.0, 1e-9);
  EXPECT_EQ(v1.sampled, 2u);
  EXPECT_NEAR(v1.latency_mean_ns, 150.0, 1e-9);
  EXPECT_GE(v1.latency_p99_ns, v1.latency_p50_ns);
  const auto& v2 = report.versions[1];
  EXPECT_EQ(v2.version, 2u);
  EXPECT_NEAR(v2.accuracy, 1.0, 1e-9);
  EXPECT_EQ(v2.sampled, 0u);
  EXPECT_EQ(v2.latency_p50_ns, 0.0);
  EXPECT_NEAR(report.overall.accuracy, 4.0 / 5.0, 1e-9);
}

TEST(Eval, SwapRunCorrelatesVersionsWithLatency) {
  const World w = MakeWorld(123);
  tr::ExtractOptions every;
  every.max_samples_per_flow = std::numeric_limits<std::size_t>::max();
  const auto feats = tr::ExtractSeqFeatures(w.ds.flows, every);
  auto v2 = std::make_shared<const rt::LoweredModel>(
      BuildModel(feats.x, feats.size(), 321));
  auto opts = BaseOpts();
  opts.telemetry.sample_every = 1;
  rt::StreamServer server(w.model, opts);
  const auto run = ev::ServeTraceWithSwap(server, w.trace,
                                          w.trace.size() / 2, v2, 2);
  const auto report =
      ev::EvaluateDecisionsDetailed(run.decisions, w.ds.NumClasses());
  ASSERT_EQ(report.versions.size(), 2u);
  EXPECT_EQ(report.versions[0].version, 1u);
  EXPECT_EQ(report.versions[1].version, 2u);
  EXPECT_GT(report.versions[0].decisions, 0u);
  EXPECT_GT(report.versions[1].decisions, 0u);
  // Every decision sampled at every=1 -> latency present on both sides.
  EXPECT_EQ(report.versions[0].sampled, report.versions[0].decisions);
  EXPECT_EQ(report.versions[1].sampled, report.versions[1].decisions);
  EXPECT_GT(report.versions[0].latency_p50_ns, 0.0);
  EXPECT_GT(report.versions[1].latency_p50_ns, 0.0);
  // And the run's snapshot rode along in StreamRun's stats.
  EXPECT_EQ(run.stats.stage(tel::Stage::kEndToEnd).count,
            run.decisions.size());
}

}  // namespace
