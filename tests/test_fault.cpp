// Fault-injection acceptance criteria (ISSUE 8):
//
//  * The FaultInjector's schedules are exact: fires land on hits
//    first, first+every, ... with the fire count capped at `limit`, and
//    FaultScope disarms on every exit path.
//  * SwapModel is transactional under an injected publish failure: in
//    single-threaded mode already-applied shards roll back, in
//    multi-threaded mode the probe fails before anything reaches the
//    rings; either way SwapError surfaces, the old version keeps serving,
//    and retrying the same version succeeds once the fault clears.
//  * A transient inference fault inside the retry budget delays but does
//    not change decisions; a persistent one sheds the batch, counted as
//    ShedStats::inference, and the server keeps serving.
//  * The watchdog flags a heartbeat-frozen worker as stalled while its
//    ring holds work, and the flag self-clears when the worker resumes.
//  * Registry envelopes corrupted in flight (bit flip, truncation) are
//    rejected by the CRC seal with CorruptArtifactError; previously loaded
//    snapshots stay usable.
//  * Soak: randomized bounded fault plans through a multi-threaded
//    serve + swap never deadlock and always satisfy the exact accounting
//    identities — offered == packets + shed, packets == decisions +
//    warmup + shed.inference — ending healthy.
#include "runtime/fault.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <memory>
#include <random>
#include <thread>
#include <tuple>
#include <vector>

#include "compiler/compiler.hpp"
#include "control/registry.hpp"
#include "core/operators.hpp"
#include "core/stream_io.hpp"
#include "eval/experiment.hpp"
#include "runtime/stream_server.hpp"
#include "traffic/synthetic.hpp"

namespace core = pegasus::core;
namespace comp = pegasus::compiler;
namespace ctrl = pegasus::control;
namespace rt = pegasus::runtime;
namespace tr = pegasus::traffic;
namespace ev = pegasus::eval;
namespace fs = std::filesystem;

namespace {

/// Same small 16-dim model family the stream-server tests serve.
rt::LoweredModel Build16DimModel(std::span<const float> train_x,
                                 std::size_t n, std::uint64_t seed) {
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
  return comp::CompileToSwitch(b.Finish(out), train_x, n).lowered;
}

std::shared_ptr<const rt::LoweredModel> Alias(const rt::LoweredModel& m) {
  return std::shared_ptr<const rt::LoweredModel>(std::shared_ptr<void>{}, &m);
}

struct Fixture {
  tr::Dataset ds;
  rt::LoweredModel v1;
  rt::LoweredModel v2;
  std::vector<tr::TracePacket> trace;
};

const Fixture& SharedFixture() {
  static const Fixture* fx = [] {
    auto* f = new Fixture;
    f->ds = tr::Generate(tr::PeerRushSpec(8, 2025));
    const auto offline = tr::ExtractSeqFeatures(f->ds.flows);
    f->v1 = Build16DimModel(offline.x, offline.size(), 51);
    f->v2 = Build16DimModel(offline.x, offline.size(), 52);
    f->trace = tr::MergeTrace(f->ds.flows);
    return f;
  }();
  return *fx;
}

rt::StreamServerOptions BaseOptions(std::size_t shards) {
  rt::StreamServerOptions opts;
  opts.num_shards = shards;
  opts.flows_per_shard = 1 << 10;
  opts.batch_size = 32;
  opts.feature = rt::FeatureKind::kSeq;
  return opts;
}

/// A versioned model for the registry tests (4-dim, like test_control's).
comp::VersionedModel CompileSmall(std::uint64_t seed) {
  core::ProgramBuilder b(4);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> wdist(-0.05f, 0.05f);
  std::vector<float> w(4 * 3);
  for (float& v : w) v = wdist(rng);
  core::ValueId v =
      core::AppendFullyConnected(b, b.input(), w, 4, 3, {}, 2, 24);
  v = b.Map(v, core::MakeReLU(3), 24);
  std::uniform_real_distribution<float> dist(0.0f, 255.0f);
  std::vector<float> x(1000 * 4);
  for (float& f : x) f = std::floor(dist(rng));
  return comp::CompileVersioned(b.Finish(v), x, 1000);
}

}  // namespace

// ---------------------------------------------------------------------------
// The injector itself
// ---------------------------------------------------------------------------

TEST(FaultInjector, DisarmedHooksNeverFire) {
  ASSERT_FALSE(rt::FaultInjector::Instance().armed());
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(rt::FaultFires(rt::FaultSite::kRingPushStall));
  }
  EXPECT_EQ(rt::FaultInjector::Instance().Param(rt::FaultSite::kWorkerSlow),
            0u);
}

TEST(FaultInjector, ScheduleFiresOnFirstEveryUpToLimit) {
  rt::FaultPlan plan;
  plan.Arm(rt::FaultSite::kInferenceFault, /*first=*/2, /*every=*/3,
           /*limit=*/2, /*param=*/7);
  rt::FaultScope scope(plan);
  std::vector<std::size_t> fired_at;
  for (std::size_t hit = 0; hit < 12; ++hit) {
    if (rt::FaultFires(rt::FaultSite::kInferenceFault)) fired_at.push_back(hit);
  }
  // Schedule: hits 2, 5, 8, ... — capped at 2 fires.
  EXPECT_EQ(fired_at, (std::vector<std::size_t>{2, 5}));
  const auto stats =
      rt::FaultInjector::Instance().stats(rt::FaultSite::kInferenceFault);
  EXPECT_EQ(stats.hits, 12u);
  EXPECT_EQ(stats.fires, 2u);
  EXPECT_EQ(rt::FaultInjector::Instance().Param(rt::FaultSite::kInferenceFault),
            7u);
  // Other sites are hit-counted but never fire.
  EXPECT_FALSE(rt::FaultFires(rt::FaultSite::kWireCorrupt));
}

TEST(FaultInjector, ScopeDisarmsOnExitEvenThroughExceptions) {
  rt::FaultPlan plan;
  plan.Arm(rt::FaultSite::kWorkerSlow, 0, 1, 100, 5);
  try {
    rt::FaultScope scope(plan);
    ASSERT_TRUE(rt::FaultInjector::Instance().armed());
    throw std::runtime_error("boom");
  } catch (const std::runtime_error&) {
  }
  EXPECT_FALSE(rt::FaultInjector::Instance().armed());
  EXPECT_FALSE(rt::FaultFires(rt::FaultSite::kWorkerSlow));
}

TEST(FaultInjector, RandomizedPlansAreBoundedAndDataplaneOnly) {
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    const auto plan = rt::FaultPlan::Randomized(seed);
    EXPECT_EQ(plan.seed, seed);
    // Artifact sites stay disarmed — Randomized stresses the serving loop.
    EXPECT_FALSE(plan.at(rt::FaultSite::kEnvelopeBitFlip).armed);
    EXPECT_FALSE(plan.at(rt::FaultSite::kEnvelopeTruncate).armed);
    EXPECT_FALSE(plan.at(rt::FaultSite::kWireCorrupt).armed);
    for (const auto& spec : plan.sites) {
      if (!spec.armed) continue;
      EXPECT_GE(spec.every, 1u);
      EXPECT_LE(spec.limit, 64u);     // bounded fires: the run always drains
      EXPECT_LE(spec.param, 2000u);   // bounded stall microseconds
    }
    // Determinism: the same seed yields the same plan.
    const auto again = rt::FaultPlan::Randomized(seed);
    for (std::size_t i = 0; i < rt::kNumFaultSites; ++i) {
      EXPECT_EQ(plan.sites[i].armed, again.sites[i].armed);
      EXPECT_EQ(plan.sites[i].first, again.sites[i].first);
      EXPECT_EQ(plan.sites[i].every, again.sites[i].every);
      EXPECT_EQ(plan.sites[i].limit, again.sites[i].limit);
      EXPECT_EQ(plan.sites[i].param, again.sites[i].param);
    }
  }
}

TEST(FaultInjector, SiteNamesAreStable) {
  EXPECT_STREQ(rt::FaultSiteName(rt::FaultSite::kRingPushStall),
               "ring_push_stall");
  EXPECT_STREQ(rt::FaultSiteName(rt::FaultSite::kSwapPublishFail),
               "swap_publish_fail");
  EXPECT_STREQ(rt::FaultSiteName(rt::FaultSite::kWireCorrupt), "wire_corrupt");
}

// ---------------------------------------------------------------------------
// Transactional swap
// ---------------------------------------------------------------------------

TEST(FaultSwap, SingleThreadedPublishFailureRollsBackAppliedShards) {
  const auto& fx = SharedFixture();
  auto opts = BaseOptions(4);
  rt::StreamServer server(Alias(fx.v1), opts);
  // Serve the first half so shards hold live state and partial batches.
  const std::size_t half = fx.trace.size() / 2;
  for (std::size_t i = 0; i < half; ++i) server.Push(fx.trace[i]);

  {
    // Fail on the THIRD shard apply: shards 0 and 1 have already swapped
    // and must be rolled back to v1.
    rt::FaultPlan plan;
    plan.Arm(rt::FaultSite::kSwapPublishFail, /*first=*/2, 1, 1);
    rt::FaultScope scope(plan);
    EXPECT_THROW(server.SwapModel(Alias(fx.v2), 2), rt::SwapError);
    EXPECT_EQ(server.active_version(), 1u);
    // The fault budget is spent — the same version retries successfully.
    server.SwapModel(Alias(fx.v2), 2);
    EXPECT_EQ(server.active_version(), 2u);
  }
  for (std::size_t i = half; i < fx.trace.size(); ++i) server.Push(fx.trace[i]);
  server.Flush();

  const auto stats = server.Stats();
  // Engine rebuilds: 2 forward + 2 rollback (failed attempt) + 4 (retry).
  EXPECT_EQ(stats.swaps, 8u);
  EXPECT_EQ(stats.packets, fx.trace.size());
  EXPECT_EQ(stats.decisions + stats.warmup, stats.packets);
  // Decisions match a clean run with the swap at the same packet boundary:
  // the failed attempt was hitless.
  rt::StreamServer clean(Alias(fx.v1), opts);
  auto clean_run = ev::ServeTraceWithSwap(clean, fx.trace, half,
                                          Alias(fx.v2), 2);
  auto got = server.TakeDecisions();
  auto sort = [](std::vector<rt::StreamDecision>& v) {
    std::sort(v.begin(), v.end(),
              [](const rt::StreamDecision& a, const rt::StreamDecision& b) {
                return std::tie(a.flow, a.index) < std::tie(b.flow, b.index);
              });
  };
  sort(got);
  sort(clean_run.decisions);
  ASSERT_EQ(got.size(), clean_run.decisions.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].predicted, clean_run.decisions[i].predicted);
    EXPECT_EQ(got[i].version, clean_run.decisions[i].version);
  }
}

TEST(FaultSwap, MultiThreadedProbeFailureLeavesRingsUntouched) {
  const auto& fx = SharedFixture();
  auto opts = BaseOptions(2);
  opts.multithreaded = true;
  rt::StreamServer server(Alias(fx.v1), opts);
  server.Start();
  const std::size_t half = fx.trace.size() / 2;
  for (std::size_t i = 0; i < half; ++i) server.Push(fx.trace[i]);
  {
    rt::FaultPlan plan;
    plan.Arm(rt::FaultSite::kSwapPublishFail, 0, 1, 1);
    rt::FaultScope scope(plan);
    EXPECT_THROW(server.SwapModel(Alias(fx.v2), 2), rt::SwapError);
    EXPECT_EQ(server.active_version(), 1u);
    server.SwapModel(Alias(fx.v2), 2);
    EXPECT_EQ(server.active_version(), 2u);
  }
  for (std::size_t i = half; i < fx.trace.size(); ++i) server.Push(fx.trace[i]);
  server.Stop();
  const auto stats = server.Stats();
  EXPECT_EQ(stats.packets, fx.trace.size());
  EXPECT_EQ(stats.decisions + stats.warmup, stats.packets);
  EXPECT_EQ(stats.active_version, 2u);
  // The failed probe never reached a ring: one successful swap per shard.
  EXPECT_EQ(stats.swaps, 2u);
  bool saw_v2 = false;
  for (const auto& d : server.TakeDecisions()) saw_v2 |= d.version == 2;
  EXPECT_TRUE(saw_v2);
}

// ---------------------------------------------------------------------------
// Inference retry ladder
// ---------------------------------------------------------------------------

TEST(FaultInference, TransientFaultWithinRetryBudgetChangesNothing) {
  const auto& fx = SharedFixture();
  auto opts = BaseOptions(1);
  opts.inference_retry_backoff_us = 1;  // keep the test fast

  rt::StreamServer clean(Alias(fx.v1), opts);
  const auto want = clean.Serve(fx.trace);

  rt::StreamServer server(Alias(fx.v1), opts);
  rt::FaultPlan plan;
  // Two consecutive throws on the first flush: retries 3 > 2, recovered.
  plan.Arm(rt::FaultSite::kInferenceFault, 0, 1, 2);
  rt::FaultScope scope(plan);
  const auto got = server.Serve(fx.trace);

  const auto stats = server.Stats();
  EXPECT_EQ(stats.inference_faults, 2u);
  EXPECT_EQ(stats.batches_dropped, 0u);
  EXPECT_EQ(stats.shed.inference, 0u);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].predicted, want[i].predicted);
    EXPECT_EQ(got[i].score, want[i].score);
  }
}

TEST(FaultInference, PersistentFaultShedsTheBatchAndKeepsServing) {
  const auto& fx = SharedFixture();
  auto opts = BaseOptions(1);
  opts.inference_retries = 2;
  opts.inference_retry_backoff_us = 1;

  rt::StreamServer server(Alias(fx.v1), opts);
  rt::FaultPlan plan;
  // More consecutive throws than the retry budget (2 retries = 3 attempts)
  // on the first flush only: that batch sheds, later batches are clean.
  plan.Arm(rt::FaultSite::kInferenceFault, 0, 1, 3);
  rt::FaultScope scope(plan);
  const auto decisions = server.Serve(fx.trace);

  const auto stats = server.Stats();
  EXPECT_EQ(stats.inference_faults, 3u);
  EXPECT_EQ(stats.batches_dropped, 1u);
  EXPECT_EQ(stats.shed.inference, opts.batch_size);
  // The exact accounting identity: shed-at-inference packets were counted
  // as processed but produced no decision.
  EXPECT_EQ(stats.packets, fx.trace.size());
  EXPECT_EQ(stats.decisions + stats.warmup + stats.shed.inference,
            stats.packets);
  EXPECT_EQ(stats.decisions, decisions.size());
  EXPECT_GT(decisions.size(), 0u) << "later batches must keep serving";
}

// ---------------------------------------------------------------------------
// Watchdog
// ---------------------------------------------------------------------------

TEST(FaultWatchdog, FlagsStuckWorkerThenSelfClears) {
  const auto& fx = SharedFixture();
  auto opts = BaseOptions(1);
  opts.multithreaded = true;
  opts.queue_capacity = 1 << 12;
  opts.watchdog_interval_us = 500;
  opts.watchdog_stall_intervals = 3;
  rt::StreamServer server(Alias(fx.v1), opts);

  rt::FaultPlan plan;
  // One 80ms heartbeat-frozen sleep after the first burst: far past the
  // 3 x 500us stall window, far below any test timeout.
  plan.Arm(rt::FaultSite::kWorkerStuck, 0, 1, 1, 80'000);
  rt::FaultScope scope(plan);

  server.Start();
  // Push a prefix smaller than the ring so Push never blocks: the worker
  // freezes after its first burst with the rest still queued, which is
  // exactly the watchdog's "stagnant heartbeat + pending work" condition —
  // and the producer is free to poll TelemetrySnapshot() during the stall.
  const std::size_t pushed = std::min<std::size_t>(fx.trace.size(), 1000);
  for (std::size_t i = 0; i < pushed; ++i) server.Push(fx.trace[i]);

  bool saw_stall = false;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    const auto health = server.TelemetrySnapshot();
    ASSERT_TRUE(health.running);
    if (!health.healthy()) {
      saw_stall = true;
      EXPECT_TRUE(health.shards[0].stalled);
      EXPECT_GE(health.stall_events, 1u);
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  EXPECT_TRUE(saw_stall) << "watchdog never flagged the frozen worker";

  // Once the sleep ends the worker drains and the flag self-clears.
  bool cleared = false;
  while (std::chrono::steady_clock::now() < deadline) {
    const auto health = server.TelemetrySnapshot();
    if (health.healthy() && health.shards[0].ring_depth == 0) {
      cleared = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(cleared) << "stall flag never self-cleared";

  server.Stop();
  const auto stats = server.Stats();
  EXPECT_GE(stats.stall_events, 1u);
  EXPECT_GT(stats.watchdog_checks, 0u);
  EXPECT_EQ(stats.packets, pushed);
  const auto health = server.TelemetrySnapshot();
  EXPECT_FALSE(health.running);
  EXPECT_TRUE(health.healthy()) << "quiesced server must report healthy";
  EXPECT_EQ(health.shards[0].packets, pushed);
}

// ---------------------------------------------------------------------------
// Registry envelope corruption
// ---------------------------------------------------------------------------

TEST(FaultRegistry, CorruptedEnvelopesAreRejectedBySeal) {
  const fs::path dir = ::testing::TempDir();
  const auto good_path = (dir / "fault_env_good.bin").string();
  const auto flip_path = (dir / "fault_env_flip.bin").string();
  const auto trunc_path = (dir / "fault_env_trunc.bin").string();

  ctrl::ModelRegistry reg;
  reg.Publish("clf", CompileSmall(3));

  // Clean publish round-trips.
  reg.SaveModelToFile(good_path, "clf", 1);
  ctrl::ModelRegistry other;
  const auto snap = other.LoadModelFromFile(good_path);
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->name, "clf");
  EXPECT_EQ(snap->version, 1u);

  {
    // One flipped payload byte: the magic still matches, so only the CRC
    // seal can catch it.
    rt::FaultPlan plan;
    plan.Arm(rt::FaultSite::kEnvelopeBitFlip, 0, 1, 1, /*param=*/12345);
    rt::FaultScope scope(plan);
    reg.SaveModelToFile(flip_path, "clf", 1);
  }
  ctrl::ModelRegistry r2;
  EXPECT_THROW(r2.LoadModelFromFile(flip_path), core::CorruptArtifactError);

  {
    rt::FaultPlan plan;
    plan.Arm(rt::FaultSite::kEnvelopeTruncate, 0, 1, 1);
    rt::FaultScope scope(plan);
    reg.SaveModelToFile(trunc_path, "clf", 1);
  }
  ctrl::ModelRegistry r3;
  EXPECT_THROW(r3.LoadModelFromFile(trunc_path), core::CorruptArtifactError);

  // A missing file is the same structured failure, not a crash.
  ctrl::ModelRegistry r4;
  EXPECT_THROW(r4.LoadModelFromFile((dir / "no_such_file.bin").string()),
               core::CorruptArtifactError);

  // The snapshot loaded before the corruption is untouched and usable.
  const std::vector<float> probe_in{1.0f, 2.0f, 3.0f, 4.0f};
  EXPECT_EQ(snap->lowered->InferRaw(probe_in).size(), 3u);

  // And the good file still loads after all the corrupt publishes (they
  // went to their own paths via tmp+rename — nothing scribbled on it).
  ctrl::ModelRegistry r5;
  EXPECT_NE(r5.LoadModelFromFile(good_path), nullptr);
}

// ---------------------------------------------------------------------------
// Soak
// ---------------------------------------------------------------------------

TEST(FaultSoak, RandomizedPlansNeverBreakAccountingOrHealth) {
  const auto& fx = SharedFixture();
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto plan = rt::FaultPlan::Randomized(seed);
    rt::FaultScope scope(plan);

    auto opts = BaseOptions(4);
    opts.multithreaded = true;
    opts.queue_capacity = 256;
    opts.shed = true;
    // A short ladder so injected ring stalls actually shed sometimes.
    opts.escalation = rt::EscalationPolicy{8, 8, 4, 1, 32};
    opts.watchdog_interval_us = 500;
    opts.watchdog_stall_intervals = 2;
    opts.inference_retry_backoff_us = 1;
    rt::StreamServer server(Alias(fx.v1), opts);

    server.Start();
    const std::size_t half = fx.trace.size() / 2;
    for (std::size_t i = 0; i < half; ++i) server.Push(fx.trace[i]);
    bool swapped = true;
    try {
      server.SwapModel(Alias(fx.v2), 2);
    } catch (const rt::SwapError&) {
      swapped = false;  // kSwapPublishFail fired — still serving v1
    }
    for (std::size_t i = half; i < fx.trace.size(); ++i) {
      server.Push(fx.trace[i]);
    }
    server.Stop();

    const auto stats = server.Stats();
    // The exact accounting identities, regardless of what fired.
    EXPECT_EQ(stats.packets + stats.shed.ring_full + stats.shed.misrouted,
              fx.trace.size());
    EXPECT_EQ(stats.decisions + stats.warmup + stats.shed.inference,
              stats.packets);
    EXPECT_EQ(stats.active_version, swapped ? 2u : 1u);
    EXPECT_EQ(stats.shed.misrouted, 0u);

    const auto decisions = server.TakeDecisions();
    EXPECT_EQ(decisions.size(), stats.decisions);
    for (const auto& d : decisions) {
      EXPECT_TRUE(d.version == 1 || (swapped && d.version == 2));
    }

    // Always ends healthy: drained, quiesced, no stuck flags.
    const auto health = server.TelemetrySnapshot();
    EXPECT_FALSE(health.running);
    EXPECT_TRUE(health.healthy());
    for (const auto& sh : health.shards) {
      EXPECT_EQ(sh.ring_depth, 0u);
    }

    // A bounded plan fully drains: every armed fire budget is finite and
    // the injector never exceeds it.
    for (std::size_t i = 0; i < rt::kNumFaultSites; ++i) {
      const auto s = rt::FaultInjector::Instance().stats(
          static_cast<rt::FaultSite>(i));
      EXPECT_LE(s.fires, plan.sites[i].armed ? plan.sites[i].limit : 0u);
    }
  }
}

// Disarmed fault hooks must not perturb determinism: MT == ST per-flow
// decisions with the hooks compiled in (the hooks are in the hot path of
// every Push/flush — this pins "branch-predictable no-op" behaviorally).
TEST(FaultSoak, DisarmedHooksPreserveMtStEquality) {
  const auto& fx = SharedFixture();
  ASSERT_FALSE(rt::FaultInjector::Instance().armed());
  auto opts = BaseOptions(4);
  rt::StreamServer st(Alias(fx.v1), opts);
  auto st_dec = st.Serve(fx.trace);
  opts.multithreaded = true;
  rt::StreamServer mt(Alias(fx.v1), opts);
  auto mt_dec = mt.Serve(fx.trace);
  auto sort = [](std::vector<rt::StreamDecision>& v) {
    std::sort(v.begin(), v.end(),
              [](const rt::StreamDecision& a, const rt::StreamDecision& b) {
                return std::tie(a.flow, a.index) < std::tie(b.flow, b.index);
              });
  };
  sort(st_dec);
  sort(mt_dec);
  ASSERT_EQ(st_dec.size(), mt_dec.size());
  for (std::size_t i = 0; i < st_dec.size(); ++i) {
    EXPECT_EQ(st_dec[i].flow, mt_dec[i].flow);
    EXPECT_EQ(st_dec[i].index, mt_dec[i].index);
    EXPECT_EQ(st_dec[i].predicted, mt_dec[i].predicted);
    EXPECT_EQ(st_dec[i].score, mt_dec[i].score);
  }
}
