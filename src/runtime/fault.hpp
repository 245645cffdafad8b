// Deterministic fault injection for the serving stack.
//
// Production dataplanes do not get to choose their failures: corrupted
// model envelopes, stalled shard workers, transient inference faults and
// overloaded rings all happen, and the only way to prove the system
// survives them is to make them happen on demand. This header defines the
// repo's failpoint mechanism (the libfailpoint / fail-rs idiom): named
// fault *sites* are compiled permanently into the runtime's hot paths as
// `FaultFires(site)` hooks, and a seed-driven FaultPlan arms a subset of
// them with deterministic trigger schedules.
//
// Cost when disarmed (the only state production code ever runs in): one
// relaxed atomic load of a process-global flag and a fall-through branch —
// the branch predictor learns it immediately, so Release throughput is
// unchanged (bench_stream numbers are identical with the hooks compiled
// in). Only when a plan is armed does the hook take the out-of-line slow
// path that counts hits and consults the schedule.
//
// Determinism: a site's schedule is a pure function of its hit counter
// (fire from hit `first`, every `every` hits, at most `limit` times), so a
// single-threaded run under a fixed plan is exactly reproducible. Under
// multiple threads the global hit order depends on interleaving — the soak
// tests therefore assert *invariants* (no deadlock, exact accounting,
// rollback) rather than exact fire positions. Every plan is bounded:
// `limit` is finite, so injected faults always clear and backpressure
// always drains.
//
// Arming is process-global (the hooks live in code that has no test handle
// to thread a context through); tests serialize access via FaultScope,
// which disarms on scope exit even on exception paths.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace pegasus::runtime {

/// The named fault sites compiled into the runtime. Each one lives at a
/// specific seam of the serving stack (see the table in README's
/// "Robustness & fault injection" section).
enum class FaultSite : std::uint8_t {
  /// StreamServer ingest push: the target ring pretends to be full for
  /// this round, driving the spin→yield→backoff→shed escalation ladder.
  kRingPushStall = 0,
  /// Shard worker: sleeps `param` microseconds after a burst (slow
  /// consumer — backpressure builds up but progress continues).
  kWorkerSlow = 1,
  /// Shard worker: sleeps `param` microseconds with the heartbeat frozen
  /// (stuck consumer — the watchdog must flag the stall and clear it when
  /// the worker resumes).
  kWorkerStuck = 2,
  /// Shard flush: the inference engine throws before the batch runs
  /// (transient by construction — bounded by `limit` — so the bounded
  /// retry ladder either recovers the batch or sheds it, accounted).
  kInferenceFault = 3,
  /// ModelRegistry file publish: one byte of the serialized envelope is
  /// flipped before it reaches disk (torn/corrupt write). The CRC32 check
  /// in LoadModel must reject it with CorruptArtifactError.
  kEnvelopeBitFlip = 4,
  /// ModelRegistry file publish: the envelope is truncated to half before
  /// it reaches disk. Load must reject it, never over-allocate.
  kEnvelopeTruncate = 5,
  /// StreamServer::SwapModel: the swap's engine build throws mid-publish.
  /// The transactional swap must roll every shard back to the serving
  /// model and surface SwapError.
  kSwapPublishFail = 6,
  /// io::WireParser: one byte of the frame is flipped before parsing
  /// (corrupt capture bytes). The parser must drop or mis-parse cleanly —
  /// never crash, never read out of bounds.
  kWireCorrupt = 7,
};

inline constexpr std::size_t kNumFaultSites = 8;

const char* FaultSiteName(FaultSite site);

/// One site's trigger schedule, evaluated against the site's hit counter:
/// armed sites fire on hits `first, first + every, first + 2*every, ...`
/// until `limit` fires have happened. `param` carries a site-specific
/// magnitude (stall microseconds, corruption byte seed).
struct FaultSpec {
  bool armed = false;
  std::uint64_t first = 0;
  std::uint64_t every = 1;
  std::uint64_t limit = 1;
  std::uint64_t param = 0;
};

/// A full schedule over every site. Build by hand for targeted tests or
/// via Randomized() for soak runs.
struct FaultPlan {
  std::uint64_t seed = 0;
  std::array<FaultSpec, kNumFaultSites> sites{};

  FaultSpec& at(FaultSite site) {
    return sites[static_cast<std::size_t>(site)];
  }
  const FaultSpec& at(FaultSite site) const {
    return sites[static_cast<std::size_t>(site)];
  }

  /// Arms `site` with a simple schedule (fires `limit` times starting at
  /// hit `first`, every `every` hits). Returns *this for chaining.
  FaultPlan& Arm(FaultSite site, std::uint64_t first = 0,
                 std::uint64_t every = 1, std::uint64_t limit = 1,
                 std::uint64_t param = 0);

  /// Seed-driven soak schedule over the *dataplane* sites (ring stall,
  /// slow/stuck worker, inference fault, swap failure): each site is armed
  /// with probability ~1/2 with bounded fire counts and small stall
  /// magnitudes, so any seed yields a run that stresses the escalation /
  /// retry / rollback machinery yet always drains. The artifact sites
  /// (envelope corruption, wire corruption) are left to targeted tests —
  /// they fault *inputs*, not the serving loop.
  static FaultPlan Randomized(std::uint64_t seed);
};

/// Thrown by fault sites that simulate a component failure (inference
/// engine fault, swap publish failure). Deliberately a distinct type so
/// tests can tell an injected fault from a genuine one.
class FaultInjectedError : public std::runtime_error {
 public:
  FaultInjectedError(FaultSite site, const std::string& detail);
  FaultSite site() const { return site_; }

 private:
  FaultSite site_;
};

/// Process-global fault state. Hot paths call the inline FaultFires()
/// below; everything else (arming, stats) goes through Instance().
class FaultInjector {
 public:
  struct SiteStats {
    std::uint64_t hits = 0;
    std::uint64_t fires = 0;
  };

  static FaultInjector& Instance();

  /// Installs `plan` and enables the hooks. Counters reset to zero.
  void Arm(const FaultPlan& plan);
  /// Disables the hooks (counters keep their final values for reading).
  void Disarm();
  bool armed() const;

  /// Slow path behind FaultFires(): counts a hit at `site` and reports
  /// whether the armed schedule fires on it.
  bool Hit(FaultSite site);
  /// The armed `param` of `site` (0 when disarmed).
  std::uint64_t Param(FaultSite site) const;

  SiteStats stats(FaultSite site) const;
  std::uint64_t TotalFires() const;

 private:
  FaultInjector() = default;

  struct Site {
    FaultSpec spec;
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> fires{0};
  };
  std::array<Site, kNumFaultSites> sites_;
};

namespace fault_detail {
/// The one word every hook loads. Outside FaultInjector so the inline
/// fast path needs no function call at all.
extern std::atomic<bool> g_fault_enabled;
}  // namespace fault_detail

/// The hook compiled into runtime hot paths. Disarmed (always, outside
/// fault tests): one load + never-taken branch. The load is acquire (a
/// plain load on x86) so a hook that sees the gate open also sees the plan
/// Arm() wrote before opening it, even when a test arms mid-run.
inline bool FaultFires(FaultSite site) {
  if (!fault_detail::g_fault_enabled.load(std::memory_order_acquire))
      [[likely]] {
    return false;
  }
  return FaultInjector::Instance().Hit(site);
}

/// RAII arming for tests: arms `plan` on construction, disarms on scope
/// exit (exception-safe — a throwing assertion cannot leak an armed plan
/// into the next test).
class FaultScope {
 public:
  explicit FaultScope(const FaultPlan& plan) {
    FaultInjector::Instance().Arm(plan);
  }
  ~FaultScope() { FaultInjector::Instance().Disarm(); }
  FaultScope(const FaultScope&) = delete;
  FaultScope& operator=(const FaultScope&) = delete;
};

}  // namespace pegasus::runtime
