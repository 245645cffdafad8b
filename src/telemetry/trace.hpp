// Flight-recorder tracing: a fixed-size ring of timestamped events that
// keeps the LAST `capacity` things that happened — sampled packet spans
// plus every lifecycle event (swap begin/publish/rollback, delta apply,
// shed, watchdog stall/clear). Recording is lock-free and
// allocation-free; the ring can be dumped on demand (or on stall) while
// writers keep going, and tools/trace_to_chrome.py turns a dump into
// Chrome trace-event JSON viewable in Perfetto.
//
// Concurrency: most rings have one writer (the owning shard worker), but
// the control ring takes events from the producer thread, ingest threads
// and the watchdog at once — so Record() claims a slot with a fetch_add
// cursor, then takes the slot exclusively: it swaps the slot's published
// `seq` for a busy marker (compare-exchange, acquire), stores the payload
// (release) and publishes its own seq (release). Two writers a capacity
// apart never write one slot at once; the older of them, when it finds
// the newer already published, drops its event, so the ring keeps the
// last `capacity` claims. A reader validates seq before AND after copying
// the payload (acquire loads) and drops the slot if a writer took it
// mid-read. A flight recorder tolerates losing such a slot by design — it
// is a diagnostic buffer, not an accounting structure (counters own
// exactness).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <ostream>
#include <vector>

namespace pegasus::telemetry {

enum class TraceEventKind : std::uint8_t {
  /// One sampled packet's end-to-end span (dur_ns = push -> decision);
  /// arg_a = flow digest, arg_b = model version that decided it.
  kPacketSpan = 0,
  /// A batch flush span on a shard; arg_a = batch rows.
  kBatchFlush,
  /// Producer-side swap intent (control ring); arg_a = target version.
  kSwapBegin,
  /// One shard finished applying a swap (dur_ns = flush + engine rebuild
  /// gap); arg_a = new version.
  kSwapApply,
  /// Producer-side swap success (control ring); arg_a = new version.
  kSwapPublish,
  /// Producer-side swap failure rolled back (control ring); arg_a = the
  /// version that failed to publish, arg_b = the version still serving.
  kSwapRollback,
  /// O(delta) publish (control ring); arg_a = new version, arg_b = bytes
  /// pushed, dur_ns = clone+patch+publish wall time.
  kDeltaApply,
  /// Packets shed; arg_a = count, arg_b = reason (0 ring_full,
  /// 1 misrouted, 2 inference).
  kShed,
  /// Watchdog flagged / cleared a stall on shard `shard`.
  kStall,
  kStallClear,
};

const char* TraceEventKindName(TraceEventKind kind);

struct TraceEvent {
  /// Global claim order (1-based): a total order over ring writes, which
  /// breaks ties between events with equal timestamps.
  std::uint64_t seq = 0;
  /// Nanoseconds since the owning ServerTelemetry's steady-clock epoch.
  std::uint64_t ts_ns = 0;
  /// Span duration (0 for instant events).
  std::uint64_t dur_ns = 0;
  std::uint64_t arg_a = 0;
  std::uint64_t arg_b = 0;
  /// Owning shard, or TraceEvent::kControlTrack for server-wide events.
  std::uint32_t shard = 0;
  TraceEventKind kind = TraceEventKind::kPacketSpan;

  static constexpr std::uint32_t kControlTrack = 0xffffffffu;
};

/// The ring. Capacity 0 builds a disabled ring whose Record() is a no-op
/// returning immediately — the "telemetry compiled in but off" shape.
/// Nonzero capacities round up to a power of two.
class EventRing {
 public:
  explicit EventRing(std::size_t capacity);

  EventRing(const EventRing&) = delete;
  EventRing& operator=(const EventRing&) = delete;

  bool enabled() const { return capacity_ != 0; }
  std::size_t capacity() const { return capacity_; }
  /// Events ever recorded (recorded - capacity have been overwritten).
  std::uint64_t recorded() const {
    return cursor_.load(std::memory_order_relaxed);
  }

  /// Records one event, or drops it when its slot already holds a newer
  /// claim's (a writer lapped this one before it took the slot).
  void Record(TraceEventKind kind, std::uint32_t shard, std::uint64_t ts_ns,
              std::uint64_t dur_ns = 0, std::uint64_t arg_a = 0,
              std::uint64_t arg_b = 0);

  /// Copies out every valid slot (unsorted; order by (ts_ns, seq) after
  /// merging rings). Safe to call while writers record.
  std::vector<TraceEvent> Dump() const;

  void Reset();

 private:
  struct Slot {
    /// 0 = empty, kBusy while a writer holds the slot; otherwise claim
    /// index + 1, stored with release ordering after the payload.
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> ts_ns{0};
    std::atomic<std::uint64_t> dur_ns{0};
    std::atomic<std::uint64_t> arg_a{0};
    std::atomic<std::uint64_t> arg_b{0};
    /// shard in the low 32 bits, kind in the high bits.
    std::atomic<std::uint64_t> kind_shard{0};
  };

  static constexpr std::uint64_t kBusy = ~std::uint64_t{0};

  std::unique_ptr<Slot[]> slots_;
  std::size_t capacity_ = 0;
  std::size_t mask_ = 0;
  std::atomic<std::uint64_t> cursor_{0};
};

/// Merges + time-orders the given per-ring dumps into one stream.
std::vector<TraceEvent> MergeTraceDumps(
    std::vector<std::vector<TraceEvent>> dumps);

/// Writes a dump as the repo's structured trace JSON:
///   {"clock": "steady_ns_since_telemetry_start", "events": [
///     {"seq":..,"ts_ns":..,"dur_ns":..,"kind":"swap_publish",
///      "shard":..,"a":..,"b":..}, ...]}
/// tools/trace_to_chrome.py converts this to Chrome trace-event JSON.
void WriteTraceJson(const std::vector<TraceEvent>& events, std::ostream& os);

}  // namespace pegasus::telemetry
