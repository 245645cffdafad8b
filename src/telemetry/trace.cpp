#include "telemetry/trace.hpp"

#include <algorithm>
#include <bit>
#include <thread>

namespace pegasus::telemetry {

const char* TraceEventKindName(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kPacketSpan:
      return "packet_span";
    case TraceEventKind::kBatchFlush:
      return "batch_flush";
    case TraceEventKind::kSwapBegin:
      return "swap_begin";
    case TraceEventKind::kSwapApply:
      return "swap_apply";
    case TraceEventKind::kSwapPublish:
      return "swap_publish";
    case TraceEventKind::kSwapRollback:
      return "swap_rollback";
    case TraceEventKind::kDeltaApply:
      return "delta_apply";
    case TraceEventKind::kShed:
      return "shed";
    case TraceEventKind::kStall:
      return "stall";
    case TraceEventKind::kStallClear:
      return "stall_clear";
  }
  return "?";
}

EventRing::EventRing(std::size_t capacity) {
  if (capacity == 0) return;  // disabled: Record() no-ops
  capacity_ = std::bit_ceil(capacity);
  mask_ = capacity_ - 1;
  slots_ = std::make_unique<Slot[]>(capacity_);
}

void EventRing::Record(TraceEventKind kind, std::uint32_t shard,
                       std::uint64_t ts_ns, std::uint64_t dur_ns,
                       std::uint64_t arg_a, std::uint64_t arg_b) {
  if (slots_ == nullptr) [[unlikely]] {
    return;  // disabled ring — single predictable branch
  }
  const std::uint64_t claim = cursor_.fetch_add(1, std::memory_order_relaxed);
  Slot& s = slots_[claim & mask_];
  // Take the slot: swap its published seq (or 0) for kBusy. The acquire
  // orders this payload after the previous holder's; a slot another
  // writer holds is waited out, and one already published by a newer
  // claim keeps that event.
  std::uint64_t seen = s.seq.load(std::memory_order_relaxed);
  do {
    while (seen == kBusy) {
      std::this_thread::yield();
      seen = s.seq.load(std::memory_order_relaxed);
    }
    if (seen > claim + 1) return;
  } while (!s.seq.compare_exchange_weak(seen, kBusy,
                                        std::memory_order_acquire,
                                        std::memory_order_relaxed));
  // Release stores: a reader whose acquire load sees one of them also sees
  // kBusy (or a later seq) on its re-check, and drops the slot.
  s.ts_ns.store(ts_ns, std::memory_order_release);
  s.dur_ns.store(dur_ns, std::memory_order_release);
  s.arg_a.store(arg_a, std::memory_order_release);
  s.arg_b.store(arg_b, std::memory_order_release);
  s.kind_shard.store(
      (static_cast<std::uint64_t>(kind) << 32) | shard,
      std::memory_order_release);
  s.seq.store(claim + 1, std::memory_order_release);
}

std::vector<TraceEvent> EventRing::Dump() const {
  std::vector<TraceEvent> out;
  if (slots_ == nullptr) return out;
  out.reserve(capacity_);
  for (std::size_t i = 0; i < capacity_; ++i) {
    const Slot& s = slots_[i];
    const std::uint64_t seq = s.seq.load(std::memory_order_acquire);
    if (seq == 0 || seq == kBusy) continue;
    // Acquire loads rather than an acquire fence before the re-check: they
    // give the same order, and ThreadSanitizer models them (it does not
    // model standalone fences).
    TraceEvent e;
    e.seq = seq;
    e.ts_ns = s.ts_ns.load(std::memory_order_acquire);
    e.dur_ns = s.dur_ns.load(std::memory_order_acquire);
    e.arg_a = s.arg_a.load(std::memory_order_acquire);
    e.arg_b = s.arg_b.load(std::memory_order_acquire);
    const std::uint64_t ks = s.kind_shard.load(std::memory_order_acquire);
    e.shard = static_cast<std::uint32_t>(ks & 0xffffffffu);
    e.kind = static_cast<TraceEventKind>(ks >> 32);
    // Re-check: a writer that took this slot mid-copy set kBusy before
    // any payload store this copy could have seen — drop the torn read.
    if (s.seq.load(std::memory_order_relaxed) != seq) continue;
    out.push_back(e);
  }
  return out;
}

void EventRing::Reset() {
  if (slots_ == nullptr) return;
  for (std::size_t i = 0; i < capacity_; ++i) {
    slots_[i].seq.store(0, std::memory_order_relaxed);
  }
  cursor_.store(0, std::memory_order_relaxed);
}

std::vector<TraceEvent> MergeTraceDumps(
    std::vector<std::vector<TraceEvent>> dumps) {
  std::vector<TraceEvent> all;
  std::size_t total = 0;
  for (const auto& d : dumps) total += d.size();
  all.reserve(total);
  for (auto& d : dumps) {
    all.insert(all.end(), d.begin(), d.end());
  }
  std::sort(all.begin(), all.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
              if (a.shard != b.shard) return a.shard < b.shard;
              return a.seq < b.seq;
            });
  return all;
}

void WriteTraceJson(const std::vector<TraceEvent>& events, std::ostream& os) {
  os << "{\n  \"clock\": \"steady_ns_since_telemetry_start\",\n"
     << "  \"events\": [\n";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    os << "    {\"seq\": " << e.seq << ", \"ts_ns\": " << e.ts_ns
       << ", \"dur_ns\": " << e.dur_ns << ", \"kind\": \""
       << TraceEventKindName(e.kind) << "\", \"shard\": ";
    if (e.shard == TraceEvent::kControlTrack) {
      os << -1;
    } else {
      os << e.shard;
    }
    os << ", \"a\": " << e.arg_a << ", \"b\": " << e.arg_b << "}"
       << (i + 1 < events.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

}  // namespace pegasus::telemetry
