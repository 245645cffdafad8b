// Exposition: JSON and Prometheus-text writers over a TelemetrySnapshot
// (telemetry.hpp), plus an optional background StatsReporter thread that
// emits one line-rate summary per tick to any ostream. bench_stream writes
// one snapshot to BENCH_telemetry.json; the CI latency gate compares runs
// by the quantiles recorded there.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <ostream>
#include <thread>

#include "telemetry/telemetry.hpp"

namespace pegasus::telemetry {

/// Machine-readable JSON (one object; stable key order; no dependency on
/// a JSON library — same discipline as the bench emitters). Every counter
/// of PEGASUS_SHARD_COUNTERS appears under its own name, server-wide at the
/// top level and per shard in the `shards` rows.
void WriteJson(const TelemetrySnapshot& snap, std::ostream& os);

/// Prometheus text exposition format. One family per counter (see
/// PEGASUS_SHARD_COUNTERS for names and types): an unlabelled sample with
/// the server-wide value, then one sample per shard labelled shard="i".
/// Stage histograms are cumulative le-labelled buckets in seconds.
void WritePrometheus(const TelemetrySnapshot& snap, std::ostream& os);

/// Background reporter: calls `take` every `interval_ms` and writes one
/// human-oriented line per tick (pps, shed rate, max ring depth/HWM, hit
/// rate, e2e p50/p99/p999) to `os`. Rates come from diffing consecutive
/// snapshots. The callback form keeps this header free of the runtime —
/// pass [&server] { return server.TelemetrySnapshot(); }.
class StatsReporter {
 public:
  using SnapshotFn = std::function<TelemetrySnapshot()>;

  StatsReporter(SnapshotFn take, std::ostream& os,
                std::uint64_t interval_ms = 1000);
  ~StatsReporter();

  StatsReporter(const StatsReporter&) = delete;
  StatsReporter& operator=(const StatsReporter&) = delete;

  void Start();
  /// Stops the thread after emitting one final line (so short runs still
  /// produce output). Idempotent; the destructor calls it.
  void Stop();
  std::uint64_t ticks() const {
    return ticks_.load(std::memory_order_relaxed);
  }

 private:
  void Loop();
  void EmitLine(const TelemetrySnapshot& cur);

  SnapshotFn take_;
  std::ostream& os_;
  std::uint64_t interval_ms_;
  TelemetrySnapshot last_;
  bool has_last_ = false;
  std::atomic<std::uint64_t> ticks_{0};
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace pegasus::telemetry
