#include "telemetry/exposition.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>

namespace pegasus::telemetry {

namespace {

/// `"name": value` for every counter, comma-separated.
void WriteCounterFields(const CounterValues& v, std::ostream& os) {
  const char* sep = "";
  for (const CounterField& f : kCounterFields) {
    os << sep << "\"" << f.name << "\": " << v.*f.value;
    sep = ", ";
  }
}

void WriteHistogramProm(std::ostream& os, const char* name,
                        const HistogramSnapshot& hist,
                        const char* stage_label) {
  // Cumulative le buckets in seconds (Prometheus convention). Only emit
  // buckets up to the last populated one, plus +Inf — 64 log2 buckets
  // per stage would be mostly-empty noise.
  std::size_t last = 0;
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    if (hist.buckets[i] != 0) last = i;
  }
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i <= last; ++i) {
    cum += hist.buckets[i];
    os << name << "_bucket{stage=\"" << stage_label << "\",le=\""
       << static_cast<double>(HistogramBucketHigh(i)) * 1e-9 << "\"} " << cum
       << "\n";
  }
  os << name << "_bucket{stage=\"" << stage_label << "\",le=\"+Inf\"} "
     << hist.count << "\n";
  os << name << "_sum{stage=\"" << stage_label << "\"} "
     << static_cast<double>(hist.sum) * 1e-9 << "\n";
  os << name << "_count{stage=\"" << stage_label << "\"} " << hist.count
     << "\n";
}

}  // namespace

void WriteJson(const TelemetrySnapshot& snap, std::ostream& os) {
  os << "{\n"
     << "  \"sample_every\": " << snap.sample_every << ",\n"
     << "  \"tracing\": " << (snap.tracing ? "true" : "false") << ",\n"
     << "  \"running\": " << (snap.running ? "true" : "false") << ",\n"
     << "  \"now_ns\": " << snap.now_ns << ",\n"
     << "  \"active_version\": " << snap.active_version << ",\n"
     << "  \"watchdog_checks\": " << snap.watchdog_checks << ",\n"
     << "  \"trace_events_recorded\": " << snap.trace_events_recorded
     << ",\n"
     << "  \"flow_table_hit_rate\": " << snap.HitRate() << ",\n  ";
  WriteCounterFields(snap, os);
  os << ",\n  \"stages\": {\n";
  for (std::size_t i = 0; i < kNumStages; ++i) {
    const StageSnapshot& st = snap.stages[i];
    os << "    \"" << StageName(static_cast<Stage>(i)) << "\": {"
       << "\"count\": " << st.count << ", \"mean_ns\": " << st.mean_ns
       << ", \"p50_ns\": " << st.p50_ns << ", \"p90_ns\": " << st.p90_ns
       << ", \"p99_ns\": " << st.p99_ns << ", \"p999_ns\": " << st.p999_ns
       << "}" << (i + 1 < kNumStages ? "," : "") << "\n";
  }
  os << "  },\n  \"shards\": [\n";
  for (std::size_t i = 0; i < snap.shards.size(); ++i) {
    const ShardTelemetrySnapshot& sh = snap.shards[i];
    os << "    {\"shard\": " << i << ", \"ring_depth\": " << sh.ring_depth
       << ", ";
    WriteCounterFields(sh, os);
    os << "}" << (i + 1 < snap.shards.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

void WritePrometheus(const TelemetrySnapshot& snap, std::ostream& os) {
  for (const CounterField& f : kCounterFields) {
    const bool counter = f.kind == CounterKind::kCounter;
    const std::string family =
        std::string("pegasus_") + f.name + (counter ? "_total" : "");
    os << "# HELP " << family << " " << f.help << "\n"
       << "# TYPE " << family << (counter ? " counter\n" : " gauge\n")
       << family << " " << snap.*f.value << "\n";
    for (std::size_t i = 0; i < snap.shards.size(); ++i) {
      os << family << "{shard=\"" << i << "\"} " << snap.shards[i].*f.value
         << "\n";
    }
  }
  os << "# TYPE pegasus_ring_depth gauge\n";
  for (std::size_t i = 0; i < snap.shards.size(); ++i) {
    os << "pegasus_ring_depth{shard=\"" << i << "\"} "
       << snap.shards[i].ring_depth << "\n";
  }
  os << "# TYPE pegasus_active_version gauge\n"
     << "pegasus_active_version " << snap.active_version << "\n"
     << "# TYPE pegasus_watchdog_checks_total counter\n"
     << "pegasus_watchdog_checks_total " << snap.watchdog_checks << "\n"
     << "# TYPE pegasus_flow_table_hit_rate gauge\n"
     << "pegasus_flow_table_hit_rate " << snap.HitRate() << "\n";
  os << "# TYPE pegasus_stage_latency_seconds histogram\n";
  for (std::size_t i = 0; i < kNumStages; ++i) {
    WriteHistogramProm(os, "pegasus_stage_latency_seconds",
                       snap.stages[i].hist,
                       StageName(static_cast<Stage>(i)));
  }
}

StatsReporter::StatsReporter(SnapshotFn take, std::ostream& os,
                             std::uint64_t interval_ms)
    : take_(std::move(take)), os_(os), interval_ms_(interval_ms) {}

StatsReporter::~StatsReporter() { Stop(); }

void StatsReporter::Start() {
  if (thread_.joinable()) return;
  stop_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { Loop(); });
}

void StatsReporter::Stop() {
  if (!thread_.joinable()) return;
  stop_.store(true, std::memory_order_release);
  thread_.join();
}

void StatsReporter::Loop() {
  // Sleep in small slices so Stop() returns promptly even with a long
  // interval; emit a final line on the way out so a run shorter than one
  // interval still reports.
  const auto slice = std::chrono::milliseconds(10);
  auto next = std::chrono::steady_clock::now() +
              std::chrono::milliseconds(interval_ms_);
  while (!stop_.load(std::memory_order_acquire)) {
    if (std::chrono::steady_clock::now() >= next) {
      EmitLine(take_());
      next += std::chrono::milliseconds(interval_ms_);
    }
    std::this_thread::sleep_for(slice);
  }
  EmitLine(take_());
}

void StatsReporter::EmitLine(const TelemetrySnapshot& cur) {
  double pps = 0.0;
  double shed_rate = 0.0;
  if (has_last_ && cur.now_ns > last_.now_ns) {
    const double dt =
        static_cast<double>(cur.now_ns - last_.now_ns) * 1e-9;
    pps = static_cast<double>(cur.packets - last_.packets) / dt;
    shed_rate =
        static_cast<double>(cur.shed_total() - last_.shed_total()) / dt;
  }
  std::size_t depth = 0;
  for (const auto& sh : cur.shards) depth = std::max(depth, sh.ring_depth);
  const StageSnapshot& e2e = cur.stage(Stage::kEndToEnd);
  char line[256];
  std::snprintf(line, sizeof(line),
                "[telemetry] pps=%.0f shed/s=%.0f ring=%zu hwm=%zu "
                "hit=%.3f e2e_p50=%.0fns p99=%.0fns p999=%.0fns v=%llu\n",
                pps, shed_rate, depth,
                static_cast<std::size_t>(cur.ring_depth_hwm), cur.HitRate(),
                e2e.p50_ns,
                e2e.p99_ns, e2e.p999_ns,
                static_cast<unsigned long long>(cur.active_version));
  os_ << line;
  os_.flush();
  last_ = cur;
  has_last_ = true;
  ticks_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace pegasus::telemetry
