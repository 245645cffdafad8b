#include "telemetry/telemetry.hpp"

#include <algorithm>

namespace pegasus::telemetry {

const char* StageName(Stage stage) {
  switch (stage) {
    case Stage::kIngestNext:
      return "ingest_next";
    case Stage::kRingDwell:
      return "ring_dwell";
    case Stage::kFlowLookup:
      return "flow_lookup";
    case Stage::kFeatureExtract:
      return "feature_extract";
    case Stage::kInferFlush:
      return "infer_flush";
    case Stage::kSwapPublish:
      return "swap_publish";
    case Stage::kEndToEnd:
      return "end_to_end";
  }
  return "?";
}

CounterValues& CounterValues::Fold(const CounterValues& o) {
  for (const CounterField& f : kCounterFields) {
    this->*f.value = f.kind == CounterKind::kHighWater
                         ? std::max(this->*f.value, o.*f.value)
                         : this->*f.value + o.*f.value;
  }
  return *this;
}

void StageSnapshot::Finish() {
  count = hist.count;
  mean_ns = hist.Mean();
  p50_ns = hist.Quantile(0.50);
  p90_ns = hist.Quantile(0.90);
  p99_ns = hist.Quantile(0.99);
  p999_ns = hist.Quantile(0.999);
}

double TelemetrySnapshot::HitRate() const {
  const std::uint64_t total = table_hits + table_misses;
  return total == 0 ? 0.0
                    : static_cast<double>(table_hits) /
                          static_cast<double>(total);
}

TelemetrySnapshot ServerTelemetry::Snapshot() const {
  TelemetrySnapshot snap;
  snap.sample_every = opts_.sample_every;
  snap.tracing = tracing();
  snap.now_ns = NowNs();
  snap.watchdog_checks = watchdog_checks.value();
  snap.trace_events_recorded = control_.recorded();
  std::array<HistogramSnapshot, kNumStages> merged{};
  snap.shards.reserve(shards_.size());
  for (const auto& s : shards_) {
    ShardTelemetrySnapshot row;
    static_cast<CounterValues&>(row) = s->counters.Load();
    snap.Fold(row);
    snap.shards.push_back(row);
    for (std::size_t i = 0; i < kNumStages; ++i) {
      merged[i].Merge(s->stages.Snapshot(static_cast<Stage>(i)));
    }
    snap.trace_events_recorded += s->ring.recorded();
  }
  for (std::size_t i = 0; i < kNumStages; ++i) {
    snap.stages[i].stage = static_cast<Stage>(i);
    snap.stages[i].hist = merged[i];
    snap.stages[i].Finish();
  }
  return snap;
}

}  // namespace pegasus::telemetry
