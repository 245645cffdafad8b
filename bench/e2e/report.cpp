// Statistics helpers and the Chrome trace-event writer.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "pegabench.hpp"

namespace pegabench {

namespace {

/// Perfetto opens multi-megabyte traces slowly; the earliest spans are
/// enough to read the story of a packet and a batch. Attribution always
/// uses every span.
constexpr std::size_t kMaxTraceSpans = 60'000;

int TrackOf(SpanName name) {
  switch (name) {
    case SpanName::kFlush:
    case SpanName::kEngine:
    case SpanName::kMarshal:
    case SpanName::kPipeline:
      return 2;
    default:
      return 1;
  }
}

}  // namespace

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

void WriteChromeTrace(const std::string& path, std::span<const Span> spans,
                      const std::string& workload, std::uint64_t seed) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write " + path);
  const std::size_t n = std::min(spans.size(), kMaxTraceSpans);
  const std::uint64_t base = spans.empty() ? 0 : spans.front().start;
  os << "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"workload\":\""
     << workload << "\",\"seed\":" << seed
     << ",\"spans_total\":" << spans.size() << ",\"spans_written\":" << n
     << "},\"traceEvents\":[\n";
  const char* tracks[] = {"", "per-packet layers (sampled)",
                          "batch flush (every batch)"};
  for (int tid = 1; tid <= 2; ++tid) {
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
       << ",\"args\":{\"name\":\"" << tracks[tid] << "\"}},\n";
  }
  char buf[320];
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"chunk\":%u}}%s\n",
                  SpanLabel(s.name), TrackOf(s.name),
                  static_cast<double>(s.start - base) / 1e3,
                  static_cast<double>(s.end - s.start) / 1e3, i, s.parent,
                  s.chunk, i + 1 < n ? "," : "");
    os << buf;
  }
  os << "]}\n";
}

}  // namespace pegabench
