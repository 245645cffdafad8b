// pegabench — runs one workload of the end-to-end serving benchmark and
// prints every metric with its unit, the oracle's verdict, the per-layer
// self-time table and, as the last line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
//
//   pegabench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--quick] [--out-dir DIR] [--record FILE]
//
// Exit status: 0 correct, 1 a correctness check failed (the JSON line says
// so), 2 bad usage or a run that could not finish.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <tuple>

#include "pegabench.hpp"

namespace pegabench {

namespace {

constexpr std::size_t kSetupReps = 5;
constexpr std::size_t kMinPasses = 3;
constexpr std::uint32_t kSpanSampleEvery = 16;

void Usage() {
  std::fprintf(stderr,
               "usage: pegabench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--quick] [--out-dir DIR] [--record FILE]\n"
               "workloads:");
  for (const auto& w : AllWorkloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
}

bool ParseArgs(int argc, char** argv, Options& o) {
  bool seconds_set = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") {
      const std::string name = value();
      o.workload = FindWorkload(name);
      if (o.workload == nullptr) {
        throw std::invalid_argument("unknown workload " + name);
      }
    } else if (a == "--seed") {
      o.seed = std::stoull(value());
    } else if (a == "--seconds") {
      o.seconds = std::stod(value());
      seconds_set = true;
    } else if (a == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") throw std::invalid_argument("--trace 0|1");
      o.trace = v == "1";
    } else if (a == "--quick") {
      o.quick = true;
    } else if (a == "--out-dir") {
      o.out_dir = value();
    } else if (a == "--record") {
      o.record = value();
    } else {
      throw std::invalid_argument("unknown argument " + a);
    }
  }
  if (o.quick && !seconds_set) o.seconds = 1.0;
  return o.workload != nullptr && o.seconds > 0.0;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Order-independent digest of a decision set (passes of one input must
/// agree exactly, whatever the cross-shard interleaving).
std::uint64_t DecisionDigest(const std::vector<rt::StreamDecision>& ds) {
  std::uint64_t h = 0;
  for (const auto& d : ds) {
    std::uint32_t score = 0;
    std::memcpy(&score, &d.score, sizeof score);
    const std::uint64_t what =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(d.predicted))
         << 40) ^
        (d.version << 32) ^ score;
    h += rt::MixDigest(
        (static_cast<std::uint64_t>(d.flow) << 32 | d.index) ^
        rt::MixDigest(what));
  }
  return h;
}

/// Every decision field the server and the replay both define, compared
/// exactly (score bit for bit). Returns the number of differing decisions.
std::size_t CompareDecisions(std::vector<rt::StreamDecision> server,
                             std::vector<rt::StreamDecision> replay) {
  auto key = [](const rt::StreamDecision& d) {
    return std::tie(d.flow, d.index);
  };
  auto by_key = [&](const auto& a, const auto& b) { return key(a) < key(b); };
  std::sort(server.begin(), server.end(), by_key);
  std::sort(replay.begin(), replay.end(), by_key);
  std::size_t bad = server.size() > replay.size()
                        ? server.size() - replay.size()
                        : replay.size() - server.size();
  const std::size_t n = std::min(server.size(), replay.size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto& a = server[i];
    const auto& b = replay[i];
    if (a.flow != b.flow || a.index != b.index ||
        a.flow_digest != b.flow_digest || a.label != b.label ||
        a.predicted != b.predicted || a.version != b.version ||
        std::memcmp(&a.score, &b.score, sizeof a.score) != 0) {
      ++bad;
    }
  }
  return bad;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Checks {
  std::vector<std::string> failures;

  void Expect(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

void CheckAccounting(const PassResult& r, std::size_t pass, Checks& c) {
  const auto& s = r.stats;
  const std::string at = " (pass " + std::to_string(pass) + ")";
  c.Expect(r.offered - r.parse_drops ==
               s.packets + s.shed.ring_full + s.shed.misrouted,
           "offered != packets + shed" + at);
  c.Expect(s.packets == s.decisions + s.warmup + s.shed.inference,
           "packets != decisions + warmup + shed.inference" + at);
  c.Expect(r.decisions.size() == s.decisions,
           "decision count != Stats().decisions" + at);
}

/// The replay must reproduce the server's last measured pass exactly.
void CheckReplay(const PassResult& server, const ReplayResult& replay,
                 Checks& c) {
  const std::string w = " (replay)";
  const std::size_t mismatches =
      CompareDecisions(server.decisions, replay.decisions);
  c.Expect(mismatches == 0, std::to_string(mismatches) +
                                " decisions differ from the server's" + w);
  c.Expect(replay.raw_mismatches == 0,
           std::to_string(replay.raw_mismatches) +
               " rows: ProcessBatch outputs != InferRaw" + w);
  const auto& s = server.stats;
  c.Expect(replay.packets == s.packets && replay.warmup == s.warmup &&
               replay.batches == s.batches,
           "packet / warm-up / batch counts differ" + w);
  c.Expect(replay.table.hits == s.table.hits &&
               replay.table.misses == s.table.misses &&
               replay.table.inserts == s.table.inserts &&
               replay.table.evictions == s.table.evictions,
           "flow-table counters differ" + w);
  c.Expect(replay.table_hits == s.engine.table_hits,
           "pipeline table hits differ" + w);
  c.Expect(replay.parse_drops == server.parse_drops,
           "parse drops differ" + w);
}

double Ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// What the measured passes add up to.
struct PassTotals {
  std::vector<double> pps, accuracy, hwm, push_ns, gen_lag_p99_us;
  std::vector<double> swap_call_us;
  // Latency quantiles are taken per pass and reported as their median over
  // passes, so a host stall that hits one pass does not move them; the
  // pooled samples give p999 and the sample count.
  std::vector<double> latency, lat_p50, lat_p99;
  double measured_s = 0.0;
  double swap_wall_ms = 0.0;
  std::uint64_t swap_applies = 0;
  /// Offered packets, and those neither decided nor absorbed as warm-up.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t first_digest = 0;
  PassResult last;

  void Add(PassResult r, const WorkloadSpec& spec, Checks& checks) {
    const std::size_t pass = pps.size();
    const std::string at = " (pass " + std::to_string(pass) + ")";
    CheckAccounting(r, pass, checks);
    if (spec.id != Workload::kPacedSwap) {
      const std::uint64_t digest = DecisionDigest(r.decisions);
      if (pass == 0) first_digest = digest;
      checks.Expect(digest == first_digest,
                    "decisions differ from pass 0" + at);
    }
    checks.Expect(!r.latency_us.empty(), "no latency samples" + at);
    measured_s += r.wall_s;
    pps.push_back(static_cast<double>(r.offered) / r.wall_s);
    std::size_t correct = 0;
    for (const auto& d : r.decisions) correct += d.predicted == d.label;
    accuracy.push_back(Ratio(static_cast<double>(correct),
                             static_cast<double>(r.decisions.size())));
    hwm.push_back(static_cast<double>(r.ring_hwm));
    push_ns.push_back(r.push_ns);
    lat_p50.push_back(Quantile(r.latency_us, 0.5));
    lat_p99.push_back(Quantile(r.latency_us, 0.99));
    latency.insert(latency.end(), r.latency_us.begin(), r.latency_us.end());
    swap_call_us.insert(swap_call_us.end(), r.swap_call_us.begin(),
                        r.swap_call_us.end());
    swap_wall_ms += r.stats.swap_wall_ms;
    swap_applies += r.stats.swaps;
    gen_lag_p99_us.push_back(r.gen_lag_p99_us);
    attempted += r.offered;
    const std::uint64_t done = r.stats.decisions + r.stats.warmup;
    failed += r.offered > done ? r.offered - done : 0;
    last = std::move(r);
  }

  /// Coefficient of variation of the passes' throughput.
  double PassCv() const {
    const auto n = static_cast<double>(pps.size());
    double mean = 0.0, var = 0.0;
    for (double v : pps) mean += v / n;
    for (double v : pps) var += (v - mean) * (v - mean) / n;
    return Ratio(std::sqrt(var), mean);
  }
};

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string JsonMetrics(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    out += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " +
           JsonNumber(ms[i].value) + ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return out + "}";
}

void PrintMetrics(const char* title, const std::vector<Metric>& ms) {
  std::printf("%s\n", title);
  for (const auto& m : ms) {
    std::printf("  %-46s %18.6g  %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

void PrintSelfTimes(const LayerTimes& t, double untraced_ns, bool pcap) {
  const double total = t.Attributed();
  std::printf(
      "self time per layer (traced replay; per-packet spans 1 in %u, "
      "empty-span cost subtracted):\n",
      kSpanSampleEvery);
  std::printf("  %-34s %12s %8s\n", "layer", "ns/pkt", "share");
  auto row = [&](const char* name, double ns) {
    std::printf("  %-34s %12.2f %7.1f%%\n", name, ns,
                100.0 * Ratio(ns, total));
  };
  row("io", t.source_next);
  if (pcap) {
    row("  io.pcap_read", t.pcap_read);
    row("  io.wire_parse", t.wire_parse);
  }
  row("runtime.stream_server (dispatch)", t.dispatch);
  row("runtime.flow_table", t.flow_find);
  row("traffic.stream", t.stream_update + t.stream_emit);
  row("runtime.inference_engine (self)", t.engine - t.pipeline);
  row("dataplane.pipeline", t.pipeline);
  row("attributed", total);
  std::printf("  %-34s %12.2f   (untraced %.2f ns/pkt - attributed)\n",
              "unattributed", untraced_ns - total, untraced_ns);
}

int Run(const Options& o) {
  const WorkloadSpec& spec = *o.workload;
  const rt::StreamServerOptions so = ServerOptions(spec, o.quick);
  const char* sha = std::getenv("PEGABENCH_GIT_SHA");
  const std::string git_sha = sha != nullptr && *sha ? sha : "unknown";
  std::printf("== pegabench %s  seed %llu%s  (%s build, git %s)\n", spec.name,
              static_cast<unsigned long long>(o.seed),
              o.quick ? "  QUICK: numbers not comparable" : "",
              PEGABENCH_BUILD_TYPE, git_sha.c_str());
  std::fflush(stdout);

  // ---- set-up: train + compile + lower, build a server; repeated -------
  std::vector<double> setup_s, train_ms, lower_ms;
  Models models;
  for (std::size_t rep = 0; rep < (o.quick ? 1 : kSetupReps); ++rep) {
    const std::uint64_t t0 = NowNs();
    models = BuildModels(spec);
    { rt::StreamServer server(models.v1, so, 1); }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    train_ms.push_back(models.train_ms);
    lower_ms.push_back(models.lower_ms);
  }
  const Inputs inputs = MakeInputs(spec, o);
  std::printf("set-up    %zu x median %.3f s (train %.1f ms, lower %.1f ms)\n",
              setup_s.size(), Median(setup_s), Median(train_ms),
              Median(lower_ms));
  std::printf("inputs    %zu packets in %.1f ms\n", inputs.trace.size(),
              inputs.generate_ms);
  std::fflush(stdout);

  // ---- warm-up + measured passes, each on a fresh server ---------------
  Checks checks;
  (void)RunPass(spec, models, inputs, so);
  PassTotals passes;
  while (passes.pps.size() < kMinPasses || passes.measured_s < o.seconds) {
    passes.Add(RunPass(spec, models, inputs, so), spec, checks);
  }
  const double peak_rss_mb = PeakRssMb();
  const PassResult& last = passes.last;
  std::printf("passes    %zu measured (%.2f s) + 1 warm-up; kpkt/s:",
              passes.pps.size(), passes.measured_s);
  for (double v : passes.pps) std::printf(" %.0f", v / 1e3);
  std::printf("\n");
  std::fflush(stdout);

  // ---- the layered replay of the last pass: the oracle on every run, and
  // with --trace 1 the per-layer attribution -----------------------------
  const SpanCost cost = o.trace ? CalibrateSpans() : SpanCost{};
  Tracer tracer(o.trace);
  const ReplayResult replay = Replay(spec, models, inputs, so, last.swaps,
                                     tracer, kSpanSampleEvery);
  CheckReplay(last, replay, checks);
  // What the spans themselves cost, from the calibrated empty-span cost.
  const double span_ns =
      static_cast<double>(tracer.spans().size()) * cost.total_ns;
  std::printf("replay    %.1f ns/pkt, %zu spans (empty span: %.1f ns inside, "
              "%.1f ns total)\n",
              replay.wall_s * 1e9 / static_cast<double>(replay.packets),
              tracer.spans().size(), cost.inside_ns, cost.total_ns);

  const double pps_median = Median(passes.pps);
  const double latency_p50 = Median(passes.lat_p50);

  std::vector<Metric> e2e = {
      {"pps", pps_median, "pkt/s"},
      {"latency_p50_us", latency_p50, "us"},
      {"accuracy", Median(passes.accuracy), "ratio"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"setup_s", Median(setup_s), "s"},
  };
  std::vector<Metric> layer;
  std::vector<Metric> extra;
  if (o.trace) {
    const LayerTimes t = AttributeSpans(tracer.spans(), cost, replay);
    const double untraced_ns = 1e9 / pps_median;
    const std::string trace_path =
        o.out_dir + "/trace_" + spec.name + ".json";
    WriteChromeTrace(trace_path, tracer.spans(), spec.name, o.seed);

    double swap_call = Median(passes.swap_call_us);
    double swap_gap = Ratio(passes.swap_wall_ms * 1e3,
                            static_cast<double>(passes.swap_applies));
    double swaps = static_cast<double>(passes.swap_call_us.size());
    if (spec.id != Workload::kPacedSwap) {
      const ControlProbe probe = ProbeSwaps(models, so);
      swap_call = Median(probe.call_us);
      swap_gap = probe.gap_us;
      swaps = static_cast<double>(probe.call_us.size());
    }
    const auto& st = last.stats;
    const double lookups = static_cast<double>(st.table.hits + st.table.misses);
    layer = {
        {"io.source_next_ns", t.source_next, "ns"},
        {"io.parse_drops", static_cast<double>(last.parse_drops), "count"},
        {"runtime.flow_table.find_ns", t.flow_find, "ns"},
        {"runtime.flow_table.hit_rate",
         Ratio(static_cast<double>(st.table.hits), lookups), "ratio"},
        {"runtime.flow_table.evictions_per_kpkt",
         Ratio(1e3 * static_cast<double>(st.table.evictions),
               static_cast<double>(st.packets)),
         "1/kpkt"},
        {"runtime.flow_table.mean_probe", st.table.MeanProbe(), "slots"},
        {"traffic.stream.update_ns", t.stream_update, "ns"},
        {"traffic.stream.emit_ns", t.stream_emit_per_row, "ns"},
        {"traffic.stream.rows_per_pkt",
         Ratio(static_cast<double>(st.decisions),
               static_cast<double>(st.packets)),
         "ratio"},
        {"runtime.inference_engine.infer_ns_per_row", t.engine_per_row,
         "ns"},
        {"runtime.inference_engine.marshal_ns_per_row",
         t.engine_per_row - t.pipeline_per_row, "ns"},
        {"runtime.inference_engine.rows_per_batch",
         Ratio(static_cast<double>(st.decisions),
               static_cast<double>(st.batches)),
         "rows"},
        {"runtime.inference_engine.table_hits_per_row",
         Ratio(static_cast<double>(st.engine.table_hits),
               static_cast<double>(st.engine.packets)),
         "count"},
        {"dataplane.pipeline.process_batch_ns_per_row", t.pipeline_per_row,
         "ns"},
        {"dataplane.pipeline.tables",
         static_cast<double>(models.v1->NumTables()), "count"},
        {"dataplane.pipeline.stages",
         static_cast<double>(models.v1->StagesUsed()), "count"},
        {"runtime.stream_server.dispatch_ns", t.dispatch, "ns"},
        {"runtime.stream_server.ring_depth_hwm", Median(passes.hwm),
         "items"},
        {"runtime.stream_server.unattributed_ns",
         untraced_ns - t.Attributed(), "ns"},
        {"control.swap_call_us", swap_call, "us"},
        {"control.swap_gap_us", swap_gap, "us"},
        {"compiler.lower_ms", Median(lower_ms), "ms"},
        {"nn.train_ms", Median(train_ms), "ms"},
        {"traffic.generate_ms", inputs.generate_ms, "ms"},
        {"bench.gen_lag_p99_pct",
         100.0 * Ratio(Median(passes.gen_lag_p99_us), latency_p50), "%"},
        {"bench.latency_p99_us", Median(passes.lat_p99), "us"},
        {"bench.latency_p999_us", Quantile(passes.latency, 0.999), "us"},
        {"bench.latency_samples", static_cast<double>(passes.latency.size()),
         "count"},
        {"bench.pass_cv", passes.PassCv(), "ratio"},
        {"bench.trace_overhead_pct",
         100.0 * Ratio(span_ns, replay.wall_s * 1e9 - span_ns), "%"},
    };
    extra = {
        {"io.pcap_read_ns", t.pcap_read, "ns"},
        {"io.wire_parse_ns", t.wire_parse, "ns"},
        {"runtime.stream_server.push_ns", Median(passes.push_ns), "ns"},
        {"control.swaps", swaps, "count"},
        {"bench.gen_lag_p99_us", Median(passes.gen_lag_p99_us), "us"},
        {"bench.passes", static_cast<double>(passes.pps.size()), "count"},
        {"bench.measured_s", passes.measured_s, "s"},
    };
    PrintSelfTimes(t, untraced_ns, spec.id == Workload::kCaptureMt);
    std::printf("trace     %s\n", trace_path.c_str());
  }

  for (const auto* set : {&e2e, &layer, &extra}) {
    for (const auto& m : *set) {
      checks.Expect(std::isfinite(m.value), m.name + " is not finite");
    }
  }
  PrintMetrics("end-to-end metrics:", e2e);
  if (o.trace) {
    PrintMetrics("per-layer metrics:", layer);
    PrintMetrics("workload-specific metrics (not in BENCHMARK.json):", extra);
  }
  const bool ok = checks.failures.empty();
  std::printf("oracle    %s: %zu decisions of the last pass replayed through "
              "the layer APIs; accounting identities checked on %zu passes\n",
              ok ? "PASS" : "FAIL", last.decisions.size(), passes.pps.size());
  for (const auto& f : checks.failures) std::printf("  FAIL: %s\n", f.c_str());

  if (!o.record.empty()) {
    std::vector<Metric> all = e2e;
    all.insert(all.end(), layer.begin(), layer.end());
    all.insert(all.end(), extra.begin(), extra.end());
    std::ofstream rec(o.record, std::ios::app);
    rec << "{\"workload\": \"" << spec.name << "\", \"seed\": " << o.seed
        << ", \"quick\": " << (o.quick ? "true" : "false")
        << ", \"seconds\": " << JsonNumber(o.seconds)
        << ", \"build_type\": \"" << PEGABENCH_BUILD_TYPE
        << "\", \"git_sha\": \"" << git_sha
        << "\", \"correct\": " << (ok ? "true" : "false")
        << ", \"metrics\": " << JsonMetrics(all) << "}\n";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              ok ? "true" : "false",
              static_cast<unsigned long long>(passes.attempted),
              static_cast<unsigned long long>(passes.failed),
              JsonMetrics(o.trace ? layer : e2e).c_str());
  return ok ? 0 : 1;
}

}  // namespace

}  // namespace pegabench

int main(int argc, char** argv) {
  pegabench::Options opts;
  try {
    if (!pegabench::ParseArgs(argc, argv, opts)) {
      pegabench::Usage();
      return 2;
    }
    return pegabench::Run(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pegabench: %s\n", e.what());
    return 2;
  }
}
