#include "eval/experiment.hpp"

#include <algorithm>
#include <chrono>
#include <map>

namespace pegasus::eval {

FeatureSplit SplitSamples(traffic::SampleSet all,
                          const std::vector<int>& flow_split) {
  FeatureSplit out;
  out.train.dim = out.val.dim = out.test.dim = all.dim;

  // Size each destination exactly before copying a single row: the rows
  // land in place with no geometric reallocation overshoot, and `all`
  // (moved into this call) is freed on return.
  std::size_t counts[3] = {0, 0, 0};
  for (std::size_t i = 0; i < all.size(); ++i) {
    const int split = flow_split.at(all.flow_index[i]);
    ++counts[split == 0 ? 0 : (split == 1 ? 1 : 2)];
  }
  traffic::SampleSet* dsts[3] = {&out.train, &out.val, &out.test};
  for (int s = 0; s < 3; ++s) {
    dsts[s]->x.reserve(counts[s] * all.dim);
    dsts[s]->labels.reserve(counts[s]);
    dsts[s]->flow_index.reserve(counts[s]);
  }

  for (std::size_t i = 0; i < all.size(); ++i) {
    const int split = flow_split.at(all.flow_index[i]);
    traffic::SampleSet* dst = dsts[split == 0 ? 0 : (split == 1 ? 1 : 2)];
    const auto begin =
        all.x.begin() + static_cast<std::ptrdiff_t>(i * all.dim);
    dst->x.insert(dst->x.end(), begin,
                  begin + static_cast<std::ptrdiff_t>(all.dim));
    dst->labels.push_back(all.labels[i]);
    dst->flow_index.push_back(all.flow_index[i]);
  }
  return out;
}

PreparedDataset Prepare(const traffic::DatasetSpec& spec, bool with_raw_bytes,
                        std::uint64_t split_seed) {
  PreparedDataset out;
  out.dataset = traffic::Generate(spec);
  out.name = out.dataset.name;
  out.num_classes = out.dataset.NumClasses();

  std::vector<std::int32_t> flow_labels;
  flow_labels.reserve(out.dataset.flows.size());
  for (const auto& f : out.dataset.flows) flow_labels.push_back(f.label);
  out.flow_split = SplitFlows(flow_labels, 0.75, 0.10, split_seed);

  // One family at a time: extract, split (consuming the extraction), move
  // on — peak memory never holds more than one whole family twice.
  out.stat = SplitSamples(traffic::ExtractStatFeatures(out.dataset.flows),
                          out.flow_split);
  out.seq = SplitSamples(traffic::ExtractSeqFeatures(out.dataset.flows),
                         out.flow_split);
  if (with_raw_bytes) {
    out.raw = SplitSamples(traffic::ExtractRawBytes(out.dataset.flows),
                           out.flow_split);
  }
  return out;
}

std::vector<std::int32_t> PredictClassesLowered(
    runtime::InferenceEngine& engine, const traffic::SampleSet& set) {
  const std::size_t n = set.size();
  const std::size_t out_dim = engine.output_dim();
  std::vector<std::int32_t> predictions(n);
  std::vector<float> logits(engine.batch_capacity() * out_dim);
  std::size_t done = 0;
  while (done < n) {
    const std::size_t chunk = std::min(n - done, engine.batch_capacity());
    engine.Infer(
        std::span<const float>(set.x.data() + done * set.dim,
                               chunk * set.dim),
        chunk, std::span<float>(logits.data(), chunk * out_dim));
    for (std::size_t i = 0; i < chunk; ++i) {
      const float* row = logits.data() + i * out_dim;
      std::size_t best = 0;
      for (std::size_t d = 1; d < out_dim; ++d) {
        if (row[d] > row[best]) best = d;
      }
      predictions[done + i] = static_cast<std::int32_t>(best);
    }
    done += chunk;
  }
  return predictions;
}

namespace {

/// Shared tail of the ServeTrace variants: stats snapshot, wall clock and
/// throughput over the packets this run actually pushed.
void FinishRun(StreamRun& run, runtime::StreamServer& server,
               std::uint64_t packets_before,
               std::chrono::steady_clock::time_point t0,
               std::chrono::steady_clock::time_point t1) {
  run.stats = server.Stats();
  run.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  const std::uint64_t pushed = run.stats.packets - packets_before;
  run.packets_per_sec =
      run.wall_ms > 0.0
          ? static_cast<double>(pushed) / (run.wall_ms / 1000.0)
          : 0.0;
}

}  // namespace

std::vector<traffic::TracePacket> TestTrace(const PreparedDataset& prep,
                                            std::uint64_t seed) {
  std::vector<const traffic::Flow*> test_flows;
  for (std::size_t fi = 0; fi < prep.dataset.flows.size(); ++fi) {
    if (prep.flow_split[fi] == 2) {
      test_flows.push_back(&prep.dataset.flows[fi]);
    }
  }
  traffic::MergeOptions opts;
  opts.seed = seed;
  return traffic::MergeTrace(test_flows, opts);
}

StreamRun ServeTrace(runtime::StreamServer& server,
                     std::span<const traffic::TracePacket> trace) {
  // Serve(span) pre-reserves per-shard decision space, so go through it
  // rather than a bare SpanPacketSource.
  StreamRun run;
  const std::uint64_t packets_before = server.Stats().packets;
  const auto t0 = std::chrono::steady_clock::now();
  run.decisions = server.Serve(trace);
  const auto t1 = std::chrono::steady_clock::now();
  FinishRun(run, server, packets_before, t0, t1);
  return run;
}

StreamRun ServeTrace(runtime::StreamServer& server,
                     runtime::PacketSource& source) {
  StreamRun run;
  const std::uint64_t packets_before = server.Stats().packets;
  const auto t0 = std::chrono::steady_clock::now();
  run.decisions = server.Serve(source);
  const auto t1 = std::chrono::steady_clock::now();
  FinishRun(run, server, packets_before, t0, t1);
  return run;
}

StreamRun ServeChurn(runtime::StreamServer& server,
                     traffic::ChurnGenerator& gen) {
  runtime::GeneratorPacketSource<traffic::ChurnGenerator> source(gen);
  return ServeTrace(server, source);
}

StreamRun ServeTracePartitioned(
    runtime::StreamServer& server,
    std::span<const traffic::TracePacket> trace) {
  runtime::DigestPartitionedSource source(
      trace, server.options().num_ingest,
      [&server](std::uint64_t digest) {
        return server.IngestPartitionOf(digest);
      });
  StreamRun run;
  const std::uint64_t packets_before = server.Stats().packets;
  const auto t0 = std::chrono::steady_clock::now();
  run.decisions = server.Serve(source);
  const auto t1 = std::chrono::steady_clock::now();
  FinishRun(run, server, packets_before, t0, t1);
  return run;
}

StreamRun ServeTraceWithSwap(
    runtime::StreamServer& server,
    std::span<const traffic::TracePacket> trace, std::size_t swap_at,
    std::shared_ptr<const runtime::LoweredModel> model,
    std::uint64_t version) {
  swap_at = std::min(swap_at, trace.size());
  StreamRun run;
  const bool mt = server.options().multithreaded;
  const std::uint64_t packets_before = server.Stats().packets;
  const auto t0 = std::chrono::steady_clock::now();
  if (mt) server.Start();
  for (std::size_t i = 0; i < swap_at; ++i) server.Push(trace[i]);
  server.SwapModel(std::move(model), version);
  for (std::size_t i = swap_at; i < trace.size(); ++i) server.Push(trace[i]);
  if (mt) {
    server.Stop();
  } else {
    server.Flush();
  }
  const auto t1 = std::chrono::steady_clock::now();
  run.decisions = server.TakeDecisions();
  FinishRun(run, server, packets_before, t0, t1);
  return run;
}

StreamRun ServeTraceWithDeltaSwap(
    runtime::StreamServer& server,
    std::span<const traffic::TracePacket> trace, std::size_t swap_at,
    std::span<const dataplane::TablePatch> patches, std::uint64_t version) {
  swap_at = std::min(swap_at, trace.size());
  StreamRun run;
  const bool mt = server.options().multithreaded;
  const std::uint64_t packets_before = server.Stats().packets;
  const auto t0 = std::chrono::steady_clock::now();
  if (mt) server.Start();
  for (std::size_t i = 0; i < swap_at; ++i) server.Push(trace[i]);
  server.SwapModelDelta(patches, version);
  for (std::size_t i = swap_at; i < trace.size(); ++i) server.Push(trace[i]);
  if (mt) {
    server.Stop();
  } else {
    server.Flush();
  }
  const auto t1 = std::chrono::steady_clock::now();
  run.decisions = server.TakeDecisions();
  FinishRun(run, server, packets_before, t0, t1);
  return run;
}

ClassificationReport EvaluateDecisions(
    const std::vector<runtime::StreamDecision>& decisions,
    std::size_t num_classes) {
  std::vector<std::int32_t> truth;
  std::vector<std::int32_t> predicted;
  truth.reserve(decisions.size());
  predicted.reserve(decisions.size());
  for (const auto& d : decisions) {
    truth.push_back(d.label);
    predicted.push_back(d.predicted);
  }
  return Evaluate(truth, predicted, num_classes);
}

DecisionReport EvaluateDecisionsDetailed(
    const std::vector<runtime::StreamDecision>& decisions,
    std::size_t num_classes) {
  DecisionReport report;
  report.overall = EvaluateDecisions(decisions, num_classes);
  // Group by serving version. Decision streams hold a handful of versions
  // (one per swap), so a linear scan into a small map-by-vector is fine.
  std::map<std::uint64_t, std::vector<std::size_t>> by_version;
  for (std::size_t i = 0; i < decisions.size(); ++i) {
    by_version[decisions[i].version].push_back(i);
  }
  report.versions.reserve(by_version.size());
  std::vector<std::uint32_t> lats;
  for (const auto& [version, idx] : by_version) {
    VersionWindowReport vw;
    vw.version = version;
    vw.decisions = idx.size();
    lats.clear();
    double lat_sum = 0.0;
    for (const std::size_t i : idx) {
      const auto& d = decisions[i];
      if (d.predicted == d.label) ++vw.correct;
      if (d.latency_ns != 0) {
        lats.push_back(d.latency_ns);
        lat_sum += static_cast<double>(d.latency_ns);
      }
    }
    vw.accuracy = vw.decisions == 0
                      ? 0.0
                      : static_cast<double>(vw.correct) /
                            static_cast<double>(vw.decisions);
    vw.sampled = lats.size();
    if (!lats.empty()) {
      // Exact quantiles (nth_element) — the sampled subset is small by
      // construction (1-in-N), so no histogram approximation needed here.
      const auto nth = [&lats](double q) {
        std::size_t k = static_cast<std::size_t>(
            q * static_cast<double>(lats.size() - 1));
        std::nth_element(lats.begin(), lats.begin() + k, lats.end());
        return static_cast<double>(lats[k]);
      };
      vw.latency_p50_ns = nth(0.50);
      vw.latency_p99_ns = nth(0.99);
      vw.latency_mean_ns = lat_sum / static_cast<double>(lats.size());
    }
    report.versions.push_back(vw);
  }
  return report;
}

}  // namespace pegasus::eval
