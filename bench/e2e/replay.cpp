// The layered replay: the serving path re-driven through the layer APIs
// (FlowTable, OnlineFeatureExtractor, InferenceEngine, Pipeline, and on
// capture-mt PcapReader + WireParser), single-threaded, with the server's
// shard routing, table geometry, batch size and swap points. Its decisions
// must equal the server's, so it is the correctness oracle; its spans are
// the per-layer attribution.
#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <unordered_map>

#include "fixedpoint/fixedpoint.hpp"
#include "io/pcap.hpp"
#include "io/wire.hpp"
#include "pegabench.hpp"

namespace pegabench {

namespace {

struct RowMeta {
  std::uint64_t digest = 0;
  std::uint32_t flow = 0;
  std::uint32_t index = 0;
  std::int32_t label = 0;
};

/// One shard's flow table and pending batch.
struct ShardState {
  ShardState(const rt::FlowTableOptions& table_opts, std::size_t batch,
             std::size_t dim)
      : table(table_opts), rows(batch * dim), meta(batch) {}

  rt::FlowTable<tr::OnlineFlowState> table;
  std::vector<float> rows;
  std::vector<RowMeta> meta;
  std::size_t pending = 0;
};

/// The server's batch flush through the layer APIs. Every batch runs both
/// through InferenceEngine::InferRaw and through the bench's copy of the
/// engine's marshalling around Pipeline::ProcessBatch, and the raw outputs
/// must agree. Batches alternate which path runs first, is timed and
/// decides; the second run is the untimed check. Each timed run so follows
/// a run over its own PHV pool, as in the server: timing a path right after
/// the other one evicted its pool reads ~20% slow.
class BatchPath {
 public:
  BatchPath(std::size_t batch, std::size_t dim, Tracer& tracer,
            ReplayResult& out)
      : batch_(batch), dim_(dim), tracer_(tracer), out_(out) {}

  void Use(const rt::LoweredModel& model, std::uint64_t version) {
    model_ = &model;
    version_ = version;
    engine_ = std::make_unique<rt::InferenceEngine>(model, batch_);
    raw_.assign(batch_ * model.OutputDim(), 0);
    check_.assign(raw_.size(), 0);
    pool_.clear();
    for (std::size_t i = 0; i < batch_; ++i) pool_.emplace_back(model.layout());
  }

  void Flush(ShardState& s) {
    const std::size_t n = s.pending;
    if (n == 0) return;
    const std::size_t out_dim = model_->OutputDim();
    const auto& quant = model_->output_quant();
    const bool pipeline_first = batch_no_ % 2 == 1;
    const std::int32_t flush = tracer_.Begin(SpanName::kFlush, -1, batch_no_);
    if (pipeline_first) {
      out_.table_hits += RunPipeline(s, n, tracer_, flush, raw_);
      out_.pipeline_rows += n;
    } else {
      out_.table_hits += RunEngine(s, n, tracer_, flush, raw_);
      out_.engine_rows += n;
    }
    // InferenceEngine::Infer's dequantization, then the server's argmax.
    for (std::size_t i = 0; i < n; ++i) {
      std::size_t best = 0;
      float best_v = 0.0f;
      for (std::size_t d = 0; d < out_dim; ++d) {
        const auto v = static_cast<float>(pegasus::fixedpoint::Dequantize(
            raw_[i * out_dim + d], quant[d].fmt));
        if (d == 0 || v > best_v) {
          best = d;
          best_v = v;
        }
      }
      rt::StreamDecision dec;
      dec.flow_digest = s.meta[i].digest;
      dec.flow = s.meta[i].flow;
      dec.index = s.meta[i].index;
      dec.label = s.meta[i].label;
      dec.predicted = static_cast<std::int32_t>(best);
      dec.score = best_v;
      dec.version = version_;
      out_.decisions.push_back(dec);
    }
    tracer_.End(flush);
    if (pipeline_first) {
      RunEngine(s, n, untimed_, -1, check_);
    } else {
      RunPipeline(s, n, untimed_, -1, check_);
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (!std::equal(raw_.begin() + i * out_dim,
                      raw_.begin() + (i + 1) * out_dim,
                      check_.begin() + i * out_dim)) {
        ++out_.raw_mismatches;
      }
    }
    ++out_.batches;
    ++batch_no_;
    s.pending = 0;
  }

 private:
  /// InferenceEngine::InferRaw into `out`. Returns the table hits.
  std::uint64_t RunEngine(const ShardState& s, std::size_t n, Tracer& tracer,
                          std::int32_t parent, std::vector<std::int64_t>& out) {
    const std::uint64_t before = engine_->stats().table_hits;
    const std::int32_t span = tracer.Begin(SpanName::kEngine, parent, batch_no_);
    engine_->InferRaw(std::span<const float>(s.rows.data(), n * dim_), n,
                      std::span<std::int64_t>(out.data(), n * model_->OutputDim()));
    tracer.End(span);
    return engine_->stats().table_hits - before;
  }

  /// Fills the PHV pool exactly as InferenceEngine::RunChunk does, runs
  /// Pipeline::ProcessBatch over it and reads the raw outputs back into
  /// `out`. Returns the table hits.
  std::uint64_t RunPipeline(const ShardState& s, std::size_t n, Tracer& tracer,
                            std::int32_t parent,
                            std::vector<std::int64_t>& out) {
    const auto& in_fields = model_->input_fields();
    const std::int64_t dmax = (std::int64_t{1} << model_->input_bits()) - 1;
    const std::int32_t marshal =
        tracer.Begin(SpanName::kMarshal, parent, batch_no_);
    for (std::size_t i = 0; i < n; ++i) {
      auto& phv = pool_[i];
      phv.Reset();
      const float* row = s.rows.data() + i * dim_;
      for (std::size_t d = 0; d < in_fields.size(); ++d) {
        phv.Set(in_fields[d],
                std::clamp<std::int64_t>(std::llround(row[d]), 0, dmax));
      }
      for (const auto& [field, value] : model_->parser_inits()) {
        phv.Set(field, value);
      }
    }
    tracer.End(marshal);
    const std::int32_t span =
        tracer.Begin(SpanName::kPipeline, parent, batch_no_);
    const std::size_t hits = model_->pipeline().ProcessBatch(
        std::span<pegasus::dataplane::Phv>(pool_.data(), n));
    tracer.End(span);
    const std::size_t out_dim = model_->OutputDim();
    const auto& out_fields = model_->output_fields();
    const auto& quant = model_->output_quant();
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t d = 0; d < out_dim; ++d) {
        out[i * out_dim + d] = pool_[i].Get(out_fields[d]) - quant[d].bias;
      }
    }
    return hits;
  }

  std::size_t batch_;
  std::size_t dim_;
  Tracer& tracer_;
  Tracer untimed_{false};
  ReplayResult& out_;
  const rt::LoweredModel* model_ = nullptr;
  std::uint64_t version_ = 0;
  std::unique_ptr<rt::InferenceEngine> engine_;
  std::vector<pegasus::dataplane::Phv> pool_;
  std::vector<std::int64_t> raw_;
  std::vector<std::int64_t> check_;
  std::uint32_t batch_no_ = 0;
};

/// PcapPacketSource::Next, spelled out through PcapReader and WireParser so
/// each gets its own span: first-seen flow numbering, labeler labels, the
/// flow-relative packet clock.
class PcapReplaySource {
 public:
  PcapReplaySource(const std::string& path,
                   const pegasus::io::FlowLabeler& labeler)
      : is_(path, std::ios::binary), reader_(is_), labeler_(labeler) {
    pegasus::io::RequireEthernet(reader_, "pegabench replay");
  }

  bool Next(tr::TracePacket& out, Tracer& tracer, std::int32_t parent,
            std::uint32_t chunk) {
    const bool sampled = parent >= 0;
    for (;;) {
      const std::int32_t read =
          sampled ? tracer.Begin(SpanName::kPcapRead, parent, chunk) : -1;
      const bool got = reader_.Next(rec_);
      tracer.End(read);
      if (!got) return false;
      const std::int32_t parse =
          sampled ? tracer.Begin(SpanName::kWireParse, parent, chunk) : -1;
      const bool parsed = parser_.Parse(
          rec_.data, rec_.TsMicros(reader_.nanos()), parsed_);
      tracer.End(parse);
      if (!parsed) continue;
      auto [it, inserted] = flows_.emplace(parsed_.key.digest, Flow{});
      Flow& flow = it->second;
      if (inserted) {
        flow.id = static_cast<std::uint32_t>(flows_.size() - 1);
        flow.label = labeler_.LabelFor(parsed_.tuple);
        flow.first_ts_us = parsed_.ts_us;
      }
      storage_.ts_us = parsed_.ts_us >= flow.first_ts_us
                           ? parsed_.ts_us - flow.first_ts_us
                           : 0;
      storage_.len = parsed_.wire_len;
      storage_.bytes = parsed_.payload;
      out.ts_us = parsed_.ts_us;
      out.flow = flow.id;
      out.index = flow.next_index++;
      out.key = parsed_.key;
      out.label = flow.label;
      out.packet = &storage_;
      return true;
    }
  }

  std::uint64_t drops() const {
    return parser_.stats().frames - parser_.stats().parsed;
  }

 private:
  struct Flow {
    std::uint32_t id = 0;
    std::uint32_t next_index = 0;
    std::int32_t label = 0;
    std::uint64_t first_ts_us = 0;
  };

  std::ifstream is_;
  pegasus::io::PcapReader reader_;
  pegasus::io::WireParser parser_;
  const pegasus::io::FlowLabeler& labeler_;
  std::unordered_map<std::uint64_t, Flow> flows_;
  pegasus::io::PcapRecord rec_;
  pegasus::io::ParsedPacket parsed_;
  tr::Packet storage_;
};

}  // namespace

const char* SpanLabel(SpanName name) {
  switch (name) {
    case SpanName::kPacket:
      return "runtime.stream_server.packet";
    case SpanName::kSourceNext:
      return "io.source_next";
    case SpanName::kPcapRead:
      return "io.pcap_read";
    case SpanName::kWireParse:
      return "io.wire_parse";
    case SpanName::kFlowFind:
      return "runtime.flow_table.find";
    case SpanName::kStreamUpdate:
      return "traffic.stream.update";
    case SpanName::kStreamEmit:
      return "traffic.stream.emit";
    case SpanName::kFlush:
      return "runtime.stream_server.flush";
    case SpanName::kEngine:
      return "runtime.inference_engine.infer";
    case SpanName::kMarshal:
      return "bench.marshal";
    case SpanName::kPipeline:
      return "dataplane.pipeline.process_batch";
    case SpanName::kCount:
      break;
  }
  return "?";
}

SpanCost CalibrateSpans() {
  constexpr std::size_t kSpans = 200'000;
  Tracer tracer(true);
  tracer.Reserve(kSpans);
  const std::uint64_t t0 = NowNs();
  for (std::size_t i = 0; i < kSpans; ++i) {
    tracer.End(tracer.Begin(SpanName::kPacket, -1, 0));
  }
  const std::uint64_t t1 = NowNs();
  double inside = 0.0;
  for (const Span& s : tracer.spans()) {
    inside += static_cast<double>(s.end - s.start);
  }
  return {inside / kSpans, static_cast<double>(t1 - t0) / kSpans};
}

ReplayResult Replay(const WorkloadSpec& spec, const Models& models,
                    const Inputs& in, const rt::StreamServerOptions& so,
                    std::span<const SwapPoint> swaps, Tracer& tracer,
                    std::uint32_t sample_every) {
  ReplayResult res;
  const std::size_t dim = rt::FeatureDim(so.feature);
  const rt::FlowTableOptions table_opts{so.flows_per_shard, so.max_probe,
                                        so.table_layout, so.table_eviction};
  std::vector<std::unique_ptr<ShardState>> shards;
  for (std::size_t i = 0; i < so.num_shards; ++i) {
    shards.push_back(
        std::make_unique<ShardState>(table_opts, so.batch_size, dim));
  }
  if (tracer.enabled()) {
    const std::size_t n = in.trace.size();
    tracer.Reserve(n / sample_every * 7 + n / so.batch_size * 3 + 1024);
  }
  res.decisions.reserve(in.trace.size());
  BatchPath batch(so.batch_size, dim, tracer, res);
  batch.Use(*models.v1, 1);
  const tr::OnlineFeatureExtractor extractor;
  std::optional<PcapReplaySource> pcap;
  if (spec.id == Workload::kCaptureMt) pcap.emplace(in.pcap_path, in.labeler);

  std::size_t next_swap = 0;
  std::uint32_t countdown = 1;
  tr::TracePacket p;
  const std::uint64_t t0 = NowNs();
  for (std::uint32_t i = 0;; ++i) {
    if (next_swap < swaps.size() && swaps[next_swap].at == i) {
      // The server flushes every shard's partial batch through the
      // outgoing engine at the swap point.
      for (auto& s : shards) batch.Flush(*s);
      const SwapPoint& sw = swaps[next_swap++];
      batch.Use(sw.to_v2 ? *models.v2 : *models.v1, sw.version);
    }
    const bool sampled = tracer.enabled() && --countdown == 0;
    if (sampled) countdown = sample_every;
    const std::int32_t root =
        sampled ? tracer.Begin(SpanName::kPacket, -1, i) : -1;
    const std::int32_t source =
        sampled ? tracer.Begin(SpanName::kSourceNext, root, i) : -1;
    bool got;
    if (pcap) {
      got = pcap->Next(p, tracer, source, i);
    } else {
      got = i < in.trace.size();
      if (got) p = in.trace[i];
    }
    tracer.End(source);
    if (!got) {
      tracer.Truncate(root);
      break;
    }
    ShardState& s = *shards[rt::StreamServer::ShardIndexOf(p.key.digest,
                                                           shards.size())];
    const std::int32_t find =
        sampled ? tracer.Begin(SpanName::kFlowFind, root, i) : -1;
    tr::OnlineFlowState& state = s.table.FindOrInsert(p.key);
    tracer.End(find);
    const std::int32_t update =
        sampled ? tracer.Begin(SpanName::kStreamUpdate, root, i) : -1;
    extractor.Update(state, *p.packet, p.ts_us);
    tracer.End(update);
    ++res.packets;
    if (!state.WindowFull()) {
      ++res.warmup;
      tracer.End(root);
      continue;
    }
    const std::int32_t emit =
        sampled ? tracer.Begin(SpanName::kStreamEmit, root, i) : -1;
    float* row = s.rows.data() + s.pending * dim;
    if (so.feature == rt::FeatureKind::kStat) {
      extractor.EmitStat(state, row);
    } else {
      extractor.EmitSeq(state, row);
    }
    tracer.End(emit);
    s.meta[s.pending] = {p.key.digest, p.flow, p.index, p.label};
    tracer.End(root);
    if (++s.pending == so.batch_size) batch.Flush(s);
  }
  for (auto& s : shards) batch.Flush(*s);
  res.wall_s = static_cast<double>(NowNs() - t0) / 1e9;
  if (next_swap != swaps.size()) {
    throw std::logic_error("replay: swap point beyond the end of the input");
  }
  for (const auto& s : shards) res.table += s->table.SnapshotStats();
  if (pcap) res.parse_drops = pcap->drops();
  return res;
}

LayerTimes AttributeSpans(std::span<const Span> spans, const SpanCost& cost,
                          const ReplayResult& replay) {
  constexpr auto kNames = static_cast<std::size_t>(SpanName::kCount);
  // Self time: the span's own duration less the empty-span cost, less what
  // each child cost it (the child's duration plus the child's overhead
  // outside its own interval).
  std::vector<double> charged(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    charged[static_cast<std::size_t>(s.parent)] +=
        static_cast<double>(s.end - s.start) - cost.inside_ns + cost.total_ns;
  }
  std::array<double, kNames> self{};
  std::array<double, kNames> whole{};
  std::uint64_t sampled_packets = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const auto k = static_cast<std::size_t>(s.name);
    const double own = static_cast<double>(s.end - s.start) - cost.inside_ns;
    whole[k] += own;
    self[k] += own - charged[i];
    if (s.name == SpanName::kPacket) ++sampled_packets;
  }
  auto at = [](const std::array<double, kNames>& a, SpanName n) {
    return a[static_cast<std::size_t>(n)];
  };
  LayerTimes t;
  if (replay.packets == 0 || sampled_packets == 0) return t;
  const auto pkt = static_cast<double>(replay.packets);
  const auto rows = static_cast<double>(replay.decisions.size());
  // Per-packet spans are a 1-in-N sample: scale their sums to every packet.
  const double scale = pkt / static_cast<double>(sampled_packets);
  auto per_packet = [&](SpanName n) { return at(self, n) * scale / pkt; };
  t.pcap_read = per_packet(SpanName::kPcapRead);
  t.wire_parse = per_packet(SpanName::kWireParse);
  t.source_next =
      per_packet(SpanName::kSourceNext) + t.pcap_read + t.wire_parse;
  t.dispatch = per_packet(SpanName::kPacket) + at(self, SpanName::kFlush) / pkt;
  t.flow_find = per_packet(SpanName::kFlowFind);
  t.stream_update = per_packet(SpanName::kStreamUpdate);
  t.stream_emit = per_packet(SpanName::kStreamEmit);
  t.stream_emit_per_row = rows > 0.0 ? t.stream_emit * pkt / rows : 0.0;
  // Batches alternate between the two inference paths: each path's time
  // per row, applied to every row.
  if (replay.engine_rows != 0) {
    t.engine_per_row = at(whole, SpanName::kEngine) /
                       static_cast<double>(replay.engine_rows);
  }
  if (replay.pipeline_rows != 0) {
    t.pipeline_per_row = at(whole, SpanName::kPipeline) /
                         static_cast<double>(replay.pipeline_rows);
  }
  t.engine = t.engine_per_row * rows / pkt;
  t.pipeline = t.pipeline_per_row * rows / pkt;
  return t;
}

}  // namespace pegabench
