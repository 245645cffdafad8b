// Micro-benchmarks (google-benchmark) of the primitive building blocks:
// clustering-tree lookup, TCAM table match, CRC ternary expansion, a full
// per-packet pipeline pass, per-call vs batched inference over a lowered
// model, and one batch through each of the paper's lowered pipelines.
// These bound the *simulator's* throughput (Figure 9d reports the
// line-rate model for the real switch).
#include <benchmark/benchmark.h>

#include <array>
#include <chrono>
#include <memory>
#include <random>
#include <span>

#include "compiler/compiler.hpp"
#include "core/fuzzy.hpp"
#include "core/operators.hpp"
#include "dataplane/crc.hpp"
#include "dataplane/pipeline.hpp"
#include "dataplane/table.hpp"
#include "eval/experiment.hpp"
#include "models/autoencoder.hpp"
#include "models/cnn_b.hpp"
#include "models/cnn_l.hpp"
#include "models/cnn_m.hpp"
#include "models/mlp_b.hpp"
#include "models/rnn_b.hpp"
#include "runtime/inference_engine.hpp"

namespace {

using namespace pegasus;

std::vector<float> RandomRows(std::size_t n, std::size_t dim,
                              std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> dist(0.0f, 255.0f);
  std::vector<float> x(n * dim);
  for (float& v : x) v = std::floor(dist(rng));
  return x;
}

void BM_ClusterTreeLookup(benchmark::State& state) {
  const auto leaves = static_cast<std::size_t>(state.range(0));
  const std::size_t dim = 4;
  const auto data = RandomRows(4000, dim, 1);
  auto tree = core::ClusterTree::Fit(data, 4000, dim, {leaves, 8, 1});
  const auto probes = RandomRows(1024, dim, 2);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Lookup(
        std::span<const float>(probes.data() + (i++ % 1024) * dim, dim)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ClusterTreeLookup)->Arg(16)->Arg(64)->Arg(256);

void BM_CrcExpansion(benchmark::State& state) {
  std::mt19937_64 rng(3);
  const int width = static_cast<int>(state.range(0));
  const std::uint64_t max = (1ull << width) - 1;
  std::uniform_int_distribution<std::uint64_t> dist(0, max);
  for (auto _ : state) {
    std::uint64_t a = dist(rng), b = dist(rng);
    if (a > b) std::swap(a, b);
    benchmark::DoNotOptimize(dataplane::RangeToTernary(a, b, width));
  }
}
BENCHMARK(BM_CrcExpansion)->Arg(8)->Arg(10)->Arg(16);

// Shared table builders for the lookup families. Each returns a sealed
// table, served by its compiled MatchIndex as Pipeline::PlaceTable serves
// every table it places.

dataplane::MatchActionTable BuildTernaryBenchTable(dataplane::PhvLayout& layout,
                                                   std::size_t entries) {
  const auto key = layout.AddField("k", 10);
  const auto out = layout.AddField("o", 16);
  std::vector<dataplane::ActionOp> prog{
      {dataplane::ActionOp::Kind::kSetFromData, out, 0, 0, -1}};
  dataplane::MatchActionTable table("t", dataplane::MatchKind::kTernary,
                                    {key}, {10}, prog, 16);
  // Disjoint single-value entries + catch-all.
  for (std::size_t e = 0; e < entries; ++e) {
    table.AddEntry({.ternary = {dataplane::TernaryRule{e, 0x3ff}},
                    .priority = 1,
                    .action_data = {static_cast<std::int64_t>(e)}});
  }
  table.AddEntry({.ternary = {dataplane::TernaryRule{0, 0}}, .action_data = {0}});
  table.Seal();
  return table;
}

dataplane::MatchActionTable BuildRangeBenchTable(dataplane::PhvLayout& layout,
                                                 std::size_t entries) {
  const auto key = layout.AddField("k", 16);
  const auto out = layout.AddField("o", 16);
  std::vector<dataplane::ActionOp> prog{
      {dataplane::ActionOp::Kind::kSetFromData, out, 0, 0, -1}};
  dataplane::MatchActionTable table("r", dataplane::MatchKind::kRange, {key},
                                    {16}, prog, 16);
  // Disjoint 16-wide buckets + catch-all, like a quantized feature axis.
  for (std::size_t e = 0; e < entries; ++e) {
    table.AddEntry({.range_lo = {e * 16},
                    .range_hi = {e * 16 + 15},
                    .priority = 1,
                    .action_data = {static_cast<std::int64_t>(e)}});
  }
  table.AddEntry({.range_lo = {0}, .range_hi = {65535}, .action_data = {0}});
  table.Seal();
  return table;
}

void RunLookupLoop(benchmark::State& state,
                   const dataplane::MatchActionTable& table,
                   dataplane::Phv& phv, dataplane::FieldId key,
                   std::size_t key_span) {
  std::size_t i = 0;
  for (auto _ : state) {
    phv.Set(key, static_cast<std::int64_t>(i++ % key_span));
    benchmark::DoNotOptimize(table.Apply(phv));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_TernaryTableLookup(benchmark::State& state) {
  const auto entries = static_cast<std::size_t>(state.range(0));
  dataplane::PhvLayout layout;
  const auto table = BuildTernaryBenchTable(layout, entries);
  dataplane::Phv phv(layout);
  RunLookupLoop(state, table, phv, layout.Find("k"), entries + 16);
}
BENCHMARK(BM_TernaryTableLookup)->Arg(16)->Arg(128)->Arg(1024);

void BM_RangeTableLookup(benchmark::State& state) {
  const auto entries = static_cast<std::size_t>(state.range(0));
  dataplane::PhvLayout layout;
  const auto table = BuildRangeBenchTable(layout, entries);
  dataplane::Phv phv(layout);
  RunLookupLoop(state, table, phv, layout.Find("k"), entries * 16 + 64);
}
BENCHMARK(BM_RangeTableLookup)->Arg(16)->Arg(128)->Arg(1024);

// A lowered Map table's shape: two 10-bit key fields, the key space cut
// into `leaves` boxes by random axis-aligned splits (a fuzzy tree's
// leaves), each box CRC-expanded into the cross product of its per-field
// ternary rules, every expanded entry carrying its leaf's words. The arg
// is the leaf count; `entries` reports the expanded size. By default a hit
// writes its leaf index to one field; with `sum_words` > 0 the table is a
// SumReduce contributor instead: a hit adds `sum_words` words in
// [-128, 128] to as many 10-bit accumulators ("a0", ...), saturating at
// 1023, as one kAddFromData run.
dataplane::MatchActionTable BuildMapBenchTable(dataplane::PhvLayout& layout,
                                               std::size_t leaves,
                                               std::size_t sum_words = 0) {
  const auto k0 = layout.AddField("k0", 10);
  const auto k1 = layout.AddField("k1", 10);
  std::vector<dataplane::ActionOp> prog;
  if (sum_words == 0) {
    prog.push_back({dataplane::ActionOp::Kind::kSetFromData,
                    layout.AddField("o", 16), 0, 0, -1});
  }
  for (std::size_t w = 0; w < sum_words; ++w) {
    prog.push_back({dataplane::ActionOp::Kind::kAddFromData,
                    layout.AddField("a" + std::to_string(w), 10), w, 0,
                    1023});
  }
  dataplane::MatchActionTable table("m", dataplane::MatchKind::kTernary,
                                    {k0, k1}, {10, 10}, prog, 16);
  struct Box {
    std::uint64_t lo[2];
    std::uint64_t hi[2];
  };
  std::vector<Box> boxes{{{0, 0}, {1023, 1023}}};
  std::mt19937_64 rng(leaves);
  while (boxes.size() < leaves) {
    Box& box = boxes[rng() % boxes.size()];
    const std::size_t d = rng() % 2;
    if (box.lo[d] == box.hi[d]) continue;
    Box upper = box;
    const std::uint64_t cut = box.lo[d] + rng() % (box.hi[d] - box.lo[d]);
    box.hi[d] = cut;
    upper.lo[d] = cut + 1;
    boxes.push_back(upper);
  }
  for (std::size_t leaf = 0; leaf < boxes.size(); ++leaf) {
    const Box& box = boxes[leaf];
    std::vector<std::int64_t> words{static_cast<std::int64_t>(leaf)};
    if (sum_words > 0) {
      words.clear();
      for (std::size_t w = 0; w < sum_words; ++w) {
        words.push_back(static_cast<std::int64_t>(rng() % 257) - 128);
      }
    }
    for (const auto& r0 : dataplane::RangeToTernary(box.lo[0], box.hi[0], 10)) {
      for (const auto& r1 :
           dataplane::RangeToTernary(box.lo[1], box.hi[1], 10)) {
        table.AddEntry({.ternary = {r0, r1}, .action_data = words});
      }
    }
  }
  table.Seal();
  return table;
}

void BM_MapTableLookup(benchmark::State& state) {
  dataplane::PhvLayout layout;
  const auto table =
      BuildMapBenchTable(layout, static_cast<std::size_t>(state.range(0)));
  const auto k0 = layout.Find("k0");
  const auto k1 = layout.Find("k1");
  std::mt19937_64 rng(7);
  std::vector<std::int64_t> keys(2 * 4096);
  for (std::int64_t& k : keys) k = static_cast<std::int64_t>(rng() & 0x3ff);
  dataplane::Phv phv(layout);
  std::size_t i = 0;
  for (auto _ : state) {
    phv.Set(k0, keys[i]);
    phv.Set(k1, keys[i + 1]);
    i = (i + 2) % keys.size();
    benchmark::DoNotOptimize(table.Apply(phv));
  }
  state.counters["entries"] = static_cast<double>(table.NumEntries());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MapTableLookup)->Arg(16)->Arg(64)->Arg(256);

void BM_TernaryApplyBatch(benchmark::State& state) {
  // 1024-entry table, 64-packet batches: the ApplyBatch shape the
  // InferenceEngine drives.
  const std::size_t entries = 1024, batch = 64;
  dataplane::PhvLayout layout;
  const auto table = BuildTernaryBenchTable(layout, entries);
  const auto key = layout.Find("k");
  std::vector<dataplane::Phv> phvs(batch, dataplane::Phv(layout));
  for (std::size_t p = 0; p < batch; ++p) {
    phvs[p].Set(key, static_cast<std::int64_t>((p * 37) % (entries + 16)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        table.ApplyBatch(std::span<dataplane::Phv>(phvs)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_TernaryApplyBatch);

void BM_MapTableApplyBatch(benchmark::State& state) {
  // The SumReduce action shape: a sealed lowered-Map table whose hits add
  // 14 words into saturating accumulators (MLP-B averages 13.6 ops per
  // hit), over the engine's 64-PHV batch. The arg is the leaf count.
  constexpr std::size_t kBatch = 64, kSumWords = 14;
  dataplane::PhvLayout layout;
  const auto table = BuildMapBenchTable(
      layout, static_cast<std::size_t>(state.range(0)), kSumWords);
  const auto k0 = layout.Find("k0");
  const auto k1 = layout.Find("k1");
  std::mt19937_64 rng(9);
  std::vector<dataplane::Phv> phvs(kBatch, dataplane::Phv(layout));
  for (dataplane::Phv& phv : phvs) {
    phv.Set(k0, static_cast<std::int64_t>(rng() & 0x3ff));
    phv.Set(k1, static_cast<std::int64_t>(rng() & 0x3ff));
    for (std::size_t w = 0; w < kSumWords; ++w) {
      phv.Set(layout.Find("a" + std::to_string(w)), 512);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        table.ApplyBatch(std::span<dataplane::Phv>(phvs)));
  }
  state.counters["entries"] = static_cast<double>(table.NumEntries());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBatch));
}
BENCHMARK(BM_MapTableApplyBatch)->Arg(16)->Arg(64);

void BM_MapTableClone(benchmark::State& state) {
  // The clone step of every SwapModelDelta, per table: a sealed lowered-Map
  // table of 64 leaves (1,230 entries) with 14 words each. 32 of them come
  // to 39,360 entries, close to MLP-B's 37,960.
  dataplane::PhvLayout layout;
  const auto table = BuildMapBenchTable(layout, 64, 14);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Clone());
  }
  state.counters["entries"] = static_cast<double>(table.NumEntries());
  state.counters["index_bytes"] =
      static_cast<double>(table.index_stats()->bytes);
}
BENCHMARK(BM_MapTableClone);

void BM_MatchIndexBuild(benchmark::State& state) {
  // Seal-time cost of compiling the match index (the one-off price a
  // table pays at placement for the indexed hot path), plus its footprint.
  const auto entries = static_cast<std::size_t>(state.range(0));
  std::vector<dataplane::TableEntry> list;
  for (std::size_t e = 0; e < entries; ++e) {
    list.push_back({.ternary = {dataplane::TernaryRule{e, 0x3ff}},
                    .priority = 1,
                    .action_data = {static_cast<std::int64_t>(e)}});
  }
  list.push_back({.ternary = {dataplane::TernaryRule{0, 0}}, .action_data = {0}});
  const std::uint64_t probe = 3;
  std::size_t bytes = 0;
  for (auto _ : state) {
    dataplane::MatchIndex index(list, /*kind_is_ternary=*/true);
    bytes = index.stats().bytes;
    benchmark::DoNotOptimize(index.FindBest(&probe));
  }
  state.counters["index_bytes"] = static_cast<double>(bytes);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(entries));
}
BENCHMARK(BM_MatchIndexBuild)->Arg(128)->Arg(1024)->Arg(4096);

void BM_PipelineProcess(benchmark::State& state) {
  // A 4-stage pipeline of small full-mask ternary tables, roughly an MLP-B
  // pass, one PHV per ProcessBatch call.
  dataplane::Pipeline pipe;
  dataplane::PhvLayout layout;
  const auto key = layout.AddField("k", 8);
  std::vector<dataplane::FieldId> outs;
  for (int s = 0; s < 4; ++s) {
    outs.push_back(layout.AddField("o" + std::to_string(s), 16));
  }
  for (std::size_t s = 0; s < 4; ++s) {
    std::vector<dataplane::ActionOp> prog{
        {dataplane::ActionOp::Kind::kAddFromData, outs[s], 0, 0, 65535}};
    auto table = std::make_unique<dataplane::MatchActionTable>(
        "t" + std::to_string(s), dataplane::MatchKind::kTernary,
        std::vector<dataplane::FieldId>{key}, std::vector<int>{8}, prog, 16);
    for (std::uint64_t v = 0; v < 256; ++v) {
      table->AddEntry({.ternary = {dataplane::TernaryRule{v, 0xff}},
                       .action_data = {static_cast<std::int64_t>(v)}});
    }
    pipe.PlaceTable(std::move(table), s);
  }
  dataplane::Phv phv(layout);
  std::size_t i = 0;
  for (auto _ : state) {
    phv.Set(key, static_cast<std::int64_t>(i++ % 256));
    benchmark::DoNotOptimize(pipe.ProcessBatch(std::span(&phv, 1)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PipelineProcess);

// ---------------------------------------------------------------------------
// Per-call vs batched inference over a lowered model (the acceptance metric
// for the runtime::InferenceEngine: batching must beat per-call Infer).
// ---------------------------------------------------------------------------

const runtime::LoweredModel& MicroLoweredModel() {
  static const runtime::LoweredModel lowered = [] {
    const std::size_t dim = 4;
    const std::size_t n = 3000;
    const auto x = RandomRows(n, dim, 11);
    core::ProgramBuilder b(dim);
    const auto segs = b.Partition(b.input(), 2, 2);
    std::vector<core::ValueId> maps;
    maps.push_back(
        b.Map(segs[0], core::MakeLinear({0.05f, -0.02f, 0.01f, 0.04f}, 2, 2,
                                        {0.5f, -0.5f}),
              32));
    maps.push_back(b.Map(
        segs[1], core::MakeLinear({-0.03f, 0.02f, 0.02f, 0.01f}, 2, 2, {}),
        32));
    const auto sum = b.SumReduce(std::span<const core::ValueId>(maps));
    const auto out = b.Map(sum, core::MakeReLU(2), 32);
    return compiler::CompileToSwitch(b.Finish(out), x, n).lowered;
  }();
  return lowered;
}

void BM_LoweredInferPerCall(benchmark::State& state) {
  const runtime::LoweredModel& lowered = MicroLoweredModel();
  const auto probes = RandomRows(1024, 4, 12);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lowered.Infer(
        std::span<const float>(probes.data() + (i++ % 1024) * 4, 4)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LoweredInferPerCall);

void BM_InferenceEngineBatched(benchmark::State& state) {
  const runtime::LoweredModel& lowered = MicroLoweredModel();
  const auto batch = static_cast<std::size_t>(state.range(0));
  runtime::InferenceEngine engine(lowered, batch);
  const auto probes = RandomRows(batch, 4, 13);
  std::vector<float> out(batch * engine.output_dim());
  for (auto _ : state) {
    engine.Infer(probes, batch, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_InferenceEngineBatched)->Arg(16)->Arg(64)->Arg(256);

// ---------------------------------------------------------------------------
// One 64-row batch through each of the paper's pipelines: the §6.3 models
// lowered as bench_table6 lowers them, after test_integration's short
// training (MLP-B: test_models' 6 epochs) — table shapes, not accuracy,
// are the point. The counters say how many tables and schedule units the
// pipeline runs (each SumReduce's Maps are one unit), how many tables end
// their class tables in the bitset root (the rest in a position root), and
// the index bytes.
// ---------------------------------------------------------------------------

enum PaperModel {
  kMlpB,
  kRnnB,
  kCnnB,
  kCnnM,
  kCnnLExtractor,
  kCnnLClassifier,
  kAutoencoder,
  kNumPaperModels
};

struct PaperPipeline {
  runtime::LoweredModel lowered;
  std::vector<float> rows;  // kPaperBatch rows of lowered.InputDim()
};

constexpr std::size_t kPaperBatch = 64;

/// Lowers `cm` as bench_table6 does; the batch cycles through `x`'s rows,
/// or, with no `x`, draws every feature across and past the input domain
/// (as test_integration feeds the CNN-L window classifier).
std::unique_ptr<PaperPipeline> LowerPaperPipeline(
    const core::CompiledModel& cm, std::size_t stateful_bits,
    std::span<const float> x) {
  runtime::LoweringOptions opts;
  opts.stateful_bits_per_flow = stateful_bits;
  auto p = std::make_unique<PaperPipeline>(
      PaperPipeline{compiler::PlaceOnSwitch(cm, opts), {}});
  const std::size_t dim = p->lowered.InputDim();
  if (x.empty()) {
    std::mt19937 rng(5);
    std::uniform_int_distribution<int> value(-8, 263);
    p->rows.resize(kPaperBatch * dim);
    for (float& v : p->rows) v = static_cast<float>(value(rng));
    return p;
  }
  const std::size_t have = x.size() / dim;
  for (std::size_t i = 0; i < kPaperBatch; ++i) {
    const auto row = x.subspan((i % have) * dim, dim);
    p->rows.insert(p->rows.end(), row.begin(), row.end());
  }
  return p;
}

std::unique_ptr<PaperPipeline> BuildPaperPipeline(PaperModel which) {
  namespace md = models;
  if (which == kCnnLExtractor || which == kCnnLClassifier) {
    static const eval::PreparedDataset raw = eval::Prepare(
        traffic::CiciotSpec(12, 23), /*with_raw_bytes=*/true);
    md::CnnLConfig cfg;
    cfg.epochs = 1;
    const auto m = md::CnnL::Train(raw.raw.train.x, raw.seq.train.x,
                                   raw.raw.train.labels, raw.raw.train.size(),
                                   raw.num_classes, cfg);
    if (which == kCnnLExtractor) {
      return LowerPaperPipeline(m->CompiledExtractor(),
                                m->FlowState().BitsPerFlow(),
                                raw.raw.test.x);
    }
    // The window classifier reads stored (feature, IPD) tuples.
    return LowerPaperPipeline(m->CompiledClassifier(), 0, {});
  }
  static const eval::PreparedDataset prep =
      eval::Prepare(traffic::CiciotSpec(30, 23), /*with_raw_bytes=*/false);
  const auto& seq = prep.seq.train;
  const std::size_t nc = prep.num_classes;
  std::unique_ptr<md::TrainedModel> m;
  switch (which) {
    case kMlpB: {
      md::MlpBConfig cfg;
      cfg.epochs = 6;
      const auto& stat = prep.stat.train;
      m = md::MlpB::Train(stat.x, stat.labels, stat.size(), stat.dim, nc,
                          cfg);
      return LowerPaperPipeline(m->Compiled(), m->FlowState().BitsPerFlow(),
                                prep.stat.test.x);
    }
    case kRnnB: {
      md::RnnBConfig cfg;
      cfg.epochs = 8;
      m = md::RnnB::Train(seq.x, seq.labels, seq.size(), seq.dim, nc, cfg);
      break;
    }
    case kCnnB: {
      md::CnnBConfig cfg;
      cfg.epochs = 4;
      m = md::CnnB::Train(seq.x, seq.labels, seq.size(), seq.dim, nc, cfg);
      break;
    }
    case kCnnM: {
      md::CnnMConfig cfg;
      cfg.epochs = 8;
      m = md::CnnM::Train(seq.x, seq.labels, seq.size(), seq.dim, nc, cfg);
      break;
    }
    default: {  // kAutoencoder; both CNN-L pipelines returned above
      md::AutoencoderConfig cfg;
      cfg.epochs = 10;
      m = md::Autoencoder::Train(seq.x, seq.size(), seq.dim, cfg);
      break;
    }
  }
  return LowerPaperPipeline(m->Compiled(), m->FlowState().BitsPerFlow(),
                            prep.seq.test.x);
}

/// Each pipeline is trained and lowered once per process, on first use.
const PaperPipeline& GetPaperPipeline(PaperModel which) {
  static std::array<std::unique_ptr<PaperPipeline>, kNumPaperModels> built;
  if (!built[which]) built[which] = BuildPaperPipeline(which);
  return *built[which];
}

void BM_PaperPipelineInferBatch(benchmark::State& state, PaperModel which) {
  const PaperPipeline& p = GetPaperPipeline(which);
  runtime::InferenceEngine engine(p.lowered, kPaperBatch);
  std::vector<std::int64_t> out(kPaperBatch * engine.output_dim());
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    engine.InferRaw(p.rows, kPaperBatch, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  const std::chrono::duration<double, std::nano> elapsed =
      std::chrono::steady_clock::now() - start;
  state.counters["ns_per_row"] =
      elapsed.count() /
      (static_cast<double>(state.iterations()) * kPaperBatch);
  const auto report = p.lowered.pipeline().MatchIndexReport();
  state.counters["tables"] = static_cast<double>(report.indexed_tables);
  state.counters["units"] =
      static_cast<double>(p.lowered.pipeline().NumUnits());
  state.counters["bitset_root_tables"] =
      static_cast<double>(report.bitset_root_tables);
  state.counters["index_bytes"] = static_cast<double>(report.bytes);
}
BENCHMARK_CAPTURE(BM_PaperPipelineInferBatch, mlp_b, kMlpB);
BENCHMARK_CAPTURE(BM_PaperPipelineInferBatch, rnn_b, kRnnB);
BENCHMARK_CAPTURE(BM_PaperPipelineInferBatch, cnn_b, kCnnB);
BENCHMARK_CAPTURE(BM_PaperPipelineInferBatch, cnn_m, kCnnM);
BENCHMARK_CAPTURE(BM_PaperPipelineInferBatch, cnn_l_extractor,
                  kCnnLExtractor);
BENCHMARK_CAPTURE(BM_PaperPipelineInferBatch, cnn_l_classifier,
                  kCnnLClassifier);
BENCHMARK_CAPTURE(BM_PaperPipelineInferBatch, autoencoder, kAutoencoder);

}  // namespace

#ifndef PEGASUS_BUILD_TYPE
#define PEGASUS_BUILD_TYPE "unknown"
#endif
#ifndef PEGASUS_GIT_SHA
#define PEGASUS_GIT_SHA "unknown"
#endif

// BENCHMARK_MAIN() plus build provenance: BENCH_micro.json must record how
// it was produced (a Debug-built artifact is not comparable to Release).
int main(int argc, char** argv) {
  benchmark::AddCustomContext("build_type", PEGASUS_BUILD_TYPE);
  benchmark::AddCustomContext("git_sha", PEGASUS_GIT_SHA);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
