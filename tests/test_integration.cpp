// Cross-module integration tests: every model family must lower onto the
// simulated switch with bit-exact semantics (host fuzzy reference ==
// pipeline), fit the resource envelope, and emit plausible P4. These are
// the end-to-end guarantees a deployment would rely on.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "compiler/compiler.hpp"
#include "eval/experiment.hpp"
#include "models/autoencoder.hpp"
#include "models/cnn_b.hpp"
#include "models/cnn_l.hpp"
#include "models/cnn_m.hpp"
#include "models/rnn_b.hpp"
#include "runtime/inference_engine.hpp"
#include "runtime/lowering.hpp"
#include "runtime/p4gen.hpp"

namespace ev = pegasus::eval;
namespace md = pegasus::models;
namespace rt = pegasus::runtime;
namespace tr = pegasus::traffic;

namespace {

const ev::PreparedDataset& Data() {
  static const ev::PreparedDataset prep =
      ev::Prepare(tr::CiciotSpec(30, 23), /*with_raw_bytes=*/false);
  return prep;
}

/// InferRaw == EvaluateRaw on the first `count` rows of `x`, each
/// lowered.InputDim() wide: one row at a time, then every row through one
/// 64-row InferenceEngine in a single batched InferRaw call (80 rows or
/// more cross a chunk boundary). Records how many of the pipeline's tables
/// serve by aggregated bit vectors (ABV) as the test property
/// `<name>_abv_tables`, "abv/tables".
void ExpectBitExact(const char* name, const pegasus::core::CompiledModel& cm,
                    const rt::LoweredModel& lowered, std::span<const float> x,
                    std::size_t count) {
  const std::size_t dim = lowered.InputDim();
  ASSERT_GT(dim, 0u);
  const std::size_t n = std::min(x.size() / dim, count);
  ASSERT_GT(n, 0u);
  std::vector<std::vector<std::int64_t>> want;
  for (std::size_t i = 0; i < n; ++i) {
    const std::span<const float> row = x.subspan(i * dim, dim);
    want.push_back(cm.EvaluateRaw(row));
    ASSERT_EQ(want.back(), lowered.InferRaw(row)) << "sample " << i;
  }
  rt::InferenceEngine engine(lowered, 64);
  const std::size_t out_dim = engine.output_dim();
  std::vector<std::int64_t> out(n * out_dim);
  engine.InferRaw(x.first(n * dim), n, out);
  for (std::size_t i = 0; i < n; ++i) {
    const std::span<const std::int64_t> got(out.data() + i * out_dim, out_dim);
    ASSERT_EQ(want[i], std::vector<std::int64_t>(got.begin(), got.end()))
        << "batched sample " << i;
  }
  const auto report = lowered.pipeline().MatchIndexReport();
  ::testing::Test::RecordProperty(
      std::string(name) + "_abv_tables",
      std::to_string(report.indexed_tables - report.classified_tables) + "/" +
          std::to_string(report.indexed_tables));
}

void ExpectBitExact(const char* name, const pegasus::core::CompiledModel& cm,
                    const rt::LoweredModel& lowered,
                    const tr::SampleSet& samples, std::size_t count) {
  ASSERT_EQ(samples.dim, lowered.InputDim());
  ExpectBitExact(name, cm, lowered, samples.x, count);
}

}  // namespace

TEST(Integration, RnnBLowersBitExact) {
  const auto& prep = Data();
  md::RnnBConfig cfg;
  cfg.epochs = 8;
  auto m = md::RnnB::Train(prep.seq.train.x, prep.seq.train.labels,
                           prep.seq.train.size(), prep.seq.train.dim,
                           prep.num_classes, cfg);
  // The RNN's wide step tables exercise the range-match fallback.
  auto lowered = rt::Lower(m->Compiled(), {});
  ExpectBitExact("rnn_b", m->Compiled(), lowered, prep.seq.test, 80);
  const auto rep = lowered.Report();
  EXPECT_GT(rep.tcam_bits, 0u);
  // Chained steps need at least window-many stages.
  EXPECT_GE(lowered.StagesUsed(), tr::kWindow);
}

TEST(Integration, CnnMLowersBitExactInOneStage) {
  const auto& prep = Data();
  md::CnnMConfig cfg;
  cfg.epochs = 8;
  auto m = md::CnnM::Train(prep.seq.train.x, prep.seq.train.labels,
                           prep.seq.train.size(), prep.seq.train.dim,
                           prep.num_classes, cfg);
  auto lowered = rt::Lower(m->Compiled(), {});
  ExpectBitExact("cnn_m", m->Compiled(), lowered, prep.seq.test, 80);
  // Advanced fusion: independent per-segment Maps, all level-0.
  EXPECT_EQ(lowered.StagesUsed(), 1u);
}

TEST(Integration, CnnBLowersBitExact) {
  const auto& prep = Data();
  md::CnnBConfig cfg;
  cfg.epochs = 4;
  auto m = md::CnnB::Train(prep.seq.train.x, prep.seq.train.labels,
                           prep.seq.train.size(), prep.seq.train.dim,
                           prep.num_classes, cfg);
  // Lowered as bench_table6 lowers the Table 6 models.
  rt::LoweringOptions opts;
  opts.stateful_bits_per_flow = m->FlowState().BitsPerFlow();
  const auto lowered = pegasus::compiler::PlaceOnSwitch(m->Compiled(), opts);
  ExpectBitExact("cnn_b", m->Compiled(), lowered, prep.seq.test, 80);
}

TEST(Integration, CnnLExtractorAndClassifierLowerBitExact) {
  static const ev::PreparedDataset prep =
      ev::Prepare(tr::CiciotSpec(12, 23), /*with_raw_bytes=*/true);
  md::CnnLConfig cfg;
  cfg.epochs = 1;
  auto m = md::CnnL::Train(prep.raw.train.x, prep.seq.train.x,
                           prep.raw.train.labels, prep.raw.train.size(),
                           prep.num_classes, cfg);
  // Lowered as bench_table6 lowers CNN-L: the extractor carries the flow
  // state, the window classifier is placed on its own.
  rt::LoweringOptions opts;
  opts.stateful_bits_per_flow = m->FlowState().BitsPerFlow();
  const auto ext =
      pegasus::compiler::PlaceOnSwitch(m->CompiledExtractor(), opts);
  const auto cls = pegasus::compiler::PlaceOnSwitch(m->CompiledClassifier());
  // The extractor reads one packet's bytes: every packet of a raw window
  // is a row.
  ExpectBitExact("cnn_l_extractor", m->CompiledExtractor(), ext,
                 prep.raw.test.x, 400);
  // The classifier reads the window's stored (feature, IPD) tuples: draw
  // them across and past the input domain.
  std::mt19937 rng(5);
  std::uniform_int_distribution<int> value(-8, 263);
  std::vector<float> rows(200 * cls.InputDim());
  for (float& v : rows) v = static_cast<float>(value(rng));
  ExpectBitExact("cnn_l_classifier", m->CompiledClassifier(), cls, rows, 200);
}

TEST(Integration, AutoencoderLowersBitExact) {
  const auto& prep = Data();
  md::AutoencoderConfig cfg;
  cfg.epochs = 10;
  auto m = md::Autoencoder::Train(prep.seq.train.x, prep.seq.train.size(),
                                  prep.seq.train.dim, cfg);
  auto lowered = rt::Lower(m->Compiled(), {});
  ExpectBitExact("autoencoder", m->Compiled(), lowered, prep.seq.test, 80);
  // The anomaly score leaves the pipeline as a single dequantizable field.
  const auto raw = lowered.InferRaw(std::span<const float>(
      prep.seq.test.x.data(), prep.seq.test.dim));
  EXPECT_EQ(raw.size(), 1u);
}

TEST(Integration, P4EmissionCoversEveryModelFamily) {
  const auto& prep = Data();
  md::CnnMConfig cfg;
  cfg.epochs = 2;
  auto m = md::CnnM::Train(prep.seq.train.x, prep.seq.train.labels,
                           prep.seq.train.size(), prep.seq.train.dim,
                           prep.num_classes, cfg);
  const std::string p4 = rt::EmitP4(m->Compiled());
  EXPECT_NE(p4.find("control PegasusIngress"), std::string::npos);
  std::size_t tables = 0, pos = 0;
  while ((pos = p4.find("table map_", pos)) != std::string::npos) {
    ++tables;
    pos += 10;
  }
  EXPECT_EQ(tables, m->Compiled().NumTables());
}

TEST(Integration, ResourceEnvelopeHoldsForAllModels) {
  // Every §6.3 model must fit the Tofino-2 envelope — the feasibility
  // claim behind Table 6.
  const auto& prep = Data();
  const pegasus::dataplane::SwitchModel sw;
  {
    md::RnnBConfig cfg;
    cfg.epochs = 2;
    auto m = md::RnnB::Train(prep.seq.train.x, prep.seq.train.labels,
                             prep.seq.train.size(), prep.seq.train.dim,
                             prep.num_classes, cfg);
    const auto rep = rt::Lower(m->Compiled(), {}).Report();
    EXPECT_LT(rep.SramPct(sw), 100.0);
    EXPECT_LT(rep.TcamPct(sw), 100.0);
  }
  {
    md::AutoencoderConfig cfg;
    cfg.epochs = 2;
    auto m = md::Autoencoder::Train(prep.seq.train.x, prep.seq.train.size(),
                                    prep.seq.train.dim, cfg);
    const auto rep = rt::Lower(m->Compiled(), {}).Report();
    EXPECT_LT(rep.TcamPct(sw), 100.0);
  }
}

TEST(Integration, DeterministicEndToEnd) {
  // Same seeds -> identical compiled tables and predictions.
  const auto& prep = Data();
  md::CnnMConfig cfg;
  cfg.epochs = 3;
  auto a = md::CnnM::Train(prep.seq.train.x, prep.seq.train.labels,
                           prep.seq.train.size(), prep.seq.train.dim,
                           prep.num_classes, cfg);
  auto b = md::CnnM::Train(prep.seq.train.x, prep.seq.train.labels,
                           prep.seq.train.size(), prep.seq.train.dim,
                           prep.num_classes, cfg);
  for (std::size_t i = 0; i < std::min<std::size_t>(prep.seq.test.size(), 50);
       ++i) {
    std::span<const float> row(
        prep.seq.test.x.data() + i * prep.seq.test.dim, prep.seq.test.dim);
    EXPECT_EQ(a->Compiled().EvaluateRaw(row), b->Compiled().EvaluateRaw(row));
  }
}
