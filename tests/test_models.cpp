// Integration tests: every §6.3 model trains on a small synthetic dataset,
// compiles to a primitive program, and its fuzzy (dataplane) accuracy lands
// within a small gap of its own full-precision accuracy — the Figure 9a-c
// property at test scale.
#include <gtest/gtest.h>

#include "eval/experiment.hpp"
#include "models/autoencoder.hpp"
#include "models/cnn_b.hpp"
#include "models/cnn_l.hpp"
#include "models/cnn_m.hpp"
#include "models/mlp_b.hpp"
#include "models/rnn_b.hpp"
#include "runtime/inference_engine.hpp"
#include "runtime/lowering.hpp"

namespace ev = pegasus::eval;
namespace tr = pegasus::traffic;
namespace md = pegasus::models;

namespace {

/// One small PeerRush-like dataset shared by all tests in this binary.
const ev::PreparedDataset& Data() {
  static const ev::PreparedDataset prep =
      ev::Prepare(tr::PeerRushSpec(40, 17));
  return prep;
}

struct Scores {
  double float_f1 = 0.0;
  double fuzzy_f1 = 0.0;
};

Scores EvalClassifier(const md::TrainedModel& model,
                      const tr::SampleSet& test, std::size_t num_classes) {
  std::vector<std::int32_t> pf, pz;
  for (std::size_t i = 0; i < test.size(); ++i) {
    std::span<const float> row(test.x.data() + i * test.dim, test.dim);
    pf.push_back(model.PredictClassFloat(row));
    pz.push_back(model.PredictClassFuzzy(row));
  }
  return {ev::Evaluate(test.labels, pf, num_classes).f1,
          ev::Evaluate(test.labels, pz, num_classes).f1};
}

}  // namespace

TEST(Models, MlpBEndToEnd) {
  const auto& prep = Data();
  md::MlpBConfig cfg;
  cfg.epochs = 20;
  auto model = md::MlpB::Train(prep.stat.train.x, prep.stat.train.labels,
                               prep.stat.train.size(), prep.stat.train.dim,
                               prep.num_classes, cfg);
  const auto s = EvalClassifier(*model, prep.stat.test, prep.num_classes);
  EXPECT_GT(s.float_f1, 0.70);
  EXPECT_GT(s.fuzzy_f1, s.float_f1 - 0.08);
  EXPECT_EQ(model->InputScaleBits(), 128u);
  EXPECT_NEAR(model->ModelSizeKb(), 34.3, 8.0);  // paper: 34.3 Kb
  EXPECT_EQ(model->FlowState().BitsPerFlow(), 80u);
  // Basic fusion must have collapsed norm/BN/ReLU tables.
  EXPECT_LT(model->fusion_stats().maps_after,
            model->fusion_stats().maps_before);
}

TEST(Models, MlpBLowersAndMatchesSimulator) {
  const auto& prep = Data();
  md::MlpBConfig cfg;
  cfg.epochs = 6;
  auto model = md::MlpB::Train(prep.stat.train.x, prep.stat.train.labels,
                               prep.stat.train.size(), prep.stat.train.dim,
                               prep.num_classes, cfg);
  auto lowered = pegasus::runtime::Lower(model->Compiled(), {});
  const auto& test = prep.stat.test;
  const std::size_t n = std::min<std::size_t>(test.size(), 64);
  for (std::size_t i = 0; i < n; ++i) {
    std::span<const float> row(test.x.data() + i * test.dim, test.dim);
    EXPECT_EQ(model->Compiled().EvaluateRaw(row), lowered.InferRaw(row));
  }
  // The same rows as one batch through a 64-row engine.
  pegasus::runtime::InferenceEngine engine(lowered, 64);
  const std::size_t out_dim = engine.output_dim();
  std::vector<std::int64_t> out(n * out_dim);
  engine.InferRaw(std::span<const float>(test.x).first(n * test.dim), n, out);
  for (std::size_t i = 0; i < n; ++i) {
    std::span<const float> row(test.x.data() + i * test.dim, test.dim);
    const std::span<const std::int64_t> got(out.data() + i * out_dim, out_dim);
    EXPECT_EQ(model->Compiled().EvaluateRaw(row),
              std::vector<std::int64_t>(got.begin(), got.end()))
        << "batched row " << i;
  }
  const auto rep = lowered.Report();
  EXPECT_GT(rep.tcam_bits, 0u);
}

TEST(Models, RnnBEndToEnd) {
  const auto& prep = Data();
  md::RnnBConfig cfg;
  cfg.epochs = 20;
  auto model = md::RnnB::Train(prep.seq.train.x, prep.seq.train.labels,
                               prep.seq.train.size(), prep.seq.train.dim,
                               prep.num_classes, cfg);
  const auto s = EvalClassifier(*model, prep.seq.test, prep.num_classes);
  EXPECT_GT(s.float_f1, 0.70);
  EXPECT_GT(s.fuzzy_f1, s.float_f1 - 0.12);
  EXPECT_EQ(model->FlowState().BitsPerFlow(), 240u);
}

TEST(Models, CnnBEndToEnd) {
  const auto& prep = Data();
  md::CnnBConfig cfg;
  cfg.epochs = 20;
  auto model = md::CnnB::Train(prep.seq.train.x, prep.seq.train.labels,
                               prep.seq.train.size(), prep.seq.train.dim,
                               prep.num_classes, cfg);
  const auto s = EvalClassifier(*model, prep.seq.test, prep.num_classes);
  EXPECT_GT(s.float_f1, 0.70);
  EXPECT_GT(s.fuzzy_f1, s.float_f1 - 0.10);
  EXPECT_EQ(model->FlowState().BitsPerFlow(), 72u);
}

TEST(Models, CnnMEndToEndAndFewTables) {
  const auto& prep = Data();
  md::CnnMConfig cfg;
  cfg.epochs = 20;
  auto model = md::CnnM::Train(prep.seq.train.x, prep.seq.train.labels,
                               prep.seq.train.size(), prep.seq.train.dim,
                               prep.num_classes, cfg);
  const auto s = EvalClassifier(*model, prep.seq.test, prep.num_classes);
  EXPECT_GT(s.float_f1, 0.72);
  EXPECT_GT(s.fuzzy_f1, s.float_f1 - 0.10);
  // Advanced fusion: one Map per segment, nothing else (7 segments for a
  // window of 8 packets).
  EXPECT_EQ(model->Compiled().NumTables(), 7u);
  // CNN-M is much bigger than CNN-B yet uses fewer tables (Table 6 story).
  EXPECT_GT(model->ModelSizeKb(), 500.0);
}

TEST(Models, CnnLEndToEnd) {
  const auto& prep = Data();
  md::CnnLConfig cfg;
  cfg.epochs = 6;
  const auto& train = prep.raw.train;
  auto model =
      md::CnnL::Train(train.x, prep.seq.train.x, train.labels, train.size(),
                      prep.num_classes, cfg);
  // Evaluate on packed inputs.
  const auto& test = prep.raw.test;
  std::vector<std::int32_t> pf, pz;
  for (std::size_t i = 0; i < test.size(); ++i) {
    const auto packed = md::CnnL::PackInput(
        std::span<const float>(test.x.data() + i * test.dim, test.dim),
        std::span<const float>(prep.seq.test.x.data() + i * prep.seq.test.dim,
                               prep.seq.test.dim),
        cfg.use_ipd);
    pf.push_back(model->PredictClassFloat(packed));
    pz.push_back(model->PredictClassFuzzy(packed));
  }
  const double f1_float =
      ev::Evaluate(test.labels, pf, prep.num_classes).f1;
  const double f1_fuzzy =
      ev::Evaluate(test.labels, pz, prep.num_classes).f1;
  // Raw bytes carry near-noiseless class signal: CNN-L should dominate.
  EXPECT_GT(f1_float, 0.9);
  EXPECT_GT(f1_fuzzy, f1_float - 0.1);
  EXPECT_EQ(model->InputScaleBits(), 3840u);
  EXPECT_EQ(model->FlowState().BitsPerFlow(), 44u);  // Figure 7 midpoint
}

TEST(Models, CnnLFlowStateVariants) {
  md::CnnLConfig cfg28;
  cfg28.use_ipd = false;
  md::CnnLConfig cfg72;
  cfg72.index_bits = 8;
  // FlowState depends only on config; build via a tiny training run.
  const auto& prep = Data();
  const auto& train = prep.raw.train;
  cfg28.epochs = 1;
  cfg72.epochs = 1;
  auto m28 = md::CnnL::Train(train.x, prep.seq.train.x, train.labels,
                             train.size(), prep.num_classes, cfg28);
  auto m72 = md::CnnL::Train(train.x, prep.seq.train.x, train.labels,
                             train.size(), prep.num_classes, cfg72);
  EXPECT_EQ(m28->FlowState().BitsPerFlow(), 28u);
  EXPECT_EQ(m72->FlowState().BitsPerFlow(), 72u);
}

TEST(Models, AutoencoderSeparatesAttacks) {
  const auto& prep = Data();
  md::AutoencoderConfig cfg;
  cfg.epochs = 25;
  auto model = md::Autoencoder::Train(prep.seq.train.x, prep.seq.train.size(),
                                      prep.seq.train.dim, cfg);
  // Benign test scores vs flood-attack scores.
  const auto attacks = tr::AttackProfiles();
  auto flood = tr::GenerateFlows(attacks[1], 30, -1, 24, 48, 77);
  const auto atk = tr::ExtractSeqFeatures(flood);
  double benign_mean = 0, attack_mean = 0;
  const auto& test = prep.seq.test;
  for (std::size_t i = 0; i < test.size(); ++i) {
    benign_mean += model->ScoreFuzzy(
        std::span<const float>(test.x.data() + i * test.dim, test.dim));
  }
  benign_mean /= static_cast<double>(test.size());
  for (std::size_t i = 0; i < atk.size(); ++i) {
    attack_mean += model->ScoreFuzzy(
        std::span<const float>(atk.x.data() + i * atk.dim, atk.dim));
  }
  attack_mean /= static_cast<double>(atk.size());
  EXPECT_GT(attack_mean, benign_mean * 1.3)
      << "flood traffic must reconstruct worse than benign";
  EXPECT_EQ(model->FlowState().BitsPerFlow(), 240u);
}
