// Cross-module integration tests: every model family must lower onto the
// simulated switch with bit-exact semantics (host fuzzy reference ==
// pipeline, and every Map table's compiled index == a linear scan of its
// entries), fit the resource envelope, and emit plausible P4. These are
// the end-to-end guarantees a deployment would rely on.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "compiler/compiler.hpp"
#include "dataplane/match_index.hpp"
#include "eval/experiment.hpp"
#include "models/autoencoder.hpp"
#include "models/cnn_b.hpp"
#include "models/cnn_l.hpp"
#include "models/cnn_m.hpp"
#include "models/rnn_b.hpp"
#include "runtime/inference_engine.hpp"
#include "runtime/lowering.hpp"
#include "runtime/p4gen.hpp"

namespace dp = pegasus::dataplane;
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

/// The first of `entries` in TCAM order (priority desc, index asc) whose
/// rules accept `key`: the reference a compiled index must equal.
std::optional<std::size_t> LinearFind(const std::vector<dp::TableEntry>& entries,
                                      const std::vector<std::size_t>& order,
                                      bool ternary,
                                      const std::vector<std::uint64_t>& key) {
  for (const std::size_t e : order) {
    bool hit = true;
    for (std::size_t f = 0; hit && f < key.size(); ++f) {
      hit = ternary ? entries[e].ternary[f].Matches(key[f])
                    : entries[e].range_lo[f] <= key[f] &&
                          key[f] <= entries[e].range_hi[f];
    }
    if (hit) return e;
  }
  return std::nullopt;
}

/// Every Map table of `cm`, its entries regenerated as the lowering
/// installs them (Seal() frees the placed tables' entries), compiled into
/// a fresh MatchIndex and checked against LinearFind: each probe through
/// FindBest, then all of them through one FindBatch call. A range table
/// is probed at each entry's bounds and bounds +/- 1, a ternary table at
/// each rule's value with none, all, or a random subset of its don't-care
/// bits flipped. Every index with a key dimension has class cells.
void ExpectTablesMatchLinear(const pegasus::core::CompiledModel& cm) {
  const std::size_t max_ternary =
      rt::LoweringOptions{}.max_ternary_entries_per_table;
  const auto& ops = cm.program().ops();
  std::mt19937_64 rng(17);
  for (std::size_t oi = 0; oi < ops.size(); ++oi) {
    if (ops[oi].kind != pegasus::core::OpKind::kMap || !cm.tables()[oi]) {
      continue;
    }
    const rt::TableLowering tl = rt::LowerMapEntries(cm, oi, max_ternary);
    std::vector<dp::TableEntry> entries;
    for (const rt::LoweredLeaf& ll : tl.leaves) {
      rt::AppendLeafEntries(tl, ll, entries);
    }
    const bool ternary = !tl.use_range;
    const dp::MatchIndex index(entries, ternary);
    const dp::MatchIndexStats& stats = index.stats();
    if (stats.nibble_chunks + stats.intervals > 0) {
      EXPECT_GT(stats.class_cells, 0u) << tl.name;
    }
    std::vector<std::size_t> order(entries.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return entries[a].priority > entries[b].priority;
                     });

    // Probes as PHV words; FindBest reads the same value sign-extended.
    const std::size_t nk = tl.key_widths.size();
    std::vector<std::int32_t> words;
    const auto add_probe = [&](const auto& value_of) {
      for (std::size_t f = 0; f < nk; ++f) {
        words.push_back(static_cast<std::int32_t>(value_of(f)));
      }
    };
    for (const dp::TableEntry& e : entries) {
      if (ternary) {
        for (int flip = 0; flip < 3; ++flip) {
          add_probe([&](std::size_t f) {
            const std::uint64_t width = (1ull << tl.key_widths[f]) - 1;
            const std::uint64_t dont_care = ~e.ternary[f].mask & width;
            const std::uint64_t bits =
                flip == 0 ? 0 : flip == 1 ? dont_care : dont_care & rng();
            return static_cast<std::int64_t>((e.ternary[f].value & width) ^
                                             bits);
          });
        }
        continue;
      }
      for (const std::int64_t delta : {-1, 0, 1}) {
        add_probe([&](std::size_t f) {
          return static_cast<std::int64_t>(e.range_lo[f]) + delta;
        });
        add_probe([&](std::size_t f) {
          return static_cast<std::int64_t>(e.range_hi[f]) + delta;
        });
      }
    }
    const std::size_t n = words.size() / std::max<std::size_t>(nk, 1);
    std::vector<const std::int32_t*> rows(n);
    std::vector<std::int32_t> got(n);
    for (std::size_t p = 0; p < n; ++p) {
      rows[p] = words.data() + p * nk;
      std::vector<std::uint64_t> key(nk);
      for (std::size_t f = 0; f < nk; ++f) {
        key[f] = static_cast<std::uint64_t>(
            static_cast<std::int64_t>(rows[p][f]));
      }
      const std::optional<std::size_t> want =
          LinearFind(entries, order, ternary, key);
      const std::int32_t pos = index.FindBest(key.data());
      ASSERT_EQ(want.has_value(), pos != dp::MatchIndex::kMiss)
          << tl.name << " probe " << p;
      if (want) {
        ASSERT_EQ(index.EntryIndex(pos), *want) << tl.name << " probe " << p;
      }
      got[p] = pos;
    }
    std::vector<dp::FieldId> key_fields(nk);
    std::iota(key_fields.begin(), key_fields.end(), dp::FieldId{0});
    std::vector<std::int32_t> batch(n);
    index.FindBatch(rows.data(), n, key_fields.data(), batch.data());
    ASSERT_EQ(batch, got) << tl.name << ": FindBatch != FindBest";
  }
}

/// InferRaw == EvaluateRaw on the first `count` rows of `x`, each
/// lowered.InputDim() wide: one row at a time, then every row through one
/// 64-row InferenceEngine in a single batched InferRaw call (80 rows or
/// more cross a chunk boundary). Then every Map table's index against a
/// linear scan (ExpectTablesMatchLinear). Records how many of the
/// pipeline's tables end their class tables in the bitset root as the
/// test property `<name>_bitset_root_tables`, "bitset-root/tables".
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
  ExpectTablesMatchLinear(cm);
  const auto report = lowered.pipeline().MatchIndexReport();
  ::testing::Test::RecordProperty(
      std::string(name) + "_bitset_root_tables",
      std::to_string(report.bitset_root_tables) + "/" +
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

TEST(Integration, RnnBWithSeventeenRangeFieldsLowersBitExact) {
  // hidden = 15: each step table keys on 15 hidden values plus (len, ipd),
  // 17 range fields, so 17 class-table dimensions.
  const auto& prep = Data();
  md::RnnBConfig cfg;
  cfg.epochs = 8;
  cfg.hidden = 15;
  auto m = md::RnnB::Train(prep.seq.train.x, prep.seq.train.labels,
                           prep.seq.train.size(), prep.seq.train.dim,
                           prep.num_classes, cfg);
  std::size_t widest = 0;
  const auto& ops = m->Compiled().program().ops();
  for (std::size_t oi = 0; oi < ops.size(); ++oi) {
    if (ops[oi].kind != pegasus::core::OpKind::kMap ||
        !m->Compiled().tables()[oi]) {
      continue;
    }
    widest = std::max(
        widest, rt::LowerMapEntries(m->Compiled(), oi,
                                    rt::LoweringOptions{}
                                        .max_ternary_entries_per_table)
                    .key_widths.size());
  }
  EXPECT_EQ(widest, 17u);
  auto lowered = rt::Lower(m->Compiled(), {});
  ExpectBitExact("rnn_b_hidden15", m->Compiled(), lowered, prep.seq.test,
                 80);
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
