#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <set>
#include <span>
#include <utility>

#include "dataplane/flow_key.hpp"
#include "dataplane/phv.hpp"
#include "dataplane/pipeline.hpp"
#include "dataplane/registers.hpp"
#include "dataplane/resources.hpp"
#include "dataplane/table.hpp"

namespace dp = pegasus::dataplane;

// ---------------------------------------------------------------- PHV

TEST(Phv, LayoutTracksWidthsAndTotal) {
  dp::PhvLayout layout;
  const auto a = layout.AddField("a", 8);
  const auto b = layout.AddField("b", 16);
  EXPECT_EQ(layout.TotalBits(), 24u);
  EXPECT_EQ(layout.width(a), 8);
  EXPECT_EQ(layout.Find("b"), b);
  EXPECT_THROW(layout.Find("c"), std::out_of_range);
  EXPECT_THROW(layout.AddField("a", 8), std::invalid_argument);
  EXPECT_THROW(layout.AddField("w", 0), std::invalid_argument);
}

TEST(Phv, GetSetRoundTrip) {
  dp::PhvLayout layout;
  const auto f = layout.AddField("x", 16);
  dp::Phv phv(layout);
  EXPECT_EQ(phv.Get(f), 0);
  phv.Set(f, -42);
  EXPECT_EQ(phv.Get(f), -42);
}

TEST(Phv, ValueDomainIsCheckedOnSet) {
  dp::PhvLayout layout;
  const auto f = layout.AddField("x", 32);
  EXPECT_THROW(layout.AddField("wide", 33), std::invalid_argument);
  dp::Phv phv(layout);
  phv.Set(f, -(std::int64_t{1} << 30));
  EXPECT_EQ(phv.Get(f), dp::kValueMin);
  phv.Set(f, (std::int64_t{1} << 30) - 1);
  EXPECT_EQ(phv.Get(f), dp::kValueMax);
  EXPECT_THROW(phv.Set(f, std::int64_t{dp::kValueMin} - 1), std::out_of_range);
  EXPECT_THROW(phv.Set(f, std::int64_t{dp::kValueMax} + 1), std::out_of_range);
  EXPECT_EQ(phv.Get(f), dp::kValueMax);  // a rejected Set writes nothing
}

// --------------------------------------------------------------- tables

namespace {

/// A ternary table on an 8-bit key whose hit copies word 0 into `out`.
std::unique_ptr<dp::MatchActionTable> MakeTable(dp::FieldId key,
                                                dp::FieldId out) {
  std::vector<dp::ActionOp> prog{{dp::ActionOp::Kind::kSetFromData, out, 0,
                                  0, -1}};
  return std::make_unique<dp::MatchActionTable>(
      "t", dp::MatchKind::kTernary, std::vector<dp::FieldId>{key},
      std::vector<int>{8}, prog, 16);
}

/// An entry matching exactly `key` on an 8-bit field (a full mask).
dp::TableEntry KeyEntry(std::uint64_t key, std::vector<std::int64_t> words) {
  return {.ternary = {dp::TernaryRule{key, 0xff}},
          .action_data = std::move(words)};
}

}  // namespace

TEST(Table, MissProgramRuns) {
  dp::PhvLayout layout;
  const auto key = layout.AddField("k", 8);
  const auto out = layout.AddField("o", 16);
  auto t = MakeTable(key, out);
  t->SetMissProgram({{dp::ActionOp::Kind::kSetConst, out, 0, -7, -1}}, {});
  dp::Phv phv(layout);
  phv.Set(key, 1);
  EXPECT_FALSE(t->Apply(phv));
  EXPECT_EQ(phv.Get(out), -7);
}

TEST(Table, TernaryPriorityOrder) {
  dp::PhvLayout layout;
  const auto key = layout.AddField("k", 8);
  const auto out = layout.AddField("o", 16);
  std::vector<dp::ActionOp> prog{{dp::ActionOp::Kind::kSetFromData, out, 0,
                                  0, -1}};
  dp::MatchActionTable t("t", dp::MatchKind::kTernary, {key}, {8}, prog, 16);
  // Catch-all (low priority) vs exact 5 (high priority).
  t.AddEntry({.ternary = {dp::TernaryRule{0, 0}}, .priority = 0, .action_data = {1}});
  t.AddEntry({.ternary = {dp::TernaryRule{5, 0xff}}, .priority = 10, .action_data = {2}});
  dp::Phv phv(layout);
  phv.Set(key, 5);
  t.Apply(phv);
  EXPECT_EQ(phv.Get(out), 2);
  phv.Set(key, 6);
  t.Apply(phv);
  EXPECT_EQ(phv.Get(out), 1);
}

TEST(Table, SaturatingAddAction) {
  dp::PhvLayout layout;
  const auto key = layout.AddField("k", 8);
  const auto acc = layout.AddField("acc", 10);
  std::vector<dp::ActionOp> prog{{dp::ActionOp::Kind::kAddFromData, acc, 0,
                                  0, 1023}};
  dp::MatchActionTable t("t", dp::MatchKind::kTernary, {key}, {8}, prog, 16);
  t.AddEntry(KeyEntry(1, {1000}));
  dp::Phv phv(layout);
  phv.Set(key, 1);
  phv.Set(acc, 100);
  t.Apply(phv);
  EXPECT_EQ(phv.Get(acc), 1023);  // 1100 saturates to 1023
}

TEST(Table, ResourceAccounting) {
  // The counts Report() reads are kept as entries load, so sealing (which
  // frees the entries) leaves every one of them as it was.
  dp::PhvLayout layout;
  const auto key = layout.AddField("k", 10);
  const auto out = layout.AddField("o", 16);
  std::vector<dp::ActionOp> prog{{dp::ActionOp::Kind::kSetFromData, out, 0,
                                  0, -1}};
  dp::MatchActionTable ternary("t", dp::MatchKind::kTernary, {key}, {10},
                               prog, 16);
  ternary.AddEntry({.ternary = {dp::TernaryRule{0, 0}}, .action_data = {1, 2}});
  ternary.AddEntry({.ternary = {dp::TernaryRule{1, 1}}, .action_data = {3}});
  dp::MatchActionTable range("r", dp::MatchKind::kRange, {key}, {10}, prog,
                             16);
  range.AddEntry({.range_lo = {0}, .range_hi = {100}, .action_data = {1}});
  range.AddEntry({.range_lo = {50}, .range_hi = {900}, .action_data = {2}});
  range.AddEntry({.range_lo = {3}, .range_hi = {3}, .action_data = {1, 2, 3}});
  const auto expect_counts = [&] {
    EXPECT_EQ(ternary.NumEntries(), 2u);
    EXPECT_EQ(ternary.KeyBits(), 10u);
    EXPECT_EQ(ternary.ActionDataBits(), 32u);      // widest: 2 words x 16 b
    EXPECT_EQ(ternary.TcamBits(), 2u * 2u * 10u);  // 2 entries
    EXPECT_EQ(ternary.SramBits(), 2u * 32u);       // data only
    EXPECT_EQ(range.NumEntries(), 3u);
    EXPECT_EQ(range.KeyBits(), 10u);
    EXPECT_EQ(range.ActionDataBits(), 48u);
    EXPECT_EQ(range.TcamBits(), 3u * 48u);  // 3 nibbles x 16 b per entry
    EXPECT_EQ(range.SramBits(), 3u * 48u);
  };
  expect_counts();
  ternary.Seal();
  range.Seal();
  ASSERT_TRUE(ternary.sealed() && range.sealed());
  expect_counts();
}

TEST(Table, ArityValidation) {
  dp::PhvLayout layout;
  const auto key = layout.AddField("k", 8);
  auto t = MakeTable(key, key);
  EXPECT_THROW(t->AddEntry({.ternary = {dp::TernaryRule{1, 0xff},
                                        dp::TernaryRule{2, 0xff}}}),
               std::invalid_argument);
  EXPECT_THROW(t->AddEntry({.range_lo = {1}, .range_hi = {2}}),
               std::invalid_argument);
  EXPECT_EQ(t->NumEntries(), 0u);
}

TEST(Table, AddEntryOnASealedTableThrowsAndChangesNothing) {
  dp::PhvLayout layout;
  const auto key = layout.AddField("k", 8);
  const auto out = layout.AddField("o", 16);
  auto t = MakeTable(key, out);
  for (std::uint64_t e = 0; e < 4; ++e) {
    t->AddEntry(KeyEntry(e, {static_cast<std::int64_t>(10 * e)}));
  }
  t->Seal();
  const std::uint64_t gen = t->generation();
  EXPECT_THROW(t->AddEntry(KeyEntry(9, {90})), std::logic_error);
  EXPECT_EQ(t->NumEntries(), 4u);
  EXPECT_EQ(t->generation(), gen);
  dp::Phv phv(layout);
  for (std::int64_t k = 0; k < 10; ++k) {
    phv.Set(key, k);
    phv.Set(out, -1);
    EXPECT_EQ(t->Apply(phv), k < 4) << "key " << k;
    EXPECT_EQ(phv.Get(out), k < 4 ? 10 * k : -1) << "key " << k;
  }
}

// ----------------------------------------------------------- value domain

namespace {

constexpr std::int64_t kBelow = std::int64_t{dp::kValueMin} - 1;
constexpr std::int64_t kAbove = std::int64_t{dp::kValueMax} + 1;

}  // namespace

TEST(ValueDomain, ProgramsOutsideTheDomainThrowAtConstruction) {
  dp::PhvLayout layout;
  const auto key = layout.AddField("k", 8);
  const auto out = layout.AddField("o", 16);
  const auto build = [&](std::int64_t imm, std::int64_t sat_max) {
    return dp::MatchActionTable(
        "t", dp::MatchKind::kTernary, {key}, {8},
        {{dp::ActionOp::Kind::kAddConst, out, 0, imm, sat_max}}, 16);
  };
  EXPECT_NO_THROW(build(dp::kValueMin, -1));
  EXPECT_NO_THROW(build(dp::kValueMax, dp::kValueMax));
  EXPECT_THROW(build(kBelow, -1), std::invalid_argument);
  EXPECT_THROW(build(kAbove, -1), std::invalid_argument);
  EXPECT_THROW(build(0, kAbove), std::invalid_argument);
}

TEST(ValueDomain, WordsOutsideTheDomainAreRejectedWithoutAChange) {
  dp::PhvLayout layout;
  const auto key = layout.AddField("k", 8);
  const auto out = layout.AddField("o", 32);
  dp::MatchActionTable t("t", dp::MatchKind::kTernary, {key}, {8},
                         {{dp::ActionOp::Kind::kSetFromData, out, 0, 0, -1}},
                         32);
  for (std::uint64_t e = 0; e < 10; ++e) {
    t.AddEntry({.ternary = {dp::TernaryRule{e, 0xff}},
                .priority = 1,
                .action_data = {static_cast<std::int64_t>(e) + dp::kValueMax -
                                9}});
  }
  const std::uint64_t gen = t.generation();
  for (const std::int64_t bad : {kBelow, kAbove}) {
    EXPECT_THROW(t.AddEntry({.ternary = {dp::TernaryRule{0, 0}},
                             .action_data = {bad}}),
                 std::invalid_argument);
    EXPECT_THROW(t.SetMissProgram({}, {0, bad}), std::invalid_argument);
  }
  EXPECT_EQ(t.NumEntries(), 10u);
  EXPECT_EQ(t.generation(), gen);

  // The index checks the words it is compiled from, too.
  std::vector<dp::TableEntry> raw(8, {.ternary = {dp::TernaryRule{0, 0}},
                                      .action_data = {1}});
  raw[5].action_data = {kAbove};
  EXPECT_THROW(dp::MatchIndex(raw, /*kind_is_ternary=*/true),
               std::invalid_argument);

  t.Seal();
  ASSERT_NE(t.index_stats(), nullptr);
  const std::size_t bytes = t.index_stats()->bytes;
  const std::uint64_t sealed_gen = t.generation();
  for (const std::int64_t bad : {kBelow, kAbove}) {
    // The first patch is valid; the second is not, so neither applies.
    const std::vector<dp::EntryPatch> delta{
        {.entry_index = 3,
         .ternary = {dp::TernaryRule{3, 0xff}},
         .priority = 1,
         .action_data = {dp::kValueMin}},
        {.entry_index = 4,
         .ternary = {dp::TernaryRule{4, 0xff}},
         .priority = 1,
         .action_data = {bad}}};
    EXPECT_THROW(t.ApplyDelta(delta), std::invalid_argument);
    EXPECT_EQ(t.index_stats()->bytes, bytes);
    EXPECT_EQ(t.generation(), sealed_gen);
    for (std::int64_t e = 0; e < 10; ++e) {
      dp::Phv phv(layout);
      phv.Set(key, e);
      ASSERT_TRUE(t.Apply(phv));
      EXPECT_EQ(phv.Get(out), e + dp::kValueMax - 9) << "entry " << e;
    }
  }
}

// ------------------------------------------------------ action programs

namespace {

/// The op-at-a-time semantics compiled action runs must reproduce: each op
/// reads, computes in int64, clamps into [0, sat_max] when sat_max >= 0 and
/// into the PHV value domain otherwise, and writes before the next op
/// starts.
void ReferenceRun(std::vector<std::int64_t>& fields,
                  const std::vector<dp::ActionOp>& ops,
                  std::span<const std::int64_t> data) {
  for (const dp::ActionOp& op : ops) {
    std::int64_t result = 0;
    switch (op.kind) {
      case dp::ActionOp::Kind::kSetConst:
        result = op.imm;
        break;
      case dp::ActionOp::Kind::kAddConst:
        result = fields.at(op.target) + op.imm;
        break;
      case dp::ActionOp::Kind::kSetFromData:
        result = data[op.data_index];
        break;
      case dp::ActionOp::Kind::kAddFromData:
        result = fields.at(op.target) + data[op.data_index];
        break;
    }
    fields.at(op.target) =
        op.sat_max >= 0 ? std::clamp<std::int64_t>(result, 0, op.sat_max)
                        : std::clamp<std::int64_t>(result, dp::kValueMin,
                                                   dp::kValueMax);
  }
}

/// A small value in [-span, span], or one at or next to an edge of the
/// value domain one time in four.
std::int64_t DrawValue(std::mt19937_64& rng, std::int64_t span) {
  constexpr std::int64_t kEdges[] = {dp::kValueMin, dp::kValueMin + 1,
                                     dp::kValueMax - 1, dp::kValueMax};
  if (rng() % 4 == 0) return kEdges[rng() % 4];
  return static_cast<std::int64_t>(rng() % static_cast<std::uint64_t>(
                                               2 * span + 1)) -
         span;
}

/// A random program over `num_fields` targets and `data_words` data words:
/// stretches of one kind that step target and data index by one (a
/// compiled run), broken by a skipped target, a skipped data word, a kind
/// change or a target written twice.
std::vector<dp::ActionOp> RandomProgram(std::mt19937_64& rng,
                                        std::size_t num_fields,
                                        std::size_t data_words) {
  constexpr dp::ActionOp::Kind kKinds[] = {
      dp::ActionOp::Kind::kSetConst, dp::ActionOp::Kind::kAddConst,
      dp::ActionOp::Kind::kSetFromData, dp::ActionOp::Kind::kAddFromData};
  constexpr std::int64_t kSat[] = {-1, -1, 0, 7, 60, dp::kValueMax};
  std::vector<dp::ActionOp> ops;
  const std::size_t stretches = 1 + rng() % 5;
  for (std::size_t s = 0; s < stretches; ++s) {
    const dp::ActionOp::Kind kind = kKinds[rng() % 4];
    const std::size_t len = 1 + rng() % 4;
    std::size_t target = rng() % num_fields;
    std::size_t data = rng() % data_words;
    // Sometimes start where the previous op left off: at its next target
    // and data word (one longer run when the kind matches), or on the
    // target it just wrote.
    if (!ops.empty() && rng() % 3 == 0) {
      target = ops.back().target + (rng() % 2 == 0 ? 1 : 0);
      data = ops.back().data_index + 1;
    }
    for (std::size_t i = 0; i < len; ++i) {
      dp::ActionOp op;
      op.kind = kind;
      op.target = (target + i + (rng() % 6 == 0 ? 1 : 0)) % num_fields;
      op.data_index = (data + i + (rng() % 6 == 0 ? 1 : 0)) % data_words;
      op.imm = DrawValue(rng, 30);
      op.sat_max = kSat[rng() % 6];
      ops.push_back(op);
    }
  }
  return ops;
}

}  // namespace

TEST(Table, CompiledProgramsMatchReferenceInterpreter) {
  // Random programs through Apply and ApplyBatch, on an indexed (sealed)
  // table and a never-sealed linear one, hit and miss, against the
  // op-at-a-time reference on the same starting fields. Start values,
  // words and immediates include the edges of the value domain, where an
  // unsaturated int32 sum would overflow.
  std::mt19937_64 rng(4242);
  constexpr std::size_t kValueFields = 12;
  constexpr std::size_t kWords = 6;
  dp::PhvLayout layout;
  const auto key = layout.AddField("k", 8);
  for (std::size_t f = 0; f < kValueFields; ++f) {
    layout.AddField("v" + std::to_string(f), 16);
  }
  for (int trial = 0; trial < 60; ++trial) {
    const auto hit_ops = RandomProgram(rng, layout.NumFields(), kWords);
    const auto miss_ops = RandomProgram(rng, layout.NumFields(), kWords);
    std::vector<std::int64_t> miss_data(kWords);
    for (std::int64_t& w : miss_data) w = DrawValue(rng, 50);
    std::vector<dp::TableEntry> entries;
    for (std::uint64_t e = 0; e < 12; ++e) {
      dp::TableEntry entry;
      entry.ternary = {dp::TernaryRule{3 * e, 0xff}};
      entry.priority = 1;
      for (std::size_t w = 0; w < kWords; ++w) {
        entry.action_data.push_back(DrawValue(rng, 50));
      }
      entries.push_back(std::move(entry));
    }
    dp::MatchActionTable sealed("s", dp::MatchKind::kTernary, {key}, {8},
                                hit_ops, 16);
    dp::MatchActionTable linear("l", dp::MatchKind::kTernary, {key}, {8},
                                hit_ops, 16);
    for (auto* t : {&sealed, &linear}) {
      for (const auto& e : entries) t->AddEntry(e);
      t->SetMissProgram(miss_ops, miss_data);
    }
    sealed.Seal();
    ASSERT_NE(sealed.index_stats(), nullptr);

    constexpr std::size_t kBatch = 24;
    std::vector<dp::Phv> start(kBatch, dp::Phv(layout));
    std::vector<std::vector<std::int64_t>> want(kBatch);
    for (std::size_t p = 0; p < kBatch; ++p) {
      start[p].Set(key, static_cast<std::int64_t>(rng() % 48));
      for (std::size_t f = 1; f < layout.NumFields(); ++f) {
        start[p].Set(f, DrawValue(rng, 40));
      }
      want[p].assign(start[p].values().begin(), start[p].values().end());
      const auto hit = linear.Lookup(start[p]);
      if (hit) {
        ReferenceRun(want[p], hit_ops, entries[*hit].action_data);
      } else {
        ReferenceRun(want[p], miss_ops, miss_data);
      }
    }
    for (const auto* t : {&sealed, &linear}) {
      std::vector<dp::Phv> batch = start;
      t->ApplyBatch(std::span<dp::Phv>(batch));
      for (std::size_t p = 0; p < kBatch; ++p) {
        dp::Phv one = start[p];
        t->Apply(one);
        for (std::size_t f = 0; f < layout.NumFields(); ++f) {
          ASSERT_EQ(one.Get(f), want[p][f])
              << t->name() << " Apply, trial " << trial << " packet " << p
              << " field " << f;
          ASSERT_EQ(batch[p].Get(f), want[p][f])
              << t->name() << " ApplyBatch, trial " << trial << " packet "
              << p << " field " << f;
        }
      }
    }
  }

  // A non-saturating add past an edge of the domain saturates at it.
  const dp::FieldId v0 = layout.Find("v0");
  const dp::FieldId v1 = layout.Find("v1");
  const dp::FieldId v2 = layout.Find("v2");
  dp::MatchActionTable edge(
      "edge", dp::MatchKind::kTernary, {key}, {8},
      {{dp::ActionOp::Kind::kAddFromData, v0, 0, 0, -1},
       {dp::ActionOp::Kind::kAddFromData, v1, 1, 0, -1},
       {dp::ActionOp::Kind::kAddConst, v2, 0, dp::kValueMax, -1}},
      16);
  for (std::uint64_t e = 0; e < 10; ++e) {
    edge.AddEntry({.ternary = {dp::TernaryRule{e, 0xff}},
                   .priority = 1,
                   .action_data = {dp::kValueMax, dp::kValueMin}});
  }
  edge.Seal();
  std::vector<dp::Phv> batch(3, dp::Phv(layout));
  for (dp::Phv& phv : batch) {
    phv.Set(key, 1);
    phv.Set(v0, 5);
    phv.Set(v1, -5);
    phv.Set(v2, 1);
  }
  dp::Phv one = batch[0];
  edge.Apply(one);
  edge.ApplyBatch(std::span<dp::Phv>(batch));
  batch.push_back(one);
  for (const dp::Phv& phv : batch) {
    EXPECT_EQ(phv.Get(v0), dp::kValueMax);
    EXPECT_EQ(phv.Get(v1), dp::kValueMin);
    EXPECT_EQ(phv.Get(v2), dp::kValueMax);
  }
}

TEST(Table, ProgramBoundsThrowOutOfRange) {
  // A target past the PHV, or a data index past the matched entry's
  // words, must throw from Apply and ApplyBatch, sealed or not.
  dp::PhvLayout layout;
  const auto key = layout.AddField("k", 8);
  const auto out = layout.AddField("o", 16);
  const auto build = [&](std::vector<dp::ActionOp> prog, bool seal) {
    auto t = std::make_unique<dp::MatchActionTable>(
        "t", dp::MatchKind::kTernary, std::vector<dp::FieldId>{key},
        std::vector<int>{8}, std::move(prog), 16);
    for (std::uint64_t e = 0; e < 10; ++e) {
      dp::TableEntry entry;
      entry.ternary = {dp::TernaryRule{e, 0xff}};
      entry.priority = 1;
      entry.action_data = {1, 2};
      t->AddEntry(std::move(entry));
    }
    if (seal) t->Seal();
    return t;
  };
  const std::vector<std::vector<dp::ActionOp>> bad = {
      {{dp::ActionOp::Kind::kSetFromData, out, 0, 0, -1},
       {dp::ActionOp::Kind::kSetConst, layout.NumFields() + 3, 0, 5, -1}},
      {{dp::ActionOp::Kind::kAddFromData, out, 0, 0, -1},
       {dp::ActionOp::Kind::kAddFromData, out, 2, 0, 100}},
  };
  for (const auto& prog : bad) {
    for (const bool seal : {true, false}) {
      const auto t = build(prog, seal);
      std::vector<dp::Phv> batch(4, dp::Phv(layout));
      for (dp::Phv& phv : batch) phv.Set(key, 200);
      batch[2].Set(key, 3);  // one hit among misses
      EXPECT_THROW(t->Apply(batch[2]), std::out_of_range);
      EXPECT_THROW(t->ApplyBatch(std::span<dp::Phv>(batch)),
                   std::out_of_range);
    }
  }
  // The miss program is checked against the miss data the same way.
  const auto t = build({}, true);
  t->SetMissProgram({{dp::ActionOp::Kind::kSetFromData, out, 1, 0, -1}}, {7});
  dp::Phv miss(layout);
  miss.Set(key, 200);
  EXPECT_THROW(t->Apply(miss), std::out_of_range);
  std::vector<dp::Phv> batch(2, miss);
  EXPECT_THROW(t->ApplyBatch(std::span<dp::Phv>(batch)), std::out_of_range);
  // A sealed Apply is a one-row ApplyBatch, so it checks both programs: a
  // hit on a PHV too narrow for the miss program's target throws too,
  // before the hit program writes.
  const auto narrow = build({{dp::ActionOp::Kind::kSetFromData, out, 0, 0, -1}},
                            true);
  narrow->SetMissProgram(
      {{dp::ActionOp::Kind::kSetConst, layout.NumFields() + 3, 0, 5, -1}},
      {});
  dp::Phv hit(layout);
  hit.Set(key, 3);
  EXPECT_THROW(narrow->Apply(hit), std::out_of_range);
  EXPECT_EQ(hit.Get(out), 0);
  std::vector<dp::Phv> hits(2, hit);
  EXPECT_THROW(narrow->ApplyBatch(std::span<dp::Phv>(hits)),
               std::out_of_range);
  EXPECT_EQ(hits[0].Get(out), 0);
}

// -------------------------------------------------------------- pipeline

TEST(Pipeline, PlacementRespectsMinStageAndCapacity) {
  dp::SwitchModel sw;
  sw.num_stages = 2;
  sw.action_bus_bits_per_stage = 16;  // fits exactly one 16-bit table
  dp::Pipeline pipe(sw);
  dp::PhvLayout layout;
  const auto key = layout.AddField("k", 8);
  const auto out = layout.AddField("o", 16);

  auto t1 = MakeTable(key, out);
  t1->AddEntry(KeyEntry(1, {10}));
  auto t2 = MakeTable(key, out);
  t2->AddEntry(KeyEntry(1, {20}));
  EXPECT_EQ(pipe.PlaceTable(std::move(t1), 0), 0u);
  // Second table exceeds stage 0's action bus -> spills to stage 1.
  EXPECT_EQ(pipe.PlaceTable(std::move(t2), 0), 1u);

  auto t3 = MakeTable(key, out);
  t3->AddEntry(KeyEntry(1, {30}));
  EXPECT_THROW(pipe.PlaceTable(std::move(t3), 0), dp::PlacementError);
}

TEST(Pipeline, ProcessRunsStagesInOrder) {
  dp::Pipeline pipe;
  dp::PhvLayout layout;
  const auto key = layout.AddField("k", 8);
  const auto out = layout.AddField("o", 16);
  // Stage 0 writes 1; stage 1 adds 2 (reads the stage-0 result).
  auto t1 = MakeTable(key, out);
  t1->AddEntry(KeyEntry(1, {100}));
  std::vector<dp::ActionOp> add_prog{{dp::ActionOp::Kind::kAddConst, out, 0,
                                      23, -1}};
  auto t2 = std::make_unique<dp::MatchActionTable>(
      "add", dp::MatchKind::kTernary, std::vector<dp::FieldId>{key},
      std::vector<int>{8}, add_prog, 16);
  t2->AddEntry(KeyEntry(1, {}));
  pipe.PlaceTable(std::move(t1), 0);
  pipe.PlaceTable(std::move(t2), 1);

  dp::Phv phv(layout);
  phv.Set(key, 1);
  EXPECT_EQ(pipe.ProcessBatch(std::span(&phv, 1)), 2u);
  EXPECT_EQ(phv.Get(out), 123);
}

TEST(Pipeline, ReportAggregates) {
  dp::Pipeline pipe;
  dp::PhvLayout layout;
  const auto key = layout.AddField("k", 8);
  const auto out = layout.AddField("o", 16);
  auto t = MakeTable(key, out);
  t->AddEntry(KeyEntry(1, {10}));
  pipe.PlaceTable(std::move(t), 3);
  pipe.DeclareFlowState(44);
  const auto rep = pipe.Report();
  EXPECT_EQ(rep.stages_used, 1u);
  EXPECT_EQ(rep.sram_bits, 16u);      // one 16-bit action word
  EXPECT_EQ(rep.tcam_bits, 2u * 8u);  // value + mask of the 8-bit key
  EXPECT_EQ(rep.stateful_bits_per_flow, 44u);
  EXPECT_GT(rep.SramPct(pipe.switch_model()), 0.0);
}

// -------------------------------------------------------------- registers

TEST(Registers, SaturateToWidth) {
  dp::RegisterArray arr("r", 8, 16);
  dp::FlowKey key{123};
  arr.Write(key, 1000);
  EXPECT_EQ(arr.Read(key), 127);
  arr.Write(key, -1000);
  EXPECT_EQ(arr.Read(key), -128);
  EXPECT_EQ(arr.SramBits(), 16u * 8u);
}

TEST(Registers, FlowsHashToSlots) {
  dp::RegisterArray arr("r", 16, 8);
  dp::FlowKey a{1}, b{9};  // collide mod 8
  arr.Write(a, 5);
  EXPECT_EQ(arr.Read(b), 5);  // hash collision is visible, as on hardware
  EXPECT_EQ(arr.SlotFor(a), arr.SlotFor(b));
}

// -------------------------------------------------------------- resources

TEST(Resources, PerFlowSramRoundsAndOverheads) {
  // 28 bits -> 32-bit slot + 16-bit digest, / 0.85 occupancy.
  const std::size_t bits = dp::PerFlowSramBits(28, 1'000'000);
  EXPECT_EQ(bits, static_cast<std::size_t>((32 + 16) * 1'000'000 / 0.85));
  // Monotone in bits/flow.
  EXPECT_LT(dp::PerFlowSramBits(28, 1000), dp::PerFlowSramBits(44, 1000));
  EXPECT_LT(dp::PerFlowSramBits(44, 1000), dp::PerFlowSramBits(72, 1000));
}

TEST(Resources, SwitchTotalsMatchPaperConstants) {
  dp::SwitchModel sw;
  EXPECT_EQ(sw.num_stages, 20u);
  EXPECT_EQ(sw.TotalSramBits(), 20u * 10u * 1024u * 1024u);
  EXPECT_EQ(sw.TotalTcamBits(), 20u * 512u * 1024u);
  EXPECT_EQ(sw.phv_bits, 4096u);
}

// -------------------------------------------------------------- flow keys

TEST(FlowKey, DigestIsDirectionSymmetric) {
  dp::FiveTuple fwd;
  fwd.version = 4;
  fwd.proto = dp::kProtoTcp;
  fwd.src = {10, 0, 0, 1};
  fwd.dst = {172, 16, 0, 2};
  fwd.src_port = 31337;
  fwd.dst_port = 443;
  dp::FiveTuple rev = fwd;
  std::swap(rev.src, rev.dst);
  std::swap(rev.src_port, rev.dst_port);

  EXPECT_EQ(dp::Canonical(fwd), dp::Canonical(rev));
  EXPECT_EQ(dp::Canonical(dp::Canonical(fwd)), dp::Canonical(fwd));
  EXPECT_EQ(dp::DigestTuple(fwd).digest, dp::DigestTuple(rev).digest);

  // Same addresses, ports swapped only — still one conversation.
  dp::FiveTuple hairpin = fwd;
  hairpin.dst = fwd.src;
  dp::FiveTuple hairpin_rev = hairpin;
  std::swap(hairpin_rev.src_port, hairpin_rev.dst_port);
  EXPECT_EQ(dp::DigestTuple(hairpin).digest,
            dp::DigestTuple(hairpin_rev).digest);
}

TEST(FlowKey, DistinctTuplesGetDistinctDigests) {
  // 20k random tuples (both IP versions, both protocols): with 64-bit
  // digests a single collision would be a ~1e-11 event — treat it as a
  // mixing bug. Also pins that version/proto/port/address all feed the
  // digest.
  std::mt19937_64 rng(2718);
  std::set<std::uint64_t> seen;
  std::size_t tuples = 0;
  for (int i = 0; i < 10000; ++i) {
    dp::FiveTuple t;
    t.version = (rng() & 1) ? 4 : 6;
    t.proto = (rng() & 1) ? dp::kProtoTcp : dp::kProtoUdp;
    const std::size_t addr_bytes = t.version == 4 ? 4 : 16;
    for (std::size_t b = 0; b < addr_bytes; ++b) {
      t.src[b] = static_cast<std::uint8_t>(rng());
      t.dst[b] = static_cast<std::uint8_t>(rng());
    }
    t.src_port = static_cast<std::uint16_t>(rng());
    t.dst_port = static_cast<std::uint16_t>(rng());
    seen.insert(dp::DigestTuple(t).digest);
    ++tuples;

    // Single-field perturbations must move the digest.
    dp::FiveTuple u = t;
    u.src_port ^= 1;
    seen.insert(dp::DigestTuple(u).digest);
    ++tuples;
  }
  EXPECT_EQ(seen.size(), tuples);

  // A v4 tuple and a v6 tuple with identical leading bytes differ.
  dp::FiveTuple v4;
  v4.src = {1, 2, 3, 4};
  v4.dst = {5, 6, 7, 8};
  dp::FiveTuple v6 = v4;
  v6.version = 6;
  EXPECT_NE(dp::DigestTuple(v4).digest, dp::DigestTuple(v6).digest);
}
