// Property tests for the compiled match index: the sealed (indexed) lookup
// path must be bit-identical to the linear-scan reference on randomized
// ternary/range tables — same winners under priority ties, same misses,
// same PHV contents after Apply/ApplyBatch, with entries sharing
// action-data slices — whether the class tables end in a position root or
// a bitset root, plus the build/sealed lifecycle and the action-word delta
// contract. Each probe set runs one key at a time and then as one
// ApplyBatch call spanning full batch chunks and a partial one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <random>
#include <span>
#include <vector>

#include "dataplane/crc.hpp"
#include "dataplane/match_index.hpp"
#include "dataplane/pipeline.hpp"
#include "dataplane/table.hpp"

namespace dp = pegasus::dataplane;

namespace {

struct TablePair {
  dp::PhvLayout layout;
  std::vector<dp::FieldId> keys;
  dp::FieldId out = 0;  // first output field; one per action word
  std::unique_ptr<dp::MatchActionTable> indexed;  // sealed
  std::unique_ptr<dp::MatchActionTable> linear;   // never sealed
};

/// Both tables copy every action word of the winning entry into its own
/// output field (entries[0] sets the word count; no entries, no words). A key wider than a PHV
/// container (32 bits) still matches as declared: its PHV field holds the
/// key as a signed value, and a key near 2^64 is a small negative value
/// that sign-extends back.
TablePair MakePair(dp::MatchKind kind, const std::vector<int>& widths,
                   const std::vector<dp::TableEntry>& entries) {
  TablePair p;
  for (std::size_t i = 0; i < widths.size(); ++i) {
    p.keys.push_back(p.layout.AddField("k" + std::to_string(i),
                                       std::min(widths[i], 32)));
  }
  std::vector<dp::ActionOp> prog;
  const std::size_t words =
      entries.empty() ? 0 : entries[0].action_data.size();
  for (std::size_t w = 0; w < words; ++w) {
    const dp::FieldId f = p.layout.AddField("o" + std::to_string(w), 32);
    if (w == 0) p.out = f;
    prog.push_back({dp::ActionOp::Kind::kSetFromData, f, w, 0, -1});
  }
  p.indexed = std::make_unique<dp::MatchActionTable>("idx", kind, p.keys,
                                                     widths, prog, 32);
  p.linear = std::make_unique<dp::MatchActionTable>("lin", kind, p.keys,
                                                    widths, prog, 32);
  for (const dp::TableEntry& e : entries) {
    p.indexed->AddEntry(e);
    p.linear->AddEntry(e);
  }
  p.indexed->Seal();
  return p;
}

dp::Phv KeyedPhv(const TablePair& p, const std::vector<std::uint64_t>& key) {
  dp::Phv phv(p.layout);
  for (std::size_t i = 0; i < p.keys.size(); ++i) {
    phv.Set(p.keys[i], static_cast<std::int64_t>(key[i]));
  }
  return phv;
}

void ExpectSameFields(const dp::Phv& a, const dp::Phv& b) {
  for (std::size_t f = 0; f < a.layout().NumFields(); ++f) {
    ASSERT_EQ(a.Get(f), b.Get(f)) << "field " << f;
  }
}

/// Lookups on both tables must agree exactly (hit/miss and entry index),
/// and so must every field after Apply.
void ExpectSameLookup(const TablePair& p, const std::vector<std::uint64_t>& key) {
  dp::Phv a = KeyedPhv(p, key);
  dp::Phv b = a;
  ASSERT_EQ(p.indexed->Lookup(a), p.linear->Lookup(b)) << "key[0]=" << key[0];
  p.indexed->Apply(a);
  p.linear->Apply(b);
  ExpectSameFields(a, b);
}

using Keys = std::vector<std::vector<std::uint64_t>>;

/// Every probe through one sealed ApplyBatch call: per PHV, every field
/// must equal the linear table's Apply, and the hit count its hits. The
/// probes span full MatchIndex::kBatchRows chunks and a partial one.
void ExpectBatchMatchesLinear(const TablePair& p, const Keys& keys) {
  ASSERT_GT(keys.size(), dp::MatchIndex::kBatchRows);
  ASSERT_NE(keys.size() % dp::MatchIndex::kBatchRows, 0u);
  std::vector<dp::Phv> batch;
  for (const auto& key : keys) batch.push_back(KeyedPhv(p, key));
  std::vector<dp::Phv> want = batch;
  std::size_t hits = 0;
  for (dp::Phv& phv : want) hits += p.linear->Apply(phv) ? 1 : 0;
  EXPECT_EQ(p.indexed->ApplyBatch(std::span<dp::Phv>(batch)), hits);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    for (std::size_t f = 0; f < p.layout.NumFields(); ++f) {
      ASSERT_EQ(batch[i].Get(f), want[i].Get(f))
          << "PHV " << i << " field " << f;
    }
  }
}

/// ExpectSameLookup on each probe, then all of them as one batch.
void ExpectSameDecisions(const TablePair& p, const Keys& keys) {
  for (const auto& key : keys) ExpectSameLookup(p, key);
  ExpectBatchMatchesLinear(p, keys);
}

/// A patched pair's sealed table must decide exactly like `fresh`, built
/// from scratch over the patched entry list: the same winner as its sealed
/// and its linear table, and the same fields after Apply. (Only sealed
/// tables take deltas, so the patched pair's own linear table is stale.)
void ExpectSameDecision(const TablePair& patched, const TablePair& fresh,
                        const std::vector<std::uint64_t>& key) {
  dp::Phv a = KeyedPhv(patched, key);
  dp::Phv b = KeyedPhv(fresh, key);
  ASSERT_EQ(patched.indexed->Lookup(a), fresh.indexed->Lookup(b));
  ASSERT_EQ(patched.indexed->Lookup(a), fresh.linear->Lookup(b));
  patched.indexed->Apply(a);
  fresh.linear->Apply(b);
  ExpectSameFields(a, b);
}

/// `len` action words from a pool of four slices, so many entries share
/// one slice, as a leaf's CRC-expanded entries do.
std::vector<std::int64_t> PoolWords(std::mt19937_64& rng, std::size_t len) {
  const auto k = static_cast<std::int64_t>(rng() % 4);
  std::vector<std::int64_t> words;
  for (std::size_t j = 0; j < len; ++j) {
    words.push_back(100 * k + static_cast<std::int64_t>(j));
  }
  return words;
}

std::vector<std::uint64_t> RandomKey(std::mt19937_64& rng,
                                     const std::vector<int>& widths,
                                     bool allow_overwide) {
  std::vector<std::uint64_t> key;
  for (int w : widths) {
    const std::uint64_t dmax =
        w >= 64 ? ~0ull : (1ull << w) - 1;
    std::uint64_t v = rng() & dmax;
    // Overwide keys: bits above the declared field width must not change
    // the outcome on either path (no rule masks them).
    if (allow_overwide && w < 60 && rng() % 4 == 0) v |= 1ull << (w + 2);
    key.push_back(v);
  }
  return key;
}

}  // namespace

TEST(MatchIndex, RandomTernaryTablesMatchLinearReference) {
  std::mt19937_64 rng(1234);
  const std::vector<std::vector<int>> shapes = {{10}, {8, 8}, {6, 10, 16}};
  for (const auto& widths : shapes) {
    for (int trial = 0; trial < 6; ++trial) {
      std::vector<dp::TableEntry> entries;
      const std::size_t n = 20 + rng() % 180;
      const std::size_t words = 1 + rng() % 3;
      for (std::size_t e = 0; e < n; ++e) {
        dp::TableEntry entry;
        for (int w : widths) {
          const std::uint64_t dmax = (1ull << w) - 1;
          // Mix of rule shapes: exact value, random mask (non-prefix
          // masks included), and catch-all.
          const int mode = static_cast<int>(rng() % 4);
          dp::TernaryRule r;
          if (mode == 0) {
            r = {rng() & dmax, dmax};
          } else if (mode == 3) {
            r = {0, 0};
          } else {
            r = {rng() & dmax, rng() & dmax};
          }
          entry.ternary.push_back(r);
        }
        entry.priority = static_cast<int>(rng() % 5);  // plenty of ties
        entry.action_data = PoolWords(rng, words);
        entries.push_back(entry);
      }
      const TablePair p = MakePair(dp::MatchKind::kTernary, widths, entries);
      ASSERT_NE(p.indexed->index_stats(), nullptr);
      Keys probes;
      for (int probe = 0; probe < 300; ++probe) {
        probes.push_back(RandomKey(rng, widths, /*allow_overwide=*/true));
      }
      // Probes seeded from entry values (guaranteed-hit-heavy).
      for (std::size_t e = 0; e < entries.size(); e += 3) {
        std::vector<std::uint64_t> key;
        for (std::size_t i = 0; i < widths.size(); ++i) {
          key.push_back(entries[e].ternary[i].value ^
                        (rng() % 3 == 0 ? 1ull : 0ull));
        }
        probes.push_back(key);
      }
      ExpectSameDecisions(p, probes);
    }
  }
}

TEST(MatchIndex, RandomRangeTablesMatchLinearReference) {
  std::mt19937_64 rng(987);
  const std::vector<std::vector<int>> shapes = {{16}, {12, 12}, {8, 16, 10}};
  for (const auto& widths : shapes) {
    for (int trial = 0; trial < 6; ++trial) {
      std::vector<dp::TableEntry> entries;
      const std::size_t n = 20 + rng() % 120;
      const std::size_t words = 1 + rng() % 3;
      for (std::size_t e = 0; e < n; ++e) {
        dp::TableEntry entry;
        for (int w : widths) {
          const std::uint64_t dmax = (1ull << w) - 1;
          std::uint64_t lo = rng() & dmax, hi = rng() & dmax;
          if (lo > hi) std::swap(lo, hi);
          if (rng() % 8 == 0) hi = dmax;  // top-of-domain edge
          if (rng() % 8 == 1) lo = 0;
          entry.range_lo.push_back(lo);
          entry.range_hi.push_back(hi);
        }
        entry.priority = static_cast<int>(rng() % 4);
        entry.action_data = PoolWords(rng, words);
        entries.push_back(entry);
      }
      const TablePair p = MakePair(dp::MatchKind::kRange, widths, entries);
      ASSERT_NE(p.indexed->index_stats(), nullptr);
      Keys probes;
      for (int probe = 0; probe < 300; ++probe) {
        probes.push_back(RandomKey(rng, widths, /*allow_overwide=*/false));
      }
      // Boundary probes: lo-1, lo, hi, hi+1 of random entries.
      for (std::size_t e = 0; e < entries.size(); e += 2) {
        for (int which = 0; which < 4; ++which) {
          std::vector<std::uint64_t> key;
          for (std::size_t i = 0; i < widths.size(); ++i) {
            const std::uint64_t lo = entries[e].range_lo[i];
            const std::uint64_t hi = entries[e].range_hi[i];
            const std::uint64_t v = which == 0   ? (lo == 0 ? 0 : lo - 1)
                                    : which == 1 ? lo
                                    : which == 2 ? hi
                                                 : hi + 1;
            key.push_back(v);
          }
          probes.push_back(key);
        }
      }
      ExpectSameDecisions(p, probes);
    }
  }
}

TEST(MatchIndex, WideSixtyFourBitTernaryField) {
  // The index matches full 64-bit keys, which no PHV field holds: drive
  // FindBest directly against a linear reference (highest priority wins,
  // the earliest entry on ties).
  std::mt19937_64 rng(55);
  std::vector<dp::TableEntry> entries;
  for (std::size_t e = 0; e < 64; ++e) {
    // Masks spanning the full 64-bit word, including high-bit-only masks.
    const std::uint64_t mask = rng() | (1ull << 63);
    entries.push_back({.ternary = {dp::TernaryRule{rng(), mask}},
                       .priority = static_cast<int>(e % 3),
                       .action_data = {static_cast<std::int64_t>(e)}});
  }
  entries.push_back(
      {.ternary = {dp::TernaryRule{0, 0}}, .priority = -1, .action_data = {99}});
  const dp::MatchIndex index(entries, /*kind_is_ternary=*/true);
  const auto expect_reference = [&](std::uint64_t key) {
    std::optional<std::size_t> want;
    for (std::size_t e = 0; e < entries.size(); ++e) {
      if (entries[e].ternary[0].Matches(key) &&
          (!want || entries[e].priority > entries[*want].priority)) {
        want = e;
      }
    }
    const std::int32_t pos = index.FindBest(&key);
    ASSERT_EQ(pos == dp::MatchIndex::kMiss
                  ? std::nullopt
                  : std::optional<std::size_t>{index.EntryIndex(pos)},
              want)
        << "key " << key;
    if (want) {
      const auto words = index.ActionData(pos);
      ASSERT_TRUE(std::equal(words.begin(), words.end(),
                             entries[*want].action_data.begin(),
                             entries[*want].action_data.end()));
    }
  };
  for (int probe = 0; probe < 500; ++probe) expect_reference(rng());
  for (const auto& e : entries) expect_reference(e.ternary[0].value);
}

TEST(MatchIndex, RangeTopOfDomain64Bit) {
  std::vector<dp::TableEntry> entries;
  entries.push_back({.range_lo = {0}, .range_hi = {~0ull}, .priority = 0,
                     .action_data = {1}});
  entries.push_back({.range_lo = {~0ull - 10}, .range_hi = {~0ull},
                     .priority = 5, .action_data = {2}});
  for (std::uint64_t i = 0; i < 10; ++i) {
    entries.push_back({.range_lo = {i * 100}, .range_hi = {i * 100 + 50},
                       .priority = 3,
                       .action_data = {static_cast<std::int64_t>(i)}});
  }
  const TablePair p = MakePair(dp::MatchKind::kRange, {64}, entries);
  // Nine rounds of the eleven edge keys: 99 PHVs in one batch.
  Keys probes;
  for (int round = 0; round < 9; ++round) {
    for (const std::uint64_t v :
         {0ull, 50ull, 51ull, 99ull, 100ull, 949ull, 950ull, ~0ull - 11,
          ~0ull - 10, ~0ull - 1, ~0ull}) {
      probes.push_back({v});
    }
  }
  ExpectSameDecisions(p, probes);
}

TEST(MatchIndex, PriorityTiesResolveToEarliestEntry) {
  // Three overlapping same-priority entries: the earliest must win on both
  // paths (TCAM physical ordering). Catch-all rules leave no key dimension,
  // so the bitset root ANDs no node and the first position wins.
  std::vector<dp::TableEntry> entries;
  for (int e = 0; e < 10; ++e) {
    entries.push_back({.ternary = {dp::TernaryRule{0, 0}},
                       .priority = 7,
                       .action_data = {e}});
  }
  const TablePair p = MakePair(dp::MatchKind::kTernary, {8}, entries);
  EXPECT_EQ(p.indexed->index_stats()->class_cells, 0u);
  EXPECT_EQ(p.indexed->index_stats()->root_nodes, 0u);
  dp::Phv phv(p.layout);
  phv.Set(p.keys[0], 3);
  EXPECT_EQ(p.indexed->Lookup(phv), std::optional<std::size_t>{0});
  EXPECT_EQ(p.linear->Lookup(phv), std::optional<std::size_t>{0});
  // Higher priority inserted later still wins.
  entries.push_back({.ternary = {dp::TernaryRule{0, 0}},
                     .priority = 9,
                     .action_data = {42}});
  const TablePair q = MakePair(dp::MatchKind::kTernary, {8}, entries);
  EXPECT_EQ(q.indexed->index_stats()->root_nodes, 0u);
  EXPECT_EQ(q.indexed->Lookup(phv), std::optional<std::size_t>{10});
  EXPECT_EQ(q.linear->Lookup(phv), std::optional<std::size_t>{10});
}

TEST(MatchIndex, ApplyBatchBitIdenticalToSequentialApply) {
  std::mt19937_64 rng(321);
  for (const dp::MatchKind kind :
       {dp::MatchKind::kTernary, dp::MatchKind::kRange}) {
    std::vector<dp::TableEntry> entries;
    const std::size_t words = 1 + rng() % 3;
    for (std::size_t e = 0; e < 100; ++e) {
      dp::TableEntry entry;
      if (kind == dp::MatchKind::kTernary) {
        entry.ternary = {dp::TernaryRule{rng() & 0x3ff, rng() & 0x3ff}};
      } else {
        std::uint64_t lo = rng() & 0x3ff, hi = rng() & 0x3ff;
        if (lo > hi) std::swap(lo, hi);
        entry.range_lo = {lo};
        entry.range_hi = {hi};
      }
      entry.priority = static_cast<int>(rng() % 4);
      entry.action_data = PoolWords(rng, words);
      entries.push_back(entry);
    }
    TablePair p = MakePair(kind, {10}, entries);
    p.indexed->SetMissProgram({{dp::ActionOp::Kind::kSetConst, p.out, 0,
                                -123, -1}},
                              {});
    p.linear->SetMissProgram({{dp::ActionOp::Kind::kSetConst, p.out, 0,
                               -123, -1}},
                             {});
    // Miss program mutation re-opens nothing (programs are not entries),
    // but be explicit that the indexed table is still sealed.
    ASSERT_TRUE(p.indexed->sealed());

    const std::size_t batch = 64;
    std::vector<dp::Phv> batch_indexed(batch, dp::Phv(p.layout));
    std::vector<dp::Phv> seq(batch, dp::Phv(p.layout));
    for (std::size_t i = 0; i < batch; ++i) {
      const std::int64_t v = static_cast<std::int64_t>(rng() & 0x7ff);
      batch_indexed[i].Set(p.keys[0], v);
      seq[i].Set(p.keys[0], v);
    }
    const std::size_t hits_indexed =
        p.indexed->ApplyBatch(std::span<dp::Phv>(batch_indexed));
    std::size_t hits_seq = 0;
    for (dp::Phv& phv : seq) {
      if (p.linear->Apply(phv)) ++hits_seq;
    }
    EXPECT_EQ(hits_indexed, hits_seq);
    for (std::size_t i = 0; i < batch; ++i) {
      for (std::size_t f = 0; f < p.layout.NumFields(); ++f) {
        ASSERT_EQ(batch_indexed[i].Get(f), seq[i].Get(f))
            << "packet " << i << " field " << f;
      }
    }
  }
}

TEST(MatchIndex, ApplyBatchChecksEveryPhvBeforeAnyWrite) {
  // 100 PHVs, the 70th narrower than the table's key and target fields:
  // the width check runs over the whole batch before the first chunk's
  // walk, so the throw leaves every PHV as it was.
  std::vector<dp::TableEntry> entries(40);
  for (std::size_t e = 0; e < entries.size(); ++e) {
    entries[e].ternary = {dp::TernaryRule{e, 0x3ff}};
    entries[e].action_data = {static_cast<std::int64_t>(e) + 1};
  }
  TablePair p = MakePair(dp::MatchKind::kTernary, {10}, entries);
  p.indexed->SetMissProgram(
      {{dp::ActionOp::Kind::kSetConst, p.out, 0, -5, -1}}, {});
  dp::PhvLayout narrow_layout;
  narrow_layout.AddField("k0", 10);
  std::vector<dp::Phv> batch;
  for (std::size_t i = 0; i < 100; ++i) {
    batch.push_back(i == 69 ? dp::Phv(narrow_layout)
                            : KeyedPhv(p, {i % 50}));
  }
  const std::vector<dp::Phv> before = batch;
  EXPECT_THROW(p.indexed->ApplyBatch(std::span<dp::Phv>(batch)),
               std::out_of_range);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(std::ranges::equal(batch[i].values(), before[i].values()))
        << "PHV " << i;
  }
}

TEST(MatchIndex, SealLifecycle) {
  std::vector<dp::TableEntry> entries;
  for (std::size_t e = 0; e < 32; ++e) {
    entries.push_back({.ternary = {dp::TernaryRule{e, 0xff}},
                       .priority = 1,
                       .action_data = {static_cast<std::int64_t>(e)}});
  }
  TablePair p = MakePair(dp::MatchKind::kTernary, {8}, entries);
  EXPECT_TRUE(p.indexed->sealed());
  ASSERT_NE(p.indexed->index_stats(), nullptr);
  EXPECT_EQ(p.indexed->index_stats()->entries, 32u);
  EXPECT_GT(p.indexed->index_stats()->bytes, 0u);
  EXPECT_GT(p.indexed->index_stats()->nibble_chunks, 0u);
  EXPECT_FALSE(p.linear->sealed());
  EXPECT_EQ(p.linear->index_stats(), nullptr);

  // A sealed table takes no entry: the throw changes nothing.
  const std::uint64_t gen = p.indexed->generation();
  EXPECT_THROW(p.indexed->AddEntry({.ternary = {dp::TernaryRule{200, 0xff}},
                                    .priority = 2,
                                    .action_data = {777}}),
               std::logic_error);
  EXPECT_EQ(p.indexed->NumEntries(), 32u);
  EXPECT_EQ(p.indexed->generation(), gen);
  for (std::uint64_t k = 0; k < 256; k += 5) ExpectSameLookup(p, {k});

  // An unsealed table takes no delta.
  const dp::EntryPatch patch{.entry_index = 0,
                             .ternary = {dp::TernaryRule{0, 0xff}},
                             .priority = 1,
                             .action_data = {5}};
  EXPECT_THROW(p.linear->ApplyDelta(std::span(&patch, 1)), std::logic_error);

  // Seal is idempotent.
  const dp::MatchIndexStats* stats = p.indexed->index_stats();
  p.indexed->Seal();
  EXPECT_EQ(p.indexed->index_stats(), stats);
  EXPECT_EQ(p.indexed->generation(), gen);
}

TEST(MatchIndex, GenerationCounterTracksTheLifecycle) {
  // A monotonic generation counter moves on every change a reader could
  // observe — AddEntry, the first Seal(), a delta, a miss program — and on
  // nothing else.
  std::vector<dp::TableEntry> entries;
  for (std::size_t e = 0; e < 16; ++e) {
    entries.push_back({.ternary = {dp::TernaryRule{e, 0xff}},
                       .priority = 1,
                       .action_data = {static_cast<std::int64_t>(e)}});
  }
  TablePair p = MakePair(dp::MatchKind::kTernary, {8}, entries);

  const std::uint64_t g0 = p.linear->generation();
  p.linear->AddEntry({.ternary = {dp::TernaryRule{200, 0xff}},
                      .priority = 2,
                      .action_data = {777}});
  EXPECT_GT(p.linear->generation(), g0) << "AddEntry bumps the generation";
  const std::uint64_t g1 = p.linear->generation();
  p.linear->Seal();
  EXPECT_GT(p.linear->generation(), g1) << "Seal bumps the generation";
  const std::uint64_t g2 = p.linear->generation();
  p.linear->Seal();
  EXPECT_EQ(p.linear->generation(), g2) << "a second Seal changes nothing";
  p.linear->SetMissProgram({}, {1});
  EXPECT_GT(p.linear->generation(), g2) << "a miss program bumps it";

  // Pipeline::Generation() aggregates placed tables, so a live
  // InferenceEngine can snapshot one number for the whole dataplane.
  dp::Pipeline pipe;
  auto table = std::make_unique<dp::MatchActionTable>(
      "gen", dp::MatchKind::kTernary, std::vector<dp::FieldId>{p.keys[0]},
      std::vector<int>{8}, std::vector<dp::ActionOp>{}, 16);
  for (const auto& e : entries) table->AddEntry(e);
  const std::uint64_t before = pipe.Generation();
  pipe.PlaceTable(std::move(table), 0);
  EXPECT_GT(pipe.Generation(), before)
      << "placement seals the table and moves the pipeline stamp";
}

TEST(MatchIndex, SmallTablesSealWithAnIndex) {
  // Every table seals with an index, however few its entries: 0, 1 and 7
  // entries, ternary and range, answer every 8-bit key like the linear
  // reference, and take a delta. With no entry there is no key dimension:
  // the bitset root ANDs no node and every key misses.
  std::mt19937_64 rng(808);
  for (const dp::MatchKind kind :
       {dp::MatchKind::kTernary, dp::MatchKind::kRange}) {
    for (const std::size_t n : {0, 1, 7}) {
      std::vector<dp::TableEntry> entries;
      for (std::size_t e = 0; e < n; ++e) {
        dp::TableEntry entry;
        if (kind == dp::MatchKind::kTernary) {
          entry.ternary = {dp::TernaryRule{rng() & 0xff, rng() & 0xff}};
        } else {
          std::uint64_t lo = rng() & 0xff, hi = rng() & 0xff;
          if (lo > hi) std::swap(lo, hi);
          entry.range_lo = {lo};
          entry.range_hi = {hi};
        }
        entry.priority = static_cast<int>(rng() % 3);
        entry.action_data = {static_cast<std::int64_t>(e), 7};
        entries.push_back(entry);
      }
      TablePair p = MakePair(kind, {8}, entries);
      ASSERT_NE(p.indexed->index_stats(), nullptr) << n << " entries";
      EXPECT_EQ(p.indexed->index_stats()->entries, n);
      if (n == 0) {
        EXPECT_EQ(p.indexed->index_stats()->class_cells, 0u);
        EXPECT_EQ(p.indexed->index_stats()->root_nodes, 0u);
      }
      for (std::uint64_t k = 0; k < 256; ++k) ExpectSameLookup(p, {k});
      if (entries.empty()) continue;
      entries[0].action_data = {40, 41};
      const dp::EntryPatch patch{.entry_index = 0,
                                 .ternary = entries[0].ternary,
                                 .range_lo = entries[0].range_lo,
                                 .range_hi = entries[0].range_hi,
                                 .priority = entries[0].priority,
                                 .action_data = entries[0].action_data};
      p.indexed->ApplyDelta(std::span(&patch, 1));
      const TablePair fresh = MakePair(kind, {8}, entries);
      for (std::uint64_t k = 0; k < 256; ++k) {
        ExpectSameDecision(p, fresh, {k});
      }
    }
  }
}

TEST(MatchIndex, PlaceTableSealsAndPipelineReportsIndex) {
  dp::Pipeline pipe;
  dp::PhvLayout layout;
  const auto key = layout.AddField("k", 10);
  const auto out = layout.AddField("o", 16);
  std::vector<dp::ActionOp> prog{
      {dp::ActionOp::Kind::kSetFromData, out, 0, 0, -1}};
  auto t = std::make_unique<dp::MatchActionTable>(
      "t", dp::MatchKind::kTernary, std::vector<dp::FieldId>{key},
      std::vector<int>{10}, prog, 16);
  for (std::uint64_t e = 0; e < 64; ++e) {
    t->AddEntry({.ternary = {dp::TernaryRule{e, 0x3ff}},
                 .priority = 1,
                 .action_data = {static_cast<std::int64_t>(e)}});
  }
  EXPECT_FALSE(t->sealed());
  pipe.PlaceTable(std::move(t), 0);
  const auto report = pipe.MatchIndexReport();
  EXPECT_EQ(report.indexed_tables, 1u);
  EXPECT_EQ(report.bitset_root_tables, 0u) << "one window: a position root";
  EXPECT_GT(report.nibble_chunks, 0u);
  EXPECT_GT(report.class_cells, 0u);
  EXPECT_GT(report.bytes, 0u);

  dp::Phv phv(layout);
  phv.Set(key, 7);
  EXPECT_EQ(pipe.ProcessBatch(std::span(&phv, 1)), 1u);
  EXPECT_EQ(phv.Get(out), 7);

  // A catch-all table has no key dimension: it ends in the bitset root.
  auto any = std::make_unique<dp::MatchActionTable>(
      "any", dp::MatchKind::kTernary, std::vector<dp::FieldId>{key},
      std::vector<int>{10}, prog, 16);
  dp::TableEntry catch_all;
  catch_all.ternary = {dp::TernaryRule{0, 0}};
  catch_all.action_data = {1};
  any->AddEntry(catch_all);
  pipe.PlaceTable(std::move(any), 1);
  const auto both = pipe.MatchIndexReport();
  EXPECT_EQ(both.indexed_tables, 2u);
  EXPECT_EQ(both.bitset_root_tables, 1u);
}

// ---------------------------------------------------------------------------
// O(delta) in-place updates (ApplyDelta): new action words on installed
// entries. A patched sealed index must decide exactly like a table built
// from scratch over the patched entry list — same winners under priority
// ties, same misses, same fields — across repeated patch rounds, and a
// patch that would move a rule must be rejected with nothing changed.
// ---------------------------------------------------------------------------

namespace {

/// Gives `count` random entries new words in `entries` and returns the
/// equivalent patch batch. Each patch repeats its entry's match and
/// priority, as the planner's do; a ternary patch also scrambles the value
/// bits outside each mask, which select nothing.
std::vector<dp::EntryPatch> RandomWordPatches(
    std::mt19937_64& rng, std::vector<dp::TableEntry>& entries,
    std::size_t count) {
  std::vector<dp::EntryPatch> patches;
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t e = rng() % entries.size();
    dp::EntryPatch p{.entry_index = e,
                     .ternary = entries[e].ternary,
                     .range_lo = entries[e].range_lo,
                     .range_hi = entries[e].range_hi,
                     .priority = entries[e].priority};
    for (dp::TernaryRule& r : p.ternary) r.value ^= rng() & ~r.mask;
    // Half the time the same words as the previous patch: the planner
    // patches all of a leaf's expanded entries alike.
    const std::size_t words = entries[e].action_data.size();
    if (!patches.empty() && rng() % 2 == 0 &&
        patches.back().action_data.size() == words) {
      p.action_data = patches.back().action_data;
    } else {
      p.action_data = PoolWords(rng, words);
    }
    entries[e].action_data = p.action_data;
    patches.push_back(std::move(p));
  }
  return patches;
}

/// A key inside `entry`'s match: its ternary values or its range lows.
std::vector<std::uint64_t> EntryKey(dp::MatchKind kind,
                                    const dp::TableEntry& entry) {
  if (kind == dp::MatchKind::kRange) return entry.range_lo;
  std::vector<std::uint64_t> key;
  for (const dp::TernaryRule& r : entry.ternary) key.push_back(r.value);
  return key;
}

}  // namespace

TEST(MatchIndexDelta, PatchedIndexBitIdenticalToFreshSeal) {
  std::mt19937_64 rng(20240808);
  for (const dp::MatchKind kind :
       {dp::MatchKind::kTernary, dp::MatchKind::kRange}) {
    const std::vector<std::vector<int>> shapes = {{10}, {8, 12}};
    for (const auto& widths : shapes) {
      for (int trial = 0; trial < 4; ++trial) {
        std::vector<dp::TableEntry> entries;
        const std::size_t n = 24 + rng() % 100;
        const std::size_t words = 1 + rng() % 3;
        for (std::size_t e = 0; e < n; ++e) {
          dp::TableEntry entry;
          for (int w : widths) {
            const std::uint64_t dmax = (1ull << w) - 1;
            if (kind == dp::MatchKind::kTernary) {
              const int mode = static_cast<int>(rng() % 4);
              entry.ternary.push_back(
                  mode == 0   ? dp::TernaryRule{rng() & dmax, dmax}
                  : mode == 3 ? dp::TernaryRule{0, 0}
                              : dp::TernaryRule{rng() & dmax, rng() & dmax});
            } else {
              std::uint64_t lo = rng() & dmax, hi = rng() & dmax;
              if (lo > hi) std::swap(lo, hi);
              if (rng() % 8 == 0) hi = dmax;
              entry.range_lo.push_back(lo);
              entry.range_hi.push_back(hi);
            }
          }
          entry.priority = static_cast<int>(rng() % 4);  // plenty of ties
          entry.action_data = PoolWords(rng, words);
          entries.push_back(entry);
        }
        TablePair p = MakePair(kind, widths, entries);
        const dp::MatchIndexStats* stats = p.indexed->index_stats();
        ASSERT_NE(stats, nullptr);
        const std::size_t cells = stats->class_cells;

        // Several patch rounds against the SAME sealed index — repeated
        // in-place deltas must not accumulate drift.
        for (int round = 0; round < 3; ++round) {
          const auto patches =
              RandomWordPatches(rng, entries, 1 + rng() % 8);
          p.indexed->ApplyDelta(patches);
          EXPECT_EQ(p.indexed->index_stats(), stats) << "no index rebuild";
          EXPECT_EQ(stats->class_cells, cells);

          // Reference: a fresh pair built over the patched entry list.
          const TablePair fresh = MakePair(kind, widths, entries);
          for (int probe = 0; probe < 150; ++probe) {
            ExpectSameDecision(p, fresh, RandomKey(rng, widths, false));
          }
          // Probes seeded from patched entries (guaranteed-hit-heavy).
          for (const auto& patch : patches) {
            ExpectSameDecision(p, fresh,
                               EntryKey(kind, entries[patch.entry_index]));
          }
        }
      }
    }
  }
}

TEST(MatchIndexDelta, PatchingOneSharerLeavesTheOtherIntact) {
  // Entries 0 and 1 carry identical words, so the index stores them once.
  // Patching entry 0 must not write through that shared slice: entry 1
  // still answers with the old words, and both answer exactly like a
  // table sealed from scratch over the patched entries.
  std::vector<dp::TableEntry> entries;
  for (std::size_t e = 0; e < 16; ++e) {
    dp::TableEntry entry;
    entry.ternary = {dp::TernaryRule{e, 0xff}};
    entry.priority = 1;
    entry.action_data = {static_cast<std::int64_t>(10 * e), -1};
    entries.push_back(entry);
  }
  entries[1].action_data = entries[0].action_data;
  TablePair p = MakePair(dp::MatchKind::kTernary, {8}, entries);
  dp::EntryPatch patch;
  patch.ternary = {dp::TernaryRule{0, 0xff}};
  patch.priority = 1;
  patch.action_data = {77, 78};
  p.indexed->ApplyDelta(std::span(&patch, 1));
  entries[0].action_data = {77, 78};
  const TablePair fresh = MakePair(dp::MatchKind::kTernary, {8}, entries);
  for (std::uint64_t k = 0; k < 16; ++k) ExpectSameDecision(p, fresh, {k});

  dp::Phv phv = KeyedPhv(p, {1});
  ASSERT_TRUE(p.indexed->Apply(phv));
  EXPECT_EQ(phv.Get(p.out), 0);
  EXPECT_EQ(phv.Get(p.out + 1), -1);
  phv = KeyedPhv(p, {0});
  ASSERT_TRUE(p.indexed->Apply(phv));
  EXPECT_EQ(phv.Get(p.out), 77);
  EXPECT_EQ(phv.Get(p.out + 1), 78);
}

TEST(MatchIndexDelta, DeltaRoundsMatchFreshSealWithinArenaBudget) {
  // 150 rounds of random deltas on one index of heavily shared slices:
  // copy-on-write appends, in-place rewrites of unshared slices, runs of
  // patches sharing one append, and compactions once the arena reaches
  // its budget. After every round the index must decide like a fresh
  // seal, keep its class tables, and keep its footprint within that of
  // the same index with no slice shared — every entry's words stored
  // once, the budget.
  std::mt19937_64 rng(5150);
  for (const dp::MatchKind kind :
       {dp::MatchKind::kTernary, dp::MatchKind::kRange}) {
    const std::vector<int> widths = {8, 6};
    std::vector<dp::TableEntry> entries;
    for (std::size_t e = 0; e < 48; ++e) {
      dp::TableEntry entry;
      for (int w : widths) {
        const std::uint64_t dmax = (1ull << w) - 1;
        if (kind == dp::MatchKind::kTernary) {
          entry.ternary.push_back({rng() & dmax, rng() & dmax});
        } else {
          std::uint64_t lo = rng() & dmax, hi = rng() & dmax;
          if (lo > hi) std::swap(lo, hi);
          entry.range_lo.push_back(lo);
          entry.range_hi.push_back(hi);
        }
      }
      entry.priority = static_cast<int>(rng() % 3);
      entry.action_data = PoolWords(rng, 3);
      entries.push_back(entry);
    }
    std::vector<dp::TableEntry> unshared = entries;
    for (std::size_t e = 0; e < unshared.size(); ++e) {
      for (std::int64_t& w : unshared[e].action_data) {
        w += 1000 * static_cast<std::int64_t>(e + 1);
      }
    }
    const TablePair twin = MakePair(kind, widths, unshared);
    const dp::MatchIndexStats& twin_stats = *twin.indexed->index_stats();
    const std::size_t cells = twin_stats.class_cells;
    ASSERT_GT(cells, 0u);
    const std::size_t budget = twin_stats.bytes;

    TablePair p = MakePair(kind, widths, entries);
    const dp::MatchIndexStats* stats = p.indexed->index_stats();
    ASSERT_NE(stats, nullptr);
    ASSERT_EQ(stats->class_cells, cells) << "same rules, same tables";
    ASSERT_LT(stats->bytes, budget) << "pooled words must be shared";
    bool compacted = false;
    for (int round = 0; round < 150; ++round) {
      const std::size_t before = stats->bytes;
      const auto patches = RandomWordPatches(rng, entries, 1 + rng() % 6);
      p.indexed->ApplyDelta(patches);
      ASSERT_EQ(p.indexed->index_stats(), stats) << "no index rebuild";
      ASSERT_EQ(stats->class_cells, cells) << "round " << round;
      ASSERT_LE(stats->bytes, budget) << "round " << round;
      // Only a compaction shrinks the arena.
      compacted |= stats->bytes < before;

      const TablePair fresh = MakePair(kind, widths, entries);
      for (int probe = 0; probe < 40; ++probe) {
        ExpectSameDecision(p, fresh, RandomKey(rng, widths, false));
      }
      for (const dp::TableEntry& e : entries) {
        ExpectSameDecision(p, fresh, EntryKey(kind, e));
      }
    }
    EXPECT_TRUE(compacted) << "the rounds never filled the arena budget";
  }
}

TEST(MatchIndexDelta, KeepsTableSealedAndBumpsGenerationOnce) {
  std::vector<dp::TableEntry> entries;
  for (std::size_t e = 0; e < 32; ++e) {
    entries.push_back({.ternary = {dp::TernaryRule{e, 0xff}},
                       .priority = 1,
                       .action_data = {static_cast<std::int64_t>(e)}});
  }
  TablePair p = MakePair(dp::MatchKind::kTernary, {8}, entries);
  const std::uint64_t g0 = p.indexed->generation();
  const auto* stats = p.indexed->index_stats();
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->deltas_applied, 0u);
  EXPECT_EQ(stats->reseals_avoided, 0u);

  // One batch of three patches: generation moves exactly once (the whole
  // batch publishes atomically) and the table NEVER leaves sealed state.
  std::vector<dp::EntryPatch> patches;
  for (std::size_t k = 0; k < 3; ++k) {
    patches.push_back({.entry_index = k,
                       .ternary = {dp::TernaryRule{k, 0xff}},
                       .priority = 1,
                       .action_data = {static_cast<std::int64_t>(500 + k)}});
  }
  const std::size_t bytes = p.indexed->ApplyDelta(patches);
  EXPECT_GT(bytes, 0u);
  EXPECT_EQ(p.indexed->generation(), g0 + 1);
  EXPECT_TRUE(p.indexed->sealed());
  EXPECT_EQ(p.indexed->index_stats(), stats) << "no index rebuild";
  EXPECT_EQ(stats->deltas_applied, 3u);
  EXPECT_EQ(stats->leaf_words_patched, 3u);
  EXPECT_EQ(stats->reseals_avoided, 1u);

  // The new words serve immediately through the still-sealed index.
  dp::Phv phv(p.layout);
  phv.Set(p.keys[0], 1);
  EXPECT_EQ(p.indexed->Lookup(phv), std::optional<std::size_t>{1});
  ASSERT_TRUE(p.indexed->Apply(phv));
  EXPECT_EQ(phv.Get(p.out), 501);
  phv.Set(p.keys[0], 3);
  ASSERT_TRUE(p.indexed->Apply(phv));
  EXPECT_EQ(phv.Get(p.out), 3);
}

TEST(MatchIndexDelta, RejectsRuleMovingPatchesAndStaysIntact) {
  // A rejected batch applies nothing, even its valid first patch: the
  // generation, the footprint, the class tables and every lookup stay as
  // they were. Masks only touch the low nibble, so the chunk coverage is
  // bits 0-3.
  std::vector<dp::TableEntry> entries;
  for (std::size_t e = 0; e < 16; ++e) {
    entries.push_back({.ternary = {dp::TernaryRule{e & 0xf, 0x0f}},
                       .priority = 1,
                       .action_data = {static_cast<std::int64_t>(e)}});
  }
  entries[3].ternary = {dp::TernaryRule{0x2, 0x0e}};  // keys 2 and 3
  const auto expect_rejected = [](TablePair& p, const dp::EntryPatch& bad,
                                  const std::vector<dp::TableEntry>& kept,
                                  std::uint64_t key_span) {
    const dp::MatchIndexStats& stats = *p.indexed->index_stats();
    const std::uint64_t gen = p.indexed->generation();
    const std::size_t bytes = stats.bytes;
    const std::size_t cells = stats.class_cells;
    dp::EntryPatch valid{.entry_index = 1,
                         .ternary = kept[1].ternary,
                         .range_lo = kept[1].range_lo,
                         .range_hi = kept[1].range_hi,
                         .priority = kept[1].priority,
                         .action_data = {-9}};
    EXPECT_THROW(p.indexed->ApplyDelta(std::vector<dp::EntryPatch>{valid, bad}),
                 std::invalid_argument);
    EXPECT_EQ(p.indexed->generation(), gen);
    EXPECT_EQ(stats.bytes, bytes);
    EXPECT_EQ(stats.class_cells, cells);
    EXPECT_TRUE(p.indexed->sealed());
    for (std::uint64_t k = 0; k < key_span; ++k) ExpectSameLookup(p, {k});
  };
  TablePair p = MakePair(dp::MatchKind::kTernary, {8}, entries);
  ASSERT_GT(p.indexed->index_stats()->class_cells, 0u);
  const auto ternary = [](std::size_t e, dp::TernaryRule r, int priority,
                          std::vector<std::int64_t> words) {
    return dp::EntryPatch{.entry_index = e,
                          .ternary = {r},
                          .priority = priority,
                          .action_data = std::move(words)};
  };
  // A value change inside the mask.
  expect_rejected(p, ternary(0, {0x1, 0x0f}, 1, {9}), entries, 256);
  // A mask change inside the coverage: entry 3 would select key 3 alone.
  expect_rejected(p, ternary(3, {0x3, 0x0f}, 1, {9}), entries, 256);
  // The entry's rule plus a masked bit above the chunk coverage: equal
  // on every chunk row, yet it selects half the keys.
  expect_rejected(p, ternary(0, {0x00, 0x1f}, 1, {9}), entries, 256);
  // Entry index out of range.
  expect_rejected(p, ternary(99, {0x1, 0x0f}, 1, {9}), entries, 256);
  // Action-data resize.
  expect_rejected(p, ternary(0, {0x0, 0x0f}, 1, {9, 9}), entries, 256);
  // Priority change (would reorder the sorted positions).
  expect_rejected(p, ternary(0, {0x0, 0x0f}, 2, {9}), entries, 256);
  // Key arity mismatch.
  dp::EntryPatch wide = ternary(0, {0x0, 0x0f}, 1, {9});
  wide.ternary.push_back({0x1, 0x0f});
  expect_rejected(p, wide, entries, 256);

  // Value bits outside the mask select nothing: entry 3 repeated with
  // bit 0 (outside its mask) and bit 7 (outside the coverage) set.
  p.indexed->ApplyDelta(std::vector<dp::EntryPatch>{
      ternary(3, {0x83, 0x0e}, 1, {33})});
  dp::Phv phv(p.layout);
  for (const std::int64_t k : {2, 3}) {
    phv.Set(p.keys[0], k);
    ASSERT_TRUE(p.indexed->Apply(phv));
    EXPECT_EQ(phv.Get(p.out), k == 2 ? 2 : 33) << "key " << k;
  }

  // Range: bounds that are not interval boundaries, and another entry's
  // boundaries, both move the rule.
  std::vector<dp::TableEntry> rentries;
  for (std::uint64_t e = 0; e < 12; ++e) {
    rentries.push_back({.range_lo = {e * 100}, .range_hi = {e * 100 + 49},
                        .priority = 1,
                        .action_data = {static_cast<std::int64_t>(e)}});
  }
  TablePair r = MakePair(dp::MatchKind::kRange, {16}, rentries);
  ASSERT_GT(r.indexed->index_stats()->class_cells, 0u);
  const auto range = [](std::uint64_t lo, std::uint64_t hi) {
    return dp::EntryPatch{.entry_index = 0,
                          .range_lo = {lo},
                          .range_hi = {hi},
                          .priority = 1,
                          .action_data = {9}};
  };
  expect_rejected(r, range(37, 49), rentries, 1300);   // not a boundary
  // hi + 1 is no boundary, but every interval row agrees: [50, 100) is
  // neither wholly covered nor in the entry.
  expect_rejected(r, range(0, 60), rentries, 1300);
  expect_rejected(r, range(300, 349), rentries, 1300); // a donor's bounds
  expect_rejected(r, range(0, 149), rentries, 1300);   // spans a donor
  // The entry's own bounds are accepted.
  r.indexed->ApplyDelta(std::vector<dp::EntryPatch>{range(0, 49)});
  dp::Phv rphv(r.layout);
  rphv.Set(r.keys[0], 20);
  ASSERT_TRUE(r.indexed->Apply(rphv));
  EXPECT_EQ(rphv.Get(r.out), 9);
}

TEST(MatchIndexDelta, PipelineApplyDeltaIsAtomicAcrossTables) {
  // Two placed tables; the second table's patch is invalid. The pipeline
  // must reject the whole batch with BOTH tables untouched.
  dp::Pipeline pipe;
  dp::PhvLayout layout;
  const auto key = layout.AddField("k", 8);
  const auto out = layout.AddField("o", 16);
  std::vector<dp::ActionOp> prog{
      {dp::ActionOp::Kind::kSetFromData, out, 0, 0, -1}};
  for (const char* name : {"a", "b"}) {
    auto t = std::make_unique<dp::MatchActionTable>(
        name, dp::MatchKind::kTernary, std::vector<dp::FieldId>{key},
        std::vector<int>{8}, prog, 16);
    for (std::uint64_t e = 0; e < 16; ++e) {
      t->AddEntry({.ternary = {dp::TernaryRule{e, 0xff}},
                   .priority = 0,
                   .action_data = {static_cast<std::int64_t>(e)}});
    }
    pipe.PlaceTable(std::move(t), 0);
  }
  const std::uint64_t g0 = pipe.Generation();

  std::vector<dp::TablePatch> bad(2);
  bad[0] = {"a",
            {{.entry_index = 0,
              .ternary = {dp::TernaryRule{0, 0xff}},
              .priority = 0,
              .action_data = {42}}}};
  bad[1] = {"b",
            {{.entry_index = 99,  // out of range
              .ternary = {dp::TernaryRule{1, 0xff}},
              .priority = 0,
              .action_data = {1}}}};
  EXPECT_THROW(pipe.ApplyDelta(bad), std::invalid_argument);
  EXPECT_EQ(pipe.Generation(), g0) << "table 'a' must not be patched when "
                                      "table 'b' fails validation";
  // Unknown table name is rejected up front, too.
  std::vector<dp::TablePatch> unknown{{"nope", {}}};
  EXPECT_THROW(pipe.ApplyDelta(unknown), std::invalid_argument);

  // A valid batch across both tables applies and bumps each table once.
  bad[1].patches[0].entry_index = 1;
  const std::size_t bytes = pipe.ApplyDelta(bad);
  EXPECT_GT(bytes, 0u);
  EXPECT_EQ(pipe.Generation(), g0 + 2);
  const auto report = pipe.MatchIndexReport();
  EXPECT_EQ(report.deltas_applied, 2u);
  EXPECT_EQ(report.reseals_avoided, 2u);
}

TEST(MatchIndexDelta, CloneIsIndependentAndPreservesIndex) {
  std::vector<dp::TableEntry> entries;
  for (std::size_t e = 0; e < 32; ++e) {
    entries.push_back({.ternary = {dp::TernaryRule{e, 0xff}},
                       .priority = 1,
                       .action_data = {static_cast<std::int64_t>(e)}});
  }
  TablePair p = MakePair(dp::MatchKind::kTernary, {8}, entries);
  const auto clone = p.indexed->Clone();
  EXPECT_TRUE(clone->sealed());
  ASSERT_NE(clone->index_stats(), nullptr) << "clone keeps the compiled "
                                              "index";
  EXPECT_EQ(clone->NumEntries(), 32u);
  EXPECT_EQ(clone->TcamBits(), p.indexed->TcamBits());
  EXPECT_EQ(clone->SramBits(), p.indexed->SramBits());
  // Patch the clone: the original's words must not move.
  clone->ApplyDelta(std::vector<dp::EntryPatch>{
      {.entry_index = 5,
       .ternary = {dp::TernaryRule{5, 0xff}},
       .priority = 1,
       .action_data = {77}}});
  dp::Phv phv(p.layout);
  phv.Set(p.keys[0], 5);
  ASSERT_TRUE(clone->Apply(phv));
  EXPECT_EQ(phv.Get(p.out), 77);
  ASSERT_TRUE(p.indexed->Apply(phv));
  EXPECT_EQ(phv.Get(p.out), 5);
}

// ---------------------------------------------------------------------------
// Class tables: which path serves — class tables within the budget, bit
// vectors past it — and either way the answers equal the linear
// reference.
// ---------------------------------------------------------------------------

namespace {

/// A fuzzy tree's leaves: the key space [0, 2^bits)^dims cut into
/// `leaves` boxes by random axis-aligned splits.
struct LeafBox {
  std::vector<std::uint64_t> lo;
  std::vector<std::uint64_t> hi;
};
std::vector<LeafBox> RandomLeafBoxes(std::mt19937_64& rng, std::size_t dims,
                                     int bits, std::size_t leaves) {
  std::vector<LeafBox> boxes{{std::vector<std::uint64_t>(dims, 0),
                              std::vector<std::uint64_t>(
                                  dims, (std::uint64_t{1} << bits) - 1)}};
  while (boxes.size() < leaves) {
    LeafBox& box = boxes[rng() % boxes.size()];
    const std::size_t d = rng() % dims;
    if (box.lo[d] == box.hi[d]) continue;
    LeafBox upper = box;
    const std::uint64_t cut = box.lo[d] + rng() % (box.hi[d] - box.lo[d]);
    box.hi[d] = cut;
    upper.lo[d] = cut + 1;
    boxes.push_back(std::move(upper));
  }
  return boxes;
}

/// A lowered Map table's entries: two 10-bit fields, each leaf box
/// expanded with RangeToTernary into the cross product of its per-field
/// rules, every expanded entry carrying its leaf's words. Every fifth leaf
/// is left out, so some keys miss.
std::vector<dp::TableEntry> LoweredMapEntries(std::mt19937_64& rng,
                                              std::size_t leaves) {
  const auto boxes = RandomLeafBoxes(rng, 2, 10, leaves);
  std::vector<dp::TableEntry> entries;
  for (std::size_t leaf = 0; leaf < boxes.size(); ++leaf) {
    if (leaf % 5 == 4) continue;
    const LeafBox& box = boxes[leaf];
    const auto word = static_cast<std::int64_t>(leaf);
    for (const auto& r0 : dp::RangeToTernary(box.lo[0], box.hi[0], 10)) {
      for (const auto& r1 : dp::RangeToTernary(box.lo[1], box.hi[1], 10)) {
        entries.push_back({.ternary = {r0, r1}, .action_data = {word, -word}});
      }
    }
  }
  return entries;
}

std::size_t ClassCells(const TablePair& p) {
  return p.indexed->index_stats()->class_cells;
}

/// Random keys (overwide ones included) and keys seeded from entries.
void ExpectTernaryMatchesLinear(const TablePair& p, std::mt19937_64& rng,
                                const std::vector<int>& widths,
                                const std::vector<dp::TableEntry>& entries) {
  Keys probes;
  for (int probe = 0; probe < 400; ++probe) {
    probes.push_back(RandomKey(rng, widths, /*allow_overwide=*/true));
  }
  for (std::size_t e = 0; e < entries.size(); e += 3) {
    std::vector<std::uint64_t> key;
    for (const dp::TernaryRule& r : entries[e].ternary) {
      key.push_back(r.value ^ (rng() % 3 == 0 ? 1ull : 0ull));
    }
    probes.push_back(key);
  }
  ExpectSameDecisions(p, probes);
}

}  // namespace

TEST(MatchIndexClasses, LoweredMapTableServesFromClassTables) {
  std::mt19937_64 rng(4242);
  for (const std::size_t leaves : {8, 40, 120}) {
    const auto entries = LoweredMapEntries(rng, leaves);
    const TablePair p = MakePair(dp::MatchKind::kTernary, {10, 10}, entries);
    ASSERT_NE(p.indexed->index_stats(), nullptr);
    EXPECT_GT(ClassCells(p), 0u) << leaves << " leaves";
    ExpectTernaryMatchesLinear(p, rng, {10, 10}, entries);
  }
}

TEST(MatchIndexClasses, LoweredRangeTablesServeFromClassTables) {
  // One entry per leaf box, every fifth leaf left out. Four 8-bit fields
  // are CNN-M's shape (three cross products); three fields leave an odd
  // node over at the first level, and a 16-bit field's interval is
  // searched before its table is read. 16 fields over 160 leaves is an
  // RNN-B step table's shape and 10 fields over 256 an AutoEncoder
  // decoder table's: their cross products pass 2^16 cells long before
  // the root, so nodes carry up to a bitset root.
  struct Shape {
    std::vector<int> widths;
    std::size_t leaves;
    bool bitset_root;
  };
  std::mt19937_64 rng(31337);
  for (const Shape& shape :
       {Shape{{8, 8, 8, 8}, 60, false}, Shape{{8, 16, 10}, 60, false},
        Shape{std::vector<int>(16, 8), 160, true},
        Shape{std::vector<int>(10, 8), 256, true}}) {
    const std::vector<int>& widths = shape.widths;
    const auto boxes = RandomLeafBoxes(rng, widths.size(), 8, shape.leaves);
    std::vector<dp::TableEntry> entries;
    for (std::size_t leaf = 0; leaf < boxes.size(); ++leaf) {
      if (leaf % 5 == 4) continue;
      entries.push_back({.range_lo = boxes[leaf].lo,
                         .range_hi = boxes[leaf].hi,
                         .action_data = PoolWords(rng, 2)});
      // Stretch the middle field of the three-field shape past 4096.
      if (widths.size() == 3) {
        entries.back().range_lo[1] *= 200;
        entries.back().range_hi[1] = entries.back().range_hi[1] * 200 + 199;
      }
    }
    const TablePair p = MakePair(dp::MatchKind::kRange, widths, entries);
    EXPECT_GT(ClassCells(p), 0u) << widths.size() << " fields";
    EXPECT_EQ(p.indexed->index_stats()->root_nodes !=
                  dp::MatchIndexStats::kPositionRoot,
              shape.bitset_root)
        << widths.size() << " fields";
    Keys probes;
    for (int probe = 0; probe < 600; ++probe) {
      probes.push_back(RandomKey(rng, widths, /*allow_overwide=*/false));
    }
    for (const dp::TableEntry& e : entries) {
      probes.push_back(e.range_lo);
      probes.push_back(e.range_hi);
    }
    ExpectSameDecisions(p, probes);
  }
}

TEST(MatchIndexClasses, OverBudgetProductsCarryToABitsetRoot) {
  // Three fields under random 16-bit masks: each field's 12-bit windows
  // split into thousands of classes, so some cross products would pass
  // 2^16 cells. Their nodes carry up, and the class tables end in the
  // bitset root over the nodes that never combined.
  std::mt19937_64 rng(99);
  const std::vector<int> widths = {16, 16, 16};
  std::vector<dp::TableEntry> entries;
  for (std::size_t e = 0; e < 300; ++e) {
    dp::TableEntry entry;
    for (std::size_t d = 0; d < widths.size(); ++d) {
      entry.ternary.push_back({rng() & 0xffff, rng() & 0xffff});
    }
    entry.priority = static_cast<int>(rng() % 4);
    entry.action_data = PoolWords(rng, 2);
    entries.push_back(entry);
  }
  const TablePair p = MakePair(dp::MatchKind::kTernary, widths, entries);
  ASSERT_NE(p.indexed->index_stats(), nullptr);
  EXPECT_GT(ClassCells(p), 0u);
  const std::size_t root = p.indexed->index_stats()->root_nodes;
  EXPECT_NE(root, dp::MatchIndexStats::kPositionRoot);
  EXPECT_GE(root, 2u);
  ExpectTernaryMatchesLinear(p, rng, widths, entries);
}

TEST(MatchIndexClasses, AnyDimensionCountServesFromClassTables) {
  // One 4-bit field is one dimension. Every entry pins each field to 0
  // or 1, so no node has more classes than entries + 1 and every table
  // stays small: 16, 17 and 40 dimensions all pair down to a position
  // root (past 16, the walk's class columns leave the stack).
  std::mt19937_64 rng(1616);
  for (const std::size_t fields : {16, 17, 40}) {
    const std::vector<int> widths(fields, 4);
    std::vector<dp::TableEntry> entries;
    for (std::size_t e = 0; e < 40; ++e) {
      dp::TableEntry entry;
      for (std::size_t f = 0; f < fields; ++f) {
        entry.ternary.push_back({rng() & 1, 0xf});
      }
      entry.priority = static_cast<int>(rng() % 3);
      entry.action_data = PoolWords(rng, 1);
      entries.push_back(entry);
    }
    const TablePair p = MakePair(dp::MatchKind::kTernary, widths, entries);
    EXPECT_GT(ClassCells(p), 0u) << fields << " fields";
    EXPECT_EQ(p.indexed->index_stats()->root_nodes,
              dp::MatchIndexStats::kPositionRoot)
        << fields << " fields";
    ExpectTernaryMatchesLinear(p, rng, widths, entries);
  }
}

TEST(MatchIndexClasses, PositionsPastACellTakeTheBitsetRoot) {
  // Every (a, b) pair of two 8-bit fields but (7, 7): 65,535 entries,
  // whose sorted positions all fit beside the miss cell, so the root
  // product holds positions. A copy of (8, 8)'s rule in front makes
  // 65,536: (255, 255) then wins at position 65,535, the miss cell, and
  // the same two dimensions feed the bitset root instead.
  const auto pair_entry = [](std::uint64_t a, std::uint64_t b,
                              std::int64_t word) {
    dp::TableEntry e;
    e.ternary = {dp::TernaryRule{a, 0xff}, dp::TernaryRule{b, 0xff}};
    e.action_data = {word};
    return e;
  };
  for (const bool copy : {false, true}) {
    std::vector<dp::TableEntry> entries;
    if (copy) entries.push_back(pair_entry(8, 8, -1));
    for (std::uint64_t a = 0; a < 256; ++a) {
      for (std::uint64_t b = 0; b < 256; ++b) {
        if (a == 7 && b == 7) continue;
        entries.push_back(
            pair_entry(a, b, static_cast<std::int64_t>(a * 256 + b)));
      }
    }
    const TablePair p = MakePair(dp::MatchKind::kTernary, {8, 8}, entries);
    const dp::MatchIndexStats& stats = *p.indexed->index_stats();
    if (copy) {
      EXPECT_EQ(stats.class_cells, 512u) << "two dimensions, no product";
      EXPECT_EQ(stats.root_nodes, 2u);
    } else {
      EXPECT_EQ(stats.class_cells, 512u + 65536u);
      EXPECT_EQ(stats.root_nodes, dp::MatchIndexStats::kPositionRoot);
    }
    const dp::Phv last = KeyedPhv(p, {255, 255});
    EXPECT_EQ(p.indexed->Lookup(last),
              std::optional<std::size_t>{entries.size() - 1});
    std::mt19937_64 rng(65535);
    Keys probes{{0, 0}, {7, 7}, {7, 8}, {8, 8}, {255, 254}, {255, 255}};
    while (probes.size() < 99) probes.push_back({rng() & 0xff, rng() & 0xff});
    ExpectSameDecisions(p, probes);
  }
}

TEST(MatchIndexClasses, DeltasKeepClassTables) {
  std::mt19937_64 rng(777);
  const std::vector<int> widths = {10, 10};
  auto entries = LoweredMapEntries(rng, 40);
  TablePair p = MakePair(dp::MatchKind::kTernary, widths, entries);
  const dp::MatchIndexStats* stats = p.indexed->index_stats();
  const std::size_t cells = stats->class_cells;
  ASSERT_GT(cells, 0u);

  // New words on the same rules, the planner's only delta kind, in runs
  // that share words as a leaf's expanded entries do.
  for (int round = 0; round < 4; ++round) {
    std::vector<dp::EntryPatch> patches;
    for (std::size_t e = round; e < entries.size(); e += 4) {
      entries[e].action_data = {static_cast<std::int64_t>(1000 + round),
                                static_cast<std::int64_t>(e % 3)};
      patches.push_back({.entry_index = e,
                         .ternary = entries[e].ternary,
                         .priority = entries[e].priority,
                         .action_data = entries[e].action_data});
    }
    p.indexed->ApplyDelta(patches);
    ASSERT_EQ(p.indexed->index_stats(), stats) << "no index rebuild";
    EXPECT_EQ(stats->class_cells, cells);
    const TablePair fresh = MakePair(dp::MatchKind::kTernary, widths, entries);
    EXPECT_EQ(ClassCells(fresh), cells);
    for (int probe = 0; probe < 300; ++probe) {
      ExpectSameDecision(p, fresh, RandomKey(rng, widths, false));
    }
    for (const dp::TableEntry& e : entries) {
      ExpectSameDecision(p, fresh, EntryKey(dp::MatchKind::kTernary, e));
    }
  }

  // Another leaf's rules on entry 1 would move it: rejected, and the class
  // tables stay.
  const std::size_t donor = entries.size() / 2;
  ASSERT_NE(entries[donor].ternary, entries[1].ternary);
  const std::vector<dp::EntryPatch> move{{.entry_index = 1,
                                          .ternary = entries[donor].ternary,
                                          .priority = entries[1].priority,
                                          .action_data = entries[1].action_data}};
  EXPECT_THROW(p.indexed->ApplyDelta(move), std::invalid_argument);
  EXPECT_EQ(stats->class_cells, cells);
}

TEST(MatchIndexClasses, RangeEdgesOnBothRangePaths) {
  // A last boundary below 4096 indexes the clamped key (one cell per key
  // value up to it); from 4096 on, the key's interval is searched first
  // (one cell per interval). Keys at the last boundary, just above it and
  // at 2^64-1 all fall in the last interval: covered or not.
  for (const std::uint64_t last : {1000ull, 4095ull, 4096ull, 70000ull}) {
    for (const bool open_top : {false, true}) {
      std::mt19937_64 rng(last + open_top);
      std::vector<dp::TableEntry> entries;
      for (std::size_t e = 0; e < 24; ++e) {
        std::uint64_t lo = rng() % last, hi = rng() % last;
        if (lo > hi) std::swap(lo, hi);
        entries.push_back({.range_lo = {lo},
                           .range_hi = {hi},
                           .priority = static_cast<int>(e % 3),
                           .action_data = {static_cast<std::int64_t>(e)}});
      }
      // hi + 1 == last: the last boundary.
      entries.push_back({.range_lo = {last - 10}, .range_hi = {last - 1},
                         .priority = 1, .action_data = {100}});
      if (open_top) {
        entries.push_back({.range_lo = {last}, .range_hi = {~0ull},
                           .priority = 0, .action_data = {200}});
      }
      const TablePair p = MakePair(dp::MatchKind::kRange, {64}, entries);
      const dp::MatchIndexStats& stats = *p.indexed->index_stats();
      EXPECT_EQ(stats.class_cells, last < 4096 ? last + 1 : stats.intervals)
          << "last " << last;
      Keys probes;
      for (const std::uint64_t key :
           {std::uint64_t{0}, last - 1, last, last + 1, 2 * last,
            ~std::uint64_t{1}, ~std::uint64_t{0}}) {
        probes.push_back({key});
      }
      for (int probe = 0; probe < 200; ++probe) {
        probes.push_back({rng() % (last + 64)});
      }
      ExpectSameDecisions(p, probes);
    }
  }
}
