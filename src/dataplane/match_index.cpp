#include "dataplane/match_index.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "dataplane/table.hpp"

namespace pegasus::dataplane {

namespace {

std::uint64_t HashWords(std::span<const std::int64_t> words) {
  std::uint64_t h = words.size();
  for (const std::int64_t w : words) {
    h = (h ^ static_cast<std::uint64_t>(w)) * 0xff51afd7ed558ccdull;
    h ^= h >> 33;
  }
  return h;
}

/// Index of the elementary interval holding `key`: the last start <= key
/// (starts is sorted and starts[0] == 0). Branch-free: the window halves
/// every step and moves by a multiply instead of a jump.
std::size_t IntervalOf(const std::vector<std::uint64_t>& starts,
                       std::uint64_t key) {
  const std::uint64_t* base = starts.data();
  std::size_t n = starts.size();
  while (n > 1) {
    const std::size_t half = n / 2;
    base += static_cast<std::size_t>(base[half] <= key) * half;
    n -= half;
  }
  return static_cast<std::size_t>(base - starts.data());
}

}  // namespace

MatchIndex::MatchIndex(std::span<const TableEntry> entries,
                       bool kind_is_ternary) {
  const auto start = std::chrono::steady_clock::now();
  num_entries_ = entries.size();
  words_ = (num_entries_ + 63) / 64;
  agg_words_ = (words_ + 63) / 64;

  // TCAM physical order: higher priority first, insertion order on ties —
  // the winner of an AND'd bitset is then always the lowest set bit.
  order_.resize(num_entries_);
  std::iota(order_.begin(), order_.end(), 0u);
  std::stable_sort(order_.begin(), order_.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return entries[a].priority > entries[b].priority;
                   });
  pos_of_.resize(num_entries_);
  for (std::size_t pos = 0; pos < num_entries_; ++pos) {
    pos_of_[order_[pos]] = static_cast<std::uint32_t>(pos);
  }

  for (const TableEntry& e : entries) arena_budget_ += e.action_data.size();
  if (arena_budget_ > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("MatchIndex: action data exceeds 2^32 words");
  }
  slices_.resize(num_entries_);
  shared_.resize(num_entries_);
  InternSlices([&](std::size_t pos) {
    return std::span<const std::int64_t>(entries[order_[pos]].action_data);
  });

  if (kind_is_ternary) {
    BuildTernary(entries);
  } else {
    BuildRange(entries);
  }
  // Aggregates from the finished planes; ApplyDelta keeps them exact.
  const std::size_t num_rows = words_ == 0 ? 0 : plane_.size() / words_;
  agg_.assign(num_rows * agg_words_, 0);
  for (std::size_t row = 0; row < num_rows; ++row) {
    for (std::size_t w = 0; w < words_; ++w) {
      if (plane_[row * words_ + w] != 0) {
        agg_[row * agg_words_ + w / 64] |= 1ull << (w % 64);
      }
    }
  }

  stats_.entries = num_entries_;
  stats_.words_per_row = words_;
  stats_.nibble_chunks = chunks_.size();
  for (const RangeField& rf : ranges_) stats_.intervals += rf.starts.size();
  RefreshFootprint();
  stats_.build_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
}

template <class WordsOf>
void MatchIndex::InternSlices(WordsOf words_of) {
  std::vector<std::int64_t> arena;
  std::vector<Slice> distinct;
  std::vector<std::uint32_t> refs;
  std::vector<std::uint32_t> slice_of(num_entries_);
  // Open-addressing set of distinct slices, kept at most half full: each
  // slot holds a distinct slice's index + 1, or 0 when empty.
  const std::size_t mask = std::bit_ceil(2 * num_entries_ + 1) - 1;
  std::vector<std::uint32_t> slots(mask + 1, 0);
  for (std::size_t pos = 0; pos < num_entries_; ++pos) {
    const std::span<const std::int64_t> words = words_of(pos);
    std::size_t probe = HashWords(words) & mask;
    while (slots[probe] != 0) {
      const Slice s = distinct[slots[probe] - 1];
      if (s.size == words.size() &&
          std::equal(words.begin(), words.end(),
                     arena.begin() + static_cast<std::ptrdiff_t>(s.offset))) {
        break;
      }
      probe = (probe + 1) & mask;
    }
    if (slots[probe] == 0) {
      distinct.push_back({static_cast<std::uint32_t>(arena.size()),
                          static_cast<std::uint32_t>(words.size())});
      refs.push_back(0);
      arena.insert(arena.end(), words.begin(), words.end());
      slots[probe] = static_cast<std::uint32_t>(distinct.size());
    }
    const std::uint32_t id = slots[probe] - 1;
    ++refs[id];
    slices_[pos] = distinct[id];
    slice_of[pos] = id;
  }
  for (std::size_t pos = 0; pos < num_entries_; ++pos) {
    shared_[pos] = refs[slice_of[pos]] > 1;
  }
  arena.shrink_to_fit();
  arena_ = std::move(arena);
}

void MatchIndex::CompactArena() {
  InternSlices([this](std::size_t pos) {
    const Slice s = slices_[pos];
    return std::span<const std::int64_t>(arena_.data() + s.offset, s.size);
  });
}

void MatchIndex::RefreshFootprint() {
  stats_.bytes = (plane_.size() + agg_.size()) * sizeof(std::uint64_t) +
                 (order_.size() + pos_of_.size()) * sizeof(std::uint32_t) +
                 arena_.size() * sizeof(std::int64_t) +
                 slices_.size() * sizeof(Slice) + (shared_.size() + 7) / 8;
  for (const RangeField& rf : ranges_) {
    stats_.bytes += rf.starts.size() * sizeof(std::uint64_t);
  }
}

std::uint32_t MatchIndex::AddRows(std::size_t count) {
  const std::size_t first = plane_.size() / words_;
  plane_.resize(plane_.size() + count * words_, 0);
  return static_cast<std::uint32_t>(first);
}

void MatchIndex::SetBit(std::size_t row, std::size_t pos, bool on) {
  const std::size_t word = pos / 64;
  std::uint64_t& w = plane_[row * words_ + word];
  const std::uint64_t bit = 1ull << (pos % 64);
  w = on ? (w | bit) : (w & ~bit);
  std::uint64_t& a = agg_[row * agg_words_ + word / 64];
  const std::uint64_t agg_bit = 1ull << (word % 64);
  a = w != 0 ? (a | agg_bit) : (a & ~agg_bit);
}

void MatchIndex::BuildTernary(std::span<const TableEntry> entries) {
  const std::size_t nk = entries.empty() ? 0 : entries[0].ternary.size();
  for (std::size_t f = 0; f < nk; ++f) {
    // Only bits some entry actually masks can influence a match; everything
    // above is don't-care for every rule and needs no chunk table.
    std::uint64_t mask_union = 0;
    for (const TableEntry& e : entries) mask_union |= e.ternary[f].mask;
    const int cover_bits =
        64 - std::countl_zero(mask_union | 1ull);  // >=1 to avoid UB on 0
    const std::size_t num_chunks =
        mask_union == 0 ? 0 : (static_cast<std::size_t>(cover_bits) + 3) / 4;
    for (std::size_t c = 0; c < num_chunks; ++c) {
      NibbleChunk chunk;
      chunk.field = static_cast<std::uint32_t>(f);
      chunk.shift = static_cast<std::uint32_t>(4 * c);
      chunk.plane_row = AddRows(16);
      std::uint64_t* rows = plane_.data() + chunk.plane_row * words_;
      for (std::size_t pos = 0; pos < num_entries_; ++pos) {
        const TernaryRule& r = entries[order_[pos]].ternary[f];
        const std::uint64_t m = (r.mask >> chunk.shift) & 0xf;
        const std::uint64_t v = (r.value >> chunk.shift) & m;
        for (std::uint64_t nib = 0; nib < 16; ++nib) {
          if ((nib & m) == v) {
            rows[nib * words_ + pos / 64] |= 1ull << (pos % 64);
          }
        }
      }
      chunks_.push_back(chunk);
    }
  }
}

void MatchIndex::BuildRange(std::span<const TableEntry> entries) {
  const std::size_t nk = entries.empty() ? 0 : entries[0].range_lo.size();
  for (std::size_t f = 0; f < nk; ++f) {
    RangeField rf;
    rf.field = static_cast<std::uint32_t>(f);
    // Elementary intervals: every lo starts one, every hi ends one. The
    // hi+1 boundary is skipped at the top of the 64-bit domain (no wrap).
    rf.starts.push_back(0);
    for (const TableEntry& e : entries) {
      rf.starts.push_back(e.range_lo[f]);
      if (e.range_hi[f] != ~0ull) rf.starts.push_back(e.range_hi[f] + 1);
    }
    std::sort(rf.starts.begin(), rf.starts.end());
    rf.starts.erase(std::unique(rf.starts.begin(), rf.starts.end()),
                    rf.starts.end());
    rf.plane_row = AddRows(rf.starts.size());
    std::uint64_t* rows = plane_.data() + rf.plane_row * words_;
    for (std::size_t i = 0; i < rf.starts.size(); ++i) {
      const std::uint64_t first = rf.starts[i];
      const std::uint64_t last =
          i + 1 < rf.starts.size() ? rf.starts[i + 1] - 1 : ~0ull;
      for (std::size_t pos = 0; pos < num_entries_; ++pos) {
        const TableEntry& e = entries[order_[pos]];
        if (e.range_lo[f] <= first && e.range_hi[f] >= last) {
          rows[i * words_ + pos / 64] |= 1ull << (pos % 64);
        }
      }
    }
    ranges_.push_back(std::move(rf));
  }
}

bool MatchIndex::CanAbsorb(const EntryPatch& patch) const {
  if (patch.entry_index >= num_entries_) return false;
  const std::size_t pos = pos_of_[patch.entry_index];
  // The arena budget (sum of entries' words) holds only if every slice
  // keeps its size.
  if (patch.action_data.size() != slices_[pos].size) return false;
  // Ternary: every masked bit of the new rule must fall inside some
  // existing chunk — bits above the compiled coverage have no rows to
  // express them, so a rule using them forces a reseal.
  for (const NibbleChunk& c : chunks_) {
    if (c.field >= patch.ternary.size()) return false;
  }
  for (std::size_t f = 0; f < patch.ternary.size(); ++f) {
    std::uint64_t covered = 0;
    for (const NibbleChunk& c : chunks_) {
      if (c.field == f) covered |= 0xfull << c.shift;
    }
    if ((patch.ternary[f].mask & ~covered) != 0) return false;
  }
  // Range: the new bounds must land on existing elementary-interval
  // boundaries, otherwise an interval would need splitting (reseal).
  for (const RangeField& rf : ranges_) {
    if (rf.field >= patch.range_lo.size() ||
        rf.field >= patch.range_hi.size()) {
      return false;
    }
    const std::uint64_t lo = patch.range_lo[rf.field];
    const std::uint64_t hi = patch.range_hi[rf.field];
    if (lo > hi) return false;
    if (!std::binary_search(rf.starts.begin(), rf.starts.end(), lo)) {
      return false;
    }
    if (hi != ~0ull &&
        !std::binary_search(rf.starts.begin(), rf.starts.end(), hi + 1)) {
      return false;
    }
  }
  return true;
}

void MatchIndex::ApplyDelta(std::span<const EntryPatch> patches) {
  const auto start = std::chrono::steady_clock::now();
  const EntryPatch* prev = nullptr;  // the patch applied just before
  std::size_t prev_pos = 0;
  for (const EntryPatch& p : patches) {
    const std::size_t pos = pos_of_[p.entry_index];
    const std::span<const std::int64_t> words(p.action_data);
    if (prev != nullptr && std::ranges::equal(words, prev->action_data)) {
      // The planner patches all of a leaf's expanded entries with the same
      // words: the run shares the first one's slice.
      slices_[pos] = slices_[prev_pos];
      shared_[pos] = true;
      shared_[prev_pos] = true;
    } else if (!shared_[pos]) {
      std::ranges::copy(words, arena_.begin() + slices_[pos].offset);
    } else {
      // Copy-on-write. The position lets go of its old slice first, so a
      // compaction frees it (unless others still use it) and the append
      // then fits the budget: live words <= budget - words.size().
      slices_[pos] = {};
      shared_[pos] = false;
      const std::size_t need = arena_.size() + words.size();
      if (need > arena_budget_) CompactArena();
      if (arena_.size() + words.size() > arena_.capacity()) {
        arena_.reserve(std::min(
            arena_budget_,
            std::max(2 * arena_.capacity(), arena_.size() + words.size())));
      }
      slices_[pos] = {static_cast<std::uint32_t>(arena_.size()),
                      static_cast<std::uint32_t>(words.size())};
      arena_.insert(arena_.end(), words.begin(), words.end());
    }
    prev = &p;
    prev_pos = pos;

    for (const NibbleChunk& c : chunks_) {
      const TernaryRule& r = p.ternary[c.field];
      const std::uint64_t m = (r.mask >> c.shift) & 0xf;
      const std::uint64_t v = (r.value >> c.shift) & m;
      for (std::uint64_t nib = 0; nib < 16; ++nib) {
        SetBit(c.plane_row + nib, pos, (nib & m) == v);
      }
    }
    for (const RangeField& rf : ranges_) {
      const std::uint64_t lo = p.range_lo[rf.field];
      const std::uint64_t hi = p.range_hi[rf.field];
      for (std::size_t i = 0; i < rf.starts.size(); ++i) {
        const std::uint64_t first = rf.starts[i];
        const std::uint64_t last =
            i + 1 < rf.starts.size() ? rf.starts[i + 1] - 1 : ~0ull;
        SetBit(rf.plane_row + i, pos, lo <= first && hi >= last);
      }
    }
    ++stats_.deltas_applied;
    stats_.leaf_words_patched += p.action_data.size();
  }
  RefreshFootprint();
  ++stats_.reseals_avoided;
  stats_.delta_apply_ns += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

std::int32_t MatchIndex::FindBest(const std::uint64_t* keys) const {
  if (num_entries_ == 0) return kMiss;
  const std::size_t num_rows = chunks_.size() + ranges_.size();
  // No chunk and no range field: every rule is a catch-all, so the first
  // sorted position wins.
  if (num_rows == 0) return 0;
  thread_local std::vector<std::uint32_t> scratch;
  if (scratch.size() < num_rows) scratch.resize(num_rows);
  std::uint32_t* rows = scratch.data();
  std::size_t r = 0;
  for (const NibbleChunk& c : chunks_) {
    rows[r++] = c.plane_row +
                static_cast<std::uint32_t>((keys[c.field] >> c.shift) & 0xf);
  }
  for (const RangeField& rf : ranges_) {
    rows[r++] = rf.plane_row +
                static_cast<std::uint32_t>(IntervalOf(rf.starts,
                                                      keys[rf.field]));
  }
  const std::uint64_t* plane = plane_.data();
  const std::uint64_t* agg = agg_.data();
  for (std::size_t a = 0; a < agg_words_; ++a) {
    std::uint64_t candidates = ~0ull;
    for (std::size_t i = 0; i < num_rows; ++i) {
      candidates &= agg[rows[i] * agg_words_ + a];
    }
    // Positions are priority-sorted, so the first candidate word whose
    // full AND is nonzero holds the winner.
    while (candidates != 0) {
      const std::size_t w =
          a * 64 + static_cast<std::size_t>(std::countr_zero(candidates));
      std::uint64_t hits = ~0ull;
      for (std::size_t i = 0; i < num_rows; ++i) {
        hits &= plane[rows[i] * words_ + w];
      }
      if (hits != 0) {
        return static_cast<std::int32_t>(
            w * 64 + static_cast<std::size_t>(std::countr_zero(hits)));
      }
      candidates &= candidates - 1;
    }
  }
  return kMiss;
}

}  // namespace pegasus::dataplane
