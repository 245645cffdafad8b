#include "dataplane/match_index.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "dataplane/phv.hpp"
#include "dataplane/table.hpp"

namespace pegasus::dataplane {

namespace {

template <class Word>
std::uint64_t HashWords(std::span<const Word> words) {
  std::uint64_t h = words.size();
  for (const Word w : words) {
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

/// The cross-product budget: cells per table, and class bitset words held
/// at once while building (32 MiB). A pair past either carries up a level.
constexpr std::size_t kMaxClassCells = std::size_t{1} << 16;
constexpr std::size_t kMaxClassWords = std::size_t{1} << 22;
/// A position root's cell for a miss: an index with a sorted position at
/// or past it (over 65,535 entries) takes the bitset root.
constexpr std::uint16_t kMissCell = 0xffff;
/// Class columns Walk keeps on the stack: enough for 16 dimensions and
/// their cross products. An index with more nodes walks heap columns.
constexpr std::size_t kStackNodes = 32;

/// The distinct entry bitsets of one class-table node, each stored once;
/// a class id is the bitset's index. Deduplicated through a flat
/// open-addressing set kept at most half full (a slot holds id + 1, or 0).
class ClassSet {
 public:
  ClassSet(std::size_t words, std::size_t max_classes)
      : words_(words),
        mask_(std::bit_ceil(2 * max_classes + 1) - 1),
        slots_(mask_ + 1, 0) {}

  /// The class id of `set` (words_ words), added if new. Throws
  /// std::length_error past 2^16 classes.
  std::uint16_t Intern(const std::uint64_t* set) {
    std::size_t probe = HashWords(std::span(set, words_)) & mask_;
    while (slots_[probe] != 0) {
      const std::uint32_t id = slots_[probe] - 1;
      if (std::equal(set, set + words_, Set(id))) {
        return static_cast<std::uint16_t>(id);
      }
      probe = (probe + 1) & mask_;
    }
    const std::size_t id = classes();
    if (id > 0xffff) {
      throw std::length_error("MatchIndex: a node with over 2^16 classes");
    }
    sets_.insert(sets_.end(), set, set + words_);
    slots_[probe] = static_cast<std::uint32_t>(id + 1);
    return static_cast<std::uint16_t>(id);
  }

  std::size_t classes() const { return sets_.size() / words_; }
  std::size_t held_words() const { return sets_.size(); }
  const std::uint64_t* Set(std::size_t id) const {
    return sets_.data() + id * words_;
  }

 private:
  std::size_t words_;
  std::size_t mask_;
  std::vector<std::uint32_t> slots_;
  std::vector<std::uint64_t> sets_;
};

/// Sorted position of the first entry in both `a` and `b`, or kMissCell.
std::uint16_t FirstCommon(const std::uint64_t* a, const std::uint64_t* b,
                          std::size_t words) {
  for (std::size_t w = 0; w < words; ++w) {
    const std::uint64_t hits = a[w] & b[w];
    if (hits != 0) {
      return static_cast<std::uint16_t>(
          w * 64 + static_cast<std::size_t>(std::countr_zero(hits)));
    }
  }
  return kMissCell;
}

}  // namespace

MatchIndex::MatchIndex(std::span<const TableEntry> entries,
                       bool kind_is_ternary) {
  const auto start = std::chrono::steady_clock::now();
  num_entries_ = entries.size();
  words_ = (num_entries_ + 63) / 64;

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
    const int priority = entries[order_[pos]].priority;
    if (priorities_.empty() || priorities_.back().priority != priority) {
      priorities_.push_back({static_cast<std::uint32_t>(pos), priority});
    }
  }

  for (const TableEntry& e : entries) {
    if (!std::ranges::all_of(e.action_data, InValueDomain)) {
      throw std::invalid_argument(
          "MatchIndex: action word outside the PHV value domain");
    }
    arena_budget_ += e.action_data.size();
    min_words_ = std::min(min_words_, e.action_data.size());
  }
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
  BuildClassTables();

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
  std::vector<std::int32_t> arena;
  std::vector<Slice> distinct;
  std::vector<std::uint32_t> refs;
  std::vector<std::uint32_t> slice_of(num_entries_);
  // Open-addressing set of distinct slices, kept at most half full: each
  // slot holds a distinct slice's index + 1, or 0 when empty.
  const std::size_t mask = std::bit_ceil(2 * num_entries_ + 1) - 1;
  std::vector<std::uint32_t> slots(mask + 1, 0);
  for (std::size_t pos = 0; pos < num_entries_; ++pos) {
    const auto words = words_of(pos);
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
      // One bulk insert, narrowing each word (its domain was checked).
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
    return std::span<const std::int32_t>(arena_.data() + s.offset, s.size);
  });
}

void MatchIndex::BuildClassTables() {
  // One node per dimension, then per cross product, in build order; a
  // node's sets die once a cross product has consumed them.
  struct Node {
    std::uint32_t id = 0;
    ClassSet set;
  };
  std::vector<Node> level;
  std::size_t held = 0;  // class bitset words alive across nodes
  std::vector<std::uint64_t> acc(words_);
  const auto row = [&](std::size_t r) { return plane_.data() + r * words_; };
  // Interns `count` cells, cell i's bitset filled into acc by fill(i).
  const auto add_cells = [&](ClassSet& set, std::size_t count, auto fill) {
    for (std::size_t i = 0; i < count; ++i) {
      fill(i);
      cells_.push_back(set.Intern(acc.data()));
    }
  };
  const auto add_dim = [&](const ClassDim& dim, ClassSet set) {
    held += set.held_words();
    level.push_back({static_cast<std::uint32_t>(dims_.size()),
                     std::move(set)});
    dims_.push_back(dim);
  };

  // Ternary windows: up to three consecutive nibble chunks of one field.
  for (std::size_t c = 0; c < chunks_.size();) {
    std::size_t end = c + 1;
    while (end < chunks_.size() && end - c < 3 &&
           chunks_[end].field == chunks_[c].field) {
      ++end;
    }
    int bits = 4 * static_cast<int>(end - c);
    if (end == chunks_.size() || chunks_[end].field != chunks_[c].field) {
      // The field's top window: drop high nibble bits no row tells apart.
      const std::uint64_t* top = row(chunks_[end - 1].plane_row);
      int keep = 4;
      const auto splits = [&](int bit) {
        for (std::size_t nib = 0; nib < 16; ++nib) {
          const std::size_t other = nib ^ (std::size_t{1} << bit);
          if (nib < other &&
              !std::equal(top + nib * words_, top + (nib + 1) * words_,
                          top + other * words_)) {
            return true;
          }
        }
        return false;
      };
      while (keep > 1 && !splits(keep - 1)) --keep;
      bits -= 4 - keep;
    }
    ClassDim dim;
    dim.field = chunks_[c].field;
    dim.shift = chunks_[c].shift;
    dim.mask = (std::uint64_t{1} << bits) - 1;
    dim.limit = dim.mask;
    dim.cells = static_cast<std::uint32_t>(cells_.size());
    const std::size_t count = std::size_t{1} << bits;
    ClassSet set(words_, count);
    add_cells(set, count, [&](std::size_t v) {
      std::fill(acc.begin(), acc.end(), ~0ull);
      for (std::size_t k = c; k < end; ++k) {
        const std::size_t nib = (v >> (chunks_[k].shift - dim.shift)) & 0xf;
        const std::uint64_t* r = row(chunks_[k].plane_row + nib);
        for (std::size_t w = 0; w < words_; ++w) acc[w] &= r[w];
      }
    });
    add_dim(dim, std::move(set));
    c = end;
  }

  // Range fields: each elementary interval's row is a class; a field whose
  // last boundary is below 4096 is indexed by the clamped key instead.
  for (std::size_t r = 0; r < ranges_.size(); ++r) {
    const RangeField& rf = ranges_[r];
    const std::size_t intervals = rf.starts.size();
    ClassDim dim;
    dim.field = rf.field;
    dim.cells = static_cast<std::uint32_t>(cells_.size());
    ClassSet set(words_, intervals);
    add_cells(set, intervals, [&](std::size_t i) {
      std::copy(row(rf.plane_row + i), row(rf.plane_row + i + 1),
                acc.begin());
    });
    const std::uint64_t last = rf.starts.back();
    if (last < 4096) {
      std::vector<std::uint16_t> of_interval(cells_.begin() + dim.cells,
                                             cells_.end());
      cells_.resize(dim.cells);
      std::size_t i = 0;
      for (std::uint64_t v = 0; v <= last; ++v) {
        if (i + 1 < intervals && rf.starts[i + 1] == v) ++i;
        cells_.push_back(of_interval[i]);
      }
      dim.limit = last;
    } else {
      dim.range = static_cast<std::uint32_t>(r);
    }
    add_dim(dim, std::move(set));
  }

  // Cross products, pairwise and level by level, down to two nodes. A pair
  // past the cell or build budget carries both nodes up a level; a level
  // that combines no pair ends the pairing.
  std::uint32_t next_id = static_cast<std::uint32_t>(dims_.size());
  bool combined = true;
  while (combined && level.size() > 2) {
    combined = false;
    std::vector<Node> next;
    for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
      const ClassSet& a = level[i].set;
      const ClassSet& b = level[i + 1].set;
      const std::size_t count = a.classes() * b.classes();
      const std::size_t first = cells_.size();
      bool fits = count <= kMaxClassCells;
      ClassSet set(words_, fits ? count : 0);
      for (std::size_t cell = 0; fits && cell < count; ++cell) {
        const std::uint64_t* sa = a.Set(cell / b.classes());
        const std::uint64_t* sb = b.Set(cell % b.classes());
        for (std::size_t w = 0; w < words_; ++w) acc[w] = sa[w] & sb[w];
        cells_.push_back(set.Intern(acc.data()));
        fits = held + set.held_words() <= kMaxClassWords;
      }
      if (!fits) {
        cells_.resize(first);
        next.push_back(std::move(level[i]));
        next.push_back(std::move(level[i + 1]));
        continue;
      }
      products_.push_back({level[i].id, level[i + 1].id,
                           static_cast<std::uint32_t>(b.classes()),
                           static_cast<std::uint32_t>(first)});
      held += set.held_words();
      next.push_back({next_id++, std::move(set)});
      combined = true;
    }
    if (level.size() % 2 == 1) next.push_back(std::move(level.back()));
    level = std::move(next);
    held = 0;
    for (const Node& node : level) held += node.set.held_words();
  }

  // The position root: the cross product of the last two nodes, or a lone
  // dimension's table, with each cell the winning sorted position.
  position_root_ =
      num_entries_ <= kMissCell &&
      (level.size() == 1 ||
       (level.size() == 2 &&
        level[0].set.classes() * level[1].set.classes() <= kMaxClassCells));
  if (position_root_ && level.size() == 2) {
    const ClassSet& a = level[0].set;
    const ClassSet& b = level[1].set;
    products_.push_back({level[0].id, level[1].id,
                         static_cast<std::uint32_t>(b.classes()),
                         static_cast<std::uint32_t>(cells_.size())});
    for (std::size_t ca = 0; ca < a.classes(); ++ca) {
      for (std::size_t cb = 0; cb < b.classes(); ++cb) {
        cells_.push_back(FirstCommon(a.Set(ca), b.Set(cb), words_));
      }
    }
  } else if (position_root_) {
    for (std::uint16_t& cell : cells_) {
      const std::uint64_t* set = level[0].set.Set(cell);
      cell = FirstCommon(set, set, words_);
    }
  } else {
    // The bitset root keeps the remaining nodes' class sets.
    for (const Node& node : level) {
      root_.push_back({node.id, root_sets_.size()});
      root_sets_.insert(root_sets_.end(), node.set.Set(0),
                        node.set.Set(0) + node.set.held_words());
    }
  }
  cells_.shrink_to_fit();
  stats_.class_cells = cells_.size();
  stats_.root_nodes =
      position_root_ ? MatchIndexStats::kPositionRoot : root_.size();
}

void MatchIndex::RefreshFootprint() {
  stats_.bytes = (plane_.size() + root_sets_.size()) * sizeof(std::uint64_t) +
                 cells_.size() * sizeof(std::uint16_t) +
                 dims_.size() * sizeof(ClassDim) +
                 products_.size() * sizeof(CrossProduct) +
                 root_.size() * sizeof(RootNode) +
                 (order_.size() + pos_of_.size()) * sizeof(std::uint32_t) +
                 priorities_.size() * sizeof(PriorityRun) +
                 arena_.size() * sizeof(std::int32_t) +
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

int MatchIndex::Priority(std::size_t entry) const {
  const std::uint32_t pos = pos_of_[entry];
  // The last run starting at or before pos; priorities_[0].first is 0.
  const auto run = std::upper_bound(
      priorities_.begin(), priorities_.end(), pos,
      [](std::uint32_t p, const PriorityRun& r) { return p < r.first; });
  return std::prev(run)->priority;
}

bool MatchIndex::SelectsEntryKeys(const EntryPatch& patch) const {
  const std::size_t pos = pos_of_[patch.entry_index];
  const auto holds = [&](std::size_t row, bool bit) {
    return ((plane_[row * words_ + pos / 64] >> (pos % 64)) & 1) == bit;
  };
  // Ternary: a masked bit above the compiled chunk coverage has no row to
  // express it. Within coverage a rule is the product of its nibble sets,
  // so equal chunk rows mean the rule selects the entry's keys.
  for (std::size_t f = 0; f < patch.ternary.size(); ++f) {
    std::uint64_t covered = 0;
    for (const NibbleChunk& c : chunks_) {
      if (c.field == f) covered |= 0xfull << c.shift;
    }
    if ((patch.ternary[f].mask & ~covered) != 0) return false;
  }
  for (const NibbleChunk& c : chunks_) {
    const TernaryRule& r = patch.ternary[c.field];
    const std::uint64_t m = (r.mask >> c.shift) & 0xf;
    const std::uint64_t v = (r.value >> c.shift) & m;
    for (std::uint64_t nib = 0; nib < 16; ++nib) {
      if (!holds(c.plane_row + nib, (nib & m) == v)) return false;
    }
  }
  // Range: bounds on elementary-interval boundaries make [lo, hi] a union
  // of intervals, so equal interval rows mean the same bounds.
  for (const RangeField& rf : ranges_) {
    const std::uint64_t lo = patch.range_lo[rf.field];
    const std::uint64_t hi = patch.range_hi[rf.field];
    if (lo > hi ||
        !std::binary_search(rf.starts.begin(), rf.starts.end(), lo) ||
        (hi != ~0ull &&
         !std::binary_search(rf.starts.begin(), rf.starts.end(), hi + 1))) {
      return false;
    }
    for (std::size_t i = 0; i < rf.starts.size(); ++i) {
      const std::uint64_t first = rf.starts[i];
      const std::uint64_t last =
          i + 1 < rf.starts.size() ? rf.starts[i + 1] - 1 : ~0ull;
      if (!holds(rf.plane_row + i, lo <= first && hi >= last)) return false;
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

template <std::size_t kRows, class KeyOf>
void MatchIndex::Walk(std::size_t n, KeyOf key_of, std::int32_t* out) const {
  // One class column per node: dimensions first, then cross products in
  // build order, so a position root's column is the last one written.
  // `cls` holds the columns, kRows cells each, every one written before it
  // is read: a stack array, or a heap vector past kStackNodes nodes. Each
  // is its own instantiation, so the stack one stays a local array that no
  // table load can alias.
  const auto walk = [&](auto& cls) {
    const auto col = [&cls](std::size_t node) { return &cls[node * kRows]; };
    const std::uint16_t* cells = cells_.data();
    for (std::size_t first = 0; first < n; first += kRows) {
      const std::size_t m = std::min(kRows, n - first);
      const auto key = [&](std::size_t p, std::uint32_t i) {
        return key_of(first + p, i);
      };
      std::size_t node = 0;
      for (const ClassDim& d : dims_) {
        const std::uint16_t* table = cells + d.cells;
        std::uint16_t* c = col(node++);
        if (d.range == kNoRange) {
          for (std::size_t p = 0; p < m; ++p) {
            c[p] = table[std::min((key(p, d.field) >> d.shift) & d.mask,
                                  d.limit)];
          }
        } else {
          const std::vector<std::uint64_t>& starts = ranges_[d.range].starts;
          for (std::size_t p = 0; p < m; ++p) {
            c[p] = table[IntervalOf(starts, key(p, d.field))];
          }
        }
      }
      for (const CrossProduct& x : products_) {
        const std::uint16_t* table = cells + x.cells;
        const std::uint16_t* a = col(x.a);
        const std::uint16_t* b = col(x.b);
        std::uint16_t* c = col(node++);
        for (std::size_t p = 0; p < m; ++p) {
          c[p] = table[a[p] * x.classes_b + b[p]];
        }
      }
      if (position_root_) {
        const std::uint16_t* root = col(node - 1);
        for (std::size_t p = 0; p < m; ++p) {
          out[first + p] = root[p] == kMissCell ? kMiss : root[p];
        }
        continue;
      }
      // The bitset root: the first word whose AND over the root nodes'
      // class sets is nonzero holds the winner.
      for (std::size_t p = 0; p < m; ++p) {
        std::int32_t pos = kMiss;
        for (std::size_t w = 0; w < words_; ++w) {
          std::uint64_t hits = ~0ull;
          for (const RootNode& r : root_) {
            hits &= root_sets_[r.sets + col(r.node)[p] * words_ + w];
          }
          if (hits != 0) {
            pos = static_cast<std::int32_t>(
                w * 64 + static_cast<std::size_t>(std::countr_zero(hits)));
            break;
          }
        }
        out[first + p] = pos;
      }
    }
  };
  const std::size_t nodes = dims_.size() + products_.size();
  if (nodes > kStackNodes) {
    std::vector<std::uint16_t> heap(nodes * kRows);
    walk(heap);
  } else {
    std::uint16_t stack[kStackNodes * kRows];
    walk(stack);
  }
}

std::int32_t MatchIndex::FindBest(const std::uint64_t* keys) const {
  std::int32_t pos = kMiss;
  Walk<1>(1, [keys](std::size_t, std::uint32_t i) { return keys[i]; }, &pos);
  return pos;
}

void MatchIndex::FindBatch(const std::int32_t* const* rows, std::size_t n,
                           const FieldId* key_fields,
                           std::int32_t* out) const {
  const auto key_of = [rows, key_fields](std::size_t p, std::uint32_t i) {
    return static_cast<std::uint64_t>(
        static_cast<std::int64_t>(rows[p][key_fields[i]]));
  };
  if (n == 1) {
    Walk<1>(n, key_of, out);
  } else {
    Walk<kBatchRows>(n, key_of, out);
  }
}

}  // namespace pegasus::dataplane
