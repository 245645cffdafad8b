// Compiled match index for ternary/range tables: Recursive Flow
// Classification (RFC, Gupta & McKeown, SIGCOMM 1999) compiled from the
// Lucent bit-vector / DCFL decomposition of the software TCAM.
//
// Entries are pre-sorted by (priority desc, insertion order asc), so the
// winner of any set of matching entries is its lowest sorted position — no
// per-entry priority compares survive to lookup time.
//
// Class tables (the one lookup path), with 16-bit cells:
//
//   * a dimension is a window of at most 12 bits of one ternary field
//     (whole nibble chunks; the field's top window is trimmed to the bits
//     some rule tells apart) or one range field. Its table maps every
//     window value — for a range field, every key up to its last interval
//     boundary, or every elementary interval when that boundary is 4096 or
//     more — to a class: the id of one distinct set of compatible entries;
//   * dimensions combine pairwise, level by level, into cross-product
//     tables indexed by a * classes_b + b, whose cells hold the class of
//     the two classes' intersection. A pair whose table would pass 2^16
//     cells, or whose class sets would pass the build budget (32 MiB held
//     at once), carries both nodes up to the next level instead. Pairing
//     stops at two nodes, or at a level where no pair combines;
//   * the root answers the sorted position, in one of two ways picked at
//     build time. A position root is the cross product of the last two
//     nodes (or a lone dimension's table) whose cells hold the winning
//     sorted position (the set's first entry) or a miss sentinel; it is
//     taken when that table fits 2^16 cells and every position fits a
//     cell beside the sentinel (at most 65,535 entries). Otherwise the
//     bitset root keeps the last nodes' class bitsets, ANDs the row's
//     classes word by word, and takes the first set bit.
//     With no node at all (no entries, or only catch-all rules) the
//     bitset root ANDs nothing: the first position wins, if any.
//
// Lookup cost: one load per dimension (after a shift and mask, a clamp, or
// for a wide range field a branch-free binary search) plus one per cross
// product, and for a bitset root one load per root node and word up to the
// first hit. A table keyed on two fields of up to 12 bits answers in three
// loads. A batch walks the nodes in chunks of up to kBatchRows rows, and
// each node is one pass over the chunk: a dimension reads every row's key
// field straight off its PHV words into a 16-bit class column, a cross
// product combines two earlier columns, and the root reads the last
// column, or ANDs the root nodes' bitsets. Every load in a dimension or
// product pass is independent of the others in it. One row is a chunk of
// one.
//
// Bit planes (what the class tables are compiled from, and what a delta's
// match is checked against). Per key field, the set of entries compatible
// with every field value, as one bitset row over sorted positions:
//
//   * ternary fields are decomposed into 4-bit nibble chunks; each chunk
//     owns a 16-row table (row v = entries whose rule accepts nibble value
//     v). Arbitrary masks — not just prefixes — are exactly representable
//     because a ternary rule constrains each nibble independently:
//     (key & mask) == (value & mask) holds iff it holds nibble-by-nibble.
//     Chunks only cover bits some entry actually masks; higher key bits
//     cannot influence any rule and are skipped.
//   * range fields are decomposed into sorted disjoint elementary
//     intervals (boundaries = every entry's lo and hi+1); each interval
//     owns the row of entries whose [lo, hi] covers it.
//
// Deltas write action words only. A patch must repeat its entry's match
// (SelectsEntryKeys checks it against the planes) and priority, so the
// planes and the class tables never change after the build.
//
// Action data: CRC expands one leaf into many entries carrying identical
// words, so the arena stores each distinct slice once and every sorted
// position keeps an {offset, size} pair into it. Arena words are int32, the
// PHV's own width: the constructor rejects any word outside the PHV value
// domain (dataplane/phv.hpp), as MatchActionTable does for a patch's, so
// narrowing is exact and the table's action runs read the arena directly.
// Deltas are copy-on-write: a slice another position may still use is
// never written; the patched position gets a fresh slice appended to the
// arena (consecutive patches with identical words share one append), and
// a slice only one position uses is rewritten in place. The arena never grows past the sum of the
// entries' action words: an append that would cross it first compacts the
// arena to the slices still referenced.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dataplane/crc.hpp"
#include "dataplane/phv.hpp"

namespace pegasus::dataplane {

struct TableEntry;
struct EntryPatch;

/// Build/footprint counters for one compiled index (surfaced per table by
/// the compiler's `lower` pass diagnostics and aggregated per pipeline).
struct MatchIndexStats {
  std::size_t entries = 0;
  /// Bitset row width: ceil(entries / 64).
  std::size_t words_per_row = 0;
  /// Range fields: total elementary intervals across key fields.
  std::size_t intervals = 0;
  /// Ternary fields: nibble chunk tables built (16 bitset rows each).
  std::size_t nibble_chunks = 0;
  /// 16-bit cells across the class tables; 0 only with no key dimension.
  std::size_t class_cells = 0;
  /// Which root answers a lookup: kPositionRoot when the last class table
  /// holds sorted positions, otherwise the number of nodes whose class
  /// bitsets the bitset root ANDs (0 with no key dimension).
  static constexpr std::size_t kPositionRoot = ~std::size_t{0};
  std::size_t root_nodes = kPositionRoot;
  /// Resident footprint of the class tables + the bitset root's sets + the
  /// bit planes + boundaries + arena and its slice table + the priority
  /// runs; kept current across deltas, and never above the footprint of
  /// the same index with no slice shared.
  std::size_t bytes = 0;
  double build_ms = 0.0;
  /// O(delta) update counters: in-place patches applied without a reseal.
  std::uint64_t deltas_applied = 0;     // entry patches applied in place
  std::uint64_t leaf_words_patched = 0; // action-data words patched
  std::uint64_t reseals_avoided = 0;    // ApplyDelta batches (each would
                                        // otherwise have been a full reseal)
  std::uint64_t delta_apply_ns = 0;     // cumulative in-place patch time
};

/// Lookup structure compiled from a table's entry list at Seal() time. One
/// index serves either a ternary or a range table.
class MatchIndex {
 public:
  /// Sentinel returned by FindBest and FindBatch on miss.
  static constexpr std::int32_t kMiss = -1;
  /// Rows a batch lookup walks at once; longer batches run in chunks.
  static constexpr std::size_t kBatchRows = 64;

  /// Compiles the index. `kind_is_ternary` selects the nibble-chunk
  /// decomposition; otherwise entries' range_lo/range_hi are used. Field
  /// coverage is derived from the rules themselves (mask union /
  /// boundaries), so declared key widths are not needed. Throws
  /// std::invalid_argument for an action word outside the PHV value
  /// domain, and std::length_error for action data past 2^32 words or a
  /// range field with more than 2^16 classes (over 32K distinct bounds on
  /// one field; a class id is a 16-bit cell).
  MatchIndex(std::span<const TableEntry> entries, bool kind_is_ternary);

  /// Highest-priority match for the per-field key values (earliest
  /// insertion wins ties), as a *sorted position*; kMiss when no entry
  /// matches. `keys[i]` is the value of key field i.
  std::int32_t FindBest(const std::uint64_t* keys) const;

  /// FindBest for `n` PHV rows at once: out[p] is the sorted position (or
  /// kMiss) of the row whose key field i is rows[p][key_fields[i]], read as
  /// FindBest's key static_cast<uint64_t>(int64_t(value)), so a negative
  /// value is a key near 2^64. The caller checks every row is wide enough.
  void FindBatch(const std::int32_t* const* rows, std::size_t n,
                 const FieldId* key_fields, std::int32_t* out) const;

  /// Original entry index of sorted position `pos`.
  std::size_t EntryIndex(std::int32_t pos) const {
    return order_[static_cast<std::size_t>(pos)];
  }

  /// Action-data words of sorted position `pos` (a shared arena slice).
  std::span<const std::int32_t> ActionData(std::int32_t pos) const {
    const Slice s = slices_[static_cast<std::size_t>(pos)];
    return {arena_.data() + s.offset, s.size};
  }

  /// The fewest action words any position holds: every hit's ActionData
  /// has at least this many (deltas keep each slice's size).
  std::size_t MinActionWords() const { return min_words_; }

  /// Action-word count of original entry `entry` (< stats().entries).
  std::size_t ActionWords(std::size_t entry) const {
    return slices_[pos_of_[entry]].size;
  }

  /// Priority of original entry `entry` (< stats().entries).
  int Priority(std::size_t entry) const;

  const MatchIndexStats& stats() const { return stats_; }

  /// True when the match of `patch` selects exactly the keys its entry
  /// (patch.entry_index < stats().entries) selects, read off the planes:
  /// every masked ternary bit inside the compiled chunk coverage, range
  /// bounds on elementary-interval boundaries, and every chunk or interval
  /// row holding the entry's bit exactly where the patch's rule accepts.
  /// The patch carries one rule or bound per key field.
  bool SelectsEntryKeys(const EntryPatch& patch) const;

  /// Applies validated patches (MatchActionTable::ValidateDelta): repoints
  /// or rewrites each entry's action slice (copy-on-write, see above).
  /// Amortized O(patch words) per patch; a cloned index stays independent.
  void ApplyDelta(std::span<const EntryPatch> patches);

 private:
  /// One 4-bit chunk of a ternary key field: 16 bitset rows starting at
  /// row `plane_row`.
  struct NibbleChunk {
    std::uint32_t field = 0;
    std::uint32_t shift = 0;
    std::uint32_t plane_row = 0;
  };
  /// One range key field: elementary interval starts (sorted, starts[0]=0)
  /// and the first bitset row of its interval plane.
  struct RangeField {
    std::uint32_t field = 0;
    std::uint32_t plane_row = 0;
    std::vector<std::uint64_t> starts;
  };
  /// A sorted position's action words: arena_[offset, offset + size).
  struct Slice {
    std::uint32_t offset = 0;
    std::uint32_t size = 0;
  };
  static constexpr std::uint32_t kNoRange = ~0u;
  /// One class-table dimension. Its cell index is
  /// min((key >> shift) & mask, limit) — a ternary window, or a range field
  /// whose last boundary is below 4096 — or, when `range` names a range
  /// field, the key's elementary interval in ranges_[range].
  struct ClassDim {
    std::uint32_t field = 0;
    std::uint32_t shift = 0;
    std::uint64_t mask = ~0ull;
    std::uint64_t limit = ~0ull;
    std::uint32_t range = kNoRange;
    std::uint32_t cells = 0;  // first cell in cells_
  };
  /// The sorted positions from `first` on hold `priority`, down to the
  /// next run's first position.
  struct PriorityRun {
    std::uint32_t first = 0;
    int priority = 0;
  };
  /// One cross product of two earlier nodes (dimensions are nodes
  /// 0..dims-1, then products in order): cell a * classes_b + b.
  struct CrossProduct {
    std::uint32_t a = 0;
    std::uint32_t b = 0;
    std::uint32_t classes_b = 0;
    std::uint32_t cells = 0;  // first cell in cells_
  };
  /// One node the bitset root ANDs: class c's bitset is the words_ words
  /// at root_sets_[sets + c * words_].
  struct RootNode {
    std::size_t node = 0;
    std::size_t sets = 0;
  };

  void BuildTernary(std::span<const TableEntry> entries);
  void BuildRange(std::span<const TableEntry> entries);
  /// Compiles the planes into class tables and picks the root.
  void BuildClassTables();
  /// The one lookup walk behind FindBest and FindBatch: out[p] for rows
  /// p < n, where key_of(p, i) is row p's key field i as a 64-bit key, in
  /// chunks of kRows rows. A lone row walks with kRows = 1, so its passes
  /// compile to straight-line loads.
  template <std::size_t kRows, class KeyOf>
  void Walk(std::size_t n, KeyOf key_of, std::int32_t* out) const;
  /// Appends `count` all-zero plane rows; returns the first new row.
  std::uint32_t AddRows(std::size_t count);
  /// Rebuilds the arena from `words_of(pos)` for every position, storing
  /// each distinct slice once, and recomputes shared_ exactly.
  template <class WordsOf>
  void InternSlices(WordsOf words_of);
  /// Drops every slice no position references.
  void CompactArena();
  void RefreshFootprint();

  std::size_t words_ = 0;  // bitset words per row
  std::size_t num_entries_ = 0;
  std::vector<std::uint64_t> plane_;  // all bitset rows, row-major
  std::vector<NibbleChunk> chunks_;
  std::vector<RangeField> ranges_;
  /// Class tables; all three are empty with no key dimension.
  std::vector<std::uint16_t> cells_;
  std::vector<ClassDim> dims_;
  std::vector<CrossProduct> products_;
  /// The root: the last product's (or lone dimension's) cells hold sorted
  /// positions, or else the bitset root ANDs root_'s class bitsets.
  bool position_root_ = false;
  std::vector<RootNode> root_;
  std::vector<std::uint64_t> root_sets_;
  /// sorted position -> original entry index ((priority desc, idx asc)).
  std::vector<std::uint32_t> order_;
  /// original entry index -> sorted position (inverse of order_), so a
  /// delta patch addressed by entry index finds its bitset column in O(1).
  std::vector<std::uint32_t> pos_of_;
  /// One run per distinct priority, by ascending first position: sorting
  /// makes priorities monotone over positions.
  std::vector<PriorityRun> priorities_;
  /// Distinct action-data slices, and each sorted position's slice.
  std::vector<std::int32_t> arena_;
  std::vector<Slice> slices_;
  std::size_t min_words_ = ~std::size_t{0};  // see MinActionWords
  /// True for every position whose slice another position may also
  /// reference (exact after a build or compaction, conservative after a
  /// delta); ApplyDelta rewrites a slice in place only when this is false.
  std::vector<bool> shared_;
  /// Sum of the entries' action words: the arena's size cap.
  std::size_t arena_budget_ = 0;
  MatchIndexStats stats_;
};

}  // namespace pegasus::dataplane
