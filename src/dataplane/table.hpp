// Match-action tables — the MAT abstraction of §2 and Figure 4.
//
// A table matches a tuple of PHV fields (ternary or range, in TCAM) and
// executes a small declarative action program on hit: write or
// accumulate action-data words into PHV fields. This is exactly the shape
// Pegasus needs: a Map primitive is a lookup whose action data holds the
// precomputed f(centroid) vector, and SumReduce rides along as AddFromData
// ops (Figure 4's "Correspondence between the MAT abstraction and
// primitives").
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dataplane/crc.hpp"
#include "dataplane/match_index.hpp"
#include "dataplane/phv.hpp"

namespace pegasus::dataplane {

// kTernary lives in TCAM (value+mask planes); kRange is native range
// matching via 4-bit-nibble DirtCAM encoding (as on Tofino): one entry per
// hyperrectangle, but each key bit costs 4 TCAM bits instead of 2. The
// Pegasus lowering prefers CRC-expanded ternary entries and falls back to
// range matching when the cross-product expansion of a wide-key table
// would explode (e.g. RNN step tables keyed on the hidden state).
enum class MatchKind { kTernary, kRange };

/// One step of an action program. Every op computes in the PHV value
/// domain (dataplane/phv.hpp) and clamps its result into [lo, hi]:
/// [0, sat_max] for a saturating op, the domain itself otherwise. Operands
/// and results both lie in the domain, so an op never overflows.
struct ActionOp {
  enum class Kind {
    kSetConst,     // target = imm
    kAddConst,     // target += imm
    kSetFromData,  // target = action_data[data_index]
    kAddFromData,  // target += action_data[data_index]
  };
  Kind kind = Kind::kSetConst;
  FieldId target = 0;
  std::size_t data_index = 0;
  /// Must lie in the value domain; the table constructor (or
  /// SetMissProgram) throws std::invalid_argument otherwise.
  std::int64_t imm = 0;
  /// When >= 0, the result is saturated into [0, sat_max] after the op —
  /// PISA ALUs perform saturating adds, and Pegasus accumulators rely on it
  /// to stay inside their match domain. At most kValueMax (checked where
  /// imm is). When < 0 the result clamps into the value domain.
  std::int64_t sat_max = -1;
};

/// A table entry: the match (per-field ternary rules or range bounds), a
/// priority (higher wins), and the action-data words consumed by the
/// table's action program. The words keep int64 as the control-plane type,
/// but each must lie in the PHV value domain: AddEntry and ApplyDelta throw
/// std::invalid_argument otherwise.
struct TableEntry {
  std::vector<TernaryRule> ternary;           // kTernary, one per key field
  std::vector<std::uint64_t> range_lo;        // kRange, inclusive per field
  std::vector<std::uint64_t> range_hi;        // kRange
  int priority = 0;
  std::vector<std::int64_t> action_data;
};

/// New action words for one installed entry — the dataplane unit of an
/// O(delta) model push, which (as on the switch) modifies action data and
/// never moves a rule. Addressed by original entry index; the match and
/// priority name the entry, as a MODIFY names it by key, so both must
/// repeat it: the match must select exactly the keys the entry selects
/// (value bits outside a ternary mask are free) and the priority must be
/// the entry's. The action data must keep its word count (it bounds the
/// index's action arena). Anything else is a reseal.
struct EntryPatch {
  std::size_t entry_index = 0;
  std::vector<TernaryRule> ternary;     // kTernary, one per key field
  std::vector<std::uint64_t> range_lo;  // kRange, inclusive per field
  std::vector<std::uint64_t> range_hi;  // kRange
  int priority = 0;
  std::vector<std::int64_t> action_data;
};

/// A single match-action table.
class MatchActionTable {
 public:
  /// Throws std::invalid_argument on a key width count mismatch, a bad
  /// word width, or an op whose imm or sat_max leaves the value domain.
  MatchActionTable(std::string name, MatchKind kind,
                   std::vector<FieldId> key_fields,
                   std::vector<int> key_widths,
                   std::vector<ActionOp> action_program,
                   int action_data_word_bits);

  const std::string& name() const { return name_; }
  MatchKind kind() const { return kind_; }

  /// Adds an entry to an unsealed table. Throws std::invalid_argument,
  /// changing nothing, on an arity mismatch or an action word outside the
  /// value domain, and std::logic_error, changing nothing, once sealed.
  void AddEntry(TableEntry entry);
  std::size_t NumEntries() const { return num_entries_; }

  // ---- build/sealed lifecycle -----------------------------------------
  //
  // A table is *unsealed* while entries load and *sealed* while serving.
  // Seal() compiles the MatchIndex (dataplane/match_index.hpp) and frees
  // the entry list: a sealed table holds only its index, its compiled hit
  // and miss programs (with the miss data) and the counts Report() needs.
  // From then on it changes only by action-word deltas (ApplyDelta) and
  // SetMissProgram. An unsealed table serves by a linear scan of its
  // entries, the reference the index is tested against.
  // Pipeline::PlaceTable seals every table it places.

  /// Compiles the match index and frees the entries (idempotent).
  void Seal();
  bool sealed() const { return index_ != nullptr; }
  /// Monotonic generation counter: bumped by every mutation (AddEntry,
  /// ApplyDelta, SetMissProgram) and by the first Seal(). Snapshot it when
  /// handing the table to a long-lived reader — a changed generation means
  /// the reader's view is stale. Pipeline::Generation() aggregates it.
  std::uint64_t generation() const { return generation_; }
  /// Build/footprint stats of the compiled index; nullptr when unsealed.
  const MatchIndexStats* index_stats() const {
    return index_ ? &index_->stats() : nullptr;
  }

  /// Writes new action words into installed entries of a sealed table.
  /// All patches are validated up front (see ValidateDelta); on any
  /// failure the table is left byte-identical and the exception propagates
  /// — the caller falls back to a full reseal. On success the index's
  /// action slices are rewritten and generation() bumps once, so lookups
  /// never see a torn state. Returns the control-plane bytes the push
  /// writes (action-data words + value/mask match words per patch).
  std::size_t ApplyDelta(std::span<const EntryPatch> patches);

  /// The validation half of ApplyDelta, without the mutation. Throws
  /// std::logic_error on an unsealed table, and std::invalid_argument on
  /// the first patch with an entry index out of range, a wrong arity, a
  /// resized or out-of-domain action word, a changed priority, or a match
  /// that does not select exactly the entry's keys. Lets a caller
  /// pre-validate a multi-table delta so the whole push is atomic.
  void ValidateDelta(std::span<const EntryPatch> patches) const;

  /// Deep copy: the compiled match index (a memcpy-level copy, no
  /// recompilation), the programs and the counts — and, while unsealed,
  /// the entries. The foundation of clone→patch→publish updates.
  std::unique_ptr<MatchActionTable> Clone() const;

  /// Default action program executed on miss (empty = no-op); compiled
  /// into runs here, as the hit program is at construction. Throws
  /// std::invalid_argument, changing nothing, when an op or a data word
  /// leaves the value domain.
  void SetMissProgram(std::vector<ActionOp> ops,
                      std::vector<std::int64_t> data);

  /// Looks up the PHV and applies the hit (or miss) action program.
  /// Returns true on hit. Sealed, it is ApplyBatch over a one-row batch,
  /// checks included: before writing any field it throws std::out_of_range
  /// when a key field or either program's target lies past the PHV, or
  /// when the hit program reads past the index's shortest action slice or
  /// the miss program past the miss data, whether this PHV hits or misses.
  /// Unsealed, it scans the entries and checks only the program it runs,
  /// against the matched entry's (or the miss) action data, also throwing
  /// std::out_of_range before any write.
  bool Apply(Phv& phv) const;

  /// Batch counterpart of Apply with identical per-packet results. Sealed,
  /// it checks the bounds once per batch, before any write: the index's
  /// shortest action slice and the miss data against the programs' highest
  /// data index, then every PHV against the highest key and target field
  /// (std::out_of_range, as Apply). Then, per chunk of up to
  /// MatchIndex::kBatchRows PHVs, one MatchIndex::FindBatch walk reads the
  /// keys straight off the PHVs' int32 words, and each PHV's hit (or miss)
  /// program runs in order, as the compiled runs' straight int32 loops
  /// over its contiguous fields, lookup then act per packet. A sealed
  /// Apply is this call on one PHV. Unsealed, it calls Apply on each
  /// packet in turn. Returns the number of hits.
  std::size_t ApplyBatch(std::span<Phv> batch) const;

  /// Index of the matching entry, if any (for tests/debugging).
  std::optional<std::size_t> Lookup(const Phv& phv) const;

  // ---- resource accounting -------------------------------------------
  std::size_t KeyBits() const;
  /// Bits of action data fetched per lookup (drives the action bus column).
  std::size_t ActionDataBits() const;
  /// SRAM bits: every entry's action data (the match lives in TCAM).
  std::size_t SramBits() const;
  /// TCAM bits: value+mask per key bit per entry (ternary), or the DirtCAM
  /// nibble encoding (range).
  std::size_t TcamBits() const;

 private:

  /// An action program compiled into runs: maximal stretches of
  /// consecutive same-kind ops whose target field steps by one (and, for
  /// the *FromData kinds, whose data index steps by one too). A lowered
  /// Map program — one op per output word — is a single run. Every op
  /// keeps its own int32 clamp bounds: [0, sat_max], or the value domain
  /// when sat_max < 0. With every operand in the domain, a run is a plain
  /// int32 add-and-clamp loop that the compiler vectorizes.
  struct ActionRuns {
    struct Run {
      ActionOp::Kind kind = ActionOp::Kind::kSetConst;
      std::size_t target = 0;      // first target field
      std::size_t data_index = 0;  // first data word (*FromData kinds)
      std::size_t first_op = 0;    // first op's slot in imm/lo/hi
      std::size_t len = 0;
    };
    std::vector<Run> runs;
    /// Per op, in program order. kSetConst immediates are pre-clamped.
    std::vector<std::int32_t> imm, lo, hi;
    std::size_t fields_needed = 0;  // highest target field + 1, or 0
    std::size_t words_needed = 0;   // highest data index read + 1, or 0

    /// Throws std::invalid_argument (naming `table`) for an imm outside
    /// the value domain or a sat_max above kValueMax.
    static ActionRuns Compile(const std::string& table,
                              const std::vector<ActionOp>& ops);
    /// Runs every op on `fields` with `data`, unchecked: the caller has
    /// checked fields_needed and words_needed.
    void Execute(std::int32_t* fields, const std::int32_t* data) const;
  };
  /// Checks the whole program against the PHV and `data` once (throwing
  /// std::out_of_range before any write), then executes its runs.
  void RunProgram(Phv& phv, const ActionRuns& program,
                  std::span<const std::int32_t> data) const;
  /// The unsealed table's linear scan over its entries: the reference the
  /// indexed path is property-tested against.
  std::optional<std::size_t> LinearLookup(const std::uint64_t* key) const;
  /// The sealed index's answer for one PHV, read off its fields by the
  /// batch walk over one row: a MatchIndex sorted position (kMiss on
  /// miss). Throws std::out_of_range when a key field lies past the PHV.
  std::int32_t FindRow(const Phv& phv) const;

  std::string name_;
  MatchKind kind_;
  std::vector<FieldId> key_fields_;
  std::vector<int> key_widths_;
  std::size_t key_fields_needed_ = 0;  // highest key field + 1, or 0
  ActionRuns hit_program_;
  int action_data_word_bits_;
  std::vector<TableEntry> entries_;  // the build form; Seal() frees it
  std::size_t num_entries_ = 0;
  std::size_t max_action_words_ = 0;  // widest entry's action data
  ActionRuns miss_program_;
  std::vector<std::int32_t> miss_data_;
  std::uint64_t generation_ = 0;
  std::unique_ptr<MatchIndex> index_;  // the serving form; set by Seal()
};

}  // namespace pegasus::dataplane
