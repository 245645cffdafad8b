// Match-action tables — the MAT abstraction of §2 and Figure 4.
//
// A table matches a tuple of PHV fields (exact in SRAM or ternary in TCAM)
// and executes a small declarative action program on hit: write or
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
#include <unordered_map>
#include <vector>

#include "dataplane/crc.hpp"
#include "dataplane/match_index.hpp"
#include "dataplane/phv.hpp"

namespace pegasus::dataplane {

// kExact lives in SRAM; kTernary in TCAM (value+mask planes); kRange is
// native range matching via 4-bit-nibble DirtCAM encoding (as on Tofino):
// one entry per hyperrectangle, but each key bit costs 4 TCAM bits instead
// of 2. The Pegasus lowering prefers CRC-expanded ternary entries and falls
// back to range matching when the cross-product expansion of a wide-key
// table would explode (e.g. RNN step tables keyed on the hidden state).
enum class MatchKind { kExact, kTernary, kRange };

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

/// A table entry: the match (exact key or per-field ternary rules), a
/// priority (ternary only; higher wins), and the action-data words consumed
/// by the table's action program. The words keep int64 as the control-plane
/// type, but each must lie in the PHV value domain: AddEntry and
/// ApplyDelta throw std::invalid_argument otherwise.
struct TableEntry {
  std::vector<std::uint64_t> exact_key;       // kExact
  std::vector<TernaryRule> ternary;           // kTernary, one per key field
  std::vector<std::uint64_t> range_lo;        // kRange, inclusive per field
  std::vector<std::uint64_t> range_hi;        // kRange
  int priority = 0;
  std::vector<std::int64_t> action_data;
};

/// An in-place update to one existing entry — the dataplane unit of an
/// O(delta) model push. Addressed by original entry index; the match and
/// priority ride along for validation: priority must not change (it pins
/// the entry's sorted position in the compiled index) and the action data
/// must keep its word count (it bounds the index's action arena). The
/// match may change only within what the compiled planes can absorb — see
/// MatchIndex::CanAbsorb.
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

  /// Adds an entry. Invalidates a previously sealed match index; call
  /// Seal() again before serving traffic to restore the indexed path.
  /// Throws std::invalid_argument, changing nothing, on an arity mismatch
  /// or an action word outside the value domain.
  void AddEntry(TableEntry entry);
  std::size_t NumEntries() const { return entries_.size(); }

  // ---- sealed/mutable lifecycle ---------------------------------------
  //
  // A table is *mutable* while entries are loaded and *sealed* while
  // serving. Seal() compiles the bit-vector MatchIndex for ternary/range
  // tables (see dataplane/match_index.hpp) so Apply/ApplyBatch/Lookup run
  // word-parallel bitset ANDs instead of a linear entry scan. Tables below
  // kIndexMinEntries seal without an index — the scan is already cheaper
  // than two bitset probes there. Pipeline::PlaceTable seals automatically,
  // so every compiled/lowered model serves from the indexed path.

  /// Entry count below which Seal() keeps the linear scan.
  static constexpr std::size_t kIndexMinEntries = 8;

  /// Compiles the match index (idempotent). Exact tables seal trivially —
  /// their hash index is maintained incrementally by AddEntry.
  void Seal();
  bool sealed() const { return sealed_; }
  /// True when a previously sealed table was mutated and not re-sealed —
  /// the use-after-invalidate hazard window. A live InferenceEngine holding
  /// the pipeline would silently serve the linear fallback here, so the
  /// serving paths (Apply/ApplyBatch) assert !invalidated() in debug
  /// builds; Lookup stays usable as the linear-scan oracle for tests.
  bool invalidated() const { return ever_sealed_ && !sealed_; }
  /// Monotonic generation counter: bumped by every mutation (AddEntry,
  /// SetMissProgram) and every (non-idempotent) Seal(). Snapshot it when
  /// handing the table to a long-lived reader — a changed generation means
  /// the reader's view is stale. Pipeline::Generation() aggregates it.
  std::uint64_t generation() const { return generation_; }
  /// Build/footprint stats of the compiled index; nullptr when the table
  /// is unsealed, exact, or too small to index.
  const MatchIndexStats* index_stats() const {
    return index_ ? &index_->stats() : nullptr;
  }

  /// Applies in-place entry patches without invalidating the seal. All
  /// patches are validated up front (index range, arity, data size and
  /// domain, priority, absorbable by the compiled index); on any failure
  /// the table is left byte-identical and std::invalid_argument is thrown —
  /// the caller falls back to a full reseal. On success entries and index are
  /// patched together and generation() bumps once, so the table never
  /// passes through invalidated() and lookups never see a torn state.
  /// Returns the control-plane bytes the push writes (action-data words +
  /// value/mask match words per patch).
  std::size_t ApplyDelta(std::span<const EntryPatch> patches);

  /// The validation half of ApplyDelta, without the mutation — throws
  /// std::invalid_argument on the first unabsorbable patch. Lets a caller
  /// pre-validate a multi-table delta so the whole push is atomic.
  void ValidateDelta(std::span<const EntryPatch> patches) const;

  /// Deep copy, including the compiled match index (a memcpy-level copy —
  /// no recompilation). The foundation of clone→patch→publish updates.
  std::unique_ptr<MatchActionTable> Clone() const;

  /// Default action program executed on miss (empty = no-op); compiled
  /// into runs here, as the hit program is at construction. Throws
  /// std::invalid_argument, changing nothing, when an op or a data word
  /// leaves the value domain.
  void SetMissProgram(std::vector<ActionOp> ops,
                      std::vector<std::int64_t> data);

  /// Looks up the PHV and applies the hit (or miss) action program.
  /// Returns true on hit. Throws std::out_of_range, before writing any
  /// field, when the program targets a field past the PHV or reads a data
  /// word past the matched entry's (or the miss) action data.
  bool Apply(Phv& phv) const;

  /// Batch counterpart of Apply with identical per-packet results:
  /// gathers every packet's key once, then looks each packet up — one
  /// MatchIndex probe when sealed, else an entry-major scan that streams
  /// each entry's rules across the whole batch. Actions run after the
  /// lookups, exactly the lookup-then-act order of Apply, as the compiled
  /// runs' straight int32 loops over each PHV's contiguous fields. When
  /// sealed, the bounds are checked once per batch, before any write:
  /// every PHV against the highest key and target field, the index's
  /// shortest action slice and the miss data against the programs' highest
  /// data index (std::out_of_range, as Apply). Returns the number of hits.
  std::size_t ApplyBatch(std::span<Phv> batch) const;

  /// Index of the matching entry, if any (for tests/debugging).
  std::optional<std::size_t> Lookup(const Phv& phv) const;

  /// Test-only: truncates the exact-match hash to `bits` so collisions are
  /// reproducible (verifies the chained index resolves them). Must be
  /// called before the first AddEntry.
  void SetExactHashBitsForTest(int bits) {
    exact_hash_mask_ = bits >= 64 ? ~0ull : (1ull << bits) - 1;
  }

  // ---- resource accounting -------------------------------------------
  std::size_t KeyBits() const;
  /// Bits of action data fetched per lookup (drives the action bus column).
  std::size_t ActionDataBits() const;
  /// SRAM bits: exact tables store key+data; ternary tables keep their
  /// action data in SRAM while the match lives in TCAM.
  std::size_t SramBits() const;
  /// TCAM bits: value+mask per key bit per entry (ternary only).
  std::size_t TcamBits() const;

 private:
  std::uint64_t ExactHash(const std::vector<std::uint64_t>& key) const;
  /// Same byte-for-byte hash, computed straight from the PHV key fields —
  /// no per-lookup key buffer is materialized.
  std::uint64_t ExactHashFromPhv(const Phv& phv) const;
  std::optional<std::size_t> ExactLookup(const Phv& phv) const;
  bool EntryMatches(const TableEntry& e, const Phv& phv) const;

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
  /// Linear-scan reference for ternary/range (unsealed fallback; also the
  /// oracle the indexed path is property-tested against).
  std::optional<std::size_t> LinearLookupTernary(
      const std::uint64_t* key) const;
  /// Gathers the PHV key fields and consults the compiled index; the
  /// returned value is a MatchIndex sorted position (kMiss on miss).
  std::int32_t IndexedFind(const Phv& phv) const;

  std::string name_;
  MatchKind kind_;
  std::vector<FieldId> key_fields_;
  std::vector<int> key_widths_;
  std::size_t key_fields_needed_ = 0;  // highest key field + 1, or 0
  ActionRuns hit_program_;
  int action_data_word_bits_;
  std::vector<TableEntry> entries_;
  ActionRuns miss_program_;
  std::vector<std::int32_t> miss_data_;
  // Exact-match index: hashed key -> chained entry indices. Chaining (not
  // last-write-wins) keeps distinct keys with colliding hashes reachable;
  // Lookup verifies the full key on every candidate.
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> exact_index_;
  std::uint64_t exact_hash_mask_ = ~0ull;
  // Compiled ternary/range index (sealed lifecycle).
  bool sealed_ = false;
  bool ever_sealed_ = false;
  std::uint64_t generation_ = 0;
  std::unique_ptr<MatchIndex> index_;
};

}  // namespace pegasus::dataplane
