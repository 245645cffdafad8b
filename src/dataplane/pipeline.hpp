// The staged PISA pipeline: tables are placed into one of `num_stages`
// stages under per-stage SRAM/TCAM/action-bus budgets, and a packet's PHV
// traverses the stages in order. Placement failures are the simulator's
// rendition of "the model does not fit on the switch" — the scalability
// wall the paper's §2 motivates.
#pragma once

#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "dataplane/resources.hpp"
#include "dataplane/table.hpp"

namespace pegasus::dataplane {

/// Thrown when a table cannot be placed within the switch's resources.
class PlacementError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Patches addressed to one named table — the pipeline-level unit of an
/// O(delta) model push (UpdatePlanner emits one per kEntryDelta table).
struct TablePatch {
  std::string table;
  std::vector<EntryPatch> patches;
};

class Pipeline {
 public:
  explicit Pipeline(SwitchModel model = {});

  const SwitchModel& switch_model() const { return model_; }

  /// Places `table` in the first stage >= `min_stage` with room for its
  /// SRAM/TCAM footprint and action-bus demand. Returns the stage index.
  /// Throws PlacementError when no stage fits. Placement seals the table
  /// (compiling its match index and freeing its entries), so every placed
  /// table serves from its index.
  std::size_t PlaceTable(std::unique_ptr<MatchActionTable> table,
                         std::size_t min_stage);

  /// Declares per-flow stateful register usage (bits per flow). Stateful
  /// SRAM is accounted separately from table SRAM, as in Table 6's
  /// "Stateful bits/flow" column.
  void DeclareFlowState(std::size_t bits_per_flow) {
    stateful_bits_per_flow_ += bits_per_flow;
  }

  /// Runs a batch of independent PHVs through every placed table in stage
  /// order, table-major so each table's index stays hot in cache across
  /// the whole batch. Packets never interact: a PHV's fields after the call
  /// do not depend on the rest of the batch. Returns total table hits
  /// across the batch.
  std::size_t ProcessBatch(std::span<Phv> batch) const;

  ResourceReport Report() const;

  std::size_t NumTables() const;
  std::size_t StagesUsed() const;

  /// Sum of the placed tables' generation counters — a cheap version stamp
  /// of the whole dataplane program. A long-lived reader (InferenceEngine)
  /// snapshots it at construction and checks it unchanged before every
  /// chunk, in every build: a delta or miss-program change on a placed
  /// table moves the stamp, so an engine that would serve a stale view
  /// throws std::logic_error instead.
  std::uint64_t Generation() const;

  /// Aggregate match-index build stats across all placed tables.
  struct IndexReport {
    std::size_t indexed_tables = 0;
    /// Indexed tables whose class tables end in the bitset root (the rest
    /// end in a position root; see MatchIndexStats::root_nodes).
    std::size_t bitset_root_tables = 0;
    std::size_t intervals = 0;
    std::size_t nibble_chunks = 0;
    std::size_t class_cells = 0;
    std::size_t bytes = 0;
    double build_ms = 0.0;
    // O(delta) update counters (see MatchIndexStats).
    std::uint64_t deltas_applied = 0;
    std::uint64_t leaf_words_patched = 0;
    std::uint64_t reseals_avoided = 0;
    std::uint64_t delta_apply_ns = 0;
  };
  IndexReport MatchIndexReport() const;

  /// Writes per-table action-word deltas in place, by table name. No
  /// placed index is rebuilt; each patched table's generation bumps once.
  /// Throws std::invalid_argument on an unknown table or a patch its table
  /// rejects (see MatchActionTable::ValidateDelta) — validation of every
  /// table runs before any mutation, so a throwing call leaves the
  /// pipeline byte-identical. Returns total control-plane bytes pushed.
  std::size_t ApplyDelta(std::span<const TablePatch> patches);

  /// Deep copy preserving placement, budgets and every compiled index (no
  /// recompilation) — the O(entries-copied), not O(rebuild), half of the
  /// clone→patch→publish update path.
  std::unique_ptr<Pipeline> Clone() const;

 private:
  struct Stage {
    std::vector<std::unique_ptr<MatchActionTable>> tables;
    std::size_t sram_bits = 0;
    std::size_t tcam_bits = 0;
    std::size_t action_bus_bits = 0;
  };

  SwitchModel model_;
  std::vector<Stage> stages_;
  std::size_t stateful_bits_per_flow_ = 0;
};

}  // namespace pegasus::dataplane
