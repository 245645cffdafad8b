// UpdatePlanner — staging a model push onto a running dataplane, and
// admission control for co-placing several models on one switch.
//
// PlanUpdate diffs two compiled versions table-by-table (the Map tables are
// the only reconfigurable switch state; Partition/Concat are PHV wiring and
// SumReduce rides contributor actions) and classifies every table:
//
//   kUnchanged   — same clustering-tree geometry, same quantization, same
//                  leaf output words: the switch agent pushes nothing.
//   kEntryDelta  — same geometry/quantization but some leaf outputs moved
//                  (the retrain-in-place case, e.g. §4.4 output refinement
//                  over fresh traffic): only the changed entries' action
//                  data is rewritten, no TCAM churn.
//   kReseal      — geometry or quantization changed: the table must be
//                  re-expanded, re-placed and re-sealed wholesale.
//
// The plan is costed in bytes-to-push so operators can see what a swap
// will move before committing it. StreamServer::SwapModel applies the new
// version atomically either way — the plan is the control-plane estimate
// of agent work and a regression guard (retraining that silently reshapes
// every table shows up as all-reseal).
//
// PlanCoPlacement admits multiple concurrent models (e.g. a traffic
// classifier plus an anomaly detector) against ONE SwitchModel budget by
// stacking them stage-sequentially and summing their PHV footprints; an
// over-subscribed budget is rejected with a structured AdmissionError
// naming the exhausted resource and the exact requested/available bits.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "compiler/compiler.hpp"
#include "runtime/lowering.hpp"

namespace pegasus::control {

enum class TableUpdateKind { kUnchanged, kEntryDelta, kReseal };

const char* TableUpdateKindName(TableUpdateKind kind);

/// Per-table staging decision of an UpdatePlan.
struct TableUpdate {
  /// Program op index of the Map this table realizes; the lowered table is
  /// named "map_<op_index>".
  std::size_t op_index = 0;
  std::string table;
  TableUpdateKind kind = TableUpdateKind::kUnchanged;
  std::size_t leaves_before = 0;
  std::size_t leaves_after = 0;
  /// Leaves whose output words moved (kEntryDelta only).
  std::size_t changed_leaves = 0;
  /// Bytes the switch agent must write for this table: for a delta, the
  /// changed entries' action-data words PLUS their value/mask match words
  /// (a MODIFY names its entry by key) — identical to what
  /// MatchActionTable::ApplyDelta reports pushing; for a reseal, the whole
  /// table.
  std::size_t bytes_to_push = 0;
  /// Concrete entry patches realizing a kEntryDelta, post-CRC-expansion
  /// and addressed by lowered entry index — exactly what
  /// StreamServer::SwapModelDelta / Pipeline::ApplyDelta consume. Built
  /// with the same shared expansion helper as Lower(), so entry indices
  /// line up with the served table and every patch repeats its entry's
  /// match and priority by construction.
  std::vector<dataplane::EntryPatch> patches;
};

struct UpdatePlan {
  std::uint64_t from_version = 0;
  std::uint64_t to_version = 0;
  /// The two versions' programs have different shapes (op count/kinds/dims
  /// or table sites) — every table reseals and per-site diffs are moot.
  bool structure_changed = false;
  std::vector<TableUpdate> tables;
  std::size_t unchanged = 0;
  std::size_t entry_delta = 0;
  std::size_t reseal = 0;
  std::size_t total_bytes_to_push = 0;
};

/// Diffs `from` -> `to`. Both artifacts must carry their CompiledModel
/// (CompileVersioned always does); throws std::invalid_argument otherwise.
UpdatePlan PlanUpdate(const compiler::VersionedModel& from,
                      const compiler::VersionedModel& to);

/// Renders the plan as the one-line-per-table report the lifecycle example
/// and bench print.
std::string FormatPlan(const UpdatePlan& plan);

/// Flattens a plan's kEntryDelta tables into per-table dataplane patches
/// for StreamServer::SwapModelDelta / Pipeline::ApplyDelta. Throws
/// std::invalid_argument when the plan contains a structure change or any
/// reseal — applying only the deltas of such a plan would serve a torn
/// model; the caller must take the full-swap path instead.
std::vector<dataplane::TablePatch> CollectPatches(const UpdatePlan& plan);

/// The full table-entry install sequence for `model` — what the switch
/// agent pushes after loading the p4gen program. Entry order matches the
/// served lowering exactly (same shared expansion helper); replaying it
/// through runtime::LowerFromPush reproduces the served artifact, which
/// the P4 conformance test asserts decision-for-decision.
std::vector<runtime::TableEntryPush> EmitPushSequence(
    const compiler::VersionedModel& model);

// ---------------------------------------------------------------------------
// Multi-model co-placement.
// ---------------------------------------------------------------------------

/// Thrown when a model set over-subscribes the switch. Structured so
/// callers can report (and tests can assert) exactly which budget broke.
class AdmissionError : public std::runtime_error {
 public:
  enum class Resource { kStages, kPhvBits, kSramBits, kTcamBits };

  AdmissionError(Resource resource, std::string model, std::size_t required,
                 std::size_t available);

  Resource resource() const { return resource_; }
  /// Name/version tag of the model whose admission failed.
  const std::string& model() const { return model_; }
  std::size_t required() const { return required_; }
  std::size_t available() const { return available_; }

 private:
  Resource resource_;
  std::string model_;
  std::size_t required_;
  std::size_t available_;
};

const char* AdmissionResourceName(AdmissionError::Resource r);

/// One admitted model's slice of the switch.
struct PlacementShare {
  std::string name;
  std::uint64_t version = 0;
  /// First pipeline stage assigned to this model; it occupies
  /// [stage_offset, stage_offset + stages_used).
  std::size_t stage_offset = 0;
  std::size_t stages_used = 0;
  std::size_t phv_bits = 0;
  dataplane::ResourceReport report;
};

/// The joint admission decision for a model set.
struct JointPlacement {
  std::vector<PlacementShare> models;
  std::size_t stages_used = 0;
  std::size_t phv_bits = 0;
  std::size_t sram_bits = 0;
  std::size_t tcam_bits = 0;
  std::size_t stateful_bits_per_flow = 0;
};

/// Admits `models` (in order) against one `budget`, stacking them
/// stage-sequentially: each model keeps the per-stage packing its own
/// lowering validated, shifted to start after its predecessor's last used
/// stage; the PHV is shared, so the models' header footprints add. Throws
/// AdmissionError on the first model that does not fit; throws
/// std::invalid_argument when a model was lowered against a *larger*
/// per-stage budget than `budget` offers (its per-stage packing would not
/// transfer).
JointPlacement PlanCoPlacement(
    const std::vector<const compiler::VersionedModel*>& models,
    const dataplane::SwitchModel& budget);

}  // namespace pegasus::control
