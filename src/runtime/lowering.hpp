// Lowering a CompiledModel onto the PISA pipeline simulator — the role the
// paper's Pegasus-Syntax-to-P4 translator plays on the real switch (§6.2).
//
// Correspondence (Figure 4):
//   Partition  -> key-field selection (free: PHV aliasing)
//   Map        -> one TCAM table per Map op; entries are the clustering-
//                 tree leaf hyperrectangles expanded to ternary rules via
//                 Consecutive Range Coding; action data = the leaf's
//                 precomputed output words
//   SumReduce  -> AddFromData action ops executed by the contributing Map
//                 tables against a shared accumulator field (initialized to
//                 the accumulator's bias at parse time)
//   Concat     -> PHV aliasing (free)
//
// The lowering preserves the CompiledModel's evaluation semantics exactly:
// same clamping, same saturating-add order. LoweredModel::InferRaw and
// CompiledModel::EvaluateRaw are bit-identical (asserted by integration
// tests).
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/tablegen.hpp"
#include "dataplane/pipeline.hpp"

namespace pegasus::runtime {

struct LoweringOptions {
  dataplane::SwitchModel switch_model;
  /// Extra per-flow stateful bits the application needs (previous-packet
  /// timestamp, stored fuzzy indexes, ...). Reported, not simulated.
  std::size_t stateful_bits_per_flow = 0;
  /// When a Map's CRC cross-product expansion would exceed this many
  /// ternary entries, the table is lowered as a native range match
  /// (DirtCAM encoding) with one entry per leaf instead — the same
  /// escape hatch the Tofino compiler offers for wide multi-field ranges.
  std::size_t max_ternary_entries_per_table = 4096;
};

class InferenceEngine;

/// One lowered leaf of a Map table: CRC per-dimension rule lists, the
/// domain-clipped box, and the action-data words. Unreachable leaves
/// (clipped empty) are omitted entirely — they expand to zero entries.
struct LoweredLeaf {
  std::size_t leaf = 0;  // ClusterTree leaf index
  std::vector<std::vector<dataplane::TernaryRule>> per_dim;
  std::vector<std::uint64_t> lo, hi;
  std::vector<std::int64_t> data;
  std::size_t expansion = 1;  // ternary cross-product entry count
};

/// The complete entry lowering of one Map op — the single source of truth
/// shared by Lower(), the UpdatePlanner's patch / push-sequence emission,
/// and the p4gen conformance path, so all three agree on entry order,
/// match kind and per-leaf entry spans by construction.
struct TableLowering {
  std::string name;        // "map_<op index>"
  bool use_range = false;  // range fallback vs CRC-expanded ternary
  std::size_t total_ternary_entries = 0;
  std::vector<LoweredLeaf> leaves;
  /// entry_first[i] = table entry index of leaves[i]'s first expanded
  /// entry; has leaves.size()+1 slots (back() == num_entries).
  std::vector<std::size_t> entry_first;
  std::size_t num_entries = 0;
  std::vector<int> key_widths;  // per key dim: quantized domain_bits
};

/// Lowers Map op `op_index`'s entries (leaf expansion + range/ternary
/// decision) without building a table. `model.tables()[op_index]` must be
/// populated.
TableLowering LowerMapEntries(const core::CompiledModel& model,
                              std::size_t op_index,
                              std::size_t max_ternary_entries_per_table);

/// Appends one lowered leaf's entries (odometer cross-product order for
/// ternary, a single entry for range) to `out`.
void AppendLeafEntries(const TableLowering& tl, const LoweredLeaf& leaf,
                       std::vector<dataplane::TableEntry>& out);

/// A full-table entry install as a control plane would push it over the
/// wire: table name plus ready-to-install entries.
struct TableEntryPush {
  std::string table;
  dataplane::MatchKind kind = dataplane::MatchKind::kTernary;
  std::vector<dataplane::TableEntry> entries;
};

class LoweredModel;
namespace detail {
/// Shared body of Lower / LowerFromPush (pushes == nullptr regenerates
/// entries from tablegen).
LoweredModel LowerImpl(const core::CompiledModel& model,
                       const LoweringOptions& options,
                       const TableEntryPush* pushes, std::size_t num_pushes);
}  // namespace detail

/// A model placed on the simulated switch.
///
/// Per-call Infer/InferRaw are implemented on top of a lazily created
/// single-packet InferenceEngine (see runtime/inference_engine.hpp), so they
/// are allocation-free on the hot path but NOT thread-safe; for concurrent
/// or high-throughput use, construct one InferenceEngine per thread.
class LoweredModel {
 public:
  LoweredModel();
  ~LoweredModel();
  LoweredModel(LoweredModel&& other) noexcept;
  LoweredModel& operator=(LoweredModel&& other) noexcept;

  /// Runs one inference: writes features into the parser-stage PHV fields,
  /// processes the pipeline, reads back the output fields. Returns
  /// dequantized outputs.
  std::vector<float> Infer(std::span<const float> features) const;

  /// Raw fixed-point outputs (for bit-exactness tests).
  std::vector<std::int64_t> InferRaw(std::span<const float> features) const;

  dataplane::ResourceReport Report() const;

  const dataplane::Pipeline& pipeline() const { return *pipeline_; }
  std::size_t NumTables() const { return pipeline_->NumTables(); }
  std::size_t StagesUsed() const { return pipeline_->StagesUsed(); }

  // Execution-surface accessors (the seam the batched InferenceEngine is
  // built on).
  const dataplane::PhvLayout& layout() const { return *layout_; }
  const std::vector<dataplane::FieldId>& input_fields() const {
    return input_fields_;
  }
  const std::vector<dataplane::FieldId>& output_fields() const {
    return output_fields_;
  }
  /// (field, value) pairs the parser writes before the pipeline runs
  /// (accumulator biases).
  const std::vector<std::pair<dataplane::FieldId, std::int64_t>>&
  parser_inits() const {
    return parser_inits_;
  }
  const std::vector<core::DimQuant>& output_quant() const {
    return output_quant_;
  }
  int input_bits() const { return input_bits_; }
  std::size_t InputDim() const { return input_fields_.size(); }
  std::size_t OutputDim() const { return output_fields_.size(); }

  /// Deep copy preserving placement and every compiled match index (no
  /// re-lowering, no index recompilation). The clone half of the
  /// clone→patch→publish O(delta) update path.
  LoweredModel Clone() const;

  /// Applies per-table entry deltas in place (see Pipeline::ApplyDelta).
  /// Tables stay sealed throughout; the pipeline generation moves, so this
  /// must run BEFORE any InferenceEngine is built over this model — i.e.
  /// on a private Clone(), never on a model already being served. Returns
  /// control-plane bytes pushed.
  std::size_t ApplyDelta(std::span<const dataplane::TablePatch> patches);

 private:
  friend LoweredModel detail::LowerImpl(const core::CompiledModel& model,
                                        const LoweringOptions& options,
                                        const TableEntryPush* pushes,
                                        std::size_t num_pushes);

  std::unique_ptr<dataplane::PhvLayout> layout_;
  std::unique_ptr<dataplane::Pipeline> pipeline_;
  std::vector<dataplane::FieldId> input_fields_;
  std::vector<dataplane::FieldId> output_fields_;
  std::vector<std::pair<dataplane::FieldId, std::int64_t>> parser_inits_;
  std::vector<core::DimQuant> output_quant_;
  int input_bits_ = 8;
  /// Lazy single-packet engine backing Infer/InferRaw. Dropped on move (it
  /// holds a pointer back to this object) and rebuilt on next use.
  mutable std::unique_ptr<InferenceEngine> scratch_;
};

/// Places every Map table of `model` onto the simulated switch.
/// Throws dataplane::PlacementError if the model does not fit — the
/// simulator's rendition of a Tofino compile failure — and
/// std::invalid_argument when any value it would serve can leave the PHV
/// value domain: input_bits above 30, a parser init or an action word
/// outside it. So every LoweredModel can be served.
LoweredModel Lower(const core::CompiledModel& model,
                   const LoweringOptions& options);

/// Lower variant that installs table entries from a control-plane push
/// sequence instead of regenerating them from tablegen — the replay half
/// of the P4 export conformance test: `EmitP4` + the planner's push
/// sequence must reproduce the served artifact exactly. Layout, action
/// programs and placement are built identically to Lower(); every Map
/// table's entries come from the matching push (throws
/// std::invalid_argument when a table's push is missing or its match kind
/// disagrees with the lowering's ternary/range decision).
LoweredModel LowerFromPush(const core::CompiledModel& model,
                           const LoweringOptions& options,
                           std::span<const TableEntryPush> pushes);

}  // namespace pegasus::runtime
