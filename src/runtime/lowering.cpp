#include "runtime/lowering.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_map>

#include "runtime/inference_engine.hpp"

namespace pegasus::runtime {

namespace {

using core::DimQuant;
using core::Op;
using core::OpKind;
using core::ValueId;
using dataplane::ActionOp;
using dataplane::FieldId;
using dataplane::MatchActionTable;
using dataplane::MatchKind;
using dataplane::TableEntry;
using dataplane::TernaryRule;

}  // namespace

TableLowering LowerMapEntries(const core::CompiledModel& model,
                              std::size_t op_index,
                              std::size_t max_ternary_entries_per_table) {
  const core::Program& p = model.program();
  const auto& quant = model.quant();
  const auto& ops = p.ops();
  const Op& op = ops[op_index];
  if (op.kind != OpKind::kMap || !model.tables()[op_index]) {
    throw std::invalid_argument("LowerMapEntries: op " +
                                std::to_string(op_index) +
                                " is not a tabled Map");
  }
  const core::FuzzyMapTable& fuzzy = *model.tables()[op_index];
  const ValueId in_v = op.map.input;
  const ValueId t = op.map.output;
  bool to_sum = false;
  for (const Op& o : ops) {
    if (o.kind != OpKind::kSumReduce) continue;
    for (ValueId v : o.sum_reduce.inputs) {
      if (v == t) to_sum = true;
    }
  }
  const std::size_t id = p.value(in_v).dim;
  const std::size_t od = p.value(t).dim;
  const auto& tq = quant[t];

  TableLowering tl;
  tl.name = "map_" + std::to_string(op_index);
  for (std::size_t d = 0; d < id; ++d) {
    tl.key_widths.push_back(quant[in_v][d].domain_bits);
  }
  for (std::size_t leaf = 0; leaf < fuzzy.tree.NumLeaves(); ++leaf) {
    const core::LeafBox& box = fuzzy.tree.Box(leaf);
    LoweredLeaf ll;
    ll.leaf = leaf;
    ll.per_dim.resize(id);
    ll.lo.resize(id);
    ll.hi.resize(id);
    bool reachable = true;
    std::size_t expansion = 1;
    for (std::size_t d = 0; d < id; ++d) {
      const auto dmax =
          static_cast<std::uint64_t>(quant[in_v][d].DomainMax());
      const std::uint64_t lo = box.lo[d];
      const std::uint64_t hi = std::min<std::uint64_t>(box.hi[d], dmax);
      if (lo > hi) {
        reachable = false;
        break;
      }
      ll.lo[d] = lo;
      ll.hi[d] = hi;
      ll.per_dim[d] =
          dataplane::RangeToTernary(lo, hi, quant[in_v][d].domain_bits);
      expansion *= ll.per_dim[d].size();
    }
    if (!reachable) continue;  // clipped empty: expands to no entries
    ll.data.resize(od);
    for (std::size_t d = 0; d < od; ++d) {
      std::int64_t word = fuzzy.leaf_raw[leaf][d];
      if (!to_sum) {
        // Materialized outputs are stored pre-biased (u domain).
        word = std::clamp<std::int64_t>(word + tq[d].bias, 0,
                                        tq[d].DomainMax());
      }
      ll.data[d] = word;
    }
    ll.expansion = expansion;
    tl.total_ternary_entries += expansion;
    tl.leaves.push_back(std::move(ll));
  }
  tl.use_range = tl.total_ternary_entries > max_ternary_entries_per_table;
  tl.entry_first.resize(tl.leaves.size() + 1, 0);
  for (std::size_t i = 0; i < tl.leaves.size(); ++i) {
    tl.entry_first[i + 1] =
        tl.entry_first[i] + (tl.use_range ? 1 : tl.leaves[i].expansion);
  }
  tl.num_entries = tl.entry_first.back();
  return tl;
}

void AppendLeafEntries(const TableLowering& tl, const LoweredLeaf& leaf,
                       std::vector<TableEntry>& out) {
  if (tl.use_range) {
    TableEntry entry;
    entry.range_lo = leaf.lo;
    entry.range_hi = leaf.hi;
    entry.action_data = leaf.data;
    out.push_back(std::move(entry));
    return;
  }
  // Cross-product expansion of the per-dimension CRC rule lists, odometer
  // order (dim 0 fastest) — entry order is part of the push-sequence ABI.
  std::vector<std::size_t> idx(leaf.per_dim.size(), 0);
  while (true) {
    TableEntry entry;
    entry.ternary.reserve(leaf.per_dim.size());
    for (std::size_t d = 0; d < leaf.per_dim.size(); ++d) {
      entry.ternary.push_back(leaf.per_dim[d][idx[d]]);
    }
    entry.action_data = leaf.data;
    out.push_back(std::move(entry));
    std::size_t d = 0;
    while (d < leaf.per_dim.size()) {
      if (++idx[d] < leaf.per_dim[d].size()) break;
      idx[d] = 0;
      ++d;
    }
    if (d == leaf.per_dim.size()) break;
  }
}

namespace detail {

LoweredModel LowerImpl(const core::CompiledModel& model,
                       const LoweringOptions& options,
                       const TableEntryPush* pushes,
                       std::size_t num_pushes) {
  const core::Program& p = model.program();
  const auto& quant = model.quant();
  const auto& ops = p.ops();

  // Every value a lowered model serves must lie in the PHV value domain:
  // inputs clamp into [0, 2^input_bits), parser inits are written as is,
  // and table words are checked as entries are added.
  if (model.options().input_bits > 30) {
    throw std::invalid_argument(
        "Lower: input_bits above 30 leave the PHV value domain");
  }
  LoweredModel lowered;
  lowered.layout_ = std::make_unique<dataplane::PhvLayout>();
  lowered.input_bits_ = model.options().input_bits;

  // Consumer analysis: which Map outputs feed a SumReduce, and which
  // SumReduce consumes them.
  std::vector<int> sum_consumer(p.NumValues(), -1);
  for (std::size_t oi = 0; oi < ops.size(); ++oi) {
    if (ops[oi].kind != OpKind::kSumReduce) continue;
    for (ValueId v : ops[oi].sum_reduce.inputs) {
      sum_consumer[v] = static_cast<int>(oi);
    }
  }

  // ------------------------------------------------------------------
  // Field assignment. fields[v] = one FieldId per dim; SumReduce
  // contributors get no fields (their data is accumulated directly).
  // ------------------------------------------------------------------
  std::vector<std::vector<FieldId>> fields(p.NumValues());
  {
    const std::size_t in_dim = p.value(p.input()).dim;
    for (std::size_t d = 0; d < in_dim; ++d) {
      fields[p.input()].push_back(lowered.layout_->AddField(
          "in_" + std::to_string(d), model.options().input_bits));
    }
  }
  for (std::size_t oi = 0; oi < ops.size(); ++oi) {
    const Op& op = ops[oi];
    switch (op.kind) {
      case OpKind::kPartition: {
        const auto& pf = fields[op.partition.input];
        for (const core::PartitionSegment& s : op.partition.segments) {
          fields[s.output].assign(
              pf.begin() + static_cast<std::ptrdiff_t>(s.offset),
              pf.begin() + static_cast<std::ptrdiff_t>(s.offset + s.length));
        }
        break;
      }
      case OpKind::kConcat: {
        auto& dst = fields[op.concat.output];
        for (ValueId v : op.concat.inputs) {
          dst.insert(dst.end(), fields[v].begin(), fields[v].end());
        }
        break;
      }
      case OpKind::kMap: {
        const ValueId t = op.map.output;
        if (sum_consumer[t] >= 0) break;  // never materialized
        const std::size_t od = p.value(t).dim;
        for (std::size_t d = 0; d < od; ++d) {
          fields[t].push_back(lowered.layout_->AddField(
              "v" + std::to_string(t) + "_" + std::to_string(d),
              quant[t][d].domain_bits));
        }
        break;
      }
      case OpKind::kSumReduce: {
        const ValueId y = op.sum_reduce.output;
        const std::size_t od = p.value(y).dim;
        for (std::size_t d = 0; d < od; ++d) {
          const FieldId f = lowered.layout_->AddField(
              "v" + std::to_string(y) + "_" + std::to_string(d),
              quant[y][d].domain_bits);
          fields[y].push_back(f);
          if (!dataplane::InValueDomain(quant[y][d].bias)) {
            throw std::invalid_argument(
                "Lower: parser init outside the PHV value domain");
          }
          lowered.parser_inits_.emplace_back(f, quant[y][d].bias);
        }
        break;
      }
    }
  }
  if (lowered.layout_->TotalBits() > options.switch_model.phv_bits) {
    throw dataplane::PlacementError(
        "PHV overflow: program needs " +
        std::to_string(lowered.layout_->TotalBits()) + " bits, switch has " +
        std::to_string(options.switch_model.phv_bits));
  }

  // ------------------------------------------------------------------
  // Table construction + placement.
  // ------------------------------------------------------------------
  lowered.pipeline_ =
      std::make_unique<dataplane::Pipeline>(options.switch_model);
  // Stage after which each value is complete. -1 = available at parse.
  std::vector<int> ready_stage(p.NumValues(), -1);
  // Monotonic placement floor per SumReduce group (keeps saturating-add
  // order identical to the CompiledModel's op order).
  std::unordered_map<int, int> group_floor;

  for (std::size_t oi = 0; oi < ops.size(); ++oi) {
    const Op& op = ops[oi];
    switch (op.kind) {
      case OpKind::kPartition: {
        for (const core::PartitionSegment& s : op.partition.segments) {
          ready_stage[s.output] = ready_stage[op.partition.input];
        }
        break;
      }
      case OpKind::kConcat: {
        int stage = -1;
        for (ValueId v : op.concat.inputs) {
          stage = std::max(stage, ready_stage[v]);
        }
        ready_stage[op.concat.output] = stage;
        break;
      }
      case OpKind::kMap: {
        const ValueId in_v = op.map.input;
        const ValueId t = op.map.output;
        const std::size_t id = p.value(in_v).dim;
        const std::size_t od = p.value(t).dim;
        const bool to_sum = sum_consumer[t] >= 0;

        // Action program.
        std::vector<ActionOp> program;
        const std::vector<FieldId>& targets =
            to_sum ? fields[ops[static_cast<std::size_t>(sum_consumer[t])]
                                .sum_reduce.output]
                   : fields[t];
        const auto& yq =
            to_sum
                ? quant[ops[static_cast<std::size_t>(sum_consumer[t])]
                            .sum_reduce.output]
                : quant[t];
        for (std::size_t d = 0; d < od; ++d) {
          ActionOp a;
          a.kind = to_sum ? ActionOp::Kind::kAddFromData
                          : ActionOp::Kind::kSetFromData;
          a.target = targets[d];
          a.data_index = d;
          a.sat_max = to_sum ? yq[d].DomainMax() : -1;
          program.push_back(a);
        }

        std::vector<FieldId> key_fields = fields[in_v];
        std::vector<int> key_widths;
        for (std::size_t d = 0; d < id; ++d) {
          key_widths.push_back(quant[in_v][d].domain_bits);
        }

        // Per-leaf CRC expansions, clipped boxes and the ternary/range
        // decision come from the shared helper, so the planner's push
        // sequences and patches agree with this lowering by construction.
        TableLowering tl = LowerMapEntries(
            model, oi, options.max_ternary_entries_per_table);
        auto table = std::make_unique<MatchActionTable>(
            tl.name, tl.use_range ? MatchKind::kRange : MatchKind::kTernary,
            std::move(key_fields), std::move(key_widths), std::move(program),
            model.options().value_bits);
        if (pushes == nullptr) {
          std::vector<TableEntry> entries;
          entries.reserve(tl.num_entries);
          for (const LoweredLeaf& ll : tl.leaves) {
            AppendLeafEntries(tl, ll, entries);
          }
          for (TableEntry& e : entries) table->AddEntry(std::move(e));
        } else {
          const TableEntryPush* push = nullptr;
          for (std::size_t pi = 0; pi < num_pushes; ++pi) {
            if (pushes[pi].table == table->name()) {
              push = &pushes[pi];
              break;
            }
          }
          if (push == nullptr) {
            throw std::invalid_argument("LowerFromPush: no push for table '" +
                                        table->name() + "'");
          }
          if (push->kind != table->kind()) {
            throw std::invalid_argument(
                "LowerFromPush: match-kind mismatch for table '" +
                table->name() + "'");
          }
          for (const TableEntry& e : push->entries) table->AddEntry(e);
        }

        int min_stage = ready_stage[in_v] + 1;
        if (to_sum) {
          auto it = group_floor.find(sum_consumer[t]);
          if (it != group_floor.end()) {
            min_stage = std::max(min_stage, it->second);
          }
        }
        const std::size_t placed = lowered.pipeline_->PlaceTable(
            std::move(table), static_cast<std::size_t>(std::max(0, min_stage)));
        if (to_sum) {
          group_floor[sum_consumer[t]] = static_cast<int>(placed);
          // Accumulator completes no earlier than its last contributor.
          ValueId y = ops[static_cast<std::size_t>(sum_consumer[t])]
                          .sum_reduce.output;
          ready_stage[y] = std::max(ready_stage[y], static_cast<int>(placed));
        } else {
          ready_stage[t] = static_cast<int>(placed);
        }
        break;
      }
      case OpKind::kSumReduce:
        // Realized entirely by contributor actions; ready_stage updated
        // as contributors were placed.
        break;
    }
  }

  // Every Map table went through Pipeline::PlaceTable above, which seals
  // it (compiling its match index) — the lowered model serves exclusively
  // from the indexed lookup path.
  lowered.input_fields_ = fields[p.input()];
  lowered.output_fields_ = fields[p.output()];
  lowered.output_quant_ = quant[p.output()];
  if (options.stateful_bits_per_flow > 0) {
    lowered.pipeline_->DeclareFlowState(options.stateful_bits_per_flow);
  }
  return lowered;
}

}  // namespace detail

LoweredModel Lower(const core::CompiledModel& model,
                   const LoweringOptions& options) {
  return detail::LowerImpl(model, options, nullptr, 0);
}

LoweredModel LowerFromPush(const core::CompiledModel& model,
                           const LoweringOptions& options,
                           std::span<const TableEntryPush> pushes) {
  // An empty push list must still take the push path (and throw on the
  // first Map table) — an empty span's data() can be null, which LowerImpl
  // would read as "regenerate from tablegen".
  static const TableEntryPush kEmpty{};
  return detail::LowerImpl(model, options,
                           pushes.empty() ? &kEmpty : pushes.data(),
                           pushes.size());
}

LoweredModel LoweredModel::Clone() const {
  LoweredModel copy;
  copy.layout_ = std::make_unique<dataplane::PhvLayout>(*layout_);
  copy.pipeline_ = pipeline_->Clone();
  copy.input_fields_ = input_fields_;
  copy.output_fields_ = output_fields_;
  copy.parser_inits_ = parser_inits_;
  copy.output_quant_ = output_quant_;
  copy.input_bits_ = input_bits_;
  return copy;
}

std::size_t LoweredModel::ApplyDelta(
    std::span<const dataplane::TablePatch> patches) {
  // Any cached single-packet engine snapshots the pipeline generation;
  // drop it so the next Infer rebuilds against the patched tables.
  scratch_.reset();
  return pipeline_->ApplyDelta(patches);
}

LoweredModel::LoweredModel() = default;
LoweredModel::~LoweredModel() = default;

LoweredModel::LoweredModel(LoweredModel&& other) noexcept
    : layout_(std::move(other.layout_)),
      pipeline_(std::move(other.pipeline_)),
      input_fields_(std::move(other.input_fields_)),
      output_fields_(std::move(other.output_fields_)),
      parser_inits_(std::move(other.parser_inits_)),
      output_quant_(std::move(other.output_quant_)),
      input_bits_(other.input_bits_) {
  // scratch_ holds a pointer back to `other`; drop it and rebuild lazily.
  other.scratch_.reset();
}

LoweredModel& LoweredModel::operator=(LoweredModel&& other) noexcept {
  if (this != &other) {
    layout_ = std::move(other.layout_);
    pipeline_ = std::move(other.pipeline_);
    input_fields_ = std::move(other.input_fields_);
    output_fields_ = std::move(other.output_fields_);
    parser_inits_ = std::move(other.parser_inits_);
    output_quant_ = std::move(other.output_quant_);
    input_bits_ = other.input_bits_;
    scratch_.reset();
    other.scratch_.reset();
  }
  return *this;
}

std::vector<std::int64_t> LoweredModel::InferRaw(
    std::span<const float> features) const {
  if (!scratch_) {
    scratch_ = std::make_unique<InferenceEngine>(*this, 1);
  }
  return scratch_->InferRaw(features);
}

std::vector<float> LoweredModel::Infer(std::span<const float> features) const {
  if (!scratch_) {
    scratch_ = std::make_unique<InferenceEngine>(*this, 1);
  }
  return scratch_->Infer(features);
}

dataplane::ResourceReport LoweredModel::Report() const {
  return pipeline_->Report();
}

}  // namespace pegasus::runtime
