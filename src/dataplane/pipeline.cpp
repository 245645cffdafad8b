#include "dataplane/pipeline.hpp"

namespace pegasus::dataplane {

Pipeline::Pipeline(SwitchModel model)
    : model_(model), stages_(model.num_stages) {}

std::size_t Pipeline::PlaceTable(std::unique_ptr<MatchActionTable> table,
                                 std::size_t min_stage) {
  if (min_stage >= stages_.size()) {
    throw PlacementError("table '" + table->name() +
                         "' needs stage >= " + std::to_string(min_stage) +
                         " but the switch has only " +
                         std::to_string(stages_.size()) + " stages");
  }
  // Entry loading is done once a table reaches placement: compile its
  // match index so the serving path is indexed from the first packet, and
  // drop the entries it was compiled from.
  table->Seal();
  const std::size_t sram = table->SramBits();
  const std::size_t tcam = table->TcamBits();
  const std::size_t bus = table->ActionDataBits();
  for (std::size_t s = min_stage; s < stages_.size(); ++s) {
    Stage& stage = stages_[s];
    if (stage.sram_bits + sram <= model_.sram_bits_per_stage &&
        stage.tcam_bits + tcam <= model_.tcam_bits_per_stage &&
        stage.action_bus_bits + bus <= model_.action_bus_bits_per_stage) {
      stage.sram_bits += sram;
      stage.tcam_bits += tcam;
      stage.action_bus_bits += bus;
      stage.tables.push_back(std::move(table));
      return s;
    }
  }
  throw PlacementError(
      "table '" + table->name() + "' does not fit: needs " +
      std::to_string(sram) + "b SRAM, " + std::to_string(tcam) +
      "b TCAM, " + std::to_string(bus) + "b action bus in one stage");
}

std::size_t Pipeline::ProcessBatch(std::span<Phv> batch) const {
  std::size_t hits = 0;
  for (const Stage& stage : stages_) {
    for (const auto& table : stage.tables) {
      hits += table->ApplyBatch(batch);
    }
  }
  return hits;
}

ResourceReport Pipeline::Report() const {
  ResourceReport r;
  for (const Stage& stage : stages_) {
    if (stage.tables.empty()) continue;
    ++r.stages_used;
    r.sram_bits += stage.sram_bits;
    r.tcam_bits += stage.tcam_bits;
    r.total_action_bus_bits += stage.action_bus_bits;
    r.max_stage_action_bus_bits =
        std::max(r.max_stage_action_bus_bits, stage.action_bus_bits);
  }
  r.stateful_bits_per_flow = stateful_bits_per_flow_;
  return r;
}

std::uint64_t Pipeline::Generation() const {
  std::uint64_t g = 0;
  for (const Stage& stage : stages_) {
    for (const auto& table : stage.tables) g += table->generation();
  }
  return g;
}

Pipeline::IndexReport Pipeline::MatchIndexReport() const {
  IndexReport r;
  for (const Stage& stage : stages_) {
    for (const auto& table : stage.tables) {
      const MatchIndexStats* s = table->index_stats();
      if (s == nullptr) continue;
      ++r.indexed_tables;
      if (s->root_nodes != MatchIndexStats::kPositionRoot) {
        ++r.bitset_root_tables;
      }
      r.intervals += s->intervals;
      r.nibble_chunks += s->nibble_chunks;
      r.class_cells += s->class_cells;
      r.bytes += s->bytes;
      r.build_ms += s->build_ms;
      r.deltas_applied += s->deltas_applied;
      r.leaf_words_patched += s->leaf_words_patched;
      r.reseals_avoided += s->reseals_avoided;
      r.delta_apply_ns += s->delta_apply_ns;
    }
  }
  return r;
}

std::size_t Pipeline::ApplyDelta(std::span<const TablePatch> patches) {
  // Resolve + pre-validate every target first so a bad patch anywhere
  // leaves the whole pipeline untouched.
  std::vector<MatchActionTable*> targets;
  targets.reserve(patches.size());
  for (const TablePatch& tp : patches) {
    MatchActionTable* found = nullptr;
    for (Stage& stage : stages_) {
      for (const auto& table : stage.tables) {
        if (table->name() == tp.table) {
          found = table.get();
          break;
        }
      }
      if (found != nullptr) break;
    }
    if (found == nullptr) {
      throw std::invalid_argument("ApplyDelta: no table named '" + tp.table +
                                  "'");
    }
    found->ValidateDelta(tp.patches);
    targets.push_back(found);
  }
  std::size_t bytes = 0;
  for (std::size_t i = 0; i < patches.size(); ++i) {
    bytes += targets[i]->ApplyDelta(patches[i].patches);
  }
  return bytes;
}

std::unique_ptr<Pipeline> Pipeline::Clone() const {
  auto copy = std::make_unique<Pipeline>(model_);
  copy->stateful_bits_per_flow_ = stateful_bits_per_flow_;
  copy->stages_.resize(stages_.size());
  for (std::size_t s = 0; s < stages_.size(); ++s) {
    const Stage& src = stages_[s];
    Stage& dst = copy->stages_[s];
    dst.sram_bits = src.sram_bits;
    dst.tcam_bits = src.tcam_bits;
    dst.action_bus_bits = src.action_bus_bits;
    dst.tables.reserve(src.tables.size());
    for (const auto& table : src.tables) dst.tables.push_back(table->Clone());
  }
  return copy;
}

std::size_t Pipeline::NumTables() const {
  std::size_t n = 0;
  for (const Stage& s : stages_) n += s.tables.size();
  return n;
}

std::size_t Pipeline::StagesUsed() const {
  std::size_t n = 0;
  for (const Stage& s : stages_) {
    if (!s.tables.empty()) ++n;
  }
  return n;
}

}  // namespace pegasus::dataplane
