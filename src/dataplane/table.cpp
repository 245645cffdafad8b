#include "dataplane/table.hpp"

#include <algorithm>
#include <stdexcept>

namespace pegasus::dataplane {

namespace {

// The unsealed scan's key scratch: tables keep at most a few dozen key
// fields; wider keys (flattened CNN windows) spill to a thread-local
// buffer.
constexpr std::size_t kStackKeyFields = 32;

inline std::uint64_t* KeyBuffer(std::size_t nk, std::uint64_t* stack_buf) {
  if (nk <= kStackKeyFields) return stack_buf;
  static thread_local std::vector<std::uint64_t> heap_buf;
  if (heap_buf.size() < nk) heap_buf.resize(nk);
  return heap_buf.data();
}

inline std::int32_t Clamp(std::int32_t v, std::int32_t lo, std::int32_t hi) {
  return std::min(std::max(v, lo), hi);
}

/// One action run's loop: out[i] = clamp((kAdd ? out[i] : 0) + src[i]) into
/// [lo[i], hi[i]]. The run's PHV fields never overlap its sources, and
/// saying so lets the compiler vectorize it without a runtime alias check.
template <bool kAdd>
inline void ClampRun(std::int32_t* __restrict out,
                     const std::int32_t* __restrict src,
                     const std::int32_t* __restrict lo,
                     const std::int32_t* __restrict hi, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = Clamp(kAdd ? out[i] + src[i] : src[i], lo[i], hi[i]);
  }
}

/// An unsealed table keeps each entry's words as the int64 control-plane
/// type; AddEntry checked their domain, so narrowing them is exact.
std::span<const std::int32_t> Narrow(std::span<const std::int64_t> words) {
  static thread_local std::vector<std::int32_t> narrow;
  narrow.assign(words.begin(), words.end());
  return narrow;
}

}  // namespace

MatchActionTable::MatchActionTable(std::string name, MatchKind kind,
                                   std::vector<FieldId> key_fields,
                                   std::vector<int> key_widths,
                                   std::vector<ActionOp> action_program,
                                   int action_data_word_bits)
    : name_(std::move(name)),
      kind_(kind),
      key_fields_(std::move(key_fields)),
      key_widths_(std::move(key_widths)),
      hit_program_(ActionRuns::Compile(name_, action_program)),
      action_data_word_bits_(action_data_word_bits) {
  if (key_fields_.size() != key_widths_.size()) {
    throw std::invalid_argument("MatchActionTable: key width count mismatch");
  }
  if (action_data_word_bits_ <= 0 || action_data_word_bits_ > 64) {
    throw std::invalid_argument("MatchActionTable: bad action word width");
  }
  for (const FieldId f : key_fields_) {
    key_fields_needed_ = std::max(key_fields_needed_, f + 1);
  }
}

void MatchActionTable::AddEntry(TableEntry entry) {
  if (index_) {
    throw std::logic_error(name_ + ": AddEntry on a sealed table");
  }
  if (!std::ranges::all_of(entry.action_data, InValueDomain)) {
    throw std::invalid_argument(name_ +
                                ": action word outside the PHV value domain");
  }
  if (kind_ == MatchKind::kTernary) {
    if (entry.ternary.size() != key_fields_.size()) {
      throw std::invalid_argument(name_ + ": ternary rule arity mismatch");
    }
  } else {
    if (entry.range_lo.size() != key_fields_.size() ||
        entry.range_hi.size() != key_fields_.size()) {
      throw std::invalid_argument(name_ + ": range arity mismatch");
    }
  }
  max_action_words_ = std::max(max_action_words_, entry.action_data.size());
  ++num_entries_;
  entries_.push_back(std::move(entry));
  ++generation_;
}

void MatchActionTable::Seal() {
  if (index_) return;
  index_ = std::make_unique<MatchIndex>(std::span<const TableEntry>(entries_),
                                        kind_ == MatchKind::kTernary);
  // The index is the serving form. Move-assigning frees the entry list's
  // storage; clear() would keep it.
  entries_ = std::vector<TableEntry>();
  ++generation_;
}

void MatchActionTable::ValidateDelta(
    std::span<const EntryPatch> patches) const {
  if (!index_) {
    throw std::logic_error(name_ + ": ApplyDelta on an unsealed table");
  }
  for (const EntryPatch& p : patches) {
    if (p.entry_index >= num_entries_) {
      throw std::invalid_argument(name_ + ": patch entry index out of range");
    }
    if (kind_ == MatchKind::kTernary) {
      if (p.ternary.size() != key_fields_.size()) {
        throw std::invalid_argument(name_ + ": patch ternary arity mismatch");
      }
    } else {
      if (p.range_lo.size() != key_fields_.size() ||
          p.range_hi.size() != key_fields_.size()) {
        throw std::invalid_argument(name_ + ": patch range arity mismatch");
      }
    }
    if (p.action_data.size() != index_->ActionWords(p.entry_index)) {
      throw std::invalid_argument(name_ + ": patch resizes action data");
    }
    if (!std::ranges::all_of(p.action_data, InValueDomain)) {
      throw std::invalid_argument(
          name_ + ": patch action word outside the PHV value domain");
    }
    if (p.priority != index_->Priority(p.entry_index)) {
      throw std::invalid_argument(name_ + ": patch changes entry priority");
    }
    if (!index_->SelectsEntryKeys(p)) {
      throw std::invalid_argument(
          name_ + ": patch match differs from the entry's (a reseal)");
    }
  }
}

std::size_t MatchActionTable::ApplyDelta(
    std::span<const EntryPatch> patches) {
  // Validate everything before touching anything: a delta either applies
  // atomically or leaves the table byte-identical so the caller can
  // reseal instead.
  ValidateDelta(patches);
  index_->ApplyDelta(patches);
  ++generation_;
  // Bytes a control plane pushes for this delta: the action-data words
  // plus the entry's value+mask match words, which name the entry.
  // UpdatePlanner costs plans with the identical formula; tests assert the
  // two agree.
  const std::size_t match_bytes = (2 * KeyBits() + 7) / 8;
  std::size_t bytes = 0;
  for (const EntryPatch& p : patches) {
    bytes += (p.action_data.size() *
                  static_cast<std::size_t>(action_data_word_bits_) +
              7) /
                 8 +
             match_bytes;
  }
  return bytes;
}

std::unique_ptr<MatchActionTable> MatchActionTable::Clone() const {
  auto copy = std::make_unique<MatchActionTable>(
      name_, kind_, key_fields_, key_widths_, std::vector<ActionOp>{},
      action_data_word_bits_);
  copy->hit_program_ = hit_program_;
  copy->entries_ = entries_;
  copy->num_entries_ = num_entries_;
  copy->max_action_words_ = max_action_words_;
  copy->miss_program_ = miss_program_;
  copy->miss_data_ = miss_data_;
  copy->generation_ = generation_;
  if (index_) copy->index_ = std::make_unique<MatchIndex>(*index_);
  return copy;
}

void MatchActionTable::SetMissProgram(std::vector<ActionOp> ops,
                                      std::vector<std::int64_t> data) {
  if (!std::ranges::all_of(data, InValueDomain)) {
    throw std::invalid_argument(
        name_ + ": miss data word outside the PHV value domain");
  }
  miss_program_ = ActionRuns::Compile(name_, ops);
  miss_data_.assign(data.begin(), data.end());
  ++generation_;
}

std::optional<std::size_t> MatchActionTable::LinearLookup(
    const std::uint64_t* key) const {
  // Reference scan: highest priority wins; ties resolve to the earliest
  // entry, matching TCAM physical ordering.
  const std::size_t nk = key_fields_.size();
  std::optional<std::size_t> best;
  for (std::size_t ei = 0; ei < entries_.size(); ++ei) {
    const TableEntry& e = entries_[ei];
    bool match = true;
    if (kind_ == MatchKind::kTernary) {
      for (std::size_t i = 0; i < nk; ++i) {
        if (!e.ternary[i].Matches(key[i])) {
          match = false;
          break;
        }
      }
    } else {
      for (std::size_t i = 0; i < nk; ++i) {
        if (key[i] < e.range_lo[i] || key[i] > e.range_hi[i]) {
          match = false;
          break;
        }
      }
    }
    if (!match) continue;
    if (!best || e.priority > entries_[*best].priority) best = ei;
  }
  return best;
}

std::int32_t MatchActionTable::FindRow(const Phv& phv) const {
  const std::span<const std::int32_t> fields = phv.values();
  if (fields.size() < key_fields_needed_) {
    throw std::out_of_range(name_ + ": key field");
  }
  const std::int32_t* row = fields.data();
  std::int32_t pos = MatchIndex::kMiss;
  index_->FindBatch(&row, 1, key_fields_.data(), &pos);
  return pos;
}

std::optional<std::size_t> MatchActionTable::Lookup(const Phv& phv) const {
  if (index_) {
    const std::int32_t pos = FindRow(phv);
    if (pos == MatchIndex::kMiss) return std::nullopt;
    return index_->EntryIndex(pos);
  }
  const std::size_t nk = key_fields_.size();
  std::uint64_t stack_key[kStackKeyFields];
  std::uint64_t* key = KeyBuffer(nk, stack_key);
  for (std::size_t i = 0; i < nk; ++i) {
    key[i] = static_cast<std::uint64_t>(phv.Get(key_fields_[i]));
  }
  return LinearLookup(key);
}

MatchActionTable::ActionRuns MatchActionTable::ActionRuns::Compile(
    const std::string& table, const std::vector<ActionOp>& ops) {
  ActionRuns program;
  for (const ActionOp& op : ops) {
    if (!InValueDomain(op.imm)) {
      throw std::invalid_argument(
          table + ": action immediate outside the PHV value domain");
    }
    if (op.sat_max > kValueMax) {
      throw std::invalid_argument(
          table + ": action sat_max above the PHV value domain");
    }
    const bool from_data = op.kind == ActionOp::Kind::kSetFromData ||
                           op.kind == ActionOp::Kind::kAddFromData;
    const bool saturating = op.sat_max >= 0;
    const std::int32_t lo = saturating ? 0 : kValueMin;
    const std::int32_t hi =
        saturating ? static_cast<std::int32_t>(op.sat_max) : kValueMax;
    Run* run = program.runs.empty() ? nullptr : &program.runs.back();
    if (run == nullptr || run->kind != op.kind ||
        op.target != run->target + run->len ||
        (from_data && op.data_index != run->data_index + run->len)) {
      program.runs.push_back({.kind = op.kind,
                              .target = op.target,
                              .data_index = op.data_index,
                              .first_op = program.imm.size()});
      run = &program.runs.back();
    }
    ++run->len;
    const auto value = static_cast<std::int32_t>(op.imm);
    program.imm.push_back(op.kind == ActionOp::Kind::kSetConst
                              ? Clamp(value, lo, hi)
                              : value);
    program.lo.push_back(lo);
    program.hi.push_back(hi);
    program.fields_needed = std::max(program.fields_needed, op.target + 1);
    if (from_data) {
      program.words_needed =
          std::max(program.words_needed, op.data_index + 1);
    }
  }
  return program;
}

void MatchActionTable::ActionRuns::Execute(std::int32_t* fields,
                                           const std::int32_t* data) const {
  // Targets strictly ascend within a run, so its ops are independent and
  // each run is one straight loop. Every operand lies in the value domain,
  // so each int32 sum is exact before its clamp.
  for (const Run& run : runs) {
    std::int32_t* out = fields + run.target;
    const std::int32_t* k = imm.data() + run.first_op;
    const std::int32_t* lo_k = lo.data() + run.first_op;
    const std::int32_t* hi_k = hi.data() + run.first_op;
    switch (run.kind) {
      case ActionOp::Kind::kSetConst:
        std::copy_n(k, run.len, out);
        break;
      case ActionOp::Kind::kAddConst:
        ClampRun<true>(out, k, lo_k, hi_k, run.len);
        break;
      case ActionOp::Kind::kSetFromData:
        ClampRun<false>(out, data + run.data_index, lo_k, hi_k, run.len);
        break;
      case ActionOp::Kind::kAddFromData:
        ClampRun<true>(out, data + run.data_index, lo_k, hi_k, run.len);
        break;
    }
  }
}

void MatchActionTable::RunProgram(Phv& phv, const ActionRuns& program,
                                  std::span<const std::int32_t> data) const {
  const std::span<std::int32_t> fields = phv.values();
  if (program.fields_needed > fields.size()) {
    throw std::out_of_range(name_ + ": action target field");
  }
  if (program.words_needed > data.size()) {
    throw std::out_of_range(name_ + ": action data index");
  }
  program.Execute(fields.data(), data.data());
}

bool MatchActionTable::Apply(Phv& phv) const {
  if (index_) return ApplyBatch(std::span<Phv>(&phv, 1)) == 1;
  if (auto hit = Lookup(phv)) {
    RunProgram(phv, hit_program_, Narrow(entries_[*hit].action_data));
    return true;
  }
  RunProgram(phv, miss_program_, miss_data_);
  return false;
}

std::size_t MatchActionTable::ApplyBatch(std::span<Phv> batch) const {
  if (!index_) {
    std::size_t hits = 0;
    for (Phv& phv : batch) hits += Apply(phv) ? 1 : 0;
    return hits;
  }
  // Every bound is checked once per batch, before any write: the data the
  // programs read here, then each PHV's width as its row is collected. The
  // lookups and action runs below index unchecked.
  if (hit_program_.words_needed > index_->MinActionWords() ||
      miss_program_.words_needed > miss_data_.size()) {
    throw std::out_of_range(name_ + ": action data index");
  }
  const std::size_t fields_needed =
      std::max({key_fields_needed_, hit_program_.fields_needed,
                miss_program_.fields_needed});
  // Reused scratch: no allocation on the steady-state hot path.
  static thread_local std::vector<std::int32_t*> rows;
  rows.resize(batch.size());
  for (std::size_t p = 0; p < batch.size(); ++p) {
    const std::span<std::int32_t> fields = batch[p].values();
    if (fields.size() < fields_needed) {
      throw std::out_of_range(name_ + ": action target or key field");
    }
    rows[p] = fields.data();
  }
  // Per chunk, one index walk, then each row's hit or miss run in order.
  std::size_t hits = 0;
  std::int32_t pos[MatchIndex::kBatchRows];
  for (std::size_t first = 0; first < rows.size();
       first += MatchIndex::kBatchRows) {
    const std::size_t m =
        std::min(MatchIndex::kBatchRows, rows.size() - first);
    index_->FindBatch(rows.data() + first, m, key_fields_.data(), pos);
    for (std::size_t p = 0; p < m; ++p) {
      std::int32_t* fields = rows[first + p];
      if (pos[p] != MatchIndex::kMiss) {
        hit_program_.Execute(fields, index_->ActionData(pos[p]).data());
        ++hits;
      } else {
        miss_program_.Execute(fields, miss_data_.data());
      }
    }
  }
  return hits;
}

std::size_t MatchActionTable::KeyBits() const {
  std::size_t bits = 0;
  for (int w : key_widths_) bits += static_cast<std::size_t>(w);
  return bits;
}

std::size_t MatchActionTable::ActionDataBits() const {
  return max_action_words_ * static_cast<std::size_t>(action_data_word_bits_);
}

std::size_t MatchActionTable::SramBits() const {
  return num_entries_ * ActionDataBits();
}

std::size_t MatchActionTable::TcamBits() const {
  if (kind_ == MatchKind::kTernary) {
    return num_entries_ * 2 * KeyBits();  // value + mask planes
  }
  // DirtCAM nibble encoding: every 4-bit nibble of the key occupies 16 TCAM
  // bits, i.e. 4x the key width per entry.
  std::size_t nibble_bits = 0;
  for (int w : key_widths_) {
    nibble_bits += 4u * static_cast<std::size_t>((w + 3) / 4) * 4u;
  }
  return num_entries_ * nibble_bits;
}

}  // namespace pegasus::dataplane
