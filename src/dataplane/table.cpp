#include "dataplane/table.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace pegasus::dataplane {

namespace {

// Key-gather scratch: tables keep at most a few dozen key fields; wider
// keys (flattened CNN windows) spill to a thread-local buffer.
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

/// An unindexed table keeps each entry's words as the int64 control-plane
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
  if (!std::ranges::all_of(entry.action_data, InValueDomain)) {
    throw std::invalid_argument(name_ +
                                ": action word outside the PHV value domain");
  }
  if (kind_ == MatchKind::kExact) {
    if (entry.exact_key.size() != key_fields_.size()) {
      throw std::invalid_argument(name_ + ": exact key arity mismatch");
    }
    exact_index_[ExactHash(entry.exact_key)].push_back(
        static_cast<std::uint32_t>(entries_.size()));
  } else if (kind_ == MatchKind::kTernary) {
    if (entry.ternary.size() != key_fields_.size()) {
      throw std::invalid_argument(name_ + ": ternary rule arity mismatch");
    }
  } else {
    if (entry.range_lo.size() != key_fields_.size() ||
        entry.range_hi.size() != key_fields_.size()) {
      throw std::invalid_argument(name_ + ": range arity mismatch");
    }
  }
  entries_.push_back(std::move(entry));
  // Any mutation invalidates the compiled index until the next Seal().
  sealed_ = false;
  index_.reset();
  ++generation_;
}

void MatchActionTable::Seal() {
  if (sealed_) return;
  if (kind_ != MatchKind::kExact && entries_.size() >= kIndexMinEntries) {
    index_ = std::make_unique<MatchIndex>(
        std::span<const TableEntry>(entries_), kind_ == MatchKind::kTernary);
  }
  sealed_ = true;
  ever_sealed_ = true;
  ++generation_;
}

void MatchActionTable::ValidateDelta(
    std::span<const EntryPatch> patches) const {
  if (kind_ == MatchKind::kExact) {
    throw std::invalid_argument(name_ +
                                ": ApplyDelta on an exact-match table");
  }
  for (const EntryPatch& p : patches) {
    if (p.entry_index >= entries_.size()) {
      throw std::invalid_argument(name_ + ": patch entry index out of range");
    }
    const TableEntry& e = entries_[p.entry_index];
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
    if (p.action_data.size() != e.action_data.size()) {
      throw std::invalid_argument(name_ + ": patch resizes action data");
    }
    if (!std::ranges::all_of(p.action_data, InValueDomain)) {
      throw std::invalid_argument(
          name_ + ": patch action word outside the PHV value domain");
    }
    if (p.priority != e.priority) {
      throw std::invalid_argument(name_ + ": patch changes entry priority");
    }
    if (index_ && !index_->CanAbsorb(p)) {
      throw std::invalid_argument(
          name_ + ": patch not absorbable by the compiled index");
    }
  }
}

std::size_t MatchActionTable::ApplyDelta(
    std::span<const EntryPatch> patches) {
  // Validate everything before touching anything: a delta either applies
  // atomically or leaves the table byte-identical so the caller can
  // reseal instead.
  ValidateDelta(patches);
  for (const EntryPatch& p : patches) {
    TableEntry& e = entries_[p.entry_index];
    if (kind_ == MatchKind::kTernary) {
      e.ternary = p.ternary;
    } else {
      e.range_lo = p.range_lo;
      e.range_hi = p.range_hi;
    }
    std::copy(p.action_data.begin(), p.action_data.end(),
              e.action_data.begin());
  }
  if (index_) index_->ApplyDelta(patches);
  ++generation_;
  // Bytes a control plane pushes for this delta: the action-data words
  // plus the entry's value+mask match words. UpdatePlanner costs plans
  // with the identical formula; tests assert the two agree.
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
  copy->miss_program_ = miss_program_;
  copy->miss_data_ = miss_data_;
  copy->exact_index_ = exact_index_;
  copy->exact_hash_mask_ = exact_hash_mask_;
  copy->sealed_ = sealed_;
  copy->ever_sealed_ = ever_sealed_;
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

namespace {

inline std::uint64_t FnvMixWord(std::uint64_t h, std::uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (word >> (byte * 8)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

std::uint64_t MatchActionTable::ExactHash(
    const std::vector<std::uint64_t>& key) const {
  // FNV-1a over the key words; collisions are harmless because the index
  // chains all entries per hash and Lookup verifies the full key.
  std::uint64_t h = 1469598103934665603ull;
  for (std::uint64_t word : key) h = FnvMixWord(h, word);
  return h & exact_hash_mask_;
}

std::uint64_t MatchActionTable::ExactHashFromPhv(const Phv& phv) const {
  std::uint64_t h = 1469598103934665603ull;
  for (FieldId f : key_fields_) {
    h = FnvMixWord(h, static_cast<std::uint64_t>(phv.Get(f)));
  }
  return h & exact_hash_mask_;
}

std::optional<std::size_t> MatchActionTable::ExactLookup(
    const Phv& phv) const {
  const auto it = exact_index_.find(ExactHashFromPhv(phv));
  if (it == exact_index_.end()) return std::nullopt;
  // Chains hold insertion order; scan back-to-front so duplicate keys keep
  // the historical "latest AddEntry wins" behavior.
  const std::vector<std::uint32_t>& chain = it->second;
  for (auto ci = chain.rbegin(); ci != chain.rend(); ++ci) {
    if (EntryMatches(entries_[*ci], phv)) return *ci;
  }
  return std::nullopt;
}

bool MatchActionTable::EntryMatches(const TableEntry& e,
                                    const Phv& phv) const {
  if (kind_ == MatchKind::kExact) {
    for (std::size_t i = 0; i < key_fields_.size(); ++i) {
      if (static_cast<std::uint64_t>(phv.Get(key_fields_[i])) !=
          e.exact_key[i]) {
        return false;
      }
    }
    return true;
  }
  if (kind_ == MatchKind::kTernary) {
    for (std::size_t i = 0; i < key_fields_.size(); ++i) {
      if (!e.ternary[i].Matches(static_cast<std::uint64_t>(
              phv.Get(key_fields_[i])))) {
        return false;
      }
    }
    return true;
  }
  for (std::size_t i = 0; i < key_fields_.size(); ++i) {
    const auto v = static_cast<std::uint64_t>(phv.Get(key_fields_[i]));
    if (v < e.range_lo[i] || v > e.range_hi[i]) return false;
  }
  return true;
}

std::optional<std::size_t> MatchActionTable::LinearLookupTernary(
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

std::int32_t MatchActionTable::IndexedFind(const Phv& phv) const {
  const std::size_t nk = key_fields_.size();
  std::uint64_t stack_key[kStackKeyFields];
  std::uint64_t* key = KeyBuffer(nk, stack_key);
  for (std::size_t i = 0; i < nk; ++i) {
    key[i] = static_cast<std::uint64_t>(phv.Get(key_fields_[i]));
  }
  return index_->FindBest(key);
}

std::optional<std::size_t> MatchActionTable::Lookup(const Phv& phv) const {
  if (kind_ == MatchKind::kExact) return ExactLookup(phv);
  if (index_) {
    const std::int32_t pos = IndexedFind(phv);
    if (pos == MatchIndex::kMiss) return std::nullopt;
    return index_->EntryIndex(pos);
  }
  const std::size_t nk = key_fields_.size();
  std::uint64_t stack_key[kStackKeyFields];
  std::uint64_t* key = KeyBuffer(nk, stack_key);
  for (std::size_t i = 0; i < nk; ++i) {
    key[i] = static_cast<std::uint64_t>(phv.Get(key_fields_[i]));
  }
  return LinearLookupTernary(key);
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
  assert(!invalidated() &&
         "MatchActionTable::Apply after seal invalidation — re-Seal() "
         "before serving");
  if (kind_ != MatchKind::kExact && index_) {
    const std::int32_t pos = IndexedFind(phv);
    if (pos != MatchIndex::kMiss) {
      RunProgram(phv, hit_program_, index_->ActionData(pos));
      return true;
    }
    RunProgram(phv, miss_program_, miss_data_);
    return false;
  }
  if (auto hit = Lookup(phv)) {
    RunProgram(phv, hit_program_, Narrow(entries_[*hit].action_data));
    return true;
  }
  RunProgram(phv, miss_program_, miss_data_);
  return false;
}

std::size_t MatchActionTable::ApplyBatch(std::span<Phv> batch) const {
  assert(!invalidated() &&
         "MatchActionTable::ApplyBatch after seal invalidation — re-Seal() "
         "before serving");
  if (kind_ == MatchKind::kExact) {
    // Exact lookups are already O(1) hash probes; per-packet is fine.
    std::size_t hits = 0;
    for (Phv& phv : batch) {
      if (Apply(phv)) ++hits;
    }
    return hits;
  }
  const std::size_t nk = key_fields_.size();
  const std::size_t n = batch.size();
  // Reused scratch: no allocation on the steady-state hot path.
  static thread_local std::vector<std::uint64_t> keys;
  static thread_local std::vector<std::int32_t> best;
  keys.resize(n * nk);
  if (index_) {
    // Sealed path. Every bound is checked once per batch, before any
    // write: the data the programs read here, each PHV's width as its key
    // is gathered. The lookups and action runs below index unchecked.
    if (hit_program_.words_needed > index_->MinActionWords() ||
        miss_program_.words_needed > miss_data_.size()) {
      throw std::out_of_range(name_ + ": action data index");
    }
    const std::size_t fields_needed =
        std::max({key_fields_needed_, hit_program_.fields_needed,
                  miss_program_.fields_needed});
    for (std::size_t p = 0; p < n; ++p) {
      const std::span<const std::int32_t> fields = batch[p].values();
      if (fields.size() < fields_needed) {
        throw std::out_of_range(name_ + ": action target or key field");
      }
      for (std::size_t i = 0; i < nk; ++i) {
        keys[p * nk + i] = static_cast<std::uint64_t>(
            static_cast<std::int64_t>(fields[key_fields_[i]]));
      }
    }
    // One index probe per packet; the index is already entry-order-free
    // (priority is encoded in sorted position).
    std::size_t hits = 0;
    for (std::size_t p = 0; p < n; ++p) {
      std::int32_t* fields = batch[p].values().data();
      const std::int32_t pos = index_->FindBest(keys.data() + p * nk);
      if (pos != MatchIndex::kMiss) {
        hit_program_.Execute(fields, index_->ActionData(pos).data());
        ++hits;
      } else {
        miss_program_.Execute(fields, miss_data_.data());
      }
    }
    return hits;
  }
  for (std::size_t p = 0; p < n; ++p) {
    for (std::size_t i = 0; i < nk; ++i) {
      keys[p * nk + i] =
          static_cast<std::uint64_t>(batch[p].Get(key_fields_[i]));
    }
  }
  best.assign(n, -1);
  for (std::size_t ei = 0; ei < entries_.size(); ++ei) {
    const TableEntry& e = entries_[ei];
    const TernaryRule* rules = e.ternary.data();
    const std::uint64_t* lo = e.range_lo.data();
    const std::uint64_t* hi = e.range_hi.data();
    for (std::size_t p = 0; p < n; ++p) {
      const std::uint64_t* k = keys.data() + p * nk;
      bool match = true;
      if (kind_ == MatchKind::kTernary) {
        for (std::size_t i = 0; i < nk; ++i) {
          if (!rules[i].Matches(k[i])) {
            match = false;
            break;
          }
        }
      } else {
        for (std::size_t i = 0; i < nk; ++i) {
          if (k[i] < lo[i] || k[i] > hi[i]) {
            match = false;
            break;
          }
        }
      }
      if (!match) continue;
      // Highest priority wins; ties resolve to the earliest entry (ei
      // ascends), mirroring Lookup's TCAM ordering.
      if (best[p] < 0 ||
          e.priority > entries_[static_cast<std::size_t>(best[p])].priority) {
        best[p] = static_cast<std::int32_t>(ei);
      }
    }
  }
  std::size_t hits = 0;
  for (std::size_t p = 0; p < n; ++p) {
    if (best[p] >= 0) {
      RunProgram(
          batch[p], hit_program_,
          Narrow(entries_[static_cast<std::size_t>(best[p])].action_data));
      ++hits;
    } else {
      RunProgram(batch[p], miss_program_, miss_data_);
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
  std::size_t max_words = 0;
  for (const auto& e : entries_) {
    max_words = std::max(max_words, e.action_data.size());
  }
  return max_words * static_cast<std::size_t>(action_data_word_bits_);
}

std::size_t MatchActionTable::SramBits() const {
  const std::size_t data_bits = ActionDataBits();
  if (kind_ == MatchKind::kExact) {
    return entries_.size() * (KeyBits() + data_bits);
  }
  return entries_.size() * data_bits;
}

std::size_t MatchActionTable::TcamBits() const {
  switch (kind_) {
    case MatchKind::kExact:
      return 0;
    case MatchKind::kTernary:
      return entries_.size() * 2 * KeyBits();  // value + mask planes
    case MatchKind::kRange: {
      // DirtCAM nibble encoding: every 4-bit nibble of the key occupies 16
      // TCAM bits, i.e. 4x the key width per entry.
      std::size_t nibble_bits = 0;
      for (int w : key_widths_) {
        nibble_bits += 4u * static_cast<std::size_t>((w + 3) / 4) * 4u;
      }
      return entries_.size() * nibble_bits;
    }
  }
  return 0;
}

}  // namespace pegasus::dataplane
