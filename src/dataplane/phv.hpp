// Packet Header Vector model.
//
// The PHV is the per-packet working set that flows through the PISA
// pipeline: every value a MAT can match on or write to must live in a PHV
// field, and the total PHV budget (4096 bits on Tofino 2) caps the feature
// scale a model can carry — the paper's §7.3 explains that CNN-L only fits
// because Partition spreads the 3840-bit input across the packets of a
// window so each packet carries only 480 bits.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace pegasus::dataplane {

using FieldId = std::size_t;

/// Static layout of PHV fields for one compiled program. Fields are signed
/// fixed-point raw values or unsigned match keys; the layout only tracks
/// widths for budget accounting.
class PhvLayout {
 public:
  /// Registers a field; throws std::invalid_argument on duplicate name or
  /// non-positive width.
  FieldId AddField(std::string name, int width_bits);

  std::size_t NumFields() const { return widths_.size(); }
  int width(FieldId id) const { return widths_.at(id); }
  const std::string& name(FieldId id) const { return names_.at(id); }

  /// Total bits across all fields (compared against SwitchModel::phv_bits).
  std::size_t TotalBits() const { return total_bits_; }

  /// Looks a field up by name; throws std::out_of_range if absent.
  FieldId Find(const std::string& name) const;

 private:
  std::vector<std::string> names_;
  std::vector<int> widths_;
  std::size_t total_bits_ = 0;
};

/// A concrete per-packet PHV: one signed 64-bit raw value per field. Width
/// enforcement happens on Set (values are masked/saturated to field width
/// by callers that care; the simulator stores full precision and the
/// fixed-point layer guarantees ranges).
class Phv {
 public:
  explicit Phv(const PhvLayout& layout)
      : layout_(&layout), values_(layout.NumFields(), 0) {}

  std::int64_t Get(FieldId id) const { return values_.at(id); }
  void Set(FieldId id, std::int64_t v) { values_.at(id) = v; }

  /// Every field as one contiguous, unchecked view (index = FieldId), for
  /// a caller that bounds-checks a whole access pattern once — the
  /// compiled action runs of MatchActionTable.
  std::span<std::int64_t> values() { return values_; }

  /// Returns the PHV to its parse-time state (all fields zero) so a
  /// preallocated PHV can be reused across packets — the hook the batched
  /// runtime::InferenceEngine relies on to stay allocation-free.
  void Reset() {
    for (std::int64_t& v : values_) v = 0;
  }

  const PhvLayout& layout() const { return *layout_; }

 private:
  const PhvLayout* layout_;
  std::vector<std::int64_t> values_;
};

}  // namespace pegasus::dataplane
