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

/// The value domain of every PHV field, action-data word and action
/// immediate: [-2^30, 2^30 - 1]. Tofino's widest PHV container is 32 bits,
/// so values are stored as int32; the domain keeps one bit of headroom, so
/// the sum of any two values fits an int32 and an action's add-and-clamp
/// never overflows, on any table, before or after any delta. Values enter
/// the domain only through checked calls: Phv::Set, the table's entry,
/// miss-program and delta calls, and lowering.
inline constexpr std::int32_t kValueMin = -(std::int32_t{1} << 30);
inline constexpr std::int32_t kValueMax = (std::int32_t{1} << 30) - 1;

constexpr bool InValueDomain(std::int64_t v) {
  return v >= kValueMin && v <= kValueMax;
}

/// Static layout of PHV fields for one compiled program. Fields are signed
/// fixed-point raw values or unsigned match keys; the layout only tracks
/// widths for budget accounting.
class PhvLayout {
 public:
  /// Registers a field; throws std::invalid_argument on duplicate name or
  /// a width outside [1, 32] (a PHV container holds at most 32 bits).
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

/// A concrete per-packet PHV: one int32 value per field, always inside the
/// value domain. Set checks the domain; the layout's declared widths are
/// for resource accounting only.
class Phv {
 public:
  explicit Phv(const PhvLayout& layout)
      : layout_(&layout), values_(layout.NumFields(), 0) {}

  std::int64_t Get(FieldId id) const { return values_.at(id); }
  /// Throws std::out_of_range for an unknown field or a value outside
  /// [kValueMin, kValueMax].
  void Set(FieldId id, std::int64_t v) {
    if (!InValueDomain(v)) {
      throw std::out_of_range("Phv::Set: value outside the PHV value domain");
    }
    values_.at(id) = static_cast<std::int32_t>(v);
  }

  /// Every field as one contiguous, unchecked view (index = FieldId), for
  /// a caller that bounds-checks a whole access pattern once — the
  /// compiled action runs of MatchActionTable, the InferenceEngine's
  /// parse-time image. Whatever it writes must stay inside the domain.
  std::span<std::int32_t> values() { return values_; }
  std::span<const std::int32_t> values() const { return values_; }

  /// Returns the PHV to its parse-time state (all fields zero) so a
  /// preallocated PHV can be reused across packets.
  void Reset() {
    for (std::int32_t& v : values_) v = 0;
  }

  const PhvLayout& layout() const { return *layout_; }

 private:
  const PhvLayout* layout_;
  std::vector<std::int32_t> values_;
};

}  // namespace pegasus::dataplane
