#include "dataplane/phv.hpp"

namespace pegasus::dataplane {

FieldId PhvLayout::AddField(std::string name, int width_bits) {
  if (width_bits <= 0 || width_bits > 32) {
    throw std::invalid_argument("PhvLayout: field width out of [1,32]: " +
                                name);
  }
  for (const auto& existing : names_) {
    if (existing == name) {
      throw std::invalid_argument("PhvLayout: duplicate field " + name);
    }
  }
  names_.push_back(std::move(name));
  widths_.push_back(width_bits);
  total_bits_ += static_cast<std::size_t>(width_bits);
  return names_.size() - 1;
}

FieldId PhvLayout::Find(const std::string& name) const {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return i;
  }
  throw std::out_of_range("PhvLayout: no field named " + name);
}

}  // namespace pegasus::dataplane
