#include "trace/columns.hpp"

#include "common/error.hpp"

namespace pwx::trace {

std::uint32_t StringTable::intern(std::string_view name) {
  const auto it = index_.find(name);
  if (it != index_.end()) {
    return it->second;
  }
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(name);
  index_.emplace(names_.back(), id);
  return id;
}

std::optional<std::uint32_t> StringTable::find(std::string_view name) const {
  const auto it = index_.find(name);
  if (it == index_.end()) {
    return std::nullopt;
  }
  return it->second;
}

const std::string& StringTable::at(std::uint32_t id) const {
  PWX_REQUIRE(id < names_.size(), "string table id ", id, " out of range (have ",
              names_.size(), ")");
  return names_[id];
}

void EventColumns::reserve(std::size_t n) {
  times.reserve(n);
  kinds.reserve(n);
  ids.reserve(n);
  values.reserve(n);
}

void EventColumns::clear() {
  times.clear();
  kinds.clear();
  ids.clear();
  values.clear();
}

}  // namespace pwx::trace
