// Fixed, name-sorted lookup tables: the shape of the allocator-backend,
// estimator and packing-policy registries. Each is a constexpr array of
// entries with a `const char* name`, sorted by name in byte order, so
// the listing order is the table order and a lookup is a binary search
// (the request validator looks a name up on every request).
#pragma once

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <string>
#include <string_view>

namespace xmem::util {

/// Whether the table's names are strictly increasing; registries
/// static_assert it so a new row cannot break the binary search.
template <typename Entry, std::size_t N>
constexpr bool names_sorted(const Entry (&table)[N]) {
  for (std::size_t i = 1; i < N; ++i) {
    if (!(std::string_view(table[i - 1].name) <
          std::string_view(table[i].name))) {
      return false;
    }
  }
  return true;
}

/// The entry called `name`, or null.
template <typename Entry, std::size_t N>
const Entry* find_name(const Entry (&table)[N], std::string_view name) {
  const Entry* it = std::lower_bound(
      std::begin(table), std::end(table), name,
      [](const Entry& entry, std::string_view key) {
        return std::string_view(entry.name) < key;
      });
  return it != std::end(table) && name == it->name ? it : nullptr;
}

/// "a, b, c": the names for an unknown-name message.
template <typename Entry, std::size_t N>
std::string joined_names(const Entry (&table)[N]) {
  std::string joined;
  for (const Entry& entry : table) {
    if (!joined.empty()) joined += ", ";
    joined += entry.name;
  }
  return joined;
}

}  // namespace xmem::util
