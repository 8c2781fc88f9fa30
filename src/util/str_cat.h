#pragma once
// str_cat: builds a string from text and integer parts by appending each in
// turn — str_cat("b", 3, ".t", 7) == "b3.t7".
//
// It replaces `"lit" + std::to_string(n)`, which resolves to
// operator+(const char*, std::string&&) and prepends the literal with
// insert(0, ...). GCC 12 at -O2 and above misreads that inlined insert as
// an overlapping memcpy and raises -Wrestrict, which breaks warnings-as-
// errors builds. Appending into one fresh string never takes that path.

#include <concepts>
#include <string>
#include <string_view>

namespace ermes::util {

namespace detail {

inline void append_part(std::string& out, std::string_view part) {
  out += part;
}

template <std::integral T>
  requires(!std::same_as<T, char> && !std::same_as<T, bool>)
void append_part(std::string& out, T value) {
  out += std::to_string(value);
}

}  // namespace detail

template <typename... Parts>
std::string str_cat(const Parts&... parts) {
  std::string out;
  (detail::append_part(out, parts), ...);
  return out;
}

}  // namespace ermes::util
