#include "io/soc_lexer.h"

#include <locale.h>  // newlocale, locale_t (POSIX)

#include <cerrno>
#include <cfloat>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>

namespace ermes::io::detail {

namespace {

// The C locale's isspace() minus '\n', which ends the line instead.
bool is_blank(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r' && c != '\n');
}

bool is_digit(char c) { return c >= '0' && c <= '9'; }

bool is_hex_digit(char c) {
  return is_digit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F');
}

// The grammar rejects what strtod flags with ERANGE. Below DBL_MIN in
// magnitude strtod flags a result that is not exact, and it decides "below
// DBL_MIN" after rounding to 53 bits with an unbounded exponent. Both need
// the exact input, which from_chars does not report, so results in this
// band (0 < |value| <= DBL_MIN) are read again with strtod in the C locale.
// No realistic model has an area there.
bool strtod_underflows(std::string_view token) {
  struct CLocale {
    CLocale() = default;
    CLocale(const CLocale&) = delete;
    CLocale& operator=(const CLocale&) = delete;
    ~CLocale() {
      if (handle != nullptr) freelocale(handle);
    }
    locale_t handle = newlocale(LC_ALL_MASK, "C", nullptr);
  };
  static const CLocale c_locale;
  const std::string copy(token);
  errno = 0;
  // newlocale fails only when out of memory; the process locale is then
  // the best remaining choice (it is "C" unless the program changed it).
  (void)(c_locale.handle != nullptr
             ? strtod_l(copy.c_str(), nullptr, c_locale.handle)
             : std::strtod(copy.c_str(), nullptr));
  return errno == ERANGE;
}

}  // namespace

bool SocLexer::next_line() {
  tokens_.clear();
  const char* p = text_.data() + pos_;
  const char* const end = text_.data() + text_.size();
  if (p == end) return false;
  ++line_no_;
  while (p != end && *p != '\n') {
    if (is_blank(*p)) {
      ++p;
      continue;
    }
    if (*p == '#') {  // comment to end of line
      const void* nl = std::memchr(p, '\n', static_cast<std::size_t>(end - p));
      p = nl != nullptr ? static_cast<const char*>(nl) : end;
      break;
    }
    const char* const start = p;
    while (p != end && *p != '\n' && !is_blank(*p)) ++p;
    tokens_.emplace_back(start, static_cast<std::size_t>(p - start));
  }
  pos_ = static_cast<std::size_t>(p - text_.data()) + (p != end ? 1 : 0);
  return true;
}

bool parse_i64(std::string_view token, std::int64_t& out) {
  const char* p = token.data();
  const char* const end = p + token.size();
  // from_chars takes neither '+' nor whitespace; stoll takes '+'.
  const bool negative = p != end && *p == '-';
  if (p != end && (*p == '+' || *p == '-')) ++p;
  if (p == end || !is_digit(*p)) return false;
  std::uint64_t magnitude = 0;
  const auto [last, ec] = std::from_chars(p, end, magnitude);
  if (ec != std::errc() || last != end ||
      magnitude > static_cast<std::uint64_t>(kMaxMagnitude)) {
    return false;
  }
  const auto value = static_cast<std::int64_t>(magnitude);
  out = negative ? -value : value;
  return true;
}

bool parse_f64(std::string_view token, double& out) {
  const char* p = token.data();
  const char* const end = p + token.size();
  const bool negative = p != end && *p == '-';
  if (p != end && (*p == '+' || *p == '-')) ++p;
  // A finite number starts with a digit or '.'; this also rejects a second
  // sign, which from_chars would take, and inf/nan, which are non-finite.
  if (p == end || !(is_digit(*p) || *p == '.')) return false;
  std::chars_format format = std::chars_format::general;
  if (end - p >= 2 && p[0] == '0' && (p[1] == 'x' || p[1] == 'X')) {
    // from_chars reads hex floats without the prefix, and with a sign after
    // it, which strtod does not accept.
    p += 2;
    if (p == end || !(is_hex_digit(*p) || *p == '.')) return false;
    format = std::chars_format::hex;
  }
  double value = 0.0;
  const auto [last, ec] = std::from_chars(p, end, value, format);
  // result_out_of_range covers overflow and underflow to zero, both ERANGE.
  if (ec != std::errc() || last != end) return false;
  if (value != 0.0 && value <= DBL_MIN && strtod_underflows(token)) {
    return false;
  }
  if (!std::isfinite(value) || value > kMaxAreaMagnitude) return false;
  out = negative ? -value : value;
  return true;
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  out.clear();
  // Regular files are read straight into place; anything past the size
  // (a growing file, a pipe) is appended in chunks.
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (!ec) out.resize(static_cast<std::size_t>(size));
  in.read(out.data(), static_cast<std::streamsize>(out.size()));
  out.resize(static_cast<std::size_t>(in.gcount()));
  char chunk[64 * 1024];
  while (in) {
    in.read(chunk, sizeof chunk);
    out.append(chunk, static_cast<std::size_t>(in.gcount()));
  }
  return true;
}

}  // namespace ermes::io::detail
