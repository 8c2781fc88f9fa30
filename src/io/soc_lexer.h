#pragma once
// Lexer, number readers and file reader shared by the flat
// (soc_format.cpp) and the hierarchical (soc_hier.cpp) .soc readers.
//
// The lexer walks the text once and copies nothing: tokens are
// std::string_view slices of the caller's text, collected into one reused
// buffer per line. Lines end at '\n' (a final line without one still
// counts); tokens are separated by the C locale's blanks (' ', '\t', '\v',
// '\f', '\r'); a token that starts with '#' opens a comment that runs to
// the end of the line ('#' inside a token is an ordinary character).
//
// The number readers accept exactly what std::stoll / std::stod in the C
// locale accept on a whole token, within the grammar's magnitude bounds,
// without depending on the process locale and without exceptions.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ermes::io::detail {

using Tokens = std::vector<std::string_view>;

class SocLexer {
 public:
  explicit SocLexer(std::string_view text) : text_(text) {}

  /// Advances to the next line and splits it into tokens(); false once the
  /// text is exhausted. Blank and comment-only lines yield no tokens.
  bool next_line();

  const Tokens& tokens() const { return tokens_; }
  /// 1-based number of the current line (the number of lines read so far).
  int line_no() const { return line_no_; }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  int line_no_ = 0;
  Tokens tokens_;
};

/// Upper bound on latencies and capacities: large enough for any real
/// design, small enough that sums and products across a system stay far
/// away from int64/double overflow when the input is hostile.
inline constexpr std::int64_t kMaxMagnitude = 1'000'000'000'000;  // 1e12

/// Upper bound on the magnitude of areas.
inline constexpr double kMaxAreaMagnitude = 1e18;

/// Reads a decimal integer: optional '+' or '-', then digits only, and
/// |value| <= kMaxMagnitude. Leading zeros are allowed.
bool parse_i64(std::string_view token, std::int64_t& out);

/// Reads a finite double with |value| <= kMaxAreaMagnitude: optional sign,
/// then a decimal or "0x" hexadecimal float as strtod reads it. inf and nan
/// are rejected, and so are results that strtod flags with ERANGE: overflow,
/// and underflow (a tiny result that is not exact, e.g. 1e-400 or 1e-310).
bool parse_f64(std::string_view token, double& out);

/// Reads the whole file at `path` into `out`; false if it cannot be opened.
bool read_file(const std::string& path, std::string& out);

}  // namespace ermes::io::detail
