#pragma once
// The line-at-a-time .soc reader and ostream writer that src/io/soc_format
// replaced with its one-pass lexer: a test-only reference kept as an
// independent oracle for it (tests/test_io_differential.cpp). It splits
// lines with std::getline, tokens with an istringstream, looks names up in
// std::map and reads numbers with std::stoll/std::stod, so it shares no
// code with the production reader. It publishes no metrics.

#include <string>

#include "io/soc_format.h"

namespace ermes::io::reference {

/// Parses a model from text; same contract as io::parse_soc.
ParseResult parse_soc(const std::string& text);

/// Serializes a model; same contract as io::write_soc.
std::string write_soc(const sysmodel::SystemModel& sys,
                      const std::string& system_name = "system");

}  // namespace ermes::io::reference
