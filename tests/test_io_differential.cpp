// Differential property tests of the .soc reader and writer: the one-pass
// lexer with from_chars numbers (src/io) against the getline/istringstream/
// stoll/stod reference in tests/io_reference. On every input both readers
// must agree on acceptance, on the exact error string and on the system
// name, and the text each writer makes of its reader's model must be the
// same bytes.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "io/soc_format.h"
#include "io/soc_hier.h"
#include "io_reference/soc_reference.h"
#include "ordering/baselines.h"
#include "soc_bad_corpus.h"
#include "synth/generator.h"
#include "synth/pareto_gen.h"
#include "sysmodel/builder.h"
#include "util/rng.h"

namespace ermes::io {
namespace {

using sysmodel::ChannelId;
using sysmodel::ProcessId;
using sysmodel::SystemModel;

// Printable form of a test input for failure messages.
std::string escaped(const std::string& text) {
  std::string out;
  for (const char c : text.substr(0, 400)) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '\n') {
      out += "\\n";
    } else if (u < 0x20 || u >= 0x7f) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\x%02x", u);
      out += buf;
    } else {
      out += c;
    }
  }
  if (text.size() > 400) out += "...";
  return out;
}

::testing::AssertionResult readers_agree(const std::string& text) {
  const ParseResult got = parse_soc(text);
  const ParseResult want = reference::parse_soc(text);
  const auto differ = [&text](const char* what) {
    return ::testing::AssertionFailure()
           << what << " differs on \"" << escaped(text) << "\"";
  };
  if (got.ok != want.ok) {
    return differ("ok") << ": got " << got.ok << " (" << got.error
                        << "), reference " << want.ok << " (" << want.error
                        << ")";
  }
  if (got.error != want.error) {
    return differ("error") << ": got \"" << escaped(got.error)
                           << "\", reference \"" << escaped(want.error)
                           << "\"";
  }
  if (got.system_name != want.system_name) return differ("system_name");
  if (got.ok) {
    const std::string written = write_soc(got.system, got.system_name);
    const std::string reference_written =
        reference::write_soc(want.system, want.system_name);
    if (written != reference_written) return differ("write_soc output");
    // The writers alone, on one model.
    if (write_soc(want.system, want.system_name) != reference_written) {
      return differ("writer output on the reference model");
    }
  }
  return ::testing::AssertionSuccess();
}

// A generated system with Pareto sets, shuffled I/O orders, FIFO and
// unbounded capacities and a few primed processes.
SystemModel generated_system(std::uint64_t seed, std::int32_t processes) {
  synth::GeneratorConfig config;
  config.num_processes = processes;
  config.num_channels = processes + processes / 2;
  config.feedback_fraction = 0.2;
  config.seed = seed;
  SystemModel sys = synth::generate_soc(config);
  synth::attach_pareto_sets(sys, seed + 5);
  util::Rng rng(seed * 7);
  ordering::apply_random_ordering(sys, rng);
  for (ChannelId c = 0; c < sys.num_channels(); ++c) {
    if (rng.flip(0.3)) sys.set_channel_capacity(c, rng.uniform_int(1, 5));
    if (rng.flip(0.05)) {
      sys.set_channel_capacity(c, sysmodel::kUnboundedCapacity);
    }
  }
  for (ProcessId p = 0; p < sys.num_processes(); ++p) {
    if (rng.flip(0.1)) sys.set_primed(p, true);
  }
  return sys;
}

// Number tokens on which stoll/stod and from_chars disagree unless the
// reader handles them: signs, hex floats, underflow, overflow, non-finite
// spellings, magnitude bounds, leading zeros and malformed forms.
std::vector<std::string> number_corners() {
  std::vector<std::string> corners = {
      "7", "+7", "-7", "-0", "+0", "0", "007", "0000000000000000000000007",
      "+-1", "-+1", "--1", "++1", "+", "-", ".", "+.", "-.5", "+.5", ".5",
      "5.", "0.5", "1.5.5", "1,5", "1_0", "1a", "0b1",
      // hexadecimal floats (stod reads them, from_chars only without "0x")
      "0x1p4", "0X1P4", "-0x1p4", "+0x1p4", "0x10", "0xA", "0x.8", "0x1.",
      "0x1.8p1", "0x", "0x.", "0xp1", "0x1p", "0x-1", "0x+1", "0xg", "00x1",
      "0x1p-1074", "0x1p-1080", "0x1.fffffffffffffp-1023",
      "0x1.fffffffffffff8p-1023", "0x1p2000",
      // exponents, underflow and overflow
      "1e5", "1E5", "1e+5", "1e-5", "1e", "1e+", "1e-", "e5", "1.5e-3",
      "1e-400", "-1e-400", "1e-310", "4.9406564584124654e-324", "2e-324",
      "3e-324", "2.2250738585072012e-308", "2.2250738585072013e-308",
      "2.2250738585072014e-308", "0e-400", "0.0e-99999999999999999999",
      "0e99999999999999999999", "1e-99999999999999999999", "1e999",
      "-1e999", "1e308", "2e308",
      // non-finite spellings
      "inf", "-inf", "+inf", "INF", "Inf", "infinity", "INFINITY", "infinit",
      "nan", "-nan", "NaN", "NAN", "nan(1)", "nan()", "nanx",
      // magnitude bounds: 1e12 for integers, 1e18 for areas
      "1000000000000", "1000000000001", "-1000000000000", "-1000000000001",
      "999999999999.5", "1e12", "1e18", "1000000000000000000",
      "1000000000000000128", "1000000000000000129", "1.0000000000000001e18",
      "2e18", "9223372036854775807", "9223372036854775808",
      "-9223372036854775808", "12345678901234567890", "99999999999999999999",
      "18446744073709551616", "123456789012345678901234567890",
      // bytes that end a C string or are not ASCII digits
      std::string("1\0", 2), std::string("\0", 1), std::string("1\0002", 3),
      "\xd9\xa3", "\xef\xbc\x91", "1\xa0"};
  return corners;
}

// A small valid document with one placeholder "@" for a number token.
const std::vector<std::string>& number_templates() {
  static const std::vector<std::string> templates = {
      "process a latency @\n",
      "process a latency 1 area @\n",
      "process a latency 1 area @ primed\n",
      "process a latency 1\nprocess b latency 2\n"
      "channel ab a -> b latency @\n",
      "process a latency 1\nprocess b latency 2\n"
      "channel ab a -> b latency 0 capacity @\n",
      "process a latency 1\nimpl a fast latency @ area 2\n",
      "process a latency 1\nimpl a fast latency 1 area @ selected\n",
      "process a latency 1\nimpl a fast latency 1 area 2\n"
      "impl a slow latency 4 area @ selected\n",
  };
  return templates;
}

std::string substitute(const std::string& templ, const std::string& token) {
  std::string text = templ;
  text.replace(text.find('@'), 1, token);
  return text;
}

// Variants of a valid document that exercise the lexer: C-locale blanks,
// line endings, comments, NUL and non-ASCII bytes, missing final newline.
std::vector<std::string> lexer_corners() {
  const std::string a = "process a latency 1";
  const std::string b = "process b latency 2";
  const std::string ab = "channel ab a -> b latency 0";
  return {
      "",
      "\n",
      "\n\n\n",
      "# only a comment",
      "#",
      "   \t  \n\t\n",
      a,  // no final newline
      a + "\n" + b + "\n" + ab,
      a + "\r\n" + b + "\r\n" + ab + "\r\n",
      a + "\r\r\n",
      "\r\n\r\n" + a + "\r\n",
      "process\va\flatency\t1\r\n",
      "\v\fprocess a latency 1\v\f\n",
      a + " # a comment\n",
      a + " #comment with # inside\n",
      a + "# not a comment: glued to the token\n",
      "process a#b latency 1\n",
      "process a latency 1 #\n" + b + "\n",
      "  # indented comment\n" + a + "\n",
      "system s # name\n" + a + "\n",
      "system s\nsystem t\n",
      "system #\n",
      a + "\n" + b + "\n" + ab + "\ngets b ab # only one\n",
      std::string("process a\0 latency 1\n", 21),
      std::string("process a latency 1\0\n", 21),
      std::string("\0\n", 2),
      std::string("process a latency 1\n\0", 21),
      "process a\xa0latency 1\n",
      "process \xc3\xa9t\xc3\xa9 latency 1\n",
      "process a latency 1\x85\n",
      "process a latency 1\n\x1c\n",
      "process a latency 1\n\x1f\n",
      "process a latency 1\n\x7f\n",
  };
}

TEST(SocParserDifferential, GeneratedSystemsAgree) {
  const std::int32_t sizes[] = {4, 5, 12, 30, 80, 200};
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const SystemModel sys = generated_system(seed, sizes[seed % 6]);
    const std::string text = write_soc(sys, "gen" + std::to_string(seed));
    ASSERT_TRUE(readers_agree(text)) << "seed " << seed;
    // The written text is the canonical form: it reads back to itself.
    const ParseResult parsed = parse_soc(text);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    EXPECT_EQ(write_soc(parsed.system, parsed.system_name), text);
  }
}

TEST(SocParserDifferential, BadCorpusAgrees) {
  for (const ermes::testing::BadSoc& bad : ermes::testing::bad_soc_corpus()) {
    EXPECT_TRUE(readers_agree(bad.text)) << bad.label;
  }
  EXPECT_TRUE(readers_agree(ermes::testing::huge_token_soc(1u << 16)));
}

TEST(SocParserDifferential, EveryPrefixAgrees) {
  const std::string full = write_soc(generated_system(3, 6), "prefixes");
  for (std::size_t len = 0; len <= full.size(); ++len) {
    ASSERT_TRUE(readers_agree(full.substr(0, len))) << "len " << len;
  }
}

TEST(SocParserDifferential, NumberCornersAgree) {
  for (const std::string& templ : number_templates()) {
    for (const std::string& token : number_corners()) {
      EXPECT_TRUE(readers_agree(substitute(templ, token)));
    }
  }
}

// The hierarchical reader shares the lexer and the number readers: on flat
// documents it must accept exactly what the reference accepts.
TEST(SocParserDifferential, HierReaderNumberCornersAgree) {
  for (const std::string& templ : number_templates()) {
    for (const std::string& token : number_corners()) {
      const std::string text = substitute(templ, token);
      const ParseResult got = parse_soc_flattened(text);
      const ParseResult want = reference::parse_soc(text);
      ASSERT_EQ(got.ok, want.ok) << escaped(text) << ": " << got.error;
      EXPECT_EQ(got.error, want.error) << escaped(text);
      if (got.ok) {
        EXPECT_EQ(write_soc(got.system, got.system_name),
                  reference::write_soc(want.system, want.system_name))
            << escaped(text);
      }
    }
  }
}

TEST(SocParserDifferential, LexerCornersAgree) {
  for (const std::string& text : lexer_corners()) {
    EXPECT_TRUE(readers_agree(text));
  }
}

// Random edits of valid documents: replace a token with a number corner,
// insert or delete a byte (blanks, line ends, '#', NUL, signs, digits, hex
// and exponent letters), duplicate or drop a line.
TEST(SocParserDifferential, RandomMutationsAgree) {
  const std::vector<std::string> corners = number_corners();
  static const char kBytes[] = "  \t\v\f\r\n\n#\0+-.059aexpXP>";
  const std::string bytes(kBytes, sizeof kBytes - 1);
  std::vector<std::string> bases;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    bases.push_back(write_soc(generated_system(seed, 6), "m"));
  }
  bases.push_back(write_soc(sysmodel::make_dac14_motivating_example(), "dac"));
  util::Rng rng(2014);
  for (int trial = 0; trial < 4000; ++trial) {
    std::string text = bases[rng.index(bases.size())];
    const int edits = static_cast<int>(rng.uniform_int(1, 3));
    for (int e = 0; e < edits && !text.empty(); ++e) {
      const std::size_t at = rng.index(text.size());
      switch (rng.index(5)) {
        case 0: {  // replace the token around `at`
          const auto separator = [](char c) { return c == ' ' || c == '\n'; };
          std::size_t begin = at;
          while (begin > 0 && !separator(text[begin - 1])) --begin;
          std::size_t end = at;
          while (end < text.size() && !separator(text[end])) ++end;
          text.replace(begin, end - begin, corners[rng.index(corners.size())]);
          break;
        }
        case 1:
          text.insert(at, 1, bytes[rng.index(bytes.size())]);
          break;
        case 2:
          text.erase(at, 1);
          break;
        case 3: {  // duplicate the line holding `at`
          const std::size_t begin = text.rfind('\n', at) + 1;
          const std::size_t end = text.find('\n', at);
          const std::string line =
              text.substr(begin, end == std::string::npos ? std::string::npos
                                                          : end - begin + 1);
          text.insert(begin, line);
          break;
        }
        default: {  // drop the line holding `at`
          const std::size_t begin = text.rfind('\n', at) + 1;
          const std::size_t end = text.find('\n', at);
          text.erase(begin, end == std::string::npos ? std::string::npos
                                                     : end - begin + 1);
          break;
        }
      }
    }
    ASSERT_TRUE(readers_agree(text)) << "trial " << trial;
  }
}

// load_soc reads the file's bytes as they are: the same result as
// parse_soc on the text, NUL bytes and a missing final newline included.
TEST(SocParserDifferential, LoadMatchesParse) {
  const std::string path = ::testing::TempDir() + "/ermes_io_differential.soc";
  const std::vector<std::string> texts = {
      write_soc(generated_system(5, 30), "file"),
      std::string("process a latency 1\nprocess b\0 latency 2", 40),
      "", "process a latency 1 area 0x1p4"};
  for (const std::string& text : texts) {
    {
      std::ofstream out(path, std::ios::binary);
      out.write(text.data(), static_cast<std::streamsize>(text.size()));
    }
    const ParseResult loaded = load_soc(path);
    const ParseResult parsed = reference::parse_soc(text);
    ASSERT_EQ(loaded.ok, parsed.ok) << escaped(text);
    EXPECT_EQ(loaded.error, parsed.error);
    if (loaded.ok) {
      EXPECT_EQ(write_soc(loaded.system, loaded.system_name),
                reference::write_soc(parsed.system, parsed.system_name));
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ermes::io
