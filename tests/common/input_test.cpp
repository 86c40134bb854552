#include "common/input.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "expect_input_error.hpp"

namespace hybridnoc {
namespace {

// Tokens no number type accepts: a leading `+` or space, trailing text,
// NaN, infinity and the empty token.
const char* const kNeverNumbers[] = {"+5", " 5", "5 ", "5x", "nan", "inf",
                                     "-inf", "", "0x10", "--5"};

TEST(ParseNumber, IntBoundaries) {
  EXPECT_EQ(parse_number<int>("2147483647"), 2147483647);
  EXPECT_EQ(parse_number<int>("-2147483648"), -2147483647 - 1);
  EXPECT_EQ(parse_number<int>("-1"), -1);
  EXPECT_EQ(parse_number<int>("0"), 0);
  EXPECT_INPUT_ERROR(parse_number<int>("2147483648"), "got '2147483648'");
  EXPECT_INPUT_ERROR(parse_number<int>("-2147483649"), "whole number");
  EXPECT_INPUT_ERROR(parse_number<int>("4294967300"), "whole number");
  EXPECT_INPUT_ERROR(parse_number<int>("1.5"), "whole number");
  EXPECT_INPUT_ERROR(parse_number<int>("1e3"), "whole number");
  for (const char* t : kNeverNumbers) {
    SCOPED_TRACE(t);
    EXPECT_INPUT_ERROR(parse_number<int>(t), "whole number");
  }
}

TEST(ParseNumber, NodeIdBoundaries) {
  const NodeId max = std::numeric_limits<NodeId>::max();
  EXPECT_EQ(parse_number<NodeId>(std::to_string(max)), max);
  EXPECT_INPUT_ERROR(parse_number<NodeId>(std::to_string(std::int64_t{max} + 1)),
                     "whole number");
  for (const char* t : kNeverNumbers) {
    SCOPED_TRACE(t);
    EXPECT_INPUT_ERROR(parse_number<NodeId>(t), "whole number");
  }
}

TEST(ParseNumber, Uint64Boundaries) {
  EXPECT_EQ(parse_number<std::uint64_t>("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(parse_number<std::uint64_t>("0"), 0u);
  EXPECT_INPUT_ERROR(parse_number<std::uint64_t>("18446744073709551616"),
                     "whole number");
  // istream >> and strtoull both read "-1" as 2^64 - 1.
  EXPECT_INPUT_ERROR(parse_number<std::uint64_t>("-1"), "got '-1'");
  EXPECT_INPUT_ERROR(parse_number<std::uint64_t>("-0"), "whole number");
  for (const char* t : kNeverNumbers) {
    SCOPED_TRACE(t);
    EXPECT_INPUT_ERROR(parse_number<std::uint64_t>(t), "whole number");
  }
}

TEST(ParseNumber, DoubleBoundaries) {
  EXPECT_EQ(parse_number<double>("0.1"), 0.1);
  EXPECT_EQ(parse_number<double>("-2.5e-3"), -2.5e-3);
  EXPECT_EQ(parse_number<double>("1.7976931348623157e308"),
            std::numeric_limits<double>::max());
  EXPECT_INPUT_ERROR(parse_number<double>("1e309"), "a number");
  for (const char* t : kNeverNumbers) {
    SCOPED_TRACE(t);
    EXPECT_INPUT_ERROR(parse_number<double>(t), "a number");
  }
  // Infinity passes only a range that admits it; NaN never does.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(parse_number<double>("inf", 0.0, inf), inf);
  EXPECT_INPUT_ERROR(parse_number<double>("nan", -inf, inf), "got 'nan'");
}

TEST(ParseNumber, RangeIsInclusive) {
  EXPECT_EQ(parse_number<int>("2", 2, 8), 2);
  EXPECT_EQ(parse_number<int>("8", 2, 8), 8);
  EXPECT_INPUT_ERROR(parse_number<int>("9", 2, 8), "in [2, 8], got '9'");
  EXPECT_EQ(parse_number<double>("1", 0.0, 1.0), 1.0);
  EXPECT_INPUT_ERROR(parse_number<double>("1.0000001", 0.0, 1.0), "in [0, 1]");
}

/// Runs Flags over `args` as if they followed argv[0].
Flags flags(std::vector<std::string> args, const std::vector<Flags::Decl>& known) {
  args.insert(args.begin(), "tool");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  return Flags(static_cast<int>(argv.size()), argv.data(), 1, known);
}

const std::vector<Flags::Decl> kKnown = {
    {"k"}, {"rate"}, {"csv", 0}, {"resize"}, {"kill-link", 3}};

TEST(Flags, TypedGettersWithDefaults) {
  const Flags f = flags({"--k", "8", "--csv", "--rate", "-0.5"}, kKnown);
  EXPECT_EQ(f.num("k", 6, 2, 64), 8);
  EXPECT_EQ(f.num("rate", 0.1), -0.5);
  EXPECT_TRUE(f.has("csv"));
  EXPECT_FALSE(f.has("resize"));
  EXPECT_EQ(f.num<std::uint64_t>("resize", 7), 7u);
  EXPECT_EQ(f.str("k", "x"), "8");
}

TEST(Flags, LastUseWinsAndAllKeepsOrder) {
  const Flags f = flags({"--resize", "30", "--kill-link", "1", "2", "3",
                         "--resize", "70"},
                        kKnown);
  EXPECT_EQ(f.num<Cycle>("resize", 0), 70u);
  const auto resizes = f.all("resize");
  ASSERT_EQ(resizes.size(), 2u);
  EXPECT_EQ(resizes[0]->num<Cycle>(0), 30u);
  const auto links = f.all("kill-link");
  ASSERT_EQ(links.size(), 1u);
  EXPECT_EQ(links[0]->values, (std::vector<std::string>{"1", "2", "3"}));
  EXPECT_EQ(links[0]->num<int>(2), 3);
}

TEST(Flags, BadCommandLinesThrowBeforeAnyGetter) {
  EXPECT_INPUT_ERROR(flags({"--rat", "0.3"}, kKnown), "unknown flag '--rat'");
  EXPECT_INPUT_ERROR(flags({"0.3"}, kKnown), "unexpected argument '0.3'");
  EXPECT_INPUT_ERROR(flags({"--csv", "1"}, kKnown), "unexpected argument '1'");
  EXPECT_INPUT_ERROR(flags({"--k"}, kKnown), "--k needs a value");
  EXPECT_INPUT_ERROR(flags({"--k", "--csv"}, kKnown), "--k needs a value");
  EXPECT_INPUT_ERROR(flags({"--kill-link", "1", "2"}, kKnown),
                     "--kill-link needs 3 values");
}

TEST(Flags, BadValueNamesTheFlag) {
  const Flags f = flags({"--k", "1x", "--rate", "nan"}, kKnown);
  EXPECT_INPUT_ERROR(f.num("k", 6), "bad --k: expected a whole number");
  EXPECT_INPUT_ERROR(f.num("rate", 0.1), "bad --rate: expected a number");
  EXPECT_INPUT_ERROR(f.num("k", 6, 2, 64), "got '1x'");
}

TEST(LineFields, ReadsTypedFieldsAndRejectsLeftovers) {
  std::istringstream in("7 -3 1 word\n1 2 3\n");
  LineReader reader(in, "f.txt");
  std::string line;
  ASSERT_TRUE(reader.next(&line));
  LineFields f(reader, line, "bad line");
  std::uint64_t a = 0;
  bool b = false;
  f.read(a);
  EXPECT_EQ(a, 7u);
  EXPECT_EQ(f.num<int>(), -3);
  f.read(b);
  EXPECT_TRUE(b);
  EXPECT_EQ(f.word(), "word");
  f.end();
  EXPECT_INPUT_ERROR(f.word(), "f.txt:1: bad line");

  ASSERT_TRUE(reader.next(&line));
  LineFields g(reader, line, "bad line");
  g.read(b);
  EXPECT_INPUT_ERROR(g.read(b),
                     "f.txt:2: bad line: expected a whole number in [0, 1], got '2'");
  LineFields h(reader, line, "bad line");
  EXPECT_INPUT_ERROR(h.end(), "f.txt:2: bad line");
}

}  // namespace
}  // namespace hybridnoc
