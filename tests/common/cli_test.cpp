#include "common/cli.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <utility>

namespace ptstore {
namespace {

// Every well-formed number reads exactly as std::strtoull reads it.
TEST(Cli, WellFormedNumbersParseAsStrtoull) {
  for (const char* text : {"0", "1", "42", "007", "0x2a", "0X2A", "0777",
                           "18446744073709551615", "0xffffffffffffffff"}) {
    for (const int base : {0, 10}) {
      char* end = nullptr;
      const u64 want = std::strtoull(text, &end, base);
      u64 got = 123;
      if (*end != '\0') {
        EXPECT_FALSE(parse_u64(text, got, base)) << text << " base " << base;
        EXPECT_EQ(got, 123u);
        continue;
      }
      ASSERT_TRUE(parse_u64(text, got, base)) << text << " base " << base;
      EXPECT_EQ(got, want) << text << " base " << base;
    }
  }
}

TEST(Cli, MalformedNumbersAreRejected) {
  for (const char* text : {"", "-1", "+1", " 1", "1 ", "abc", "12x", "0x",
                           "08", "18446744073709551616",
                           "99999999999999999999", "0x10000000000000000"}) {
    u64 out = 7;
    EXPECT_FALSE(parse_u64(text, out, 0)) << "'" << text << "'";
    EXPECT_EQ(out, 7u);
  }
  u64 out = 7;
  EXPECT_FALSE(parse_u64("0x10", out, 10));  // Decimal only.
}

TEST(Cli, ParseCountChecksTheRange) {
  u64 out = 0;
  EXPECT_TRUE(parse_count("t", "--n", "8", 1, 8, out));
  EXPECT_EQ(out, 8u);
  EXPECT_FALSE(parse_count("t", "--n", "9", 1, 8, out));
  EXPECT_FALSE(parse_count("t", "--n", "0", 1, 8, out));
  EXPECT_EQ(out, 8u);
}

TEST(Cli, ParseRealIsStrictAndRangeChecked) {
  for (const auto& [text, want] :
       {std::pair{"90", 90.0}, {"0", 0.0}, {"100", 100.0}, {"92.5", 92.5},
        {".5", 0.5}, {"9e1", 90.0}, {"5e-1", 0.5}}) {
    double out = -1.0;
    ASSERT_TRUE(parse_real("t", "--pct", text, 0.0, 100.0, out)) << text;
    EXPECT_EQ(out, want) << text;
  }
  for (const char* text : {"", "abc", "-5", "+5", " 5", "5 ", "5x", ".", "nan",
                           "inf", "NaN", "0x10", "1e999", "100.5", "1-2"}) {
    double out = -1.0;
    EXPECT_FALSE(parse_real("t", "--pct", text, 0.0, 100.0, out))
        << "'" << text << "'";
    EXPECT_EQ(out, -1.0) << "'" << text << "'";
  }
}

}  // namespace
}  // namespace ptstore
