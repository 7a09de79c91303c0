#include "common/cli.h"

#include <gtest/gtest.h>

#include <cstdlib>

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

}  // namespace
}  // namespace ptstore
