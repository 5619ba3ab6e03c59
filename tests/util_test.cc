// Unit tests for src/util (Status/Result, enumerators, RNG) and the
// constant interner (src/base/interner.h).

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "base/interner.h"
#include "util/combinatorics.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/str.h"

namespace ocdx {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::ParseError("bad token");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_EQ(s.message(), "bad token");
  EXPECT_EQ(s.ToString(), "ParseError: bad token");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

Result<int> Doubled(Result<int> in) {
  OCDX_ASSIGN_OR_RETURN(int v, std::move(in));
  return v * 2;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(Doubled(21).value(), 42);
  EXPECT_FALSE(Doubled(Status::Internal("x")).ok());
}

TEST(InternerTest, StableIds) {
  StringInterner in;
  uint32_t a = in.Intern("alpha");
  uint32_t b = in.Intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(in.Intern("alpha"), a);
  EXPECT_EQ(in.Get(b), "beta");
  EXPECT_EQ(in.Find("gamma"), UINT32_MAX);
  EXPECT_EQ(in.size(), 2u);
}

TEST(InternerTest, IdsFollowFirstSightAcrossGrowth) {
  // 100k names force many table growths and arena chunks; ids stay the
  // first-sight order and every name still maps back to its id.
  constexpr uint32_t kNames = 100000;
  StringInterner in;
  for (uint32_t i = 0; i < kNames; ++i) {
    ASSERT_EQ(in.Intern("name" + std::to_string(i)), i);
  }
  ASSERT_EQ(in.size(), kNames);
  for (uint32_t i = 0; i < kNames; ++i) {
    const std::string name = "name" + std::to_string(i);
    ASSERT_EQ(in.Intern(name), i);
    ASSERT_EQ(in.Find(name), i);
    ASSERT_EQ(in.Get(i), name);
  }
  EXPECT_EQ(in.size(), kNames);
}

TEST(InternerTest, FindOnEmptyInterner) {
  const StringInterner in;
  EXPECT_EQ(in.Find("x"), UINT32_MAX);
  EXPECT_EQ(in.Find(""), UINT32_MAX);
  EXPECT_EQ(in.size(), 0u);
}

TEST(InternerTest, EmptyAndPrefixSharingNamesAreDistinct) {
  StringInterner in;
  const std::vector<std::string> names = {"abc", "", "a", "ab"};
  for (uint32_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(in.Intern(names[i]), i);
  }
  for (uint32_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(in.Find(names[i]), i) << "'" << names[i] << "'";
    EXPECT_EQ(in.Get(i), names[i]);
  }
  EXPECT_EQ(in.Find("abcd"), UINT32_MAX);
  EXPECT_EQ(in.size(), names.size());
}

TEST(InternerTest, ViewsOutliveLaterInterns) {
  // Get hands out views into the arena; later Interns open new chunks
  // but never move old bytes, so a held view still reads its name.
  StringInterner in;
  const std::string_view alpha = in.Get(in.Intern("alpha"));
  const std::string_view omega = in.Get(in.Intern(std::string(5000, 'w')));
  for (int i = 0; i < 100000; ++i) in.Intern("k" + std::to_string(i));
  EXPECT_EQ(alpha, "alpha");
  EXPECT_EQ(omega, std::string(5000, 'w'));
}

TEST(PartitionEnumeratorTest, CountsAreBellNumbers) {
  // Bell numbers: 1, 1, 2, 5, 15, 52.
  const uint64_t expected[] = {1, 1, 2, 5, 15, 52};
  for (size_t n = 0; n <= 5; ++n) {
    PartitionEnumerator pe(n);
    uint64_t count = 0;
    while (pe.Next()) ++count;
    EXPECT_EQ(count, expected[n]) << "n=" << n;
    EXPECT_EQ(BellNumber(n), expected[n]) << "n=" << n;
  }
}

TEST(PartitionEnumeratorTest, PartitionsAreDistinctAndValid) {
  PartitionEnumerator pe(4);
  std::set<std::vector<uint32_t>> seen;
  while (pe.Next()) {
    const auto& rgs = pe.blocks();
    ASSERT_EQ(rgs.size(), 4u);
    // Restricted-growth property.
    uint32_t max_seen = 0;
    EXPECT_EQ(rgs[0], 0u);
    for (size_t i = 1; i < rgs.size(); ++i) {
      max_seen = std::max(max_seen, rgs[i - 1]);
      EXPECT_LE(rgs[i], max_seen + 1);
    }
    EXPECT_TRUE(seen.insert(rgs).second) << "duplicate partition";
  }
  EXPECT_EQ(seen.size(), 15u);
}

TEST(AssignmentEnumeratorTest, EnumeratesAllTuples) {
  AssignmentEnumerator ae(3, 2);
  int count = 0;
  std::set<std::vector<uint32_t>> seen;
  while (ae.Next()) {
    ++count;
    seen.insert(ae.digits());
  }
  EXPECT_EQ(count, 8);
  EXPECT_EQ(seen.size(), 8u);
}

TEST(AssignmentEnumeratorTest, EmptyAndZeroBase) {
  AssignmentEnumerator empty(0, 5);
  EXPECT_TRUE(empty.Next());
  EXPECT_TRUE(empty.digits().empty());
  EXPECT_FALSE(empty.Next());

  AssignmentEnumerator zero(2, 0);
  EXPECT_FALSE(zero.Next());
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, BelowInRange) {
  Rng r(13);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.Below(10), 10u);
    uint64_t x = r.Between(5, 9);
    EXPECT_GE(x, 5u);
    EXPECT_LE(x, 9u);
  }
}

TEST(StrTest, StrCatAndJoin) {
  EXPECT_EQ(StrCat("a", 1, "b"), "a1b");
  EXPECT_EQ(Join({"x", "y", "z"}, ", "), "x, y, z");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StrTest, ParseU64AcceptsPlainDecimalOnly) {
  uint64_t value = 7;
  for (const char* bad : {"", "+1", " 1", "1 ", "-0", "0x1", "1.0",
                          "18446744073709551616"}) {
    EXPECT_FALSE(ParseU64(bad, &value)) << "'" << bad << "'";
  }
  EXPECT_EQ(value, 7u) << "a rejected text leaves the output untouched";
  ASSERT_TRUE(ParseU64("0", &value));
  EXPECT_EQ(value, 0u);
  ASSERT_TRUE(ParseU64("0042", &value));
  EXPECT_EQ(value, 42u);
  ASSERT_TRUE(ParseU64("18446744073709551615", &value));
  EXPECT_EQ(value, UINT64_MAX);
}

}  // namespace
}  // namespace ocdx
