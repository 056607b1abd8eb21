// Unit tests for DynamicBitset, exercising word boundaries in particular:
// the taxonomy's ancestor index depends on bits at 63/64/65 and on
// combining bitsets of different word counts behaving identically to the
// std::set representation they replaced.

#include <gtest/gtest.h>

#include <vector>

#include "util/bitset.h"

namespace classic {
namespace {

TEST(DynamicBitsetTest, StartsEmpty) {
  DynamicBitset b;
  EXPECT_TRUE(b.Empty());
  EXPECT_EQ(b.Count(), 0u);
  EXPECT_FALSE(b.Test(0));
  EXPECT_FALSE(b.Test(1000));  // beyond capacity reads as 0
}

TEST(DynamicBitsetTest, SetTestReset) {
  DynamicBitset b;
  b.Set(5);
  EXPECT_TRUE(b.Test(5));
  EXPECT_FALSE(b.Test(4));
  EXPECT_FALSE(b.Test(6));
  EXPECT_EQ(b.Count(), 1u);
  b.Reset(5);
  EXPECT_FALSE(b.Test(5));
  EXPECT_TRUE(b.Empty());
  b.Reset(10'000);  // reset past capacity is a no-op, not a grow
  EXPECT_TRUE(b.Empty());
}

TEST(DynamicBitsetTest, WordBoundaryBits) {
  DynamicBitset b;
  for (size_t i : {63u, 64u, 65u, 127u, 128u, 129u}) b.Set(i);
  for (size_t i : {63u, 64u, 65u, 127u, 128u, 129u}) {
    EXPECT_TRUE(b.Test(i)) << "bit " << i;
  }
  for (size_t i : {0u, 62u, 66u, 126u, 130u}) {
    EXPECT_FALSE(b.Test(i)) << "bit " << i;
  }
  EXPECT_EQ(b.Count(), 6u);
  EXPECT_EQ(b.ToVector(), (std::vector<uint32_t>{63, 64, 65, 127, 128, 129}));
}

TEST(DynamicBitsetTest, AutoGrowPreservesLowBits) {
  DynamicBitset b;
  b.Set(1);
  b.Set(100'000);
  EXPECT_TRUE(b.Test(1));
  EXPECT_TRUE(b.Test(100'000));
  EXPECT_EQ(b.Count(), 2u);
}

TEST(DynamicBitsetTest, OrWithDifferentLengths) {
  DynamicBitset a;
  a.Set(3);
  DynamicBitset b;
  b.Set(64);
  b.Set(200);
  a.OrWith(b);  // a grows to cover b's words
  EXPECT_TRUE(a.Test(3));
  EXPECT_TRUE(a.Test(64));
  EXPECT_TRUE(a.Test(200));
  EXPECT_EQ(a.Count(), 3u);
  // The other direction: longer |= shorter must not shrink.
  b.OrWith(DynamicBitset{});
  EXPECT_EQ(b.Count(), 2u);
}

TEST(DynamicBitsetTest, AndAndAndNotAcrossLengths) {
  DynamicBitset a;
  for (size_t i : {3u, 64u, 200u}) a.Set(i);
  DynamicBitset b;
  b.Set(64);
  DynamicBitset both = a;
  both.AndWith(b);  // bits past b's capacity clear
  EXPECT_EQ(both.ToVector(), (std::vector<uint32_t>{64}));
  EXPECT_EQ(both.Count(), 1u);
  DynamicBitset rest = a;
  rest.AndNotWith(b);
  EXPECT_EQ(rest.ToVector(), (std::vector<uint32_t>{3, 200}));
  EXPECT_EQ(rest.Count(), 2u);
  // A shorter left side is unaffected by the other's extra words.
  b.AndNotWith(a);
  EXPECT_TRUE(b.Empty());
  b.Set(1000);
  b.AndWith(a);
  EXPECT_TRUE(b.Empty());
}

TEST(DynamicBitsetTest, PrefixSetsExactlyTheLowBits) {
  for (size_t n : {0u, 1u, 63u, 64u, 65u, 130u}) {
    const DynamicBitset p = DynamicBitset::Prefix(n);
    EXPECT_EQ(p.Count(), n);
    std::vector<uint32_t> want;
    for (size_t i = 0; i < n; ++i) want.push_back(static_cast<uint32_t>(i));
    EXPECT_EQ(p.ToVector(), want) << n;
    EXPECT_FALSE(p.Test(n));
  }
}

TEST(DynamicBitsetTest, SubsetAcrossLengths) {
  DynamicBitset small;
  small.Set(10);
  DynamicBitset big;
  big.Set(10);
  big.Set(500);
  EXPECT_TRUE(small.IsSubsetOf(big));
  EXPECT_FALSE(big.IsSubsetOf(small));  // bit 500 is past small's capacity
  EXPECT_TRUE(small.IsSubsetOf(small));
  EXPECT_TRUE(DynamicBitset{}.IsSubsetOf(small));
}

TEST(DynamicBitsetTest, Intersects) {
  DynamicBitset a;
  a.Set(64);
  DynamicBitset b;
  b.Set(65);
  EXPECT_FALSE(a.Intersects(b));
  b.Set(64);
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_FALSE(a.Intersects(DynamicBitset{}));
}

TEST(DynamicBitsetTest, ForEachAscendingAcrossWords) {
  DynamicBitset b;
  std::vector<size_t> want = {0, 1, 63, 64, 120, 128, 300};
  for (size_t i : want) b.Set(i);
  std::vector<size_t> got;
  b.ForEach([&got](size_t i) { got.push_back(i); });
  EXPECT_EQ(got, want);
}

TEST(DynamicBitsetTest, EqualityIgnoresTrailingZeroWords) {
  DynamicBitset a;
  a.Set(7);
  DynamicBitset b;
  b.Set(7);
  b.Set(300);
  b.Reset(300);  // b now has extra zero words
  EXPECT_TRUE(a == b);
  EXPECT_TRUE(b == a);
  b.Set(8);
  EXPECT_FALSE(a == b);
}

}  // namespace
}  // namespace classic
