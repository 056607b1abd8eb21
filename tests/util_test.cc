// Unit tests for util: Status/Result, interning, string helpers, RNG,
// thread pool, sorted id sets.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <utility>
#include <vector>

#include "util/id_set.h"
#include "util/intern.h"
#include "util/rng.h"
#include "util/result.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace classic {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::Inconsistent("role over-filled");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsInconsistent());
  EXPECT_EQ(st.message(), "role over-filled");
  EXPECT_EQ(st.ToString(), "Inconsistent: role over-filled");
}

TEST(StatusTest, WithContextPrefixes) {
  Status st = Status::NotFound("role x").WithContext("asserting Rocky");
  EXPECT_TRUE(st.IsNotFound());
  EXPECT_EQ(st.message(), "asserting Rocky: role x");
}

TEST(StatusTest, WithContextOnOkIsNoop) {
  Status st = Status::OK().WithContext("anything");
  EXPECT_TRUE(st.ok());
}

TEST(StatusTest, CodeNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kInvalidArgument),
               "InvalidArgument");
  EXPECT_STREQ(StatusCodeName(StatusCode::kIOError), "IOError");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.ValueOr(-1), -1);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("hello");
  std::string s = std::move(r).ValueOrDie();
  EXPECT_EQ(s, "hello");
}

Result<int> Double(Result<int> in) {
  CLASSIC_ASSIGN_OR_RETURN(int v, std::move(in));
  return v * 2;
}

TEST(ResultTest, AssignOrReturnMacro) {
  EXPECT_EQ(*Double(21), 42);
  EXPECT_TRUE(Double(Status::Internal("x")).status().IsInternal());
}

TEST(SymbolTableTest, InternIsIdempotent) {
  SymbolTable t;
  Symbol a = t.Intern("CAR");
  Symbol b = t.Intern("CAR");
  EXPECT_EQ(a, b);
  EXPECT_EQ(t.Name(a), "CAR");
  EXPECT_EQ(t.size(), 1u);
}

TEST(SymbolTableTest, DistinctNamesGetDistinctIds) {
  SymbolTable t;
  Symbol a = t.Intern("CAR");
  Symbol b = t.Intern("car");  // case-sensitive
  EXPECT_NE(a, b);
}

TEST(SymbolTableTest, LookupMissingReturnsSentinel) {
  SymbolTable t;
  EXPECT_EQ(t.Lookup("missing"), kNoSymbol);
  t.Intern("present");
  EXPECT_NE(t.Lookup("present"), kNoSymbol);
}

TEST(StringUtilTest, JoinAndSplit) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
}

TEST(StringUtilTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  x y \n"), "x y");
  EXPECT_EQ(StripWhitespace("\t\n "), "");
}

TEST(StringUtilTest, EscapeString) {
  EXPECT_EQ(EscapeString("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

TEST(StringUtilTest, StrCat) {
  EXPECT_EQ(StrCat("x=", 42, ", y=", 1.5), "x=42, y=1.5");
}

TEST(RngTest, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, RangeIsInclusive) {
  Rng rng(1);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.Range(3, 5);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 5);
    saw_lo |= (v == 3);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

std::vector<uint32_t> Ids(const IdSet<uint32_t>& s) {
  return {s.begin(), s.end()};
}

TEST(IdSetTest, KeepsIdsSortedAndUnique) {
  IdSet<uint32_t> s = {5, 1, 3, 1};
  EXPECT_EQ(Ids(s), (std::vector<uint32_t>{1, 3, 5}));
  EXPECT_TRUE(s.insert(4).second);
  EXPECT_FALSE(s.insert(3).second);
  EXPECT_TRUE(s.insert(9).second);  // append
  EXPECT_TRUE(s.insert(0).second);  // front
  EXPECT_EQ(Ids(s), (std::vector<uint32_t>{0, 1, 3, 4, 5, 9}));
  EXPECT_EQ(s.count(4), 1u);
  EXPECT_EQ(s.count(2), 0u);
  EXPECT_EQ(s.find(2), s.end());
  EXPECT_EQ(*s.find(5), 5u);
  EXPECT_EQ(s[1], 1u);
  EXPECT_EQ(s.erase(4), 1u);
  EXPECT_EQ(s.erase(4), 0u);
  EXPECT_EQ(s.erase_if([](uint32_t id) { return id % 3 == 0; }), 3u);
  EXPECT_EQ(Ids(s), (std::vector<uint32_t>{1, 5}));
}

TEST(IdSetTest, RangeInsertMergesLikeStdSet) {
  // Interleaved, overlapping, disjoint and empty ranges against a
  // std::set reference.
  const std::vector<std::vector<uint32_t>> ranges = {
      {}, {7}, {2, 7, 9}, {0, 1}, {10, 11, 12}, {1, 3, 5, 7, 11, 13}, {}};
  IdSet<uint32_t> flat;
  std::set<uint32_t> tree;
  for (const std::vector<uint32_t>& r : ranges) {
    const std::set<uint32_t> source(r.begin(), r.end());
    flat.insert(source.begin(), source.end());
    tree.insert(source.begin(), source.end());
    EXPECT_EQ(Ids(flat), std::vector<uint32_t>(tree.begin(), tree.end()));
  }
  IdSet<uint32_t> copy;
  copy.insert(flat.begin(), flat.end());
  EXPECT_EQ(copy, flat);
  flat.insert(copy.begin(), copy.end());  // all present: unchanged
  EXPECT_EQ(copy, flat);
}

TEST(IdSetTest, LowerBoundByIdFindsKeyedPairs) {
  std::vector<std::pair<uint32_t, char>> pairs = {{1, 'a'}, {4, 'b'}, {9, 'c'}};
  EXPECT_EQ(LowerBoundById(pairs, 4u)->second, 'b');
  EXPECT_EQ(LowerBoundById(pairs, 5u)->second, 'c');
  EXPECT_EQ(LowerBoundById(pairs, 10u), pairs.end());
}

TEST(ThreadPoolTest, ParallelForRunsEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  const size_t workers = pool.size();
  for (size_t n : {size_t{0}, size_t{1}, workers, workers + 1, size_t{1000}}) {
    std::vector<std::atomic<int>> runs(n);
    pool.ParallelFor(n, [&runs](size_t i) {
      runs[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(runs[i].load(), 1) << "n=" << n << " i=" << i;
    }
  }
}

// Each call's completion latch lives on the caller's stack, so the next
// call reuses that memory straight away: a helper still touching the old
// latch after the caller returned would corrupt or hang this loop (and
// TSan reports it).
TEST(ThreadPoolTest, BackToBackSmallParallelForsComplete) {
  ThreadPool pool(3);
  std::atomic<size_t> total{0};
  for (int call = 0; call < 10000; ++call) {
    pool.ParallelFor(2, [&total](size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 20000u);
}

}  // namespace
}  // namespace classic
