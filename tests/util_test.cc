// Unit tests for util: Status/Result, interning, string helpers, RNG,
// thread pool.

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

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
