// CowVector (util/cow.h), the one copy-on-write container every
// published KB store sits on, and the DynamicBitset extensions it boxes.
//
// The publish contract rests on three properties checked here: a copy is
// a value (later writes through the original never reach it), a boxed
// value is copied at most once per copy generation (then written in
// place), and growth works through a directory a copy still shares.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "util/bitset.h"
#include "util/cow.h"
#include "util/rng.h"

namespace classic {
namespace {

using Boxes = CowVector<std::shared_ptr<std::set<int>>>;

std::vector<int> Contents(const CowVector<int>& v) {
  std::vector<int> out;
  for (size_t i = 0; i < v.size(); ++i) out.push_back(v[i]);
  return out;
}

TEST(CowVectorTest, CopyNeverSeesLaterWrites) {
  CowVector<int> writer;
  for (int i = 0; i < 100; ++i) writer.push_back(i);
  const CowVector<int> copy = writer;
  const std::vector<int> before = Contents(copy);

  writer.Mutable(3) = -3;    // first chunk
  writer.Mutable(70) = -70;  // second chunk
  writer.push_back(100);     // tail of the last chunk
  writer.GrowTo(300, 7);     // new chunks
  CowVector<int> other;
  other.push_back(42);
  writer = other;  // reassignment drops the writer's chunks

  EXPECT_EQ(Contents(copy), before);
  EXPECT_EQ(Contents(writer), std::vector<int>{42});
}

TEST(CowVectorTest, ChunkCopiesAreCountedOncePerGeneration) {
  CowVector<int> writer;
  for (int i = 0; i < 128; ++i) writer.push_back(i);
  (void)writer.TakeCopies();  // building never shares
  EXPECT_EQ(writer.TakeCopies(), 0u);

  const CowVector<int> copy = writer;
  writer.Mutable(1) = 10;
  writer.Mutable(2) = 20;  // same chunk: already owned
  EXPECT_EQ(writer.TakeCopies(), 1u);
  writer.Mutable(64) = 640;  // the other shared chunk
  EXPECT_EQ(writer.TakeCopies(), 1u);
  EXPECT_EQ(copy[1], 1);
  EXPECT_EQ(copy[64], 64);
}

TEST(CowVectorTest, BoxedValueIsCopiedOncePerCopyGenerationThenInPlace) {
  Boxes writer;
  writer.MutableValue(5).insert(1);
  writer.MutableValue(7).insert(7);
  EXPECT_EQ(writer.TakeCopies(), 0u);  // fresh values are created, not copied

  const Boxes gen1 = writer;
  const std::set<int>* shared = writer.Find(5);
  std::set<int>& mine = writer.MutableValue(5);
  EXPECT_NE(&mine, shared) << "a value shared with a copy must be copied";
  mine.insert(2);
  // Chunk path copy + one value copy.
  EXPECT_EQ(writer.TakeCopies(), 2u);
  std::set<int>& again = writer.MutableValue(5);
  EXPECT_EQ(&again, &mine) << "the second write in one generation is in place";
  again.insert(3);
  EXPECT_EQ(writer.TakeCopies(), 0u);

  // A neighbour in the same chunk: the chunk is owned now, but its value
  // is still shared with gen1 through the chunk copy.
  writer.MutableValue(7).insert(70);
  EXPECT_EQ(writer.TakeCopies(), 1u);
  writer.MutableValue(6).insert(60);  // empty slot: created, not copied
  EXPECT_EQ(writer.TakeCopies(), 0u);

  const Boxes gen2 = writer;
  writer.MutableValue(5).insert(4);
  EXPECT_EQ(writer.TakeCopies(), 2u);  // new generation: copied once more

  EXPECT_EQ(*gen1.Find(5), (std::set<int>{1}));
  EXPECT_EQ(gen1.Find(6), nullptr);
  EXPECT_EQ(*gen1.Find(7), (std::set<int>{7}));
  EXPECT_EQ(*gen2.Find(7), (std::set<int>{7, 70}));
  EXPECT_EQ(*gen2.Find(5), (std::set<int>{1, 2, 3}));
  EXPECT_EQ(*writer.Find(5), (std::set<int>{1, 2, 3, 4}));
  EXPECT_EQ(writer.Find(999), nullptr);
}

TEST(CowVectorTest, ValueWrittenInPlaceOnceNoCopyHoldsIt) {
  Boxes writer;
  writer.MutableValue(0).insert(1);
  const std::set<int>* first = writer.Find(0);
  {
    const Boxes transient = writer;
    (void)transient;
  }
  // The copy is gone, so nothing shares the chunk or the value.
  EXPECT_EQ(&writer.MutableValue(0), first);
  EXPECT_EQ(writer.TakeCopies(), 0u);
}

TEST(CowVectorTest, GrowthPastASharedDirectory) {
  CowVector<int> writer;
  writer.GrowTo(10, -1);
  writer.Mutable(10) = 10;
  const CowVector<int> copy = writer;
  // Grow well past the shared directory's last chunk.
  writer.GrowTo(1000, -1);
  writer.Mutable(1000) = 1000;
  writer.Mutable(10) = 11;
  ASSERT_EQ(writer.size(), 1001u);
  EXPECT_EQ(writer[999], -1);
  EXPECT_EQ(writer[1000], 1000);
  EXPECT_EQ(writer[10], 11);
  ASSERT_EQ(copy.size(), 11u);
  EXPECT_EQ(copy[10], 10);
  EXPECT_EQ(copy[0], -1);

  Boxes boxes;
  boxes.MutableValue(1).insert(1);
  const Boxes boxes_copy = boxes;
  boxes.MutableValue(500).insert(500);
  EXPECT_EQ(boxes.size(), 501u);
  EXPECT_EQ(boxes_copy.size(), 2u);
  EXPECT_EQ(boxes_copy.Find(500), nullptr);
  EXPECT_EQ(*boxes.Find(500), (std::set<int>{500}));
}

TEST(CowVectorTest, ClearLeavesCopiesIntact) {
  Boxes writer;
  writer.MutableValue(3).insert(3);
  const Boxes copy = writer;
  writer.Clear();
  EXPECT_EQ(writer.size(), 0u);
  EXPECT_EQ(writer.Find(3), nullptr);
  writer.MutableValue(3).insert(4);
  EXPECT_EQ(*copy.Find(3), (std::set<int>{3}));
  EXPECT_EQ(*writer.Find(3), (std::set<int>{4}));
}

TEST(ExtensionBitsetTest, IteratesAscendingAndCountsExactly) {
  Rng rng(7);
  DynamicBitset bits;
  std::set<size_t> model;
  for (int step = 0; step < 4000; ++step) {
    const size_t i = rng.Below(3000);
    if (rng.Chance(0.3)) {
      bits.Reset(i);
      model.erase(i);
    } else {
      EXPECT_EQ(bits.Set(i), model.insert(i).second) << "bit " << i;
    }
    ASSERT_EQ(bits.Count(), model.size());
  }
  std::vector<size_t> seen;
  bits.ForEach([&](size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, std::vector<size_t>(model.begin(), model.end()));
  EXPECT_EQ(bits.Empty(), model.empty());

  // A union recounts.
  DynamicBitset other;
  other.Set(5000);
  other.Set(*model.begin());
  bits.OrWith(other);
  EXPECT_EQ(bits.Count(), model.size() + 1);

  // Copies count on their own.
  DynamicBitset copy = bits;
  copy.Reset(5000);
  EXPECT_EQ(copy.Count(), model.size());
  EXPECT_EQ(bits.Count(), model.size() + 1);
  EXPECT_FALSE(copy == bits);
}

}  // namespace
}  // namespace classic
