// Heap allocations of the read-side hot paths, counted by replacing the
// global operator new in this binary.
//
// On the flat layout an instance test reads sorted vectors and keeps its
// cycle guard in its own call frames, so it allocates nothing. Copying a
// derived form allocates one vector per non-empty set (atoms, role
// records, tests) and one filler vector per role record; value
// restrictions are shared, not copied. Rendering a derived form grows one
// string.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "classic/database.h"
#include "desc/parser.h"
#include "util/string_util.h"
#include "workload.h"

namespace {
std::atomic<size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// Not inlined: GCC would otherwise pair the inlined free() with the
// operator new call site and warn (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace classic {
namespace {

class AllocCountTest : public ::testing::Test {
 protected:
  static constexpr size_t kIndividuals = 1000;

  void SetUp() override {
    workload_ = bench::BuildStandardWorkload(&db_, /*num_concepts=*/120,
                                             kIndividuals, /*seed=*/7);
  }

  Database db_;
  bench::StandardWorkload workload_;
};

TEST_F(AllocCountTest, SatisfiesAllocatesNothing) {
  const KnowledgeBase& kb = db_.kb();
  Result<DescPtr> desc = ParseDescriptionString(
      StrCat("(AND ", workload_.schema.primitive_names[1], " (AT-LEAST 1 ",
             workload_.schema.role_names[0], "))"),
      &kb.vocab().symbols());
  ASSERT_TRUE(desc.ok()) << desc.status().ToString();
  Result<NormalFormPtr> query = kb.normalizer().NormalizeConcept(*desc);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  const std::vector<IndId> inds = kb.AllClassicIndividuals();
  ASSERT_EQ(inds.size(), kIndividuals);

  // Warm-up: first touches (thread-local counters) may allocate once.
  size_t satisfied = 0;
  for (IndId ind : inds) satisfied += kb.Satisfies(ind, **query) ? 1 : 0;
  ASSERT_GT(satisfied, 0u);

  const size_t before = g_allocations.load();
  size_t again = 0;
  for (IndId ind : inds) again += kb.Satisfies(ind, **query) ? 1 : 0;
  const size_t allocations = g_allocations.load() - before;
  EXPECT_EQ(again, satisfied);
  EXPECT_EQ(allocations, 0u) << "over " << inds.size() << " Satisfies calls";
}

TEST_F(AllocCountTest, CopyingADerivedFormAllocatesPerVector) {
  const KnowledgeBase& kb = db_.kb();
  size_t forms = 0;
  size_t total = 0;
  for (IndId ind : kb.AllClassicIndividuals()) {
    const NormalForm& derived = *kb.state(ind).derived;
    ASSERT_TRUE(derived.coref().empty());
    ASSERT_EQ(derived.enumeration(), nullptr);
    const size_t before = g_allocations.load();
    NormalForm copy(derived);
    const size_t allocations = g_allocations.load() - before;
    EXPECT_TRUE(copy.Equals(derived));
    EXPECT_LE(allocations, 3 + derived.roles().size())
        << kb.vocab().IndividualName(ind);
    ++forms;
    total += allocations;
  }
  ASSERT_EQ(forms, kIndividuals);
  std::printf("mean allocations per derived-form copy: %.2f\n",
              static_cast<double>(total) / static_cast<double>(forms));
}

TEST_F(AllocCountTest, RenderingADerivedFormAllocatesLittle) {
  // NormalForm::ToString writes into one string, so the allocations are
  // that string's growth (and a host filler's own ToString); building a
  // Description first cost 39 per form here.
  const KnowledgeBase& kb = db_.kb();
  size_t forms = 0;
  size_t total = 0;
  size_t bytes = 0;
  for (IndId ind : kb.AllClassicIndividuals()) {
    const NormalForm& derived = *kb.state(ind).derived;
    const size_t before = g_allocations.load();
    const std::string text = derived.ToString(kb.vocab());
    total += g_allocations.load() - before;
    bytes += text.size();
    ++forms;
  }
  ASSERT_EQ(forms, kIndividuals);
  const double mean = static_cast<double>(total) / static_cast<double>(forms);
  std::printf("mean allocations per derived-form rendering: %.2f "
              "(%.1f bytes)\n",
              mean, static_cast<double>(bytes) / static_cast<double>(forms));
  EXPECT_LE(mean, 4.0);
}

}  // namespace
}  // namespace classic
