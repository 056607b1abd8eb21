// Heap allocations of the read-side hot paths, and the heap bytes a
// stored fact holds, counted by replacing the global operator new in this
// binary.
//
// On the flat layout an instance test reads sorted vectors and keeps its
// cycle guard in its own call frames, so it allocates nothing. Copying a
// derived form allocates one vector per non-empty set (atoms, role
// records, tests) and one filler vector per role record; value
// restrictions are shared, not copied. Rendering a derived form grows one
// string. A parsed assertion is one compact node (plus its filler
// vector), and a filler's postings are one array besides its COW box.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "classic/database.h"
#include "desc/parser.h"
#include "kb/fills_index.h"
#include "util/intern.h"
#include "util/string_util.h"
#include "workload.h"

namespace {
std::atomic<size_t> g_allocations{0};
// Requested bytes and blocks not yet freed. Each block carries its
// requested size in a header of max_align_t's size, so a delete without
// a size (and the sized deletes, which get the same pointer) can
// subtract it.
std::atomic<size_t> g_live_bytes{0};
std::atomic<size_t> g_live_blocks{0};
constexpr size_t kHeader = alignof(std::max_align_t);

void Release(void* p) noexcept {
  if (p == nullptr) return;
  char* block = static_cast<char*>(p) - kHeader;
  g_live_bytes.fetch_sub(*reinterpret_cast<size_t*>(block),
                         std::memory_order_relaxed);
  g_live_blocks.fetch_sub(1, std::memory_order_relaxed);
  std::free(block);
}
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* block = std::malloc(kHeader + size)) {
    *static_cast<size_t*>(block) = size;
    g_live_bytes.fetch_add(size, std::memory_order_relaxed);
    g_live_blocks.fetch_add(1, std::memory_order_relaxed);
    return static_cast<char*>(block) + kHeader;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// Not inlined: GCC would otherwise pair the inlined free() with the
// operator new call site and warn (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { Release(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { Release(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  Release(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  Release(p);
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

TEST_F(AllocCountTest, ParsedAssertionHoldsOneCompactNode) {
  // The base log keeps every told assertion's parsed tree. A node is 56
  // bytes, 72 with make_shared's control block; a FILLS adds its filler
  // vector (one 24-byte IndRef). The node with a child pointer and four
  // vectors, and an IndRef holding its host value inline, held 152 and
  // 200 bytes.
  SymbolTable& symbols = db_.kb().vocab().symbols();
  const std::string& role = workload_.schema.role_names[0];
  struct Case {
    std::string text;
    size_t max_bytes;
  };
  const Case cases[] = {
      {StrCat("(FILLS ", role, " ", workload_.individuals[1], ")"), 96},
      {StrCat("(AT-MOST 6 ", role, ")"), 72},
      {workload_.schema.primitive_names[1], 72},
  };
  for (const Case& c : cases) {
    ASSERT_TRUE(ParseDescriptionString(c.text, &symbols).ok()) << c.text;
    const size_t before = g_live_bytes.load();
    Result<DescPtr> parsed = ParseDescriptionString(c.text, &symbols);
    const size_t held = g_live_bytes.load() - before;
    ASSERT_TRUE(parsed.ok()) << c.text;
    std::printf("%s holds %zu bytes\n", c.text.c_str(), held);
    EXPECT_LE(held, c.max_bytes) << c.text;
  }
}

TEST(SymbolTableAllocTest, LookingUpAnInternedNameAllocatesNothing) {
  // Past std::string's 15-byte inline buffer a key built for the lookup
  // would allocate; the table hashes and compares the view itself.
  SymbolTable symbols;
  const std::string name = "a-name-of-twenty-four-by";
  ASSERT_EQ(name.size(), 24u);
  const Symbol sym = symbols.Intern(name);
  const std::string_view view = name;
  const size_t before = g_allocations.load();
  const Symbol looked_up = symbols.Lookup(view);
  const Symbol interned = symbols.Intern(view);
  EXPECT_EQ(g_allocations.load() - before, 0u);
  EXPECT_EQ(looked_up, sym);
  EXPECT_EQ(interned, sym);
}

TEST(PostingsAllocTest, OneAllocationPerFillerAt32k) {
  // The point-read workload's shape (perfbench's generator calls the same
  // builders). The postings are rebuilt in holder order, the order
  // propagation adds them in, into a fresh index whose every block is
  // counted: its chunks, each filler's COW box and one run array per
  // filler.
  Database db;
  bench::BuildStandardWorkload(&db, /*num_concepts=*/1024,
                               /*num_individuals=*/32768, /*seed=*/7);
  const KnowledgeBase& kb = db.kb();
  const IndId limit = kb.num_visible_individuals();
  const std::vector<IndId> holders = kb.AllClassicIndividuals();
  std::vector<bool> is_filler(limit, false);
  size_t postings = 0;
  const size_t blocks_before = g_live_blocks.load();
  const size_t bytes_before = g_live_bytes.load();
  {
    FillsIndex rebuilt;
    for (IndId holder : holders) {
      for (const auto& [role, rr] : kb.state(holder).derived->roles()) {
        for (IndId filler : rr.fillers) {
          postings += rebuilt.Add(role, filler, holder) ? 1 : 0;
          is_filler[filler] = true;
        }
      }
    }
    const size_t fillers = static_cast<size_t>(
        std::count(is_filler.begin(), is_filler.end(), true));
    const size_t blocks = g_live_blocks.load() - blocks_before;
    const size_t bytes = g_live_bytes.load() - bytes_before;
    // The chunk directory, its vector and one block per 64 slots.
    const size_t chunk_blocks = 2 + (limit + 63) / 64;
    std::printf("%zu postings over %zu fillers: %zu blocks, %zu bytes\n",
                postings, fillers, blocks, bytes);
    ASSERT_GT(fillers, 20000u);
    EXPECT_LE(blocks, chunk_blocks + 2 * fillers);
    EXPECT_LE(bytes, size_t{3} * 1000 * 1000);
    for (IndId filler = 0; filler < limit; filler += 97) {
      for (RoleId role = 0; role < kb.vocab().num_roles(); ++role) {
        const std::span<const IndId> want =
            kb.fills_index().Postings(role, filler);
        const std::span<const IndId> got = rebuilt.Postings(role, filler);
        ASSERT_TRUE(std::equal(want.begin(), want.end(), got.begin(),
                               got.end()));
      }
    }
  }
}

}  // namespace
}  // namespace classic
