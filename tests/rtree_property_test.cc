#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "core/buffer_manager.h"
#include "core/policy_lru.h"
#include "geom/kernels/kernels.h"
#include "rtree/rtree.h"
#include "test_util.h"

namespace sdb::rtree {
namespace {

using core::AccessContext;
using core::BufferManager;
using geom::Rect;
using storage::DiskManager;

std::set<uint64_t> BruteForceWindow(const std::vector<Entry>& entries,
                                    const Rect& window) {
  std::set<uint64_t> ids;
  for (const Entry& e : entries) {
    if (e.rect.Intersects(window)) ids.insert(e.id);
  }
  return ids;
}

std::set<uint64_t> Ids(const std::vector<Entry>& entries) {
  std::set<uint64_t> ids;
  for (const Entry& e : entries) ids.insert(e.id);
  return ids;
}

/// Parameter: (seed, object count, max object extent, dir fanout,
/// data fanout, variant). Sweeps tree shapes from tiny fanouts (deep trees,
/// many splits and reinsertion cascades) to the paper's configuration, and
/// all three construction variants.
using Param =
    std::tuple<uint64_t, size_t, double, uint32_t, uint32_t, TreeVariant>;

class RTreePropertyTest : public ::testing::TestWithParam<Param> {};

TEST_P(RTreePropertyTest, InsertQueryDeleteInvariants) {
  const auto [seed, count, extent, dir_fanout, data_fanout, variant] =
      GetParam();

  DiskManager disk;
  BufferManager buffer(&disk, 4096, std::make_unique<core::LruPolicy>());
  RTreeConfig config;
  config.variant = variant;
  config.max_dir_entries = dir_fanout;
  config.max_data_entries = data_fanout;
  RTree tree(&disk, &buffer, config);
  const AccessContext ctx{1};

  Rng rng(seed);
  const Rect space(0, 0, 1, 1);
  std::vector<Entry> live;

  // Phase 1: insert everything; the tree must stay structurally valid and
  // answer window queries exactly.
  for (size_t i = 0; i < count; ++i) {
    Entry e;
    e.id = i + 1;
    e.rect = test::RandomRect(rng, space, extent);
    tree.Insert(e, ctx);
    live.push_back(e);
  }
  ASSERT_EQ(tree.Validate(), "") << "after inserts";
  ASSERT_EQ(tree.size(), live.size());
  for (int q = 0; q < 25; ++q) {
    const Rect window = test::RandomRect(rng, space, 0.25);
    ASSERT_EQ(Ids(tree.WindowQuery(window, ctx)),
              BruteForceWindow(live, window));
  }

  // Phase 2: interleave deletions and insertions (update workload), then
  // re-check validity and exactness.
  std::vector<Entry> inserted_later;
  for (size_t round = 0; round < count / 2; ++round) {
    if (round % 3 != 2 && !live.empty()) {
      const size_t victim = rng.NextBelow(live.size());
      ASSERT_TRUE(tree.Delete(live[victim].id, live[victim].rect, ctx));
      live.erase(live.begin() + victim);
    } else {
      Entry e;
      e.id = 1'000'000 + round;
      e.rect = test::RandomRect(rng, space, extent);
      tree.Insert(e, ctx);
      live.push_back(e);
    }
  }
  ASSERT_EQ(tree.Validate(), "") << "after mixed updates";
  ASSERT_EQ(tree.size(), live.size());
  for (int q = 0; q < 25; ++q) {
    const Rect window = test::RandomRect(rng, space, 0.25);
    ASSERT_EQ(Ids(tree.WindowQuery(window, ctx)),
              BruteForceWindow(live, window));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RTreePropertyTest,
    ::testing::Values(
        // Tiny fanouts: deep trees, heavy split/reinsert/condense traffic.
        Param{1, 200, 0.02, 4, 4, TreeVariant::kRStar},
        Param{2, 300, 0.05, 5, 4, TreeVariant::kRStar},
        Param{3, 500, 0.01, 8, 6, TreeVariant::kRStar},
        // Moderate fanouts.
        Param{4, 800, 0.02, 16, 12, TreeVariant::kRStar},
        Param{5, 600, 0.10, 10, 10, TreeVariant::kRStar},
        // Point-like objects (zero-extent rectangles).
        Param{6, 700, 0.0, 8, 8, TreeVariant::kRStar},
        // The paper's fanout configuration.
        Param{7, 1500, 0.01, 51, 42, TreeVariant::kRStar},
        Param{8, 1000, 0.03, 51, 42, TreeVariant::kRStar},
        // Guttman variants: quadratic and linear splits, no reinsertion.
        Param{9, 500, 0.01, 8, 6, TreeVariant::kGuttmanQuadratic},
        Param{10, 1000, 0.03, 16, 12, TreeVariant::kGuttmanQuadratic},
        Param{11, 1500, 0.01, 51, 42, TreeVariant::kGuttmanQuadratic},
        Param{12, 500, 0.01, 8, 6, TreeVariant::kGuttmanLinear},
        Param{13, 1000, 0.03, 16, 12, TreeVariant::kGuttmanLinear},
        Param{14, 1500, 0.01, 51, 42, TreeVariant::kGuttmanLinear}));

/// Header aggregates must stay consistent under updates — the replacement
/// policies depend on them.
class AggregateConsistencyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AggregateConsistencyTest, HeadersMatchRecomputedAggregates) {
  DiskManager disk;
  BufferManager buffer(&disk, 2048, std::make_unique<core::LruPolicy>());
  RTreeConfig config;
  config.max_dir_entries = 8;
  config.max_data_entries = 8;
  RTree tree(&disk, &buffer, config);
  const AccessContext ctx{1};
  Rng rng(GetParam());

  std::vector<Entry> live;
  for (size_t i = 0; i < 400; ++i) {
    Entry e;
    e.id = i + 1;
    e.rect = test::RandomRect(rng, Rect(0, 0, 1, 1), 0.03);
    tree.Insert(e, ctx);
    live.push_back(e);
    if (i % 7 == 6) {
      const size_t victim = rng.NextBelow(live.size());
      ASSERT_TRUE(tree.Delete(live[victim].id, live[victim].rect, ctx));
      live.erase(live.begin() + victim);
    }
  }
  buffer.FlushAll();
  // Validate() recomputes every node's aggregates from its entries and
  // compares with the stored header (among other checks).
  EXPECT_EQ(tree.Validate(), "");
}

INSTANTIATE_TEST_SUITE_P(Seeds, AggregateConsistencyTest,
                         ::testing::Values(11, 12, 13));

/// R* ChooseSubtree runs its overlap enlargement on the dispatched kernel
/// tier, so every tier must build the byte-identical tree.
std::vector<std::byte> BuildTreeImage(geom::kernels::Level level,
                                      uint32_t fanout, size_t count,
                                      double extent, uint64_t seed) {
  geom::kernels::ForceLevel(level);
  DiskManager disk;
  BufferManager buffer(&disk, 4096, std::make_unique<core::LruPolicy>());
  RTreeConfig config;
  config.max_dir_entries = fanout;
  config.max_data_entries = fanout;
  RTree tree(&disk, &buffer, config);
  const AccessContext ctx{1};
  Rng rng(seed);
  for (size_t i = 0; i < count; ++i) {
    Entry e;
    e.id = i + 1;
    e.rect = test::RandomRect(rng, Rect(0, 0, 1, 1), extent);
    tree.Insert(e, ctx);
  }
  buffer.FlushAll();
  EXPECT_EQ(tree.Validate(), "") << geom::kernels::LevelName(level);
  EXPECT_GE(tree.height(), 3u) << "too few objects to reach level 1 splits";
  std::vector<std::byte> image;
  for (storage::PageId id = 0; id < disk.page_count(); ++id) {
    const std::span<const std::byte> page = disk.PeekPage(id);
    image.insert(image.end(), page.begin(), page.end());
  }
  return image;
}

TEST(RTreeKernelIdentityTest, EveryKernelTierBuildsTheSameTree) {
  using geom::kernels::Level;
  const Level original = geom::kernels::ActiveLevel();
  // (fanout, objects, extent): every n % 4 tail of a level-1 node occurs
  // while these grow, and each stream splits and force-reinserts at every
  // level.
  const std::tuple<uint32_t, size_t, double> shapes[] = {
      {6, 600, 0.05}, {42, 4000, 0.01}, {84, 8000, 0.02}};
  for (const auto& [fanout, count, extent] : shapes) {
    const std::vector<std::byte> scalar =
        BuildTreeImage(Level::kScalar, fanout, count, extent, fanout);
    for (const Level level : {Level::kSse2, Level::kAvx2}) {
      if (!geom::kernels::LevelAvailable(level)) continue;
      EXPECT_TRUE(BuildTreeImage(level, fanout, count, extent, fanout) ==
                  scalar)
          << "tree image at " << geom::kernels::LevelName(level)
          << " differs from scalar (fanout " << fanout << ")";
    }
  }
  geom::kernels::ForceLevel(original);
}

}  // namespace
}  // namespace sdb::rtree
