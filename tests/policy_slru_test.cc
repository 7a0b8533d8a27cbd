#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <optional>
#include <vector>

#include "core/buffer_manager.h"
#include "core/policy_slru.h"
#include "test_util.h"

namespace sdb::core {
namespace {

using storage::DiskManager;
using storage::PageId;
using storage::PageType;
using test::StageAreaPage;
using test::Touch;

// The combined victim rule of paper Sec. 4.1 (SelectSpatialLruVictimTest):
// SLRU walks its recency list from the least recently used frame and picks
// the smallest criterion among the first c evictable entries. These cases
// drive SlruPolicy directly over frames whose criterion and recency the
// test sets.

/// Per-frame metadata under test control: the area criterion of frame f is
/// the MBR area the test assigns (versions bump on every change).
class FixedMeta : public FrameMetaSource {
 public:
  explicit FixedMeta(size_t frames) : meta_(frames), versions_(frames, 0) {}

  void SetArea(FrameId f, double area) {
    const double side = std::sqrt(area);
    meta_[f].type = storage::PageType::kData;
    meta_[f].mbr = geom::Rect(0, 0, side, side);
    ++versions_[f];
  }

  storage::PageMeta GetMeta(FrameId f) const override { return meta_[f]; }
  uint64_t MetaVersion(FrameId f) const override { return versions_[f]; }
  const uint64_t* MetaVersionArray() const override {
    return versions_.data();
  }

 private:
  std::vector<storage::PageMeta> meta_;
  std::vector<uint64_t> versions_;
};

/// Binds an SLRU(A) policy with candidate set `c` over `areas.size()`
/// frames, then references the frames in `order` (first = least recently
/// used) and leaves them all evictable.
class CombinedRule {
 public:
  CombinedRule(const std::vector<double>& areas, size_t c,
               const std::vector<FrameId>& order)
      : meta_(areas.size()),
        policy_(SpatialCriterion::kArea,
                static_cast<double>(c) / static_cast<double>(areas.size())) {
    policy_.Bind(&meta_, areas.size());
    for (FrameId f = 0; f < areas.size(); ++f) meta_.SetArea(f, areas[f]);
    for (const FrameId f : order) {
      policy_.OnPageLoaded(f, f, AccessContext{});
      policy_.SetEvictable(f, true);
    }
  }

  std::optional<FrameId> Victim() {
    return policy_.ChooseVictim(AccessContext{}, storage::kInvalidPageId);
  }

 private:
  FixedMeta meta_;
  SlruPolicy policy_;
};

TEST(SelectSpatialLruVictimTest, EmptyInputYieldsInvalid) {
  CombinedRule empty({1.0, 2.0, 3.0}, 3, {});
  EXPECT_EQ(empty.Victim(), std::nullopt);
}

TEST(SelectSpatialLruVictimTest, CandidateSetOfOneIsPlainLru) {
  // Frame 1 is least recently used but spatially the best.
  CombinedRule rule({0.1, 99.0, 0.2, 5.0}, 1, {1, 2, 0, 3});
  EXPECT_EQ(rule.Victim(), 1u);
}

TEST(SelectSpatialLruVictimTest, FullCandidateSetIsPureSpatial) {
  CombinedRule rule({0.5, 99.0, 0.2}, 3, {1, 2, 0});  // frame 2 smallest
  EXPECT_EQ(rule.Victim(), 2u);
}

TEST(SelectSpatialLruVictimTest, SpatialAppliesOnlyWithinLruCandidates) {
  // Candidates = the 2 least recently used = frames 0 and 1; among them the
  // smaller criterion (frame 1) is the victim. Frame 2 is spatially tiny but
  // recently used, so LRU protects it.
  CombinedRule rule({50.0, 40.0, 0.001, 60.0}, 2, {0, 1, 2, 3});
  EXPECT_EQ(rule.Victim(), 1u);
}

TEST(SelectSpatialLruVictimTest, TieOnCriterionFallsBackToLru) {
  CombinedRule rule({1.0, 1.0, 1.0}, 3, {1, 2, 0});
  EXPECT_EQ(rule.Victim(), 1u);
}

TEST(SelectSpatialLruVictimTest, OversizedCandidateCountIsClamped) {
  // Only two of four frames are resident: a candidate set of 4 covers both.
  CombinedRule rule({2.0, 1.0, 0.5, 0.25}, 4, {0, 1});
  EXPECT_EQ(rule.Victim(), 1u);
}

class SlruPolicyTest : public ::testing::Test {
 protected:
  DiskManager disk_;
};

TEST_F(SlruPolicyTest, NameEncodesConfiguration) {
  EXPECT_EQ(SlruPolicy(SpatialCriterion::kArea, 0.25).name(),
            "SLRU(A,25%)");
  EXPECT_EQ(SlruPolicy(SpatialCriterion::kMargin, 0.5).name(),
            "SLRU(M,50%)");
}

TEST_F(SlruPolicyTest, CandidateSizeDerivedFromFraction) {
  auto policy_owner =
      std::make_unique<SlruPolicy>(SpatialCriterion::kArea, 0.25);
  SlruPolicy* policy = policy_owner.get();
  BufferManager buffer(&disk_, 8, std::move(policy_owner));
  EXPECT_EQ(policy->candidate_size(), 2u);
}

TEST_F(SlruPolicyTest, CandidateSizeAtLeastOne) {
  auto policy_owner =
      std::make_unique<SlruPolicy>(SpatialCriterion::kArea, 0.01);
  SlruPolicy* policy = policy_owner.get();
  BufferManager buffer(&disk_, 4, std::move(policy_owner));
  EXPECT_EQ(policy->candidate_size(), 1u);
}

TEST_F(SlruPolicyTest, RecentSmallPageSurvivesOutsideCandidateSet) {
  // 4 frames, candidate fraction 0.5 -> candidate set = 2 LRU pages.
  const PageId tiny_recent = StageAreaPage(disk_, 0.01);
  const PageId old_a = StageAreaPage(disk_, 1.0);
  const PageId old_b = StageAreaPage(disk_, 2.0);
  const PageId mid = StageAreaPage(disk_, 3.0);
  const PageId incoming = StageAreaPage(disk_, 4.0);
  BufferManager buffer(&disk_, 4, std::make_unique<SlruPolicy>(
                                      SpatialCriterion::kArea, 0.5));
  Touch(buffer, old_a, 1);
  Touch(buffer, old_b, 2);
  Touch(buffer, mid, 3);
  Touch(buffer, tiny_recent, 4);
  // Candidates: old_a (t1), old_b (t2). Victim: smaller area -> old_a.
  Touch(buffer, incoming, 5);
  EXPECT_FALSE(buffer.Contains(old_a));
  EXPECT_TRUE(buffer.Contains(tiny_recent))
      << "LRU pre-selection must protect recently used pages";
  EXPECT_TRUE(buffer.Contains(old_b));
  EXPECT_TRUE(buffer.Contains(mid));
}

TEST_F(SlruPolicyTest, FullFractionBehavesLikePureSpatial) {
  const PageId tiny_recent = StageAreaPage(disk_, 0.01);
  const PageId big_old = StageAreaPage(disk_, 5.0);
  const PageId incoming = StageAreaPage(disk_, 1.0);
  BufferManager buffer(&disk_, 2, std::make_unique<SlruPolicy>(
                                      SpatialCriterion::kArea, 1.0));
  Touch(buffer, big_old, 1);
  Touch(buffer, tiny_recent, 2);
  Touch(buffer, incoming, 3);  // full candidate set: tiny page is victim
  EXPECT_FALSE(buffer.Contains(tiny_recent));
  EXPECT_TRUE(buffer.Contains(big_old));
}

}  // namespace
}  // namespace sdb::core
