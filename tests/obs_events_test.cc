#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/buffer_manager.h"
#include "core/policy_asb.h"
#include "obs/collector.h"
#include "test_util.h"

namespace sdb::core {
namespace {

using storage::DiskManager;
using storage::PageId;
using test::StageAreaPage;
using test::Touch;

/// Validates the observability event stream against the paper's Sec. 4.2
/// adaptation rule: the scenarios mirror policy_asb_test, but the assertions
/// run against the emitted kAsbInit/kAsbAdapt/kEviction events instead of
/// the policy's counters.
class ObsEventsTest : public ::testing::Test {
 protected:
  AsbPolicy* MakeBuffer(size_t frames, const AsbConfig& config) {
    obs::CollectorOptions options;
    options.event_capacity = obs::EventRing::kUnbounded;
    collector_ = std::make_unique<obs::Collector>(options);
    auto policy_owner = std::make_unique<AsbPolicy>(config);
    AsbPolicy* policy = policy_owner.get();
    buffer_ = std::make_unique<BufferManager>(
        &disk_, frames, std::move(policy_owner), collector_.get());
    return policy;
  }

  PageId Page(double area) { return StageAreaPage(disk_, area); }

  void TouchAt(PageId page, uint64_t t) { Touch(*buffer_, page, t); }

  std::vector<obs::Event> EventsOfKind(obs::EventKind kind) const {
    std::vector<obs::Event> out;
    collector_->events().ForEach([&](const obs::Event& event) {
      if (event.kind == kind) out.push_back(event);
    });
    return out;
  }

  DiskManager disk_;
  std::unique_ptr<obs::Collector> collector_;
  std::unique_ptr<BufferManager> buffer_;
};

/// The 5-frame configuration the adaptation scenarios use: overflow 2,
/// main 3, step 1.
AsbConfig SmallConfig(double initial_candidate_fraction) {
  AsbConfig config;
  config.overflow_fraction = 0.4;
  config.initial_candidate_fraction = initial_candidate_fraction;
  config.step_fraction = 0.34;
  return config;
}

TEST_F(ObsEventsTest, InitEventCarriesTheBoundConfiguration) {
  AsbPolicy* policy = MakeBuffer(5, SmallConfig(1.0));
  const std::vector<obs::Event> inits =
      EventsOfKind(obs::EventKind::kAsbInit);
  ASSERT_EQ(inits.size(), 1u);
  EXPECT_EQ(inits[0].a, policy->main_capacity());
  EXPECT_EQ(inits[0].b, policy->overflow_capacity());
  EXPECT_EQ(inits[0].c, policy->candidate_size());
  EXPECT_EQ(inits[0].page, policy->step());
}

TEST_F(ObsEventsTest, SpatialMisjudgementEmitsADecreaseEvent) {
  // Paper case 1 (better_spatial > better_lru): the spatial criterion
  // misjudged the re-referenced page -> c shrinks by one step.
  MakeBuffer(5, SmallConfig(1.0));  // spatial demotion, candidate 3
  const PageId p = Page(1);
  TouchAt(Page(10), 1);
  TouchAt(Page(5), 2);
  TouchAt(Page(6), 3);
  TouchAt(p, 4);        // spatial demotion throws out p itself
  TouchAt(Page(7), 5);  // demotes x (area 5)
  TouchAt(p, 6);        // overflow hit on p

  const std::vector<obs::Event> adapts =
      EventsOfKind(obs::EventKind::kAsbAdapt);
  ASSERT_EQ(adapts.size(), 1u);
  const obs::Event& event = adapts[0];
  EXPECT_EQ(event.a, 1u) << "one overflow page beats p spatially";
  EXPECT_EQ(event.b, 0u) << "no overflow page beats p under LRU";
  EXPECT_EQ(event.delta, -1);
  EXPECT_EQ(event.c, 2u) << "candidate set shrank 3 -> 2";
  EXPECT_EQ(event.page, p);
  EXPECT_EQ(event.query, 6u);
}

TEST_F(ObsEventsTest, LruMisjudgementEmitsAnIncreaseEvent) {
  // Paper case 2 (better_spatial < better_lru): LRU misjudged the page the
  // spatial criterion would have kept -> c grows by one step.
  MakeBuffer(5, SmallConfig(0.2));  // candidate 1 -> LRU demotion
  const PageId big = Page(10);
  TouchAt(big, 1);
  TouchAt(Page(1), 2);
  TouchAt(Page(6), 3);
  TouchAt(Page(7), 4);  // LRU demotion: big (t1)
  TouchAt(Page(8), 5);  // LRU demotion: small (t2)
  TouchAt(big, 6);      // overflow hit on big

  const std::vector<obs::Event> adapts =
      EventsOfKind(obs::EventKind::kAsbAdapt);
  ASSERT_EQ(adapts.size(), 1u);
  const obs::Event& event = adapts[0];
  EXPECT_EQ(event.a, 0u);
  EXPECT_EQ(event.b, 1u);
  EXPECT_EQ(event.delta, 1);
  EXPECT_EQ(event.c, 2u) << "candidate set grew 1 -> 2";
  EXPECT_EQ(event.page, big);
}

TEST_F(ObsEventsTest, BalancedEvidenceEmitsATieEvent) {
  // Paper case 3 (equal counts): the event still records the overflow hit,
  // with delta 0 and an unchanged candidate size.
  MakeBuffer(5, SmallConfig(0.2));
  const PageId p = Page(1);
  TouchAt(p, 1);
  TouchAt(Page(9), 2);
  TouchAt(Page(5), 3);
  TouchAt(Page(6), 4);  // demotes p
  TouchAt(Page(7), 5);  // demotes q (area 9, t2)
  TouchAt(p, 6);        // q beats p both spatially and under LRU

  const std::vector<obs::Event> adapts =
      EventsOfKind(obs::EventKind::kAsbAdapt);
  ASSERT_EQ(adapts.size(), 1u);
  EXPECT_EQ(adapts[0].a, 1u);
  EXPECT_EQ(adapts[0].b, 1u);
  EXPECT_EQ(adapts[0].delta, 0);
  EXPECT_EQ(adapts[0].c, 1u) << "candidate size unchanged";
}

TEST_F(ObsEventsTest, EvictionEventCarriesTheVictim) {
  MakeBuffer(5, SmallConfig(0.2));
  const PageId first = Page(1);
  TouchAt(first, 1);
  TouchAt(Page(2), 2);
  TouchAt(Page(3), 3);
  TouchAt(Page(4), 4);
  TouchAt(Page(5), 5);
  ASSERT_TRUE(EventsOfKind(obs::EventKind::kEviction).empty())
      << "filling free frames evicts nothing";
  TouchAt(Page(6), 6);  // buffer full: evicts the FIFO head = `first`

  const std::vector<obs::Event> evictions =
      EventsOfKind(obs::EventKind::kEviction);
  ASSERT_EQ(evictions.size(), 1u);
  EXPECT_EQ(evictions[0].page, first);
  EXPECT_FALSE(evictions[0].flag) << "clean page, no writeback";
  EXPECT_EQ(evictions[0].query, 6u);
}

TEST_F(ObsEventsTest, EventStreamSatisfiesTheThreeCaseRule) {
  // Churn pages through a 10-frame buffer, re-referencing recently demoted
  // pages to provoke overflow hits, then replay the whole event stream
  // against the paper's rule: every kAsbAdapt must encode
  // delta = sign(better_lru - better_spatial) and the clamped step update
  // c' = clamp(c +- step, 1, main_capacity).
  AsbConfig config;
  config.overflow_fraction = 0.4;             // overflow 4, main 6
  config.initial_candidate_fraction = 0.5;    // candidate 3
  config.step_fraction = 0.17;                // step 1
  MakeBuffer(10, config);

  // Cycle over a working set of 8 pages that fits the 10-frame buffer
  // entirely: nothing is ever evicted, but the main section only holds 6
  // pages, so 2 of the 8 always sit in the overflow section. Whenever the
  // cycle reaches one of those, the touch is an overflow hit and must emit
  // one kAsbAdapt event — reliably dozens of them over 200 touches.
  std::vector<PageId> pages;
  for (int i = 0; i < 8; ++i) pages.push_back(Page(1.0 + (i * 5) % 8));
  uint64_t t = 0;
  for (int i = 0; i < 200; ++i) {
    TouchAt(pages[static_cast<size_t>(i) % pages.size()], ++t);
  }

  const std::vector<obs::Event> inits =
      EventsOfKind(obs::EventKind::kAsbInit);
  ASSERT_EQ(inits.size(), 1u);
  const uint64_t main_capacity = inits[0].a;
  const uint64_t step = inits[0].page;
  uint64_t candidate = inits[0].c;

  const std::vector<obs::Event> adapts =
      EventsOfKind(obs::EventKind::kAsbAdapt);
  ASSERT_GT(adapts.size(), 10u) << "the workload must provoke overflow hits";
  bool saw_decrease = false, saw_increase = false;
  for (const obs::Event& event : adapts) {
    const int expected_delta =
        event.a > event.b ? -1 : (event.a < event.b ? 1 : 0);
    EXPECT_EQ(event.delta, expected_delta)
        << "better_spatial=" << event.a << " better_lru=" << event.b;
    uint64_t expected_c = candidate;
    if (expected_delta > 0) {
      expected_c = std::min(main_capacity, candidate + step);
    } else if (expected_delta < 0) {
      expected_c = candidate > step ? candidate - step : 1;
    }
    EXPECT_EQ(event.c, expected_c);
    candidate = event.c;
    saw_decrease = saw_decrease || event.delta < 0;
    saw_increase = saw_increase || event.delta > 0;
  }
  EXPECT_TRUE(saw_decrease || saw_increase)
      << "at least one adaptation must actually move the candidate set";

  // The buffer's metrics snapshot must agree with the event stream.
  const auto adapts_with_delta = [&adapts](int sign) {
    return static_cast<uint64_t>(
        std::count_if(adapts.begin(), adapts.end(),
                      [sign](const obs::Event& e) { return e.delta == sign; }));
  };
  size_t asb_series = 0;
  for (const obs::MetricValue& value : buffer_->MetricsSnapshot()) {
    if (value.name == "asb.overflow_hits") {
      ++asb_series;
      EXPECT_EQ(value.count, adapts.size());
    }
    if (value.name == "asb.candidate") {
      ++asb_series;
      EXPECT_DOUBLE_EQ(value.value, static_cast<double>(candidate));
    }
    if (value.name == "asb.candidate_decreases") {
      ++asb_series;
      EXPECT_EQ(value.count, adapts_with_delta(-1));
    }
    if (value.name == "asb.candidate_increases") {
      ++asb_series;
      EXPECT_EQ(value.count, adapts_with_delta(1));
    }
  }
  EXPECT_EQ(asb_series, 4u) << "every asb.* series is in the snapshot";
}

}  // namespace
}  // namespace sdb::core
