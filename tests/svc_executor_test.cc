#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "sim/scenario.h"
#include "svc/buffer_service.h"
#include "svc/session_executor.h"
#include "workload/session_generator.h"

namespace sdb::svc {
namespace {

class SessionExecutorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::ScenarioOptions options;
    options.kind = sim::DatabaseKind::kUsLike;
    options.build = sim::BuildMode::kBulkLoad;
    options.scale = 0.02;
    scenario_ = new sim::Scenario(sim::BuildScenario(options));
  }
  static void TearDownTestSuite() {
    delete scenario_;
    scenario_ = nullptr;
  }

  /// A batch of short browsing sessions with distinct seeds.
  static std::vector<workload::QuerySet> Sessions(size_t count) {
    std::vector<workload::QuerySet> sessions;
    for (size_t i = 0; i < count; ++i) {
      workload::SessionParams params;
      params.steps = 60;
      params.seed = 100 + i;
      sessions.push_back(
          workload::MakeSessionQuerySet(params, scenario_->places));
    }
    return sessions;
  }

  /// Runs `sessions` through a fresh service with `workers` workers and
  /// returns (results, per-shard request counts).
  static std::pair<std::vector<SessionResult>, std::vector<uint64_t>> Run(
      const std::vector<workload::QuerySet>& sessions, size_t workers,
      size_t shards) {
    BufferServiceConfig service_config;
    service_config.total_frames = 64;
    service_config.shard_count = shards;
    service_config.policy_spec = "ASB";
    BufferService service(*scenario_->disk, service_config);
    SessionExecutorConfig executor_config;
    executor_config.workers = workers;
    executor_config.queue_capacity = 4;
    SessionExecutor executor(scenario_->disk.get(), &service,
                             scenario_->tree_meta, executor_config);
    for (const workload::QuerySet& session : sessions) {
      executor.Submit(session);
    }
    std::vector<SessionResult> results = executor.Finish();
    std::vector<uint64_t> shard_requests;
    for (size_t s = 0; s < service.shard_count(); ++s) {
      shard_requests.push_back(service.StatsOfShard(s).buffer.requests);
    }
    // Cross-check: session access totals must equal what the service saw.
    uint64_t access_sum = 0;
    for (const SessionResult& result : results) {
      access_sum += result.page_accesses;
    }
    EXPECT_EQ(access_sum, service.AggregateStats().buffer.requests);
    return {std::move(results), std::move(shard_requests)};
  }

  static sim::Scenario* scenario_;
};

sim::Scenario* SessionExecutorTest::scenario_ = nullptr;

// The determinism contract: per-session results and per-shard request
// counts are identical for ANY worker count (the paper-facing numbers a
// concurrent harness must not perturb).
TEST_F(SessionExecutorTest, ResultsIdenticalAcrossWorkerCounts) {
  const std::vector<workload::QuerySet> sessions = Sessions(8);
  const auto [serial, serial_shards] = Run(sessions, /*workers=*/1,
                                           /*shards=*/4);
  const auto [parallel, parallel_shards] = Run(sessions, /*workers=*/4,
                                               /*shards=*/4);
  ASSERT_EQ(serial.size(), sessions.size());
  ASSERT_EQ(parallel.size(), sessions.size());
  for (size_t i = 0; i < sessions.size(); ++i) {
    EXPECT_EQ(serial[i].index, i);
    EXPECT_EQ(parallel[i].index, i);
    EXPECT_EQ(serial[i].name, parallel[i].name);
    EXPECT_EQ(serial[i].queries, sessions[i].queries.size());
    EXPECT_EQ(serial[i].result_objects, parallel[i].result_objects)
        << "session " << i << ": result set depends on scheduling";
    EXPECT_EQ(serial[i].page_accesses, parallel[i].page_accesses)
        << "session " << i << ": access count depends on scheduling";
    EXPECT_GT(serial[i].page_accesses, 0u);
  }
  EXPECT_EQ(serial_shards, parallel_shards)
      << "page→shard routing is fixed, so per-shard request counts must "
         "not depend on the worker count";
}

TEST_F(SessionExecutorTest, ShardCountDoesNotChangeSessionResults) {
  const std::vector<workload::QuerySet> sessions = Sessions(4);
  const auto [one_shard, unused1] = Run(sessions, /*workers=*/2,
                                        /*shards=*/1);
  const auto [many_shards, unused2] = Run(sessions, /*workers=*/2,
                                          /*shards=*/8);
  for (size_t i = 0; i < sessions.size(); ++i) {
    EXPECT_EQ(one_shard[i].result_objects, many_shards[i].result_objects);
    EXPECT_EQ(one_shard[i].page_accesses, many_shards[i].page_accesses);
  }
}

TEST_F(SessionExecutorTest, BackpressureBoundsTheQueue) {
  const std::vector<workload::QuerySet> sessions = Sessions(10);
  BufferServiceConfig service_config;
  service_config.total_frames = 32;
  service_config.shard_count = 2;
  BufferService service(*scenario_->disk, service_config);
  SessionExecutorConfig executor_config;
  executor_config.workers = 1;  // one slow consumer
  executor_config.queue_capacity = 2;
  SessionExecutor executor(scenario_->disk.get(), &service,
                           scenario_->tree_meta, executor_config);
  for (const workload::QuerySet& session : sessions) {
    executor.Submit(session);
  }
  const std::vector<SessionResult> results = executor.Finish();
  EXPECT_EQ(results.size(), sessions.size());
  const SessionExecutorStats stats = executor.stats();
  EXPECT_EQ(stats.sessions, sessions.size());
  EXPECT_LE(stats.max_queue_depth, executor_config.queue_capacity)
      << "Submit must block instead of growing the queue";
  EXPECT_GT(stats.backpressure_waits, 0u)
      << "10 sessions through a 2-deep queue with one worker must block";
}

TEST_F(SessionExecutorTest, FinishIsIdempotent) {
  BufferServiceConfig service_config;
  service_config.total_frames = 16;
  service_config.shard_count = 2;
  BufferService service(*scenario_->disk, service_config);
  SessionExecutor executor(scenario_->disk.get(), &service,
                           scenario_->tree_meta);
  for (const workload::QuerySet& session : Sessions(2)) {
    executor.Submit(session);
  }
  const std::vector<SessionResult> first = executor.Finish();
  const std::vector<SessionResult> second = executor.Finish();
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(second.size(), first.size());
  EXPECT_EQ(second[0].page_accesses, first[0].page_accesses);
}

// The paper's Sec. 4.2 clamp under adaptation races: while parallel workers
// drive shared-ASB adaptation, a sampler thread observes the published
// candidate-set size — it must never leave [1, min main capacity].
TEST_F(SessionExecutorTest, SharedCandidateStaysClampedUnderRaces) {
  const std::vector<workload::QuerySet> sessions = Sessions(8);
  BufferServiceConfig service_config;
  service_config.total_frames = 48;
  service_config.shard_count = 4;
  service_config.policy_spec = "ASB";
  BufferService service(*scenario_->disk, service_config);
  ASSERT_NE(service.shared_tuning(), nullptr);
  const int64_t max_candidate = service.shared_tuning()->max_candidate();

  std::atomic<bool> done{false};
  std::atomic<uint64_t> samples{0};
  std::atomic<bool> violated{false};
  std::thread sampler([&] {
    while (!done.load(std::memory_order_acquire)) {
      const size_t c = service.shared_candidate();
      if (c < 1 || c > static_cast<size_t>(max_candidate)) {
        violated.store(true, std::memory_order_release);
      }
      samples.fetch_add(1, std::memory_order_relaxed);
    }
  });

  {
    SessionExecutorConfig executor_config;
    executor_config.workers = 4;
    SessionExecutor executor(scenario_->disk.get(), &service,
                             scenario_->tree_meta, executor_config);
    for (const workload::QuerySet& session : sessions) {
      executor.Submit(session);
    }
    executor.Finish();
  }
  done.store(true, std::memory_order_release);
  sampler.join();

  EXPECT_FALSE(violated.load()) << "published c left the Sec. 4.2 clamps";
  EXPECT_GT(samples.load(), 0u);
  const size_t final_c = service.shared_candidate();
  EXPECT_GE(final_c, 1u);
  EXPECT_LE(final_c, static_cast<size_t>(max_candidate));
}

}  // namespace
}  // namespace sdb::svc
