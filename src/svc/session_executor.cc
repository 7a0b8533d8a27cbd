#include "svc/session_executor.h"

#include <algorithm>
#include <utility>

#include "common/macros.h"
#include "core/access_context.h"
#include "rtree/rtree.h"

namespace sdb::svc {

void PinLatencyHistogram::Record(double ns, uint64_t weight) {
  size_t b = 0;
  while (b < std::size(kPinLatencyBoundsNs) && ns > kPinLatencyBoundsNs[b]) {
    ++b;
  }
  counts[b] += weight;
  sum_ns += ns * static_cast<double>(weight);
  observations += weight;
}

void PinLatencyHistogram::MergeFrom(const PinLatencyHistogram& other) {
  for (size_t b = 0; b < kBuckets; ++b) counts[b] += other.counts[b];
  sum_ns += other.sum_ns;
  observations += other.observations;
}

void CountingSource::RecordElapsed(std::chrono::steady_clock::time_point start,
                                   uint64_t pages) {
  const double elapsed_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  // A batch's pages share one wall interval; record each at the mean so
  // observation count stays equal to page-access count.
  pin_latency_.Record(elapsed_ns / static_cast<double>(pages), pages);
}

SessionExecutor::SessionExecutor(const storage::DiskManager* disk,
                                 core::PageSource* source,
                                 storage::PageId tree_meta,
                                 const SessionExecutorConfig& config)
    : disk_(disk), source_(source), tree_meta_(tree_meta), config_(config) {
  SDB_CHECK(config_.workers > 0);
  SDB_CHECK(config_.queue_capacity > 0);
  workers_.reserve(config_.workers);
  for (size_t w = 0; w < config_.workers; ++w) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

SessionExecutor::~SessionExecutor() { Finish(); }

void SessionExecutor::Submit(const workload::QuerySet& session) {
  SDB_CHECK_MSG(session.queries.size() < config_.query_id_stride,
                "session longer than the query-id stride");
  std::unique_lock<std::mutex> lock(mu_);
  SDB_CHECK_MSG(!closed_, "Submit after Finish");
  if (queue_.size() >= config_.queue_capacity) {
    ++backpressure_waits_;
    not_full_.wait(lock, [this] {
      return queue_.size() < config_.queue_capacity;
    });
  }
  const size_t index = submitted_++;
  results_.emplace_back();
  spans_.emplace_back();
  queue_.push_back(Pending{index, session});
  max_queue_depth_ = std::max(max_queue_depth_, queue_.size());
  lock.unlock();
  not_empty_.notify_one();
}

std::vector<SessionResult> SessionExecutor::Finish() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  not_empty_.notify_all();
  if (!finished_) {
    for (std::thread& worker : workers_) worker.join();
    finished_ = true;
  }
  std::vector<SessionResult> results(results_.begin(), results_.end());
  return results;
}

SessionExecutorStats SessionExecutor::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  SessionExecutorStats stats;
  stats.sessions = submitted_;
  stats.backpressure_waits = backpressure_waits_;
  stats.max_queue_depth = max_queue_depth_;
  return stats;
}

PinLatencyHistogram SessionExecutor::pin_latency() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return pin_latency_;
}

std::vector<obs::Event> SessionExecutor::Spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<obs::Event> spans;
  for (const std::vector<obs::Event>& session : spans_) {
    spans.insert(spans.end(), session.begin(), session.end());
  }
  return spans;
}

uint64_t SessionExecutor::spans_dropped() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_dropped_;
}

void SessionExecutor::WorkerLoop() {
  for (;;) {
    Pending pending;
    {
      std::unique_lock<std::mutex> lock(mu_);
      not_empty_.wait(lock, [this] { return closed_ || !queue_.empty(); });
      if (queue_.empty()) return;  // closed and drained
      pending = std::move(queue_.front());
      queue_.pop_front();
    }
    not_full_.notify_one();
    SessionResult result = RunSession(pending.index, pending.session);
    {
      const std::lock_guard<std::mutex> lock(mu_);
      results_[pending.index] = std::move(result);
    }
  }
}

SessionResult SessionExecutor::RunSession(size_t index,
                                          const workload::QuerySet& session) {
  SessionResult result;
  result.index = index;
  result.name = session.name;
  result.queries = session.queries.size();

  // Per-session access counter over the shared source; the tree itself is
  // opened per session (traversal holds no shared state).
  CountingSource counting(source_, config_.record_pin_latency);
  const rtree::RTree tree = rtree::RTree::Open(disk_, &counting, tree_meta_);

  const uint64_t logical =
      static_cast<uint64_t>(index) + config_.session_index_offset;
  uint64_t query_id = logical * config_.query_id_stride;
  // This worker owns the session's span ring for the whole session; it is
  // handed to the executor once the session span has closed.
  const uint64_t sample_every = config_.trace_sample_every;
  obs::EventRing spans(sample_every != 0 ? kSessionSpanCapacity : 0);
  {
    // The session span is its own trace (trace id = the query-id base,
    // which no query uses — ids start at base + 1) on the session's track;
    // sampled queries land on the same track, so the viewer nests them by
    // time.
    obs::SpanContext session_span;
    if (sample_every != 0) {
      session_span.sink = &spans;
      session_span.trace_id = query_id;
      session_span.track = static_cast<uint32_t>(logical);
    }
    obs::ScopedSpan session_scope(&session_span, obs::SpanKind::kSession);
    session_scope.set_payload(session.queries.size());
    for (const geom::Rect& window : session.queries) {
      core::AccessContext ctx{++query_id};
      // One fresh per-query context so span ids restart at 1 in every
      // trace.
      obs::SpanContext query_span;
      if (sample_every != 0 && query_id % sample_every == 0) {
        query_span.sink = &spans;
        query_span.trace_id = query_id;
        query_span.track = static_cast<uint32_t>(logical);
        ctx.span = &query_span;
      }
      obs::ScopedSpan query_scope(ctx.span, obs::SpanKind::kQuery);
      tree.WindowQueryVisit(window, ctx, [&result](const rtree::Entry&) {
        ++result.result_objects;
      });
    }
  }
  result.page_accesses = counting.fetches();
  result.io_errors = counting.io_errors();
  if (config_.record_pin_latency || sample_every != 0) {
    const std::lock_guard<std::mutex> lock(mu_);
    pin_latency_.MergeFrom(counting.pin_latency());
    spans_[index] = spans.Snapshot();
    spans_dropped_ += spans.dropped();
  }
  return result;
}

}  // namespace sdb::svc
