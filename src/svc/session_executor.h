#ifndef SPATIALBUFFER_SVC_SESSION_EXECUTOR_H_
#define SPATIALBUFFER_SVC_SESSION_EXECUTOR_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <iterator>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/buffer_manager.h"
#include "obs/trace.h"
#include "storage/disk_manager.h"
#include "workload/query_generator.h"

namespace sdb::svc {

/// Inclusive upper bounds, in nanoseconds, of the per-pin latency histogram
/// (the last bucket is overflow). Log-spaced from sub-microsecond cache
/// hits out to multi-millisecond injected latency spikes, and shared with
/// the obs export so quantiles come from the same buckets everywhere.
inline constexpr double kPinLatencyBoundsNs[] = {
    250,       500,        1'000,      2'000,      4'000,     8'000,
    16'000,    32'000,     64'000,     128'000,    256'000,   512'000,
    1'000'000, 2'000'000,  4'000'000,  8'000'000};

/// Fixed-bucket per-pin latency histogram (bounds kPinLatencyBoundsNs).
/// Plain counters so sessions can fill one privately and the executor can
/// merge under its own lock — obs::HistogramQuantile reads it directly.
struct PinLatencyHistogram {
  static constexpr size_t kBuckets = std::size(kPinLatencyBoundsNs) + 1;

  uint64_t counts[kBuckets] = {};
  double sum_ns = 0.0;
  uint64_t observations = 0;

  void Record(double ns, uint64_t weight = 1);
  void MergeFrom(const PinLatencyHistogram& other);
};

/// PageSource decorator counting the fetches routed through it (and,
/// separately, the fetches that came back as errors). The executor gives
/// every session its own counter, so per-session access totals are exact
/// regardless of how sessions interleave on the shared service underneath.
/// With `time_pins`, every fetch's wall latency also lands in a per-session
/// histogram (a batch records one observation per page at the batch's mean,
/// keeping observation count == page-access count).
class CountingSource final : public core::PageSource {
 public:
  explicit CountingSource(core::PageSource* inner, bool time_pins = false)
      : inner_(inner), time_pins_(time_pins) {}

  core::StatusOr<core::PageHandle> Fetch(storage::PageId page,
                                         const core::AccessContext& ctx)
      override {
    ++fetches_;
    const auto start = time_pins_ ? std::chrono::steady_clock::now()
                                  : std::chrono::steady_clock::time_point{};
    core::StatusOr<core::PageHandle> fetched = inner_->Fetch(page, ctx);
    if (time_pins_) RecordElapsed(start, 1);
    if (!fetched.ok()) ++io_errors_;
    return fetched;
  }
  // Forwarding override: without it the decorator would degrade every batch
  // to the base class's sequential-Fetch fallback and quietly lose the
  // service's one-latch-hold-per-shard batch path.
  void FetchBatch(std::span<const storage::PageId> pages,
                  const core::AccessContext& ctx,
                  std::vector<core::StatusOr<core::PageHandle>>* out)
      override {
    fetches_ += pages.size();
    const auto start = time_pins_ ? std::chrono::steady_clock::now()
                                  : std::chrono::steady_clock::time_point{};
    const size_t first = out->size();
    inner_->FetchBatch(pages, ctx, out);
    if (time_pins_ && !pages.empty()) RecordElapsed(start, pages.size());
    for (size_t i = first; i < out->size(); ++i) {
      if (!(*out)[i].ok()) ++io_errors_;
    }
  }
  core::StatusOr<core::PageHandle> New(const core::AccessContext& ctx)
      override {
    return inner_->New(ctx);
  }
  std::span<const std::byte> Peek(storage::PageId page) const override {
    return inner_->Peek(page);
  }
  bool PrefersBatchedReads() const override {
    return inner_->PrefersBatchedReads();
  }
  // Same reasoning: swallowing the budget would let batch callers pin a
  // shard of the decorated service wall-to-wall.
  size_t BatchPinBudget() const override { return inner_->BatchPinBudget(); }

  uint64_t fetches() const { return fetches_; }
  uint64_t io_errors() const { return io_errors_; }
  const PinLatencyHistogram& pin_latency() const { return pin_latency_; }

 private:
  void RecordElapsed(std::chrono::steady_clock::time_point start,
                     uint64_t pages);

  core::PageSource* inner_;
  bool time_pins_ = false;
  uint64_t fetches_ = 0;
  uint64_t io_errors_ = 0;
  PinLatencyHistogram pin_latency_;
};

/// Span-ring capacity of one traced session (EventRing semantics: keep the
/// newest, count the rest in SessionExecutor::spans_dropped()).
inline constexpr size_t kSessionSpanCapacity = size_t{1} << 16;

/// Construction knobs of a SessionExecutor.
struct SessionExecutorConfig {
  size_t workers = 4;
  /// Submitted-but-unclaimed session limit; Submit blocks (backpressure)
  /// when the queue is full.
  size_t queue_capacity = 8;
  /// Session i draws its query ids from [i*stride, (i+1)*stride): disjoint
  /// per session, and each id names the same query in every run regardless
  /// of which worker executes it. Must exceed every session's query count.
  uint64_t query_id_stride = uint64_t{1} << 20;
  /// Time every pin (Fetch/FetchBatch wall latency) into the executor-wide
  /// histogram returned by pin_latency(). Off by default: the two clock
  /// reads per fetch are measurable on the latch-free hit path.
  bool record_pin_latency = false;
  /// Span tracing. 0 (the default) leaves every access detached — no ids
  /// minted, no clock reads, one pointer compare per site. N > 0 gives each
  /// session one kSession span and traces every query whose id is a
  /// multiple of N (a pure function of the id, not of scheduling) under a
  /// kQuery span whose context rides core::AccessContext::span into the
  /// service layer. A session's spans land in a ring of
  /// kSessionSpanCapacity events owned by the worker running it; Spans()
  /// returns them after Finish().
  uint64_t trace_sample_every = 0;
  /// Added to the submission index when deriving the session's logical
  /// index (query-id base = logical * query_id_stride, trace track =
  /// logical). Lets a bench run two executor phases over one service
  /// without colliding query ids or trace tracks.
  size_t session_index_offset = 0;
};

/// Outcome of one executed session. `index`, `queries`, `result_objects`
/// and `page_accesses` depend only on the session and the tree — not on
/// worker count, scheduling, or the shared buffer's state — so results are
/// bitwise identical for any degree of concurrency.
struct SessionResult {
  size_t index = 0;    ///< submission order
  std::string name;    ///< query-set name
  uint64_t queries = 0;
  uint64_t result_objects = 0;
  uint64_t page_accesses = 0;
  /// Fetches the session's query traversals absorbed as errors (failed
  /// after the service's bounded retries). Nonzero means result_objects is
  /// a lower bound — the session degraded instead of aborting.
  uint64_t io_errors = 0;
};

/// Executor-level counters.
struct SessionExecutorStats {
  uint64_t sessions = 0;
  /// Submit calls that blocked on a full queue.
  uint64_t backpressure_waits = 0;
  /// High-water mark of queued (unclaimed) sessions.
  size_t max_queue_depth = 0;
};

/// Multi-client session executor: a fixed worker pool draining a bounded
/// queue of browsing sessions (workload query sets), every worker replaying
/// its session's window queries against one shared tree through one shared
/// PageSource — the concurrent-service harness of the paper's workloads.
///
/// Each worker opens its own RTree view of the persisted tree (tree
/// traversal state is per-session; only the page source is shared) and
/// wraps the source in a per-session CountingSource. Results are returned
/// in submission order with deterministic per-session accounting.
class SessionExecutor {
 public:
  /// `source` is the shared page source (typically a BufferService) and
  /// must stay alive until Finish() returns. `tree_meta` is the persisted
  /// tree's meta page on `disk`.
  SessionExecutor(const storage::DiskManager* disk, core::PageSource* source,
                  storage::PageId tree_meta,
                  const SessionExecutorConfig& config = {});
  ~SessionExecutor();

  SessionExecutor(const SessionExecutor&) = delete;
  SessionExecutor& operator=(const SessionExecutor&) = delete;

  /// Enqueues one session; blocks while the queue is full. The set is
  /// copied, so the caller may reuse or drop it. Must not be called after
  /// Finish().
  void Submit(const workload::QuerySet& session);

  /// Closes the queue, waits for every submitted session to finish, joins
  /// the workers, and returns the results in submission order. Idempotent;
  /// the destructor calls it if the caller did not.
  std::vector<SessionResult> Finish();

  SessionExecutorStats stats() const;
  const SessionExecutorConfig& config() const { return config_; }

  /// Merged per-pin latency histogram over every finished session (all
  /// zero unless config().record_pin_latency). Quantiles via
  /// obs::HistogramQuantile over kPinLatencyBoundsNs.
  PinLatencyHistogram pin_latency() const;

  /// Span events of every finished session, in submission order; within a
  /// session, in the order the spans closed (children before parents).
  /// Empty unless config().trace_sample_every.
  std::vector<obs::Event> Spans() const;
  /// Spans that fell off the front of a full session ring, summed over
  /// sessions.
  uint64_t spans_dropped() const;

 private:
  struct Pending {
    size_t index = 0;
    workload::QuerySet session;
  };

  void WorkerLoop();
  SessionResult RunSession(size_t index, const workload::QuerySet& session);

  const storage::DiskManager* disk_;
  core::PageSource* source_;
  storage::PageId tree_meta_;
  SessionExecutorConfig config_;

  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<Pending> queue_;
  bool closed_ = false;
  size_t submitted_ = 0;
  uint64_t backpressure_waits_ = 0;
  size_t max_queue_depth_ = 0;
  // One slot per submitted session, filled by whichever worker ran it;
  // deque so slot references stay stable while Submit grows the container.
  std::deque<SessionResult> results_;
  // Per-session span streams, slotted like results_.
  std::deque<std::vector<obs::Event>> spans_;
  uint64_t spans_dropped_ = 0;
  PinLatencyHistogram pin_latency_;
  std::vector<std::thread> workers_;
  bool finished_ = false;
};

}  // namespace sdb::svc

#endif  // SPATIALBUFFER_SVC_SESSION_EXECUTOR_H_
