#ifndef PERFBENCH_LIB_TRACE_H_
#define PERFBENCH_LIB_TRACE_H_

// In-memory span recorder of the traced benchmark run.
//
// Spans are recorded from the benchmark's own files only: the decorators in
// decorators.h open one around every call into a layer's public interface,
// and the workloads open the root span (one query, one writer operation,
// one commit, one recovery). Every thread keeps its own open-span stack, so
// a span's parent is whatever span the same thread had open when it began.
//
// Cost is bounded two ways. Per-(root kind, span kind) sums of count,
// duration and self time are exact and live in a fixed-size array per
// thread. Full span records (name, start, end, parent, root) are kept only
// for 1-in-N sampled root spans, up to a per-thread cap, and written out as
// JSON lines when the run ends.

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Span kinds, one per layer boundary the benchmark times.
enum class Span : uint8_t {
  // Roots (opened by the workloads).
  kQuery,       ///< one RTree::WindowQueryVisit
  kWriteOp,     ///< one RTree::Insert or RTree::Delete
  kCommit,      ///< one BufferService::Commit (with PersistMeta)
  kCheckpoint,  ///< one BufferService::Checkpoint
  kRecover,     ///< one wal::Recover
  // core::PageSource (BufferManager or BufferService).
  kFetch,
  kFetchBatch,
  kNew,
  // storage::PageDevice.
  kDevRead,
  kDevWrite,
  kDevSync,
  // core::ReplacementPolicy hooks.
  kPolicyOnLoad,
  kPolicyOnAccess,
  kPolicySetEvictable,
  kPolicyChooseVictim,
  kPolicyOnEvict,
  kCount,
};

inline constexpr size_t kSpanKinds = static_cast<size_t>(Span::kCount);

/// Stable lower-case name of a span kind ("query", "policy.on_load", ...).
const char* SpanName(Span span);

/// Event counters recorded at the same boundaries as the spans.
enum class Counter : uint8_t {
  kPagesFetched,  ///< pages requested through PageSource (batch = n)
  kCount,
};

inline constexpr size_t kCounterKinds = static_cast<size_t>(Counter::kCount);

/// Exact totals of one span kind.
struct SpanTotals {
  uint64_t count = 0;
  uint64_t total_ns = 0;  ///< summed durations
  uint64_t self_ns = 0;   ///< summed durations minus child-covered time
};

/// Totals of every span kind, grouped by the kind of the root span they ran
/// under (a root groups under itself). Spans opened on a thread with no
/// open span — e.g. log writes on the WAL's group-commit thread — are roots
/// of their own kind.
struct TraceTotals {
  std::array<std::array<SpanTotals, kSpanKinds>, kSpanKinds> by_root{};
  std::array<std::array<uint64_t, kCounterKinds>, kSpanKinds> counters{};
  /// Per root kind: root time covered by the root's direct children.
  std::array<uint64_t, kSpanKinds> root_covered_ns{};

  const SpanTotals& Get(Span root, Span span) const {
    return by_root[static_cast<size_t>(root)][static_cast<size_t>(span)];
  }
  uint64_t CounterOf(Span root, Counter counter) const {
    return counters[static_cast<size_t>(root)][static_cast<size_t>(counter)];
  }
  /// The same span kind summed over every root kind.
  SpanTotals Sum(Span span) const;
  /// Sum of self time of every span under `root`; equals the root spans'
  /// summed duration, because self times partition each root's interval.
  uint64_t SelfSumUnder(Span root) const;
};

/// One recorded span of a sampled root.
struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 for a root
  uint64_t root = 0;
  uint32_t thread = 0;
  Span span = Span::kQuery;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Recorder shared by every thread of one traced phase. At most one
/// recorder is active at a time (Activate); the decorators record into it.
class Tracer {
 public:
  /// Keeps full records for every `sample_every`-th root per thread, at
  /// most `max_records_per_thread` records per thread.
  explicit Tracer(uint32_t sample_every = 64,
                  size_t max_records_per_thread = 1 << 16);
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Makes this recorder the target of Begin/End (nullptr detaches).
  static void Activate(Tracer* tracer);
  static Tracer* active();

  /// Opens a span on the calling thread.
  static void Begin(Span span);
  /// Closes the innermost open span of the calling thread.
  static void End();
  /// Adds to a counter of the calling thread's current root kind.
  static void Count(Counter counter, uint64_t n);

  /// Exact totals merged over all threads. Call after the threads ended.
  TraceTotals Totals() const;
  /// Sampled span records of every thread.
  std::vector<SpanRecord> Records() const;
  /// Writes Records() as JSON lines; false on I/O failure.
  bool WriteJsonLines(const std::string& path) const;

  /// Mean recorded duration of an empty span (the cost of the clock read
  /// between its start and end stamps), measured on the calling thread.
  /// Subtracted from the per-call figures of hooks that cost about as much.
  static double EmptySpanNs();

  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  struct ThreadState;

 private:
  ThreadState* StateForThisThread();

  const uint64_t id_;  // process-unique, never recycled
  const uint32_t sample_every_;
  const size_t max_records_;
  mutable std::mutex mu_;  // guards threads_
  std::vector<std::unique_ptr<ThreadState>> threads_;
};

/// RAII span on the active recorder; a no-op when none is active.
class ScopedSpan {
 public:
  explicit ScopedSpan(Span span) : on_(Tracer::active() != nullptr) {
    if (on_) Tracer::Begin(span);
  }
  ~ScopedSpan() {
    if (on_) Tracer::End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const bool on_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LIB_TRACE_H_
