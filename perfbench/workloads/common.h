#ifndef PERFBENCH_WORKLOADS_COMMON_H_
#define PERFBENCH_WORKLOADS_COMMON_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/buffer_manager.h"
#include "lib/decorators.h"
#include "lib/report.h"
#include "lib/trace.h"
#include "rtree/rtree.h"
#include "sim/scenario.h"
#include "storage/disk_manager.h"
#include "storage/disk_view.h"
#include "svc/buffer_service.h"
#include "workload/query_generator.h"

namespace perfbench {

/// Command-line options of one run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where a traced run writes its sampled spans (JSON lines); empty skips.
  std::string span_out;
};

/// Each client of serve_hot and mixed_commit replays, in a loop, its own
/// kSessionsPerClient browsing sessions of kSessionSteps queries each.
/// Averaging over several sessions keeps the seed's effect on the exact
/// read counts small.
inline constexpr size_t kSessionsPerClient = 4;
inline constexpr size_t kSessionSteps = 5000;

/// Set-up is repeated this many times per run and its median reported, so
/// that one slow build does not decide setup_s.
inline constexpr int kSetupRepetitions = 3;

/// Self times of a traced root must add up to the root's duration within
/// this share (they partition the root's interval, so any gap is a
/// recording bug).
inline constexpr double kSelfTimeTolerance = 1e-3;

/// Runs `build` kSetupRepetitions times, keeping the last result in `out`;
/// returns the median wall time in seconds.
template <typename T>
double TimedSetup(const std::function<T()>& build, T* out);

/// Builds the US-like map of `scale` x 200k objects and its R*-tree by
/// one-by-one insertion (the paper's trees). Like the paper's databases the
/// map is fixed (its canonical seed); the run seed draws only the workload
/// — query sets, sessions, writer operations — so runs with different
/// seeds measure the same database.
sdb::sim::Scenario BuildDatabase(double scale);

/// The sessions of client `client` under run seed `seed`.
std::vector<sdb::workload::QuerySet> MakeClientSessions(
    const sdb::workload::PlacesTable& places, uint64_t seed, size_t client);

/// The per-layer metrics of a traced run. Every name is printed on every
/// workload; a layer that does not run on a workload reads 0.
class LayerMetrics {
 public:
  LayerMetrics();
  void Set(const std::string& name, double value);
  void EmitTo(Report* report) const;

 private:
  struct Entry {
    std::string name;
    std::string unit;
    double value = 0.0;
  };
  std::vector<Entry> entries_;
};

/// Counts of one replay pass through a private BufferManager.
struct PassCounts {
  uint64_t queries = 0;
  uint64_t result_objects = 0;
  uint64_t disk_reads = 0;
  uint64_t requests = 0;
  uint64_t hits = 0;
  uint64_t evictions = 0;
  uint64_t io_errors = 0;
  std::vector<uint32_t> per_query;  ///< result objects of each query

  bool SameDecisions(const PassCounts& other) const {
    return queries == other.queries &&
           result_objects == other.result_objects &&
           disk_reads == other.disk_reads && requests == other.requests &&
           hits == other.hits && evictions == other.evictions &&
           per_query == other.per_query;
  }
};

/// A private replay stack over a read-only view of `disk`: ASB in a
/// BufferManager of `frames` frames, the path of sim::RunQuerySet. With
/// `timed` the policy, the device view and the buffer are wrapped in the
/// timing decorators (spans go to the active recorder, if any). Holds its
/// own members' addresses, hence neither copyable nor movable.
class PrivateStack {
 public:
  PrivateStack(const sdb::storage::DiskManager& disk,
               sdb::storage::PageId tree_meta, size_t frames, bool timed);
  PrivateStack(const PrivateStack&) = delete;
  PrivateStack& operator=(const PrivateStack&) = delete;

  const sdb::rtree::RTree& tree() const { return *tree_; }
  const sdb::core::BufferManager& buffer() const { return *buffer_; }
  const sdb::storage::IoStats& io() const { return view_.stats(); }

 private:
  sdb::storage::ReadOnlyDiskView view_;
  TimedDevice timed_device_;
  std::unique_ptr<sdb::core::BufferManager> buffer_;
  std::unique_ptr<TimedPageSource> timed_source_;
  std::unique_ptr<sdb::rtree::RTree> tree_;
};

/// Replays `queries` once through a fresh PrivateStack (cold buffer).
PassCounts ReplayOnce(const sdb::storage::DiskManager& disk,
                      sdb::storage::PageId tree_meta, size_t frames,
                      const sdb::workload::QuerySet& queries, bool timed);

/// ReplayOnce of each session from a cold buffer, as the paper replays
/// every query set; counts summed, per-query results in session order.
PassCounts ReplaySessions(const sdb::storage::DiskManager& disk,
                          sdb::storage::PageId tree_meta, size_t frames,
                          const std::vector<sdb::workload::QuerySet>& sessions,
                          bool timed);

/// Disk reads per query summed over reference passes — the paper's metric,
/// exact for a given seed.
double ReadsPerQuery(const std::vector<PassCounts>& passes);

/// Query metrics are taken per window of about this length and reported as
/// the median over the windows, so that a burst of load from outside the
/// benchmark moves one window rather than the whole figure.
inline constexpr double kWindowSeconds = 1.0;

/// Outcome of one closed-loop client.
struct ClientResult {
  /// Query latencies by the kWindowSeconds window of the phase in which
  /// each query completed.
  std::vector<LatencyHistogram> windows;
  uint64_t queries = 0;
  uint64_t wrong_results = 0;  ///< result count differs from the reference
  uint64_t io_errors = 0;
};

/// Closed loop: issues the queries of `queries` in order, wrapping around,
/// until `deadline` passes (checked after every query), or after
/// `max_queries` queries when nonzero. Each query runs inside a root span
/// and its result count is checked against `expected`. Latency windows are
/// counted from `origin`, the start of the phase. Query ids are
/// `id_base + n`.
ClientResult RunClient(const sdb::rtree::RTree& tree,
                       const sdb::workload::QuerySet& queries,
                       const std::vector<uint32_t>& expected,
                       std::chrono::steady_clock::time_point origin,
                       std::chrono::steady_clock::time_point deadline,
                       uint64_t id_base, size_t max_queries = 0);

/// Merged view of several clients.
ClientResult MergeClients(std::vector<ClientResult>* clients);

/// Query-path layer metrics from the totals of a traced phase: rtree self
/// time and pages per query, the share of query time under child spans
/// and, when the PageSource is a BufferService, its time per page. Checks
/// that self times add up to query time.
void QueryLayerMetrics(const TraceTotals& totals, bool service,
                       LayerMetrics* layers, Report* report);

/// Buffer-manager layer metrics (policy hooks, fetch self time, device
/// reads) from the totals of a traced PrivateStack replay. Per-call times
/// and the policy share are net of `empty_span_ns` (Tracer::EmptySpanNs).
void CoreLayerMetrics(const TraceTotals& totals, double empty_span_ns,
                      LayerMetrics* layers);

/// Buffer and service-path layer metrics of a BufferService phase, from
/// its ShardStats before and after, over `queries` reader queries.
void ServiceLayerMetrics(const sdb::svc::ShardStats& before,
                         const sdb::svc::ShardStats& after, double queries,
                         LayerMetrics* layers);

/// trace.overhead_pct: the drop from untraced to traced query throughput.
void TraceOverhead(const ClientResult& untraced, double untraced_s,
                   const ClientResult& traced, double traced_s,
                   LayerMetrics* layers);

/// The query end-to-end metrics of a phase that ran `elapsed_s`: per
/// window, the throughput, the median latency and the p99 (which needs at
/// least ten samples beyond it); each reported as the median over the
/// windows, on the result line when `result_line`, else in the table only.
/// A last partial window is folded into the one before it.
void QueryEndToEnd(const ClientResult& merged, double elapsed_s,
                   bool result_line, Report* report);

/// `num / den`, or 0 when `den` is 0 (a layer that did no work).
double Ratio(double num, double den);

/// Seconds since `start`.
inline double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Writes the sampled spans of `tracer` to options.span_out (if set).
void WriteSpans(const Tracer& tracer, const RunOptions& options,
                Report* report);

/// The three workloads; each returns 0 after printing its report.
int RunEvictReplay(const RunOptions& options);
int RunServeHot(const RunOptions& options);
int RunMixedCommit(const RunOptions& options);

template <typename T>
double TimedSetup(const std::function<T()>& build, T* out) {
  std::vector<double> seconds;
  for (int i = 0; i < kSetupRepetitions; ++i) {
    *out = T{};  // release the previous build before timing the next
    const auto start = std::chrono::steady_clock::now();
    *out = build();
    seconds.push_back(SecondsSince(start));
  }
  return Summarize(&seconds).p50;
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_COMMON_H_
