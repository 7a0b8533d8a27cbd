// mixed_commit: reads beside WAL commits. One writable svc::BufferService
// (ASB, 4 shards, 512 frames — fewer than the static tree alone has pages)
// with a group-commit wal::WalManager and one background flusher thread.
// Two reader clients replay browsing sessions on the static tree while one
// writer churns a second tree it created on the same service: insert or
// delete, PersistMeta + Commit every kCommitEvery operations and a strict
// Checkpoint every kCheckpointEvery commits. At the end the data device as
// the crash left it is recovered from the log with wal::Recover.
//
// The reader fetch and latch path thus runs next to writes: Commit holds
// every shard latch, and write-back, WAL append/sync and redo all run. A
// gain for readers that stalls commits, or the reverse, shows up here.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <thread>

#include "common/random.h"
#include "core/policy_factory.h"
#include "svc/buffer_service.h"
#include "svc/flush_coordinator.h"
#include "wal/recovery.h"
#include "wal/wal.h"
#include "workloads/common.h"

namespace perfbench {

namespace {

constexpr double kScale = 0.25;  // ~1.7k static tree pages
constexpr size_t kFrames = 512;
constexpr size_t kShards = 4;
constexpr size_t kReaders = 2;
constexpr size_t kPrefillObjects = 10000;  // writer tree before measuring
// The writer is an open loop: one edit batch of kCommitEvery operations
// plus its commit is due every kCommitEvery / kWriterOpsPerSecond seconds,
// so every run writes the same amount — and grows the in-memory log by the
// same amount — whatever the readers do. At 8000 ops/s the writer fell
// behind whenever the host ran slow, and the readers' throughput halved.
constexpr double kWriterOpsPerSecond = 4000;
constexpr size_t kCommitEvery = 32;
constexpr size_t kTiles = 32;
constexpr size_t kCheckpointEvery = 16;
constexpr double kDeleteShare = 0.5;  // keeps the writer tree's size level
constexpr double kMaxObjectExtent = 0.004;

struct Inputs {
  sdb::sim::Scenario scenario;
  // Per client: its sessions, and the same queries back to back.
  std::vector<std::vector<sdb::workload::QuerySet>> sessions;
  std::vector<sdb::workload::QuerySet> queries;
};

Inputs MakeInputs(uint64_t seed) {
  Inputs in;
  in.scenario = BuildDatabase(kScale);
  for (size_t r = 0; r < kReaders; ++r) {
    in.sessions.push_back(MakeClientSessions(in.scenario.places, seed, r));
    in.queries.push_back(sdb::workload::ConcatQuerySets(in.sessions.back()));
  }
  return in;
}

// The writer: a closed loop of inserts and deletes on its own tree, with
// the live object set it must find again after recovery. Each commit group
// edits one tile of a kTiles x kTiles grid, the way an editing session
// changes one map region at a time; that keeps the pages per commit — and
// with them the log, which the simulated device holds in memory — small.
class Writer {
 public:
  Writer(sdb::rtree::RTree* tree, sdb::svc::BufferService* service,
         uint64_t seed)
      : tree_(tree), service_(service), rng_(seed), live_(kTiles * kTiles) {}

  struct Phase {
    uint64_t ops = 0;
    uint64_t commits = 0;
    uint64_t failed = 0;  // lost deletes, failed commits or checkpoints
    double elapsed_s = 0.0;
    std::vector<double> commit_us;
    double max_lag_ms = 0.0;  // how late the latest batch started
  };

  /// Inserts `n` objects over the whole grid and commits, outside any
  /// measured phase.
  bool Prefill(size_t n) {
    for (size_t i = 0; i < n; ++i) Insert(rng_.NextBelow(live_.size()));
    tree_->PersistMeta();
    return service_->Commit(Context()).ok() &&
           service_->Checkpoint(Context()).ok();
  }

  /// Runs until `deadline`, then on to the commit that lies half-way
  /// between two checkpoints, so every run leaves recovery the same
  /// number of commits after its last checkpoint.
  Phase Run(std::chrono::steady_clock::time_point deadline) {
    Phase phase;
    const auto start = std::chrono::steady_clock::now();
    const auto period =
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(kCommitEvery / kWriterOpsPerSecond));
    auto due = start;
    bool past_deadline = false;
    for (;;) {
      std::this_thread::sleep_until(due);
      phase.max_lag_ms = std::max(
          phase.max_lag_ms, std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - due)
                                .count());
      due += period;
      const size_t tile = rng_.NextBelow(live_.size());
      for (size_t i = 0; i < kCommitEvery; ++i) {
        if (!live_[tile].empty() && rng_.NextDouble() < kDeleteShare) {
          if (!Delete(tile)) ++phase.failed;
        } else {
          Insert(tile);
        }
      }
      phase.ops += kCommitEvery;
      const auto commit_start = std::chrono::steady_clock::now();
      {
        ScopedSpan span(Span::kCommit);
        tree_->PersistMeta();
        if (!service_->Commit(Context()).ok()) ++phase.failed;
      }
      const auto commit_end = std::chrono::steady_clock::now();
      phase.commit_us.push_back(
          std::chrono::duration<double, std::micro>(commit_end - commit_start)
              .count());
      ++phase.commits;
      ++commits_;
      if (commits_ % kCheckpointEvery == 0) {
        ScopedSpan span(Span::kCheckpoint);
        if (!service_->Checkpoint(Context()).ok()) ++phase.failed;
      }
      past_deadline = past_deadline || commit_end >= deadline;
      if (past_deadline &&
          commits_ % kCheckpointEvery == kCheckpointEvery / 2) {
        break;
      }
    }
    phase.elapsed_s = SecondsSince(start);
    return phase;
  }

  /// Ids of the live objects, ascending.
  std::vector<uint64_t> LiveIds() const {
    std::vector<uint64_t> ids;
    for (const std::vector<sdb::rtree::Entry>& tile : live_) {
      for (const sdb::rtree::Entry& e : tile) ids.push_back(e.id);
    }
    std::sort(ids.begin(), ids.end());
    return ids;
  }

 private:
  sdb::core::AccessContext Context() { return {(7ull << 40) + ++op_id_}; }

  void Insert(size_t tile) {
    const double edge = 1.0 / kTiles;
    const double x =
        edge * static_cast<double>(tile % kTiles) + rng_.Uniform(0, edge);
    const double y =
        edge * static_cast<double>(tile / kTiles) + rng_.Uniform(0, edge);
    sdb::rtree::Entry entry;
    entry.rect = sdb::geom::Rect(x, y, x + rng_.Uniform(0, kMaxObjectExtent),
                                 y + rng_.Uniform(0, kMaxObjectExtent));
    entry.id = ++next_id_;
    {
      ScopedSpan span(Span::kWriteOp);
      tree_->Insert(entry, Context());
    }
    live_[tile].push_back(entry);
  }

  bool Delete(size_t tile) {
    std::vector<sdb::rtree::Entry>& objects = live_[tile];
    const size_t i = rng_.NextBelow(objects.size());
    const sdb::rtree::Entry entry = objects[i];
    objects[i] = objects.back();
    objects.pop_back();
    ScopedSpan span(Span::kWriteOp);
    return tree_->Delete(entry.id, entry.rect, Context());
  }

  sdb::rtree::RTree* tree_;
  sdb::svc::BufferService* service_;
  sdb::Rng rng_;
  std::vector<std::vector<sdb::rtree::Entry>> live_;  // per tile
  uint64_t next_id_ = 0;
  uint64_t op_id_ = 0;
  uint64_t commits_ = 0;
};

// Ids of every object in `tree`, ascending; RTree::Validate's verdict in
// `*error` (empty when the tree is structurally valid).
std::vector<uint64_t> TreeIds(const sdb::rtree::RTree& tree,
                              std::string* error) {
  *error = tree.Validate();
  std::vector<uint64_t> ids;
  for (const sdb::rtree::Entry& e :
       tree.WindowQuery(sdb::geom::Rect(-1, -1, 2, 2), {})) {
    ids.push_back(e.id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

// TreeIds of the tree persisted on `disk` at `meta`, read through a
// private buffer.
std::vector<uint64_t> TreeIdsOnDisk(const sdb::storage::DiskManager& disk,
                                    sdb::storage::PageId meta,
                                    std::string* error) {
  sdb::storage::ReadOnlyDiskView view(disk);
  sdb::core::BufferManager buffer(&view, 256, sdb::core::CreatePolicy("LRU"));
  return TreeIds(sdb::rtree::RTree::Open(&disk, &buffer, meta), error);
}

// The data device as a crash would leave it: what reached the disk, none
// of what sat dirty in the buffer.
std::unique_ptr<sdb::storage::DiskManager> CrashImage(
    const sdb::storage::DiskManager& disk) {
  auto copy = std::make_unique<sdb::storage::DiskManager>(disk.page_size());
  for (sdb::storage::PageId p = 0; p < disk.page_count(); ++p) {
    const sdb::storage::PageId id = copy->AllocateOrDie();
    if (!copy->Write(id, disk.PeekPage(p)).ok()) return nullptr;
  }
  return copy;
}

struct ReaderPhase {
  ClientResult merged;
  double elapsed_s = 0.0;
};

struct PhaseResult {
  ReaderPhase readers;
  Writer::Phase writer;
  sdb::svc::ShardStats before;
  sdb::svc::ShardStats after;
  sdb::wal::WalStats wal_before;
  sdb::wal::WalStats wal_after;
  uint64_t log_writes_before = 0;
  uint64_t log_writes_after = 0;
  uint64_t flushed_before = 0;
  uint64_t flushed_after = 0;
};

// The writer's end-to-end figures: result-line-free table rows on an
// untraced run, per-layer metrics (into `layers`) on a traced one.
void WriterFigures(Writer::Phase* w, LayerMetrics* layers, Report* report) {
  const LatencySummary commit = Summarize(&w->commit_us);
  const double ops_per_s = static_cast<double>(w->ops) / w->elapsed_s;
  if (layers != nullptr) {
    layers->Set("writer.ops_per_s", ops_per_s);
    layers->Set("writer.commit_p50_us", commit.p50);
    layers->Set("writer.commit_p99_us", commit.tail);
  } else {
    report->Info("writer.ops_per_s", ops_per_s, "1/s");
    report->Info("writer.commit_p50_us", commit.p50, "us");
    report->Info("writer.commit_p99_us", commit.tail, "us");
  }
  report->Info("writer.commit_samples", static_cast<double>(commit.samples),
               "count");
  report->Info("writer.commit_tail_percentile", commit.tail_percentile,
               "pct");
  report->Info("writer.max_lag_ms", w->max_lag_ms, "ms");
}

// Write-path layer metrics of the traced phase.
void WritePathLayerMetrics(const TraceTotals& totals, const PhaseResult& phase,
                           LayerMetrics* layers) {
  const auto delta = [](uint64_t after, uint64_t before) {
    return static_cast<double>(after - before);
  };
  const SpanTotals& write_op = totals.Get(Span::kWriteOp, Span::kWriteOp);
  layers->Set("rtree.write_self_ns_per_op",
              Ratio(static_cast<double>(write_op.self_ns),
                    static_cast<double>(write_op.count)));
  // Log-device work runs on the WAL's group-commit thread, so it is not
  // nested under the commit span; the latch share of a commit is its
  // time minus all log-device time of the phase.
  const SpanTotals commit = totals.Get(Span::kCommit, Span::kCommit);
  const SpanTotals log_write = totals.Sum(Span::kDevWrite);
  const SpanTotals log_sync = totals.Sum(Span::kDevSync);
  const double commit_ns = static_cast<double>(commit.total_ns);
  const double log_ns =
      static_cast<double>(log_write.total_ns + log_sync.total_ns);
  layers->Set("svc.commit_latch_ns",
              Ratio(std::max(0.0, commit_ns - log_ns),
                    static_cast<double>(commit.count)));
  layers->Set("svc.pages_flushed",
              static_cast<double>(phase.flushed_after - phase.flushed_before));
  layers->Set("svc.sync_writeback_fallbacks",
              delta(phase.after.buffer.sync_writeback_fallbacks,
                    phase.before.buffer.sync_writeback_fallbacks));
  const sdb::wal::WalStats& wa = phase.wal_after;
  const sdb::wal::WalStats& wb = phase.wal_before;
  const double commits = delta(wa.commits, wb.commits);
  layers->Set("wal.forced_steals", delta(wa.forced_steals, wb.forced_steals));
  layers->Set("wal.log_writes_per_commit",
              Ratio(delta(phase.log_writes_after, phase.log_writes_before),
                    commits));
  layers->Set("wal.log_bytes_per_commit",
              Ratio(delta(wa.bytes_appended, wb.bytes_appended), commits));
  layers->Set("wal.log_write_ns",
              Ratio(static_cast<double>(log_write.total_ns),
                    static_cast<double>(log_write.count)));
  layers->Set("wal.syncs_per_commit",
              Ratio(delta(wa.fsyncs, wb.fsyncs), commits));
  layers->Set("wal.sync_ns", Ratio(static_cast<double>(log_sync.total_ns),
                                   static_cast<double>(log_sync.count)));
  layers->Set("wal.commits_per_sync",
              Ratio(delta(wa.grouped_commits, wb.grouped_commits),
                    delta(wa.fsyncs, wb.fsyncs)));
}

}  // namespace

int RunMixedCommit(const RunOptions& options) {
  Report report;
  Inputs in;
  const double setup_s = TimedSetup<Inputs>(
      [&options] { return MakeInputs(options.seed); }, &in);
  sdb::storage::DiskManager& disk = *in.scenario.disk;
  const sdb::storage::PageId static_meta = in.scenario.tree_meta;

  // Reference result counts of the reader sessions over the static tree,
  // taken before the service exists; traced runs time the policy hooks
  // here (the service's shard policies are out of a decorator's reach).
  std::vector<PassCounts> reference;
  Tracer reference_tracer;
  if (options.trace) Tracer::Activate(&reference_tracer);
  for (const std::vector<sdb::workload::QuerySet>& sessions : in.sessions) {
    reference.push_back(ReplaySessions(disk, static_meta, kFrames, sessions,
                                       /*timed=*/options.trace));
    report.Check(reference.back().io_errors == 0,
                 "reference replay absorbed I/O errors");
  }
  Tracer::Activate(nullptr);

  sdb::storage::DiskManager log;
  TimedDevice timed_log(&log);
  sdb::wal::WalOptions wal_options;
  wal_options.group_commit = true;
  auto wal = std::make_unique<sdb::wal::WalManager>(&timed_log, wal_options);
  sdb::svc::BufferServiceConfig config;
  config.total_frames = kFrames;
  config.shard_count = kShards;
  config.policy_spec = "ASB";
  config.flusher_threads = 1;
  auto service =
      std::make_unique<sdb::svc::BufferService>(&disk, wal.get(), config);

  // Race hazard: RTree::Open reads the meta page with
  // DiskManager::PeekPage, which does not synchronise with Allocate growing
  // the page table. Every reader view is therefore opened here, before the
  // writer's tree allocates its first page; nothing below reads the disk
  // outside the service's device latch until every thread has joined.
  std::vector<sdb::rtree::RTree> readers;
  std::vector<std::unique_ptr<TimedPageSource>> reader_sources;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.push_back(
        sdb::rtree::RTree::Open(&disk, service.get(), static_meta));
    reader_sources.push_back(
        std::make_unique<TimedPageSource>(service.get()));
  }
  sdb::rtree::RTree writer_tree(&disk, service.get());
  TimedPageSource writer_source(service.get());
  Writer writer(&writer_tree, service.get(), options.seed * 31 + 7);
  report.Check(writer.Prefill(kPrefillObjects), "writer prefill failed");
  report.Info("static_tree_pages", in.scenario.tree_stats.total_pages(),
              "count");
  report.Info("buffer_frames", kFrames, "count");

  const auto run_phase = [&](double seconds, uint64_t phase_id) {
    PhaseResult result;
    result.before = service->AggregateStats();
    result.wal_before = wal->stats();
    result.log_writes_before = log.stats().writes;
    result.flushed_before = service->flusher()->stats().pages_flushed;
    const auto start = std::chrono::steady_clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(seconds));
    std::vector<ClientResult> clients(kReaders);
    {
      std::vector<std::thread> threads;
      for (size_t r = 0; r < kReaders; ++r) {
        threads.emplace_back([&, r] {
          clients[r] = RunClient(
              readers[r], in.queries[r], reference[r].per_query, start,
              deadline, (phase_id << 48) | (static_cast<uint64_t>(r) << 40));
        });
      }
      threads.emplace_back([&] { result.writer = writer.Run(deadline); });
      for (std::thread& t : threads) t.join();
    }
    result.readers.elapsed_s = SecondsSince(start);
    result.readers.merged = MergeClients(&clients);
    result.after = service->AggregateStats();
    result.wal_after = wal->stats();
    result.log_writes_after = log.stats().writes;
    result.flushed_after = service->flusher()->stats().pages_flushed;

    const ClientResult& m = result.readers.merged;
    report.AddAttempted(m.queries + result.writer.ops + result.writer.commits);
    report.AddFailed(m.wrong_results + m.io_errors + result.writer.failed);
    report.Check(m.wrong_results == 0,
                 "readers returned wrong result counts");
    report.Check(m.io_errors == 0, "readers absorbed I/O errors");
    report.Check(result.writer.failed == 0,
                 "writer lost a delete or a commit failed");
    return result;
  };

  LayerMetrics layers;
  Tracer tracer;
  std::optional<PhaseResult> untraced_phase;
  std::optional<PhaseResult> traced_phase;
  if (!options.trace) {
    PhaseResult phase = run_phase(options.seconds, 1);
    report.Set("setup_s", setup_s, "s");
    QueryEndToEnd(phase.readers.merged, phase.readers.elapsed_s, true,
                  &report);
    // The paper's metric, exact: the reader sessions under ASB with the
    // service's frame count. The service's own reads per reader query also
    // count the writer's misses and vary with timing (table only).
    report.Set("disk_reads_per_query", ReadsPerQuery(reference), "count");
    report.Info("service_reads_per_reader_query",
                static_cast<double>(phase.after.io.reads -
                                    phase.before.io.reads) /
                    static_cast<double>(phase.readers.merged.queries),
                "count");
    WriterFigures(&phase.writer, nullptr, &report);
  } else {
    untraced_phase = run_phase(options.seconds / 2, 1);
    for (size_t r = 0; r < kReaders; ++r) {
      readers[r].set_buffer(reader_sources[r].get());
    }
    writer_tree.set_buffer(&writer_source);
    Tracer::Activate(&tracer);
    traced_phase = run_phase(options.seconds / 2, 2);
    Tracer::Activate(nullptr);
    writer_tree.set_buffer(service.get());
  }

  // Crash and recovery. The flusher is stopped so the data device holds
  // still; the crash image keeps only what reached the device, none of
  // what sat dirty in the buffer. The writer tree is checked through the
  // live (now idle) service before recovery, and on the recovered image
  // after; the log is complete, since every commit waited for its flush.
  service->flusher()->Stop();
  const std::vector<uint64_t> live = writer.LiveIds();
  std::unique_ptr<sdb::storage::DiskManager> crashed = CrashImage(disk);
  std::unique_ptr<sdb::storage::DiskManager> crashed_traced =
      options.trace ? CrashImage(disk) : nullptr;
  report.Check(crashed != nullptr && (!options.trace || crashed_traced),
               "could not copy the crash image");
  std::string error;
  report.Check(TreeIds(writer_tree, &error) == live,
               "writer tree does not hold the live set before recovery");
  report.Check(error.empty(), "writer tree invalid before recovery: " + error);
  const sdb::storage::PageId writer_meta = writer_tree.meta_page();

  sdb::wal::RecoveryOptions recovery_options;
  recovery_options.redo_workers = 1;
  if (crashed != nullptr) {
    const auto start = std::chrono::steady_clock::now();
    const sdb::core::StatusOr<sdb::wal::RecoveryResult> recovered =
        sdb::wal::Recover(log, *crashed, {}, nullptr, recovery_options);
    const double recovery_s = SecondsSince(start);
    report.Check(recovered.ok(), "recovery failed");
    report.AddAttempted(1);
    report.AddFailed(recovered.ok() ? 0 : 1);
    if (recovered.ok()) {
      layers.Set("wal.recover_scanned_records",
                 static_cast<double>(recovered->scanned_records));
      layers.Set("wal.recover_replayed_pages",
                 static_cast<double>(recovered->replayed_pages));
      report.Check(TreeIdsOnDisk(*crashed, writer_meta, &error) == live,
                   "recovered writer tree does not hold the live set");
      report.Check(error.empty(),
                   "recovered writer tree invalid: " + error);
    }
    if (options.trace) {
      layers.Set("writer.recovery_s", recovery_s);
    } else {
      report.Info("writer.recovery_s", recovery_s, "s");
    }
    report.Info("wal.log_pages", static_cast<double>(log.page_count()),
                "count");
  }
  if (options.trace && crashed_traced != nullptr) {
    Tracer recover_tracer;
    Tracer::Activate(&recover_tracer);
    bool ok = false;
    {
      ScopedSpan span(Span::kRecover);
      ok = sdb::wal::Recover(timed_log, *crashed_traced, {}, nullptr,
                             recovery_options)
               .ok();
    }
    Tracer::Activate(nullptr);
    report.Check(ok, "traced recovery failed");
    const SpanTotals log_read =
        recover_tracer.Totals().Get(Span::kRecover, Span::kDevRead);
    layers.Set("wal.recover_log_read_ns",
               Ratio(static_cast<double>(log_read.total_ns),
                     static_cast<double>(log_read.count)));
  }

  service.reset();
  wal.reset();

  if (options.trace) {
    // Totals are read only now: the WAL's group-commit thread, which
    // records the log-device spans, has been joined by wal.reset().
    PhaseResult& untraced = *untraced_phase;
    PhaseResult& phase = *traced_phase;
    const TraceTotals totals = tracer.Totals();
    QueryLayerMetrics(totals, /*service=*/true, &layers, &report);
    const double empty_span_ns = Tracer::EmptySpanNs();
    report.Info("trace.empty_span_ns", empty_span_ns, "ns");
    CoreLayerMetrics(reference_tracer.Totals(), empty_span_ns, &layers);
    ServiceLayerMetrics(phase.before, phase.after,
                        static_cast<double>(phase.readers.merged.queries),
                        &layers);
    WritePathLayerMetrics(totals, phase, &layers);
    TraceOverhead(untraced.readers.merged, untraced.readers.elapsed_s,
                  phase.readers.merged, phase.readers.elapsed_s, &layers);
    // Both halves: one alone holds too few commits for a p99. In the
    // traced half a commit gains only the spans of its log writes.
    Writer::Phase writer_both = untraced.writer;
    writer_both.ops += phase.writer.ops;
    writer_both.commits += phase.writer.commits;
    writer_both.elapsed_s += phase.writer.elapsed_s;
    writer_both.max_lag_ms =
        std::max(writer_both.max_lag_ms, phase.writer.max_lag_ms);
    writer_both.commit_us.insert(writer_both.commit_us.end(),
                                 phase.writer.commit_us.begin(),
                                 phase.writer.commit_us.end());
    WriterFigures(&writer_both, &layers, &report);
    QueryEndToEnd(untraced.readers.merged, untraced.readers.elapsed_s, false,
                  &report);
    layers.EmitTo(&report);
    WriteSpans(tracer, options, &report);
  } else {
    report.Set("peak_rss_mb", PeakRssMb(), "MB");
  }
  report.Print(stdout);
  return 0;
}

}  // namespace perfbench
