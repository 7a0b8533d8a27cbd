// Extension: the write path under measurement. Three experiments, all
// appended as JSON-Lines to BENCH_wal.json (override with SDB_BENCH_WAL;
// empty disables):
//
//   wal_commit    — commit throughput vs the group-commit window
//                   {inline, 50us, 200us, 1000us} with concurrent
//                   committer threads. CI gates this table: batching
//                   commits into one fsync must keep paying for itself.
//   wal_recovery  — redo-recovery time and replayed-image count vs the
//                   churn volume {64, 256, 1024 ops} that produced the
//                   log (the recovery-time-vs-dirty-set axis).
//   wal_write_mix — ASB vs LRU hit rates when {10%, 50%, 90%} of the
//                   operations against the US-like database are churn
//                   writes instead of window queries. The paper evaluates
//                   read-only replays; this probes whether ASB's spatial
//                   criterion survives a mutating working set.
//   wal_writeback — foreground pin latency (p99) under write churn with
//                   the background flusher off vs on. The flusher-on row
//                   must show zero sync write-back fallbacks and zero
//                   forced steals after warm-up; CI gates both plus the
//                   p99 ratio.
//   wal_redo      — recovery wall time vs redo worker count {1, 2, 4, 8}
//                   over one churn-built log, with byte-identity of every
//                   parallel replay against the serial device asserted.
//
// Knobs: SDB_WAL_THREADS (committers, default 4), SDB_WAL_COMMITS
// (commits per thread, default 250), SDB_WAL_MIX_OPS (mixed-workload
// operations per cell, default 1500), SDB_WAL_CHURN_OPS (write-back cell
// operations, default 24000). The wal_recovery cells replay with one redo
// worker; wal_redo sets its worker counts explicitly.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "core/buffer_manager.h"
#include "core/policy_factory.h"
#include "obs/metrics.h"
#include "rtree/rtree.h"
#include "sim/churn.h"
#include "sim/report.h"
#include "storage/disk_manager.h"
#include "svc/buffer_service.h"
#include "svc/flush_coordinator.h"
#include "svc/session_executor.h"
#include "wal/recovery.h"
#include "wal/wal.h"

namespace {

using namespace sdb;

double ElapsedMs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// ---------------------------------------------------------------------------
// wal_commit: throughput vs group-commit window

struct CommitCell {
  uint32_t window_us = 0;
  size_t threads = 0;
  uint64_t commits = 0;
  double elapsed_ms = 0.0;
  double commits_per_sec = 0.0;
  uint64_t fsyncs = 0;
  uint64_t appends = 0;
};

CommitCell RunCommitCell(uint32_t window_us, size_t threads,
                         size_t commits_per_thread) {
  storage::DiskManager log;
  wal::WalOptions options;
  options.group_commit = window_us > 0;
  options.group_window_us = window_us;
  wal::WalManager wal(&log, options);

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&wal, t, threads, commits_per_thread] {
      std::vector<std::byte> image(wal.device().page_size(),
                                   std::byte{static_cast<uint8_t>(t)});
      for (size_t i = 0; i < commits_per_thread; ++i) {
        const wal::PageImageRef ref{static_cast<storage::PageId>(t), image};
        const core::StatusOr<wal::Lsn> end =
            wal.CommitPages({&ref, 1}, threads);
        SDB_CHECK_MSG(end.ok(), "bench commit failed");
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  CommitCell cell;
  cell.window_us = window_us;
  cell.threads = threads;
  cell.elapsed_ms = ElapsedMs(start);
  const wal::WalStats stats = wal.stats();
  cell.commits = stats.commits;
  cell.fsyncs = stats.fsyncs;
  cell.appends = stats.appends;
  cell.commits_per_sec =
      cell.elapsed_ms <= 0.0
          ? 0.0
          : 1000.0 * static_cast<double>(cell.commits) / cell.elapsed_ms;
  return cell;
}

std::string CommitJson(const CommitCell& cell) {
  char buffer[512];
  std::snprintf(
      buffer, sizeof(buffer),
      "{\"bench\":\"wal_commit\",\"window_us\":%u,\"threads\":%zu,"
      "\"commits\":%llu,\"elapsed_ms\":%.3f,\"commits_per_sec\":%.1f,"
      "\"fsyncs\":%llu,\"appends\":%llu}",
      cell.window_us, cell.threads,
      static_cast<unsigned long long>(cell.commits), cell.elapsed_ms,
      cell.commits_per_sec, static_cast<unsigned long long>(cell.fsyncs),
      static_cast<unsigned long long>(cell.appends));
  return buffer;
}

// ---------------------------------------------------------------------------
// wal_recovery: redo time vs churn volume

struct RecoveryCell {
  size_t churn_ops = 0;
  uint64_t log_pages = 0;
  uint64_t scanned = 0;
  uint64_t replayed = 0;
  double recover_ms = 0.0;
};

RecoveryCell RunRecoveryCell(size_t churn_ops) {
  storage::DiskManager data;
  storage::DiskManager log;
  wal::WalManager wal(&log);
  core::BufferManager buffer(&data, /*frames=*/128,
                             core::CreatePolicy("LRU"));
  buffer.AttachWal(&wal);
  const core::AccessContext ctx{1};
  rtree::RTree tree(&data, &buffer);

  sim::ChurnOptions options;
  options.operations = churn_ops;
  options.delete_fraction = 0.3;
  options.seed = 4242;
  options.commit_every = 16;
  sim::ChurnHooks hooks;
  hooks.commit = [&] {
    tree.PersistMeta();
    return buffer.Commit();
  };
  const core::StatusOr<sim::ChurnResult> churn =
      sim::RunChurn(tree, geom::Rect(0, 0, 100, 100), options, hooks, ctx);
  SDB_CHECK_MSG(churn.ok(), "bench churn failed");
  tree.PersistMeta();
  SDB_CHECK_MSG(buffer.Commit().ok(), "bench final commit failed");

  RecoveryCell cell;
  cell.churn_ops = churn_ops;
  cell.log_pages = log.page_count();
  storage::DiskManager recovered;
  const auto start = std::chrono::steady_clock::now();
  const core::StatusOr<wal::RecoveryResult> result =
      wal::Recover(log, recovered);
  cell.recover_ms = ElapsedMs(start);
  SDB_CHECK_MSG(result.ok(), "bench recovery failed");
  cell.scanned = result->scanned_records;
  cell.replayed = result->replayed_pages;
  return cell;
}

std::string RecoveryJson(const RecoveryCell& cell) {
  char buffer[384];
  std::snprintf(
      buffer, sizeof(buffer),
      "{\"bench\":\"wal_recovery\",\"churn_ops\":%zu,\"log_pages\":%llu,"
      "\"scanned_records\":%llu,\"replayed_pages\":%llu,"
      "\"recover_ms\":%.3f}",
      cell.churn_ops, static_cast<unsigned long long>(cell.log_pages),
      static_cast<unsigned long long>(cell.scanned),
      static_cast<unsigned long long>(cell.replayed), cell.recover_ms);
  return buffer;
}

// ---------------------------------------------------------------------------
// wal_write_mix: ASB vs LRU under mixed read/write traffic

struct MixCell {
  std::string policy;
  double write_frac = 0.0;
  size_t operations = 0;
  double hit_rate = 0.0;
  uint64_t requests = 0;
  uint64_t disk_reads = 0;
  uint64_t disk_writes = 0;
  uint64_t commits = 0;
};

MixCell RunMixCell(const std::string& image_path,
                   storage::PageId tree_meta, const geom::Rect& space,
                   const workload::QuerySet& queries,
                   const std::string& policy, size_t frames,
                   double write_frac, size_t operations) {
  std::optional<storage::DiskManager> disk =
      storage::DiskManager::LoadImage(image_path);
  SDB_CHECK_MSG(disk.has_value(), "bench disk image reload failed");
  storage::DiskManager log;
  wal::WalManager wal(&log);
  core::BufferManager buffer(&*disk, frames, core::CreatePolicy(policy));
  buffer.AttachWal(&wal);
  const core::AccessContext ctx{7};
  rtree::RTree tree = rtree::RTree::Open(&*disk, &buffer, tree_meta);

  Rng rng(0x5EED0000 + static_cast<uint64_t>(write_frac * 100));
  const double w = space.width() * 0.002;
  const double h = space.height() * 0.002;
  std::vector<rtree::Entry> live;
  uint64_t next_id = 1ull << 40;
  size_t next_query = 0;
  // Warm-up pass over a slice of the query set so the two policies start
  // from a populated buffer, as the paper's replays do.
  for (size_t i = 0; i < queries.queries.size() / 10; ++i) {
    (void)tree.WindowQuery(queries.queries[i], ctx);
  }
  buffer.ResetStats();
  disk->ResetStats();

  for (size_t op = 1; op <= operations; ++op) {
    if (rng.NextDouble() < write_frac) {
      const bool do_delete = !live.empty() && rng.NextDouble() < 0.3;
      if (do_delete) {
        const size_t pick = static_cast<size_t>(rng.NextBelow(live.size()));
        const rtree::Entry victim = live[pick];
        live[pick] = live.back();
        live.pop_back();
        SDB_CHECK_MSG(tree.Delete(victim.id, victim.rect, ctx),
                      "bench churn delete lost an entry");
      } else {
        rtree::Entry entry;
        entry.rect = geom::Rect::Centered(
            {rng.Uniform(space.xmin, space.xmax),
             rng.Uniform(space.ymin, space.ymax)},
            w, h);
        entry.id = next_id++;
        tree.Insert(entry, ctx);
        live.push_back(entry);
      }
    } else {
      (void)tree.WindowQuery(
          queries.queries[next_query++ % queries.queries.size()], ctx);
    }
    if (op % 64 == 0) {
      tree.PersistMeta();
      SDB_CHECK_MSG(buffer.Commit().ok(), "bench mix commit failed");
    }
  }
  tree.PersistMeta();
  SDB_CHECK_MSG(buffer.Checkpoint().ok(), "bench mix checkpoint failed");

  MixCell cell;
  cell.policy = policy;
  cell.write_frac = write_frac;
  cell.operations = operations;
  const core::BufferStats& stats = buffer.stats();
  cell.hit_rate = stats.HitRate();
  cell.requests = stats.requests;
  cell.disk_reads = disk->stats().reads;
  cell.disk_writes = disk->stats().writes;
  cell.commits = wal.stats().commits;
  return cell;
}

std::string MixJson(const MixCell& cell) {
  char buffer[384];
  std::snprintf(
      buffer, sizeof(buffer),
      "{\"bench\":\"wal_write_mix\",\"policy\":\"%s\",\"write_frac\":%.2f,"
      "\"operations\":%zu,\"hit_rate\":%.6f,\"requests\":%llu,"
      "\"disk_reads\":%llu,\"disk_writes\":%llu,\"commits\":%llu}",
      cell.policy.c_str(), cell.write_frac, cell.operations, cell.hit_rate,
      static_cast<unsigned long long>(cell.requests),
      static_cast<unsigned long long>(cell.disk_reads),
      static_cast<unsigned long long>(cell.disk_writes),
      static_cast<unsigned long long>(cell.commits));
  return buffer;
}

// ---------------------------------------------------------------------------
// wal_writeback: foreground pin latency with the flusher off vs on

struct WritebackCell {
  bool flusher = false;
  size_t operations = 0;
  size_t frames = 0;
  uint64_t pins = 0;  ///< steady-state pins the latency stats cover
  double p99_pin_ns = 0.0;
  double mean_pin_ns = 0.0;
  uint64_t sync_fallbacks = 0;  ///< steady-state delta
  uint64_t forced_steals = 0;   ///< steady-state delta
  uint64_t pages_flushed = 0;
  uint64_t dirty_writebacks = 0;
  double elapsed_ms = 0.0;
};

/// p99 of the steady-state window: the per-bucket difference between the
/// end-of-run histogram and its warm-up snapshot.
double SteadyStateQuantile(const svc::PinLatencyHistogram& end,
                           const svc::PinLatencyHistogram& warm, double q) {
  uint64_t counts[svc::PinLatencyHistogram::kBuckets];
  for (size_t i = 0; i < svc::PinLatencyHistogram::kBuckets; ++i) {
    counts[i] = end.counts[i] - warm.counts[i];
  }
  return obs::HistogramQuantile(
      std::span<const double>(svc::kPinLatencyBoundsNs),
      std::span<const uint64_t>(counts), q);
}

WritebackCell RunWritebackCell(bool flusher_on, size_t operations,
                               size_t frames) {
  storage::DiskManager disk;
  storage::DiskManager log;
  wal::WalOptions wal_options;
  wal_options.group_commit = true;
  wal::WalManager wal(&log, wal_options);
  svc::BufferServiceConfig config;
  config.shard_count = 2;
  config.total_frames = frames;
  config.policy_spec = "LRU";
  if (flusher_on) {
    config.flusher_threads = 2;
    config.dirty_low_watermark = 0.02;
  }
  svc::BufferService service(&disk, &wal, config);
  svc::CountingSource source(&service, /*time_pins=*/true);
  const core::AccessContext ctx{11};
  rtree::RTree tree(&disk, &source);

  sim::ChurnOptions options;
  options.operations = operations;
  options.delete_fraction = 0.3;
  options.seed = 20260807;
  options.commit_every = 32;
  options.warmup_operations = operations / 4;
  svc::PinLatencyHistogram warm;
  uint64_t warm_fallbacks = 0;
  uint64_t warm_steals = 0;
  sim::ChurnHooks hooks;
  hooks.commit = [&] {
    tree.PersistMeta();
    return service.Commit(ctx);
  };
  hooks.on_steady_state = [&] {
    warm = source.pin_latency();
    warm_fallbacks =
        service.AggregateStats().buffer.sync_writeback_fallbacks;
    warm_steals = wal.stats().forced_steals;
    return core::Status::Ok();
  };
  const auto start = std::chrono::steady_clock::now();
  const core::StatusOr<sim::ChurnResult> churn = sim::RunChurn(
      tree, geom::Rect(0, 0, 100, 100), options, hooks, ctx);
  SDB_CHECK_MSG(churn.ok(), "writeback bench churn failed");
  tree.PersistMeta();
  SDB_CHECK_MSG(service.Commit(ctx).ok(), "writeback bench commit failed");

  WritebackCell cell;
  cell.flusher = flusher_on;
  cell.operations = operations;
  cell.frames = frames;
  cell.elapsed_ms = ElapsedMs(start);
  if (flusher_on) {
    service.flusher()->Stop();  // quiesce so the flushed count is final
    cell.pages_flushed = service.flusher()->stats().pages_flushed;
  }
  const svc::PinLatencyHistogram end = source.pin_latency();
  cell.pins = end.observations - warm.observations;
  cell.p99_pin_ns = SteadyStateQuantile(end, warm, 0.99);
  cell.mean_pin_ns =
      cell.pins == 0 ? 0.0 : (end.sum_ns - warm.sum_ns) /
                                 static_cast<double>(cell.pins);
  const svc::ShardStats stats = service.AggregateStats();
  cell.sync_fallbacks =
      stats.buffer.sync_writeback_fallbacks - warm_fallbacks;
  cell.forced_steals = wal.stats().forced_steals - warm_steals;
  cell.dirty_writebacks = stats.buffer.dirty_writebacks;
  SDB_CHECK_MSG(service.Checkpoint(ctx).ok(),
                "writeback bench quiesce failed");
  return cell;
}

std::string WritebackJson(const WritebackCell& cell) {
  char buffer[512];
  std::snprintf(
      buffer, sizeof(buffer),
      "{\"bench\":\"wal_writeback\",\"flusher\":%d,\"operations\":%zu,"
      "\"frames\":%zu,\"pins\":%llu,\"p99_pin_ns\":%.1f,"
      "\"mean_pin_ns\":%.1f,\"sync_writeback_fallbacks\":%llu,"
      "\"forced_steals\":%llu,\"pages_flushed\":%llu,"
      "\"dirty_writebacks\":%llu,\"elapsed_ms\":%.3f}",
      cell.flusher ? 1 : 0, cell.operations, cell.frames,
      static_cast<unsigned long long>(cell.pins), cell.p99_pin_ns,
      cell.mean_pin_ns, static_cast<unsigned long long>(cell.sync_fallbacks),
      static_cast<unsigned long long>(cell.forced_steals),
      static_cast<unsigned long long>(cell.pages_flushed),
      static_cast<unsigned long long>(cell.dirty_writebacks),
      cell.elapsed_ms);
  return buffer;
}

// ---------------------------------------------------------------------------
// wal_redo: recovery wall time vs redo worker count

struct RedoCell {
  size_t workers = 0;
  uint64_t replayed = 0;
  double recover_ms = 0.0;
  bool byte_identical = true;
};

std::string RedoJson(const RedoCell& cell) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "{\"bench\":\"wal_redo\",\"workers\":%zu,"
                "\"replayed_pages\":%llu,\"recover_ms\":%.3f,"
                "\"byte_identical\":%d}",
                cell.workers,
                static_cast<unsigned long long>(cell.replayed),
                cell.recover_ms, cell.byte_identical ? 1 : 0);
  return buffer;
}

std::vector<RedoCell> RunRedoSweep(size_t churn_ops) {
  // One churn-built log, recovered once per worker count onto a fresh
  // device; every parallel device is compared byte-for-byte to serial.
  storage::DiskManager data;
  storage::DiskManager log;
  {
    wal::WalManager wal(&log);
    core::BufferManager buffer(&data, /*frames=*/128,
                               core::CreatePolicy("LRU"));
    buffer.AttachWal(&wal);
    const core::AccessContext ctx{13};
    rtree::RTree tree(&data, &buffer);
    sim::ChurnOptions options;
    options.operations = churn_ops;
    options.delete_fraction = 0.3;
    options.seed = 1789;
    options.commit_every = 16;
    sim::ChurnHooks hooks;
    hooks.commit = [&] {
      tree.PersistMeta();
      return buffer.Commit();
    };
    const core::StatusOr<sim::ChurnResult> churn = sim::RunChurn(
        tree, geom::Rect(0, 0, 100, 100), options, hooks, ctx);
    SDB_CHECK_MSG(churn.ok(), "redo bench churn failed");
    tree.PersistMeta();
    SDB_CHECK_MSG(buffer.Commit().ok(), "redo bench commit failed");
  }

  std::vector<RedoCell> cells;
  storage::DiskManager serial;
  for (const size_t workers : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    storage::DiskManager recovered;
    storage::DiskManager& target = workers == 1 ? serial : recovered;
    wal::RecoveryOptions options;
    options.redo_workers = workers;
    const auto start = std::chrono::steady_clock::now();
    const core::StatusOr<wal::RecoveryResult> result =
        wal::Recover(log, target, {}, nullptr, options);
    RedoCell cell;
    cell.recover_ms = ElapsedMs(start);
    SDB_CHECK_MSG(result.ok(), "redo bench recovery failed");
    cell.workers = result->redo_workers;
    cell.replayed = result->replayed_pages;
    if (workers > 1) {
      cell.byte_identical = target.page_count() == serial.page_count();
      std::vector<std::byte> a(serial.page_size());
      std::vector<std::byte> b(serial.page_size());
      for (storage::PageId p = 0;
           cell.byte_identical && p < serial.page_count(); ++p) {
        SDB_CHECK(serial.Read(p, a).ok() && target.Read(p, b).ok());
        cell.byte_identical = std::memcmp(a.data(), b.data(), a.size()) == 0;
      }
      SDB_CHECK_MSG(cell.byte_identical,
                    "parallel redo diverged from serial");
    }
    cells.push_back(cell);
  }
  return cells;
}

}  // namespace

int main() {
  const std::string json_path = bench::EnvOr("SDB_BENCH_WAL",
                                             "BENCH_wal.json");
  bool json_ok = true;
  auto emit = [&](const std::string& row) {
    if (!json_path.empty()) {
      json_ok = sim::AppendJsonLine(json_path, row) && json_ok;
    }
  };

  // --- wal_commit ---------------------------------------------------------
  const size_t threads = bench::EnvSizeT("SDB_WAL_THREADS", 4);
  const size_t per_thread = bench::EnvSizeT("SDB_WAL_COMMITS", 250);
  sim::Table commit_table({"window", "threads", "commits", "elapsed",
                           "commits/s", "fsyncs", "commits/fsync"});
  for (const uint32_t window_us : {0u, 50u, 200u, 1000u}) {
    const CommitCell cell = RunCommitCell(window_us, threads, per_thread);
    emit(CommitJson(cell));
    commit_table.AddRow(
        {window_us == 0 ? "inline" : std::to_string(window_us) + " us",
         std::to_string(cell.threads), std::to_string(cell.commits),
         sim::FormatDouble(cell.elapsed_ms, 1) + " ms",
         sim::FormatDouble(cell.commits_per_sec, 0),
         std::to_string(cell.fsyncs),
         sim::FormatDouble(cell.fsyncs == 0
                               ? 0.0
                               : static_cast<double>(cell.commits) /
                                     static_cast<double>(cell.fsyncs),
                           2)});
  }
  commit_table.Print("WAL — commit throughput vs group-commit window");

  // --- wal_recovery -------------------------------------------------------
  sim::Table recovery_table({"churn ops", "log pages", "records",
                             "replayed", "recover"});
  for (const size_t ops : {size_t{64}, size_t{256}, size_t{1024}}) {
    const RecoveryCell cell = RunRecoveryCell(ops);
    emit(RecoveryJson(cell));
    recovery_table.AddRow({std::to_string(cell.churn_ops),
                           std::to_string(cell.log_pages),
                           std::to_string(cell.scanned),
                           std::to_string(cell.replayed),
                           sim::FormatDouble(cell.recover_ms, 2) + " ms"});
  }
  recovery_table.Print("WAL — redo recovery vs churn volume");

  // --- wal_writeback ------------------------------------------------------
  const size_t churn_ops = bench::EnvSizeT("SDB_WAL_CHURN_OPS", 24000);
  sim::Table writeback_table({"flusher", "pins", "p99 pin", "mean pin",
                              "fallbacks", "steals", "bg flushed",
                              "elapsed"});
  for (const bool flusher_on : {false, true}) {
    const WritebackCell cell =
        RunWritebackCell(flusher_on, churn_ops, /*frames=*/96);
    emit(WritebackJson(cell));
    writeback_table.AddRow(
        {flusher_on ? "on" : "off", std::to_string(cell.pins),
         sim::FormatDouble(cell.p99_pin_ns / 1000.0, 1) + " us",
         sim::FormatDouble(cell.mean_pin_ns / 1000.0, 2) + " us",
         std::to_string(cell.sync_fallbacks),
         std::to_string(cell.forced_steals),
         std::to_string(cell.pages_flushed),
         sim::FormatDouble(cell.elapsed_ms, 1) + " ms"});
  }
  writeback_table.Print(
      "WAL — steady-state pin latency, background flusher off vs on");

  // --- wal_redo -----------------------------------------------------------
  sim::Table redo_table({"workers", "replayed", "recover", "identical"});
  for (const RedoCell& cell : RunRedoSweep(/*churn_ops=*/2048)) {
    emit(RedoJson(cell));
    redo_table.AddRow({std::to_string(cell.workers),
                       std::to_string(cell.replayed),
                       sim::FormatDouble(cell.recover_ms, 2) + " ms",
                       cell.workers == 1 ? "baseline"
                                         : (cell.byte_identical ? "yes"
                                                                : "NO")});
  }
  redo_table.Print("WAL — parallel redo vs worker count");

  // --- wal_write_mix ------------------------------------------------------
  const sim::Scenario scenario =
      bench::BuildBenchDatabase(sim::DatabaseKind::kUsLike);
  const workload::QuerySet queries =
      sim::StandardQuerySet(scenario, workload::QueryFamily::kUniform, 100);
  const size_t frames = scenario.BufferFrames(0.012);
  const size_t mix_ops = bench::EnvSizeT("SDB_WAL_MIX_OPS", 1500);
  const std::string image_path =
      bench::EnvOr("TMPDIR", "/tmp") + "/sdb_wal_mix.img";
  SDB_CHECK_MSG(scenario.disk->SaveImage(image_path),
                "bench disk image save failed");

  sim::Table mix_table({"policy", "write frac", "hit rate", "requests",
                        "disk reads", "disk writes", "commits"});
  for (const std::string policy : {"LRU", "ASB"}) {
    for (const double write_frac : {0.1, 0.5, 0.9}) {
      const MixCell cell = RunMixCell(
          image_path, scenario.tree_meta, scenario.dataset.data_space,
          queries, policy, frames, write_frac, mix_ops);
      emit(MixJson(cell));
      mix_table.AddRow({cell.policy, sim::FormatPercent(cell.write_frac),
                        sim::FormatDouble(cell.hit_rate, 4),
                        std::to_string(cell.requests),
                        std::to_string(cell.disk_reads),
                        std::to_string(cell.disk_writes),
                        std::to_string(cell.commits)});
    }
  }
  char title[128];
  std::snprintf(title, sizeof(title),
                "WAL — write-mix hit rates, %zu ops, buffer %zu frames",
                mix_ops, frames);
  mix_table.Print(title);
  std::remove(image_path.c_str());

  if (!json_path.empty()) {
    if (json_ok) {
      std::printf("\nJSON rows appended to %s\n", json_path.c_str());
    } else {
      std::fprintf(stderr, "warning: could not append to %s\n",
                   json_path.c_str());
    }
  }
  return 0;
}
