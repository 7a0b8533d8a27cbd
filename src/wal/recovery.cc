#include "wal/recovery.h"

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "common/macros.h"

namespace sdb::wal {

namespace {

/// splitmix64 finalizer — the same mix the buffer service uses to shard
/// page ids, so the redo partition spreads adjacent page ids instead of
/// striping hot ranges onto one worker.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// One committed page image selected for replay; `bytes` aliases the
/// scanned stream.
struct ReplayImage {
  storage::PageId page = storage::kInvalidPageId;
  std::span<const std::byte> bytes;
};

/// Writes `images` onto `data`. Allocation runs first, on the caller, up to
/// the highest replayed page; the writes are then partitioned by page-id
/// hash so each page's images land on exactly one worker, in log order —
/// which makes the device bytes identical for any worker count or
/// scheduling. One worker writes inline through Write; more run a thread
/// pool through WriteConcurrent.
core::Status Replay(std::span<const ReplayImage> images,
                    storage::PageDevice& data, size_t workers,
                    uint64_t* replayed) {
  storage::PageId max_page = 0;
  for (const ReplayImage& image : images) {
    max_page = std::max(max_page, image.page);
  }
  while (data.page_count() <= max_page) {
    const core::StatusOr<storage::PageId> allocated = data.Allocate();
    if (!allocated.ok()) return allocated.status();
  }
  std::vector<core::Status> statuses(workers, core::Status::Ok());
  std::vector<uint64_t> counts(workers, 0);
  const auto run = [&](size_t w) {
    for (const ReplayImage& image : images) {
      if (Mix64(image.page) % workers != w) continue;
      const core::Status status =
          workers == 1 ? data.Write(image.page, image.bytes)
                       : data.WriteConcurrent(image.page, image.bytes);
      if (!status.ok()) {
        statuses[w] = status;
        return;
      }
      ++counts[w];
    }
  };
  if (workers == 1) {
    run(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (size_t w = 0; w < workers; ++w) pool.emplace_back(run, w);
    for (std::thread& worker : pool) worker.join();
  }
  for (size_t w = 0; w < workers; ++w) {
    if (!statuses[w].ok()) return statuses[w];
    *replayed += counts[w];
  }
  return core::Status::Ok();
}

}  // namespace

core::StatusOr<RecoveryResult> Recover(storage::PageDevice& log,
                                       storage::PageDevice& data,
                                       const core::AccessContext& /*ctx*/,
                                       obs::Collector* collector,
                                       const RecoveryOptions& options) {
  const size_t page_size = log.page_size();
  const size_t log_pages = log.page_count();
  std::vector<std::byte> stream(log_pages * page_size);
  for (size_t p = 0; p < log_pages; ++p) {
    const core::Status status =
        log.Read(static_cast<storage::PageId>(p),
                 {stream.data() + p * page_size, page_size});
    if (!status.ok()) return status;
  }

  // Pass 1: walk the valid prefix. The scan stops at the first record that
  // fails validation — magic, type, length bound, LSN-equals-offset, or
  // CRC — which is how a torn flush manifests. The redo horizon is the end
  // of the last checkpoint record: everything committed before it is
  // already on the data device.
  RecoveryResult result;
  bool any_commit = false;
  Lsn redo_horizon = 0;
  Lsn offset = 0;
  while (true) {
    const std::optional<ParsedRecord> record = ParseRecordAt(stream, offset);
    if (!record.has_value()) break;
    ++result.scanned_records;
    switch (record->header.type) {
      case RecordType::kPageImage:
        break;
      case RecordType::kCommit:
        any_commit = true;
        result.last_commit_lsn = offset;
        result.committed_page_count = record->header.page;
        break;
      case RecordType::kCheckpoint:
        // A checkpoint that carries a payload makes a claim this format
        // cannot read (e.g. a redo horizon below the record); treating it
        // as a plain checkpoint would skip images the device may lack.
        if (!record->payload.empty()) {
          return core::Status::Unimplemented(
              "checkpoint record at lsn " + std::to_string(offset) +
              " carries a payload; this log format writes none");
        }
        result.last_checkpoint_lsn = offset;
        result.committed_page_count = record->header.page;
        redo_horizon = record->end;
        break;
    }
    offset = record->end;
  }
  result.valid_prefix = offset;
  // A clean end leaves only zero padding behind; anything else in the
  // allocated log pages means a record was torn mid-flush.
  for (size_t i = offset; i < stream.size(); ++i) {
    if (stream[i] != std::byte{0}) {
      result.torn_tail = true;
      break;
    }
  }

  // Pass 2: redo. Replay every committed image in [redo horizon, last
  // commit) in log order (an empty range without a commit). Images after
  // the last commit record are uncommitted and must not reach the data
  // device.
  std::vector<ReplayImage> images;
  for (offset = redo_horizon; offset < result.last_commit_lsn;) {
    const std::optional<ParsedRecord> record = ParseRecordAt(stream, offset);
    SDB_CHECK(record.has_value());  // pass 1 validated this prefix
    if (record->header.type == RecordType::kPageImage) {
      images.push_back({static_cast<storage::PageId>(record->header.page),
                        record->payload});
    }
    offset = record->end;
  }
  if (!images.empty()) {
    size_t workers = 1;
    if (data.SupportsConcurrentWrites()) {
      workers = std::clamp<size_t>(options.redo_workers, 1, images.size());
    }
    result.redo_workers = workers;
    if (core::Status status =
            Replay(images, data, workers, &result.replayed_pages);
        !status.ok()) {
      return status;
    }
  }
  if (any_commit && collector != nullptr) {
    collector->metrics()
        .GetCounter("wal.recovery_replayed")
        ->Add(result.replayed_pages);
  }
  return result;
}

}  // namespace sdb::wal
