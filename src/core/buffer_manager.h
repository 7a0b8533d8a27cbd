#ifndef SPATIALBUFFER_CORE_BUFFER_MANAGER_H_
#define SPATIALBUFFER_CORE_BUFFER_MANAGER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/access_context.h"
#include "core/frame_sync.h"
#include "core/replacement_policy.h"
#include "core/status.h"
#include "obs/collector.h"
#include "storage/disk_manager.h"
#include "storage/page.h"
#include "wal/wal.h"

namespace sdb::core {

class BufferManager;

/// RAII pin on one buffered page. While a handle is alive the page cannot be
/// evicted; the pin is released on destruction. Obtain handles only from
/// BufferManager::Fetch / ::New.
class PageHandle {
 public:
  PageHandle() = default;
  PageHandle(PageHandle&& other) noexcept { *this = std::move(other); }
  PageHandle& operator=(PageHandle&& other) noexcept;
  PageHandle(const PageHandle&) = delete;
  PageHandle& operator=(const PageHandle&) = delete;
  ~PageHandle() { Release(); }

  bool valid() const { return manager_ != nullptr; }
  storage::PageId page_id() const { return page_id_; }

  /// Whole page image, including the header.
  std::span<std::byte> bytes();
  std::span<const std::byte> bytes() const;

  /// Header accessors over the live frame bytes.
  storage::PageHeaderView header();
  storage::ConstPageHeaderView header() const;

  /// Marks the page dirty; it will be written back before eviction.
  void MarkDirty();

  /// Unpins early (idempotent).
  void Release();

  /// Invalidates the handle WITHOUT unpinning: the caller takes over the
  /// pin and must release it with an explicit BufferManager::Unpin on the
  /// returned frame. For code that manages pin lifetimes manually.
  FrameId Detach();

 private:
  friend class BufferManager;
  PageHandle(BufferManager* manager, FrameId frame, storage::PageId page)
      : manager_(manager), frame_(frame), page_id_(page) {}

  BufferManager* manager_ = nullptr;
  FrameId frame_ = kInvalidFrameId;
  storage::PageId page_id_ = storage::kInvalidPageId;
};

/// Hit/miss accounting of one buffer instance — the only place these
/// numbers are counted. BufferManager::MetricsSnapshot renders them as
/// registry counters (buffer.*, io.*) on demand.
struct BufferStats {
  uint64_t requests = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t dirty_writebacks = 0;
  /// Dirty victims written back synchronously on the foreground eviction
  /// path while background write-back was enabled — the stalls the flusher
  /// exists to prevent (only counted past the high watermark or when no
  /// clean victim could be found).
  uint64_t sync_writeback_fallbacks = 0;
  uint64_t io_read_retries = 0;        ///< failed read attempts that were retried
  uint64_t io_checksum_mismatches = 0; ///< verify failures (incl. terminal ones)
  uint64_t io_recovered_reads = 0;     ///< fetches that succeeded after >=1 retry
  uint64_t io_permanent_failures = 0;  ///< fetches that failed terminally
  uint64_t io_quarantined_frames = 0;  ///< frames taken out of service
  uint64_t io_write_retries = 0;       ///< failed write-back attempts retried
  uint64_t io_write_quarantined = 0;   ///< frames quarantined for write failure

  double HitRate() const {
    return requests == 0 ? 0.0
                         : static_cast<double>(hits) /
                               static_cast<double>(requests);
  }
};

/// Outcome of an explicit BufferManager::Unpin call. Handle-driven unpins
/// always succeed (the handle owns a pin by construction); manual callers
/// get an explicit error instead of an assertion failure.
enum class UnpinStatus : uint8_t {
  kOk,
  kUnknownFrame,  ///< frame index out of range, or no page resident in it
  kNotPinned,     ///< the frame's pin count is already zero
  kQuarantined,   ///< the frame was quarantined after a terminal read failure
};

/// Outcome of an explicit BufferManager::Evict call. Typed refusals instead
/// of assertions: eviction of a pinned or quarantined frame is an ordinary
/// condition for a caller managing residency explicitly (checkpointers,
/// tests), not a harness bug.
enum class EvictStatus : uint8_t {
  kOk,
  kNotResident,      ///< the page is not in the buffer
  kPinned,           ///< refused: the frame holds live pins
  kQuarantined,      ///< refused: the frame is out of service
  kWriteBackFailed,  ///< the dirty write-back (or its WAL flush) failed
};

/// Fault-handling knobs of one BufferManager. The defaults keep the fault
/// machinery semantically invisible over a healthy device: verification only
/// runs when the device maintains checksums, retries only trigger on failed
/// reads, and the zero backoff keeps retry timing deterministic for tests
/// and replays.
struct ResilienceOptions {
  /// Verify the CRC-32C of every page read against the device sidecar
  /// (skipped when the device reports no checksum). Detects torn reads and
  /// bit flips before corrupt bytes reach query execution.
  bool verify_checksums = true;
  /// Failed-read retries beyond the first attempt (so a fetch performs at
  /// most 1 + max_read_retries device reads).
  uint32_t max_read_retries = 3;
  /// Failed write-back retries beyond the first attempt, applied only to
  /// retryable device errors. Doubles as the escalation threshold of the
  /// background flusher: a frame whose write-back rounds keep failing past
  /// this count is write-quarantined instead of re-harvested forever.
  uint32_t max_write_retries = 3;
  /// Base of the exponential backoff between retries, in microseconds;
  /// 0 disables sleeping entirely (the default — simulated devices fail
  /// deterministically, not because of load).
  uint32_t backoff_base_us = 0;
  /// Seed of the deterministic backoff jitter (+/-50%).
  uint64_t backoff_seed = 0;
  /// Most frames this buffer may quarantine before terminally-failing reads
  /// start recycling frames instead (a shrinking pool must keep serving).
  /// 0 = half the pool.
  size_t max_quarantined_frames = 0;
};

/// Capacity of every buffer's deferred-event ring. A full ring falls back
/// to the exclusive path, so this bounds how far policy bookkeeping may lag
/// the optimistic hit path.
inline constexpr size_t kDeferredEventCapacity = 1024;

/// Optimistic probe attempts of TryOptimisticFetch before it gives up and
/// the caller takes the latch.
inline constexpr uint32_t kMaxOptimisticRetries = 3;

/// Background write-back knobs (ConfigureBackgroundWriteback). Disabled by
/// default: eviction then writes dirty victims back synchronously inside
/// the pin path, the pre-flusher behaviour.
struct WritebackOptions {
  /// When on, eviction prefers clean victims while the dirty ratio is at or
  /// below `high_watermark`, leaving dirty pages to the background flusher;
  /// a synchronous foreground write-back only happens past the high
  /// watermark or when no clean victim exists within kMaxCleanScan skips,
  /// counted in BufferStats::sync_writeback_fallbacks.
  bool enabled = false;
  /// Dirty ratio (dirty frames / usable frames) at or below which the
  /// flusher leaves the pool alone — a small dirty set is free write
  /// combining for re-dirtied pages.
  double low_watermark = 0.10;
  /// Dirty ratio above which eviction stops waiting for the flusher.
  double high_watermark = 0.50;
};

/// Dirty victims one frame acquisition will set aside while hunting for a
/// clean victim (background write-back on) before giving up and writing
/// back synchronously.
inline constexpr size_t kMaxCleanScan = 8;

/// One dirty frame selected by HarvestFlushCandidates for background
/// write-back.
struct DirtyCandidate {
  FrameId frame = kInvalidFrameId;
  storage::PageId page = storage::kInvalidPageId;
  uint64_t rec_lsn = 0;   ///< 1-based recovery LSN at harvest time
  uint64_t page_lsn = 0;  ///< durable-image LSN the write-ahead rule needs
};

/// Source of pinned pages — the interface query execution (the R-tree)
/// traverses through. Implemented by BufferManager (one private,
/// single-threaded buffer: the paper's experimental setup) and by
/// svc::BufferService (one logical buffer sharded across many
/// BufferManagers behind per-shard latches, serving concurrent clients).
class PageSource {
 public:
  virtual ~PageSource() = default;

  /// Returns a pinned handle on the page, reading it from the backing
  /// device on a miss. Non-OK when the page could not be delivered after
  /// bounded retries: kUnavailable/kDataLoss exhausted their retry budget
  /// (now recorded as a permanent failure), kPermanentFailure for bad
  /// sectors, kResourceExhausted when quarantine left no usable frame.
  virtual StatusOr<PageHandle> Fetch(storage::PageId page,
                                     const AccessContext& ctx) = 0;

  /// Fetches a batch of pages, returning one pinned-handle-or-error per
  /// input in input order. The default is a sequential Fetch loop —
  /// behaviorally identical to the caller looping itself — while the
  /// sharded service (svc::BufferService) amortizes one latch hold per
  /// shard over the batch. Every element counts as exactly one access
  /// either way. All handles of a batch may be alive at once, so callers must
  /// size batches against the source's pin headroom.
  virtual void FetchBatch(std::span<const storage::PageId> pages,
                          const AccessContext& ctx,
                          std::vector<StatusOr<PageHandle>>* out);

  /// Whether callers should group independent fetches into FetchBatch
  /// calls. False by default: batching holds every handle of a batch
  /// pinned at once, which perturbs victim choice in small buffers, so a
  /// source only opts in when its batch pipeline buys something (the
  /// sharded service). Callers honoring this keeps the single-threaded
  /// figure replications bit-identical to the sequential traversal.
  virtual bool PrefersBatchedReads() const { return false; }

  /// Most handles a caller should keep alive out of one FetchBatch call.
  /// 0 (the default) means unbounded; a sharded source answers its
  /// per-shard frame count minus headroom, because a batch can land
  /// entirely on one shard and a batch wider than the shard genuinely
  /// exhausts it (every frame pinned, no victim possible). Callers chunk
  /// their batches to this budget.
  virtual size_t BatchPinBudget() const { return 0; }

  /// Allocates a fresh zeroed page and pins it. Sources serving read-only
  /// traffic return kUnimplemented.
  virtual StatusOr<PageHandle> New(const AccessContext& ctx) = 0;

  /// Current buffered image of a resident page (empty span if not
  /// resident). Structural inspection only: not an access, and only
  /// meaningful while no concurrent traffic can evict the page.
  virtual std::span<const std::byte> Peek(storage::PageId page) const = 0;

  /// Conveniences for call sites where an I/O error indicates a harness bug
  /// (index builds and replays over a fault-free simulated device): unwrap
  /// or abort with the error text.
  PageHandle FetchOrDie(storage::PageId page, const AccessContext& ctx) {
    return Fetch(page, ctx).ValueOrDie();
  }
  PageHandle NewOrDie(const AccessContext& ctx) {
    return New(ctx).ValueOrDie();
  }
};

/// Page buffer with a pluggable replacement policy — the experimental
/// apparatus of the paper. Frames hold page images read from one
/// PageDevice (a DiskManager or a per-run ReadOnlyDiskView); every miss
/// costs exactly one disk read (plus a write-back if the victim is dirty).
///
/// Every buffer runs one frame protocol: a lock-free-readable page table,
/// a version stamp and an atomic pin count per frame, and a deferred-event
/// ring for policy bookkeeping. A private buffer (no latch attached) applies
/// every event inline, so its policy sees exactly the eager single-threaded
/// sequence; a service shard (latch attached) also serves hits latch-free
/// through TryOptimisticFetch and defers their bookkeeping to the next
/// exclusive section.
class BufferManager : public FrameMetaSource, public PageSource {
 public:
  /// `frames` is the buffer capacity in pages. The policy is bound to this
  /// buffer and must not be shared. `collector` (optional) receives metrics
  /// and events from this buffer and its policy; it must outlive the buffer
  /// and is attached before the policy binds, so bind-time events (e.g.
  /// ASB's configuration record) are captured. With observability compiled
  /// out (SDB_OBS=OFF) the collector is ignored.
  BufferManager(storage::PageDevice* disk, size_t frames,
                std::unique_ptr<ReplacementPolicy> policy,
                obs::Collector* collector = nullptr,
                ResilienceOptions resilience = {});
  ~BufferManager();

  BufferManager(const BufferManager&) = delete;
  BufferManager& operator=(const BufferManager&) = delete;

  /// Returns a pinned handle on the page, reading it from disk on a miss.
  /// Transient read failures and checksum mismatches are retried up to
  /// ResilienceOptions::max_read_retries times with exponential backoff;
  /// a terminal failure quarantines the staging frame, remembers the page
  /// as bad (subsequent fetches fail fast without touching the device) and
  /// returns the error.
  StatusOr<PageHandle> Fetch(storage::PageId page,
                             const AccessContext& ctx) override;

  /// Allocates a fresh zeroed page on disk and pins it (no disk read).
  /// Fails only with kResourceExhausted once quarantine has consumed the
  /// evictable pool.
  StatusOr<PageHandle> New(const AccessContext& ctx) override;

  /// Installs an externally-allocated, still-zeroed page and pins it —
  /// New() split in two for callers that must route a page to a specific
  /// buffer after allocating it elsewhere (the sharded service allocates on
  /// the shared device, then installs into the page's home shard). The page
  /// must not be resident anywhere.
  StatusOr<PageHandle> NewAt(storage::PageId page, const AccessContext& ctx);

  /// True if the page is currently resident.
  bool Contains(storage::PageId page) const;

  /// Current in-buffer image of a resident page (which may be newer than
  /// the disk copy), or an empty span if the page is not resident. Does not
  /// count as an access and must not be used by query execution.
  std::span<const std::byte> Peek(storage::PageId page) const override;

  /// Releases one pin on `frame`, marking the page dirty first if `dirty`.
  /// Returns an explicit error — instead of asserting — when the frame is
  /// out of range / holds no page (kUnknownFrame) or is not pinned
  /// (kNotPinned); the buffer state is untouched in both error cases.
  /// Acquires the external latch (see set_latch) when one is attached, so
  /// handle releases are safe without the caller holding the shard latch.
  UnpinStatus Unpin(FrameId frame, bool dirty);

  /// Attaches the latch that guards this buffer inside a sharded service
  /// (nullptr detaches). When set, the PageHandle release/MarkDirty paths
  /// acquire it; Fetch/New/Contains/stats callers must hold it themselves
  /// — svc::BufferService is that caller. Single-threaded users never set
  /// this, keeping every hot path latch-free.
  void set_latch(std::mutex* latch) { latch_ = latch; }

  /// Latch-free hit path: probes the page table, pins through the frame's
  /// version stamp, and defers the policy/stats bookkeeping into the event
  /// ring; exclusive sections (Fetch/New/Unpin/stats) drain the ring first.
  /// Returns nullopt — after bounded retries — on a miss, a version
  /// conflict, or a full ring; the caller then takes the latch and calls
  /// Fetch. Meant for service shards (latch attached).
  std::optional<PageHandle> TryOptimisticFetch(storage::PageId page,
                                               const AccessContext& ctx);

  /// Replays the deferred optimistic hit/unpin events into the policy,
  /// stats and collector, in ring (FIFO) order. Callers must hold the
  /// external latch. Fetch/New/Unpin drain implicitly; explicit callers are
  /// the service's stats/metrics paths, which must drain before reading.
  void DrainDeferred();

  /// Optimistic-path counters (all zero unless TryOptimisticFetch runs).
  /// Retries = optimistic attempts abandoned for any reason; conflicts =
  /// version validations that failed against a concurrent writer.
  uint64_t optimistic_hits() const {
    return optimistic_hits_.load(std::memory_order_relaxed);
  }
  uint64_t optimistic_retries() const {
    return optimistic_retries_.load(std::memory_order_relaxed);
  }
  uint64_t version_conflicts() const {
    return version_conflicts_.load(std::memory_order_relaxed);
  }

  /// Attaches the write-ahead log (nullptr detaches). From then on the
  /// write-ahead rule holds: no dirty frame reaches the data device before
  /// its after-image is durable in the log — eviction of a logged page
  /// waits for the log flush, and eviction of a dirty-but-unlogged page
  /// forces a steal commit of that single page first. Callers that want
  /// crash consistency without steals must size the buffer so dirty pages
  /// survive until the next Commit/Checkpoint.
  void AttachWal(wal::WalManager* wal) { wal_ = wal; }
  wal::WalManager* wal() const { return wal_; }

  /// Logs the after-image of every dirty-and-not-yet-logged frame plus one
  /// commit record as an atomic group and waits for durability. Frames stay
  /// dirty (and resident); they become cheap to evict, since their images
  /// are already in the log. Requires an attached WAL.
  Status Commit();

  /// Commit, then force every dirty frame to the data device and append a
  /// durable checkpoint record: after this the data device holds exactly
  /// the committed state and recovery replays nothing before the record.
  Status Checkpoint();

  /// Forces every dirty frame to the data device without evicting it
  /// (honoring the write-ahead rule per frame). The write-back half of
  /// Checkpoint, exposed so a sharded service can interleave one shared
  /// checkpoint record between per-shard forces.
  Status ForceDirty();

  /// Explicitly evicts one page, writing it back first if dirty (honoring
  /// the write-ahead rule). Refusals are typed, never assertions.
  EvictStatus Evict(storage::PageId page);

  /// Dirty-frame census: resident frames whose bytes differ from the data
  /// device.
  size_t dirty_count() const;

  /// Switches watermark-driven background write-back on or off. Changes
  /// only eviction's victim preference and unlocks the harvest API below —
  /// the flusher threads themselves belong to the owning service.
  void ConfigureBackgroundWriteback(const WritebackOptions& options);
  const WritebackOptions& writeback_options() const { return writeback_; }

  /// O(1) dirty census for watermark math, maintained on every
  /// clean<->dirty edge (dirty_count() scans and is for reporting).
  size_t dirty_frame_count() const { return dirty_frames_; }

  /// Selects up to `max` background-flush candidates: dirty, unpinned,
  /// non-quarantined frames whose current bytes are already logged
  /// (wal_logged) — flushing only those never needs a steal commit, the
  /// flusher's steal-avoidance invariant. Ordered oldest rec_lsn first, so
  /// the pages whose redo reaches furthest back in the log go first. Caller
  /// holds the external latch. Appends to `out`, returns the count added.
  size_t HarvestFlushCandidates(size_t max, std::vector<DirtyCandidate>* out);

  /// Writes harvested candidates to the data device in ascending page-id
  /// order (write clustering), honoring the write-ahead rule, skipping —
  /// without error — any candidate that was evicted, re-pinned or
  /// re-dirtied past its logged image since the harvest (the page stays
  /// dirty; a later round picks it up). Caller holds the external latch.
  /// Returns the number written back.
  StatusOr<size_t> FlushFrames(std::span<const DirtyCandidate> candidates);

  /// The two halves of Commit, exposed so a sharded service can gather
  /// images from every shard (all latches held) into ONE atomic commit
  /// group. CollectDirtyPages appends an image ref (aliasing the frame
  /// bytes — keep the latch!) and the frame id of every dirty, unlogged
  /// frame; MarkFramesCommitted records the group's end LSN on them.
  void CollectDirtyPages(std::vector<wal::PageImageRef>* images,
                         std::vector<FrameId>* frames);
  void MarkFramesCommitted(std::span<const FrameId> frames, uint64_t end_lsn);

  /// Writes back all dirty resident pages (without evicting them). With a
  /// WAL attached this commits first (write-ahead rule), so it degrades to
  /// a checkpoint without the checkpoint record; failures abort — callers
  /// needing a status use Commit/Checkpoint/Evict.
  void FlushAll();

  size_t frame_count() const { return frames_.size(); }
  size_t resident_count() const { return table_.size(); }
  storage::PageDevice& disk() { return *disk_; }
  ReplacementPolicy& policy() { return *policy_; }
  const ReplacementPolicy& policy() const { return *policy_; }
  /// The attached observability collector (nullptr = none).
  obs::Collector* collector() const { return obs_; }
  const BufferStats& stats() const { return stats_; }
  void ResetStats() {
    stats_ = BufferStats{};
    header_decodes_ = 0;
  }

  /// Frames currently out of service after terminal read failures. They are
  /// never on the free list and never become policy candidates, so the
  /// effective pool is frame_count() - quarantined_count().
  size_t quarantined_count() const { return quarantined_count_; }
  /// The quarantine ceiling this buffer was configured with (resolved from
  /// ResilienceOptions::max_quarantined_frames; 0 there = half the pool).
  /// quarantined_count() == quarantine_cap() is the saturation signal the
  /// service's degraded mode watches.
  size_t quarantine_cap() const { return quarantine_cap_; }

  /// True if `page` previously failed terminally; fetches of it fail fast.
  bool IsBadPage(storage::PageId page) const {
    return bad_pages_.contains(page);
  }
  size_t bad_page_count() const { return bad_pages_.size(); }

  const ResilienceOptions& resilience() const { return resilience_; }

  /// FrameMetaSource: metadata of the page resident in `frame`, served from
  /// the per-frame cache (decoded once per page load / in-place update
  /// instead of once per victim-scan visit).
  storage::PageMeta GetMeta(FrameId frame) const override;

  /// FrameMetaSource: bumped whenever a frame's cached metadata may have
  /// changed (page load, MarkDirty, dirty unpin).
  uint64_t MetaVersion(FrameId frame) const override {
    return meta_versions_[frame];
  }

  /// FrameMetaSource: the raw version array for scan hoisting.
  const uint64_t* MetaVersionArray() const override {
    return meta_versions_.data();
  }

  /// Header decodes performed on behalf of GetMeta: only re-decodes after
  /// an in-place update (steady-state victim scans decode nothing).
  uint64_t header_decodes() const { return header_decodes_; }

  /// The buffer's metrics: the attached collector's registry and the
  /// policy's RenderMetrics counters (if a collector is attached) merged
  /// with counters rendered from stats() and header_decodes().
  /// buffer.* is always present; the io.* read group (retries, checksum
  /// mismatches, quarantined frames, permanent failures) and the write
  /// group (write retries, write quarantines) only once one of their counts
  /// is non-zero; wal.sync_writeback_fallbacks only with background
  /// write-back enabled. Idempotent. With optimistic traffic call
  /// DrainDeferred first (under the latch) so deferred hits are counted.
  obs::MetricsSnapshot MetricsSnapshot() const;

 private:
  friend class PageHandle;

  struct Frame {
    storage::PageId page = storage::kInvalidPageId;
    bool dirty = false;
    bool quarantined = false;
    /// The frame's current bytes are logged and committed in the WAL.
    /// Cleared on every (re)dirty; a clean frame's value is meaningless.
    bool wal_logged = false;
    /// End LSN of the newest logged image of this page; the write-ahead
    /// rule makes write-back wait for this prefix to be durable.
    uint64_t page_lsn = 0;
    /// Recovery LSN + 1 (0 = clean): the log position when the frame first
    /// became dirty, i.e. where redo for this page would have to start.
    uint64_t rec_lsn = 0;
    /// Consecutive failed write-back rounds (each round is one bounded
    /// retry loop). Reset on a successful write-back; past
    /// ResilienceOptions::max_write_retries the flusher escalates to
    /// write-quarantine.
    uint32_t write_failures = 0;
  };

  /// Cached decoded header of the resident page; valid iff `version`
  /// matches the frame's current meta version.
  struct MetaCacheEntry {
    storage::PageMeta meta;
    uint64_t version = 0;  ///< 0 = never filled (versions start at 1)
  };

  std::byte* FrameData(FrameId f);
  const std::byte* FrameData(FrameId f) const;

  /// Finds a frame for an incoming page: free list first, else victim
  /// eviction. Returns kResourceExhausted when quarantine has shrunk the
  /// pool to nothing evictable; still aborts when the pool is healthy and
  /// every frame is pinned (caller bug, exactly the seed behaviour).
  StatusOr<FrameId> AcquireFrame(const AccessContext& ctx,
                                 storage::PageId incoming);

  /// One device read into `frame` plus checksum verification and the
  /// bounded retry/backoff loop; on terminal failure quarantines the frame
  /// and records the page as bad. `page` is not yet in the page table.
  Status ReadPageWithRecovery(FrameId frame, storage::PageId page);

  /// Takes `frame` out of service (or recycles it once the quarantine cap
  /// is hit) after a terminal read failure.
  void QuarantineFrame(FrameId frame);

  /// Write-side escalation: detaches the (dirty, wal_logged) page from the
  /// tables, remembers the page as bad (its only current image is in the
  /// WAL), then hands the frame to QuarantineFrame. Caller holds the latch
  /// (if any) and the frame's version lock with a zero pin count.
  void QuarantineWriteFailure(FrameId frame);

  /// Deterministic exponential backoff with jitter before retry number
  /// `failures` (1-based); no-op when backoff_base_us is 0.
  void BackoffBeforeRetry(uint32_t failures, storage::PageId page);

  /// Unpin body, latch already held (or no latch attached).
  UnpinStatus UnpinLocked(FrameId frame, bool dirty);

  /// Handle-release path: an atomic decrement plus an unpin event (the
  /// handle owns the pin by construction, so no status to report). With a
  /// latch attached the event is deferred into the ring; without one, or
  /// when the ring is full, it is applied inline.
  void ReleasePin(FrameId frame);

  /// Applies one drained event to policy/stats/collector (latch held).
  void ApplyDeferred(const DeferredEvent& event);

  /// The frame's live pin count.
  uint32_t PinCount(FrameId f) const {
    return sync_[f].pins.load(std::memory_order_acquire);
  }
  /// Installs `page` into frame `f` after its bytes are in place: page
  /// table, frame fields, pin count 1, meta fill, policy load callback.
  /// The caller holds the frame's version latch and this publishes
  /// page/pins before the caller unlocks.
  void InstallLoadedPage(FrameId f, storage::PageId page,
                         const AccessContext& ctx, bool dirty);

  /// PageHandle::MarkDirty body: latches, sets the dirty bit and drops the
  /// frame's cached metadata.
  void MarkFrameDirty(FrameId frame);

  /// Dirty-tracking bookkeeping shared by every path that dirties a frame:
  /// sets the bit, invalidates the logged state (the bytes changed since the
  /// last image) and stamps the recovery LSN on the clean->dirty edge.
  void NoteDirtyLocked(FrameId frame);

  /// Writes one dirty frame back to the data device, honoring the
  /// write-ahead rule when a WAL is attached (EnsureDurable for logged
  /// frames, a forced steal commit for unlogged ones). Retryable device
  /// failures are retried up to max_write_retries times with backoff.
  /// No-op when clean. `device_write_failed`, when given, is set iff the
  /// returned error came from the data-device write (as opposed to the WAL
  /// half) — the distinction the flusher's quarantine escalation needs.
  Status WriteBackLocked(FrameId frame, bool* device_write_failed = nullptr);

  /// True when the dirty ratio exceeds the configured high watermark (the
  /// point where eviction stops deferring to the background flusher).
  bool PastHighWatermark() const {
    const size_t usable = frames_.size() - quarantined_count_;
    if (usable == 0) return true;
    return static_cast<double>(dirty_frames_) >
           writeback_.high_watermark * static_cast<double>(usable);
  }

  /// Marks the frame's cached metadata stale (in-place page update); the
  /// next GetMeta re-decodes the header.
  void InvalidateMeta(FrameId frame) { ++meta_versions_[frame]; }

  /// Decodes the frame's header into the cache under a fresh version (page
  /// just loaded or created).
  void FillMeta(FrameId frame);

  storage::PageDevice* disk_;
  // Write-ahead log (nullptr = read-only use; every WAL touch is guarded).
  wal::WalManager* wal_ = nullptr;
  // External shard latch (nullptr = single-threaded use, no locking).
  std::mutex* latch_ = nullptr;
  std::unique_ptr<ReplacementPolicy> policy_;
  size_t page_size_;
  ResilienceOptions resilience_;
  size_t quarantine_cap_ = 0;
  size_t quarantined_count_ = 0;
  // Pages that failed terminally, with the status code to fail fast with.
  std::unordered_map<storage::PageId, StatusCode> bad_pages_;
  std::unique_ptr<std::byte[]> frame_data_;
  std::vector<Frame> frames_;
  std::vector<FrameId> free_frames_;
  BufferStats stats_;
  // Background write-back state: knobs plus the O(1) dirty census the
  // watermark checks read on every eviction.
  WritebackOptions writeback_;
  size_t dirty_frames_ = 0;
  // The metadata cache proper: entries are re-decoded lazily inside the
  // logically-const GetMeta, hence mutable.
  std::vector<uint64_t> meta_versions_;
  mutable std::vector<MetaCacheEntry> meta_cache_;
  mutable uint64_t header_decodes_ = 0;
  // Observability sink for events and policy histograms (nullptr when no
  // collector is attached or SDB_OBS is off). Counters are not mirrored
  // into it: MetricsSnapshot renders them from stats_.
  obs::Collector* obs_ = nullptr;
  // One sync word per frame (version stamp, published page, pin count).
  std::unique_ptr<FrameSync[]> sync_;
  // The page-id -> frame map: lock-free to read, mutated only in exclusive
  // sections.
  ConcurrentPageTable table_;
  AccessEventRing deferred_{kDeferredEventCapacity};
  std::atomic<uint64_t> optimistic_hits_{0};
  std::atomic<uint64_t> optimistic_retries_{0};
  std::atomic<uint64_t> version_conflicts_{0};
};

}  // namespace sdb::core

#endif  // SPATIALBUFFER_CORE_BUFFER_MANAGER_H_
