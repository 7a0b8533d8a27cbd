#ifndef SPATIALBUFFER_CORE_FRAME_SYNC_H_
#define SPATIALBUFFER_CORE_FRAME_SYNC_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/macros.h"
#include "storage/page.h"

namespace sdb::core {

/// Per-frame synchronization word set of the optimistic latching protocol
/// every BufferManager runs. One cache line per frame:
///
///  - `version`: the frame's optimistic latch. Even = unlocked; bit 0 set =
///    a writer (eviction, load, quarantine) holds the frame exclusively.
///    Writers lock with a CAS to version|1 and unlock by storing a larger
///    even value, so every exclusive section bumps the stamp and any reader
///    whose before/after loads straddle it re-validates.
///  - `page`: the resident page id, published only inside exclusive
///    sections (readers re-check it after validating the version).
///  - `pins`: the frame's only pin count. Optimistic readers pin with
///    fetch_add and re-validate `version`; the evictor locks `version` first
///    and then refuses any frame whose `pins` is nonzero — one side always
///    sees the other.
struct alignas(64) FrameSync {
  std::atomic<uint64_t> version{0};
  std::atomic<uint32_t> page{storage::kInvalidPageId};
  std::atomic<uint32_t> pins{0};

  bool TryLock() {
    uint64_t v = version.load(std::memory_order_acquire);
    if (v & 1) return false;
    return version.compare_exchange_strong(v, v | 1,
                                           std::memory_order_acq_rel);
  }

  void Lock() {
    while (!TryLock()) {
      // Writers only contend with each other under the shard latch, so this
      // spin resolves within one exclusive section.
    }
  }

  /// Ends the exclusive section, invalidating every optimistic read that
  /// started before it.
  void Unlock() {
    const uint64_t v = version.load(std::memory_order_relaxed);
    SDB_DCHECK((v & 1) != 0);
    version.store(v + 1, std::memory_order_release);
  }
};

/// A BufferManager's page table, readable lock-free: page-id -> frame by
/// open addressing over packed 64-bit atomic slots, `(page + 1) << 32 |
/// frame` (page ids are 32-bit, so a zero key word marks the empty and
/// tombstone slots). Readers probe without any lock; writers (exclusive
/// section) insert, erase (tombstone) and rebuild, bumping `version` on
/// every mutation so a reader can tell its probe raced a writer and fall
/// back to the latched path. A stale positive is harmless
/// either way — the frame's own version stamp is re-validated before the
/// pin counts — so the table only has to be atomically *word*-consistent,
/// never globally consistent.
class ConcurrentPageTable {
 public:
  explicit ConcurrentPageTable(size_t frames) {
    size_t capacity = 16;
    while (capacity < frames * 2) capacity <<= 1;
    slots_ = std::make_unique<std::atomic<uint64_t>[]>(capacity);
    for (size_t i = 0; i < capacity; ++i) {
      slots_[i].store(kEmpty, std::memory_order_relaxed);
    }
    mask_ = capacity - 1;
  }

  /// Lock-free probe. Returns the mapped frame or kInvalidFrame.
  uint32_t Lookup(storage::PageId page) const {
    if (page == storage::kInvalidPageId) return kInvalidFrame;
    const uint64_t key = Key(page);
    for (size_t i = Home(page);; i = (i + 1) & mask_) {
      const uint64_t slot = slots_[i].load(std::memory_order_acquire);
      if (slot == kEmpty) return kInvalidFrame;
      if ((slot >> 32) == (key >> 32)) {
        return static_cast<uint32_t>(slot & 0xffffffffu);
      }
      // Occupied by another page or a tombstone: keep probing.
    }
  }

  /// Writer-side insert (shard latch held). The page must not be present.
  void Insert(storage::PageId page, uint32_t frame) {
    BumpVersion();
    for (size_t i = Home(page);; i = (i + 1) & mask_) {
      const uint64_t slot = slots_[i].load(std::memory_order_relaxed);
      if (slot == kEmpty || slot == kTombstone) {
        if (slot == kTombstone) --tombstones_;
        slots_[i].store(Key(page) | frame, std::memory_order_release);
        ++size_;
        SDB_DCHECK(size_ + tombstones_ <= mask_);  // never fills: cap >= 2x
        return;
      }
      SDB_DCHECK((slot >> 32) != (Key(page) >> 32));
    }
  }

  /// Writer-side erase (shard latch held); no-op if absent. Compacts the
  /// table once tombstones pile up, so probe chains stay short on churny
  /// (eviction-heavy) shards.
  void Erase(storage::PageId page) {
    BumpVersion();
    const uint64_t key = Key(page);
    for (size_t i = Home(page);; i = (i + 1) & mask_) {
      const uint64_t slot = slots_[i].load(std::memory_order_relaxed);
      if (slot == kEmpty) return;
      if ((slot >> 32) == (key >> 32)) {
        slots_[i].store(kTombstone, std::memory_order_release);
        --size_;
        ++tombstones_;
        if (tombstones_ > (mask_ + 1) / 4) Rebuild();
        return;
      }
    }
  }

  /// Mutation counter, bumped at the start of every writer mutation.
  /// Readers sample it before and after a probe: a change means the probe
  /// raced a writer and its negative result cannot be trusted.
  uint64_t version() const { return version_.load(std::memory_order_acquire); }

  size_t size() const { return size_; }

  static constexpr uint32_t kInvalidFrame = 0xffffffffu;

 private:
  static constexpr uint64_t kEmpty = 0;
  // Key word 0 with frame field 1: no live slot has a zero key word (Key()
  // is >= 1 << 32), so this marks a vacated slot that probes must walk
  // through and that no lookup can match.
  static constexpr uint64_t kTombstone = 1;
  static_assert(kTombstone != kEmpty);

  static uint64_t Key(storage::PageId page) {
    SDB_DCHECK(page != storage::kInvalidPageId);  // would wrap to key word 0
    return (static_cast<uint64_t>(page) + 1) << 32;
  }

  size_t Home(storage::PageId page) const {
    uint64_t x = static_cast<uint64_t>(page) + 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<size_t>(x ^ (x >> 31)) & mask_;
  }

  void BumpVersion() {
    version_.fetch_add(1, std::memory_order_acq_rel);
  }

  void Rebuild() {
    std::vector<uint64_t> live;
    live.reserve(size_);
    for (size_t i = 0; i <= mask_; ++i) {
      const uint64_t slot = slots_[i].load(std::memory_order_relaxed);
      if (slot != kEmpty && slot != kTombstone) live.push_back(slot);
      slots_[i].store(kEmpty, std::memory_order_release);
    }
    tombstones_ = 0;
    size_ = 0;
    for (const uint64_t slot : live) {
      const storage::PageId page =
          static_cast<storage::PageId>((slot >> 32) - 1);
      Insert(page, static_cast<uint32_t>(slot & 0xffffffffu));
    }
  }

  std::unique_ptr<std::atomic<uint64_t>[]> slots_;
  size_t mask_ = 0;
  std::atomic<uint64_t> version_{0};
  // Writer-only bookkeeping (shard latch held).
  size_t size_ = 0;
  size_t tombstones_ = 0;
};

/// One deferred policy/stats event from the latch-free path. Optimistic
/// hits and unpins cannot call into the (single-threaded) replacement
/// policy, so they record what happened here and the next exclusive section
/// replays the ring in FIFO order before reading or mutating policy state —
/// in serial execution that makes the policy's view bit-identical to a
/// private (single-threaded, eager) buffer.
struct DeferredEvent {
  enum class Kind : uint8_t { kHit, kUnpin };

  uint32_t frame = 0;
  storage::PageId page = storage::kInvalidPageId;
  uint64_t query = 0;
  Kind kind = Kind::kHit;
  /// kHit: this pin took the frame 0 -> 1 (SetEvictable(false) edge).
  /// kUnpin: this release took it 1 -> 0 (SetEvictable(true) edge).
  bool edge = false;
};

/// Bounded MPMC ring of DeferredEvents (Vyukov queue): producers are the
/// latch-free hit/unpin paths on any thread, the consumer is whichever
/// thread holds the shard latch. TryPush failing (ring full) is a signal to
/// take the exclusive path instead, so the ring bounds deferral lag by
/// construction.
class AccessEventRing {
 public:
  explicit AccessEventRing(size_t capacity) {
    size_t cap = 8;
    while (cap < capacity) cap <<= 1;
    cells_ = std::make_unique<Cell[]>(cap);
    for (size_t i = 0; i < cap; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
    mask_ = cap - 1;
  }

  bool TryPush(const DeferredEvent& event) {
    uint64_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & mask_];
      const uint64_t seq = cell.seq.load(std::memory_order_acquire);
      const int64_t diff =
          static_cast<int64_t>(seq) - static_cast<int64_t>(pos);
      if (diff == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          cell.event = event;
          cell.seq.store(pos + 1, std::memory_order_release);
          return true;
        }
      } else if (diff < 0) {
        return false;  // full
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
  }

  /// True if nothing is queued. Exact only without concurrent producers
  /// (a private buffer's consistency check).
  bool Empty() const {
    return head_.load(std::memory_order_relaxed) ==
           tail_.load(std::memory_order_relaxed);
  }

  bool TryPop(DeferredEvent* event) {
    uint64_t pos = head_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & mask_];
      const uint64_t seq = cell.seq.load(std::memory_order_acquire);
      const int64_t diff =
          static_cast<int64_t>(seq) - static_cast<int64_t>(pos + 1);
      if (diff == 0) {
        if (head_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          *event = cell.event;
          cell.seq.store(pos + mask_ + 1, std::memory_order_release);
          return true;
        }
      } else if (diff < 0) {
        // Empty, or the next slot is claimed but not yet published; FIFO
        // draining stops here either way (never skip over a straggler).
        return false;
      } else {
        pos = head_.load(std::memory_order_relaxed);
      }
    }
  }

 private:
  struct Cell {
    std::atomic<uint64_t> seq{0};
    DeferredEvent event;
  };

  std::unique_ptr<Cell[]> cells_;
  size_t mask_ = 0;
  alignas(64) std::atomic<uint64_t> tail_{0};
  alignas(64) std::atomic<uint64_t> head_{0};
};

}  // namespace sdb::core

#endif  // SPATIALBUFFER_CORE_FRAME_SYNC_H_
