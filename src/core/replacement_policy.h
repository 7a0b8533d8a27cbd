#ifndef SPATIALBUFFER_CORE_REPLACEMENT_POLICY_H_
#define SPATIALBUFFER_CORE_REPLACEMENT_POLICY_H_

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "core/access_context.h"
#include "core/frame_list.h"
#include "core/spatial_criterion.h"
#include "obs/collector.h"
#include "storage/page.h"

namespace sdb::core {

/// Supplies the *current* metadata of the page resident in a frame. The
/// buffer manager implements this with a per-frame cache of the decoded
/// page header, refreshed on page load and invalidated when the page is
/// marked dirty — so spatial criteria see up-to-date values even when the
/// page is modified in place (callers must MarkDirty after such writes,
/// which they already do to get the page persisted).
class FrameMetaSource {
 public:
  virtual ~FrameMetaSource() = default;
  virtual storage::PageMeta GetMeta(FrameId frame) const = 0;

  /// Version of the frame's metadata: changes (strictly increases) whenever
  /// GetMeta may return a different value than before. Policies use it to
  /// cache values derived from GetMeta across victim scans. The default —
  /// for sources that do not track changes — returns 0, which consumers
  /// must treat as "assume changed".
  virtual uint64_t MetaVersion(FrameId frame) const {
    (void)frame;
    return 0;
  }

  /// Raw per-frame version array (frame-count entries), or nullptr if the
  /// source does not track versions. Victim scans hoist this once per scan
  /// so the per-frame cache check is a plain array read instead of a
  /// virtual call. Must agree with MetaVersion while the scan runs.
  virtual const uint64_t* MetaVersionArray() const { return nullptr; }
};

/// Strategy deciding which resident page leaves the buffer on a miss.
///
/// Lifecycle as driven by BufferManager:
///  * Bind() once, with the frame count and metadata source;
///  * OnPageLoaded() when a page becomes resident in a frame (after a miss
///    or page creation) — the frame is pinned at that moment;
///  * OnPageAccessed() on every buffer hit;
///  * SetEvictable() whenever the frame's pin count transitions 0 <-> >0;
///  * ChooseVictim() on a miss with no free frame — must return an evictable
///    frame, or nullopt if every frame is pinned;
///  * OnPageEvicted() after the victim's page has left the buffer.
class ReplacementPolicy {
 public:
  virtual ~ReplacementPolicy() = default;

  /// Short identifier used in reports ("LRU", "LRU-2", "A", "ASB", ...).
  virtual std::string_view name() const = 0;

  /// Called once before use.
  virtual void Bind(const FrameMetaSource* meta, size_t frame_count) = 0;

  /// Attaches an observability collector (nullptr detaches). Called by
  /// BufferManager before Bind, so policies can emit their configuration
  /// events at bind time. Policies that do not emit anything may ignore it.
  virtual void SetCollector(obs::Collector* collector) { (void)collector; }

  /// Adds the policy's own counters to `registry` when a metrics snapshot
  /// is taken (BufferManager::MetricsSnapshot, only while a collector is
  /// attached). Policies render from their typed counters here instead of
  /// mirroring them into the collector on every event.
  virtual void RenderMetrics(obs::MetricsRegistry* registry) const {
    (void)registry;
  }

  virtual void OnPageLoaded(FrameId frame, storage::PageId page,
                            const AccessContext& ctx) = 0;
  virtual void OnPageAccessed(FrameId frame, const AccessContext& ctx) = 0;
  virtual void SetEvictable(FrameId frame, bool evictable) = 0;
  virtual std::optional<FrameId> ChooseVictim(
      const AccessContext& ctx, storage::PageId incoming) = 0;
  virtual void OnPageEvicted(FrameId frame, storage::PageId page) = 0;
};

/// Shared bookkeeping for all concrete policies: a logical access clock plus
/// per-frame state (validity, evictability, last/load access times, the
/// query id of the most recent reference), and every valid frame in one
/// FrameList in ascending `last_access` order. Every clock tick moves the
/// ticked frame to the tail of that list, so the least recently used frame
/// is always at its head: LRU, SLRU and ASB select victims by walking it
/// from the head (O(c) for a candidate set of c pages). The remaining
/// policies do a linear scan over the frames, which is exact, obviously
/// faithful to the paper's definitions, and cheap at realistic buffer sizes.
class PolicyBase : public ReplacementPolicy {
 public:
  void Bind(const FrameMetaSource* meta, size_t frame_count) override;
  void SetCollector(obs::Collector* collector) override;
  void OnPageLoaded(FrameId frame, storage::PageId page,
                    const AccessContext& ctx) override;
  void OnPageAccessed(FrameId frame, const AccessContext& ctx) override;
  void SetEvictable(FrameId frame, bool evictable) override;
  void OnPageEvicted(FrameId frame, storage::PageId page) override;

 protected:
  struct FrameState {
    storage::PageId page = storage::kInvalidPageId;
    bool valid = false;
    bool evictable = false;
    uint64_t load_time = 0;    ///< clock value when the page entered
    uint64_t last_access = 0;  ///< clock value of the latest reference
    uint64_t last_query = AccessContext::kNoQuery;
  };

  /// Monotone logical time; advanced on every load/access.
  uint64_t clock() const { return clock_; }

  const FrameMetaSource& meta_source() const { return *meta_; }
  storage::PageMeta MetaOf(FrameId frame) const {
    return meta_->GetMeta(frame);
  }

  /// spatialCrit(page in f), cached across victim selections: recomputed
  /// only when the source reports a new metadata version for the frame, so
  /// a steady-state candidate walk compares cached doubles. A policy
  /// instance must evaluate a single fixed criterion through this helper
  /// (all spatial policies do); mixing criteria would thrash the cache.
  double CachedCriterion(SpatialCriterion crit, FrameId f) const;

  /// Hoisted variant: `version` is the frame's current meta version as
  /// read from MetaVersionArray() (0 if the source is unversioned). Avoids
  /// the per-frame virtual MetaVersion call inside hot victim selection.
  double CachedCriterionAt(SpatialCriterion crit, FrameId f,
                           uint64_t version) const {
    CriterionCacheEntry& entry = crit_cache_[f];
    if (version == 0 || entry.version != version) {
      entry.value = EvaluateCriterion(crit, meta_->GetMeta(f));
      entry.version = version;
      if constexpr (obs::kEnabled) {
        if (obs_ != nullptr) obs_crit_misses_->Add();
      }
    } else if constexpr (obs::kEnabled) {
      if (obs_ != nullptr) obs_crit_hits_->Add();
    }
    return entry.value;
  }

  /// The source's raw version array (one virtual call; hoist per scan).
  const uint64_t* meta_versions() const {
    return meta_->MetaVersionArray();
  }

  size_t frame_count() const { return frames_.size(); }
  FrameState& frame(FrameId f) { return frames_[f]; }
  const FrameState& frame(FrameId f) const { return frames_[f]; }

  /// Every valid frame, least recently used first.
  const FrameList& recency() const { return recency_; }

  /// Least-recently-used evictable frame, or nullopt if none: the universal
  /// fallback and tie-breaker.
  std::optional<FrameId> LruScan() const;

  /// The combined victim rule of paper Sec. 4.1 over a list in ascending
  /// `last_access` order: among its first `candidates` evictable entries
  /// (the least recently used ones), the one with the smallest `crit`; ties
  /// go to the less recently used entry. nullopt if no entry is evictable.
  std::optional<FrameId> CombinedVictim(const FrameList& list,
                                        SpatialCriterion crit,
                                        size_t candidates) const;

  /// The attached collector (nullptr = observability off).
  obs::Collector* collector() const { return obs_; }

  /// Records how many candidates one victim selection examined (histogram
  /// policy.scan_len): for a list walk, every entry walked, pinned ones
  /// included; for a full scan, the evictable frames. Called once per
  /// ChooseVictim / demotion walk; a no-op without a collector.
  void ObserveScanLength(size_t examined) const {
    if constexpr (obs::kEnabled) {
      if (obs_ != nullptr) {
        obs_scan_len_->Observe(static_cast<double>(examined));
      }
    }
  }

 private:
  struct CriterionCacheEntry {
    uint64_t version = 0;  ///< 0 = not cached (source versions start at 1)
    double value = 0.0;
  };

  /// Advances the clock; callers move the frame to the tail of recency_.
  uint64_t Tick() { return ++clock_; }

  const FrameMetaSource* meta_ = nullptr;
  std::vector<FrameState> frames_;
  FrameList recency_;
  mutable std::vector<CriterionCacheEntry> crit_cache_;
  uint64_t clock_ = 0;
  obs::Collector* obs_ = nullptr;
  obs::Histogram* obs_scan_len_ = nullptr;
  obs::Histogram* obs_victim_rank_ = nullptr;
  obs::Counter* obs_crit_hits_ = nullptr;
  obs::Counter* obs_crit_misses_ = nullptr;
};

}  // namespace sdb::core

#endif  // SPATIALBUFFER_CORE_REPLACEMENT_POLICY_H_
