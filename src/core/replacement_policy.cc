#include "core/replacement_policy.h"

#include "common/macros.h"

namespace sdb::core {

void PolicyBase::Bind(const FrameMetaSource* meta, size_t frame_count) {
  SDB_CHECK(meta != nullptr);
  SDB_CHECK(frame_count > 0);
  meta_ = meta;
  frames_.assign(frame_count, FrameState{});
  crit_cache_.assign(frame_count, CriterionCacheEntry{});
  recency_.Reset(frame_count);
  clock_ = 0;
}

double PolicyBase::CachedCriterion(SpatialCriterion crit, FrameId f) const {
  return CachedCriterionAt(crit, f, meta_->MetaVersion(f));
}

void PolicyBase::SetCollector(obs::Collector* collector) {
  if constexpr (!obs::kEnabled) return;
  obs_ = collector;
  if (obs_ == nullptr) return;
  // Buckets cover candidate counts / recency ranks up to any realistic
  // buffer size; the overflow bucket absorbs the rest.
  static constexpr double kCountBounds[] = {1,   2,   4,    8,    16,  32,
                                            64,  128, 256,  512,  1024,
                                            2048, 4096, 8192};
  obs_scan_len_ = obs_->metrics().GetHistogram("policy.scan_len",
                                               kCountBounds);
  obs_victim_rank_ =
      obs_->metrics().GetHistogram("policy.victim_recency_rank",
                                   kCountBounds);
  obs_crit_hits_ = obs_->metrics().GetCounter("policy.crit_cache_hits");
  obs_crit_misses_ = obs_->metrics().GetCounter("policy.crit_cache_misses");
}

void PolicyBase::OnPageLoaded(FrameId f, storage::PageId page,
                              const AccessContext& ctx) {
  SDB_DCHECK(f < frames_.size());
  FrameState& s = frames_[f];
  SDB_CHECK_MSG(!s.valid, "frame loaded twice without eviction");
  s.page = page;
  s.valid = true;
  s.evictable = false;  // loaded pages are pinned by the caller
  s.load_time = Tick();
  s.last_access = s.load_time;
  s.last_query = ctx.query_id;
  recency_.LinkTail(f);
}

void PolicyBase::OnPageAccessed(FrameId f, const AccessContext& ctx) {
  SDB_DCHECK(f < frames_.size());
  FrameState& s = frames_[f];
  SDB_DCHECK(s.valid);
  s.last_access = Tick();
  s.last_query = ctx.query_id;
  recency_.MoveToTail(f);
}

void PolicyBase::SetEvictable(FrameId f, bool evictable) {
  SDB_DCHECK(f < frames_.size());
  SDB_DCHECK(frames_[f].valid);
  frames_[f].evictable = evictable;
}

void PolicyBase::OnPageEvicted(FrameId f, storage::PageId page) {
  SDB_DCHECK(f < frames_.size());
  FrameState& s = frames_[f];
  SDB_CHECK(s.valid);
  SDB_CHECK(s.page == page);
  if constexpr (obs::kEnabled) {
    if (obs_ != nullptr) {
      // Victim recency rank: how many currently evictable pages are colder
      // than the victim (0 = the LRU choice), counted on the walk from the
      // head of the recency list to the victim. Only with a collector.
      size_t rank = 0;
      for (FrameId g = recency_.head(); g != f; g = recency_.next(g)) {
        if (frames_[g].evictable) ++rank;
      }
      obs_victim_rank_->Observe(static_cast<double>(rank));
    }
  }
  recency_.Unlink(f);
  s = FrameState{};
}

std::optional<FrameId> PolicyBase::LruScan() const {
  size_t walked = 0;
  for (FrameId f = recency_.head(); f != kInvalidFrameId;
       f = recency_.next(f)) {
    ++walked;
    if (frames_[f].evictable) {
      ObserveScanLength(walked);
      return f;
    }
  }
  ObserveScanLength(walked);
  return std::nullopt;
}

std::optional<FrameId> PolicyBase::CombinedVictim(const FrameList& list,
                                                  SpatialCriterion crit,
                                                  size_t candidates) const {
  SDB_DCHECK(candidates >= 1);
  const uint64_t* versions = meta_versions();  // one virtual call per walk
  std::optional<FrameId> best;
  double best_crit = 0.0;
  size_t walked = 0;
  size_t taken = 0;
  for (FrameId f = list.head(); f != kInvalidFrameId && taken < candidates;
       f = list.next(f)) {
    ++walked;
    if (!frames_[f].evictable) continue;
    ++taken;
    const double value =
        CachedCriterionAt(crit, f, versions ? versions[f] : 0);
    // Strict '<': the list runs oldest first, so ties keep the older frame.
    if (!best || value < best_crit) {
      best = f;
      best_crit = value;
    }
  }
  ObserveScanLength(walked);
  return best;
}

}  // namespace sdb::core
