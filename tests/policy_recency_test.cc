// Differential test of the recency-list victim selection. LRU, SLRU and
// ASB keep frames in FrameLists ordered by last access and select victims
// by walking c entries from the head. The reference below states the
// paper's combined rule (Sec. 4.1) the direct way: sort every evictable
// candidate by last access, take the c least recently used, pick the
// smallest criterion, break ties toward the less recently used. Seeded
// random streams of loads, hits, overflow hits, pins, unpins, metadata
// changes and (for ASB) foreign adaptation steps drive a policy and the
// reference side by side; every victim, every demotion and every list
// order must agree.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <deque>
#include <list>
#include <optional>
#include <type_traits>
#include <vector>

#include "common/random.h"
#include "core/asb_shared.h"
#include "core/frame_list.h"
#include "core/policy_asb.h"
#include "core/policy_lru.h"
#include "core/policy_slru.h"

namespace sdb::core {
namespace {

using storage::PageId;

constexpr SpatialCriterion kCrit = SpatialCriterion::kArea;

// ---------------------------------------------------------------------------
// FrameList against a std::list model.

std::vector<FrameId> Walk(const FrameList& list) {
  std::vector<FrameId> out;
  for (FrameId f = list.head(); f != kInvalidFrameId; f = list.next(f)) {
    out.push_back(f);
  }
  return out;
}

TEST(FrameListTest, MatchesAListModel) {
  constexpr size_t kFrames = 16;
  Rng rng(7);
  FrameList list;
  list.Reset(kFrames);
  std::list<FrameId> model;
  for (int op = 0; op < 5000; ++op) {
    const FrameId f = static_cast<FrameId>(rng.NextBelow(kFrames));
    const auto it = std::find(model.begin(), model.end(), f);
    ASSERT_EQ(list.contains(f), it != model.end());
    if (it == model.end()) {
      list.LinkTail(f);
      model.push_back(f);
    } else if (rng.NextBelow(2) == 0) {
      list.Unlink(f);
      model.erase(it);
    } else {
      list.MoveToTail(f);
      model.erase(it);
      model.push_back(f);
    }
    ASSERT_EQ(list.size(), model.size());
    ASSERT_EQ(Walk(list),
              std::vector<FrameId>(model.begin(), model.end()));
  }
  list.Reset(kFrames);
  EXPECT_EQ(list.size(), 0u);
  EXPECT_EQ(list.head(), kInvalidFrameId);
}

// ---------------------------------------------------------------------------
// Test rig.

/// Page metadata under test control. Areas come from a small set so that
/// criteria tie often; a metadata change bumps the frame's version, or —
/// for an unversioned source — reports version 0 ("assume changed").
class StreamMeta : public FrameMetaSource {
 public:
  StreamMeta(size_t frames, bool versioned)
      : versioned_(versioned), meta_(frames), versions_(frames, 0) {}

  void Set(FrameId f, double area) {
    const double side = std::sqrt(area);
    meta_[f].type = storage::PageType::kData;
    meta_[f].mbr = geom::Rect(0, 0, side, side);
    ++versions_[f];
  }
  double Crit(FrameId f) const { return EvaluateCriterion(kCrit, meta_[f]); }

  storage::PageMeta GetMeta(FrameId f) const override { return meta_[f]; }
  uint64_t MetaVersion(FrameId f) const override {
    return versioned_ ? versions_[f] : 0;
  }
  const uint64_t* MetaVersionArray() const override {
    return versioned_ ? versions_.data() : nullptr;
  }

 private:
  const bool versioned_;
  std::vector<storage::PageMeta> meta_;
  std::vector<uint64_t> versions_;
};

/// Exposes the protected recency bookkeeping for the ordering checks.
template <typename Policy>
class Inspectable : public Policy {
 public:
  using Policy::Policy;
  using PolicyBase::frame;
  using PolicyBase::recency;
};

/// The reference: the same bookkeeping, with every victim chosen by sorting.
class Reference {
 public:
  enum class Kind { kLru, kSlru, kAsb };

  Reference(Kind kind, const StreamMeta* meta, size_t frames, size_t c)
      : kind_(kind),
        meta_(meta),
        valid_(frames, false),
        evictable_(frames, false),
        in_main_(frames, false),
        last_access_(frames, 0),
        c_(static_cast<int64_t>(c)) {}

  /// ASB only: section sizes and step as the policy derived them.
  void BindAsb(size_t main_target, size_t step, AsbSharedTuning* shared) {
    main_target_ = main_target;
    step_ = static_cast<int64_t>(step);
    shared_ = shared;
    if (shared_ != nullptr) {
      shared_->BindShard(c_, static_cast<int64_t>(main_target_));
      ReloadShared();
    }
  }

  /// The combined rule by sorting (see the file comment).
  std::optional<FrameId> SortedRule(std::vector<FrameId> candidates,
                                    size_t c) const {
    if (candidates.empty()) return std::nullopt;
    std::sort(candidates.begin(), candidates.end(),
              [this](FrameId a, FrameId b) {
                return last_access_[a] < last_access_[b];
              });
    candidates.resize(std::min(c, candidates.size()));
    FrameId best = candidates[0];
    for (const FrameId f : candidates) {
      const double crit = meta_->Crit(f);
      const double best_crit = meta_->Crit(best);
      if (crit < best_crit ||
          (crit == best_crit && last_access_[f] < last_access_[best])) {
        best = f;
      }
    }
    return best;
  }

  void OnLoaded(FrameId f) {
    valid_[f] = true;
    evictable_[f] = false;
    last_access_[f] = ++clock_;
    if (kind_ != Kind::kAsb) return;
    in_main_[f] = true;
    Rebalance();
  }

  void OnAccessed(FrameId f) {
    const auto in_fifo = std::find(fifo_.begin(), fifo_.end(), f);
    if (kind_ == Kind::kAsb && in_fifo != fifo_.end()) {
      ++overflow_hits_;
      Adapt(f);
      fifo_.erase(in_fifo);
      in_main_[f] = true;
      last_access_[f] = ++clock_;
      Rebalance();
      return;
    }
    last_access_[f] = ++clock_;
  }

  void SetEvictable(FrameId f, bool evictable) { evictable_[f] = evictable; }

  std::optional<FrameId> Victim() {
    if (kind_ == Kind::kAsb) {
      for (const FrameId f : fifo_) {
        if (evictable_[f]) return f;
      }
      if (auto victim = MainVictim()) return victim;
      return SortedRule(Evictable(false), 1);
    }
    return SortedRule(Evictable(false),
                      kind_ == Kind::kLru ? 1 : static_cast<size_t>(c_));
  }

  void OnEvicted(FrameId f) {
    valid_[f] = false;
    evictable_[f] = false;
    in_main_[f] = false;
    std::erase(fifo_, f);
  }

  /// Valid frames (main-section frames only, with `main_only`) in
  /// ascending last-access order.
  std::vector<FrameId> ByRecency(bool main_only) const {
    std::vector<FrameId> out;
    for (FrameId f = 0; f < valid_.size(); ++f) {
      if (valid_[f] && (!main_only || in_main_[f])) out.push_back(f);
    }
    std::sort(out.begin(), out.end(), [this](FrameId a, FrameId b) {
      return last_access_[a] < last_access_[b];
    });
    return out;
  }

  const std::deque<FrameId>& fifo() const { return fifo_; }
  uint64_t last_access(FrameId f) const { return last_access_[f]; }
  int64_t candidate() const { return c_; }
  uint64_t overflow_hits() const { return overflow_hits_; }
  uint64_t increases() const { return increases_; }
  uint64_t decreases() const { return decreases_; }
  uint64_t demotions() const { return demotions_; }

 private:
  std::vector<FrameId> Evictable(bool main_only) const {
    std::vector<FrameId> out;
    for (FrameId f = 0; f < valid_.size(); ++f) {
      if (valid_[f] && evictable_[f] && (!main_only || in_main_[f])) {
        out.push_back(f);
      }
    }
    return out;
  }

  int64_t MaxCandidate() const {
    return std::max<int64_t>(1, static_cast<int64_t>(main_target_));
  }

  void ReloadShared() {
    if (shared_ == nullptr) return;
    c_ = std::clamp<int64_t>(shared_->Load(), 1, MaxCandidate());
  }

  std::optional<FrameId> MainVictim() {
    ReloadShared();
    return SortedRule(Evictable(true), static_cast<size_t>(c_));
  }

  void Rebalance() {
    size_t main_count = 0;
    for (FrameId f = 0; f < in_main_.size(); ++f) main_count += in_main_[f];
    while (main_count > main_target_) {
      const std::optional<FrameId> demote = MainVictim();
      if (!demote) break;
      in_main_[*demote] = false;
      fifo_.push_back(*demote);
      --main_count;
      ++demotions_;
    }
  }

  void Adapt(FrameId p) {
    size_t better_spatial = 0;
    size_t better_lru = 0;
    for (const FrameId g : fifo_) {
      if (g == p) continue;
      if (meta_->Crit(g) > meta_->Crit(p)) ++better_spatial;
      if (last_access_[g] > last_access_[p]) ++better_lru;
    }
    int direction = 0;
    if (better_spatial > better_lru) {
      ++decreases_;
      direction = -1;
    } else if (better_spatial < better_lru) {
      ++increases_;
      direction = 1;
    }
    if (direction == 0) return;
    c_ = shared_ != nullptr
             ? std::clamp<int64_t>(shared_->ApplyStep(direction, step_), 1,
                                   MaxCandidate())
             : std::clamp<int64_t>(c_ + direction * step_, 1, MaxCandidate());
  }

  const Kind kind_;
  const StreamMeta* meta_;
  std::vector<bool> valid_;
  std::vector<bool> evictable_;
  std::vector<bool> in_main_;
  std::vector<uint64_t> last_access_;
  uint64_t clock_ = 0;
  int64_t c_;
  // ASB only.
  std::deque<FrameId> fifo_;
  size_t main_target_ = 0;
  int64_t step_ = 1;
  AsbSharedTuning* shared_ = nullptr;
  uint64_t overflow_hits_ = 0;
  uint64_t increases_ = 0;
  uint64_t decreases_ = 0;
  uint64_t demotions_ = 0;
};

/// What one stream exercised, so the tests can insist it was not trivial.
struct StreamCounts {
  uint64_t evictions = 0;
  uint64_t demotions = 0;
  uint64_t overflow_hits = 0;
  uint64_t pinned_walks = 0;  ///< victim selections with a pinned frame
};

/// Drives `policy` (already bound to `meta`) and `ref` with one seeded
/// stream, in the hook order BufferManager uses, and checks after every
/// step that both agree; adds what the stream exercised to `counts`.
/// `foreign_policy`/`foreign_ref` (ASB with shared tuning) are the shared
/// values of policy and reference, stepped as another shard would.
template <typename Policy>
void RunStream(Policy& policy, Reference& ref, StreamMeta& meta,
               size_t frames, uint64_t seed, StreamCounts& counts,
               AsbSharedTuning* foreign_policy = nullptr,
               AsbSharedTuning* foreign_ref = nullptr,
               int64_t foreign_step = 1) {
  AsbPolicy* asb = nullptr;
  if constexpr (std::is_base_of_v<AsbPolicy, Policy>) asb = &policy;
  const size_t pages = 3 * frames;
  Rng rng(seed);
  std::vector<double> area(pages);
  for (double& a : area) a = static_cast<double>(1 + rng.NextBelow(4));
  std::vector<FrameId> frame_of(pages, kInvalidFrameId);
  std::vector<PageId> page_of(frames, storage::kInvalidPageId);
  std::vector<int> pins(frames, 0);
  std::vector<FrameId> held;  // one entry per outstanding pin
  uint64_t query = 0;

  const auto unpin = [&](FrameId f) {
    if (--pins[f] == 0) {
      policy.SetEvictable(f, true);
      ref.SetEvictable(f, true);
    }
  };
  const auto release_or_hold = [&](FrameId f) {
    if (held.size() < frames / 3 && rng.NextBelow(5) == 0) {
      held.push_back(f);
    } else {
      unpin(f);
    }
  };
  const auto check = [&](int step) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed << " step " << step);
    // The base list holds every valid frame in strictly increasing
    // last-access order, and agrees with the reference's clock.
    const std::vector<FrameId> walk = Walk(policy.recency());
    ASSERT_EQ(walk, ref.ByRecency(false));
    for (size_t i = 0; i < walk.size(); ++i) {
      ASSERT_EQ(policy.frame(walk[i]).last_access,
                ref.last_access(walk[i]));
      if (i > 0) {
        ASSERT_LT(policy.frame(walk[i - 1]).last_access,
                  policy.frame(walk[i]).last_access);
      }
    }
    if (asb == nullptr) return;
    const std::vector<FrameId> main = Walk(asb->main_section());
    ASSERT_EQ(main, ref.ByRecency(true));
    for (size_t i = 1; i < main.size(); ++i) {
      ASSERT_LT(ref.last_access(main[i - 1]), ref.last_access(main[i]));
    }
    ASSERT_EQ(Walk(asb->overflow_fifo()),
              std::vector<FrameId>(ref.fifo().begin(), ref.fifo().end()));
    ASSERT_EQ(static_cast<int64_t>(asb->candidate_size()), ref.candidate());
    ASSERT_EQ(asb->overflow_hits(), ref.overflow_hits());
    ASSERT_EQ(asb->candidate_increases(), ref.increases());
    ASSERT_EQ(asb->candidate_decreases(), ref.decreases());
  };

  for (int step = 0; step < 3000; ++step) {
    const uint64_t roll = rng.NextBelow(100);
    if (roll < 60) {
      // Reference a page: half the time one that is resident (a hit, an
      // overflow hit for ASB's FIFO pages), else any page.
      PageId page = static_cast<PageId>(rng.NextBelow(pages));
      if (rng.NextBelow(2) == 0) {
        const FrameId f = static_cast<FrameId>(rng.NextBelow(frames));
        if (page_of[f] != storage::kInvalidPageId) page = page_of[f];
      }
      const AccessContext ctx{++query};
      FrameId f = frame_of[page];
      if (f != kInvalidFrameId) {
        if (pins[f]++ == 0) {
          policy.SetEvictable(f, false);
          ref.SetEvictable(f, false);
        }
        policy.OnPageAccessed(f, ctx);
        ref.OnAccessed(f);
      } else {
        const auto free_frame =
            std::find(page_of.begin(), page_of.end(), storage::kInvalidPageId);
        if (free_frame != page_of.end()) {
          f = static_cast<FrameId>(free_frame - page_of.begin());
        } else {
          counts.pinned_walks += held.empty() ? 0 : 1;
          const std::optional<FrameId> victim =
              policy.ChooseVictim(ctx, page);
          ASSERT_EQ(victim, ref.Victim()) << "seed " << seed << " step "
                                          << step;
          if (!victim) continue;  // every frame pinned: the fetch fails
          f = *victim;
          ASSERT_EQ(pins[f], 0);
          policy.OnPageEvicted(f, page_of[f]);
          ref.OnEvicted(f);
          frame_of[page_of[f]] = kInvalidFrameId;
          ++counts.evictions;
        }
        page_of[f] = page;
        frame_of[page] = f;
        meta.Set(f, area[page]);
        pins[f] = 1;
        policy.OnPageLoaded(f, page, ctx);
        ref.OnLoaded(f);
      }
      release_or_hold(f);
    } else if (roll < 80) {
      if (!held.empty()) {
        const size_t i = rng.NextBelow(held.size());
        const FrameId f = held[i];
        held.erase(held.begin() + static_cast<std::ptrdiff_t>(i));
        unpin(f);
      }
    } else if (roll < 95) {
      // Modify a resident page in place (MarkDirty): its criterion may
      // change, and its metadata version moves.
      const FrameId f = static_cast<FrameId>(rng.NextBelow(frames));
      if (page_of[f] != storage::kInvalidPageId) {
        area[page_of[f]] = static_cast<double>(1 + rng.NextBelow(4));
        meta.Set(f, area[page_of[f]]);
      }
    } else if (foreign_policy != nullptr) {
      // Another shard adapts the shared candidate size.
      const int direction = rng.NextBelow(2) == 0 ? -1 : 1;
      foreign_policy->ApplyStep(direction, foreign_step);
      foreign_ref->ApplyStep(direction, foreign_step);
    }
    check(step);
    if (::testing::Test::HasFatalFailure()) return;
  }
  counts.demotions += ref.demotions();
  counts.overflow_hits += ref.overflow_hits();
}

constexpr size_t kFrames = 12;

TEST(RecencyWalkTest, LruMatchesTheSortedReference) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    StreamMeta meta(kFrames, true);
    Inspectable<LruPolicy> policy;
    policy.Bind(&meta, kFrames);
    Reference ref(Reference::Kind::kLru, &meta, kFrames, 1);
    StreamCounts counts;
    RunStream(policy, ref, meta, kFrames, seed, counts);
    ASSERT_FALSE(HasFatalFailure());
    EXPECT_GT(counts.evictions, 300u);
    EXPECT_GT(counts.pinned_walks, 100u);
  }
}

TEST(RecencyWalkTest, SlruMatchesTheSortedReferenceForEveryCandidateSize) {
  for (size_t c = 1; c <= kFrames; ++c) {
    for (const bool versioned : {true, false}) {
      for (uint64_t seed = 1; seed <= 3; ++seed) {
        SCOPED_TRACE(::testing::Message()
                     << "c " << c << " versioned " << versioned);
        StreamMeta meta(kFrames, versioned);
        Inspectable<SlruPolicy> policy(
            kCrit, static_cast<double>(c) / static_cast<double>(kFrames));
        policy.Bind(&meta, kFrames);
        ASSERT_EQ(policy.candidate_size(), c);
        Reference ref(Reference::Kind::kSlru, &meta, kFrames, c);
        StreamCounts counts;
        RunStream(policy, ref, meta, kFrames, 100 * c + seed, counts);
        ASSERT_FALSE(HasFatalFailure());
        EXPECT_GT(counts.evictions, 300u);
      }
    }
  }
}

TEST(RecencyWalkTest, AsbMatchesTheSortedReferenceForEveryCandidateSize) {
  StreamCounts total;
  for (const bool shared : {false, true}) {
    for (size_t c = 1;; ++c) {
      AsbConfig config;
      config.criterion = kCrit;
      config.step_fraction = 0.2;  // steps of 2 main frames
      // Probe the main capacity, then start from candidate set c.
      const size_t main_capacity = [&] {
        StreamMeta probe_meta(kFrames, true);
        AsbPolicy probe(config);
        probe.Bind(&probe_meta, kFrames);
        return probe.main_capacity();
      }();
      if (c > main_capacity) break;
      config.initial_candidate_fraction =
          static_cast<double>(c) / static_cast<double>(main_capacity);
      for (uint64_t seed = 1; seed <= 3; ++seed) {
        SCOPED_TRACE(::testing::Message()
                     << "c " << c << " shared " << shared);
        StreamMeta meta(kFrames, seed != 3);
        AsbSharedTuning policy_tuning;
        AsbSharedTuning ref_tuning;
        Inspectable<AsbPolicy> policy(config);
        if (shared) policy.set_shared_tuning(&policy_tuning);
        policy.Bind(&meta, kFrames);
        ASSERT_EQ(policy.candidate_size(), c);
        Reference ref(Reference::Kind::kAsb, &meta, kFrames, c);
        ref.BindAsb(policy.main_capacity(), policy.step(),
                    shared ? &ref_tuning : nullptr);
        const uint64_t evictions_before = total.evictions;
        RunStream(policy, ref, meta, kFrames, 1000 * c + seed, total,
                  shared ? &policy_tuning : nullptr,
                  shared ? &ref_tuning : nullptr,
                  static_cast<int64_t>(policy.step()));
        ASSERT_FALSE(HasFatalFailure());
        EXPECT_GT(total.evictions - evictions_before, 300u);
      }
    }
  }
  EXPECT_GT(total.demotions, 10000u);
  EXPECT_GT(total.overflow_hits, 1000u);
}

TEST(RecencyWalkTest, TinyBuffersMatchTheSortedReference) {
  // One frame leaves ASB no main section (and, shared, a clamp of 1);
  // two or three frames leave it one or two main pages.
  for (size_t frames = 1; frames <= 3; ++frames) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(::testing::Message() << "frames " << frames);
      StreamCounts counts;
      {
        StreamMeta meta(frames, true);
        Inspectable<LruPolicy> policy;
        policy.Bind(&meta, frames);
        Reference ref(Reference::Kind::kLru, &meta, frames, 1);
        RunStream(policy, ref, meta, frames, seed, counts);
        ASSERT_FALSE(HasFatalFailure());
      }
      {
        StreamMeta meta(frames, true);
        Inspectable<SlruPolicy> policy(kCrit, 1.0);
        policy.Bind(&meta, frames);
        Reference ref(Reference::Kind::kSlru, &meta, frames, frames);
        RunStream(policy, ref, meta, frames, seed, counts);
        ASSERT_FALSE(HasFatalFailure());
      }
      for (const bool shared : {false, true}) {
        SCOPED_TRACE(::testing::Message() << "ASB shared " << shared);
        StreamMeta meta(frames, true);
        AsbSharedTuning policy_tuning;
        AsbSharedTuning ref_tuning;
        Inspectable<AsbPolicy> policy{AsbConfig{}};
        if (shared) policy.set_shared_tuning(&policy_tuning);
        policy.Bind(&meta, frames);
        Reference ref(Reference::Kind::kAsb, &meta, frames,
                      policy.candidate_size());
        ref.BindAsb(policy.main_capacity(), policy.step(),
                    shared ? &ref_tuning : nullptr);
        RunStream(policy, ref, meta, frames, seed, counts,
                  shared ? &policy_tuning : nullptr,
                  shared ? &ref_tuning : nullptr,
                  static_cast<int64_t>(policy.step()));
        ASSERT_FALSE(HasFatalFailure());
        EXPECT_GE(policy.candidate_size(), 1u);
        EXPECT_LE(policy.candidate_size(),
                  std::max<size_t>(1, policy.main_capacity()));
      }
    }
  }
}

}  // namespace
}  // namespace sdb::core
