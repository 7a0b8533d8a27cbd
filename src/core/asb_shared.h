#ifndef SPATIALBUFFER_CORE_ASB_SHARED_H_
#define SPATIALBUFFER_CORE_ASB_SHARED_H_

#include <algorithm>
#include <atomic>
#include <cstdint>

namespace sdb::core {

/// Cross-shard coordination of ASB's self-tuning candidate-set size `c`
/// (paper Sec. 4.2) for one logical buffer sharded over several AsbPolicy
/// instances.
///
/// Each shard observes overflow hits only for its own pages, so a per-shard
/// `c` would adapt on 1/N of the evidence and the shards would drift apart.
/// Instead all shards share one atomically-published `c`: every shard's
/// adaptation applies its +/-step to the shared value with a clamped CAS,
/// and every shard re-reads the published value at its next demotion walk
/// (i.e. before the eviction decision it parameterizes). The paper's clamps
/// hold globally — 1 <= c <= the smallest shard's main-section capacity —
/// so the published value is usable by every shard unmodified.
///
/// Thread safety: all members are lock-free atomics. Shards call BindShard
/// during service construction (before traffic); Load/ApplyStep run freely
/// under concurrent adaptation races.
class AsbSharedTuning {
 public:
  /// Registers one shard: tightens the global clamp to the shard's main
  /// capacity; the first binder seeds the published value with its initial
  /// candidate size.
  void BindShard(int64_t initial_candidate, int64_t main_capacity) {
    int64_t max = max_candidate_.load(std::memory_order_relaxed);
    while (main_capacity < max &&
           !max_candidate_.compare_exchange_weak(max, main_capacity,
                                                 std::memory_order_acq_rel)) {
    }
    int64_t expected = 0;
    candidate_.compare_exchange_strong(expected, initial_candidate,
                                       std::memory_order_acq_rel);
  }

  /// The published candidate-set size, clamped into the current bounds
  /// (>= 1 even before any shard binds).
  int64_t Load() const {
    const int64_t max = max_candidate_.load(std::memory_order_acquire);
    const int64_t c = candidate_.load(std::memory_order_acquire);
    return std::clamp<int64_t>(c, 1, std::max<int64_t>(1, max));
  }

  /// Applies one adaptation step (direction -1 or +1) and returns the new
  /// published value. The CAS loop makes lost updates impossible, and the
  /// clamp is re-applied on every retry, so racing steps can never push the
  /// value outside the paper's bounds.
  int64_t ApplyStep(int direction, int64_t step) {
    const int64_t max =
        std::max<int64_t>(1, max_candidate_.load(std::memory_order_acquire));
    int64_t current = candidate_.load(std::memory_order_relaxed);
    int64_t next = current;
    do {
      next = std::clamp<int64_t>(current + direction * step, 1, max);
    } while (!candidate_.compare_exchange_weak(current, next,
                                               std::memory_order_acq_rel));
    return next;
  }

  /// Upper clamp: the smallest bound shard's main capacity (INT64_MAX
  /// before the first BindShard).
  int64_t max_candidate() const {
    return max_candidate_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<int64_t> candidate_{0};  ///< 0 = no shard bound yet
  std::atomic<int64_t> max_candidate_{INT64_MAX};
};

}  // namespace sdb::core

#endif  // SPATIALBUFFER_CORE_ASB_SHARED_H_
