#ifndef SPATIALBUFFER_GEOM_KERNELS_KERNELS_H_
#define SPATIALBUFFER_GEOM_KERNELS_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "geom/rect.h"

namespace sdb::geom::kernels {

/// Instruction-set tiers of the batch geometry kernels, ordered by
/// preference. One tier is selected at startup (cpuid probe, overridable via
/// SDB_KERNELS=scalar|sse2|avx2) and used for every kernel call thereafter.
///
/// Every tier produces BIT-IDENTICAL results: the scalar reference
/// implementation is the single source of truth, and it is defined in the
/// same canonical accumulation order the vector units use (8 strided
/// partial sums s0..s7, combined as u_k = s_k + s_{k+4} then
/// (u0+u2)+(u1+u3), sequential tail) — so query hit counts, page aggregates,
/// R* subtree choices (hence tree images) and every BENCH_*.json row are
/// independent of the dispatch level. overlap_enlargement is the one kernel
/// with a different canonical order (see Ops).
enum class Level : uint8_t {
  kScalar = 0,
  kSse2 = 1,
  kAvx2 = 2,
};

/// Function table of one dispatch tier. All kernels operate on SoA
/// coordinate arrays (xmin[], ymin[], xmax[], ymax[] of n entry MBRs) — the
/// layout GatherCoords/SoaBuffer produce from on-page entry records.
struct Ops {
  /// Writes out[i] = 1 if `query` intersects entry i (closed-set semantics,
  /// exactly geom::Rect::Intersects), else 0. Returns the hit count.
  size_t (*intersect_mask)(const Rect& query, const double* xmin,
                           const double* ymin, const double* xmax,
                           const double* ymax, size_t n, uint8_t* out);
  /// Σ area of the entry MBRs (empty/inverted rects count as 0, exactly
  /// geom::Rect::Area) in the canonical accumulation order.
  double (*sum_areas)(const double* xmin, const double* ymin,
                      const double* xmax, const double* ymax, size_t n);
  /// Σ margin (width + height) of the entry MBRs, canonical order.
  double (*sum_margins)(const double* xmin, const double* ymin,
                        const double* xmax, const double* ymax, size_t n);
  /// Σ over unordered pairs {i, j} of area(entry_i ∩ entry_j) — the O(n²)
  /// EO criterion term. Canonical order: for each i ascending, the inner
  /// j-sum (j > i) is a canonical strided sum added to the running total.
  double (*pairwise_overlap_sum)(const double* xmin, const double* ymin,
                                 const double* xmax, const double* ymax,
                                 size_t n);
  /// R* ChooseSubtree overlap enlargement of every candidate entry i when
  /// `add` is inserted under it: out[i] = Σ_{j≠i} (area(U_i ∩ e_j) −
  /// area(e_i ∩ e_j)) with U_i = Union(e_i, add), each area exactly
  /// geom::IntersectionArea. Canonical order: per candidate i, the terms in
  /// ascending j (skipping j == i) added one at a time to a sum starting at
  /// 0.0 — the order of the original scalar ChooseSubtree loop, not the
  /// 8-stride order above. The per-candidate sums are what the tree
  /// compares, so a reordering that shifts one rounding step could flip a
  /// tie and change the tree image; the vector tiers instead put
  /// candidates in lanes and walk j sequentially in every lane.
  void (*overlap_enlargement)(const Rect& add, const double* xmin,
                              const double* ymin, const double* xmax,
                              const double* ymax, size_t n, double* out);
};

/// Reusable SoA scratch for deinterleaved entry coordinates. Reserve() grows
/// but never shrinks, so one buffer threaded through a traversal performs no
/// per-node allocation in steady state.
class SoaBuffer {
 public:
  /// Ensures capacity for `n` entries; invalidates previous pointers when it
  /// grows.
  void Reserve(size_t n) {
    if (n <= cap_) return;
    // Round up generously so a traversal settles after one growth.
    size_t cap = cap_ == 0 ? 128 : cap_;
    while (cap < n) cap *= 2;
    storage_.assign(4 * cap, 0.0);
    cap_ = cap;
  }

  size_t capacity() const { return cap_; }

  double* xmin() { return storage_.data(); }
  double* ymin() { return storage_.data() + cap_; }
  double* xmax() { return storage_.data() + 2 * cap_; }
  double* ymax() { return storage_.data() + 3 * cap_; }
  const double* xmin() const { return storage_.data(); }
  const double* ymin() const { return storage_.data() + cap_; }
  const double* xmax() const { return storage_.data() + 2 * cap_; }
  const double* ymax() const { return storage_.data() + 3 * cap_; }

 private:
  std::vector<double> storage_;
  size_t cap_ = 0;
};

/// The tier selected for this process: the best level the CPU supports,
/// clamped by the SDB_KERNELS environment override (read once, at the first
/// call). Thread-safe.
Level ActiveLevel();

/// Function table of the active tier.
const Ops& ActiveOps();

/// Function table of an explicit tier (for A/B benches and the property
/// tests). Asking for an unavailable tier returns the scalar table.
const Ops& OpsFor(Level level);

/// True if `level` is compiled in and supported by this CPU. kScalar is
/// always available.
bool LevelAvailable(Level level);

/// "scalar", "sse2", "avx2".
std::string_view LevelName(Level level);

/// Parses an SDB_KERNELS-style name; returns `fallback` for unknown names.
Level ParseLevelName(std::string_view name, Level fallback);

/// Overrides the active tier for the rest of the process (bench/test A/B
/// only — not thread-safe against concurrent kernel calls).
void ForceLevel(Level level);

// --- convenience wrappers over ActiveOps() --------------------------------

inline size_t IntersectMask(const Rect& query, const double* xmin,
                            const double* ymin, const double* xmax,
                            const double* ymax, size_t n, uint8_t* out) {
  return ActiveOps().intersect_mask(query, xmin, ymin, xmax, ymax, n, out);
}

inline double SumAreas(const double* xmin, const double* ymin,
                       const double* xmax, const double* ymax, size_t n) {
  return ActiveOps().sum_areas(xmin, ymin, xmax, ymax, n);
}

inline double SumMargins(const double* xmin, const double* ymin,
                         const double* xmax, const double* ymax, size_t n) {
  return ActiveOps().sum_margins(xmin, ymin, xmax, ymax, n);
}

inline double PairwiseOverlapSum(const double* xmin, const double* ymin,
                                 const double* xmax, const double* ymax,
                                 size_t n) {
  return ActiveOps().pairwise_overlap_sum(xmin, ymin, xmax, ymax, n);
}

inline void OverlapEnlargement(const Rect& add, const double* xmin,
                               const double* ymin, const double* xmax,
                               const double* ymax, size_t n, double* out) {
  ActiveOps().overlap_enlargement(add, xmin, ymin, xmax, ymax, n, out);
}

}  // namespace sdb::geom::kernels

#endif  // SPATIALBUFFER_GEOM_KERNELS_KERNELS_H_
