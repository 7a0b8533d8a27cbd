#ifndef SPATIALBUFFER_GEOM_KERNELS_KERNELS_INTERNAL_H_
#define SPATIALBUFFER_GEOM_KERNELS_KERNELS_INTERNAL_H_

#include <algorithm>
#include <cstddef>

#include "geom/kernels/kernels.h"

// Shared between the per-tier translation units. The scalar element
// semantics below are the reference every vector tier must reproduce
// bit-for-bit, including the NaN/±0 behavior of geom::Rect (empty rects use
// ±inf coordinates, so inf−inf NaNs are reachable inputs).

namespace sdb::geom::kernels::internal {

/// Per-tier implementation tables (kScalarOps always real; the SSE2/AVX2
/// tables alias the scalar one when the tier is not compiled in).
extern const Ops kScalarOps;
extern const Ops kSse2Ops;
extern const Ops kAvx2Ops;

/// Element semantics of geom::Rect::Area(): empty (inverted on either axis)
/// rects have zero width AND height; NaN coordinates propagate.
inline double EntryArea(double xmin, double ymin, double xmax, double ymax) {
  const bool empty = xmin > xmax || ymin > ymax;
  const double w = empty ? 0.0 : xmax - xmin;
  const double h = empty ? 0.0 : ymax - ymin;
  return w * h;
}

/// Element semantics of geom::Rect::Margin().
inline double EntryMargin(double xmin, double ymin, double xmax,
                          double ymax) {
  const bool empty = xmin > xmax || ymin > ymax;
  const double w = empty ? 0.0 : xmax - xmin;
  const double h = empty ? 0.0 : ymax - ymin;
  return w + h;
}

/// Element semantics of geom::IntersectionArea(a, b): exact 0.0 when either
/// extent is non-positive, w·h otherwise (NaN extents fall through to the
/// product, matching the Rect code path).
inline double OverlapArea(double axmin, double aymin, double axmax,
                          double aymax, double bxmin, double bymin,
                          double bxmax, double bymax) {
  const double w = std::min(axmax, bxmax) - std::max(axmin, bxmin);
  const double h = std::min(aymax, bymax) - std::max(aymin, bymin);
  if (w <= 0.0 || h <= 0.0) return 0.0;
  return w * h;
}

/// Overlap enlargement of candidate i (the scalar reference of
/// Ops::overlap_enlargement, also the vector tiers' tail): U_i is
/// geom::Union(e_i, add), and every term is added in ascending j.
inline double OverlapEnlargementAt(const Rect& add, const double* xmin,
                                   const double* ymin, const double* xmax,
                                   const double* ymax, size_t n, size_t i) {
  const double ux0 = std::min(xmin[i], add.xmin);
  const double uy0 = std::min(ymin[i], add.ymin);
  const double ux1 = std::max(xmax[i], add.xmax);
  const double uy1 = std::max(ymax[i], add.ymax);
  double delta = 0.0;
  for (size_t j = 0; j < n; ++j) {
    if (j == i) continue;
    delta += OverlapArea(ux0, uy0, ux1, uy1, xmin[j], ymin[j], xmax[j],
                         ymax[j]) -
             OverlapArea(xmin[i], ymin[i], xmax[i], ymax[i], xmin[j],
                         ymin[j], xmax[j], ymax[j]);
  }
  return delta;
}

/// Element semantics of query.Intersects(entry) (closed-set: touching edges
/// intersect; any NaN coordinate compares false, i.e. no intersection).
inline bool Intersects(const Rect& q, double xmin, double ymin, double xmax,
                       double ymax) {
  return q.xmin <= xmax && xmin <= q.xmax && q.ymin <= ymax && ymin <= q.ymax;
}

/// THE canonical accumulation order, shared by every tier:
///   - partial sum s_k (k = 0..7) accumulates elements i with i % 8 == k
///     over the largest multiple-of-8 prefix,
///   - partials combine as u_k = s_k + s_{k+4} (a 4×f64 vector add of two
///     interleaved accumulators), then (u0 + u2) + (u1 + u3) — exactly the
///     two-step 128-bit reduction of one 4×f64 register,
///   - tail elements are then added sequentially.
/// Eight strides instead of four so the AVX2 tier can run two independent
/// accumulators (hiding the 4-cycle add latency) and still match this order
/// bit-for-bit. `element(i)` must be pure.
template <typename F>
inline double StridedSum(size_t n, F&& element) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  double s4 = 0.0, s5 = 0.0, s6 = 0.0, s7 = 0.0;
  const size_t n8 = n & ~static_cast<size_t>(7);
  for (size_t i = 0; i < n8; i += 8) {
    s0 += element(i);
    s1 += element(i + 1);
    s2 += element(i + 2);
    s3 += element(i + 3);
    s4 += element(i + 4);
    s5 += element(i + 5);
    s6 += element(i + 6);
    s7 += element(i + 7);
  }
  const double u0 = s0 + s4, u1 = s1 + s5, u2 = s2 + s6, u3 = s3 + s7;
  double total = (u0 + u2) + (u1 + u3);
  for (size_t i = n8; i < n; ++i) total += element(i);
  return total;
}

}  // namespace sdb::geom::kernels::internal

#endif  // SPATIALBUFFER_GEOM_KERNELS_KERNELS_INTERNAL_H_
