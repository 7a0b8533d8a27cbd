// SSE2 tier: 2×f64 registers, processing 8 entries per iteration with four
// accumulators so the lane assignment — and therefore every rounding step —
// matches the canonical 8-stride order of the scalar reference exactly:
// acc_a..acc_d hold partials (s0,s1)/(s2,s3)/(s4,s5)/(s6,s7), a+c and b+d
// form (u0,u1)/(u2,u3), and the final reduce is (u0+u2) + (u1+u3).
//
// Operand-order discipline for min/max: std::min(x, y) keeps x when the
// comparison is false (including NaN), while MINPD keeps the SECOND operand;
// so std::min(x, y) compiles to _mm_min_pd(y, x), and likewise for max.

#include "geom/kernels/kernels_internal.h"

#if defined(__SSE2__)

#include <emmintrin.h>

namespace sdb::geom::kernels::internal {

namespace {

/// (u0+u2) + (u1+u3) given (u0, u1) and (u2, u3) — identical to the scalar
/// reference's final combine.
inline double Reduce(__m128d u01, __m128d u23) {
  const __m128d s = _mm_add_pd(u01, u23);  // (u0+u2, u1+u3)
  return _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)));
}

/// Width/height of 2 entries with Rect::width()/height() semantics: 0 where
/// the rect is inverted on either axis, raw difference (NaN-propagating)
/// otherwise.
inline void LoadExtents(const double* xmin, const double* ymin,
                        const double* xmax, const double* ymax, size_t i,
                        __m128d* w, __m128d* h) {
  const __m128d x0 = _mm_loadu_pd(xmin + i);
  const __m128d y0 = _mm_loadu_pd(ymin + i);
  const __m128d x1 = _mm_loadu_pd(xmax + i);
  const __m128d y1 = _mm_loadu_pd(ymax + i);
  const __m128d empty =
      _mm_or_pd(_mm_cmpgt_pd(x0, x1), _mm_cmpgt_pd(y0, y1));
  *w = _mm_andnot_pd(empty, _mm_sub_pd(x1, x0));
  *h = _mm_andnot_pd(empty, _mm_sub_pd(y1, y0));
}

double SumAreasSse2(const double* xmin, const double* ymin,
                    const double* xmax, const double* ymax, size_t n) {
  __m128d acc_a = _mm_setzero_pd();  // partials (s0, s1)
  __m128d acc_b = _mm_setzero_pd();  // partials (s2, s3)
  __m128d acc_c = _mm_setzero_pd();  // partials (s4, s5)
  __m128d acc_d = _mm_setzero_pd();  // partials (s6, s7)
  const size_t n8 = n & ~static_cast<size_t>(7);
  __m128d w, h;
  for (size_t i = 0; i < n8; i += 8) {
    LoadExtents(xmin, ymin, xmax, ymax, i, &w, &h);
    acc_a = _mm_add_pd(acc_a, _mm_mul_pd(w, h));
    LoadExtents(xmin, ymin, xmax, ymax, i + 2, &w, &h);
    acc_b = _mm_add_pd(acc_b, _mm_mul_pd(w, h));
    LoadExtents(xmin, ymin, xmax, ymax, i + 4, &w, &h);
    acc_c = _mm_add_pd(acc_c, _mm_mul_pd(w, h));
    LoadExtents(xmin, ymin, xmax, ymax, i + 6, &w, &h);
    acc_d = _mm_add_pd(acc_d, _mm_mul_pd(w, h));
  }
  double total =
      Reduce(_mm_add_pd(acc_a, acc_c), _mm_add_pd(acc_b, acc_d));
  for (size_t i = n8; i < n; ++i) {
    total += EntryArea(xmin[i], ymin[i], xmax[i], ymax[i]);
  }
  return total;
}

double SumMarginsSse2(const double* xmin, const double* ymin,
                      const double* xmax, const double* ymax, size_t n) {
  __m128d acc_a = _mm_setzero_pd();
  __m128d acc_b = _mm_setzero_pd();
  __m128d acc_c = _mm_setzero_pd();
  __m128d acc_d = _mm_setzero_pd();
  const size_t n8 = n & ~static_cast<size_t>(7);
  __m128d w, h;
  for (size_t i = 0; i < n8; i += 8) {
    LoadExtents(xmin, ymin, xmax, ymax, i, &w, &h);
    acc_a = _mm_add_pd(acc_a, _mm_add_pd(w, h));
    LoadExtents(xmin, ymin, xmax, ymax, i + 2, &w, &h);
    acc_b = _mm_add_pd(acc_b, _mm_add_pd(w, h));
    LoadExtents(xmin, ymin, xmax, ymax, i + 4, &w, &h);
    acc_c = _mm_add_pd(acc_c, _mm_add_pd(w, h));
    LoadExtents(xmin, ymin, xmax, ymax, i + 6, &w, &h);
    acc_d = _mm_add_pd(acc_d, _mm_add_pd(w, h));
  }
  double total =
      Reduce(_mm_add_pd(acc_a, acc_c), _mm_add_pd(acc_b, acc_d));
  for (size_t i = n8; i < n; ++i) {
    total += EntryMargin(xmin[i], ymin[i], xmax[i], ymax[i]);
  }
  return total;
}

size_t IntersectMaskSse2(const Rect& query, const double* xmin,
                         const double* ymin, const double* xmax,
                         const double* ymax, size_t n, uint8_t* out) {
  const __m128d qx0 = _mm_set1_pd(query.xmin);
  const __m128d qy0 = _mm_set1_pd(query.ymin);
  const __m128d qx1 = _mm_set1_pd(query.xmax);
  const __m128d qy1 = _mm_set1_pd(query.ymax);
  size_t hits = 0;
  const size_t n2 = n & ~static_cast<size_t>(1);
  for (size_t i = 0; i < n2; i += 2) {
    const __m128d m = _mm_and_pd(
        _mm_and_pd(_mm_cmple_pd(qx0, _mm_loadu_pd(xmax + i)),
                   _mm_cmple_pd(_mm_loadu_pd(xmin + i), qx1)),
        _mm_and_pd(_mm_cmple_pd(qy0, _mm_loadu_pd(ymax + i)),
                   _mm_cmple_pd(_mm_loadu_pd(ymin + i), qy1)));
    const int bits = _mm_movemask_pd(m);
    out[i] = static_cast<uint8_t>(bits & 1);
    out[i + 1] = static_cast<uint8_t>((bits >> 1) & 1);
    hits += static_cast<size_t>(__builtin_popcount(bits));
  }
  for (size_t i = n2; i < n; ++i) {
    const uint8_t hit =
        Intersects(query, xmin[i], ymin[i], xmax[i], ymax[i]) ? 1 : 0;
    out[i] = hit;
    hits += hit;
  }
  return hits;
}

/// geom::IntersectionArea(a, b) lane by lane (either side may be a
/// broadcast), with the MINPD operand swap described at the top of the
/// file; CMPNLEPD is the unordered-true !(x <= 0), so NaN extents fall
/// through to the product as in the scalar early returns.
inline __m128d IntersectionAreas(__m128d ax0, __m128d ay0, __m128d ax1,
                                 __m128d ay1, __m128d bx0, __m128d by0,
                                 __m128d bx1, __m128d by1) {
  const __m128d w = _mm_sub_pd(_mm_min_pd(bx1, ax1), _mm_max_pd(bx0, ax0));
  const __m128d h = _mm_sub_pd(_mm_min_pd(by1, ay1), _mm_max_pd(by0, ay0));
  const __m128d zero = _mm_setzero_pd();
  const __m128d keep =
      _mm_and_pd(_mm_cmpnle_pd(w, zero), _mm_cmpnle_pd(h, zero));
  return _mm_and_pd(keep, _mm_mul_pd(w, h));
}

/// Overlap products of the broadcast rect `a` against entries (j, j+1).
inline __m128d OverlapProducts(__m128d ax0, __m128d ay0, __m128d ax1,
                               __m128d ay1, const double* xmin,
                               const double* ymin, const double* xmax,
                               const double* ymax, size_t j) {
  return IntersectionAreas(ax0, ay0, ax1, ay1, _mm_loadu_pd(xmin + j),
                           _mm_loadu_pd(ymin + j), _mm_loadu_pd(xmax + j),
                           _mm_loadu_pd(ymax + j));
}

double PairwiseOverlapSumSse2(const double* xmin, const double* ymin,
                              const double* xmax, const double* ymax,
                              size_t n) {
  double total = 0.0;
  for (size_t i = 0; i + 1 < n; ++i) {
    const __m128d ax0 = _mm_set1_pd(xmin[i]);
    const __m128d ay0 = _mm_set1_pd(ymin[i]);
    const __m128d ax1 = _mm_set1_pd(xmax[i]);
    const __m128d ay1 = _mm_set1_pd(ymax[i]);
    const size_t base = i + 1;
    const size_t m = n - base;
    const size_t m8 = m & ~static_cast<size_t>(7);
    __m128d acc_a = _mm_setzero_pd();
    __m128d acc_b = _mm_setzero_pd();
    __m128d acc_c = _mm_setzero_pd();
    __m128d acc_d = _mm_setzero_pd();
    for (size_t t = 0; t < m8; t += 8) {
      acc_a = _mm_add_pd(acc_a, OverlapProducts(ax0, ay0, ax1, ay1, xmin,
                                                ymin, xmax, ymax, base + t));
      acc_b = _mm_add_pd(acc_b, OverlapProducts(ax0, ay0, ax1, ay1, xmin,
                                                ymin, xmax, ymax,
                                                base + t + 2));
      acc_c = _mm_add_pd(acc_c, OverlapProducts(ax0, ay0, ax1, ay1, xmin,
                                                ymin, xmax, ymax,
                                                base + t + 4));
      acc_d = _mm_add_pd(acc_d, OverlapProducts(ax0, ay0, ax1, ay1, xmin,
                                                ymin, xmax, ymax,
                                                base + t + 6));
    }
    double inner =
        Reduce(_mm_add_pd(acc_a, acc_c), _mm_add_pd(acc_b, acc_d));
    for (size_t t = m8; t < m; ++t) {
      const size_t j = base + t;
      inner += OverlapArea(xmin[i], ymin[i], xmax[i], ymax[i], xmin[j],
                           ymin[j], xmax[j], ymax[j]);
    }
    total += inner;
  }
  return total;
}

/// Candidates i, i+1 in lanes, each running the scalar reference's
/// sequential j loop; the self term is skipped by selecting the old sum
/// (SSE2 has no blend, so and/andnot/or), as the scalar `continue` does.
void OverlapEnlargementSse2(const Rect& add, const double* xmin,
                            const double* ymin, const double* xmax,
                            const double* ymax, size_t n, double* out) {
  const __m128d addx0 = _mm_set1_pd(add.xmin);
  const __m128d addy0 = _mm_set1_pd(add.ymin);
  const __m128d addx1 = _mm_set1_pd(add.xmax);
  const __m128d addy1 = _mm_set1_pd(add.ymax);
  const __m128d self_lo = _mm_castsi128_pd(_mm_set_epi64x(0, -1));
  const __m128d self_hi = _mm_castsi128_pd(_mm_set_epi64x(-1, 0));
  const size_t n2 = n & ~static_cast<size_t>(1);
  for (size_t i = 0; i < n2; i += 2) {
    const __m128d ex0 = _mm_loadu_pd(xmin + i);
    const __m128d ey0 = _mm_loadu_pd(ymin + i);
    const __m128d ex1 = _mm_loadu_pd(xmax + i);
    const __m128d ey1 = _mm_loadu_pd(ymax + i);
    // U = Union(e, add): std::min(e.xmin, add.xmin) is min_pd(add, e).
    const __m128d ux0 = _mm_min_pd(addx0, ex0);
    const __m128d uy0 = _mm_min_pd(addy0, ey0);
    const __m128d ux1 = _mm_max_pd(addx1, ex1);
    const __m128d uy1 = _mm_max_pd(addy1, ey1);
    const auto term = [&](size_t j) {
      const __m128d bx0 = _mm_set1_pd(xmin[j]);
      const __m128d by0 = _mm_set1_pd(ymin[j]);
      const __m128d bx1 = _mm_set1_pd(xmax[j]);
      const __m128d by1 = _mm_set1_pd(ymax[j]);
      return _mm_sub_pd(
          IntersectionAreas(ux0, uy0, ux1, uy1, bx0, by0, bx1, by1),
          IntersectionAreas(ex0, ey0, ex1, ey1, bx0, by0, bx1, by1));
    };
    const auto keep_self = [](__m128d self, __m128d old, __m128d sum) {
      return _mm_or_pd(_mm_and_pd(self, old), _mm_andnot_pd(self, sum));
    };
    __m128d acc = _mm_setzero_pd();
    for (size_t j = 0; j < i; ++j) acc = _mm_add_pd(acc, term(j));
    acc = keep_self(self_lo, acc, _mm_add_pd(acc, term(i)));
    acc = keep_self(self_hi, acc, _mm_add_pd(acc, term(i + 1)));
    for (size_t j = i + 2; j < n; ++j) acc = _mm_add_pd(acc, term(j));
    _mm_storeu_pd(out + i, acc);
  }
  for (size_t i = n2; i < n; ++i) {
    out[i] = OverlapEnlargementAt(add, xmin, ymin, xmax, ymax, n, i);
  }
}

}  // namespace

const Ops kSse2Ops = {
    IntersectMaskSse2,
    SumAreasSse2,
    SumMarginsSse2,
    PairwiseOverlapSumSse2,
    OverlapEnlargementSse2,
};

}  // namespace sdb::geom::kernels::internal

#else  // !defined(__SSE2__)

namespace sdb::geom::kernels::internal {
// Non-x86 (or SSE2-less) build: the tier aliases the scalar reference and
// LevelAvailable(kSse2) reports false.
const Ops kSse2Ops = kScalarOps;
}  // namespace sdb::geom::kernels::internal

#endif
