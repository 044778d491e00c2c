/// AVX2 kernel implementations. This is the ONLY translation unit in the
/// tree that may include <immintrin.h> (enforced by the `simd-intrinsics`
/// lint rule); it is compiled with -mavx2 and its symbols are referenced
/// exclusively by the dispatch layer after a runtime CPUID check.
///
/// Bit-identity notes (the load-bearing invariants; see DESIGN.md):
///  * Range predicates on floats use ordered-quiet compares (_CMP_GE_OQ /
///    _CMP_LE_OQ), so NaN never matches — same as the scalar `v >= lo &&
///    v <= hi` which is false for NaN.
///  * Integer sums accumulate in 64-bit lanes and convert the exact
///    integer total to double once at the end. This equals the scalar
///    kernel's running double accumulator as long as every prefix sum is
///    exactly representable (|sum| < 2^53), which the packed-layout
///    magnitude guard and the repo's documented integer-sum contract
///    ensure.
///  * float/double sum and min/max reductions use a *striped* fold:
///    element i goes to lane (i - begin) % W, lanes are combined in a
///    fixed order at the end. The scalar fallbacks in kernel_dispatch.cc
///    implement the identical striping, so FORCE_SCALAR on/off is
///    bit-identical. Adding a masked-out +0.0 to a lane accumulator
///    cannot change its bits: a lane accumulator can never be -0.0
///    (x + y == -0.0 in round-to-nearest only when both addends are
///    -0.0, and lanes start at +0.0), and acc + (+0.0) == acc otherwise.
///  * float/double ComputeMinMax seeds every lane with +inf/-inf, and the
///    ordered compares drop NaN in its lane without losing that lane's
///    other values, so NaN never becomes a zone bound (matching the
///    scalar fold); an all-NaN range yields min > max.

#ifdef ADASKIP_HAVE_AVX2

#include <immintrin.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <span>

#include "adaskip/scan/simd/simd_kernels.h"
#include "adaskip/util/logging.h"

// GCC (observed with 12.x) register-allocates a vector accumulator into
// the stack slot of the alignas(32) lane array it is eventually stored
// to, turning the hot fold loops into store/reload chains through memory
// (~4-6x slower than keeping the accumulator in a ymm register). An
// empty asm with a "+x" constraint between the loop and the store pins
// the value to a vector register without changing it.
#define ADASKIP_PIN_YMM(v) asm("" : "+x"(v))

namespace adaskip {
namespace simd {
namespace avx2 {

namespace {

inline void DCheckRange(int64_t size, RowRange range) {
  ADASKIP_DCHECK(range.begin >= 0 && range.end <= size);
}

// ---- 32-bit signed integers (8 lanes) -------------------------------------

// Per-8-lane match mask as a bit mask in the low 8 bits: lane i matched
// iff bit i is set. match = !(lo > v) && !(v > hi).
inline uint32_t MatchMask8(__m256i v, __m256i vlo, __m256i vhi) {
  const __m256i too_lo = _mm256_cmpgt_epi32(vlo, v);
  const __m256i too_hi = _mm256_cmpgt_epi32(v, vhi);
  const __m256i miss = _mm256_or_si256(too_lo, too_hi);
  const uint32_t miss_mask = static_cast<uint32_t>(
      _mm256_movemask_ps(_mm256_castsi256_ps(miss)));
  return ~miss_mask & 0xffu;
}

// ---- 64-bit signed integers (4 lanes) -------------------------------------

inline uint32_t MatchMask4(__m256i v, __m256i vlo, __m256i vhi) {
  const __m256i too_lo = _mm256_cmpgt_epi64(vlo, v);
  const __m256i too_hi = _mm256_cmpgt_epi64(v, vhi);
  const __m256i miss = _mm256_or_si256(too_lo, too_hi);
  const uint32_t miss_mask = static_cast<uint32_t>(
      _mm256_movemask_pd(_mm256_castsi256_pd(miss)));
  return ~miss_mask & 0xfu;
}

inline uint32_t MatchMaskPs(__m256 v, __m256 vlo, __m256 vhi) {
  const __m256 ge = _mm256_cmp_ps(v, vlo, _CMP_GE_OQ);
  const __m256 le = _mm256_cmp_ps(v, vhi, _CMP_LE_OQ);
  return static_cast<uint32_t>(_mm256_movemask_ps(_mm256_and_ps(ge, le))) &
         0xffu;
}

inline uint32_t MatchMaskPd(__m256d v, __m256d vlo, __m256d vhi) {
  const __m256d ge = _mm256_cmp_pd(v, vlo, _CMP_GE_OQ);
  const __m256d le = _mm256_cmp_pd(v, vhi, _CMP_LE_OQ);
  return static_cast<uint32_t>(_mm256_movemask_pd(_mm256_and_pd(ge, le))) &
         0xfu;
}

inline int64_t HSum64(__m256i v) {
  ADASKIP_PIN_YMM(v);
  alignas(32) int64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), v);
  return lanes[0] + lanes[1] + lanes[2] + lanes[3];
}

inline int64_t HSum32(__m256i v) {
  ADASKIP_PIN_YMM(v);
  alignas(32) int32_t lanes[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), v);
  int64_t sum = 0;
  for (int k = 0; k < 8; ++k) sum += lanes[k];
  return sum;
}

}  // namespace

// ===========================================================================
// CountMatches
// ===========================================================================

int64_t CountMatches(std::span<const int32_t> values, RowRange range,
                     ValueInterval<int32_t> interval) {
  DCheckRange(static_cast<int64_t>(values.size()), range);
  const int32_t* data = values.data();
  const __m256i vlo = _mm256_set1_epi32(interval.lo);
  const __m256i vhi = _mm256_set1_epi32(interval.hi);
  // Compare masks are 0 / -1 per lane, so adding them accumulates
  // per-lane miss counts entirely in vector registers — no per-iteration
  // movemask + popcount. A 32-bit lane would need 2^31 iterations to
  // overflow, far beyond any segment size.
  __m256i misses = _mm256_setzero_si256();
  int64_t i = range.begin;
  const int64_t vec_end = range.begin + ((range.end - range.begin) & ~7LL);
  for (; i < vec_end; i += 8) {
    const __m256i v = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(data + i));
    const __m256i too_lo = _mm256_cmpgt_epi32(vlo, v);
    const __m256i too_hi = _mm256_cmpgt_epi32(v, vhi);
    misses = _mm256_add_epi32(misses, _mm256_or_si256(too_lo, too_hi));
  }
  // Each miss contributed -1 to its lane.
  int64_t count = (vec_end - range.begin) + HSum32(misses);
  for (; i < range.end; ++i) {
    const int32_t v = data[i];
    count += static_cast<int64_t>(v >= interval.lo) &
             static_cast<int64_t>(v <= interval.hi);
  }
  return count;
}

int64_t CountMatches(std::span<const int64_t> values, RowRange range,
                     ValueInterval<int64_t> interval) {
  DCheckRange(static_cast<int64_t>(values.size()), range);
  const int64_t* data = values.data();
  const __m256i vlo = _mm256_set1_epi64x(interval.lo);
  const __m256i vhi = _mm256_set1_epi64x(interval.hi);
  __m256i misses = _mm256_setzero_si256();
  int64_t i = range.begin;
  const int64_t vec_end = range.begin + ((range.end - range.begin) & ~3LL);
  for (; i < vec_end; i += 4) {
    const __m256i v = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(data + i));
    const __m256i too_lo = _mm256_cmpgt_epi64(vlo, v);
    const __m256i too_hi = _mm256_cmpgt_epi64(v, vhi);
    misses = _mm256_add_epi64(misses, _mm256_or_si256(too_lo, too_hi));
  }
  int64_t count = (vec_end - range.begin) + HSum64(misses);
  for (; i < range.end; ++i) {
    const int64_t v = data[i];
    count += static_cast<int64_t>(v >= interval.lo) &
             static_cast<int64_t>(v <= interval.hi);
  }
  return count;
}

int64_t CountMatches(std::span<const float> values, RowRange range,
                     ValueInterval<float> interval) {
  DCheckRange(static_cast<int64_t>(values.size()), range);
  const float* data = values.data();
  const __m256 vlo = _mm256_set1_ps(interval.lo);
  const __m256 vhi = _mm256_set1_ps(interval.hi);
  __m256i matches = _mm256_setzero_si256();
  int64_t i = range.begin;
  const int64_t vec_end = range.begin + ((range.end - range.begin) & ~7LL);
  for (; i < vec_end; i += 8) {
    const __m256 v = _mm256_loadu_ps(data + i);
    const __m256 ge = _mm256_cmp_ps(v, vlo, _CMP_GE_OQ);
    const __m256 le = _mm256_cmp_ps(v, vhi, _CMP_LE_OQ);
    matches = _mm256_sub_epi32(matches,
                               _mm256_castps_si256(_mm256_and_ps(ge, le)));
  }
  int64_t count = HSum32(matches);
  for (; i < range.end; ++i) {
    const float v = data[i];
    count += static_cast<int64_t>(v >= interval.lo) &
             static_cast<int64_t>(v <= interval.hi);
  }
  return count;
}

int64_t CountMatches(std::span<const double> values, RowRange range,
                     ValueInterval<double> interval) {
  DCheckRange(static_cast<int64_t>(values.size()), range);
  const double* data = values.data();
  const __m256d vlo = _mm256_set1_pd(interval.lo);
  const __m256d vhi = _mm256_set1_pd(interval.hi);
  __m256i matches = _mm256_setzero_si256();
  int64_t i = range.begin;
  const int64_t vec_end = range.begin + ((range.end - range.begin) & ~3LL);
  for (; i < vec_end; i += 4) {
    const __m256d v = _mm256_loadu_pd(data + i);
    const __m256d ge = _mm256_cmp_pd(v, vlo, _CMP_GE_OQ);
    const __m256d le = _mm256_cmp_pd(v, vhi, _CMP_LE_OQ);
    matches = _mm256_sub_epi64(matches,
                               _mm256_castpd_si256(_mm256_and_pd(ge, le)));
  }
  int64_t count = HSum64(matches);
  for (; i < range.end; ++i) {
    const double v = data[i];
    count += static_cast<int64_t>(v >= interval.lo) &
             static_cast<int64_t>(v <= interval.hi);
  }
  return count;
}

// ===========================================================================
// SumMatchesCounted
// ===========================================================================

SumCount<int32_t> SumMatchesCounted(std::span<const int32_t> values,
                                    RowRange range,
                                    ValueInterval<int32_t> interval) {
  DCheckRange(static_cast<int64_t>(values.size()), range);
  const int32_t* data = values.data();
  // Widen 4 x int32 -> 4 x int64 per step so lane accumulators cannot
  // overflow; compare in the 64-bit domain.
  const __m256i vlo = _mm256_set1_epi64x(interval.lo);
  const __m256i vhi = _mm256_set1_epi64x(interval.hi);
  const __m256i ones = _mm256_set1_epi64x(-1);
  __m256i sum = _mm256_setzero_si256();
  __m256i cnt = _mm256_setzero_si256();
  int64_t i = range.begin;
  for (; i + 4 <= range.end; i += 4) {
    const __m128i raw = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(data + i));
    const __m256i v = _mm256_cvtepi32_epi64(raw);
    const __m256i too_lo = _mm256_cmpgt_epi64(vlo, v);
    const __m256i too_hi = _mm256_cmpgt_epi64(v, vhi);
    const __m256i match =
        _mm256_andnot_si256(_mm256_or_si256(too_lo, too_hi), ones);
    sum = _mm256_add_epi64(sum, _mm256_and_si256(match, v));
    cnt = _mm256_sub_epi64(cnt, match);  // matched lane contributes -(-1).
  }
  int64_t total = HSum64(sum);
  int64_t count = HSum64(cnt);
  for (; i < range.end; ++i) {
    const int64_t v = data[i];
    const bool match = v >= interval.lo && v <= interval.hi;
    total += match ? v : 0;
    count += match ? 1 : 0;
  }
  SumCount<int32_t> out;
  out.sum = static_cast<double>(total);
  out.count = count;
  return out;
}

SumCount<int64_t> SumMatchesCounted(std::span<const int64_t> values,
                                    RowRange range,
                                    ValueInterval<int64_t> interval) {
  DCheckRange(static_cast<int64_t>(values.size()), range);
  const int64_t* data = values.data();
  const __m256i vlo = _mm256_set1_epi64x(interval.lo);
  const __m256i vhi = _mm256_set1_epi64x(interval.hi);
  const __m256i ones = _mm256_set1_epi64x(-1);
  __m256i sum = _mm256_setzero_si256();
  __m256i cnt = _mm256_setzero_si256();
  int64_t i = range.begin;
  for (; i + 4 <= range.end; i += 4) {
    const __m256i v = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(data + i));
    const __m256i too_lo = _mm256_cmpgt_epi64(vlo, v);
    const __m256i too_hi = _mm256_cmpgt_epi64(v, vhi);
    const __m256i match =
        _mm256_andnot_si256(_mm256_or_si256(too_lo, too_hi), ones);
    sum = _mm256_add_epi64(sum, _mm256_and_si256(match, v));
    cnt = _mm256_sub_epi64(cnt, match);
  }
  int64_t total = HSum64(sum);
  int64_t count = HSum64(cnt);
  for (; i < range.end; ++i) {
    const int64_t v = data[i];
    const bool match = v >= interval.lo && v <= interval.hi;
    total += match ? v : 0;
    count += match ? 1 : 0;
  }
  SumCount<int64_t> out;
  out.sum = static_cast<double>(total);
  out.count = count;
  return out;
}

SumCount<float> SumMatchesCounted(std::span<const float> values,
                                  RowRange range,
                                  ValueInterval<float> interval) {
  DCheckRange(static_cast<int64_t>(values.size()), range);
  const float* data = values.data();
  // Striped contract, W = 4: element i feeds double accumulator lane
  // (i - begin) % 4; misses add +0.0 (a no-op on the accumulator bits,
  // see the file comment); final reduce (l0 + l1) + (l2 + l3).
  const __m128 vlo = _mm_set1_ps(interval.lo);
  const __m128 vhi = _mm_set1_ps(interval.hi);
  __m256d acc = _mm256_setzero_pd();
  int64_t count = 0;
  int64_t i = range.begin;
  for (; i + 4 <= range.end; i += 4) {
    const __m128 v = _mm_loadu_ps(data + i);
    const __m128 ge = _mm_cmp_ps(v, vlo, _CMP_GE_OQ);
    const __m128 le = _mm_cmp_ps(v, vhi, _CMP_LE_OQ);
    const __m128 m = _mm_and_ps(ge, le);
    count += std::popcount(static_cast<uint32_t>(_mm_movemask_ps(m)) & 0xfu);
    acc = _mm256_add_pd(acc, _mm256_cvtps_pd(_mm_and_ps(m, v)));
  }
  ADASKIP_PIN_YMM(acc);
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  for (; i < range.end; ++i) {
    const float v = data[i];
    const bool match = v >= interval.lo && v <= interval.hi;
    lanes[(i - range.begin) & 3] += match ? static_cast<double>(v) : 0.0;
    count += match ? 1 : 0;
  }
  SumCount<float> out;
  out.sum = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  out.count = count;
  return out;
}

SumCount<double> SumMatchesCounted(std::span<const double> values,
                                   RowRange range,
                                   ValueInterval<double> interval) {
  DCheckRange(static_cast<int64_t>(values.size()), range);
  const double* data = values.data();
  const __m256d vlo = _mm256_set1_pd(interval.lo);
  const __m256d vhi = _mm256_set1_pd(interval.hi);
  __m256d acc = _mm256_setzero_pd();
  int64_t count = 0;
  int64_t i = range.begin;
  for (; i + 4 <= range.end; i += 4) {
    const __m256d v = _mm256_loadu_pd(data + i);
    const __m256d ge = _mm256_cmp_pd(v, vlo, _CMP_GE_OQ);
    const __m256d le = _mm256_cmp_pd(v, vhi, _CMP_LE_OQ);
    const __m256d m = _mm256_and_pd(ge, le);
    count +=
        std::popcount(static_cast<uint32_t>(_mm256_movemask_pd(m)) & 0xfu);
    acc = _mm256_add_pd(acc, _mm256_and_pd(m, v));
  }
  ADASKIP_PIN_YMM(acc);
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  for (; i < range.end; ++i) {
    const double v = data[i];
    const bool match = v >= interval.lo && v <= interval.hi;
    lanes[(i - range.begin) & 3] += match ? v : 0.0;
    count += match ? 1 : 0;
  }
  SumCount<double> out;
  out.sum = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  out.count = count;
  return out;
}

// ===========================================================================
// MinMaxMatchesCounted
// ===========================================================================

MinMaxCount<int32_t> MinMaxMatchesCounted(std::span<const int32_t> values,
                                          RowRange range,
                                          ValueInterval<int32_t> interval) {
  DCheckRange(static_cast<int64_t>(values.size()), range);
  const int32_t* data = values.data();
  const __m256i vlo = _mm256_set1_epi32(interval.lo);
  const __m256i vhi = _mm256_set1_epi32(interval.hi);
  const __m256i id_min = _mm256_set1_epi32(std::numeric_limits<int32_t>::max());
  const __m256i id_max =
      _mm256_set1_epi32(std::numeric_limits<int32_t>::lowest());
  __m256i vmin = id_min;
  __m256i vmax = id_max;
  int64_t count = 0;
  int64_t i = range.begin;
  for (; i + 8 <= range.end; i += 8) {
    const __m256i v = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(data + i));
    const __m256i too_lo = _mm256_cmpgt_epi32(vlo, v);
    const __m256i too_hi = _mm256_cmpgt_epi32(v, vhi);
    const __m256i miss = _mm256_or_si256(too_lo, too_hi);
    const uint32_t miss_mask = static_cast<uint32_t>(
        _mm256_movemask_ps(_mm256_castsi256_ps(miss)));
    count += std::popcount(~miss_mask & 0xffu);
    // blendv selects the identity on misses so min/max folds ignore them.
    vmin = _mm256_min_epi32(vmin, _mm256_blendv_epi8(v, id_min, miss));
    vmax = _mm256_max_epi32(vmax, _mm256_blendv_epi8(v, id_max, miss));
  }
  ADASKIP_PIN_YMM(vmin);
  ADASKIP_PIN_YMM(vmax);
  alignas(32) int32_t mins[8];
  alignas(32) int32_t maxs[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(mins), vmin);
  _mm256_store_si256(reinterpret_cast<__m256i*>(maxs), vmax);
  MinMaxCount<int32_t> out;
  for (int k = 0; k < 8; ++k) {
    out.min = mins[k] < out.min ? mins[k] : out.min;
    out.max = maxs[k] > out.max ? maxs[k] : out.max;
  }
  for (; i < range.end; ++i) {
    const int32_t v = data[i];
    const bool match = v >= interval.lo && v <= interval.hi;
    const int32_t cmin = match ? v : std::numeric_limits<int32_t>::max();
    const int32_t cmax = match ? v : std::numeric_limits<int32_t>::lowest();
    out.min = cmin < out.min ? cmin : out.min;
    out.max = cmax > out.max ? cmax : out.max;
    count += match ? 1 : 0;
  }
  out.count = count;
  return out;
}

MinMaxCount<int64_t> MinMaxMatchesCounted(std::span<const int64_t> values,
                                          RowRange range,
                                          ValueInterval<int64_t> interval) {
  DCheckRange(static_cast<int64_t>(values.size()), range);
  const int64_t* data = values.data();
  const __m256i vlo = _mm256_set1_epi64x(interval.lo);
  const __m256i vhi = _mm256_set1_epi64x(interval.hi);
  const __m256i id_min =
      _mm256_set1_epi64x(std::numeric_limits<int64_t>::max());
  const __m256i id_max =
      _mm256_set1_epi64x(std::numeric_limits<int64_t>::lowest());
  __m256i vmin = id_min;
  __m256i vmax = id_max;
  int64_t count = 0;
  int64_t i = range.begin;
  for (; i + 4 <= range.end; i += 4) {
    const __m256i v = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(data + i));
    const __m256i too_lo = _mm256_cmpgt_epi64(vlo, v);
    const __m256i too_hi = _mm256_cmpgt_epi64(v, vhi);
    const __m256i miss = _mm256_or_si256(too_lo, too_hi);
    const uint32_t miss_mask = static_cast<uint32_t>(
        _mm256_movemask_pd(_mm256_castsi256_pd(miss)));
    count += std::popcount(~miss_mask & 0xfu);
    // AVX2 has no min/max_epi64: emulate with cmpgt + blendv.
    const __m256i cmin = _mm256_blendv_epi8(v, id_min, miss);
    const __m256i cmax = _mm256_blendv_epi8(v, id_max, miss);
    vmin = _mm256_blendv_epi8(vmin, cmin, _mm256_cmpgt_epi64(vmin, cmin));
    vmax = _mm256_blendv_epi8(vmax, cmax, _mm256_cmpgt_epi64(cmax, vmax));
  }
  ADASKIP_PIN_YMM(vmin);
  ADASKIP_PIN_YMM(vmax);
  alignas(32) int64_t mins[4];
  alignas(32) int64_t maxs[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(mins), vmin);
  _mm256_store_si256(reinterpret_cast<__m256i*>(maxs), vmax);
  MinMaxCount<int64_t> out;
  for (int k = 0; k < 4; ++k) {
    out.min = mins[k] < out.min ? mins[k] : out.min;
    out.max = maxs[k] > out.max ? maxs[k] : out.max;
  }
  for (; i < range.end; ++i) {
    const int64_t v = data[i];
    const bool match = v >= interval.lo && v <= interval.hi;
    const int64_t cmin = match ? v : std::numeric_limits<int64_t>::max();
    const int64_t cmax = match ? v : std::numeric_limits<int64_t>::lowest();
    out.min = cmin < out.min ? cmin : out.min;
    out.max = cmax > out.max ? cmax : out.max;
    count += match ? 1 : 0;
  }
  out.count = count;
  return out;
}

MinMaxCount<float> MinMaxMatchesCounted(std::span<const float> values,
                                        RowRange range,
                                        ValueInterval<float> interval) {
  DCheckRange(static_cast<int64_t>(values.size()), range);
  const float* data = values.data();
  // Striped contract, W = 8. NaN never matches (ordered compares), so
  // every fold operand is non-NaN and _CMP_LT_OQ / _CMP_GT_OQ replicate
  // the scalar `c < acc ? c : acc` ternary exactly (including -0.0/+0.0
  // tie behaviour: compares treat them equal, so the accumulator keeps
  // its first-seen zero — same as the scalar striped fallback).
  const __m256 vlo = _mm256_set1_ps(interval.lo);
  const __m256 vhi = _mm256_set1_ps(interval.hi);
  const __m256 id_min = _mm256_set1_ps(std::numeric_limits<float>::max());
  const __m256 id_max = _mm256_set1_ps(std::numeric_limits<float>::lowest());
  __m256 vmin = id_min;
  __m256 vmax = id_max;
  int64_t count = 0;
  int64_t i = range.begin;
  for (; i + 8 <= range.end; i += 8) {
    const __m256 v = _mm256_loadu_ps(data + i);
    const __m256 ge = _mm256_cmp_ps(v, vlo, _CMP_GE_OQ);
    const __m256 le = _mm256_cmp_ps(v, vhi, _CMP_LE_OQ);
    const __m256 m = _mm256_and_ps(ge, le);
    count += std::popcount(static_cast<uint32_t>(_mm256_movemask_ps(m)) &
                           0xffu);
    const __m256 cmin = _mm256_blendv_ps(id_min, v, m);
    const __m256 cmax = _mm256_blendv_ps(id_max, v, m);
    vmin = _mm256_blendv_ps(vmin, cmin, _mm256_cmp_ps(cmin, vmin, _CMP_LT_OQ));
    vmax = _mm256_blendv_ps(vmax, cmax, _mm256_cmp_ps(cmax, vmax, _CMP_GT_OQ));
  }
  ADASKIP_PIN_YMM(vmin);
  ADASKIP_PIN_YMM(vmax);
  alignas(32) float mins[8];
  alignas(32) float maxs[8];
  _mm256_store_ps(mins, vmin);
  _mm256_store_ps(maxs, vmax);
  for (; i < range.end; ++i) {
    const float v = data[i];
    const bool match = v >= interval.lo && v <= interval.hi;
    const float cmin = match ? v : std::numeric_limits<float>::max();
    const float cmax = match ? v : std::numeric_limits<float>::lowest();
    const int64_t k = (i - range.begin) & 7;
    mins[k] = cmin < mins[k] ? cmin : mins[k];
    maxs[k] = cmax > maxs[k] ? cmax : maxs[k];
    count += match ? 1 : 0;
  }
  MinMaxCount<float> out;
  for (int k = 0; k < 8; ++k) {
    out.min = mins[k] < out.min ? mins[k] : out.min;
    out.max = maxs[k] > out.max ? maxs[k] : out.max;
  }
  out.count = count;
  return out;
}

MinMaxCount<double> MinMaxMatchesCounted(std::span<const double> values,
                                         RowRange range,
                                         ValueInterval<double> interval) {
  DCheckRange(static_cast<int64_t>(values.size()), range);
  const double* data = values.data();
  const __m256d vlo = _mm256_set1_pd(interval.lo);
  const __m256d vhi = _mm256_set1_pd(interval.hi);
  const __m256d id_min = _mm256_set1_pd(std::numeric_limits<double>::max());
  const __m256d id_max = _mm256_set1_pd(std::numeric_limits<double>::lowest());
  __m256d vmin = id_min;
  __m256d vmax = id_max;
  int64_t count = 0;
  int64_t i = range.begin;
  for (; i + 4 <= range.end; i += 4) {
    const __m256d v = _mm256_loadu_pd(data + i);
    const __m256d ge = _mm256_cmp_pd(v, vlo, _CMP_GE_OQ);
    const __m256d le = _mm256_cmp_pd(v, vhi, _CMP_LE_OQ);
    const __m256d m = _mm256_and_pd(ge, le);
    count +=
        std::popcount(static_cast<uint32_t>(_mm256_movemask_pd(m)) & 0xfu);
    const __m256d cmin = _mm256_blendv_pd(id_min, v, m);
    const __m256d cmax = _mm256_blendv_pd(id_max, v, m);
    vmin = _mm256_blendv_pd(vmin, cmin, _mm256_cmp_pd(cmin, vmin, _CMP_LT_OQ));
    vmax = _mm256_blendv_pd(vmax, cmax, _mm256_cmp_pd(cmax, vmax, _CMP_GT_OQ));
  }
  ADASKIP_PIN_YMM(vmin);
  ADASKIP_PIN_YMM(vmax);
  alignas(32) double mins[4];
  alignas(32) double maxs[4];
  _mm256_store_pd(mins, vmin);
  _mm256_store_pd(maxs, vmax);
  for (; i < range.end; ++i) {
    const double v = data[i];
    const bool match = v >= interval.lo && v <= interval.hi;
    const double cmin = match ? v : std::numeric_limits<double>::max();
    const double cmax = match ? v : std::numeric_limits<double>::lowest();
    const int64_t k = (i - range.begin) & 3;
    mins[k] = cmin < mins[k] ? cmin : mins[k];
    maxs[k] = cmax > maxs[k] ? cmax : maxs[k];
    count += match ? 1 : 0;
  }
  MinMaxCount<double> out;
  for (int k = 0; k < 4; ++k) {
    out.min = mins[k] < out.min ? mins[k] : out.min;
    out.max = maxs[k] > out.max ? maxs[k] : out.max;
  }
  out.count = count;
  return out;
}

// ===========================================================================
// MaterializeMatches / AndMatchWords
// ===========================================================================

namespace {

template <typename T, typename MaskFn>
int64_t MaterializeImpl(const T* data, RowRange range, ValueInterval<T> interval,
                        SelectionVector* out, int64_t base, int64_t width,
                        MaskFn mask_fn) {
  int64_t appended = 0;
  int64_t i = range.begin;
  for (; i + width <= range.end; i += width) {
    uint32_t mask = mask_fn(data + i);
    while (mask != 0) {
      const int bit = std::countr_zero(mask);
      out->Append(base + i + bit);
      mask &= mask - 1;
      ++appended;
    }
  }
  for (; i < range.end; ++i) {
    const T v = data[i];
    if (v >= interval.lo && v <= interval.hi) {
      out->Append(base + i);
      ++appended;
    }
  }
  return appended;
}

// One 64-row word per step: 64 / width vector compares, each movemask
// shifted into place. The tail word (< 64 rows) is built row by row with
// the scalar predicate, so only in-range rows are read.
template <typename T, typename MaskFn>
WordMatches AndMatchWordsImpl(const T* data, RowRange range,
                              ValueInterval<T> interval, uint64_t* words,
                              int width, MaskFn mask_fn) {
  WordMatches out;
  const T* base = data + range.begin;
  const int64_t n = range.end - range.begin;
  int64_t k = 0;
  for (; (k + 1) * 64 <= n; ++k) {
    const T* p = base + k * 64;
    uint64_t word = 0;
    for (int q = 0; q < 64; q += width) {
      word |= static_cast<uint64_t>(mask_fn(p + q)) << q;
    }
    const uint64_t kept = words[k] & word;
    words[k] = kept;
    out.own += std::popcount(word);
    out.kept += std::popcount(kept);
  }
  if (k * 64 < n) {
    uint64_t word = 0;
    for (int64_t j = k * 64; j < n; ++j) {
      const T v = base[j];
      word |= static_cast<uint64_t>((v >= interval.lo) & (v <= interval.hi))
              << (j - k * 64);
    }
    const uint64_t kept = words[k] & word;
    words[k] = kept;
    out.own += std::popcount(word);
    out.kept += std::popcount(kept);
  }
  return out;
}

}  // namespace

int64_t MaterializeMatches(std::span<const int32_t> values, RowRange range,
                           ValueInterval<int32_t> interval,
                           SelectionVector* out, int64_t base) {
  DCheckRange(static_cast<int64_t>(values.size()), range);
  const __m256i vlo = _mm256_set1_epi32(interval.lo);
  const __m256i vhi = _mm256_set1_epi32(interval.hi);
  return MaterializeImpl(values.data(), range, interval, out, base, 8,
                         [&](const int32_t* p) {
                           const __m256i v = _mm256_loadu_si256(
                               reinterpret_cast<const __m256i*>(p));
                           return MatchMask8(v, vlo, vhi);
                         });
}

int64_t MaterializeMatches(std::span<const int64_t> values, RowRange range,
                           ValueInterval<int64_t> interval,
                           SelectionVector* out, int64_t base) {
  DCheckRange(static_cast<int64_t>(values.size()), range);
  const __m256i vlo = _mm256_set1_epi64x(interval.lo);
  const __m256i vhi = _mm256_set1_epi64x(interval.hi);
  return MaterializeImpl(values.data(), range, interval, out, base, 4,
                         [&](const int64_t* p) {
                           const __m256i v = _mm256_loadu_si256(
                               reinterpret_cast<const __m256i*>(p));
                           return MatchMask4(v, vlo, vhi);
                         });
}

int64_t MaterializeMatches(std::span<const float> values, RowRange range,
                           ValueInterval<float> interval, SelectionVector* out,
                           int64_t base) {
  DCheckRange(static_cast<int64_t>(values.size()), range);
  const __m256 vlo = _mm256_set1_ps(interval.lo);
  const __m256 vhi = _mm256_set1_ps(interval.hi);
  return MaterializeImpl(values.data(), range, interval, out, base, 8,
                         [&](const float* p) {
                           return MatchMaskPs(_mm256_loadu_ps(p), vlo, vhi);
                         });
}

int64_t MaterializeMatches(std::span<const double> values, RowRange range,
                           ValueInterval<double> interval,
                           SelectionVector* out, int64_t base) {
  DCheckRange(static_cast<int64_t>(values.size()), range);
  const __m256d vlo = _mm256_set1_pd(interval.lo);
  const __m256d vhi = _mm256_set1_pd(interval.hi);
  return MaterializeImpl(values.data(), range, interval, out, base, 4,
                         [&](const double* p) {
                           return MatchMaskPd(_mm256_loadu_pd(p), vlo, vhi);
                         });
}

WordMatches AndMatchWords(std::span<const int32_t> values, RowRange range,
                          ValueInterval<int32_t> interval, uint64_t* words) {
  DCheckRange(static_cast<int64_t>(values.size()), range);
  const __m256i vlo = _mm256_set1_epi32(interval.lo);
  const __m256i vhi = _mm256_set1_epi32(interval.hi);
  return AndMatchWordsImpl(values.data(), range, interval, words, 8,
                           [&](const int32_t* p) {
                             const __m256i v = _mm256_loadu_si256(
                                 reinterpret_cast<const __m256i*>(p));
                             return MatchMask8(v, vlo, vhi);
                           });
}

WordMatches AndMatchWords(std::span<const int64_t> values, RowRange range,
                          ValueInterval<int64_t> interval, uint64_t* words) {
  DCheckRange(static_cast<int64_t>(values.size()), range);
  const __m256i vlo = _mm256_set1_epi64x(interval.lo);
  const __m256i vhi = _mm256_set1_epi64x(interval.hi);
  return AndMatchWordsImpl(values.data(), range, interval, words, 4,
                           [&](const int64_t* p) {
                             const __m256i v = _mm256_loadu_si256(
                                 reinterpret_cast<const __m256i*>(p));
                             return MatchMask4(v, vlo, vhi);
                           });
}

WordMatches AndMatchWords(std::span<const float> values, RowRange range,
                          ValueInterval<float> interval, uint64_t* words) {
  DCheckRange(static_cast<int64_t>(values.size()), range);
  const __m256 vlo = _mm256_set1_ps(interval.lo);
  const __m256 vhi = _mm256_set1_ps(interval.hi);
  return AndMatchWordsImpl(values.data(), range, interval, words, 8,
                           [&](const float* p) {
                             return MatchMaskPs(_mm256_loadu_ps(p), vlo, vhi);
                           });
}

WordMatches AndMatchWords(std::span<const double> values, RowRange range,
                          ValueInterval<double> interval, uint64_t* words) {
  DCheckRange(static_cast<int64_t>(values.size()), range);
  const __m256d vlo = _mm256_set1_pd(interval.lo);
  const __m256d vhi = _mm256_set1_pd(interval.hi);
  return AndMatchWordsImpl(values.data(), range, interval, words, 4,
                           [&](const double* p) {
                             return MatchMaskPd(_mm256_loadu_pd(p), vlo, vhi);
                           });
}

// ===========================================================================
// ComputeMinMax
// ===========================================================================

MinMax<int32_t> ComputeMinMax(std::span<const int32_t> values, int64_t begin,
                              int64_t end) {
  ADASKIP_DCHECK(begin >= 0 && begin < end &&
                 end <= static_cast<int64_t>(values.size()));
  const int32_t* data = values.data();
  __m256i vmin = _mm256_set1_epi32(data[begin]);
  __m256i vmax = vmin;
  int64_t i = begin;
  for (; i + 8 <= end; i += 8) {
    const __m256i v = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(data + i));
    vmin = _mm256_min_epi32(vmin, v);
    vmax = _mm256_max_epi32(vmax, v);
  }
  ADASKIP_PIN_YMM(vmin);
  ADASKIP_PIN_YMM(vmax);
  alignas(32) int32_t mins[8];
  alignas(32) int32_t maxs[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(mins), vmin);
  _mm256_store_si256(reinterpret_cast<__m256i*>(maxs), vmax);
  MinMax<int32_t> out{mins[0], maxs[0]};
  for (int k = 1; k < 8; ++k) {
    out.min = mins[k] < out.min ? mins[k] : out.min;
    out.max = maxs[k] > out.max ? maxs[k] : out.max;
  }
  for (; i < end; ++i) {
    const int32_t v = data[i];
    out.min = v < out.min ? v : out.min;
    out.max = v > out.max ? v : out.max;
  }
  return out;
}

MinMax<int64_t> ComputeMinMax(std::span<const int64_t> values, int64_t begin,
                              int64_t end) {
  ADASKIP_DCHECK(begin >= 0 && begin < end &&
                 end <= static_cast<int64_t>(values.size()));
  const int64_t* data = values.data();
  __m256i vmin = _mm256_set1_epi64x(data[begin]);
  __m256i vmax = vmin;
  int64_t i = begin;
  for (; i + 4 <= end; i += 4) {
    const __m256i v = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(data + i));
    vmin = _mm256_blendv_epi8(vmin, v, _mm256_cmpgt_epi64(vmin, v));
    vmax = _mm256_blendv_epi8(vmax, v, _mm256_cmpgt_epi64(v, vmax));
  }
  ADASKIP_PIN_YMM(vmin);
  ADASKIP_PIN_YMM(vmax);
  alignas(32) int64_t mins[4];
  alignas(32) int64_t maxs[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(mins), vmin);
  _mm256_store_si256(reinterpret_cast<__m256i*>(maxs), vmax);
  MinMax<int64_t> out{mins[0], maxs[0]};
  for (int k = 1; k < 4; ++k) {
    out.min = mins[k] < out.min ? mins[k] : out.min;
    out.max = maxs[k] > out.max ? maxs[k] : out.max;
  }
  for (; i < end; ++i) {
    const int64_t v = data[i];
    out.min = v < out.min ? v : out.min;
    out.max = v > out.max ? v : out.max;
  }
  return out;
}

MinMax<float> ComputeMinMax(std::span<const float> values, int64_t begin,
                            int64_t end) {
  ADASKIP_DCHECK(begin >= 0 && begin < end &&
                 end <= static_cast<int64_t>(values.size()));
  const float* data = values.data();
  // Seed all 8 lanes with +inf/-inf; a NaN is dropped by
  // _CMP_LT_OQ/_CMP_GT_OQ in its lane without discarding the lane's other
  // values. Striped fold, ordered lane combine.
  __m256 vmin = _mm256_set1_ps(std::numeric_limits<float>::infinity());
  __m256 vmax = _mm256_set1_ps(-std::numeric_limits<float>::infinity());
  int64_t i = begin;
  for (; i + 8 <= end; i += 8) {
    const __m256 v = _mm256_loadu_ps(data + i);
    vmin = _mm256_blendv_ps(vmin, v, _mm256_cmp_ps(v, vmin, _CMP_LT_OQ));
    vmax = _mm256_blendv_ps(vmax, v, _mm256_cmp_ps(v, vmax, _CMP_GT_OQ));
  }
  ADASKIP_PIN_YMM(vmin);
  ADASKIP_PIN_YMM(vmax);
  alignas(32) float mins[8];
  alignas(32) float maxs[8];
  _mm256_store_ps(mins, vmin);
  _mm256_store_ps(maxs, vmax);
  for (; i < end; ++i) {
    const float v = data[i];
    const int64_t k = (i - begin) & 7;
    mins[k] = v < mins[k] ? v : mins[k];
    maxs[k] = v > maxs[k] ? v : maxs[k];
  }
  MinMax<float> out{mins[0], maxs[0]};
  for (int k = 1; k < 8; ++k) {
    out.min = mins[k] < out.min ? mins[k] : out.min;
    out.max = maxs[k] > out.max ? maxs[k] : out.max;
  }
  return out;
}

MinMax<double> ComputeMinMax(std::span<const double> values, int64_t begin,
                             int64_t end) {
  ADASKIP_DCHECK(begin >= 0 && begin < end &&
                 end <= static_cast<int64_t>(values.size()));
  const double* data = values.data();
  __m256d vmin = _mm256_set1_pd(std::numeric_limits<double>::infinity());
  __m256d vmax = _mm256_set1_pd(-std::numeric_limits<double>::infinity());
  int64_t i = begin;
  for (; i + 4 <= end; i += 4) {
    const __m256d v = _mm256_loadu_pd(data + i);
    vmin = _mm256_blendv_pd(vmin, v, _mm256_cmp_pd(v, vmin, _CMP_LT_OQ));
    vmax = _mm256_blendv_pd(vmax, v, _mm256_cmp_pd(v, vmax, _CMP_GT_OQ));
  }
  ADASKIP_PIN_YMM(vmin);
  ADASKIP_PIN_YMM(vmax);
  alignas(32) double mins[4];
  alignas(32) double maxs[4];
  _mm256_store_pd(mins, vmin);
  _mm256_store_pd(maxs, vmax);
  for (; i < end; ++i) {
    const double v = data[i];
    const int64_t k = (i - begin) & 3;
    mins[k] = v < mins[k] ? v : mins[k];
    maxs[k] = v > maxs[k] ? v : maxs[k];
  }
  MinMax<double> out{mins[0], maxs[0]};
  for (int k = 1; k < 4; ++k) {
    out.min = mins[k] < out.min ? mins[k] : out.min;
    out.max = maxs[k] > out.max ? maxs[k] : out.max;
  }
  return out;
}

// ===========================================================================
// Packed-code kernels
// ===========================================================================

int64_t CountCodesU8(const uint8_t* codes, int64_t n, uint8_t code_lo,
                     uint8_t code_hi) {
  // Unsigned range test without unsigned compares:
  // in_range(v) == (max(v, lo) == v) && (min(v, hi) == v).
  const __m256i vlo = _mm256_set1_epi8(static_cast<char>(code_lo));
  const __m256i vhi = _mm256_set1_epi8(static_cast<char>(code_hi));
  int64_t count = 0;
  int64_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i v = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(codes + i));
    const __m256i ge = _mm256_cmpeq_epi8(_mm256_max_epu8(v, vlo), v);
    const __m256i le = _mm256_cmpeq_epi8(_mm256_min_epu8(v, vhi), v);
    const uint32_t mask = static_cast<uint32_t>(
        _mm256_movemask_epi8(_mm256_and_si256(ge, le)));
    count += std::popcount(mask);
  }
  for (; i < n; ++i) {
    const uint8_t v = codes[i];
    count += static_cast<int64_t>(v >= code_lo) &
             static_cast<int64_t>(v <= code_hi);
  }
  return count;
}

int64_t CountCodesU16(const uint16_t* codes, int64_t n, uint16_t code_lo,
                      uint16_t code_hi) {
  const __m256i vlo = _mm256_set1_epi16(static_cast<short>(code_lo));
  const __m256i vhi = _mm256_set1_epi16(static_cast<short>(code_hi));
  int64_t count = 0;
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256i v = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(codes + i));
    const __m256i ge = _mm256_cmpeq_epi16(_mm256_max_epu16(v, vlo), v);
    const __m256i le = _mm256_cmpeq_epi16(_mm256_min_epu16(v, vhi), v);
    const uint32_t mask = static_cast<uint32_t>(
        _mm256_movemask_epi8(_mm256_and_si256(ge, le)));
    // Each 16-bit lane contributes two mask bits.
    count += std::popcount(mask) / 2;
  }
  for (; i < n; ++i) {
    const uint16_t v = codes[i];
    count += static_cast<int64_t>(v >= code_lo) &
             static_cast<int64_t>(v <= code_hi);
  }
  return count;
}

}  // namespace avx2
}  // namespace simd
}  // namespace adaskip

#endif  // ADASKIP_HAVE_AVX2
