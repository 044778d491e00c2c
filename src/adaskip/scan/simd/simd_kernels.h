#ifndef ADASKIP_SCAN_SIMD_SIMD_KERNELS_H_
#define ADASKIP_SCAN_SIMD_SIMD_KERNELS_H_

#include <cstdint>
#include <span>

#include "adaskip/scan/scan_kernel.h"

/// Internal declarations of the raw AVX2 kernel entry points, shared by
/// the AVX2 translation unit (scan/simd/simd_avx2.cc — the only file in
/// the tree allowed to touch <immintrin.h>; see the `simd-intrinsics`
/// lint rule) and the dispatch layer (scan/simd/kernel_dispatch.cc).
/// These symbols are defined only when the library is built with
/// ADASKIP_HAVE_AVX2; callers go through simd::Ops<T>() and never name
/// them directly.
///
/// Semantics contract (see DESIGN.md "SIMD kernel layer"):
///  * CountMatches / MaterializeMatches are exact and bit-identical to
///    the scalar kernels in scan/scan_kernel.h.
///  * AndMatchWords (the conjunction kernel) is exact: the same words
///    (bit j of word k is row range.begin + 64k + j; bits past the range
///    cleared), the same own/kept popcounts, for any range alignment.
///  * Integer SumMatchesCounted accumulates in 64-bit lanes and converts
///    the exact integer total once; identical to the scalar double
///    accumulator while every prefix sum stays below 2^53 (the documented
///    integer-sum contract).
///  * float/double SumMatchesCounted and MinMaxMatchesCounted, and
///    float/double ComputeMinMax, use the pinned 4-lane (sums, double
///    min/max) / 8-lane (float min/max) striped fold order; the dispatch
///    layer's scalar fallbacks implement the identical order, so results
///    are bit-identical whether or not AVX2 is taken.

namespace adaskip {
namespace simd {
namespace avx2 {

#define ADASKIP_SIMD_DECLARE_AVX2(T)                                         \
  int64_t CountMatches(std::span<const T> values, RowRange range,            \
                       ValueInterval<T> interval);                           \
  SumCount<T> SumMatchesCounted(std::span<const T> values, RowRange range,   \
                                ValueInterval<T> interval);                  \
  MinMaxCount<T> MinMaxMatchesCounted(std::span<const T> values,             \
                                      RowRange range,                        \
                                      ValueInterval<T> interval);            \
  int64_t MaterializeMatches(std::span<const T> values, RowRange range,      \
                             ValueInterval<T> interval, SelectionVector* out,\
                             int64_t base);                                  \
  WordMatches AndMatchWords(std::span<const T> values, RowRange range,      \
                            ValueInterval<T> interval, uint64_t* words);     \
  MinMax<T> ComputeMinMax(std::span<const T> values, int64_t begin,          \
                          int64_t end)

ADASKIP_SIMD_DECLARE_AVX2(int32_t);
ADASKIP_SIMD_DECLARE_AVX2(int64_t);
ADASKIP_SIMD_DECLARE_AVX2(float);
ADASKIP_SIMD_DECLARE_AVX2(double);

#undef ADASKIP_SIMD_DECLARE_AVX2

/// Packed-code kernels over 8-/16-bit frame-of-reference codes (see
/// storage/segment_layout.h). `codes` holds `n` unsigned codes; counts
/// values with code in [code_lo, code_hi].
int64_t CountCodesU8(const uint8_t* codes, int64_t n, uint8_t code_lo,
                     uint8_t code_hi);
int64_t CountCodesU16(const uint16_t* codes, int64_t n, uint16_t code_lo,
                      uint16_t code_hi);

}  // namespace avx2
}  // namespace simd
}  // namespace adaskip

#endif  // ADASKIP_SCAN_SIMD_SIMD_KERNELS_H_
