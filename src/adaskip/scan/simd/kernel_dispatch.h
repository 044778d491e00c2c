#ifndef ADASKIP_SCAN_SIMD_KERNEL_DISPATCH_H_
#define ADASKIP_SCAN_SIMD_KERNEL_DISPATCH_H_

#include <cstdint>
#include <span>
#include <string_view>

#include "adaskip/scan/scan_kernel.h"

/// Runtime kernel dispatch: one-time CPUID-style resolution to a
/// function-pointer table per element type. Call sites use the inline
/// wrappers below (simd::CountMatches etc.), which have exactly the same
/// signatures and — by contract — exactly the same results, bit for bit,
/// as the scalar kernels in scan/scan_kernel.h they shadow.
///
/// Resolution order (decided once per process, lock-free):
///   1. ADASKIP_FORCE_SCALAR env var set to anything but "" / "0"
///      -> scalar-forced (the testing override; both CI legs use it).
///   2. Compiled with AVX2 support and the CPU reports AVX2 -> avx2.
///   3. Otherwise -> scalar.
///
/// Bit-identity contract: the "scalar" tables here are NOT always the
/// legacy sequential kernels. For float/double SumMatchesCounted,
/// MinMaxMatchesCounted, and ComputeMinMax, the dispatched contract is a
/// pinned *striped* fold (element i -> lane (i - begin) % W, fixed-order
/// lane combine; W = 4 for sums and double min/max, 8 for float min/max),
/// and the scalar fallback implements that exact striping so forcing
/// scalar never changes a query result. For every other kernel/type the
/// scalar table points at the legacy kernels unchanged. The striped fold
/// can differ from the legacy sequential fold only in the sign of a zero
/// (min/max over mixed ±0.0) or not at all (sums; see simd_avx2.cc).
/// tests/scan/simd_kernel_property_test.cc pins all of this.

namespace adaskip {
namespace simd {

enum class KernelPath {
  kScalar = 0,
  kAvx2 = 1,
  kScalarForced = 2,
};

/// Per-type kernel table. All pointers are always non-null.
template <typename T>
struct KernelOps {
  int64_t (*count_matches)(std::span<const T>, RowRange, ValueInterval<T>);
  SumCount<T> (*sum_matches_counted)(std::span<const T>, RowRange,
                                     ValueInterval<T>);
  MinMaxCount<T> (*min_max_matches_counted)(std::span<const T>, RowRange,
                                            ValueInterval<T>);
  int64_t (*materialize_matches)(std::span<const T>, RowRange,
                                 ValueInterval<T>, SelectionVector*, int64_t);
  WordMatches (*and_match_words)(std::span<const T>, RowRange,
                                 ValueInterval<T>, uint64_t*);
  MinMax<T> (*compute_min_max)(std::span<const T>, int64_t, int64_t);
};

/// The active table for T (int32_t/int64_t/float/double only; linking
/// against any other type fails). First call resolves the path.
template <typename T>
const KernelOps<T>& Ops();

/// The dispatch-scalar table (striped fallbacks included) regardless of
/// the active path. Exposed so tests can compare paths in one process.
template <typename T>
const KernelOps<T>& ScalarOps();

/// The AVX2 table, or nullptr when the build or the CPU lacks AVX2.
/// Ignores ADASKIP_FORCE_SCALAR — test access only.
template <typename T>
const KernelOps<T>* Avx2OpsOrNull();

KernelPath ActiveKernelPath();
/// "avx2", "scalar", or "scalar-forced" — surfaced in traces/telemetry.
std::string_view ActiveKernelPathName();
bool UsingAvx2();

/// Re-resolves the dispatch path, overriding the environment. Tests use
/// this to run both paths in one process (e.g. the FORCE_SCALAR e2e
/// equivalence test). Not for production code: flipping the path while
/// scans run is benign for correctness (both tables honour the same
/// contract) but makes kernel_path telemetry incoherent.
void ReinitDispatchForTest(bool force_scalar);

/// Dispatch wrappers. Same signatures (and defaults) as the scalar
/// kernels in scan/scan_kernel.h.

template <typename T>
inline int64_t CountMatches(std::span<const T> values, RowRange range,
                            ValueInterval<T> interval) {
  return Ops<T>().count_matches(values, range, interval);
}

template <typename T>
inline SumCount<T> SumMatchesCounted(std::span<const T> values, RowRange range,
                                     ValueInterval<T> interval) {
  return Ops<T>().sum_matches_counted(values, range, interval);
}

template <typename T>
inline MinMaxCount<T> MinMaxMatchesCounted(std::span<const T> values,
                                           RowRange range,
                                           ValueInterval<T> interval) {
  return Ops<T>().min_max_matches_counted(values, range, interval);
}

template <typename T>
inline int64_t MaterializeMatches(std::span<const T> values, RowRange range,
                                  ValueInterval<T> interval,
                                  SelectionVector* out, int64_t base = 0) {
  return Ops<T>().materialize_matches(values, range, interval, out, base);
}

template <typename T>
inline WordMatches AndMatchWords(std::span<const T> values, RowRange range,
                                 ValueInterval<T> interval, uint64_t* words) {
  return Ops<T>().and_match_words(values, range, interval, words);
}

template <typename T>
inline MinMax<T> ComputeMinMax(std::span<const T> values, int64_t begin,
                               int64_t end) {
  return Ops<T>().compute_min_max(values, begin, end);
}

/// Dispatch wrappers for the packed-code counting kernels used by
/// storage/segment_layout.cc (8-/16-bit frame-of-reference codes). Exact
/// integer kernels, so scalar and AVX2 agree trivially.
int64_t CountCodesU8(const uint8_t* codes, int64_t n, uint8_t code_lo,
                     uint8_t code_hi);
int64_t CountCodesU16(const uint16_t* codes, int64_t n, uint16_t code_lo,
                      uint16_t code_hi);

}  // namespace simd
}  // namespace adaskip

#endif  // ADASKIP_SCAN_SIMD_KERNEL_DISPATCH_H_
