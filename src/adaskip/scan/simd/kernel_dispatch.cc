#include "adaskip/scan/simd/kernel_dispatch.h"

#include <atomic>
#include <cstdlib>
#include <limits>
#include <type_traits>

#include "adaskip/scan/simd/simd_kernels.h"
#include "adaskip/util/logging.h"

namespace adaskip {
namespace simd {

namespace {

// ---------------------------------------------------------------------------
// Striped scalar fallbacks for float/double reductions. These implement
// the EXACT fold order of the AVX2 kernels in simd_avx2.cc (element i ->
// lane (i - begin) % W, misses add +0.0 / fold the identity, lanes
// combined in fixed order), so the dispatched result is bit-identical
// whether or not AVX2 is taken. Integer reductions keep the legacy
// sequential kernels: integer min/max/sum folds are order-insensitive
// under the repo's exactness contract.
// ---------------------------------------------------------------------------

template <typename T>
SumCount<T> StripedSumMatchesCounted(std::span<const T> values, RowRange range,
                                     ValueInterval<T> interval) {
  ADASKIP_DCHECK(range.begin >= 0 &&
                 range.end <= static_cast<int64_t>(values.size()));
  const T* __restrict data = values.data();
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  int64_t count = 0;
  for (int64_t i = range.begin; i < range.end; ++i) {
    const T v = data[i];
    const bool match = (v >= interval.lo) & (v <= interval.hi);
    acc[(i - range.begin) & 3] += match ? static_cast<double>(v) : 0.0;
    count += match ? 1 : 0;
  }
  SumCount<T> out;
  out.sum = (acc[0] + acc[1]) + (acc[2] + acc[3]);
  out.count = count;
  return out;
}

template <typename T, int W>
MinMaxCount<T> StripedMinMaxMatchesCounted(std::span<const T> values,
                                           RowRange range,
                                           ValueInterval<T> interval) {
  ADASKIP_DCHECK(range.begin >= 0 &&
                 range.end <= static_cast<int64_t>(values.size()));
  const T* __restrict data = values.data();
  T mins[W];
  T maxs[W];
  for (int k = 0; k < W; ++k) {
    mins[k] = std::numeric_limits<T>::max();
    maxs[k] = std::numeric_limits<T>::lowest();
  }
  int64_t count = 0;
  for (int64_t i = range.begin; i < range.end; ++i) {
    const T v = data[i];
    const bool match = (v >= interval.lo) & (v <= interval.hi);
    const T cmin = match ? v : std::numeric_limits<T>::max();
    const T cmax = match ? v : std::numeric_limits<T>::lowest();
    const int64_t k = (i - range.begin) % W;
    mins[k] = cmin < mins[k] ? cmin : mins[k];
    maxs[k] = cmax > maxs[k] ? cmax : maxs[k];
    count += match ? 1 : 0;
  }
  MinMaxCount<T> out;
  for (int k = 0; k < W; ++k) {
    out.min = mins[k] < out.min ? mins[k] : out.min;
    out.max = maxs[k] > out.max ? maxs[k] : out.max;
  }
  out.count = count;
  return out;
}

template <typename T, int W>
MinMax<T> StripedComputeMinMax(std::span<const T> values, int64_t begin,
                               int64_t end) {
  ADASKIP_DCHECK(begin >= 0 && begin < end &&
                 end <= static_cast<int64_t>(values.size()));
  const T* __restrict data = values.data();
  T mins[W];
  T maxs[W];
  // Infinity seeds (matching the AVX2 kernel): the ordered compares
  // below drop NaN, so no lane ever holds a NaN bound.
  for (int k = 0; k < W; ++k) {
    mins[k] = std::numeric_limits<T>::infinity();
    maxs[k] = -std::numeric_limits<T>::infinity();
  }
  for (int64_t i = begin; i < end; ++i) {
    const T v = data[i];
    const int64_t k = (i - begin) % W;
    mins[k] = v < mins[k] ? v : mins[k];
    maxs[k] = v > maxs[k] ? v : maxs[k];
  }
  MinMax<T> out{mins[0], maxs[0]};
  for (int k = 1; k < W; ++k) {
    out.min = mins[k] < out.min ? mins[k] : out.min;
    out.max = maxs[k] > out.max ? maxs[k] : out.max;
  }
  return out;
}

template <typename T>
constexpr int StripeWidth() {
  return sizeof(T) == 4 ? 8 : 4;
}

template <typename T>
KernelOps<T> MakeScalarOps() {
  KernelOps<T> ops{};
  ops.count_matches = &adaskip::CountMatches<T>;
  ops.materialize_matches = &adaskip::MaterializeMatches<T>;
  ops.and_match_words = &adaskip::AndMatchWords<T>;
  if constexpr (std::is_floating_point_v<T>) {
    ops.sum_matches_counted = &StripedSumMatchesCounted<T>;
    ops.min_max_matches_counted =
        &StripedMinMaxMatchesCounted<T, StripeWidth<T>()>;
    ops.compute_min_max = &StripedComputeMinMax<T, StripeWidth<T>()>;
  } else {
    ops.sum_matches_counted = &adaskip::SumMatchesCounted<T>;
    ops.min_max_matches_counted = &adaskip::MinMaxMatchesCounted<T>;
    ops.compute_min_max = &adaskip::ComputeMinMax<T>;
  }
  return ops;
}

template <typename T>
const KernelOps<T> kScalarTable = MakeScalarOps<T>();

#ifdef ADASKIP_HAVE_AVX2
template <typename T>
KernelOps<T> MakeAvx2Ops() {
  KernelOps<T> ops{};
  ops.count_matches = &avx2::CountMatches;
  ops.sum_matches_counted = &avx2::SumMatchesCounted;
  ops.min_max_matches_counted = &avx2::MinMaxMatchesCounted;
  ops.materialize_matches = &avx2::MaterializeMatches;
  ops.and_match_words = &avx2::AndMatchWords;
  ops.compute_min_max = &avx2::ComputeMinMax;
  return ops;
}

template <typename T>
const KernelOps<T> kAvx2Table = MakeAvx2Ops<T>();
#endif  // ADASKIP_HAVE_AVX2

bool HasAvx2Runtime() {
#if defined(ADASKIP_HAVE_AVX2) && (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

// -1 = unresolved; otherwise a KernelPath value. Lock-free one-time
// resolution: racing first calls may both resolve, but they resolve to
// the same value, so the store order is irrelevant.
std::atomic<int> g_path{-1};

KernelPath ResolvePath() {
  const int cur = g_path.load(std::memory_order_acquire);
  if (cur >= 0) return static_cast<KernelPath>(cur);
  KernelPath path = KernelPath::kScalar;
  const char* force = std::getenv("ADASKIP_FORCE_SCALAR");
  if (force != nullptr && force[0] != '\0' &&
      !(force[0] == '0' && force[1] == '\0')) {
    path = KernelPath::kScalarForced;
  } else if (HasAvx2Runtime()) {
    path = KernelPath::kAvx2;
  }
  g_path.store(static_cast<int>(path), std::memory_order_release);
  return path;
}

}  // namespace

template <typename T>
const KernelOps<T>& Ops() {
#ifdef ADASKIP_HAVE_AVX2
  if (ResolvePath() == KernelPath::kAvx2) return kAvx2Table<T>;
#else
  (void)ResolvePath();
#endif
  return kScalarTable<T>;
}

template <typename T>
const KernelOps<T>& ScalarOps() {
  return kScalarTable<T>;
}

template <typename T>
const KernelOps<T>* Avx2OpsOrNull() {
#ifdef ADASKIP_HAVE_AVX2
  if (HasAvx2Runtime()) return &kAvx2Table<T>;
#endif
  return nullptr;
}

template const KernelOps<int32_t>& Ops<int32_t>();
template const KernelOps<int64_t>& Ops<int64_t>();
template const KernelOps<float>& Ops<float>();
template const KernelOps<double>& Ops<double>();

template const KernelOps<int32_t>& ScalarOps<int32_t>();
template const KernelOps<int64_t>& ScalarOps<int64_t>();
template const KernelOps<float>& ScalarOps<float>();
template const KernelOps<double>& ScalarOps<double>();

template const KernelOps<int32_t>* Avx2OpsOrNull<int32_t>();
template const KernelOps<int64_t>* Avx2OpsOrNull<int64_t>();
template const KernelOps<float>* Avx2OpsOrNull<float>();
template const KernelOps<double>* Avx2OpsOrNull<double>();

KernelPath ActiveKernelPath() { return ResolvePath(); }

std::string_view ActiveKernelPathName() {
  switch (ResolvePath()) {
    case KernelPath::kAvx2:
      return "avx2";
    case KernelPath::kScalarForced:
      return "scalar-forced";
    case KernelPath::kScalar:
      break;
  }
  return "scalar";
}

bool UsingAvx2() { return ResolvePath() == KernelPath::kAvx2; }

void ReinitDispatchForTest(bool force_scalar) {
  KernelPath path = KernelPath::kScalar;
  if (force_scalar) {
    path = KernelPath::kScalarForced;
  } else if (HasAvx2Runtime()) {
    path = KernelPath::kAvx2;
  }
  g_path.store(static_cast<int>(path), std::memory_order_release);
}

int64_t CountCodesU8(const uint8_t* codes, int64_t n, uint8_t code_lo,
                     uint8_t code_hi) {
#ifdef ADASKIP_HAVE_AVX2
  if (ResolvePath() == KernelPath::kAvx2) {
    return avx2::CountCodesU8(codes, n, code_lo, code_hi);
  }
#endif
  int64_t count = 0;
  for (int64_t i = 0; i < n; ++i) {
    const uint8_t v = codes[i];
    count += static_cast<int64_t>(v >= code_lo) &
             static_cast<int64_t>(v <= code_hi);
  }
  return count;
}

int64_t CountCodesU16(const uint16_t* codes, int64_t n, uint16_t code_lo,
                      uint16_t code_hi) {
#ifdef ADASKIP_HAVE_AVX2
  if (ResolvePath() == KernelPath::kAvx2) {
    return avx2::CountCodesU16(codes, n, code_lo, code_hi);
  }
#endif
  int64_t count = 0;
  for (int64_t i = 0; i < n; ++i) {
    const uint16_t v = codes[i];
    count += static_cast<int64_t>(v >= code_lo) &
             static_cast<int64_t>(v <= code_hi);
  }
  return count;
}

}  // namespace simd
}  // namespace adaskip
