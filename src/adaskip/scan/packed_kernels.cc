#include "adaskip/scan/packed_kernels.h"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "adaskip/scan/simd/kernel_dispatch.h"
#include "adaskip/util/logging.h"

namespace adaskip {

namespace {

/// Predicate interval translated into code space. When `empty` is false,
/// lo/hi are clamped into [0, code_max]; lo > hi is still possible (an
/// empty value interval inside the segment's range) and falls out of the
/// code comparisons naturally.
struct CodeInterval {
  uint64_t lo = 0;
  uint64_t hi = 0;
  bool empty = false;
};

template <typename T>
CodeInterval TranslateInterval(const PackedSegment<T>& seg,
                               ValueInterval<T> interval) {
  const uint64_t code_max = seg.CodeMask();
  // All clamp arithmetic is 64-bit: for T=int32 a segment based near
  // INT32_MAX (e.g. all-INT32_MAX, which packs at bits=1) would wrap
  // `base + code_max` in 32-bit arithmetic. int64 holds every reachable
  // value exactly — |base| <= 2^31 for int32, <= kMaxPackedMagnitude
  // (2^40) for int64 via the eligibility guard, and code_max <= 2^16.
  const int64_t base = static_cast<int64_t>(seg.base);
  const int64_t top = base + static_cast<int64_t>(code_max);
  const int64_t lo = static_cast<int64_t>(interval.lo);
  const int64_t hi = static_cast<int64_t>(interval.hi);
  // Compare before subtracting: interval bounds can sit anywhere in T's
  // domain; clamping first keeps both subtractions inside [0, code_max].
  if (hi < base || lo > top) return {0, 0, true};
  CodeInterval out;
  out.lo = lo <= base ? 0 : static_cast<uint64_t>(lo - base);
  out.hi = hi >= top ? code_max : static_cast<uint64_t>(hi - base);
  return out;
}

template <typename T>
void DCheckLocalRange(const PackedSegment<T>& seg, RowRange range) {
  ADASKIP_DCHECK(range.begin >= 0 && range.end <= seg.rows);
}

}  // namespace

template <typename T>
SegmentPackPlan<T> PlanSegmentPack(std::span<const T> values) {
  SegmentPackPlan<T> plan;
  if (values.empty()) return plan;
  const MinMax<T> mm = simd::ComputeMinMax(
      values, 0, static_cast<int64_t>(values.size()));
  const int64_t min_v = static_cast<int64_t>(mm.min);
  const int64_t max_v = static_cast<int64_t>(mm.max);
  plan.magnitude_ok =
      min_v >= -kMaxPackedMagnitude && max_v <= kMaxPackedMagnitude;
  // Unsigned subtraction: an int64 column spanning most of the domain
  // would overflow max_v - min_v in signed arithmetic; the true range
  // always fits uint64.
  const uint64_t range =
      static_cast<uint64_t>(max_v) - static_cast<uint64_t>(min_v);
  plan.bits_required = BitsRequiredForRange(range);
  plan.base = mm.min;
  plan.bits = PackedBitsForRange(range);
  plan.value_range_ok = plan.magnitude_ok && plan.bits != 0;
  return plan;
}

template <typename T>
int64_t PackedCountMatches(const PackedSegment<T>& seg, RowRange range,
                           ValueInterval<T> interval) {
  DCheckLocalRange(seg, range);
  const CodeInterval ci = TranslateInterval(seg, interval);
  if (ci.empty || range.begin >= range.end) return 0;
  const int64_t n = range.end - range.begin;
  if (seg.bits == 8) {
    const uint8_t* codes =
        reinterpret_cast<const uint8_t*>(seg.words.data()) + range.begin;
    const uint8_t lo = static_cast<uint8_t>(ci.lo);
    const uint8_t hi = static_cast<uint8_t>(ci.hi);
    return simd::CountCodesU8(codes, n, lo, hi);
  }
  if (seg.bits == 16) {
    const uint16_t* codes =
        reinterpret_cast<const uint16_t*>(seg.words.data()) + range.begin;
    const uint16_t lo = static_cast<uint16_t>(ci.lo);
    const uint16_t hi = static_cast<uint16_t>(ci.hi);
    return simd::CountCodesU16(codes, n, lo, hi);
  }
  int64_t count = 0;
  for (int64_t i = range.begin; i < range.end; ++i) {
    const uint64_t c = seg.CodeAt(i);
    count += static_cast<int64_t>(c >= ci.lo) &
             static_cast<int64_t>(c <= ci.hi);
  }
  return count;
}

template <typename T>
SumCount<T> PackedSumMatchesCounted(const PackedSegment<T>& seg,
                                    RowRange range,
                                    ValueInterval<T> interval) {
  DCheckLocalRange(seg, range);
  SumCount<T> out;
  const CodeInterval ci = TranslateInterval(seg, interval);
  if (ci.empty) return out;
  int64_t count = 0;
  uint64_t code_sum = 0;
  for (int64_t i = range.begin; i < range.end; ++i) {
    const uint64_t c = seg.CodeAt(i);
    const bool match = (c >= ci.lo) & (c <= ci.hi);
    count += match ? 1 : 0;
    code_sum += match ? c : 0;
  }
  // Exact in int64: |base| <= 2^40, count <= segment rows, and
  // code_sum <= 2^16 * rows (the magnitude guard's reason to exist).
  const int64_t total = static_cast<int64_t>(seg.base) * count +
                        static_cast<int64_t>(code_sum);
  out.sum = static_cast<double>(total);
  out.count = count;
  return out;
}

template <typename T>
MinMaxCount<T> PackedMinMaxMatchesCounted(const PackedSegment<T>& seg,
                                          RowRange range,
                                          ValueInterval<T> interval) {
  DCheckLocalRange(seg, range);
  MinMaxCount<T> out;
  const CodeInterval ci = TranslateInterval(seg, interval);
  if (ci.empty) return out;
  uint64_t code_min = std::numeric_limits<uint64_t>::max();
  uint64_t code_max = 0;
  int64_t count = 0;
  for (int64_t i = range.begin; i < range.end; ++i) {
    const uint64_t c = seg.CodeAt(i);
    const bool match = (c >= ci.lo) & (c <= ci.hi);
    const uint64_t cmin = match ? c : std::numeric_limits<uint64_t>::max();
    const uint64_t cmax = match ? c : 0;
    code_min = cmin < code_min ? cmin : code_min;
    code_max = cmax > code_max ? cmax : code_max;
    count += match ? 1 : 0;
  }
  if (count > 0) {
    out.min = static_cast<T>(seg.base + static_cast<T>(code_min));
    out.max = static_cast<T>(seg.base + static_cast<T>(code_max));
  }
  out.count = count;
  return out;
}

template <typename T>
int64_t PackedMaterializeMatches(const PackedSegment<T>& seg, RowRange range,
                                 ValueInterval<T> interval,
                                 SelectionVector* out, int64_t base_row) {
  DCheckLocalRange(seg, range);
  const CodeInterval ci = TranslateInterval(seg, interval);
  if (ci.empty) return 0;
  int64_t appended = 0;
  for (int64_t i = range.begin; i < range.end; ++i) {
    const uint64_t c = seg.CodeAt(i);
    if ((c >= ci.lo) & (c <= ci.hi)) {
      out->Append(base_row + i);
      ++appended;
    }
  }
  return appended;
}

template <typename T>
WordMatches PackedAndMatchWords(const PackedSegment<T>& seg, RowRange range,
                                ValueInterval<T> interval, uint64_t* words) {
  DCheckLocalRange(seg, range);
  const CodeInterval ci = TranslateInterval(seg, interval);
  const int64_t n = range.size();
  if (ci.empty) {
    std::fill_n(words, MatchWordsFor(n), uint64_t{0});
    return {};
  }
  // 8- and 16-bit codes are plain arrays; narrower widths unpack.
  if (seg.bits == 8 || seg.bits == 16) {
    const auto and_codes = [&](const auto* codes) {
      return AndMatchWordsWith(n, words, [&](int64_t j) {
        const uint64_t c = codes[j];
        return (c >= ci.lo) & (c <= ci.hi);
      });
    };
    if (seg.bits == 8) {
      return and_codes(reinterpret_cast<const uint8_t*>(seg.words.data()) +
                       range.begin);
    }
    return and_codes(reinterpret_cast<const uint16_t*>(seg.words.data()) +
                     range.begin);
  }
  return AndMatchWordsWith(n, words, [&](int64_t j) {
    const uint64_t c = seg.CodeAt(range.begin + j);
    return (c >= ci.lo) & (c <= ci.hi);
  });
}

#define ADASKIP_INSTANTIATE_PACKED(T)                                         \
  template SegmentPackPlan<T> PlanSegmentPack<T>(std::span<const T>);         \
  template int64_t PackedCountMatches<T>(const PackedSegment<T>&, RowRange,   \
                                         ValueInterval<T>);                   \
  template SumCount<T> PackedSumMatchesCounted<T>(const PackedSegment<T>&,    \
                                                  RowRange,                   \
                                                  ValueInterval<T>);          \
  template MinMaxCount<T> PackedMinMaxMatchesCounted<T>(                      \
      const PackedSegment<T>&, RowRange, ValueInterval<T>);                   \
  template int64_t PackedMaterializeMatches<T>(const PackedSegment<T>&,       \
                                               RowRange, ValueInterval<T>,    \
                                               SelectionVector*, int64_t);   \
  template WordMatches PackedAndMatchWords<T>(const PackedSegment<T>&,        \
                                              RowRange, ValueInterval<T>,     \
                                              uint64_t*)

ADASKIP_INSTANTIATE_PACKED(int32_t);
ADASKIP_INSTANTIATE_PACKED(int64_t);

#undef ADASKIP_INSTANTIATE_PACKED

}  // namespace adaskip
