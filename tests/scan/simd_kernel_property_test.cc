// Property tests pinning the SIMD dispatch bit-identity contract
// (scan/simd/kernel_dispatch.h): for random values, ranges, and
// predicate intervals — including empty ranges, full-range intervals,
// point (lo == hi) intervals, and NaN-bearing float columns — the
// dispatch-scalar table, the AVX2 table (when the host has one), and the
// packed-segment kernels all agree bit for bit, and agree with the
// reference kernels wherever the contract says "exact". That covers the
// conjunction words kernel too, over ranges whose first word starts off
// a 64-row boundary and whose last word is partial.

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "adaskip/scan/scan_kernel.h"
#include "adaskip/scan/simd/kernel_dispatch.h"
#include "adaskip/scan/packed_kernels.h"

namespace adaskip {
namespace {

// Bitwise equality: the contract is "bit for bit", so -0.0 != +0.0 and
// NaN payloads must match too.
template <typename T>
bool BitEq(T a, T b) {
  if constexpr (std::is_integral_v<T>) {
    return a == b;
  } else if constexpr (sizeof(T) == 4) {
    return std::bit_cast<uint32_t>(a) == std::bit_cast<uint32_t>(b);
  } else {
    return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
  }
}

bool BitEqD(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

template <typename T>
std::vector<T> RandomValues(std::mt19937_64* rng, int64_t n, bool narrow,
                            bool with_nan) {
  std::vector<T> values(static_cast<size_t>(n));
  if constexpr (std::is_integral_v<T>) {
    const int64_t magnitude = narrow ? 500 : (int64_t{1} << 30);
    std::uniform_int_distribution<int64_t> dist(-magnitude, magnitude);
    for (T& v : values) v = static_cast<T>(dist(*rng));
  } else {
    std::uniform_real_distribution<double> dist(narrow ? -1.0 : -1e6,
                                                narrow ? 1.0 : 1e6);
    std::uniform_int_distribution<int> special(0, 31);
    for (T& v : values) {
      const int s = special(*rng);
      if (with_nan && s == 0) {
        v = std::numeric_limits<T>::quiet_NaN();
      } else if (s == 1) {
        v = static_cast<T>(-0.0);
      } else if (s == 2) {
        v = static_cast<T>(0.0);
      } else {
        v = static_cast<T>(dist(*rng));
      }
    }
  }
  return values;
}

template <typename T>
ValueInterval<T> RandomInterval(std::mt19937_64* rng,
                                const std::vector<T>& values) {
  std::uniform_int_distribution<int> kind(0, 4);
  switch (kind(*rng)) {
    case 0:  // Full range: everything (except NaN) matches.
      return {std::numeric_limits<T>::lowest(),
              std::numeric_limits<T>::max()};
    case 1: {  // Point interval on an existing value when possible.
      if (!values.empty()) {
        std::uniform_int_distribution<size_t> at(0, values.size() - 1);
        const T v = values[at(*rng)];
        if (!(v != v)) return {v, v};  // Skip NaN pivots.
      }
      return {T{0}, T{0}};
    }
    case 2:  // Empty value interval (lo > hi): nothing matches.
      return {T{1}, T{0}};
    default: {  // Random band around two sampled values.
      if (values.empty()) return {T{0}, T{1}};
      std::uniform_int_distribution<size_t> at(0, values.size() - 1);
      T a = values[at(*rng)];
      T b = values[at(*rng)];
      if (a != a) a = T{0};  // NaN bounds never match anything;
      if (b != b) b = T{1};  // keep bounds ordered and comparable.
      if (b < a) std::swap(a, b);
      return {a, b};
    }
  }
}

// Runs every kernel of `ops` against every kernel of `want` over one
// (values, range, interval) sample and asserts bitwise agreement.
template <typename T>
void CheckTablesAgree(const simd::KernelOps<T>& want,
                      const simd::KernelOps<T>& got, std::span<const T> values,
                      RowRange range, ValueInterval<T> interval) {
  const int64_t n = static_cast<int64_t>(values.size());
  SCOPED_TRACE(testing::Message()
               << "n=" << n << " range=[" << range.begin << "," << range.end
               << ") interval=[" << interval.lo << "," << interval.hi << "]");

  ASSERT_EQ(want.count_matches(values, range, interval),
            got.count_matches(values, range, interval));

  const SumCount<T> sw = want.sum_matches_counted(values, range, interval);
  const SumCount<T> sg = got.sum_matches_counted(values, range, interval);
  ASSERT_EQ(sw.count, sg.count);
  ASSERT_TRUE(BitEqD(sw.sum, sg.sum))
      << "sum " << sw.sum << " vs " << sg.sum;

  const MinMaxCount<T> mw =
      want.min_max_matches_counted(values, range, interval);
  const MinMaxCount<T> mg = got.min_max_matches_counted(values, range,
                                                        interval);
  ASSERT_EQ(mw.count, mg.count);
  ASSERT_TRUE(BitEq(mw.min, mg.min)) << mw.min << " vs " << mg.min;
  ASSERT_TRUE(BitEq(mw.max, mg.max)) << mw.max << " vs " << mg.max;

  SelectionVector rows_want, rows_got;
  ASSERT_EQ(want.materialize_matches(values, range, interval, &rows_want, 7),
            got.materialize_matches(values, range, interval, &rows_got, 7));
  ASSERT_EQ(rows_want.size(), rows_got.size());
  for (int64_t i = 0; i < rows_want.size(); ++i) {
    ASSERT_EQ(rows_want[i], rows_got[i]) << "at " << i;
  }

  // Words kernel: seeded with one shared pseudo-random pattern so the AND
  // (not just the store) is compared; the range's begin sits anywhere in
  // the span, so word 0 starts off a 64-row boundary and the last word is
  // usually partial.
  const int64_t num_words = MatchWordsFor(range.size());
  std::vector<uint64_t> words_want(static_cast<size_t>(num_words));
  for (int64_t k = 0; k < num_words; ++k) {
    words_want[static_cast<size_t>(k)] =
        (k % 3 == 0) ? ~uint64_t{0} : 0x9e3779b97f4a7c15ULL * (k + 1);
  }
  std::vector<uint64_t> words_got = words_want;
  std::vector<uint64_t> words_ref = words_want;
  const WordMatches ww =
      want.and_match_words(values, range, interval, words_want.data());
  const WordMatches wg =
      got.and_match_words(values, range, interval, words_got.data());
  ASSERT_EQ(ww.own, wg.own);
  ASSERT_EQ(ww.kept, wg.kept);
  ASSERT_EQ(words_want, words_got);
  // ... and both equal the naive per-row definition.
  int64_t own_ref = 0;
  int64_t kept_ref = 0;
  for (int64_t j = 0; j < range.size(); ++j) {
    uint64_t& word = words_ref[static_cast<size_t>(j / 64)];
    const uint64_t bit = uint64_t{1} << (j % 64);
    const bool match = interval.Contains(values[range.begin + j]);
    own_ref += match ? 1 : 0;
    if (!match) word &= ~bit;
    kept_ref += (word & bit) != 0 ? 1 : 0;
  }
  if (range.size() % 64 != 0) {  // Bits past the range are cleared.
    words_ref.back() &= (uint64_t{1} << (range.size() % 64)) - 1;
  }
  ASSERT_EQ(wg.own, own_ref);
  ASSERT_EQ(wg.kept, kept_ref);
  ASSERT_EQ(words_got, words_ref);

  if (range.begin < range.end) {
    const MinMax<T> cw = want.compute_min_max(values, range.begin, range.end);
    const MinMax<T> cg = got.compute_min_max(values, range.begin, range.end);
    ASSERT_TRUE(BitEq(cw.min, cg.min)) << cw.min << " vs " << cg.min;
    ASSERT_TRUE(BitEq(cw.max, cg.max)) << cw.max << " vs " << cg.max;
  }

  // The exact kernels also agree with the naive reference loop.
  ASSERT_EQ(got.count_matches(values, range, interval),
            reference::CountMatches(values, range, interval));
  SelectionVector rows_ref = reference::MaterializeMatches(values, range,
                                                           interval);
  ASSERT_EQ(rows_got.size(), rows_ref.size());
  for (int64_t i = 0; i < rows_ref.size(); ++i) {
    ASSERT_EQ(rows_got[i], rows_ref[i] + 7);
  }
}

template <typename T>
void SweepType(uint64_t seed, bool with_nan) {
  const simd::KernelOps<T>& scalar = simd::ScalarOps<T>();
  const simd::KernelOps<T>* avx2 = simd::Avx2OpsOrNull<T>();
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int64_t> size_dist(0, 2500);
  for (int iter = 0; iter < 120; ++iter) {
    const int64_t n = iter == 0 ? 0 : size_dist(rng);
    const std::vector<T> values =
        RandomValues<T>(&rng, n, /*narrow=*/(iter % 3) == 0, with_nan);
    std::uniform_int_distribution<int64_t> pos(0, n);
    int64_t begin = pos(rng);
    int64_t end = pos(rng);
    if (end < begin) std::swap(begin, end);
    if (iter % 5 == 0) begin = end;  // Empty row ranges too.
    if (iter % 7 == 0) {
      begin = 0;
      end = n;
    }
    const RowRange range{begin, end};
    const ValueInterval<T> interval = RandomInterval<T>(&rng, values);
    // Scalar vs itself pins determinism; scalar vs AVX2 pins the
    // bit-identity contract on hosts that have AVX2.
    CheckTablesAgree<T>(scalar, scalar, values, range, interval);
    if (avx2 != nullptr) {
      CheckTablesAgree<T>(scalar, *avx2, values, range, interval);
    }
  }
}

TEST(SimdKernelPropertyTest, Int32ScalarAvx2Agree) {
  SweepType<int32_t>(0x5eed0001, /*with_nan=*/false);
}

TEST(SimdKernelPropertyTest, Int64ScalarAvx2Agree) {
  SweepType<int64_t>(0x5eed0002, /*with_nan=*/false);
}

TEST(SimdKernelPropertyTest, FloatScalarAvx2Agree) {
  SweepType<float>(0x5eed0003, /*with_nan=*/false);
}

TEST(SimdKernelPropertyTest, DoubleScalarAvx2Agree) {
  SweepType<double>(0x5eed0004, /*with_nan=*/false);
}

TEST(SimdKernelPropertyTest, FloatWithNaNsScalarAvx2Agree) {
  SweepType<float>(0x5eed0005, /*with_nan=*/true);
}

TEST(SimdKernelPropertyTest, DoubleWithNaNsScalarAvx2Agree) {
  SweepType<double>(0x5eed0006, /*with_nan=*/true);
}

// The dispatched table (whatever the process resolved to) must be one of
// the two tables the tests above compare.
TEST(SimdKernelPropertyTest, ActivePathIsCoherent) {
  const simd::KernelPath path = simd::ActiveKernelPath();
  if (path == simd::KernelPath::kAvx2) {
    EXPECT_NE(simd::Avx2OpsOrNull<int32_t>(), nullptr);
    EXPECT_TRUE(simd::UsingAvx2());
    EXPECT_EQ(simd::ActiveKernelPathName(), "avx2");
  } else {
    EXPECT_FALSE(simd::UsingAvx2());
  }
}

// Packed-segment kernels vs the dispatched raw kernels: bit-identical
// over the same rows for every width {1, 2, 4, 8, 16}.
template <typename T>
void SweepPacked(uint64_t seed) {
  std::mt19937_64 rng(seed);
  for (const int target_bits : {1, 2, 4, 8, 16}) {
    for (int iter = 0; iter < 30; ++iter) {
      std::uniform_int_distribution<int64_t> size_dist(1, 1500);
      const int64_t n = size_dist(rng);
      std::uniform_int_distribution<int64_t> base_dist(-1000000, 1000000);
      const int64_t base = base_dist(rng);
      const uint64_t code_max = (uint64_t{1} << target_bits) - 1;
      std::uniform_int_distribution<uint64_t> code_dist(0, code_max);
      std::vector<T> values(static_cast<size_t>(n));
      for (T& v : values) {
        v = static_cast<T>(base + static_cast<int64_t>(code_dist(rng)));
      }
      const SegmentPackPlan<T> plan = PlanSegmentPack<T>(values);
      ASSERT_TRUE(plan.value_range_ok);
      ASSERT_LE(plan.bits, target_bits);
      const PackedSegment<T> packed =
          PackSegment<T>(values, plan.base, plan.bits);
      // Every value survives the round trip.
      for (int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(packed.ValueAt(i), values[static_cast<size_t>(i)]);
      }
      std::uniform_int_distribution<int64_t> pos(0, n);
      int64_t begin = pos(rng);
      int64_t end = pos(rng);
      if (end < begin) std::swap(begin, end);
      const RowRange range{begin, end};
      const ValueInterval<T> interval = RandomInterval<T>(&rng, values);
      SCOPED_TRACE(testing::Message()
                   << "bits=" << plan.bits << " base=" << base << " n=" << n
                   << " range=[" << begin << "," << end << ") interval=["
                   << interval.lo << "," << interval.hi << "]");

      ASSERT_EQ(PackedCountMatches(packed, range, interval),
                simd::CountMatches<T>(values, range, interval));

      const SumCount<T> sp = PackedSumMatchesCounted(packed, range, interval);
      const SumCount<T> sr = simd::SumMatchesCounted<T>(values, range,
                                                        interval);
      ASSERT_EQ(sp.count, sr.count);
      ASSERT_TRUE(BitEqD(sp.sum, sr.sum)) << sp.sum << " vs " << sr.sum;

      const MinMaxCount<T> mp =
          PackedMinMaxMatchesCounted(packed, range, interval);
      const MinMaxCount<T> mr =
          simd::MinMaxMatchesCounted<T>(values, range, interval);
      ASSERT_EQ(mp.count, mr.count);
      ASSERT_EQ(mp.min, mr.min);
      ASSERT_EQ(mp.max, mr.max);

      SelectionVector rows_packed, rows_raw;
      ASSERT_EQ(PackedMaterializeMatches(packed, range, interval,
                                         &rows_packed, /*base_row=*/0),
                simd::MaterializeMatches<T>(values, range, interval,
                                            &rows_raw, /*base=*/0));
      ASSERT_EQ(rows_packed.size(), rows_raw.size());
      for (int64_t i = 0; i < rows_packed.size(); ++i) {
        ASSERT_EQ(rows_packed[i], rows_raw[i]);
      }

      std::vector<uint64_t> words_packed(
          static_cast<size_t>(MatchWordsFor(range.size())), ~uint64_t{0});
      std::vector<uint64_t> words_raw = words_packed;
      const WordMatches wp =
          PackedAndMatchWords(packed, range, interval, words_packed.data());
      const WordMatches wr =
          simd::AndMatchWords<T>(values, range, interval, words_raw.data());
      ASSERT_EQ(wp.own, wr.own);
      ASSERT_EQ(wp.kept, wr.kept);
      ASSERT_EQ(words_packed, words_raw);
    }
  }
}

TEST(SimdKernelPropertyTest, PackedInt32AgreesWithRaw) {
  SweepPacked<int32_t>(0x9acc0001);
}

TEST(SimdKernelPropertyTest, PackedInt64AgreesWithRaw) {
  SweepPacked<int64_t>(0x9acc0002);
}

TEST(SimdKernelPropertyTest, PackedBitsForRangeRoundsUpToWidths) {
  EXPECT_EQ(PackedBitsForRange(0), 1);
  EXPECT_EQ(PackedBitsForRange(1), 1);
  EXPECT_EQ(PackedBitsForRange(2), 2);
  EXPECT_EQ(PackedBitsForRange(3), 2);
  EXPECT_EQ(PackedBitsForRange(4), 4);
  EXPECT_EQ(PackedBitsForRange(15), 4);
  EXPECT_EQ(PackedBitsForRange(16), 8);
  EXPECT_EQ(PackedBitsForRange(255), 8);
  EXPECT_EQ(PackedBitsForRange(256), 16);
  EXPECT_EQ(PackedBitsForRange(65535), 16);
  EXPECT_EQ(PackedBitsForRange(65536), 0);  // Too wide to pack.
  EXPECT_EQ(BitsRequiredForRange(0), 1);
  EXPECT_EQ(BitsRequiredForRange(1), 1);
  EXPECT_EQ(BitsRequiredForRange(2), 2);
  EXPECT_EQ(BitsRequiredForRange(65535), 16);
  EXPECT_EQ(BitsRequiredForRange(65536), 17);
}

}  // namespace
}  // namespace adaskip
