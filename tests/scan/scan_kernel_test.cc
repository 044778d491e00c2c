#include "adaskip/scan/scan_kernel.h"

#include <gtest/gtest.h>

#include "adaskip/util/rng.h"

namespace adaskip {
namespace {

template <typename T>
std::vector<T> RandomValues(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<T> values;
  values.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    values.push_back(static_cast<T>(rng.NextInt64(1000)) -
                     static_cast<T>(500));
  }
  return values;
}

template <typename T>
class ScanKernelTypedTest : public ::testing::Test {};

using ColumnTypes = ::testing::Types<int32_t, int64_t, float, double>;
TYPED_TEST_SUITE(ScanKernelTypedTest, ColumnTypes);

TYPED_TEST(ScanKernelTypedTest, CountMatchesReference) {
  using T = TypeParam;
  std::vector<T> values = RandomValues<T>(2000, 1);
  std::span<const T> span(values);
  Rng rng(2);
  for (int trial = 0; trial < 30; ++trial) {
    T lo = static_cast<T>(rng.NextInt64InRange(-600, 600));
    T hi = static_cast<T>(rng.NextInt64InRange(-600, 600));
    if (hi < lo) std::swap(lo, hi);
    int64_t a = rng.NextInt64(2001);
    int64_t b = rng.NextInt64(2001);
    if (a > b) std::swap(a, b);
    RowRange range{a, b};
    ValueInterval<T> interval{lo, hi};
    EXPECT_EQ(CountMatches(span, range, interval),
              reference::CountMatches(span, range, interval));
  }
}

TYPED_TEST(ScanKernelTypedTest, SumMatchesReference) {
  using T = TypeParam;
  std::vector<T> values = RandomValues<T>(2000, 3);
  std::span<const T> span(values);
  Rng rng(4);
  for (int trial = 0; trial < 30; ++trial) {
    T lo = static_cast<T>(rng.NextInt64InRange(-600, 0));
    T hi = static_cast<T>(rng.NextInt64InRange(0, 600));
    RowRange range{0, 2000};
    ValueInterval<T> interval{lo, hi};
    EXPECT_DOUBLE_EQ(SumMatches(span, range, interval),
                     reference::SumMatches(span, range, interval));
  }
}

TYPED_TEST(ScanKernelTypedTest, SumCountedAgreesWithSeparateKernels) {
  using T = TypeParam;
  std::vector<T> values = RandomValues<T>(1500, 5);
  std::span<const T> span(values);
  ValueInterval<T> interval{static_cast<T>(-100), static_cast<T>(100)};
  RowRange range{100, 1400};
  SumCount<T> sc = SumMatchesCounted(span, range, interval);
  EXPECT_EQ(sc.count, CountMatches(span, range, interval));
  EXPECT_DOUBLE_EQ(sc.sum, SumMatches(span, range, interval));
}

TYPED_TEST(ScanKernelTypedTest, MaterializeMatchesReference) {
  using T = TypeParam;
  std::vector<T> values = RandomValues<T>(1000, 6);
  std::span<const T> span(values);
  ValueInterval<T> interval{static_cast<T>(0), static_cast<T>(250)};
  RowRange range{10, 990};
  SelectionVector actual;
  int64_t appended = MaterializeMatches(span, range, interval, &actual);
  SelectionVector expected =
      reference::MaterializeMatches(span, range, interval);
  EXPECT_EQ(actual, expected);
  EXPECT_EQ(appended, expected.size());
}

TYPED_TEST(ScanKernelTypedTest, BitmapMatchesAgreesWithMaterialize) {
  using T = TypeParam;
  std::vector<T> values = RandomValues<T>(700, 7);
  std::span<const T> span(values);
  ValueInterval<T> interval{static_cast<T>(-50), static_cast<T>(50)};
  // Off a 64-row boundary on both ends: the last word is partial.
  RowRange range{5, 690};
  std::vector<uint64_t> words(MatchWordsFor(range.size()), ~uint64_t{0});
  const WordMatches wm = AndMatchWords(span, range, interval, words.data());
  SelectionVector rows = reference::MaterializeMatches(span, range, interval);
  EXPECT_EQ(wm.own, rows.size());
  EXPECT_EQ(wm.kept, rows.size());
  SelectionVector from_words;
  for (int64_t j = 0; j < range.size(); ++j) {
    if ((words[j / 64] >> (j % 64)) & 1) from_words.Append(range.begin + j);
  }
  EXPECT_EQ(from_words, rows);
  // ANDing the same predicate again keeps every bit; a disjoint interval
  // clears them all, while its own count still counts its own matches.
  EXPECT_EQ(AndMatchWords(span, range, interval, words.data()).kept,
            rows.size());
  const ValueInterval<T> above{static_cast<T>(51),
                               std::numeric_limits<T>::max()};
  const WordMatches none = AndMatchWords(span, range, above, words.data());
  EXPECT_EQ(none.kept, 0);
  EXPECT_EQ(none.own, reference::CountMatches(span, range, above));
}

TYPED_TEST(ScanKernelTypedTest, MinMaxMatchesFindsExtremes) {
  using T = TypeParam;
  std::vector<T> values = RandomValues<T>(500, 8);
  std::span<const T> span(values);
  ValueInterval<T> interval{static_cast<T>(-200), static_cast<T>(200)};
  RowRange range{0, 500};
  bool found = false;
  MinMax<T> mm = MinMaxMatches(span, range, interval, &found);
  MinMaxCount<T> mmc = MinMaxMatchesCounted(span, range, interval);
  ASSERT_TRUE(found);
  EXPECT_EQ(mm.min, mmc.min);
  EXPECT_EQ(mm.max, mmc.max);
  // Cross-check against brute force.
  T expected_min = std::numeric_limits<T>::max();
  T expected_max = std::numeric_limits<T>::lowest();
  int64_t expected_count = 0;
  for (T v : values) {
    if (interval.Contains(v)) {
      expected_min = std::min(expected_min, v);
      expected_max = std::max(expected_max, v);
      ++expected_count;
    }
  }
  EXPECT_EQ(mm.min, expected_min);
  EXPECT_EQ(mm.max, expected_max);
  EXPECT_EQ(mmc.count, expected_count);
}

TYPED_TEST(ScanKernelTypedTest, MinMaxMatchesEmptyResult) {
  using T = TypeParam;
  std::vector<T> values = {static_cast<T>(1), static_cast<T>(2)};
  bool found = true;
  MinMaxMatches(std::span<const T>(values), {0, 2},
                ValueInterval<T>{static_cast<T>(10), static_cast<T>(20)},
                &found);
  EXPECT_FALSE(found);
}

TYPED_TEST(ScanKernelTypedTest, ComputeMinMaxExact) {
  using T = TypeParam;
  std::vector<T> values = RandomValues<T>(300, 9);
  std::span<const T> span(values);
  MinMax<T> mm = ComputeMinMax(span, 50, 250);
  T expected_min = values[50];
  T expected_max = values[50];
  for (int64_t i = 50; i < 250; ++i) {
    expected_min = std::min(expected_min, values[static_cast<size_t>(i)]);
    expected_max = std::max(expected_max, values[static_cast<size_t>(i)]);
  }
  EXPECT_EQ(mm.min, expected_min);
  EXPECT_EQ(mm.max, expected_max);
}

TYPED_TEST(ScanKernelTypedTest, FindMatchBoundsLocatesRun) {
  using T = TypeParam;
  // Values: 0..99; matches at positions with value in [40, 60].
  std::vector<T> values;
  for (int i = 0; i < 100; ++i) values.push_back(static_cast<T>(i));
  std::span<const T> span(values);
  ValueInterval<T> interval{static_cast<T>(40), static_cast<T>(60)};
  RowRange bounds = FindMatchBounds(span, {0, 100}, interval);
  EXPECT_EQ(bounds.begin, 40);
  EXPECT_EQ(bounds.end, 61);
}

TYPED_TEST(ScanKernelTypedTest, FindMatchBoundsNoMatch) {
  using T = TypeParam;
  std::vector<T> values = {static_cast<T>(1), static_cast<T>(2)};
  RowRange bounds =
      FindMatchBounds(std::span<const T>(values), {0, 2},
                      ValueInterval<T>{static_cast<T>(5), static_cast<T>(9)});
  EXPECT_EQ(bounds.begin, -1);
  EXPECT_EQ(bounds.end, -1);
}

TYPED_TEST(ScanKernelTypedTest, FindMatchBoundsSingleMatch) {
  using T = TypeParam;
  std::vector<T> values = {static_cast<T>(1), static_cast<T>(5),
                           static_cast<T>(2)};
  RowRange bounds =
      FindMatchBounds(std::span<const T>(values), {0, 3},
                      ValueInterval<T>{static_cast<T>(5), static_cast<T>(5)});
  EXPECT_EQ(bounds.begin, 1);
  EXPECT_EQ(bounds.end, 2);
}

TYPED_TEST(ScanKernelTypedTest, BoundarySplitScanSegments) {
  using T = TypeParam;
  std::vector<T> values = RandomValues<T>(512, 21);
  std::span<const T> span(values);
  ValueInterval<T> interval{static_cast<T>(-100), static_cast<T>(100)};
  RowRange range{32, 480};
  BoundaryScan<T> scan = BoundarySplitScan(span, range, interval);
  RowRange expected_bounds = FindMatchBounds(span, range, interval);
  ASSERT_EQ(scan.match_bounds, expected_bounds);
  ASSERT_GE(expected_bounds.begin, 0);
  if (expected_bounds.begin > range.begin) {
    EXPECT_EQ(scan.prefix,
              ComputeMinMax(span, range.begin, expected_bounds.begin));
  }
  EXPECT_EQ(scan.run,
            ComputeMinMax(span, expected_bounds.begin, expected_bounds.end));
  if (expected_bounds.end < range.end) {
    EXPECT_EQ(scan.suffix,
              ComputeMinMax(span, expected_bounds.end, range.end));
  }
}

TYPED_TEST(ScanKernelTypedTest, BoundarySplitScanNoMatch) {
  using T = TypeParam;
  std::vector<T> values = {static_cast<T>(1), static_cast<T>(9),
                           static_cast<T>(4)};
  BoundaryScan<T> scan = BoundarySplitScan(
      std::span<const T>(values), {0, 3},
      ValueInterval<T>{static_cast<T>(50), static_cast<T>(60)});
  EXPECT_EQ(scan.match_bounds, (RowRange{-1, -1}));
  // Prefix covers the whole range when nothing matches.
  EXPECT_EQ(scan.prefix, (MinMax<T>{static_cast<T>(1), static_cast<T>(9)}));
}

TYPED_TEST(ScanKernelTypedTest, BoundarySplitScanAllMatch) {
  using T = TypeParam;
  std::vector<T> values = {static_cast<T>(5), static_cast<T>(6),
                           static_cast<T>(7)};
  BoundaryScan<T> scan = BoundarySplitScan(
      std::span<const T>(values), {0, 3},
      ValueInterval<T>{static_cast<T>(0), static_cast<T>(100)});
  EXPECT_EQ(scan.match_bounds, (RowRange{0, 3}));
  EXPECT_EQ(scan.run, (MinMax<T>{static_cast<T>(5), static_cast<T>(7)}));
}

TEST(ScanKernelTest, EmptyRangeYieldsNothing) {
  std::vector<int64_t> values = {1, 2, 3};
  std::span<const int64_t> span(values);
  ValueInterval<int64_t> interval{0, 10};
  EXPECT_EQ(CountMatches(span, {1, 1}, interval), 0);
  EXPECT_EQ(SumMatches(span, {2, 2}, interval), 0.0);
  SelectionVector sel;
  EXPECT_EQ(MaterializeMatches(span, {0, 0}, interval, &sel), 0);
  EXPECT_TRUE(sel.empty());
}

TEST(ScanKernelTest, EmptyIntervalMatchesNothing) {
  std::vector<int64_t> values = {1, 2, 3, 4};
  std::span<const int64_t> span(values);
  ValueInterval<int64_t> interval{10, 5};  // lo > hi.
  EXPECT_EQ(CountMatches(span, {0, 4}, interval), 0);
}

TEST(ScanKernelTest, BoundaryInclusivity) {
  std::vector<int64_t> values = {9, 10, 11, 19, 20, 21};
  std::span<const int64_t> span(values);
  EXPECT_EQ(CountMatches(span, {0, 6}, ValueInterval<int64_t>{10, 20}), 4);
}

// Selectivity sweep: count kernel must agree with the reference at every
// selectivity, including 0% and 100%.
class KernelSelectivityTest : public ::testing::TestWithParam<int> {};

TEST_P(KernelSelectivityTest, CountAcrossSelectivities) {
  const int percent = GetParam();
  std::vector<int64_t> values;
  for (int64_t i = 0; i < 10000; ++i) values.push_back(i % 100);
  std::span<const int64_t> span(values);
  ValueInterval<int64_t> interval{0, percent - 1};
  int64_t count = CountMatches(span, {0, 10000}, interval);
  EXPECT_EQ(count, percent * 100);
}

INSTANTIATE_TEST_SUITE_P(Selectivities, KernelSelectivityTest,
                         ::testing::Values(0, 1, 5, 25, 50, 75, 99, 100));

}  // namespace
}  // namespace adaskip
