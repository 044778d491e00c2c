#include "inputs.h"

#include <gtest/gtest.h>

namespace skipbench {
namespace {

TEST(InputsTest, SameSeedSameColumn) {
  EXPECT_EQ(RandomWalkColumn(1000, 4, 1e-4, 7),
            RandomWalkColumn(1000, 4, 1e-4, 7));
  EXPECT_NE(UniformColumn(1000, 7), UniformColumn(1000, 8));
}

TEST(InputsTest, TallyWindowsCountsInclusiveBoundsAndAccumulates) {
  const std::vector<int64_t> v = {5, 1, 9, 5, 3};
  const std::vector<Window> w = {{1, 5}, {5, 5}, {6, 8}};
  std::vector<Tally> t;
  TallyWindows(v, 0, 3, w, &t);
  EXPECT_EQ(t[0].count, 2);
  EXPECT_EQ(t[0].sum, 6);
  TallyWindows(v, 3, 5, w, &t);
  EXPECT_EQ(t[0].count, 4);
  EXPECT_EQ(t[0].sum, 14);
  EXPECT_EQ(t[1].count, 2);
  EXPECT_EQ(t[2].count, 0);
}

TEST(InputsTest, ConjunctionRequiresBothTerms) {
  const std::vector<int64_t> a = {1, 2, 3, 4};
  const std::vector<int64_t> b = {10, 20, 30, 40};
  const Tally t = TallyConjunction(a, b, {2, 4}, {0, 30});
  EXPECT_EQ(t.count, 2);
  EXPECT_EQ(t.sum, 5);
}

TEST(InputsTest, QuantileWindowsHoldTheirShareOfRows) {
  const std::vector<int64_t> v = UniformColumn(100000, 3);
  const std::vector<Window> w = QuantileWindows(v, 16, 0.01);
  std::vector<Tally> t;
  TallyWindows(v, 0, v.size(), w, &t);
  for (const Tally& x : t) {
    EXPECT_NEAR(static_cast<double>(x.count), 1000.0, 30.0);
  }
}

}  // namespace
}  // namespace skipbench
