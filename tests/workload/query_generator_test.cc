#include "adaskip/workload/query_generator.h"

#include <gtest/gtest.h>

#include "adaskip/scan/scan_kernel.h"
#include "adaskip/workload/data_generator.h"

namespace adaskip {
namespace {

std::vector<int64_t> TestData(DataOrder order) {
  DataGenOptions gen;
  gen.order = order;
  gen.num_rows = 100000;
  gen.value_range = 1000000;
  gen.seed = 5;
  return GenerateData<int64_t>(gen);
}

double MeasuredSelectivity(const std::vector<int64_t>& data,
                           const Predicate& pred) {
  ValueInterval<int64_t> interval = pred.ToInterval<int64_t>();
  int64_t matches = reference::CountMatches(
      std::span<const int64_t>(data), {0, static_cast<int64_t>(data.size())},
      interval);
  return static_cast<double>(matches) / static_cast<double>(data.size());
}

TEST(QueryGeneratorTest, DeterministicInSeed) {
  std::vector<int64_t> data = TestData(DataOrder::kUniform);
  QueryGenOptions options;
  options.seed = 9;
  QueryGenerator<int64_t> a("x", data, options);
  QueryGenerator<int64_t> b("x", data, options);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(a.Next().ToString(), b.Next().ToString());
  }
}

TEST(QueryGeneratorTest, PredicatesTargetTheColumn) {
  std::vector<int64_t> data = TestData(DataOrder::kUniform);
  QueryGenerator<int64_t> gen("price", data, {});
  Predicate pred = gen.Next();
  EXPECT_EQ(pred.column, "price");
  EXPECT_EQ(pred.op, CompareOp::kBetween);
}

// Selectivity must track the target across data distributions — the
// quantile construction is exactly what makes experiments comparable
// across orders.
//
// GoogleTest names each case by dumping the param's bytes, so the struct
// carries explicit padding: implicit padding would put whatever the stack
// held into the test names, and they would change from run to run. Each
// case pins the leading padding bytes to the ones its name has been
// recorded under, so every case keeps a distinct name that no build moves.
struct SelectivityCase {
  SelectivityCase(DataOrder data_order, double target, uint8_t name_byte0,
                  uint8_t name_byte1)
      : order(data_order),
        padding{name_byte0, name_byte1},
        selectivity(target) {}
  DataOrder order;
  uint8_t padding[7];
  double selectivity;
};
static_assert(sizeof(SelectivityCase) == 16);

class QuerySelectivityTest
    : public ::testing::TestWithParam<SelectivityCase> {};

TEST_P(QuerySelectivityTest, MeasuredSelectivityTracksTarget) {
  const SelectivityCase& param = GetParam();
  std::vector<int64_t> data = TestData(param.order);
  QueryGenOptions options;
  options.selectivity = param.selectivity;
  options.seed = 21;
  QueryGenerator<int64_t> gen("x", data, options);
  double total = 0.0;
  const int kQueries = 50;
  for (int i = 0; i < kQueries; ++i) {
    total += MeasuredSelectivity(data, gen.Next());
  }
  double mean = total / kQueries;
  // Within 40% relative (duplicates and sampling shift individual
  // queries; the mean is what matters for workload construction).
  EXPECT_NEAR(mean, param.selectivity, param.selectivity * 0.4)
      << DataOrderToString(param.order);
}

INSTANTIATE_TEST_SUITE_P(
    OrdersAndSelectivities, QuerySelectivityTest,
    ::testing::Values(SelectivityCase(DataOrder::kUniform, 0.01, 0x00, 0x01),
                      SelectivityCase(DataOrder::kUniform, 0.10, 0xFF, 0x48),
                      SelectivityCase(DataOrder::kSorted, 0.01, 0x00, 0x00),
                      SelectivityCase(DataOrder::kClustered, 0.05, 0x00, 0x00),
                      SelectivityCase(DataOrder::kZipf, 0.05, 0x00, 0x01),
                      SelectivityCase(DataOrder::kRandomWalk, 0.02, 0xDA,
                                      0x48)));

TEST(QueryGeneratorTest, SkewedPatternConcentratesQueries) {
  std::vector<int64_t> data = TestData(DataOrder::kUniform);
  QueryGenOptions options;
  options.pattern = QueryPattern::kSkewed;
  options.selectivity = 0.001;
  options.hot_fraction = 0.05;
  options.hot_probability = 0.9;
  options.hot_center = 0.3;
  QueryGenerator<int64_t> gen("x", data, options);
  int64_t hot_lo = gen.QuantileValue(0.3 - 0.05);
  int64_t hot_hi = gen.QuantileValue(0.3 + 0.1);
  int inside = 0;
  const int kQueries = 200;
  for (int i = 0; i < kQueries; ++i) {
    Predicate pred = gen.Next();
    int64_t lo = Predicate::ScalarAs<int64_t>(pred.lower);
    if (lo >= hot_lo && lo <= hot_hi) ++inside;
  }
  EXPECT_GT(inside, kQueries / 2);
}

TEST(QueryGeneratorTest, DriftingPatternMovesTheHotCenter) {
  std::vector<int64_t> data = TestData(DataOrder::kUniform);
  QueryGenOptions options;
  options.pattern = QueryPattern::kDrifting;
  options.hot_center = 0.1;
  options.drift_per_query = 0.002;
  QueryGenerator<int64_t> gen("x", data, options);
  double start = gen.hot_center();
  for (int i = 0; i < 100; ++i) gen.Next();
  EXPECT_NEAR(gen.hot_center(), start + 0.2, 1e-9);
  // Drift wraps around.
  for (int i = 0; i < 400; ++i) gen.Next();
  EXPECT_LE(gen.hot_center(), 1.0);
}

TEST(QueryGeneratorTest, PointPatternEmitsEqualityOnExistingValues) {
  std::vector<int64_t> data = TestData(DataOrder::kZipf);
  QueryGenOptions options;
  options.pattern = QueryPattern::kPoint;
  QueryGenerator<int64_t> gen("x", data, options);
  for (int i = 0; i < 20; ++i) {
    Predicate pred = gen.Next();
    EXPECT_EQ(pred.op, CompareOp::kEqual);
    // The probed value is a sampled data value, so it exists.
    EXPECT_GT(MeasuredSelectivity(data, pred), 0.0);
  }
}

TEST(QueryGeneratorTest, QuantileValueIsMonotone) {
  std::vector<int64_t> data = TestData(DataOrder::kUniform);
  QueryGenerator<int64_t> gen("x", data, {});
  int64_t prev = gen.QuantileValue(0.0);
  for (double q = 0.1; q <= 1.0; q += 0.1) {
    int64_t v = gen.QuantileValue(q);
    EXPECT_GE(v, prev);
    prev = v;
  }
  EXPECT_GT(gen.QuantileValue(1.0), gen.QuantileValue(0.0));
}

TEST(QueryPatternTest, Names) {
  EXPECT_EQ(QueryPatternToString(QueryPattern::kUniform), "uniform");
  EXPECT_EQ(QueryPatternToString(QueryPattern::kSkewed), "skewed");
  EXPECT_EQ(QueryPatternToString(QueryPattern::kDrifting), "drifting");
  EXPECT_EQ(QueryPatternToString(QueryPattern::kPoint), "point");
}

}  // namespace
}  // namespace adaskip
