#include "adaskip/skipping/column_imprints.h"

#include <gtest/gtest.h>

#include "adaskip/util/rng.h"
#include "adaskip/workload/data_generator.h"
#include "tests/testing/skip_test_util.h"

namespace adaskip {
namespace {

TEST(ImprintsTest, NameAndBlockCount) {
  TypedColumn<int64_t> column(GenerateData<int64_t>(
      {.order = DataOrder::kUniform, .num_rows = 1000, .seed = 2}));
  ColumnImprintsT<int64_t> imprints(column,
                                    ImprintsOptions{.block_size = 64});
  EXPECT_EQ(imprints.name(), "imprints");
  EXPECT_EQ(imprints.ZoneCount(), (1000 + 63) / 64);
  EXPECT_GT(imprints.MemoryUsageBytes(), 0);
}

TEST(ImprintsTest, BinOfIsMonotone) {
  DataGenOptions gen;
  gen.order = DataOrder::kUniform;
  gen.num_rows = 10000;
  gen.value_range = 1000000;
  TypedColumn<int64_t> column(GenerateData<int64_t>(gen));
  ColumnImprintsT<int64_t> imprints(column, {});
  int64_t prev_bin = 0;
  for (int64_t v = 0; v < 1000000; v += 9973) {
    int64_t bin = imprints.BinOf(v);
    EXPECT_GE(bin, prev_bin);
    EXPECT_LT(bin, imprints.num_bins());
    prev_bin = bin;
  }
}

TEST(ImprintsTest, EquiDepthBinsSpreadUniformData) {
  DataGenOptions gen;
  gen.order = DataOrder::kUniform;
  gen.num_rows = 100000;
  gen.value_range = 1 << 30;
  TypedColumn<int64_t> column(GenerateData<int64_t>(gen));
  ColumnImprintsT<int64_t> imprints(column, {});
  // With 64 equi-depth bins over uniform data, min and max values must be
  // in (near-)opposite bins.
  EXPECT_EQ(imprints.BinOf(0), 0);
  EXPECT_GE(imprints.BinOf((1 << 30) - 1), imprints.num_bins() - 2);
}

TEST(ImprintsTest, SortedDataNarrowQuerySkipsMostBlocks) {
  DataGenOptions gen;
  gen.order = DataOrder::kSorted;
  gen.num_rows = 1 << 16;
  gen.value_range = 1 << 20;
  TypedColumn<int64_t> column(GenerateData<int64_t>(gen));
  ColumnImprintsT<int64_t> imprints(column, {});
  Predicate pred = Predicate::Between<int64_t>("x", 1000, 3000);
  std::vector<RowRange> candidates;
  ProbeStats stats;
  imprints.Probe(pred, &candidates, &stats);
  EXPECT_GT(stats.zones_skipped, stats.zones_candidate * 10);
}

TEST(ImprintsTest, EmptyColumnProbeIsEmpty) {
  TypedColumn<int64_t> column(std::vector<int64_t>{});
  ColumnImprintsT<int64_t> imprints(column, {});
  std::vector<RowRange> candidates;
  ProbeStats stats;
  imprints.Probe(Predicate::Between<int64_t>("x", 0, 1), &candidates,
                 &stats);
  EXPECT_TRUE(candidates.empty());
}

TEST(ImprintsTest, FactoryDispatches) {
  std::unique_ptr<Column> column = MakeColumn<double>({0.5, 1.5, 2.5});
  std::unique_ptr<SkipIndex> index = MakeColumnImprints(*column, {});
  EXPECT_EQ(index->name(), "imprints");
  EXPECT_EQ(index->num_rows(), 3);
}

// GoogleTest names each case by dumping the param's bytes, so the struct
// carries explicit zeroed padding: implicit padding would put whatever the
// stack held into the test names.
struct ImprintsCase {
  ImprintsCase(DataOrder data_order, int64_t block_rows, int64_t bins)
      : order(data_order), block_size(block_rows), num_bins(bins) {}
  DataOrder order;
  uint8_t padding[7] = {};
  int64_t block_size;
  int64_t num_bins;
};
static_assert(sizeof(ImprintsCase) == 24);

class ImprintsPropertyTest : public ::testing::TestWithParam<ImprintsCase> {};

TEST_P(ImprintsPropertyTest, ProbeNeverMissesQualifyingRows) {
  const ImprintsCase& param = GetParam();
  DataGenOptions gen;
  gen.order = param.order;
  gen.num_rows = 20000;
  gen.value_range = 50000;
  gen.seed = 77;
  TypedColumn<int64_t> column(GenerateData<int64_t>(gen));
  ColumnImprintsT<int64_t> imprints(
      column, ImprintsOptions{.block_size = param.block_size,
                              .num_bins = param.num_bins});
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    int64_t lo = rng.NextInt64(50000);
    int64_t hi = lo + rng.NextInt64(3000);
    Predicate pred = Predicate::Between<int64_t>("x", lo, hi);
    testing_util::ProbeAndCheckSuperset<int64_t>(&imprints, pred,
                                                 column.data());
  }
  // Point predicates too.
  for (int trial = 0; trial < 10; ++trial) {
    int64_t v = column.Get(rng.NextInt64(column.size()));
    Predicate pred = Predicate::Equal<int64_t>("x", v);
    testing_util::ProbeAndCheckSuperset<int64_t>(&imprints, pred,
                                                 column.data());
  }
}

INSTANTIATE_TEST_SUITE_P(
    OrdersAndShapes, ImprintsPropertyTest,
    ::testing::Values(ImprintsCase{DataOrder::kSorted, 64, 64},
                      ImprintsCase{DataOrder::kUniform, 64, 64},
                      ImprintsCase{DataOrder::kClustered, 64, 64},
                      ImprintsCase{DataOrder::kZipf, 64, 64},
                      ImprintsCase{DataOrder::kUniform, 256, 16},
                      ImprintsCase{DataOrder::kKSorted, 128, 32},
                      ImprintsCase{DataOrder::kRandomWalk, 64, 8}));

}  // namespace
}  // namespace adaskip
