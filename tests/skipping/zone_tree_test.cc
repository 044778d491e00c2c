#include "adaskip/skipping/zone_tree.h"

#include <gtest/gtest.h>

#include "adaskip/skipping/zone_map.h"
#include "adaskip/util/interval_set.h"
#include "adaskip/util/rng.h"
#include "adaskip/workload/data_generator.h"
#include "tests/testing/skip_test_util.h"

namespace adaskip {
namespace {

TEST(ZoneTreeTest, SmallColumnHasLeavesOnly) {
  TypedColumn<int64_t> column(std::vector<int64_t>{1, 2, 3, 4, 5});
  ZoneTreeT<int64_t> tree(column, ZoneTreeOptions{.zone_size = 2, .fanout = 8});
  EXPECT_EQ(tree.ZoneCount(), 3);
  EXPECT_EQ(tree.LevelCount(), 1);  // 3 leaves fit under one root group.
}

TEST(ZoneTreeTest, BuildsLevelsForManyZones) {
  DataGenOptions gen;
  gen.order = DataOrder::kUniform;
  gen.num_rows = 64 * 64 * 4;  // 1024 zones of 16 rows at fanout 8.
  TypedColumn<int64_t> column(GenerateData<int64_t>(gen));
  ZoneTreeT<int64_t> tree(column, ZoneTreeOptions{.zone_size = 16, .fanout = 8});
  EXPECT_EQ(tree.ZoneCount(), 1024);
  EXPECT_GE(tree.LevelCount(), 3);
  EXPECT_GT(tree.MemoryUsageBytes(), 0);
}

TEST(ZoneTreeTest, SortedDataProbesFewEntries) {
  DataGenOptions gen;
  gen.order = DataOrder::kSorted;
  gen.num_rows = 1 << 17;
  gen.value_range = 1 << 20;
  TypedColumn<int64_t> column(GenerateData<int64_t>(gen));
  ZoneTreeT<int64_t> tree(column,
                          ZoneTreeOptions{.zone_size = 256, .fanout = 8});
  ZoneMapT<int64_t> flat(column, ZoneMapOptions{.zone_size = 256});

  Predicate pred = Predicate::Between<int64_t>("x", 500000, 501000);
  std::vector<RowRange> tree_candidates;
  ProbeStats tree_stats;
  tree.Probe(pred, &tree_candidates, &tree_stats);
  std::vector<RowRange> flat_candidates;
  ProbeStats flat_stats;
  flat.Probe(pred, &flat_candidates, &flat_stats);

  // Hierarchical probing touches far fewer metadata entries than flat
  // probing on selective queries over sorted data.
  EXPECT_LT(tree_stats.entries_read, flat_stats.entries_read / 4);
  // But finds exactly the same rows.
  NormalizeRanges(&tree_candidates);
  NormalizeRanges(&flat_candidates);
  EXPECT_EQ(tree_candidates, flat_candidates);
}

TEST(ZoneTreeTest, SkippedZoneAccountingIsComplete) {
  DataGenOptions gen;
  gen.order = DataOrder::kSorted;
  gen.num_rows = 10000;
  TypedColumn<int64_t> column(GenerateData<int64_t>(gen));
  ZoneTreeT<int64_t> tree(column,
                          ZoneTreeOptions{.zone_size = 100, .fanout = 4});
  Predicate pred = Predicate::Between<int64_t>("x", 0, 1000);
  std::vector<RowRange> candidates;
  ProbeStats stats;
  tree.Probe(pred, &candidates, &stats);
  EXPECT_EQ(stats.zones_candidate + stats.zones_skipped, tree.ZoneCount());
}

// Equivalence with the flat zonemap across data orders and fanouts: the
// tree is an access-path optimization, never a semantic change.
// GoogleTest names each case by dumping the param's bytes, so the struct
// carries explicit zeroed padding: implicit padding would put whatever the
// stack held into the test names.
struct ZoneTreeCase {
  ZoneTreeCase(DataOrder data_order, int64_t tree_fanout)
      : order(data_order), fanout(tree_fanout) {}
  DataOrder order;
  uint8_t padding[7] = {};
  int64_t fanout;
};
static_assert(sizeof(ZoneTreeCase) == 16);

class ZoneTreeEquivalenceTest : public ::testing::TestWithParam<ZoneTreeCase> {
};

TEST_P(ZoneTreeEquivalenceTest, MatchesFlatZoneMap) {
  const ZoneTreeCase& param = GetParam();
  DataGenOptions gen;
  gen.order = param.order;
  gen.num_rows = 30000;
  gen.value_range = 200000;
  gen.seed = 3;
  TypedColumn<int64_t> column(GenerateData<int64_t>(gen));
  ZoneTreeT<int64_t> tree(
      column, ZoneTreeOptions{.zone_size = 128, .fanout = param.fanout});
  ZoneMapT<int64_t> flat(column, ZoneMapOptions{.zone_size = 128});

  Rng rng(11);
  for (int trial = 0; trial < 25; ++trial) {
    int64_t lo = rng.NextInt64(200000);
    int64_t hi = lo + rng.NextInt64(10000);
    Predicate pred = Predicate::Between<int64_t>("x", lo, hi);

    std::vector<RowRange> tree_candidates =
        testing_util::ProbeAndCheckSuperset<int64_t>(&tree, pred,
                                                     column.data());
    std::vector<RowRange> flat_candidates;
    ProbeStats flat_stats;
    flat.Probe(pred, &flat_candidates, &flat_stats);
    NormalizeRanges(&tree_candidates);
    NormalizeRanges(&flat_candidates);
    EXPECT_EQ(tree_candidates, flat_candidates) << pred.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    OrdersAndFanouts, ZoneTreeEquivalenceTest,
    ::testing::Values(ZoneTreeCase{DataOrder::kSorted, 2},
                      ZoneTreeCase{DataOrder::kSorted, 8},
                      ZoneTreeCase{DataOrder::kClustered, 4},
                      ZoneTreeCase{DataOrder::kKSorted, 8},
                      ZoneTreeCase{DataOrder::kUniform, 8},
                      ZoneTreeCase{DataOrder::kRandomWalk, 16},
                      ZoneTreeCase{DataOrder::kSawtooth, 3}));

TEST(ZoneTreeTest, FactoryDispatches) {
  std::unique_ptr<Column> column = MakeColumn<float>({1.0f, 2.0f, 3.0f});
  std::unique_ptr<SkipIndex> index = MakeZoneTree(*column, {});
  EXPECT_EQ(index->name(), "zonetree");
}

}  // namespace
}  // namespace adaskip
