#include "adaskip/skipping/zone_map.h"

#include <gtest/gtest.h>

#include "adaskip/util/rng.h"
#include "adaskip/workload/data_generator.h"
#include "tests/testing/skip_test_util.h"

namespace adaskip {
namespace {

TEST(ZoneLayoutTest, BuildUniformZonesTilesRowSpace) {
  std::vector<int64_t> values(1000);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<int64_t>(i);
  }
  std::vector<Zone<int64_t>> zones =
      BuildUniformZones(std::span<const int64_t>(values), 128);
  EXPECT_EQ(zones.size(), 8u);  // ceil(1000/128)
  EXPECT_TRUE(ZonesTileRowSpace(zones, 1000));
  EXPECT_TRUE(ZoneBoundsAreCorrect(zones, std::span<const int64_t>(values)));
  // Last zone is short.
  EXPECT_EQ(zones.back().end - zones.back().begin, 1000 - 7 * 128);
}

TEST(ZoneLayoutTest, SortedDataHasDisjointZoneBounds) {
  std::vector<int64_t> values(512);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<int64_t>(i * 3);
  }
  auto zones = BuildUniformZones(std::span<const int64_t>(values), 64);
  for (size_t z = 1; z < zones.size(); ++z) {
    EXPECT_GT(zones[z].min, zones[z - 1].max);
  }
}

TEST(ZoneLayoutTest, EmptyColumnYieldsNoZones) {
  std::vector<int64_t> values;
  auto zones = BuildUniformZones(std::span<const int64_t>(values), 64);
  EXPECT_TRUE(zones.empty());
  EXPECT_TRUE(ZonesTileRowSpace(zones, 0));
}

TEST(ZoneLayoutTest, TileDetectsGapOverlapAndMisorder) {
  using Z = Zone<int64_t>;
  EXPECT_TRUE(ZonesTileRowSpace<int64_t>({Z{0, 5, 0, 0}, Z{5, 9, 0, 0}}, 9));
  EXPECT_FALSE(ZonesTileRowSpace<int64_t>({Z{0, 5, 0, 0}, Z{6, 9, 0, 0}}, 9));
  EXPECT_FALSE(ZonesTileRowSpace<int64_t>({Z{0, 5, 0, 0}, Z{4, 9, 0, 0}}, 9));
  EXPECT_FALSE(ZonesTileRowSpace<int64_t>({Z{0, 9, 0, 0}}, 10));
  EXPECT_FALSE(ZonesTileRowSpace<int64_t>({Z{0, 0, 0, 0}}, 0));
}

TEST(ZoneMapTest, NameAndCounts) {
  TypedColumn<int64_t> column(GenerateData<int64_t>(
      {.order = DataOrder::kUniform, .num_rows = 10000, .seed = 1}));
  ZoneMapT<int64_t> map(column, ZoneMapOptions{.zone_size = 1000});
  EXPECT_EQ(map.name(), "zonemap");
  EXPECT_EQ(map.num_rows(), 10000);
  EXPECT_EQ(map.ZoneCount(), 10);
  EXPECT_GT(map.MemoryUsageBytes(), 0);
}

TEST(ZoneMapTest, SortedDataSkipsAlmostEverything) {
  DataGenOptions gen;
  gen.order = DataOrder::kSorted;
  gen.num_rows = 100000;
  gen.value_range = 1000000;
  TypedColumn<int64_t> column(GenerateData<int64_t>(gen));
  ZoneMapT<int64_t> map(column, ZoneMapOptions{.zone_size = 1000});

  Predicate pred = Predicate::Between<int64_t>("x", 500000, 510000);
  std::vector<RowRange> candidates =
      testing_util::ProbeAndCheckSuperset<int64_t>(&map, pred, column.data());
  // ~1% selectivity over sorted data: only a couple of zones qualify.
  EXPECT_LE(testing_util::CandidateRows(candidates), 5000);
}

TEST(ZoneMapTest, UniformDataSkipsNothingForWideRanges) {
  DataGenOptions gen;
  gen.order = DataOrder::kUniform;
  gen.num_rows = 50000;
  gen.value_range = 1000000;
  TypedColumn<int64_t> column(GenerateData<int64_t>(gen));
  ZoneMapT<int64_t> map(column, ZoneMapOptions{.zone_size = 1000});

  // Mid-domain 1%-wide value range: on shuffled data every zone straddles
  // it, so nothing is skipped — the paper's motivating pathology.
  Predicate pred = Predicate::Between<int64_t>("x", 500000, 510000);
  std::vector<RowRange> candidates;
  ProbeStats stats;
  map.Probe(pred, &candidates, &stats);
  EXPECT_EQ(stats.zones_skipped, 0);
  EXPECT_EQ(testing_util::CandidateRows(candidates), 50000);
  EXPECT_EQ(stats.entries_read, 50);
}

TEST(ZoneMapTest, CandidatesAreCoalesced) {
  std::vector<int64_t> values(4000);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<int64_t>(i);
  }
  TypedColumn<int64_t> column(std::move(values));
  ZoneMapT<int64_t> map(column, ZoneMapOptions{.zone_size = 100});
  Predicate pred = Predicate::Between<int64_t>("x", 1000, 2999);
  std::vector<RowRange> candidates;
  ProbeStats stats;
  map.Probe(pred, &candidates, &stats);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0], (RowRange{1000, 3000}));
  EXPECT_EQ(stats.zones_candidate, 20);
  EXPECT_EQ(stats.zones_skipped, 20);
}

TEST(ZoneMapTest, EmptyColumn) {
  TypedColumn<int64_t> column(std::vector<int64_t>{});
  ZoneMapT<int64_t> map(column, ZoneMapOptions{});
  std::vector<RowRange> candidates;
  ProbeStats stats;
  map.Probe(Predicate::Between<int64_t>("x", 0, 1), &candidates, &stats);
  EXPECT_TRUE(candidates.empty());
}

TEST(ZoneMapTest, FactoryDispatchesAllTypes) {
  for (DataType type : {DataType::kInt32, DataType::kInt64,
                        DataType::kFloat32, DataType::kFloat64}) {
    std::unique_ptr<Column> column;
    switch (type) {
      case DataType::kInt32:
        column = MakeColumn<int32_t>({1, 2, 3});
        break;
      case DataType::kInt64:
        column = MakeColumn<int64_t>({1, 2, 3});
        break;
      case DataType::kFloat32:
        column = MakeColumn<float>({1, 2, 3});
        break;
      case DataType::kFloat64:
        column = MakeColumn<double>({1, 2, 3});
        break;
    }
    std::unique_ptr<SkipIndex> index = MakeZoneMap(*column, {});
    EXPECT_EQ(index->name(), "zonemap");
    EXPECT_EQ(index->num_rows(), 3);
  }
}

TEST(FullScanIndexTest, AlwaysReturnsFullRange) {
  FullScanIndex index(100);
  std::vector<RowRange> candidates;
  ProbeStats stats;
  index.Probe(Predicate::Between<int64_t>("x", 5, 6), &candidates, &stats);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0], (RowRange{0, 100}));
  EXPECT_EQ(index.MemoryUsageBytes(), 0);
  EXPECT_EQ(index.ZoneCount(), 1);
  EXPECT_EQ(index.TakeAdaptationNanos(), 0);
}

TEST(FullScanIndexTest, EmptyColumnReturnsNoCandidates) {
  FullScanIndex index(0);
  std::vector<RowRange> candidates;
  ProbeStats stats;
  index.Probe(Predicate::Between<int64_t>("x", 5, 6), &candidates, &stats);
  EXPECT_TRUE(candidates.empty());
}

// Superset property across data orders, zone sizes, and random queries.
// GoogleTest names each case by dumping the param's bytes, so the struct
// carries explicit zeroed padding: implicit padding would put whatever the
// stack held into the test names.
struct ZoneMapPropertyCase {
  ZoneMapPropertyCase(DataOrder data_order, int64_t zone_rows)
      : order(data_order), zone_size(zone_rows) {}
  DataOrder order;
  uint8_t padding[7] = {};
  int64_t zone_size;
};
static_assert(sizeof(ZoneMapPropertyCase) == 16);

class ZoneMapPropertyTest
    : public ::testing::TestWithParam<ZoneMapPropertyCase> {};

TEST_P(ZoneMapPropertyTest, ProbeNeverMissesQualifyingRows) {
  const ZoneMapPropertyCase& param = GetParam();
  DataGenOptions gen;
  gen.order = param.order;
  gen.num_rows = 20000;
  gen.value_range = 100000;
  gen.seed = 99;
  TypedColumn<int64_t> column(GenerateData<int64_t>(gen));
  ZoneMapT<int64_t> map(column,
                        ZoneMapOptions{.zone_size = param.zone_size});
  ASSERT_TRUE(ZonesTileRowSpace(map.zones(), column.size()));
  ASSERT_TRUE(ZoneBoundsAreCorrect(map.zones(), column.data()));

  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    int64_t lo = rng.NextInt64(100000);
    int64_t hi = lo + rng.NextInt64(5000);
    Predicate pred = Predicate::Between<int64_t>("x", lo, hi);
    testing_util::ProbeAndCheckSuperset<int64_t>(&map, pred, column.data());
  }
}

INSTANTIATE_TEST_SUITE_P(
    OrdersAndZoneSizes, ZoneMapPropertyTest,
    ::testing::Values(
        ZoneMapPropertyCase{DataOrder::kSorted, 512},
        ZoneMapPropertyCase{DataOrder::kSorted, 4096},
        ZoneMapPropertyCase{DataOrder::kReverseSorted, 1024},
        ZoneMapPropertyCase{DataOrder::kKSorted, 512},
        ZoneMapPropertyCase{DataOrder::kClustered, 512},
        ZoneMapPropertyCase{DataOrder::kRandomWalk, 2048},
        ZoneMapPropertyCase{DataOrder::kSawtooth, 1024},
        ZoneMapPropertyCase{DataOrder::kZipf, 512},
        ZoneMapPropertyCase{DataOrder::kUniform, 512},
        ZoneMapPropertyCase{DataOrder::kUniform, 16384}));

}  // namespace
}  // namespace adaskip
