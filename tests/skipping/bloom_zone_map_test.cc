#include "adaskip/skipping/bloom_zone_map.h"

#include <gtest/gtest.h>

#include "adaskip/skipping/zone_map.h"
#include "adaskip/util/interval_set.h"
#include "adaskip/util/rng.h"
#include "adaskip/workload/data_generator.h"
#include "tests/testing/skip_test_util.h"

namespace adaskip {
namespace {

TEST(BloomZoneMapTest, NameAndZones) {
  TypedColumn<int64_t> column(GenerateData<int64_t>(
      {.order = DataOrder::kUniform, .num_rows = 5000, .seed = 3}));
  BloomZoneMapT<int64_t> map(column, BloomZoneMapOptions{.zone_size = 500});
  EXPECT_EQ(map.name(), "bloomzonemap");
  EXPECT_EQ(map.ZoneCount(), 10);
  EXPECT_GT(map.MemoryUsageBytes(), 0);
}

TEST(BloomZoneMapTest, BloomNeverFalseNegative) {
  DataGenOptions gen;
  gen.order = DataOrder::kUniform;
  gen.num_rows = 8192;
  gen.value_range = 1 << 24;
  TypedColumn<int64_t> column(GenerateData<int64_t>(gen));
  BloomZoneMapT<int64_t> map(column, BloomZoneMapOptions{.zone_size = 1024});
  // Every stored value must pass the Bloom test of its own zone.
  for (int64_t row = 0; row < column.size(); row += 7) {
    int64_t zone = row / 1024;
    EXPECT_TRUE(map.BloomMayContain(zone, column.Get(row))) << row;
  }
}

TEST(BloomZoneMapTest, PointProbeSkipsZonesWithoutTheValue) {
  // Clustered ids with gaps: each zone holds a distinct band, min/max of
  // zones overlap the probe value's neighborhood but most zones do not
  // contain the exact value.
  std::vector<int64_t> values;
  Rng rng(9);
  for (int64_t zone = 0; zone < 16; ++zone) {
    for (int64_t i = 0; i < 1024; ++i) {
      // Sparse ids: multiples of 16 with a zone-specific offset.
      values.push_back(rng.NextInt64(1 << 20) * 16 + zone);
    }
  }
  TypedColumn<int64_t> column(std::move(values));
  BloomZoneMapT<int64_t> map(column, BloomZoneMapOptions{.zone_size = 1024});

  // Probe a value that exists only in zone 3 (offset pattern).
  int64_t probe = column.Get(3 * 1024 + 11);
  Predicate pred = Predicate::Equal<int64_t>("x", probe);
  std::vector<RowRange> candidates =
      testing_util::ProbeAndCheckSuperset<int64_t>(&map, pred, column.data());
  // Without Blooms, min/max overlap would admit all 16 zones; the Bloom
  // filters must prune most of them.
  EXPECT_LT(testing_util::CandidateRows(candidates), column.size() / 2);
}

TEST(BloomZoneMapTest, RangeProbeBehavesLikeZoneMap) {
  DataGenOptions gen;
  gen.order = DataOrder::kClustered;
  gen.num_rows = 40000;
  gen.value_range = 100000;
  TypedColumn<int64_t> column(GenerateData<int64_t>(gen));
  BloomZoneMapT<int64_t> bloom(column, BloomZoneMapOptions{.zone_size = 512});
  ZoneMapT<int64_t> plain(column, ZoneMapOptions{.zone_size = 512});

  Rng rng(13);
  for (int trial = 0; trial < 15; ++trial) {
    int64_t lo = rng.NextInt64(100000);
    int64_t hi = lo + rng.NextInt64(5000);
    Predicate pred = Predicate::Between<int64_t>("x", lo, hi);
    std::vector<RowRange> bloom_candidates;
    ProbeStats bloom_stats;
    bloom.Probe(pred, &bloom_candidates, &bloom_stats);
    std::vector<RowRange> plain_candidates;
    ProbeStats plain_stats;
    plain.Probe(pred, &plain_candidates, &plain_stats);
    EXPECT_EQ(bloom_candidates, plain_candidates);
  }
}

// GoogleTest names each case by dumping the param's bytes, so the struct
// carries explicit zeroed padding: implicit padding would put whatever the
// stack held into the test names.
struct BloomCase {
  BloomCase(DataOrder data_order, int64_t zone_rows, int64_t bits)
      : order(data_order), zone_size(zone_rows), bits_per_row(bits) {}
  DataOrder order;
  uint8_t padding[7] = {};
  int64_t zone_size;
  int64_t bits_per_row;
};
static_assert(sizeof(BloomCase) == 24);

class BloomPropertyTest : public ::testing::TestWithParam<BloomCase> {};

TEST_P(BloomPropertyTest, SupersetForRangesAndPoints) {
  const BloomCase& param = GetParam();
  DataGenOptions gen;
  gen.order = param.order;
  gen.num_rows = 15000;
  gen.value_range = 30000;
  gen.seed = 31;
  TypedColumn<int64_t> column(GenerateData<int64_t>(gen));
  BloomZoneMapT<int64_t> map(
      column, BloomZoneMapOptions{.zone_size = param.zone_size,
                                  .bits_per_row = param.bits_per_row});
  Rng rng(37);
  for (int trial = 0; trial < 10; ++trial) {
    int64_t lo = rng.NextInt64(30000);
    Predicate range_pred =
        Predicate::Between<int64_t>("x", lo, lo + rng.NextInt64(2000));
    testing_util::ProbeAndCheckSuperset<int64_t>(&map, range_pred,
                                                 column.data());
    int64_t existing = column.Get(rng.NextInt64(column.size()));
    Predicate point_pred = Predicate::Equal<int64_t>("x", existing);
    testing_util::ProbeAndCheckSuperset<int64_t>(&map, point_pred,
                                                 column.data());
    // Absent values must also be a (possibly empty) superset — trivially
    // true, but exercises the probe path.
    Predicate absent_pred = Predicate::Equal<int64_t>("x", 30000 + trial);
    testing_util::ProbeAndCheckSuperset<int64_t>(&map, absent_pred,
                                                 column.data());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BloomPropertyTest,
    ::testing::Values(BloomCase{DataOrder::kUniform, 1024, 8},
                      BloomCase{DataOrder::kSorted, 512, 4},
                      BloomCase{DataOrder::kClustered, 2048, 8},
                      BloomCase{DataOrder::kZipf, 1024, 2},
                      BloomCase{DataOrder::kUniform, 128, 16}));

TEST(BloomZoneMapTest, FactoryDispatches) {
  std::unique_ptr<Column> column = MakeColumn<int32_t>({5, 6, 7});
  std::unique_ptr<SkipIndex> index = MakeBloomZoneMap(*column, {});
  EXPECT_EQ(index->name(), "bloomzonemap");
}

}  // namespace
}  // namespace adaskip
