#include "adaskip/adaptive/adaptive_zone_map.h"

#include <gtest/gtest.h>

#include "adaskip/adaptive/journal_replay.h"
#include "adaskip/obs/event_journal.h"
#include "adaskip/util/rng.h"
#include "adaskip/workload/data_generator.h"
#include "adaskip/workload/query_generator.h"
#include "tests/testing/skip_test_util.h"

namespace adaskip {
namespace {

// Drives the full executor protocol against the index directly: probe,
// "scan" (reference counting), per-range feedback, query completion.
// Returns the number of candidate rows.
int64_t RunQueryProtocol(AdaptiveZoneMapT<int64_t>* index,
                         const Predicate& pred,
                         std::span<const int64_t> values) {
  std::vector<RowRange> candidates;
  ProbeStats stats;
  index->Probe(pred, &candidates, &stats);
  ValueInterval<int64_t> interval = pred.ToInterval<int64_t>();
  int64_t scanned = 0;
  int64_t matched = 0;
  for (const RowRange& range : candidates) {
    int64_t matches = reference::CountMatches(values, range, interval);
    scanned += range.size();
    matched += matches;
    index->OnRangeScanned(pred, RangeFeedback{range, matches});
  }
  QueryFeedback feedback;
  feedback.rows_total = static_cast<int64_t>(values.size());
  feedback.rows_scanned = scanned;
  feedback.rows_matched = matched;
  feedback.probe = stats;
  index->OnQueryComplete(pred, feedback);
  return scanned;
}

AdaptiveOptions TestOptions() {
  AdaptiveOptions options;
  options.initial_zone_size = 0;  // Single zone, fully lazy.
  options.min_zone_size = 64;
  options.policy = SplitPolicy::kBoundary;
  options.enable_cost_model = false;  // Tested separately.
  options.enable_merging = false;
  return options;
}

TEST(AdaptiveZoneMapTest, StartsWithSingleZoneWhenLazy) {
  TypedColumn<int64_t> column(GenerateData<int64_t>(
      {.order = DataOrder::kUniform, .num_rows = 10000, .seed = 1}));
  AdaptiveZoneMapT<int64_t> index(column, TestOptions());
  EXPECT_EQ(index.ZoneCount(), 1);
  EXPECT_EQ(index.name(), "adaptive");
  EXPECT_TRUE(index.CheckInvariants());
}

TEST(AdaptiveZoneMapTest, StartsWithUniformZonesWhenConfigured) {
  TypedColumn<int64_t> column(GenerateData<int64_t>(
      {.order = DataOrder::kUniform, .num_rows = 10000, .seed = 1}));
  AdaptiveOptions options = TestOptions();
  options.initial_zone_size = 1000;
  AdaptiveZoneMapT<int64_t> index(column, options);
  EXPECT_EQ(index.ZoneCount(), 10);
  EXPECT_TRUE(index.CheckInvariants());
}

TEST(AdaptiveZoneMapTest, EmptyColumn) {
  TypedColumn<int64_t> column(std::vector<int64_t>{});
  AdaptiveZoneMapT<int64_t> index(column, TestOptions());
  EXPECT_EQ(index.ZoneCount(), 0);
  std::vector<RowRange> candidates;
  ProbeStats stats;
  index.Probe(Predicate::Between<int64_t>("x", 0, 5), &candidates, &stats);
  EXPECT_TRUE(candidates.empty());
  EXPECT_TRUE(index.CheckInvariants());
}

TEST(AdaptiveZoneMapTest, FirstQuerySplitsTheSingleZone) {
  DataGenOptions gen;
  gen.order = DataOrder::kSorted;
  gen.num_rows = 10000;
  gen.value_range = 10000;
  TypedColumn<int64_t> column(GenerateData<int64_t>(gen));
  AdaptiveZoneMapT<int64_t> index(column, TestOptions());

  Predicate pred = Predicate::Between<int64_t>("x", 4000, 4100);
  RunQueryProtocol(&index, pred, column.data());
  EXPECT_GT(index.ZoneCount(), 1);
  EXPECT_GT(index.split_count(), 0);
  EXPECT_TRUE(index.CheckInvariants());
}

TEST(AdaptiveZoneMapTest, RepeatedQueryConvergesToScanningOnlyTheRun) {
  DataGenOptions gen;
  gen.order = DataOrder::kSorted;
  gen.num_rows = 100000;
  gen.value_range = 100000;
  TypedColumn<int64_t> column(GenerateData<int64_t>(gen));
  AdaptiveZoneMapT<int64_t> index(column, TestOptions());

  Predicate pred = Predicate::Between<int64_t>("x", 50000, 51000);
  int64_t first_scanned = RunQueryProtocol(&index, pred, column.data());
  int64_t second_scanned = RunQueryProtocol(&index, pred, column.data());
  EXPECT_EQ(first_scanned, column.size());  // Lazy start: scan everything.
  // Boundary split isolates the qualifying run exactly, so the second
  // identical query scans just that run (~1% of rows).
  EXPECT_LT(second_scanned, column.size() / 20);
  EXPECT_TRUE(index.CheckInvariants());
}

TEST(AdaptiveZoneMapTest, HalvePolicyConvergesMoreSlowly) {
  DataGenOptions gen;
  gen.order = DataOrder::kSorted;
  gen.num_rows = 65536;
  gen.value_range = 65536;
  TypedColumn<int64_t> column(GenerateData<int64_t>(gen));
  AdaptiveOptions options = TestOptions();
  options.policy = SplitPolicy::kHalve;
  AdaptiveZoneMapT<int64_t> index(column, options);

  Predicate pred = Predicate::Between<int64_t>("x", 30000, 30600);
  int64_t prev = RunQueryProtocol(&index, pred, column.data());
  for (int i = 0; i < 10; ++i) {
    int64_t scanned = RunQueryProtocol(&index, pred, column.data());
    EXPECT_LE(scanned, prev);
    prev = scanned;
  }
  // After halving to min_zone_size granularity, the scan is narrow.
  EXPECT_LT(prev, 4096);
  EXPECT_TRUE(index.CheckInvariants());
}

TEST(AdaptiveZoneMapTest, NonePolicyNeverSplits) {
  TypedColumn<int64_t> column(GenerateData<int64_t>(
      {.order = DataOrder::kSorted, .num_rows = 10000, .seed = 5}));
  AdaptiveOptions options = TestOptions();
  options.policy = SplitPolicy::kNone;
  options.initial_zone_size = 1000;
  AdaptiveZoneMapT<int64_t> index(column, options);
  Predicate pred = Predicate::Between<int64_t>("x", 100, 200);
  for (int i = 0; i < 5; ++i) RunQueryProtocol(&index, pred, column.data());
  EXPECT_EQ(index.ZoneCount(), 10);
  EXPECT_EQ(index.split_count(), 0);
}

TEST(AdaptiveZoneMapTest, MinZoneSizeBoundsRefinement) {
  TypedColumn<int64_t> column(GenerateData<int64_t>(
      {.order = DataOrder::kSorted, .num_rows = 8192, .seed = 6}));
  AdaptiveOptions options = TestOptions();
  options.min_zone_size = 1024;
  options.policy = SplitPolicy::kHalve;
  AdaptiveZoneMapT<int64_t> index(column, options);
  Predicate pred = Predicate::Between<int64_t>("x", 0, 10);
  for (int i = 0; i < 50; ++i) RunQueryProtocol(&index, pred, column.data());
  for (const auto& zone : index.zones()) {
    EXPECT_GE(zone.end - zone.begin, 512);  // Halving 1025 -> 512 floor.
  }
  EXPECT_LE(index.ZoneCount(), 8192 / 512 + 1);
}

TEST(AdaptiveZoneMapTest, MaxZonesBudgetIsRespected) {
  DataGenOptions gen;
  gen.order = DataOrder::kUniform;
  gen.num_rows = 50000;
  TypedColumn<int64_t> column(GenerateData<int64_t>(gen));
  AdaptiveOptions options = TestOptions();
  options.min_zone_size = 16;
  options.max_zones = 32;
  options.policy = SplitPolicy::kBoundary;
  AdaptiveZoneMapT<int64_t> index(column, options);

  QueryGenOptions qgen;
  qgen.selectivity = 0.001;
  QueryGenerator<int64_t> queries("x", column.data(), qgen);
  for (int i = 0; i < 200; ++i) {
    RunQueryProtocol(&index, queries.Next(), column.data());
    ASSERT_LE(index.ZoneCount(), 32 + 2);  // One split may add 2 zones.
  }
  EXPECT_TRUE(index.CheckInvariants());
}

TEST(AdaptiveZoneMapTest, InvariantsHoldUnderRandomWorkloads) {
  for (DataOrder order :
       {DataOrder::kSorted, DataOrder::kClustered, DataOrder::kUniform,
        DataOrder::kRandomWalk, DataOrder::kZipf}) {
    DataGenOptions gen;
    gen.order = order;
    gen.num_rows = 30000;
    gen.value_range = 60000;
    gen.seed = 17;
    TypedColumn<int64_t> column(GenerateData<int64_t>(gen));
    AdaptiveOptions options = TestOptions();
    options.min_zone_size = 32;
    AdaptiveZoneMapT<int64_t> index(column, options);

    QueryGenOptions qgen;
    qgen.selectivity = 0.01;
    qgen.seed = 23;
    QueryGenerator<int64_t> queries("x", column.data(), qgen);
    for (int i = 0; i < 100; ++i) {
      Predicate pred = queries.Next();
      testing_util::ProbeAndCheckSuperset<int64_t>(&index, pred,
                                                   column.data());
      // ProbeAndCheckSuperset advanced the query counter but sent no
      // feedback; run the full protocol too so refinement happens.
      RunQueryProtocol(&index, pred, column.data());
    }
    EXPECT_TRUE(index.CheckInvariants())
        << "order=" << DataOrderToString(order);
  }
}

TEST(AdaptiveZoneMapTest, AdaptationTimeIsAccounted) {
  DataGenOptions gen;
  gen.order = DataOrder::kSorted;
  gen.num_rows = 100000;
  gen.value_range = 100000;
  gen.seed = 8;
  TypedColumn<int64_t> column(GenerateData<int64_t>(gen));
  AdaptiveZoneMapT<int64_t> index(column, TestOptions());
  Predicate pred = Predicate::Between<int64_t>("x", 1000, 2000);
  RunQueryProtocol(&index, pred, column.data());
  EXPECT_GT(index.TakeAdaptationNanos(), 0);
  EXPECT_EQ(index.TakeAdaptationNanos(), 0);  // Drained.
}

TEST(AdaptiveZoneMapTest, BypassEngagesOnHostileData) {
  // Uniform shuffled data + 1%-selectivity ranges: zones never skip, so
  // the cost model must engage bypass.
  DataGenOptions gen;
  gen.order = DataOrder::kUniform;
  gen.num_rows = 20000;
  TypedColumn<int64_t> column(GenerateData<int64_t>(gen));
  AdaptiveOptions options;
  options.initial_zone_size = 512;
  options.min_zone_size = 128;
  options.enable_cost_model = true;
  options.cost_model_warmup_queries = 4;
  options.explore_interval = 1000;  // Effectively off for this test.
  options.enable_merging = false;
  AdaptiveZoneMapT<int64_t> index(column, options);

  QueryGenOptions qgen;
  qgen.selectivity = 0.01;
  QueryGenerator<int64_t> queries("x", column.data(), qgen);
  for (int i = 0; i < 30; ++i) {
    RunQueryProtocol(&index, queries.Next(), column.data());
  }
  EXPECT_EQ(index.mode(), SkippingMode::kBypass);
  EXPECT_GT(index.bypassed_probe_count(), 0);

  // Bypassed probes return the full range at ~zero metadata cost.
  std::vector<RowRange> candidates;
  ProbeStats stats;
  index.Probe(Predicate::Between<int64_t>("x", 0, 100), &candidates, &stats);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0], (RowRange{0, column.size()}));
  EXPECT_EQ(stats.entries_read, 1);
}

TEST(AdaptiveZoneMapTest, ExplorationReactivatesOnFriendlyWorkload) {
  // Clustered data, but the cost model first sees hostile wide queries;
  // after the workload narrows, exploration ticks must re-enable probing.
  DataGenOptions gen;
  gen.order = DataOrder::kSorted;
  gen.num_rows = 40000;
  gen.value_range = 40000;
  TypedColumn<int64_t> column(GenerateData<int64_t>(gen));
  AdaptiveOptions options;
  options.initial_zone_size = 256;
  options.min_zone_size = 64;
  options.enable_cost_model = true;
  options.cost_model_warmup_queries = 2;
  options.explore_interval = 4;
  options.ewma_alpha = 0.5;
  options.enable_merging = false;
  AdaptiveZoneMapT<int64_t> index(column, options);

  // Hostile phase: ~full-domain queries that skip nothing.
  Predicate wide = Predicate::Between<int64_t>("x", 0, 39999);
  for (int i = 0; i < 10; ++i) RunQueryProtocol(&index, wide, column.data());
  ASSERT_EQ(index.mode(), SkippingMode::kBypass);

  // Friendly phase: narrow queries; exploration probes should flip the
  // EWMA back to positive and exit bypass.
  Predicate narrow = Predicate::Between<int64_t>("x", 100, 300);
  for (int i = 0; i < 40; ++i) RunQueryProtocol(&index, narrow, column.data());
  EXPECT_EQ(index.mode(), SkippingMode::kActive);
}

TEST(AdaptiveZoneMapTest, MergeSweepReclaimsColdZones) {
  DataGenOptions gen;
  gen.order = DataOrder::kSorted;
  gen.num_rows = 65536;
  gen.value_range = 65536;
  TypedColumn<int64_t> column(GenerateData<int64_t>(gen));
  AdaptiveOptions options = TestOptions();
  options.min_zone_size = 32;
  options.max_zones = 64;
  options.enable_merging = true;
  options.merge_check_interval = 8;
  options.merge_cold_age = 16;
  options.merge_trigger_fraction = 0.5;
  options.merge_max_zone_size = 1 << 16;
  AdaptiveZoneMapT<int64_t> index(column, options);

  // Phase 1: queries over the low half refine it heavily.
  Rng rng(3);
  for (int i = 0; i < 40; ++i) {
    int64_t lo = rng.NextInt64(30000);
    Predicate pred = Predicate::Between<int64_t>("x", lo, lo + 200);
    RunQueryProtocol(&index, pred, column.data());
  }
  // Phase 2: the workload moves to the high half; low-half zones go cold
  // and merge sweeps must reclaim them.
  for (int i = 0; i < 100; ++i) {
    int64_t lo = 40000 + rng.NextInt64(20000);
    Predicate pred = Predicate::Between<int64_t>("x", lo, lo + 200);
    RunQueryProtocol(&index, pred, column.data());
  }
  EXPECT_GT(index.merge_count(), 0);
  EXPECT_TRUE(index.CheckInvariants());
}

TEST(AdaptiveZoneMapTest, DefaultLayoutMatchesStandardZoneSize) {
  TypedColumn<int64_t> column(GenerateData<int64_t>(
      {.order = DataOrder::kUniform, .num_rows = 20000, .seed = 2}));
  AdaptiveZoneMapT<int64_t> index(column, AdaptiveOptions{});
  // Default start: standard 4096-row zones, not a single lazy zone.
  EXPECT_EQ(index.ZoneCount(), (20000 + 4095) / 4096);
}

TEST(AdaptiveZoneMapTest, SparseMatchesSpanningZoneStillRefine) {
  // Regression: almost-sorted data where a few outliers poison zone
  // bounds. The qualifying run of a repeated query spans entire zones
  // while matching almost nothing inside them; boundary cuts alone would
  // stall, so the policy must fall back to halving and keep converging.
  DataGenOptions gen;
  gen.order = DataOrder::kAlmostSorted;
  gen.num_rows = 100000;
  gen.value_range = 1'000'000;
  gen.outlier_fraction = 0.0005;
  gen.seed = 12;
  TypedColumn<int64_t> column(GenerateData<int64_t>(gen));
  AdaptiveOptions options = TestOptions();
  options.initial_zone_size = 4096;
  options.min_zone_size = 256;
  AdaptiveZoneMapT<int64_t> index(column, options);

  Predicate pred = Predicate::Between<int64_t>("x", 500000, 510000);
  int64_t first = RunQueryProtocol(&index, pred, column.data());
  int64_t last = first;
  for (int i = 0; i < 40; ++i) {
    last = RunQueryProtocol(&index, pred, column.data());
  }
  EXPECT_LT(last, first / 2)
      << "refinement stalled: " << first << " -> " << last;
  EXPECT_TRUE(index.CheckInvariants());
}

// Feedback arrives per range after the whole query's scan, and the zone
// a range names is looked up only when it can change. Each split of an
// earlier range shifts the indices of every later zone, so later ranges
// must still split — or absorb, for the conservative tail — the zone they
// were probed from. Every zone here is a candidate and almost all of its
// rows are wasted, so each range splits in half; the 300-row tail is
// absorbed into one exact zone and, in the same call, split as well.
TEST(AdaptiveZoneMapTest, LaterRangesFindZonesShiftedByEarlierSplits) {
  DataGenOptions gen{.order = DataOrder::kUniform,
                     .num_rows = 4096,
                     .seed = 5,
                     .value_range = 100000};
  TypedColumn<int64_t> column(GenerateData<int64_t>(gen));
  AdaptiveOptions options = TestOptions();
  options.initial_zone_size = 512;
  options.policy = SplitPolicy::kHalve;
  options.max_splits_per_query = 1000;
  obs::EventJournalOptions journal_options;
  journal_options.capacity = 1 << 12;
  obs::EventJournal journal(std::move(journal_options));
  AdaptiveZoneMapT<int64_t> live(column, options);
  AdaptiveZoneMapT<int64_t> replayed(column, options);
  live.BindJournal(&journal, "t.x");

  gen.num_rows = 300;
  gen.seed = 6;
  live.OnAppend(
      column.Append(std::span<const int64_t>(GenerateData<int64_t>(gen))));
  ASSERT_EQ(live.ZoneCount(), 9);

  const Predicate pred = Predicate::Between<int64_t>("x", 50000, 50100);
  RunQueryProtocol(&live, pred, column.data());
  std::vector<RowRange> expected;
  for (int64_t begin = 0; begin < 4096 + 300; begin += 512) {
    const int64_t end = std::min<int64_t>(begin + 512, 4096 + 300);
    const int64_t cut = begin + (end - begin) / 2;
    expected.push_back({begin, cut});
    expected.push_back({cut, end});
  }
  auto layout = [](const AdaptiveZoneMapT<int64_t>& index) {
    std::vector<RowRange> out;
    for (const auto& zone : index.zones()) {
      out.push_back({zone.begin, zone.end});
    }
    return out;
  };
  EXPECT_EQ(layout(live), expected);
  EXPECT_EQ(live.absorb_count(), 1);
  EXPECT_EQ(live.split_count(), 9);
  EXPECT_TRUE(live.CheckInvariants());

  // No tail zone is left, so the next query takes only the deferred
  // lookup: its 18 ranges split again, each at its shifted index.
  RunQueryProtocol(&live, pred, column.data());
  EXPECT_EQ(live.ZoneCount(), 36);
  EXPECT_EQ(live.split_count(), 27);
  EXPECT_TRUE(live.CheckInvariants());

  ASSERT_EQ(journal.spilled(), 0);
  const Status status = ReplayJournal(journal.Snapshot(), "t.x", &replayed);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(layout(replayed), layout(live));
  for (size_t i = 0; i < live.zones().size(); ++i) {
    EXPECT_EQ(replayed.zones()[i].min, live.zones()[i].min) << "zone " << i;
    EXPECT_EQ(replayed.zones()[i].max, live.zones()[i].max) << "zone " << i;
    EXPECT_EQ(replayed.zones()[i].conservative,
              live.zones()[i].conservative)
        << "zone " << i;
  }
  EXPECT_EQ(replayed.absorb_count(), live.absorb_count());
  EXPECT_EQ(replayed.split_count(), live.split_count());
  EXPECT_TRUE(replayed.CheckInvariants());
}

TEST(AdaptiveZoneMapTest, FactoryDispatchesAllTypes) {
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
    std::unique_ptr<SkipIndex> index = MakeAdaptiveZoneMap(*column, {});
    EXPECT_EQ(index->name(), "adaptive");
  }
}

// Per-policy invariant sweep.
class AdaptivePolicyTest : public ::testing::TestWithParam<SplitPolicy> {};

TEST_P(AdaptivePolicyTest, InvariantsAndSupersetUnderWorkload) {
  DataGenOptions gen;
  gen.order = DataOrder::kClustered;
  gen.num_rows = 20000;
  gen.value_range = 40000;
  TypedColumn<int64_t> column(GenerateData<int64_t>(gen));
  AdaptiveOptions options = TestOptions();
  options.policy = GetParam();
  options.min_zone_size = 64;
  AdaptiveZoneMapT<int64_t> index(column, options);

  QueryGenOptions qgen;
  qgen.selectivity = 0.02;
  qgen.seed = 41;
  QueryGenerator<int64_t> queries("x", column.data(), qgen);
  for (int i = 0; i < 60; ++i) {
    RunQueryProtocol(&index, queries.Next(), column.data());
  }
  EXPECT_TRUE(index.CheckInvariants())
      << SplitPolicyToString(GetParam());
  // A final fresh probe still satisfies the superset contract.
  testing_util::ProbeAndCheckSuperset<int64_t>(
      &index, Predicate::Between<int64_t>("x", 10000, 11000), column.data());
}

INSTANTIATE_TEST_SUITE_P(Policies, AdaptivePolicyTest,
                         ::testing::Values(SplitPolicy::kNone,
                                           SplitPolicy::kHalve,
                                           SplitPolicy::kBoundary,
                                           SplitPolicy::kBudgeted));

}  // namespace
}  // namespace adaskip
