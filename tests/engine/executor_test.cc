#include "adaskip/engine/scan_executor.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "adaskip/scan/scan_kernel.h"
#include "adaskip/util/rng.h"
#include "adaskip/workload/data_generator.h"
#include "adaskip/workload/query_generator.h"

namespace adaskip {
namespace {

std::shared_ptr<Table> MakeTestTable(DataOrder order, int64_t num_rows,
                                     uint64_t seed) {
  DataGenOptions gen;
  gen.order = order;
  gen.num_rows = num_rows;
  gen.value_range = 100000;
  gen.seed = seed;
  auto table = std::make_shared<Table>("t");
  ADASKIP_CHECK_OK(table->AddColumn("x", MakeColumn(GenerateData<int64_t>(gen))));
  gen.seed = seed + 1;
  gen.order = DataOrder::kUniform;
  ADASKIP_CHECK_OK(table->AddColumn("y", MakeColumn(GenerateData<int64_t>(gen))));
  return table;
}

// Reference answer computed with the naive kernels over the full column.
QueryResult NaiveAnswer(const Table& table, const Query& query) {
  QueryResult out;
  out.aggregate = query.aggregate;
  const auto& x = *table.ColumnByName(query.predicates[0].column)
                       .value()
                       ->As<int64_t>();
  ValueInterval<int64_t> interval =
      query.predicates[0].ToInterval<int64_t>();
  SelectionVector rows =
      reference::MaterializeMatches(x.data(), {0, x.size()}, interval);
  // Apply remaining conjuncts.
  for (size_t p = 1; p < query.predicates.size(); ++p) {
    const auto& col = *table.ColumnByName(query.predicates[p].column)
                           .value()
                           ->As<int64_t>();
    ValueInterval<int64_t> iv = query.predicates[p].ToInterval<int64_t>();
    SelectionVector filtered;
    for (int64_t i = 0; i < rows.size(); ++i) {
      if (iv.Contains(col.Get(rows[i]))) filtered.Append(rows[i]);
    }
    rows = filtered;
  }
  out.count = rows.size();
  std::string_view agg_col = query.aggregate_column.empty()
                                 ? query.predicates[0].column
                                 : query.aggregate_column;
  const auto& a = *table.ColumnByName(agg_col).value()->As<int64_t>();
  int64_t min_v = std::numeric_limits<int64_t>::max();
  int64_t max_v = std::numeric_limits<int64_t>::lowest();
  for (int64_t i = 0; i < rows.size(); ++i) {
    int64_t v = a.Get(rows[i]);
    out.sum += static_cast<double>(v);
    min_v = std::min(min_v, v);
    max_v = std::max(max_v, v);
  }
  if (out.count > 0) {
    out.min = static_cast<double>(min_v);
    out.max = static_cast<double>(max_v);
  }
  out.rows = std::move(rows);
  return out;
}

TEST(ScanExecutorTest, RejectsEmptyPredicateList) {
  auto table = MakeTestTable(DataOrder::kUniform, 100, 1);
  ScanExecutor executor(table, nullptr);
  Query query;
  EXPECT_EQ(executor.Execute(query).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ScanExecutorTest, RejectsUnknownColumn) {
  auto table = MakeTestTable(DataOrder::kUniform, 100, 1);
  ScanExecutor executor(table, nullptr);
  Query query = Query::Count(Predicate::Between<int64_t>("nope", 0, 1));
  EXPECT_EQ(executor.Execute(query).status().code(), StatusCode::kNotFound);
}

TEST(ScanExecutorTest, RejectsScalarTypeMismatch) {
  auto table = MakeTestTable(DataOrder::kUniform, 100, 1);
  ScanExecutor executor(table, nullptr);
  // Column x is int64 but the predicate carries doubles.
  Query query = Query::Count(Predicate::Between<double>("x", 0.0, 1.0));
  EXPECT_EQ(executor.Execute(query).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ScanExecutorTest, RejectsUnknownAggregateColumn) {
  auto table = MakeTestTable(DataOrder::kUniform, 100, 1);
  ScanExecutor executor(table, nullptr);
  Query query = Query::Sum(Predicate::Between<int64_t>("x", 0, 10), "nope");
  EXPECT_EQ(executor.Execute(query).status().code(), StatusCode::kNotFound);
}

TEST(ScanExecutorTest, NoIndexScansEverything) {
  auto table = MakeTestTable(DataOrder::kSorted, 10000, 2);
  ScanExecutor executor(table, nullptr);
  Query query = Query::Count(Predicate::Between<int64_t>("x", 0, 1000));
  Result<QueryResult> result = executor.Execute(query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.rows_scanned, 10000);
  EXPECT_EQ(result->stats.index_name, "none");
  EXPECT_EQ(result->count, NaiveAnswer(*table, query).count);
}

TEST(ScanExecutorTest, StatsAreInternallyConsistent) {
  auto table = MakeTestTable(DataOrder::kSorted, 50000, 3);
  IndexManager indexes(table);
  ASSERT_TRUE(indexes.AttachIndex("x", IndexOptions::ZoneMap(1000)).ok());
  ScanExecutor executor(table, &indexes);
  Query query = Query::Count(Predicate::Between<int64_t>("x", 40000, 42000));
  Result<QueryResult> result = executor.Execute(query);
  ASSERT_TRUE(result.ok());
  const QueryStats& stats = result->stats;
  EXPECT_EQ(stats.rows_total, 50000);
  EXPECT_LE(stats.rows_matched, stats.rows_scanned);
  EXPECT_LE(stats.rows_scanned, stats.rows_total);
  EXPECT_EQ(stats.probe.zones_candidate + stats.probe.zones_skipped, 50);
  EXPECT_GT(stats.total_nanos, 0);
  EXPECT_EQ(stats.index_name, "zonemap");
  EXPECT_GE(stats.candidate_ranges, 1);
  // Zonemap skipping on sorted data actually skipped rows.
  EXPECT_LT(stats.rows_scanned, stats.rows_total / 2);
}

TEST(ScanExecutorTest, MaterializeReturnsExactRows) {
  auto table = MakeTestTable(DataOrder::kClustered, 20000, 4);
  IndexManager indexes(table);
  ASSERT_TRUE(indexes.AttachIndex("x", IndexOptions::Adaptive()).ok());
  ScanExecutor executor(table, &indexes);
  Query query =
      Query::Materialize(Predicate::Between<int64_t>("x", 30000, 33000));
  Result<QueryResult> result = executor.Execute(query);
  ASSERT_TRUE(result.ok());
  QueryResult expected = NaiveAnswer(*table, query);
  EXPECT_EQ(result->rows, expected.rows);
  EXPECT_EQ(result->count, expected.count);
}

TEST(ScanExecutorTest, ConjunctionIntersectsCandidates) {
  auto table = MakeTestTable(DataOrder::kSorted, 30000, 5);
  IndexManager indexes(table);
  ASSERT_TRUE(indexes.AttachIndex("x", IndexOptions::ZoneMap(500)).ok());
  ScanExecutor executor(table, &indexes);
  Query query;
  query.predicates = {Predicate::Between<int64_t>("x", 10000, 30000),
                      Predicate::Between<int64_t>("y", 0, 50000)};
  query.aggregate = AggregateKind::kCount;
  Result<QueryResult> result = executor.Execute(query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count, NaiveAnswer(*table, query).count);
  EXPECT_EQ(result->stats.index_name, "conjunction");
  // The x zonemap restricts the scan on sorted data.
  EXPECT_LT(result->stats.rows_scanned, 30000);
}

TEST(ScanExecutorTest, ConjunctionAggregatesOverThirdColumn) {
  auto table = MakeTestTable(DataOrder::kSorted, 10000, 6);
  ScanExecutor executor(table, nullptr);
  Query query;
  query.predicates = {Predicate::Between<int64_t>("x", 1000, 90000),
                      Predicate::Between<int64_t>("y", 10000, 90000)};
  query.aggregate = AggregateKind::kSum;
  query.aggregate_column = "y";
  Result<QueryResult> result = executor.Execute(query);
  ASSERT_TRUE(result.ok());
  QueryResult expected = NaiveAnswer(*table, query);
  EXPECT_DOUBLE_EQ(result->sum, expected.sum);
  EXPECT_EQ(result->count, expected.count);
}

TEST(ScanExecutorTest, SumOverDifferentColumnUsesGenericPath) {
  auto table = MakeTestTable(DataOrder::kSorted, 5000, 7);
  ScanExecutor executor(table, nullptr);
  Query query = Query::Sum(Predicate::Between<int64_t>("x", 0, 50000), "y");
  Result<QueryResult> result = executor.Execute(query);
  ASSERT_TRUE(result.ok());
  QueryResult expected = NaiveAnswer(*table, query);
  EXPECT_DOUBLE_EQ(result->sum, expected.sum);
  EXPECT_EQ(result->stats.index_name, "conjunction");
}

TEST(ScanExecutorTest, EmptyTable) {
  auto table = std::make_shared<Table>("empty");
  ASSERT_TRUE(table->AddColumn("x", MakeColumn<int64_t>({})).ok());
  IndexManager indexes(table);
  ASSERT_TRUE(indexes.AttachIndex("x", IndexOptions::Adaptive()).ok());
  ScanExecutor executor(table, &indexes);
  Result<QueryResult> result =
      executor.Execute(Query::Count(Predicate::Between<int64_t>("x", 0, 9)));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count, 0);
  EXPECT_EQ(result->stats.rows_scanned, 0);
}

TEST(ScanExecutorTest, MinMaxAreNaNWhenNothingMatches) {
  auto table = MakeTestTable(DataOrder::kUniform, 1000, 3);
  ScanExecutor executor(table, nullptr);
  // Values live in [0, 100000); this window is empty.
  Query query =
      Query::Min(Predicate::Between<int64_t>("x", 200000, 300000));
  Result<QueryResult> result = executor.Execute(query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count, 0);
  EXPECT_TRUE(std::isnan(result->min));
  EXPECT_TRUE(std::isnan(result->max));

  // Same contract on the conjunction path.
  query.predicates.push_back(Predicate::Between<int64_t>("y", 0, 100000));
  query.aggregate = AggregateKind::kMax;
  result = executor.Execute(query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count, 0);
  EXPECT_TRUE(std::isnan(result->min));
  EXPECT_TRUE(std::isnan(result->max));
}

TEST(ScanExecutorTest, QueryToStringMentionsEverything) {
  Query query;
  query.predicates = {Predicate::Between<int64_t>("x", 1, 2),
                      Predicate::Equal<int64_t>("y", 5)};
  query.aggregate = AggregateKind::kSum;
  query.aggregate_column = "z";
  std::string s = query.ToString();
  EXPECT_NE(s.find("SUM(z)"), std::string::npos);
  EXPECT_NE(s.find("x BETWEEN 1 AND 2"), std::string::npos);
  EXPECT_NE(s.find(" AND y = 5"), std::string::npos);
}

// The central end-to-end matrix: every index kind × data order ×
// aggregate must produce exactly the naive answer, on a stream of random
// queries (which also drives adaptation in the adaptive arm).
struct MatrixCase {
  IndexKind kind;
  DataOrder order;
};

class ExecutorMatrixTest : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(ExecutorMatrixTest, AgreesWithNaiveAnswerOnQueryStream) {
  const MatrixCase& param = GetParam();
  auto table = MakeTestTable(param.order, 25000, 11);
  IndexManager indexes(table);
  IndexOptions options;
  options.kind = param.kind;
  options.zone_map.zone_size = 512;
  options.zone_tree.zone_size = 512;
  options.bloom.zone_size = 512;
  options.adaptive.min_zone_size = 64;
  ASSERT_TRUE(indexes.AttachIndex("x", options).ok());
  ScanExecutor executor(table, &indexes);

  const auto& x = *table->ColumnByName("x").value()->As<int64_t>();
  QueryGenOptions qgen;
  qgen.selectivity = 0.02;
  qgen.seed = 13;
  QueryGenerator<int64_t> queries("x", x.data(), qgen);

  const AggregateKind aggregates[] = {
      AggregateKind::kCount, AggregateKind::kSum, AggregateKind::kMin,
      AggregateKind::kMax, AggregateKind::kMaterialize};
  for (int i = 0; i < 40; ++i) {
    Query query;
    query.predicates = {queries.Next()};
    query.aggregate = aggregates[i % 5];
    Result<QueryResult> result = executor.Execute(query);
    ASSERT_TRUE(result.ok()) << result.status();
    QueryResult expected = NaiveAnswer(*table, query);
    EXPECT_EQ(result->count, expected.count) << query.ToString();
    switch (query.aggregate) {
      case AggregateKind::kSum:
        EXPECT_DOUBLE_EQ(result->sum, expected.sum) << query.ToString();
        break;
      case AggregateKind::kMin:
        // min/max are meaningful only when count > 0; otherwise the
        // contract is that both stay NaN.
        if (result->count > 0) {
          EXPECT_EQ(result->min, expected.min) << query.ToString();
        } else {
          EXPECT_TRUE(std::isnan(result->min)) << query.ToString();
        }
        break;
      case AggregateKind::kMax:
        if (result->count > 0) {
          EXPECT_EQ(result->max, expected.max) << query.ToString();
        } else {
          EXPECT_TRUE(std::isnan(result->max)) << query.ToString();
        }
        break;
      case AggregateKind::kMaterialize:
        EXPECT_EQ(result->rows, expected.rows) << query.ToString();
        break;
      case AggregateKind::kCount:
        break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    KindsTimesOrders, ExecutorMatrixTest,
    ::testing::Values(
        MatrixCase{IndexKind::kFullScan, DataOrder::kSorted},
        MatrixCase{IndexKind::kFullScan, DataOrder::kUniform},
        MatrixCase{IndexKind::kZoneMap, DataOrder::kSorted},
        MatrixCase{IndexKind::kZoneMap, DataOrder::kKSorted},
        MatrixCase{IndexKind::kZoneMap, DataOrder::kClustered},
        MatrixCase{IndexKind::kZoneMap, DataOrder::kUniform},
        MatrixCase{IndexKind::kZoneTree, DataOrder::kSorted},
        MatrixCase{IndexKind::kZoneTree, DataOrder::kClustered},
        MatrixCase{IndexKind::kZoneTree, DataOrder::kRandomWalk},
        MatrixCase{IndexKind::kImprints, DataOrder::kSorted},
        MatrixCase{IndexKind::kImprints, DataOrder::kUniform},
        MatrixCase{IndexKind::kImprints, DataOrder::kZipf},
        MatrixCase{IndexKind::kBloomZoneMap, DataOrder::kSorted},
        MatrixCase{IndexKind::kBloomZoneMap, DataOrder::kClustered},
        MatrixCase{IndexKind::kAdaptive, DataOrder::kSorted},
        MatrixCase{IndexKind::kAdaptive, DataOrder::kReverseSorted},
        MatrixCase{IndexKind::kAdaptive, DataOrder::kKSorted},
        MatrixCase{IndexKind::kAdaptive, DataOrder::kClustered},
        MatrixCase{IndexKind::kAdaptive, DataOrder::kRandomWalk},
        MatrixCase{IndexKind::kAdaptive, DataOrder::kSawtooth},
        MatrixCase{IndexKind::kAdaptive, DataOrder::kZipf},
        MatrixCase{IndexKind::kAdaptive, DataOrder::kUniform}));

// Float-typed end-to-end check (the matrix above is int64).
TEST(ScanExecutorTest, FloatColumnsWorkEndToEnd) {
  auto table = std::make_shared<Table>("f");
  DataGenOptions gen;
  gen.order = DataOrder::kRandomWalk;
  gen.num_rows = 10000;
  ASSERT_TRUE(
      table->AddColumn("v", MakeColumn(GenerateData<double>(gen))).ok());
  IndexManager indexes(table);
  ASSERT_TRUE(indexes.AttachIndex("v", IndexOptions::Adaptive()).ok());
  ScanExecutor executor(table, &indexes);
  const auto& v = *table->ColumnByName("v").value()->As<double>();

  for (int i = 0; i < 10; ++i) {
    double lo = 4e8 + i * 1e7;
    Query query = Query::Count(Predicate::Between<double>("v", lo, lo + 5e7));
    Result<QueryResult> result = executor.Execute(query);
    ASSERT_TRUE(result.ok());
    ValueInterval<double> interval =
        query.predicates[0].ToInterval<double>();
    EXPECT_EQ(result->count, reference::CountMatches(
                                 v.data(), {0, v.size()}, interval));
  }
}

// NaN never becomes a zone bound: a zone whose first value is NaN keeps
// the bounds of its other values, so the probe does not skip matches.
TEST(ScanExecutorTest, NanRowsDoNotHideTheirZones) {
  std::vector<double> values(1024, 0.5);
  for (size_t i = 0; i < values.size(); i += 64) {
    values[i] = std::numeric_limits<double>::quiet_NaN();
  }
  const Query query = Query::Count(Predicate::Between<double>("x", 0.0, 1.0));
  for (const IndexOptions& index :
       {IndexOptions::ZoneMap(64), IndexOptions::Adaptive()}) {
    auto table = std::make_shared<Table>("t");
    ASSERT_TRUE(table->AddColumn("x", MakeColumn(values)).ok());
    IndexManager indexes(table);
    ASSERT_TRUE(indexes.AttachIndex("x", index).ok());
    ScanExecutor executor(table, &indexes);
    // Repeated queries let the adaptive index split zones at NaN rows.
    for (int i = 0; i < 8; ++i) {
      Result<QueryResult> result = executor.Execute(query);
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(result->count, 1008) << result->stats.index_name;
    }
  }
}

}  // namespace
}  // namespace adaskip
