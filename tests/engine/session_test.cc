#include "adaskip/engine/session.h"

#include <gtest/gtest.h>

#include <sstream>

#include "adaskip/adaptive/adaptive_zone_map.h"
#include "adaskip/workload/data_generator.h"

namespace adaskip {
namespace {

TEST(SessionTest, CreateTableAndAddColumns) {
  Session session;
  ASSERT_TRUE(session.CreateTable("t").ok());
  EXPECT_EQ(session.CreateTable("t").code(), StatusCode::kAlreadyExists);
  ASSERT_TRUE(session.AddColumn<int64_t>("t", "x", {1, 2, 3}).ok());
  ASSERT_TRUE(session.AddColumn<double>("t", "y", {1.0, 2.0, 3.0}).ok());
  EXPECT_EQ(session.AddColumn<int64_t>("t", "x", {9}).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(session.AddColumn<int64_t>("missing", "x", {1}).code(),
            StatusCode::kNotFound);
  Result<std::shared_ptr<Table>> table = session.GetTable("t");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->num_rows(), 3);
}

TEST(SessionTest, RegisterExternallyBuiltTable) {
  Session session;
  auto table = std::make_shared<Table>("ext");
  ASSERT_TRUE(table->AddColumn("a", MakeColumn<int32_t>({1, 2})).ok());
  ASSERT_TRUE(session.RegisterTable(table).ok());
  EXPECT_TRUE(session.catalog().Contains("ext"));
}

TEST(SessionTest, AttachDetachIndex) {
  Session session;
  ASSERT_TRUE(session.CreateTable("t").ok());
  ASSERT_TRUE(session.AddColumn<int64_t>("t", "x", {1, 2, 3}).ok());
  ASSERT_TRUE(session.AttachIndex("t", "x", IndexOptions::ZoneMap()).ok());
  Result<IndexSnapshot> snapshot = session.DescribeIndex("t", "x");
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->table, "t");
  EXPECT_EQ(snapshot->column, "x");
  EXPECT_EQ(snapshot->kind, "zonemap");
  EXPECT_EQ(snapshot->num_rows, 3);
  EXPECT_GE(snapshot->zone_count, 1);
  EXPECT_GT(snapshot->memory_bytes, 0);
  EXPECT_FALSE(snapshot->description.empty());
  EXPECT_EQ(session.DescribeIndex("t", "nope").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(session.DescribeIndex("other", "x").status().code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(session.DetachIndex("t", "x").ok());
  EXPECT_EQ(session.DescribeIndex("t", "x").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(session.DetachIndex("t", "x").code(), StatusCode::kNotFound);
  EXPECT_EQ(session.AttachIndex("t", "nope", IndexOptions::ZoneMap()).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(session.AttachIndex("missing", "x", {}).code(),
            StatusCode::kNotFound);
}

TEST(SessionTest, ExecuteAccumulatesWorkloadStats) {
  Session session;
  ASSERT_TRUE(session.CreateTable("t").ok());
  DataGenOptions gen;
  gen.order = DataOrder::kSorted;
  gen.num_rows = 10000;
  gen.value_range = 10000;
  ASSERT_TRUE(
      session.AddColumn<int64_t>("t", "x", GenerateData<int64_t>(gen)).ok());
  ASSERT_TRUE(session.AttachIndex("t", "x", IndexOptions::ZoneMap(500)).ok());

  for (int i = 0; i < 5; ++i) {
    Result<QueryResult> result = session.ExecuteSpec(QuerySpec::Simple(
        "t", Query::Count(Predicate::Between<int64_t>("x", 100, 200))));
    ASSERT_TRUE(result.ok());
  }
  EXPECT_EQ(session.workload_stats().num_queries(), 5);
  EXPECT_GT(session.workload_stats().total_nanos(), 0);
  EXPECT_GT(session.workload_stats().MeanSkippedFraction(), 0.5);
  EXPECT_GT(session.workload_stats().MeanLatencyMicros(), 0.0);
  session.ResetWorkloadStats();
  EXPECT_EQ(session.workload_stats().num_queries(), 0);
}

TEST(SessionTest, ExecuteOnMissingTableFails) {
  Session session;
  EXPECT_EQ(session
                .ExecuteSpec(QuerySpec::Simple("nope",
                         Query::Count(Predicate::Between<int64_t>("x", 0, 1))))
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(SessionTest, AdaptiveIndexIsIntrospectable) {
  Session session;
  ASSERT_TRUE(session.CreateTable("t").ok());
  DataGenOptions gen;
  gen.order = DataOrder::kSorted;
  gen.num_rows = 20000;
  gen.value_range = 20000;
  ASSERT_TRUE(
      session.AddColumn<int64_t>("t", "x", GenerateData<int64_t>(gen)).ok());
  AdaptiveOptions adaptive;
  adaptive.min_zone_size = 128;
  ASSERT_TRUE(
      session.AttachIndex("t", "x", IndexOptions::Adaptive(adaptive)).ok());

  for (int i = 0; i < 10; ++i) {
    int64_t lo = 1000 * i;
    ASSERT_TRUE(session
                    .ExecuteSpec(QuerySpec::Simple("t", Query::Count(Predicate::Between<int64_t>(
                                      "x", lo, lo + 150))))
                    .ok());
  }
  Result<IndexSnapshot> snapshot = session.DescribeIndex("t", "x");
  ASSERT_TRUE(snapshot.ok());
  EXPECT_GT(snapshot->adaptation.zones_refined, 0);
  EXPECT_GT(snapshot->zone_count, 1);
  EXPECT_EQ(snapshot->num_rows, 20000);
  EXPECT_FALSE(snapshot->adaptation.bypass);
}

TEST(SessionTest, TelemetryTogglesJournalHealthAndDump) {
  Session session;
  ASSERT_TRUE(session.CreateTable("t").ok());
  DataGenOptions gen;
  gen.order = DataOrder::kSorted;
  gen.num_rows = 20000;
  gen.value_range = 20000;
  ASSERT_TRUE(
      session.AddColumn<int64_t>("t", "x", GenerateData<int64_t>(gen)).ok());
  AdaptiveOptions adaptive;
  adaptive.min_zone_size = 128;
  ASSERT_TRUE(
      session.AttachIndex("t", "x", IndexOptions::Adaptive(adaptive)).ok());

  // Both toggles default off: queries leave the journal and the health
  // monitor untouched.
  ASSERT_TRUE(session
                  .ExecuteSpec(QuerySpec::Simple("t", Query::Count(
                                    Predicate::Between<int64_t>("x", 0, 150))))
                  .ok());
  EXPECT_EQ(session.journal().total_appended(), 0);
  EXPECT_TRUE(session.HealthReport().empty());

  obs::HealthMonitorOptions health;
  health.window_queries = 4;
  health.min_windows = 2;
  session.SetHealthMonitorOptions(health);
  ExecOptions exec;
  exec.journal_events = true;
  exec.time_series = true;
  ASSERT_TRUE(session.SetExecOptions("t", exec).ok());
  for (int i = 0; i < 12; ++i) {
    int64_t lo = 1000 * i;
    ASSERT_TRUE(session
                    .ExecuteSpec(QuerySpec::Simple("t", Query::Count(Predicate::Between<int64_t>(
                                      "x", lo, lo + 150))))
                    .ok());
  }
  // The adaptive index split under this workload, and every structural
  // action landed in the session journal under the table.column scope.
  EXPECT_GT(session.journal().total_appended(), 0);
  ASSERT_FALSE(session.journal().Tail(1).empty());
  EXPECT_EQ(session.journal().Tail(1)[0].scope, "t.x");
  std::vector<obs::IndexHealth> report = session.HealthReport();
  ASSERT_EQ(report.size(), 1u);
  EXPECT_EQ(report[0].scope, "t.x");
  EXPECT_EQ(report[0].queries_observed, 12);
  EXPECT_GT(report[0].windows_completed, 0);

  std::ostringstream dump;
  session.DumpTelemetry(dump);
  const std::string json = dump.str();
  EXPECT_NE(json.find("\"journal\""), std::string::npos);
  EXPECT_NE(json.find("\"health\""), std::string::npos);
  EXPECT_NE(json.find("\"time_series\""), std::string::npos);
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("t.x"), std::string::npos);

  // Toggling journaling back off unbinds the journal: further structural
  // actions are not recorded.
  ASSERT_TRUE(session.SetExecOptions("t", ExecOptions()).ok());
  const int64_t before = session.journal().total_appended();
  for (int i = 0; i < 12; ++i) {
    int64_t lo = 500 + 1000 * i;
    ASSERT_TRUE(session
                    .ExecuteSpec(QuerySpec::Simple("t", Query::Count(Predicate::Between<int64_t>(
                                      "x", lo, lo + 150))))
                    .ok());
  }
  EXPECT_EQ(session.journal().total_appended(), before);
}

TEST(SessionTest, DescribeIndexReportsAdaptationState) {
  // The value-type snapshot is the introspection surface (the deprecated
  // raw-pointer GetIndex shim is gone): adaptation actions, geometry, and
  // footprint all come out of DescribeIndex.
  Session session;
  ASSERT_TRUE(session.CreateTable("t").ok());
  DataGenOptions gen;
  gen.order = DataOrder::kSorted;
  gen.num_rows = 20000;
  gen.value_range = 20000;
  ASSERT_TRUE(
      session.AddColumn<int64_t>("t", "x", GenerateData<int64_t>(gen)).ok());
  AdaptiveOptions adaptive;
  adaptive.min_zone_size = 128;
  ASSERT_TRUE(
      session.AttachIndex("t", "x", IndexOptions::Adaptive(adaptive)).ok());
  for (int i = 0; i < 10; ++i) {
    int64_t lo = 1000 * i;
    ASSERT_TRUE(session
                    .ExecuteSpec(QuerySpec::Simple("t", Query::Count(Predicate::Between<int64_t>(
                                      "x", lo, lo + 150))))
                    .ok());
  }
  Result<IndexSnapshot> snapshot = session.DescribeIndex("t", "x");
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot.value().kind, "adaptive");
  EXPECT_EQ(snapshot.value().num_rows, 20000);
  EXPECT_GT(snapshot.value().adaptation.zones_refined, 0);
  EXPECT_GT(snapshot.value().zone_count, 0);
  EXPECT_GT(snapshot.value().memory_bytes, 0);
  EXPECT_FALSE(session.DescribeIndex("t", "nope").ok());
  EXPECT_FALSE(session.DescribeIndex("other", "x").ok());
}

TEST(SessionTest, WorkloadStatsSummaryMentionsQueries) {
  Session session;
  ASSERT_TRUE(session.CreateTable("t").ok());
  ASSERT_TRUE(session.AddColumn<int64_t>("t", "x", {1, 2, 3}).ok());
  ASSERT_TRUE(
      session.ExecuteSpec(QuerySpec::Simple("t", Query::Count(Predicate::Equal<int64_t>("x", 2))))
          .ok());
  EXPECT_NE(session.workload_stats().Summary().find("1 queries"),
            std::string::npos);
}

// A bare query wrapped by QuerySpec::Simple answers the same on every
// submission, and each submission counts in the workload stats.
TEST(SessionTest, SimpleSpecRepeatsAndCountsEachSubmission) {
  Session session;
  ASSERT_TRUE(session.CreateTable("t").ok());
  ASSERT_TRUE(session.AddColumn<int64_t>("t", "x", {1, 2, 3, 4, 5}).ok());
  const Query query = Query::Count(Predicate::Between<int64_t>("x", 2, 4));
  Result<QueryResult> first =
      session.ExecuteSpec(QuerySpec::Simple("t", query));
  Result<QueryResult> second =
      session.ExecuteSpec(QuerySpec::Simple("t", query));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->count, 3);
  EXPECT_EQ(second->count, first->count);
  EXPECT_EQ(session.workload_stats().num_queries(), 2);
}

TEST(SessionTest, ExecuteSpecRejectsInvalidSpec) {
  Session session;
  ASSERT_TRUE(session.CreateTable("t").ok());
  ASSERT_TRUE(session.AddColumn<int64_t>("t", "x", {1, 2, 3}).ok());
  QuerySpec no_predicates;
  no_predicates.table = "t";
  EXPECT_EQ(session.ExecuteSpec(no_predicates).status().code(),
            StatusCode::kInvalidArgument);
  QuerySpec negative_deadline = QuerySpec::Simple(
      "t", Query::Count(Predicate::Equal<int64_t>("x", 1)));
  negative_deadline.deadline_nanos = -1;
  EXPECT_EQ(session.ExecuteSpec(negative_deadline).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SessionTest, ExecuteSpecHonorsTraceOverride) {
  Session session;
  ASSERT_TRUE(session.CreateTable("t").ok());
  ASSERT_TRUE(session.AddColumn<int64_t>("t", "x", {1, 2, 3, 4, 5}).ok());
  QuerySpec spec = QuerySpec::Simple(
      "t", Query::Count(Predicate::Between<int64_t>("x", 1, 3)));
  // Table default is kOff: no trace captured.
  Result<QueryResult> plain = session.ExecuteSpec(spec);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->trace, nullptr);
  // Per-query override captures a trace without touching table state.
  spec.trace_level = obs::TraceLevel::kSummary;
  Result<QueryResult> traced = session.ExecuteSpec(spec);
  ASSERT_TRUE(traced.ok());
  EXPECT_NE(traced->trace, nullptr);
  // And the table's configured level is back to kOff afterwards.
  spec.trace_level.reset();
  Result<QueryResult> after = session.ExecuteSpec(spec);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->trace, nullptr);
}

TEST(SessionConfigureTest, AppliesOptionsAtomically) {
  Session session;
  ASSERT_TRUE(session.CreateTable("t").ok());
  ASSERT_TRUE(session.AddColumn<int64_t>("t", "x", {1, 2, 3}).ok());

  SessionOptions options;
  ExecOptions exec;
  exec.num_threads = 2;
  exec.morsel_rows = 4096;
  options.tables["t"].exec = exec;
  obs::HealthMonitorOptions health;
  health.window_queries = 8;
  options.health = health;
  ASSERT_TRUE(session.Configure(options).ok());

  // The per-table exec options actually landed.
  ASSERT_TRUE(
      session
          .ExecuteSpec(QuerySpec::Simple(
              "t", Query::Count(Predicate::Equal<int64_t>("x", 2))))
          .ok());
}

TEST(SessionConfigureTest, RejectsUnknownTableWithoutApplyingAnything) {
  Session session;
  ASSERT_TRUE(session.CreateTable("t").ok());
  ASSERT_TRUE(session.AddColumn<int64_t>("t", "x", {1, 2, 3}).ok());

  SessionOptions options;
  ExecOptions good;
  good.num_threads = 2;
  options.tables["t"].exec = good;
  options.tables["missing"].exec = ExecOptions();
  EXPECT_EQ(session.Configure(options).code(), StatusCode::kNotFound);
}

TEST(SessionConfigureTest, RejectsInvalidKnobsInValidationPhase) {
  Session session;
  ASSERT_TRUE(session.CreateTable("t").ok());
  ASSERT_TRUE(session.AddColumn<int64_t>("t", "x", {1, 2, 3}).ok());

  SessionOptions bad_exec;
  ExecOptions exec;
  exec.num_threads = 0;
  bad_exec.tables["t"].exec = exec;
  EXPECT_EQ(session.Configure(bad_exec).code(), StatusCode::kInvalidArgument);

  SessionOptions bad_health;
  obs::HealthMonitorOptions health;
  health.window_queries = 0;
  bad_health.health = health;
  EXPECT_EQ(session.Configure(bad_health).code(),
            StatusCode::kInvalidArgument);

  SessionOptions bad_drop;
  obs::HealthMonitorOptions drop;
  drop.degrade_drop = 1.5;
  bad_drop.health = drop;
  EXPECT_EQ(session.Configure(bad_drop).code(), StatusCode::kInvalidArgument);
}

TEST(QueryStatsTest, ToStringContainsIndexName) {
  QueryStats stats;
  stats.index_name = "adaptive";
  stats.rows_total = 10;
  stats.rows_scanned = 5;
  EXPECT_NE(stats.ToString().find("[adaptive]"), std::string::npos);
  EXPECT_NEAR(stats.SkippedFraction(), 0.5, 1e-9);
}

}  // namespace
}  // namespace adaskip
