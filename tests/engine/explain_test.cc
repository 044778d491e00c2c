// Session::Explain and the per-query trace: coverage for the EXPLAIN
// rendering, span structure at each TraceLevel, and the adaptation
// actions attributed to a single query.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "adaskip/engine/session.h"
#include "adaskip/storage/table.h"
#include "adaskip/workload/data_generator.h"

namespace adaskip {
namespace {

void FillSession(Session* session, int64_t rows = 100000) {
  ADASKIP_CHECK_OK(session->CreateTable("t"));
  DataGenOptions gen;
  gen.order = DataOrder::kSorted;
  gen.num_rows = rows;
  gen.value_range = rows;
  ADASKIP_CHECK_OK(
      session->AddColumn<int64_t>("t", "x", GenerateData<int64_t>(gen)));
}

TEST(ExplainTest, NoTraceAtDefaultOff) {
  Session session;
  FillSession(&session);
  Result<QueryResult> result = session.ExecuteSpec(QuerySpec::Simple(
      "t", Query::Count(Predicate::Between<int64_t>("x", 100, 200))));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->trace, nullptr);
}

TEST(ExplainTest, SummaryTraceHasProbeScanAdaptSpans) {
  Session session;
  FillSession(&session);
  ASSERT_TRUE(session.AttachIndex("t", "x", IndexOptions::Adaptive()).ok());
  ExecOptions exec;
  exec.trace_level = obs::TraceLevel::kSummary;
  ASSERT_TRUE(session.SetExecOptions("t", exec).ok());
  Result<QueryResult> result = session.ExecuteSpec(QuerySpec::Simple(
      "t", Query::Count(Predicate::Between<int64_t>("x", 1000, 2000))));
  ASSERT_TRUE(result.ok());
  ASSERT_NE(result->trace, nullptr);
  EXPECT_EQ(result->trace->level(), obs::TraceLevel::kSummary);

  const obs::TraceSpan& root = result->trace->root();
  EXPECT_EQ(root.name, "query");
  EXPECT_GT(root.duration_nanos, 0);
  const obs::TraceSpan* probe = root.FindChild("probe");
  ASSERT_NE(probe, nullptr);
  EXPECT_NE(probe->Attr("zones_candidate"), "");
  EXPECT_NE(probe->Attr("zones_skipped"), "");
  const obs::TraceSpan* scan = root.FindChild("scan");
  ASSERT_NE(scan, nullptr);
  EXPECT_NE(scan->Attr("rows_scanned"), "");
  const obs::TraceSpan* adapt = root.FindChild("adapt");
  ASSERT_NE(adapt, nullptr);
  EXPECT_NE(adapt->Attr("mode"), "");
  // Summary keeps spans flat: no per-range children.
  EXPECT_EQ(scan->FindChild("range"), nullptr);
  EXPECT_EQ(scan->FindChild("morsel"), nullptr);
}

TEST(ExplainTest, DetailTraceBoundsPerRangeChildren) {
  Session session;
  FillSession(&session);
  ASSERT_TRUE(session.AttachIndex("t", "x", IndexOptions::ZoneMap(4096)).ok());
  ExecOptions exec;
  exec.trace_level = obs::TraceLevel::kDetail;
  ASSERT_TRUE(session.SetExecOptions("t", exec).ok());
  // Wide query: many candidate ranges would explode an unbounded trace.
  Result<QueryResult> result = session.ExecuteSpec(QuerySpec::Simple(
      "t", Query::Count(Predicate::Between<int64_t>("x", 0, 100000))));
  ASSERT_TRUE(result.ok());
  ASSERT_NE(result->trace, nullptr);
  const obs::TraceSpan* scan = result->trace->root().FindChild("scan");
  ASSERT_NE(scan, nullptr);
  EXPECT_LE(static_cast<int64_t>(scan->children.size()),
            obs::QueryTrace::kMaxDetailChildren);
}

TEST(ExplainTest, ExplainShowsCandidateVsSkippedZones) {
  Session session;
  FillSession(&session);
  ASSERT_TRUE(session.AttachIndex("t", "x", IndexOptions::Adaptive()).ok());
  Query query = Query::Count(Predicate::Between<int64_t>("x", 5000, 5100));
  Result<Explanation> explained = session.Explain("t", query);
  ASSERT_TRUE(explained.ok());
  EXPECT_NE(explained->text.find("EXPLAIN"), std::string::npos);
  EXPECT_NE(explained->text.find("zones_candidate="), std::string::npos);
  EXPECT_NE(explained->text.find("zones_skipped="), std::string::npos);
  EXPECT_NE(explained->text.find("adapt"), std::string::npos);
  EXPECT_NE(explained->text.find("cost_model="), std::string::npos);
  EXPECT_NE(explained->json.find("\"trace_level\":\"detail\""),
            std::string::npos);
  EXPECT_NE(explained->json.find("zones_candidate"), std::string::npos);
  // The explained query really ran (uniform data: ~101 expected matches).
  EXPECT_GT(explained->result.count, 0);
}

TEST(ExplainTest, ExplainAttributesAdaptationActionsToTheQuery) {
  Session session;
  FillSession(&session);
  AdaptiveOptions adaptive;
  adaptive.min_zone_size = 128;
  ASSERT_TRUE(
      session.AttachIndex("t", "x", IndexOptions::Adaptive(adaptive)).ok());
  // First narrow query on a fresh default layout: feedback should refine
  // at least one zone, and the per-query adapt span must say so.
  Query query = Query::Count(Predicate::Between<int64_t>("x", 40000, 40200));
  Result<Explanation> explained = session.Explain("t", query);
  ASSERT_TRUE(explained.ok());
  const obs::TraceSpan* adapt =
      explained->result.trace->root().FindChild("adapt");
  ASSERT_NE(adapt, nullptr);
  EXPECT_NE(adapt->Attr("zones_refined"), "0");
  // Detail level captures index state before and after the query.
  EXPECT_NE(adapt->Attr("index_before"), "");
  EXPECT_NE(adapt->Attr("index_after"), "");
  EXPECT_NE(adapt->Attr("index_before"), adapt->Attr("index_after"));
}

TEST(ExplainTest, ExplainRestoresCallerExecOptions) {
  Session session;
  FillSession(&session);
  ASSERT_TRUE(session.AttachIndex("t", "x", IndexOptions::ZoneMap()).ok());
  ExecOptions exec;
  exec.trace_level = obs::TraceLevel::kOff;
  exec.morsel_rows = 4096;
  ASSERT_TRUE(session.SetExecOptions("t", exec).ok());
  Query query = Query::Count(Predicate::Between<int64_t>("x", 10, 20));
  ASSERT_TRUE(session.Explain("t", query).ok());
  // Follow-up Execute is back at kOff: no trace allocated.
  Result<QueryResult> result = session.ExecuteSpec(QuerySpec::Simple("t", query));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->trace, nullptr);
}

TEST(ExplainTest, ExplainOnMissingTableFails) {
  Session session;
  EXPECT_EQ(session
                .Explain("nope",
                         Query::Count(Predicate::Between<int64_t>("x", 0, 1)))
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(ExplainTest, ConjunctionTraceHasPerPredicateSpans) {
  Session session;
  FillSession(&session);
  ASSERT_TRUE(session.AttachIndex("t", "x", IndexOptions::Adaptive()).ok());
  Query query = Query::Count(Predicate::Between<int64_t>("x", 1000, 9000));
  query.predicates.push_back(Predicate::Between<int64_t>("x", 2000, 8000));
  Result<Explanation> explained = session.Explain("t", query);
  ASSERT_TRUE(explained.ok());
  const obs::TraceSpan& root = explained->result.trace->root();
  const obs::TraceSpan* probe = root.FindChild("probe");
  ASSERT_NE(probe, nullptr);
  EXPECT_EQ(probe->children.size(), 2u);
  for (const obs::TraceSpan& child : probe->children) {
    EXPECT_EQ(child.name, "predicate");
    EXPECT_EQ(child.Attr("column"), "x");
  }
  // Each term reports how many candidate rows it matched by itself. The
  // second term's window lies inside the first's, so it filters exactly
  // the conjunction; the first keeps at least that many.
  const QueryStats& stats = explained->result.stats;
  ASSERT_EQ(probe->children.size(), 2u);
  EXPECT_GE(std::stoll(std::string(probe->children[0].Attr("own_matches"))),
            stats.rows_matched);
  EXPECT_EQ(probe->children[1].Attr("own_matches"),
            std::to_string(stats.rows_matched));
  EXPECT_GT(stats.rows_matched, 0);
  const obs::TraceSpan* scan = root.FindChild("scan");
  ASSERT_NE(scan, nullptr);
  EXPECT_EQ(scan->Attr("rows_scanned_packed"),
            std::to_string(stats.rows_scanned_packed));
  ASSERT_NE(root.FindChild("adapt"), nullptr);
}

// Same span shape as the single-predicate path on packed segments: the
// conjunction's scan span reports the packed rows, and own_matches per
// term equal naive counts over the scanned rows.
TEST(ExplainTest, ConjunctionTraceReportsPackedRowsAndOwnMatches) {
  constexpr int64_t kSegmentRows = 4096;
  constexpr int64_t kRows = 3 * kSegmentRows + 100;
  std::vector<int64_t> x(kRows);
  std::vector<int64_t> y(kRows);
  for (int64_t i = 0; i < kRows; ++i) {
    x[static_cast<size_t>(i)] = (i * 37) % 200;  // Packs at 8 bits.
    y[static_cast<size_t>(i)] = (i * 11) % 1000;
  }
  Session session;
  auto table = std::make_shared<Table>("t");
  ASSERT_TRUE(table->AddColumn("x", MakeColumn(x, kSegmentRows)).ok());
  ASSERT_TRUE(table->AddColumn("y", MakeColumn(y, kSegmentRows)).ok());
  ASSERT_TRUE(session.RegisterTable(table).ok());
  SegmentLayoutOptions layout;
  layout.enabled = true;
  layout.policy.min_rows = kSegmentRows;
  ASSERT_TRUE(session.SetSegmentLayoutOptions("t", layout).ok());
  Query query = Query::Count(Predicate::Between<int64_t>("x", 10, 90));
  query.predicates.push_back(Predicate::Between<int64_t>("y", 100, 600));
  Result<Explanation> explained = session.Explain("t", query);
  ASSERT_TRUE(explained.ok());
  const QueryStats& stats = explained->result.stats;
  EXPECT_GT(stats.rows_scanned_packed, 0);
  const obs::TraceSpan& root = explained->result.trace->root();
  const obs::TraceSpan* scan = root.FindChild("scan");
  ASSERT_NE(scan, nullptr);
  EXPECT_EQ(scan->Attr("rows_scanned_packed"),
            std::to_string(stats.rows_scanned_packed));

  int64_t own_x = 0;
  int64_t own_y = 0;
  int64_t both = 0;
  for (int64_t i = 0; i < kRows; ++i) {
    const bool in_x = x[static_cast<size_t>(i)] >= 10 &&
                      x[static_cast<size_t>(i)] <= 90;
    const bool in_y = y[static_cast<size_t>(i)] >= 100 &&
                      y[static_cast<size_t>(i)] <= 600;
    own_x += in_x ? 1 : 0;
    own_y += in_y ? 1 : 0;
    both += (in_x && in_y) ? 1 : 0;
  }
  EXPECT_EQ(explained->result.count, both);
  const obs::TraceSpan* probe = root.FindChild("probe");
  ASSERT_NE(probe, nullptr);
  ASSERT_EQ(probe->children.size(), 2u);
  EXPECT_EQ(probe->children[0].Attr("own_matches"), std::to_string(own_x));
  EXPECT_EQ(probe->children[1].Attr("own_matches"), std::to_string(own_y));
}

}  // namespace
}  // namespace adaskip
