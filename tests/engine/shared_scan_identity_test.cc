// The shared-pass equivalence oracle: for EVERY skip-index kind and
// batch widths 1/4/64, a query stream executed through shared batches
// (Session::ExecuteShared) must leave results, index state
// (DescribeIndex), and the adaptation journal bit-identical to the same
// stream executed one query at a time in submission order. This is the
// contract that lets the QueryServer batch aggressively without
// perturbing the paper's adaptive feedback loop.
//
// Int64 columns throughout: for float columns SUM equality carries the
// usual accumulation-order caveat (see ScanExecutor::ExecuteShared).

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "adaskip/engine/session.h"
#include "adaskip/workload/data_generator.h"

namespace adaskip {
namespace {

constexpr int64_t kRows = 24000;
constexpr int kQueries = 64;

IndexOptions MakeIndexOptions(IndexKind kind) {
  IndexOptions options;
  options.kind = kind;
  // Small zones so the stream actually triggers adaptation.
  options.zone_map.zone_size = 512;
  options.adaptive.min_zone_size = 128;
  return options;
}

std::unique_ptr<Session> MakeArm(IndexKind kind) {
  auto session = std::make_unique<Session>();
  ADASKIP_CHECK_OK(session->CreateTable("t"));
  DataGenOptions gen;
  gen.order = DataOrder::kClustered;
  gen.num_rows = kRows;
  gen.value_range = kRows;
  gen.seed = 13;
  ADASKIP_CHECK_OK(
      session->AddColumn<int64_t>("t", "x", GenerateData<int64_t>(gen)));
  DataGenOptions gen_y = gen;
  gen_y.order = DataOrder::kUniform;
  gen_y.seed = 29;
  ADASKIP_CHECK_OK(
      session->AddColumn<int64_t>("t", "y", GenerateData<int64_t>(gen_y)));
  ADASKIP_CHECK_OK(session->AttachIndex("t", "x", MakeIndexOptions(kind)));
  // Journal every structural adaptation, so the two arms' event streams
  // can be compared entry by entry.
  ExecOptions exec;
  exec.journal_events = true;
  ADASKIP_CHECK_OK(session->SetExecOptions("t", exec));
  return session;
}

// A deterministic mixed stream: drifting range COUNTs (the adaptation
// driver), plus SUM/MIN/MAX/MATERIALIZE and a couple of conjunctions
// (which take the solo lane inside a shared batch). Cases 1, 6, and 7
// repeat FIXED predicates so wide batches contain duplicate-predicate
// groups — including a COUNT/SUM pair sharing one predicate and
// repeated MATERIALIZEs (the match-positions copy path).
std::vector<QuerySpec> MakeStream() {
  const Predicate fixed_hot = Predicate::Between<int64_t>("x", 5000, 5600);
  const Predicate fixed_rows = Predicate::Between<int64_t>("x", 7000, 7800);
  std::vector<QuerySpec> specs;
  for (int i = 0; i < kQueries; ++i) {
    const int64_t lo = (i * 331) % (kRows - 1200);
    const int64_t hi = lo + 400 + (i % 5) * 160;
    Query query;
    switch (i % 8) {
      case 1:
        query = Query::Count(fixed_hot);
        break;
      case 6:
        query = Query::Sum(fixed_hot);
        break;
      case 3:
        query = Query::Min(Predicate::Between<int64_t>("x", lo, hi));
        break;
      case 5:
        query = Query::Max(Predicate::Between<int64_t>("x", lo, hi));
        break;
      case 7:
        query = Query::Materialize(fixed_rows);
        break;
      case 4: {
        // Conjunction: solo lane, still replayed at its turn.
        query = Query::Count(Predicate::Between<int64_t>("x", lo, hi));
        query.predicates.push_back(
            Predicate::Between<int64_t>("y", 0, kRows / 2));
        break;
      }
      default:
        query = Query::Count(Predicate::Between<int64_t>("x", lo, hi));
        break;
    }
    specs.push_back(QuerySpec::Simple("t", std::move(query)));
  }
  return specs;
}

void ExpectSameResult(const QueryResult& serial, const QueryResult& shared,
                      int query_index) {
  SCOPED_TRACE("query #" + std::to_string(query_index));
  EXPECT_EQ(serial.count, shared.count);
  EXPECT_EQ(serial.sum, shared.sum);  // Int payloads: exact in double.
  if (std::isnan(serial.min)) {
    EXPECT_TRUE(std::isnan(shared.min));
  } else {
    EXPECT_EQ(serial.min, shared.min);
  }
  if (std::isnan(serial.max)) {
    EXPECT_TRUE(std::isnan(shared.max));
  } else {
    EXPECT_EQ(serial.max, shared.max);
  }
  EXPECT_TRUE(serial.rows == shared.rows);
  // Serial-equivalent accounting: the shared pass must report the same
  // logical scan footprint the standalone execution had.
  EXPECT_EQ(serial.stats.rows_total, shared.stats.rows_total);
  EXPECT_EQ(serial.stats.rows_scanned, shared.stats.rows_scanned);
  EXPECT_EQ(serial.stats.rows_matched, shared.stats.rows_matched);
}

void ExpectSameIndexState(Session* serial, Session* shared) {
  Result<IndexSnapshot> a = serial->DescribeIndex("t", "x");
  Result<IndexSnapshot> b = shared->DescribeIndex("t", "x");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->kind, b->kind);
  EXPECT_EQ(a->num_rows, b->num_rows);
  EXPECT_EQ(a->zone_count, b->zone_count);
  EXPECT_EQ(a->memory_bytes, b->memory_bytes);
  EXPECT_EQ(a->unindexed_tail_rows, b->unindexed_tail_rows);
  // The full rendered state, zone boundaries and all.
  EXPECT_EQ(a->description, b->description);
  EXPECT_EQ(a->adaptation.zones_refined, b->adaptation.zones_refined);
  EXPECT_EQ(a->adaptation.zones_merged, b->adaptation.zones_merged);
  EXPECT_EQ(a->adaptation.rebuilds, b->adaptation.rebuilds);
  EXPECT_EQ(a->adaptation.tail_absorbs, b->adaptation.tail_absorbs);
  EXPECT_EQ(a->adaptation.bypassed_probes, b->adaptation.bypassed_probes);
  EXPECT_EQ(a->adaptation.bypass, b->adaptation.bypass);
  EXPECT_EQ(a->adaptation.queries_observed, b->adaptation.queries_observed);
  EXPECT_EQ(a->adaptation.skipped_fraction_ewma,
            b->adaptation.skipped_fraction_ewma);
  EXPECT_EQ(a->adaptation.entries_per_row_ewma,
            b->adaptation.entries_per_row_ewma);
  EXPECT_EQ(a->adaptation.net_benefit_per_row,
            b->adaptation.net_benefit_per_row);
}

// Journal equality modulo wall-clock timestamps (`nanos` is the only
// nondeterministic field; replay ignores it too).
void ExpectSameJournal(Session* serial, Session* shared) {
  std::vector<obs::JournalEvent> a = serial->journal().Snapshot();
  std::vector<obs::JournalEvent> b = shared->journal().Snapshot();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("journal event #" + std::to_string(i));
    EXPECT_EQ(a[i].seq, b[i].seq);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].scope, b[i].scope);
    EXPECT_EQ(a[i].query_seq, b[i].query_seq);
    EXPECT_EQ(a[i].args, b[i].args);
    EXPECT_EQ(a[i].values, b[i].values);
    EXPECT_EQ(a[i].detail, b[i].detail);
  }
}

class SharedScanIdentityTest
    : public ::testing::TestWithParam<std::tuple<IndexKind, int>> {};

TEST_P(SharedScanIdentityTest, SharedBatchesMatchSerialExecution) {
  const IndexKind kind = std::get<0>(GetParam());
  const int width = std::get<1>(GetParam());

  auto serial = MakeArm(kind);
  auto shared = MakeArm(kind);
  const std::vector<QuerySpec> specs = MakeStream();

  std::vector<QueryResult> serial_results;
  for (const QuerySpec& spec : specs) {
    Result<QueryResult> result = serial->ExecuteSpec(spec);
    ASSERT_TRUE(result.ok()) << result.status();
    serial_results.push_back(std::move(result).value());
  }

  std::vector<QueryResult> shared_results;
  for (size_t begin = 0; begin < specs.size();
       begin += static_cast<size_t>(width)) {
    const size_t end =
        std::min(specs.size(), begin + static_cast<size_t>(width));
    std::vector<QuerySpec> batch(specs.begin() + static_cast<int64_t>(begin),
                                 specs.begin() + static_cast<int64_t>(end));
    std::vector<Result<QueryResult>> results =
        shared->ExecuteShared("t", batch);
    ASSERT_EQ(results.size(), batch.size());
    for (Result<QueryResult>& result : results) {
      ASSERT_TRUE(result.ok()) << result.status();
      shared_results.push_back(std::move(result).value());
    }
  }

  ASSERT_EQ(serial_results.size(), shared_results.size());
  for (size_t i = 0; i < serial_results.size(); ++i) {
    ExpectSameResult(serial_results[i], shared_results[i],
                     static_cast<int>(i));
  }
  ExpectSameIndexState(serial.get(), shared.get());
  ExpectSameJournal(serial.get(), shared.get());

  // Both arms saw the identical query stream in their workload stats.
  EXPECT_EQ(serial->workload_stats().num_queries(),
            shared->workload_stats().num_queries());
  EXPECT_EQ(serial->workload_stats().rows_scanned(),
            shared->workload_stats().rows_scanned());
}

INSTANTIATE_TEST_SUITE_P(
    AllKindsAllWidths, SharedScanIdentityTest,
    ::testing::Combine(::testing::Values(IndexKind::kFullScan,
                                         IndexKind::kZoneMap,
                                         IndexKind::kZoneTree,
                                         IndexKind::kImprints,
                                         IndexKind::kBloomZoneMap,
                                         IndexKind::kAdaptive,
                                         IndexKind::kAdaptiveImprints),
                       ::testing::Values(1, 4, 64)),
    [](const ::testing::TestParamInfo<std::tuple<IndexKind, int>>&
           case_info) {
      return std::string(IndexKindToString(std::get<0>(case_info.param))) +
             "_width" + std::to_string(std::get<1>(case_info.param));
    });

}  // namespace
}  // namespace adaskip
