// End-to-end pin of the dispatch bit-identity contract
// (scan/simd/kernel_dispatch.h): the same adaptive workload — appends
// sealing segments, cost-model layout decisions, every aggregate kind,
// serial and morsel-parallel execution, a conjunction — run once with
// the kernels forced scalar and once with the native resolution (AVX2
// on hosts that have it) must produce bit-identical query results,
// identical index adaptation state, and an identical journal event
// stream. This is the test behind the CI leg that sets
// ADASKIP_FORCE_SCALAR=1: if it holds, the env override can never
// change an answer.

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "adaskip/engine/session.h"
#include "adaskip/scan/simd/kernel_dispatch.h"
#include "adaskip/storage/table.h"

namespace adaskip {
namespace {

constexpr int64_t kSegmentRows = 1024;
constexpr int64_t kInitialRows = 4 * kSegmentRows + 133;
constexpr int64_t kAppendRows = 2 * kSegmentRows + 57;

// Deterministic narrow-range data: int64 payload packs (range fits 16
// bits), double payload exercises the striped float kernels.
std::vector<int64_t> MakeIntValues(int64_t n, int64_t offset) {
  std::vector<int64_t> values(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    values[static_cast<size_t>(i)] = 100 + ((i * 37 + offset) % 1000);
  }
  return values;
}

std::vector<double> MakeDoubleValues(int64_t n, int64_t offset) {
  std::vector<double> values(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    values[static_cast<size_t>(i)] =
        0.125 * static_cast<double>(((i * 61 + offset) % 4001) - 2000);
  }
  return values;
}

struct CapturedResult {
  int64_t count;
  double sum;
  double min;
  double max;
  std::vector<int64_t> rows;
  int64_t rows_scanned;
  int64_t rows_scanned_packed;
};

struct Outcome {
  std::vector<CapturedResult> results;
  IndexSnapshot index;
  int64_t packed_segments = 0;
  std::vector<obs::JournalEvent> journal;
};

CapturedResult Capture(const QueryResult& result) {
  CapturedResult out;
  out.count = result.count;
  out.sum = result.sum;
  out.min = result.min;
  out.max = result.max;
  out.rows.reserve(static_cast<size_t>(result.rows.size()));
  for (int64_t i = 0; i < result.rows.size(); ++i) {
    out.rows.push_back(result.rows[i]);
  }
  out.rows_scanned = result.stats.rows_scanned;
  out.rows_scanned_packed = result.stats.rows_scanned_packed;
  return out;
}

Outcome RunWorkload(bool force_scalar, int num_threads) {
  simd::ReinitDispatchForTest(force_scalar);

  Session session;
  auto table = std::make_shared<Table>("t");
  ADASKIP_CHECK_OK(table->AddColumn(
      "x", MakeColumn(MakeIntValues(kInitialRows, 0), kSegmentRows)));
  ADASKIP_CHECK_OK(table->AddColumn(
      "y", MakeColumn(MakeDoubleValues(kInitialRows, 0), kSegmentRows)));
  ADASKIP_CHECK_OK(session.RegisterTable(table));
  ADASKIP_CHECK_OK(session.AttachIndex("t", "x", IndexOptions::Adaptive()));

  ExecOptions exec;
  exec.num_threads = num_threads;
  exec.morsel_rows = 512;
  exec.journal_events = true;
  ADASKIP_CHECK_OK(session.SetExecOptions("t", exec));

  SegmentLayoutOptions layout;
  layout.enabled = true;
  layout.policy.min_rows = kSegmentRows;
  ADASKIP_CHECK_OK(session.SetSegmentLayoutOptions("t", layout));

  Outcome outcome;
  auto run = [&](const Query& query) {
    Result<QueryResult> result = session.ExecuteSpec(QuerySpec::Simple("t", query));
    ADASKIP_CHECK_OK(result);
    outcome.results.push_back(Capture(result.value()));
  };

  for (int64_t step = 0; step < 24; ++step) {
    const int64_t lo = 100 + (step * 83) % 700;
    const int64_t hi = lo + 10 + (step * 29) % 250;
    const Predicate pred = Predicate::Between<int64_t>("x", lo, hi);
    run(Query::Count(pred));
    run(Query::Sum(pred));
    run(Query::Min(pred));
    run(Query::Max(pred));
    run(Query::Materialize(pred));
    const double dlo = -200.0 + static_cast<double>(step) * 13.5;
    run(Query::Sum(Predicate::Between<double>("y", dlo, dlo + 40.25)));
    // Conjunction: match words ANDed across both columns.
    Query conj = Query::Count(pred);
    conj.predicates.push_back(
        Predicate::Between<double>("y", -100.0, 150.0));
    run(conj);
    if (step == 11) {
      // Mid-workload ingest seals more segments; the cost model runs on
      // each and journals its verdicts.
      AppendBatch batch;
      batch.Add("x", MakeIntValues(kAppendRows, 7));
      batch.Add("y", MakeDoubleValues(kAppendRows, 7));
      ADASKIP_CHECK_OK(session.Append("t", batch));
    }
  }

  Result<IndexSnapshot> snapshot = session.DescribeIndex("t", "x");
  ADASKIP_CHECK_OK(snapshot);
  outcome.index = std::move(snapshot).value();
  outcome.packed_segments =
      table->column(table->ColumnIndex("x")).num_packed_segments();
  outcome.journal = session.journal().Snapshot();
  return outcome;
}

void ExpectOutcomesIdentical(const Outcome& scalar, const Outcome& native) {
  ASSERT_EQ(scalar.results.size(), native.results.size());
  for (size_t i = 0; i < scalar.results.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "query " << i);
    const CapturedResult& a = scalar.results[i];
    const CapturedResult& b = native.results[i];
    EXPECT_EQ(a.count, b.count);
    EXPECT_EQ(a.sum, b.sum) << "sums must be bit-identical, not just close";
    // Bitwise comparison so the untouched-NaN sentinels (COUNT /
    // MATERIALIZE results, empty matches) compare equal too.
    EXPECT_EQ(std::bit_cast<uint64_t>(a.min), std::bit_cast<uint64_t>(b.min));
    EXPECT_EQ(std::bit_cast<uint64_t>(a.max), std::bit_cast<uint64_t>(b.max));
    EXPECT_EQ(a.rows, b.rows);
    EXPECT_EQ(a.rows_scanned, b.rows_scanned);
    EXPECT_EQ(a.rows_scanned_packed, b.rows_scanned_packed);
  }

  // Same adaptation history => same final index structure.
  EXPECT_EQ(scalar.index.description, native.index.description);
  EXPECT_EQ(scalar.index.zone_count, native.index.zone_count);
  EXPECT_EQ(scalar.index.num_rows, native.index.num_rows);
  EXPECT_EQ(scalar.index.adaptation.zones_refined,
            native.index.adaptation.zones_refined);
  EXPECT_EQ(scalar.index.adaptation.zones_merged,
            native.index.adaptation.zones_merged);
  EXPECT_EQ(scalar.index.adaptation.queries_observed,
            native.index.adaptation.queries_observed);
  EXPECT_EQ(scalar.index.adaptation.skipped_fraction_ewma,
            native.index.adaptation.skipped_fraction_ewma);

  // Same layout decisions, and the same journal stream event by event
  // (timestamps excluded: they are wall clock, not state).
  EXPECT_EQ(scalar.packed_segments, native.packed_segments);
  ASSERT_EQ(scalar.journal.size(), native.journal.size());
  for (size_t i = 0; i < scalar.journal.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "journal seq " << i);
    EXPECT_EQ(scalar.journal[i].kind, native.journal[i].kind);
    EXPECT_EQ(scalar.journal[i].scope, native.journal[i].scope);
    EXPECT_EQ(scalar.journal[i].args, native.journal[i].args);
    EXPECT_EQ(scalar.journal[i].values, native.journal[i].values);
    EXPECT_EQ(scalar.journal[i].detail, native.journal[i].detail);
  }
}

// Restores the process-wide dispatch to what the environment says after
// each test, so test order never leaks a forced path.
class ForceScalarEquivalenceTest : public testing::Test {
 protected:
  ~ForceScalarEquivalenceTest() override {
    const char* env = std::getenv("ADASKIP_FORCE_SCALAR");
    simd::ReinitDispatchForTest(env != nullptr && *env != '\0' &&
                                std::strcmp(env, "0") != 0);
  }
};

TEST_F(ForceScalarEquivalenceTest, SerialWorkloadBitIdentical) {
  Outcome scalar = RunWorkload(/*force_scalar=*/true, /*num_threads=*/1);
  Outcome native = RunWorkload(/*force_scalar=*/false, /*num_threads=*/1);
  // The workload is built to trigger at least one packed adoption; the
  // equivalence must hold across the packed kernels too.
  EXPECT_GT(scalar.packed_segments, 0);
  ExpectOutcomesIdentical(scalar, native);
}

TEST_F(ForceScalarEquivalenceTest, ParallelWorkloadBitIdentical) {
  Outcome scalar = RunWorkload(/*force_scalar=*/true, /*num_threads=*/4);
  Outcome native = RunWorkload(/*force_scalar=*/false, /*num_threads=*/4);
  ExpectOutcomesIdentical(scalar, native);
}

TEST_F(ForceScalarEquivalenceTest, SerialAndParallelAgree) {
  Outcome serial = RunWorkload(/*force_scalar=*/false, /*num_threads=*/1);
  Outcome parallel = RunWorkload(/*force_scalar=*/false, /*num_threads=*/4);
  ASSERT_EQ(serial.results.size(), parallel.results.size());
  for (size_t i = 0; i < serial.results.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "query " << i);
    EXPECT_EQ(serial.results[i].count, parallel.results[i].count);
    EXPECT_EQ(serial.results[i].sum, parallel.results[i].sum);
    EXPECT_EQ(serial.results[i].rows, parallel.results[i].rows);
  }
}

}  // namespace
}  // namespace adaskip
