// Parallel-vs-serial equivalence: the morsel-driven path must produce
// results identical to the serial path — same aggregates, identical
// SelectionVector order — and, because feedback is buffered and replayed
// in range order by the coordinator, an identical post-query adaptive
// index state after a long query sequence.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "adaskip/adaptive/adaptive_zone_map.h"
#include "adaskip/engine/scan_executor.h"
#include "adaskip/engine/session.h"
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
  ADASKIP_CHECK_OK(
      table->AddColumn("x", MakeColumn(GenerateData<int64_t>(gen))));
  gen.seed = seed + 1;
  gen.order = DataOrder::kUniform;
  ADASKIP_CHECK_OK(
      table->AddColumn("y", MakeColumn(GenerateData<int64_t>(gen))));
  return table;
}

/// One executor arm: its own table copy, index manager, and executor, so
/// adaptation state never leaks between the serial and parallel arms.
struct Arm {
  std::shared_ptr<Table> table;
  std::unique_ptr<IndexManager> indexes;
  std::unique_ptr<ScanExecutor> executor;

  Arm(DataOrder order, int64_t num_rows, uint64_t seed,
      const IndexOptions& index, const ExecOptions& exec) {
    table = MakeTestTable(order, num_rows, seed);
    indexes = std::make_unique<IndexManager>(table);
    ADASKIP_CHECK_OK(indexes->AttachIndex("x", index));
    executor = std::make_unique<ScanExecutor>(table, indexes.get(), exec);
  }

  const AdaptiveZoneMapT<int64_t>& adaptive() const {
    SkipIndex* index = indexes->GetIndex("x");
    ADASKIP_CHECK(index != nullptr && index->name() == "adaptive");
    return *static_cast<AdaptiveZoneMapT<int64_t>*>(index);
  }
};

/// The 100-query mixed-aggregate stream both arms replay.
std::vector<Query> MakeQueryStream(const Table& table, int count) {
  const auto& x = *table.ColumnByName("x").value()->As<int64_t>();
  QueryGenOptions qgen;
  qgen.selectivity = 0.02;
  qgen.seed = 17;
  QueryGenerator<int64_t> generator("x", x.data(), qgen);
  const AggregateKind aggregates[] = {
      AggregateKind::kCount, AggregateKind::kSum, AggregateKind::kMin,
      AggregateKind::kMax, AggregateKind::kMaterialize};
  std::vector<Query> queries;
  for (int i = 0; i < count; ++i) {
    Query query;
    query.predicates = {generator.Next()};
    query.aggregate = aggregates[i % 5];
    queries.push_back(query);
  }
  return queries;
}

void ExpectSameScalar(double a, double b, const std::string& context) {
  if (std::isnan(a) || std::isnan(b)) {
    EXPECT_TRUE(std::isnan(a) && std::isnan(b)) << context;
  } else {
    EXPECT_EQ(a, b) << context;
  }
}

void ExpectSameResult(const QueryResult& serial, const QueryResult& parallel,
                      const std::string& context) {
  EXPECT_EQ(serial.count, parallel.count) << context;
  // Bit-identical for integer columns: every partial double sum is an
  // exactly representable integer.
  EXPECT_EQ(serial.sum, parallel.sum) << context;
  // min/max are NaN unless a min/max aggregate ran AND matched rows:
  // "equal or both NaN" (EXPECT_EQ would reject NaN==NaN).
  ExpectSameScalar(serial.min, parallel.min, context);
  ExpectSameScalar(serial.max, parallel.max, context);
  EXPECT_EQ(serial.rows, parallel.rows) << context;
}

void ExpectSameAdaptiveState(const AdaptiveZoneMapT<int64_t>& a,
                             const AdaptiveZoneMapT<int64_t>& b) {
  EXPECT_EQ(a.split_count(), b.split_count());
  EXPECT_EQ(a.merge_count(), b.merge_count());
  EXPECT_EQ(a.mode(), b.mode());
  EXPECT_EQ(a.query_count(), b.query_count());
  ASSERT_EQ(a.zones().size(), b.zones().size());
  for (size_t i = 0; i < a.zones().size(); ++i) {
    const auto& za = a.zones()[i];
    const auto& zb = b.zones()[i];
    EXPECT_EQ(za.begin, zb.begin) << "zone " << i;
    EXPECT_EQ(za.end, zb.end) << "zone " << i;
    EXPECT_EQ(za.min, zb.min) << "zone " << i;
    EXPECT_EQ(za.max, zb.max) << "zone " << i;
    EXPECT_EQ(za.last_candidate_seq, zb.last_candidate_seq) << "zone " << i;
  }
  EXPECT_TRUE(a.CheckInvariants());
  EXPECT_TRUE(b.CheckInvariants());
}

class ParallelEquivalenceTest : public ::testing::TestWithParam<int> {};

// The acceptance test: a 100-query mixed-aggregate sequence over an
// adaptive index, serial arm vs parallel arm, compared query by query and
// by final adaptive state.
TEST_P(ParallelEquivalenceTest, MatchesSerialOnAdaptiveIndex) {
  const int num_threads = GetParam();
  IndexOptions index = IndexOptions::Adaptive();
  index.adaptive.min_zone_size = 64;

  ExecOptions parallel_exec;
  parallel_exec.num_threads = num_threads;
  parallel_exec.morsel_rows = 512;  // Force real morsel fan-out.

  Arm serial(DataOrder::kClustered, 25000, 11, index, ExecOptions{});
  Arm parallel(DataOrder::kClustered, 25000, 11, index, parallel_exec);

  std::vector<Query> queries = MakeQueryStream(*serial.table, 100);
  for (size_t q = 0; q < queries.size(); ++q) {
    Result<QueryResult> rs = serial.executor->Execute(queries[q]);
    Result<QueryResult> rp = parallel.executor->Execute(queries[q]);
    ASSERT_TRUE(rs.ok()) << rs.status();
    ASSERT_TRUE(rp.ok()) << rp.status();
    ExpectSameResult(*rs, *rp,
                     "query " + std::to_string(q) + ": " +
                         queries[q].ToString());
    EXPECT_EQ(rs->stats.rows_scanned, rp->stats.rows_scanned)
        << "query " << q;
  }
  ExpectSameAdaptiveState(serial.adaptive(), parallel.adaptive());
}

// No index: the full column is one candidate range; the morsel scheduler
// splits it across workers and must agree with the serial scan.
TEST_P(ParallelEquivalenceTest, MatchesSerialOnFullScans) {
  const int num_threads = GetParam();
  auto table = MakeTestTable(DataOrder::kUniform, 30000, 23);
  ScanExecutor serial(table, nullptr);
  ExecOptions exec;
  exec.num_threads = num_threads;
  exec.morsel_rows = 1024;
  ScanExecutor parallel(table, nullptr, exec);

  std::vector<Query> queries = MakeQueryStream(*table, 25);
  for (const Query& query : queries) {
    Result<QueryResult> rs = serial.Execute(query);
    Result<QueryResult> rp = parallel.Execute(query);
    ASSERT_TRUE(rs.ok() && rp.ok());
    ExpectSameResult(*rs, *rp, query.ToString());
  }
}

// Conjunctions: intersected candidates are scanned morsel-wise too, and
// the per-column feedback replay must keep the adaptive index in
// lockstep with the serial arm.
TEST_P(ParallelEquivalenceTest, MatchesSerialOnConjunctions) {
  const int num_threads = GetParam();
  IndexOptions index = IndexOptions::Adaptive();
  index.adaptive.min_zone_size = 64;

  ExecOptions parallel_exec;
  parallel_exec.num_threads = num_threads;
  parallel_exec.morsel_rows = 512;

  Arm serial(DataOrder::kClustered, 25000, 31, index, ExecOptions{});
  Arm parallel(DataOrder::kClustered, 25000, 31, index, parallel_exec);

  const auto& x = *serial.table->ColumnByName("x").value()->As<int64_t>();
  QueryGenOptions qgen;
  qgen.selectivity = 0.1;
  qgen.seed = 37;
  QueryGenerator<int64_t> generator("x", x.data(), qgen);
  const AggregateKind aggregates[] = {
      AggregateKind::kCount, AggregateKind::kSum, AggregateKind::kMin,
      AggregateKind::kMax, AggregateKind::kMaterialize};
  for (int i = 0; i < 50; ++i) {
    Query query;
    query.predicates = {generator.Next(),
                        Predicate::Between<int64_t>("y", 0, 60000)};
    query.aggregate = aggregates[i % 5];
    if (query.aggregate != AggregateKind::kCount &&
        query.aggregate != AggregateKind::kMaterialize) {
      query.aggregate_column = std::string("y");
    }
    Result<QueryResult> rs = serial.executor->Execute(query);
    Result<QueryResult> rp = parallel.executor->Execute(query);
    ASSERT_TRUE(rs.ok() && rp.ok());
    ASSERT_EQ(rs->stats.index_name, "conjunction");
    ExpectSameResult(*rs, *rp, query.ToString());
  }
  ExpectSameAdaptiveState(serial.adaptive(), parallel.adaptive());
}

// Float and double SUM depend on the reduction order. Serial and parallel
// runs fold one partial per morsel in morsel order, so with the same
// morsel size their sums agree bit for bit at every thread count — over
// zonemap candidates and over full scans of an unindexed column.
TEST_P(ParallelEquivalenceTest, FloatingSumsMatchSerialBitForBit) {
  constexpr int64_t kRows = 30000;
  std::mt19937_64 rng(71);
  std::uniform_real_distribution<double> step(-1.0, 1.0);
  std::vector<double> d(static_cast<size_t>(kRows));
  std::vector<float> f(static_cast<size_t>(kRows));
  double walk = 0.0;
  for (size_t i = 0; i < d.size(); ++i) {
    walk += step(rng);
    d[i] = walk + step(rng) / 3.0;  // Sums are not exact in double.
    f[i] = static_cast<float>(d[i]);
  }
  auto table = std::make_shared<Table>("t");
  ASSERT_TRUE(table->AddColumn("d", MakeColumn(d, 4096)).ok());
  ASSERT_TRUE(table->AddColumn("f", MakeColumn(f, 4096)).ok());
  IndexManager indexes(table);  // Static: both executors may share it.
  ASSERT_TRUE(indexes.AttachIndex("d", IndexOptions::ZoneMap(1000)).ok());
  ExecOptions serial_exec;
  serial_exec.morsel_rows = 700;
  ExecOptions parallel_exec = serial_exec;
  parallel_exec.num_threads = GetParam();
  ScanExecutor serial(table, &indexes, serial_exec);
  ScanExecutor parallel(table, &indexes, parallel_exec);

  const auto [lowest, highest] = std::minmax_element(d.begin(), d.end());
  std::uniform_real_distribution<double> pick(*lowest, *highest);
  for (int q = 0; q < 40; ++q) {
    double lo = pick(rng);
    double hi = pick(rng);
    if (lo > hi) std::swap(lo, hi);
    const Query query =
        q % 2 == 0 ? Query::Sum(Predicate::Between<double>("d", lo, hi))
                   : Query::Sum(Predicate::Between<float>(
                         "f", static_cast<float>(lo), static_cast<float>(hi)));
    Result<QueryResult> rs = serial.Execute(query);
    Result<QueryResult> rp = parallel.Execute(query);
    ASSERT_TRUE(rs.ok() && rp.ok());
    EXPECT_EQ(rs->count, rp->count) << query.ToString();
    EXPECT_EQ(std::bit_cast<uint64_t>(rs->sum),
              std::bit_cast<uint64_t>(rp->sum))
        << query.ToString() << ": " << rs->sum << " vs " << rp->sum;
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ParallelEquivalenceTest,
                         ::testing::Values(1, 2, 7));

// The one-thread path walks the candidate ranges in place, into one
// running partial, while a pool scans a morsel list into per-morsel
// partials; both must cut the kernels at the same morsel and segment
// boundaries and deliver the same range feedback after the scan. Three
// sessions (1, 2 and 7 threads) run the same stream of fused,
// cross-column and conjunction queries over a clustered and a random-walk
// int64 column and a NaN-salted double column, with appends in between so
// conservative tail zones are absorbed through that feedback. Answers
// must match bit for bit, the adaptation journals entry for entry, and
// the kDetail per-range trace children attribute for attribute.
TEST(OneThreadExecutorTest, MatchesPooledPathAcrossAppends) {
  constexpr int64_t kInitialRows = 6000;
  constexpr int64_t kAppendRows = 700;
  constexpr int kRounds = 8;
  constexpr int64_t kTotalRows = kInitialRows + kRounds * kAppendRows;

  DataGenOptions gen;
  gen.num_rows = kTotalRows;
  gen.value_range = 100000;
  gen.order = DataOrder::kClustered;
  gen.seed = 71;
  const std::vector<int64_t> c = GenerateData<int64_t>(gen);
  gen.order = DataOrder::kRandomWalk;
  gen.seed = 73;
  const std::vector<int64_t> w = GenerateData<int64_t>(gen);
  std::vector<double> d;
  std::mt19937_64 rng(79);
  std::uniform_real_distribution<double> step(-1.0, 1.0);
  double walk = 0.0;
  for (int64_t i = 0; i < kTotalRows; ++i) {
    walk += step(rng);
    d.push_back(i % 41 == 5 ? std::numeric_limits<double>::quiet_NaN()
                            : walk + 0.125);
  }
  auto slice = [](const auto& v, int64_t begin, int64_t end) {
    return std::vector<typename std::decay_t<decltype(v)>::value_type>(
        v.begin() + begin, v.begin() + end);
  };

  IndexOptions index = IndexOptions::Adaptive();
  index.adaptive.initial_zone_size = 256;
  index.adaptive.min_zone_size = 32;
  auto make_session = [&](int num_threads) {
    auto session = std::make_unique<Session>();
    auto table = std::make_shared<Table>("t");
    // Unequal power-of-two segments: morsels cut at the smaller one.
    ADASKIP_CHECK_OK(
        table->AddColumn("c", MakeColumn(slice(c, 0, kInitialRows), 1024)));
    ADASKIP_CHECK_OK(
        table->AddColumn("w", MakeColumn(slice(w, 0, kInitialRows), 512)));
    ADASKIP_CHECK_OK(
        table->AddColumn("d", MakeColumn(slice(d, 0, kInitialRows), 1024)));
    ADASKIP_CHECK_OK(session->RegisterTable(table));
    for (const char* column : {"c", "w", "d"}) {
      ADASKIP_CHECK_OK(session->AttachIndex("t", column, index));
    }
    ExecOptions exec;
    exec.num_threads = num_threads;
    exec.morsel_rows = 100;  // Zones of 256 rows span several morsels.
    exec.trace_level = obs::TraceLevel::kDetail;
    exec.journal_events = true;
    ADASKIP_CHECK_OK(session->SetExecOptions("t", exec));
    return session;
  };
  const int thread_counts[] = {1, 2, 7};
  std::vector<std::unique_ptr<Session>> sessions;
  for (int threads : thread_counts) sessions.push_back(make_session(threads));

  QueryGenOptions qgen;
  qgen.selectivity = 0.03;
  qgen.seed = 83;
  QueryGenerator<int64_t> c_preds("c", c, qgen);
  qgen.seed = 89;
  QueryGenerator<int64_t> w_preds("w", w, qgen);
  auto d_pred = [&](int i) {
    const double lo = d[static_cast<size_t>(i * 997 % kInitialRows)];
    return Predicate::Between<double>("d", std::isnan(lo) ? 0.0 : lo - 2.0,
                                      std::isnan(lo) ? 4.0 : lo + 2.0);
  };
  auto with_column = [](Query query, std::string column) {
    query.aggregate_column = std::move(column);
    return query;
  };
  auto both = [](AggregateKind kind, Predicate a, Predicate b,
                 std::string column) {
    Query query;
    query.aggregate = kind;
    query.predicates = {std::move(a), std::move(b)};
    query.aggregate_column = std::move(column);
    return query;
  };

  auto bits = [](double v) { return std::bit_cast<uint64_t>(v); };
  auto range_children = [](const QueryResult& result) {
    const obs::TraceSpan* scan = result.trace->root().FindChild("scan");
    EXPECT_NE(scan, nullptr);
    std::vector<std::vector<std::pair<std::string, std::string>>> out;
    if (scan == nullptr) return out;
    for (const obs::TraceSpan& child : scan->children) {
      out.push_back(child.attrs);
    }
    out.push_back({{"morsels", std::string(scan->Attr("morsels"))}});
    return out;
  };
  int64_t pooled_queries = 0;
  int query_index = 0;
  for (int round = 0; round < kRounds; ++round) {
    const Predicate pc = c_preds.Next();
    const Predicate pw = w_preds.Next();
    const Predicate pd = d_pred(round);
    const std::vector<Query> queries = {
        Query::Count(pc),
        Query::Sum(pc),
        Query::Min(pw),
        Query::Max(pw),
        Query::Materialize(pw),
        Query::Sum(pd),
        Query::Materialize(pd),
        with_column(Query::Sum(pc), "d"),
        with_column(Query::Min(pw), "d"),
        both(AggregateKind::kCount, pc, pw, ""),
        both(AggregateKind::kSum, pc, pw, "d"),
        both(AggregateKind::kMax, pw, pd, "c"),
        both(AggregateKind::kMaterialize, pc, pd, ""),
    };
    for (const Query& query : queries) {
      const std::string context =
          "round " + std::to_string(round) + " query " +
          std::to_string(query_index++) + ": " + query.ToString();
      std::vector<QueryResult> results;
      for (auto& session : sessions) {
        Result<QueryResult> result =
            session->ExecuteSpec(QuerySpec::Simple("t", query));
        ASSERT_TRUE(result.ok()) << context << ": " << result.status();
        results.push_back(*std::move(result));
      }
      const QueryResult& one = results[0];
      for (size_t a = 1; a < results.size(); ++a) {
        const QueryResult& pooled = results[a];
        const std::string arm =
            context + " @" + std::to_string(thread_counts[a]) + " threads";
        if (pooled.stats.parallel_workers > 0) ++pooled_queries;
        EXPECT_EQ(one.count, pooled.count) << arm;
        EXPECT_EQ(bits(one.sum), bits(pooled.sum)) << arm;
        EXPECT_EQ(bits(one.min), bits(pooled.min)) << arm;
        EXPECT_EQ(bits(one.max), bits(pooled.max)) << arm;
        EXPECT_EQ(one.rows, pooled.rows) << arm;
        EXPECT_EQ(one.stats.rows_scanned, pooled.stats.rows_scanned) << arm;
        EXPECT_EQ(range_children(one), range_children(pooled)) << arm;
      }
    }
    const int64_t begin = kInitialRows + round * kAppendRows;
    const int64_t end = begin + kAppendRows;
    for (auto& session : sessions) {
      AppendBatch batch;
      batch.Add("c", slice(c, begin, end))
          .Add("w", slice(w, begin, end))
          .Add("d", slice(d, begin, end));
      ASSERT_TRUE(session->Append("t", batch).ok());
    }
  }
  EXPECT_GT(pooled_queries, 0);

  // The adaptation journals: entry for entry, timestamps aside.
  const std::vector<obs::JournalEvent> one = sessions[0]->journal().Snapshot();
  EXPECT_EQ(sessions[0]->journal().spilled(), 0);
  int64_t absorbs = 0;
  int64_t splits = 0;
  for (const obs::JournalEvent& event : one) {
    absorbs += event.kind == obs::EventKind::kTailAbsorb;
    splits += event.kind == obs::EventKind::kZoneSplit;
  }
  EXPECT_GT(absorbs, 0);
  EXPECT_GT(splits, 0);
  for (size_t a = 1; a < sessions.size(); ++a) {
    const std::vector<obs::JournalEvent> pooled =
        sessions[a]->journal().Snapshot();
    ASSERT_EQ(one.size(), pooled.size()) << thread_counts[a] << " threads";
    for (size_t e = 0; e < one.size(); ++e) {
      const std::string arm = "event " + std::to_string(e) + " @" +
                              std::to_string(thread_counts[a]) + " threads";
      EXPECT_EQ(one[e].seq, pooled[e].seq) << arm;
      EXPECT_EQ(one[e].kind, pooled[e].kind) << arm;
      EXPECT_EQ(one[e].scope, pooled[e].scope) << arm;
      EXPECT_EQ(one[e].query_seq, pooled[e].query_seq) << arm;
      EXPECT_EQ(one[e].args, pooled[e].args) << arm;
      EXPECT_EQ(one[e].values, pooled[e].values) << arm;
      EXPECT_EQ(one[e].detail, pooled[e].detail) << arm;
    }
  }
}

// Regression for the conjunction feedback gap: multi-predicate queries
// must drive adaptation on the predicate columns' indexes (splits,
// tracker updates, adapt_nanos) just like single-predicate queries do.
TEST(ConjunctionFeedbackTest, ConjunctionsDriveAdaptation) {
  IndexOptions index = IndexOptions::Adaptive();
  index.adaptive.min_zone_size = 64;
  Arm arm(DataOrder::kClustered, 25000, 41, index, ExecOptions{});
  const int64_t initial_zones = arm.adaptive().ZoneCount();

  const auto& x = *arm.table->ColumnByName("x").value()->As<int64_t>();
  QueryGenOptions qgen;
  qgen.selectivity = 0.02;
  qgen.seed = 43;
  QueryGenerator<int64_t> generator("x", x.data(), qgen);

  int64_t total_adapt_nanos = 0;
  for (int i = 0; i < 60; ++i) {
    Query query;
    // y is unindexed, so its candidate set is the full table and the
    // intersection stays aligned to x's zones — conjunction feedback is
    // zone-exact here.
    query.predicates = {generator.Next(),
                        Predicate::Between<int64_t>("y", 0, 100000)};
    query.aggregate = AggregateKind::kCount;
    Result<QueryResult> result = arm.executor->Execute(query);
    ASSERT_TRUE(result.ok()) << result.status();
    total_adapt_nanos += result->stats.adapt_nanos;
  }

  const AdaptiveZoneMapT<int64_t>& adaptive = arm.adaptive();
  EXPECT_EQ(adaptive.query_count(), 60);      // Every probe was counted.
  EXPECT_GT(adaptive.split_count(), 0);       // Wasteful zones were split.
  EXPECT_GT(adaptive.ZoneCount(), initial_zones);
  EXPECT_GT(total_adapt_nanos, 0);            // And the time was charged.
  EXPECT_TRUE(adaptive.CheckInvariants());
}

// The parallel path reports its worker count and coordinator merge time.
TEST(ParallelStatsTest, ExposesWorkerAndMergeAccounting) {
  auto table = MakeTestTable(DataOrder::kUniform, 50000, 53);
  ExecOptions exec;
  exec.num_threads = 3;
  exec.morsel_rows = 1024;
  ScanExecutor executor(table, nullptr, exec);
  Result<QueryResult> result = executor.Execute(
      Query::Count(Predicate::Between<int64_t>("x", 0, 50000)));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.parallel_workers, 3);
  EXPECT_GE(result->stats.merge_nanos, 0);
  EXPECT_GT(result->stats.scan_nanos, 0);
  // Serial executor reports no workers.
  ScanExecutor serial(table, nullptr);
  Result<QueryResult> sresult = serial.Execute(
      Query::Count(Predicate::Between<int64_t>("x", 0, 50000)));
  ASSERT_TRUE(sresult.ok());
  EXPECT_EQ(sresult->stats.parallel_workers, 0);
  EXPECT_EQ(sresult->count, result->count);
}

// Tiny queries stay serial even when threads are configured: below one
// morsel of candidate rows the fan-out cost cannot pay off.
TEST(ParallelStatsTest, SmallScansFallBackToSerial) {
  auto table = MakeTestTable(DataOrder::kUniform, 1000, 59);
  ExecOptions exec;
  exec.num_threads = 4;  // morsel_rows default (32768) >> 1000 rows.
  ScanExecutor executor(table, nullptr, exec);
  Result<QueryResult> result = executor.Execute(
      Query::Count(Predicate::Between<int64_t>("x", 0, 100000)));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.parallel_workers, 0);
}

// Changing exec options mid-stream (e.g. resizing the pool) is safe and
// keeps answers stable.
TEST(ParallelStatsTest, ReconfiguringThreadsKeepsAnswers) {
  auto table = MakeTestTable(DataOrder::kClustered, 40000, 61);
  ScanExecutor executor(table, nullptr);
  Query query = Query::Count(Predicate::Between<int64_t>("x", 10000, 60000));
  Result<QueryResult> baseline = executor.Execute(query);
  ASSERT_TRUE(baseline.ok());
  for (int threads : {2, 4, 1, 7}) {
    ExecOptions exec;
    exec.num_threads = threads;
    exec.morsel_rows = 2048;
    ASSERT_TRUE(executor.set_exec_options(exec).ok());
    Result<QueryResult> result = executor.Execute(query);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->count, baseline->count) << threads << " threads";
  }
}

}  // namespace
}  // namespace adaskip
