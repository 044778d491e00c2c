// Differential tests of the conjunction evaluator (match words ANDed per
// morsel) against a naive row-at-a-time loop. The table mixes int32,
// int64, float and double predicate columns — NaN and ±0 in the floats —
// over small segments, some bit-packed and some with their raw payload
// dropped. Small zonemap zones and odd morsel sizes put candidate-range
// and morsel edges in the middle of 64-row words, and the last word of a
// morsel is usually partial. Every aggregate runs, over predicate columns
// and over third columns, at 1, 2 and 7 threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <type_traits>
#include <vector>

#include "adaskip/engine/session.h"
#include "adaskip/storage/table.h"
#include "adaskip/util/interval_set.h"

namespace adaskip {
namespace {

constexpr int64_t kSegmentRows = 1024;
constexpr int64_t kRows = 5 * kSegmentRows + 333;  // Partial last segment.
constexpr int64_t kZoneRows = 100;                  // Not a multiple of 64.
constexpr int64_t kMorselRows = 150;                // Neither.

/// The table's payload, kept host-side for the naive oracle: i32 and i64
/// (narrow ramps: they pack and their zones skip), f32 (±0 salted), f64
/// (NaN and ±0 salted), and the third aggregate columns w (double, NaN
/// salted) and k (int64).
struct Data {
  std::vector<int32_t> i32;
  std::vector<int64_t> i64;
  std::vector<float> f32;
  std::vector<double> f64;
  std::vector<double> w;
  std::vector<int64_t> k;
};

Data MakeData() {
  std::mt19937_64 rng(0xc0de);
  std::uniform_int_distribution<int> noise(0, 40);
  std::uniform_int_distribution<int> special(0, 15);
  std::uniform_real_distribution<double> real(-100.0, 100.0);
  Data d;
  for (int64_t i = 0; i < kRows; ++i) {
    // Slow ramps plus noise: zones cover narrow value bands, so small
    // windows skip most zones and candidate ranges start and end
    // mid-word. Values stay within 16 bits of each segment's base.
    d.i32.push_back(static_cast<int32_t>((i / 3) % 2000 - 1000 + noise(rng)));
    d.i64.push_back(static_cast<int64_t>((i * 7) % 5000) + noise(rng) +
                    (int64_t{1} << 35));
    const int s = special(rng);
    d.f32.push_back(s == 0   ? -0.0f
                    : s == 1 ? 0.0f
                             : static_cast<float>(real(rng)));
    d.f64.push_back(s == 2   ? std::numeric_limits<double>::quiet_NaN()
                    : s == 3 ? -0.0
                    : s == 4 ? 0.0
                             : real(rng));
    d.w.push_back(special(rng) == 0 ? std::numeric_limits<double>::quiet_NaN()
                                    : real(rng));
    d.k.push_back(static_cast<int64_t>(rng() % 1000000) - 500000);
  }
  return d;
}

const Data& TestData() {
  static const Data data = MakeData();
  return data;
}

enum class IndexArm { kZoneMap, kAdaptive };

/// A session over TestData() with packed int segments (i64's raw
/// payload dropped), indexes on i32/i64/f32, and `threads` workers.
std::unique_ptr<Session> MakeSession(IndexArm arm, int threads) {
  const Data& d = TestData();
  auto session = std::make_unique<Session>();
  auto table = std::make_shared<Table>("t");
  ADASKIP_CHECK_OK(table->AddColumn("i32", MakeColumn(d.i32, kSegmentRows)));
  ADASKIP_CHECK_OK(table->AddColumn("i64", MakeColumn(d.i64, kSegmentRows)));
  ADASKIP_CHECK_OK(table->AddColumn("f32", MakeColumn(d.f32, kSegmentRows)));
  ADASKIP_CHECK_OK(table->AddColumn("f64", MakeColumn(d.f64, kSegmentRows)));
  ADASKIP_CHECK_OK(table->AddColumn("w", MakeColumn(d.w, kSegmentRows)));
  ADASKIP_CHECK_OK(table->AddColumn("k", MakeColumn(d.k, kSegmentRows)));
  ADASKIP_CHECK_OK(session->RegisterTable(table));

  ExecOptions exec;
  exec.num_threads = threads;
  exec.morsel_rows = kMorselRows;
  exec.trace_level = obs::TraceLevel::kSummary;
  exec.journal_events = true;
  ADASKIP_CHECK_OK(session->SetExecOptions("t", exec));

  SegmentLayoutOptions layout;
  layout.enabled = true;
  layout.policy.min_rows = kSegmentRows;
  ADASKIP_CHECK_OK(session->SetSegmentLayoutOptions("t", layout));
  auto* i64 = table->mutable_column(1)->As<int64_t>();
  ADASKIP_CHECK(table->column(0).num_packed_segments() == 5);
  ADASKIP_CHECK(i64->num_packed_segments() == 5);
  for (int64_t s = 0; s < i64->num_segments(); ++s) {
    if (i64->packed_segment(s) != nullptr) i64->DropRawPayload(s);
  }

  IndexOptions index = IndexOptions::ZoneMap(kZoneRows);
  if (arm == IndexArm::kAdaptive) {
    index = IndexOptions::Adaptive();
    index.adaptive.min_zone_size = 40;
  }
  for (const char* column : {"i32", "i64", "f32", "f64"}) {
    ADASKIP_CHECK_OK(session->AttachIndex("t", column, index));
  }
  return session;
}

/// Calls `fn` with the host-side values of `column`.
template <typename Fn>
void WithColumn(const std::string& column, Fn&& fn) {
  const Data& d = TestData();
  if (column == "i32") return fn(d.i32);
  if (column == "i64") return fn(d.i64);
  if (column == "f32") return fn(d.f32);
  if (column == "f64") return fn(d.f64);
  if (column == "w") return fn(d.w);
  ADASKIP_CHECK(column == "k");
  fn(d.k);
}

/// Per-row match bits of one predicate.
std::vector<bool> NaiveMatches(const Predicate& pred) {
  std::vector<bool> out(static_cast<size_t>(kRows));
  WithColumn(pred.column, [&](const auto& values) {
    using T = typename std::decay_t<decltype(values)>::value_type;
    const ValueInterval<T> interval = pred.ToInterval<T>();
    for (int64_t i = 0; i < kRows; ++i) {
      out[static_cast<size_t>(i)] =
          interval.Contains(values[static_cast<size_t>(i)]);
    }
  });
  return out;
}

/// Naive zonemap candidates: kZoneRows-row zones, restarting at every
/// segment boundary, whose [min, max] over the zone's non-NaN values
/// overlaps the predicate's interval (unindexed columns: every row).
std::vector<RowRange> NaiveZoneCandidates(const Predicate& pred) {
  if (pred.column != "i32" && pred.column != "i64" && pred.column != "f32" &&
      pred.column != "f64") {
    return {{0, kRows}};
  }
  std::vector<RowRange> out;
  WithColumn(pred.column, [&](const auto& values) {
    using T = typename std::decay_t<decltype(values)>::value_type;
    const ValueInterval<T> interval = pred.ToInterval<T>();
    for (int64_t begin = 0; begin < kRows;) {
      const int64_t segment_end = (begin / kSegmentRows + 1) * kSegmentRows;
      const int64_t end = std::min({begin + kZoneRows, segment_end, kRows});
      // NaN never becomes a bound: std::min/std::max keep their first
      // argument when the second is NaN.
      T lo = std::numeric_limits<T>::max();
      T hi = std::numeric_limits<T>::lowest();
      if constexpr (std::is_floating_point_v<T>) {
        lo = std::numeric_limits<T>::infinity();
        hi = -std::numeric_limits<T>::infinity();
      }
      for (int64_t i = begin; i < end; ++i) {
        lo = std::min(lo, values[static_cast<size_t>(i)]);
        hi = std::max(hi, values[static_cast<size_t>(i)]);
      }
      if (hi >= interval.lo && lo <= interval.hi) out.push_back({begin, end});
      begin = end;
    }
  });
  NormalizeRanges(&out);
  return out;
}

/// The naive answer: qualifying rows in row order, and the aggregates
/// folded over them in that order.
QueryResult NaiveAnswer(const Query& query) {
  std::vector<bool> keep(static_cast<size_t>(kRows), true);
  for (const Predicate& pred : query.predicates) {
    const std::vector<bool> match = NaiveMatches(pred);
    for (int64_t i = 0; i < kRows; ++i) {
      keep[static_cast<size_t>(i)] =
          keep[static_cast<size_t>(i)] && match[static_cast<size_t>(i)];
    }
  }
  QueryResult out;
  out.aggregate = query.aggregate;
  for (int64_t i = 0; i < kRows; ++i) {
    if (keep[static_cast<size_t>(i)]) out.rows.Append(i);
  }
  out.count = out.rows.size();
  if (query.aggregate == AggregateKind::kSum ||
      query.aggregate == AggregateKind::kMin ||
      query.aggregate == AggregateKind::kMax) {
    WithColumn(query.aggregate_column, [&](const auto& values) {
      using T = typename std::decay_t<decltype(values)>::value_type;
      double sum = 0.0;
      T min_v = std::numeric_limits<T>::max();
      T max_v = std::numeric_limits<T>::lowest();
      for (int64_t r = 0; r < out.rows.size(); ++r) {
        const T v = values[static_cast<size_t>(out.rows[r])];
        sum += static_cast<double>(v);
        if (v < min_v) min_v = v;  // NaN never replaces a bound.
        if (v > max_v) max_v = v;
      }
      out.sum = sum;
      if (out.count > 0) {
        out.min = static_cast<double>(min_v);
        out.max = static_cast<double>(max_v);
      }
    });
  }
  if (query.aggregate != AggregateKind::kMaterialize) out.rows.Clear();
  return out;
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b) ||
         (std::isnan(a) && std::isnan(b));
}

void ExpectSameAnswer(const QueryResult& want, const QueryResult& got,
                      const std::string& context) {
  EXPECT_EQ(want.count, got.count) << context;
  EXPECT_TRUE(SameBits(want.sum, got.sum))
      << context << ": sum " << want.sum << " vs " << got.sum;
  EXPECT_TRUE(SameBits(want.min, got.min))
      << context << ": min " << want.min << " vs " << got.min;
  EXPECT_TRUE(SameBits(want.max, got.max))
      << context << ": max " << want.max << " vs " << got.max;
  EXPECT_EQ(want.rows, got.rows) << context;
}

template <typename T>
Predicate RandomPredicate(std::mt19937_64* rng, const std::string& column,
                          const std::vector<T>& values) {
  std::uniform_int_distribution<size_t> at(0, values.size() - 1);
  std::uniform_int_distribution<int> kind(0, 7);
  T a = values[at(*rng)];
  T b = values[at(*rng)];
  if constexpr (std::is_floating_point_v<T>) {
    if (std::isnan(a)) a = T{0};
    if (std::isnan(b)) b = T{-0.0};
  }
  if (b < a) std::swap(a, b);
  switch (kind(*rng)) {
    case 0:  // Every non-NaN row.
      return Predicate::Between<T>(column, std::numeric_limits<T>::lowest(),
                                   std::numeric_limits<T>::max());
    case 1:  // Nothing.
      return Predicate::Between<T>(column, T{1}, T{0});
    case 2:  // A point, often ±0 on the floats.
      return Predicate::Between<T>(column, a, a);
    default:
      return Predicate::Between<T>(column, a, b);
  }
}

/// `count` conjunctions of 1-4 terms (mostly 2-4) over the four
/// predicate columns, cycling through every aggregate; SUM/MIN/MAX run
/// over a predicate column or a third column.
std::vector<Query> MakeQueries(uint64_t seed, int count) {
  const Data& d = TestData();
  std::mt19937_64 rng(seed);
  const AggregateKind aggregates[] = {
      AggregateKind::kCount, AggregateKind::kSum, AggregateKind::kMin,
      AggregateKind::kMax, AggregateKind::kMaterialize};
  const char* agg_columns[] = {"w", "k", "f32", "i64", "i32", "f64"};
  std::vector<Query> queries;
  for (int q = 0; q < count; ++q) {
    Query query;
    query.aggregate = aggregates[q % 5];
    // One-term queries reach the conjunction path only as SUM/MIN/MAX
    // over a third column.
    const bool folds = query.aggregate != AggregateKind::kCount &&
                       query.aggregate != AggregateKind::kMaterialize;
    const int terms = (folds && q % 4 == 1) ? 1 : 2 + q % 3;
    std::vector<int> order = {0, 1, 2, 3};
    std::shuffle(order.begin(), order.end(), rng);
    for (int t = 0; t < terms; ++t) {
      switch (order[static_cast<size_t>(t)]) {
        case 0:
          query.predicates.push_back(RandomPredicate(&rng, "i32", d.i32));
          break;
        case 1:
          query.predicates.push_back(RandomPredicate(&rng, "i64", d.i64));
          break;
        case 2:
          query.predicates.push_back(RandomPredicate(&rng, "f32", d.f32));
          break;
        default:
          query.predicates.push_back(RandomPredicate(&rng, "f64", d.f64));
          break;
      }
    }
    if (folds) {
      query.aggregate_column = agg_columns[terms == 1 ? q % 2 : (q / 5) % 6];
    }
    queries.push_back(std::move(query));
  }
  return queries;
}

/// Each term's own_matches as the trace reports them.
std::vector<int64_t> OwnMatches(const QueryResult& result) {
  std::vector<int64_t> out;
  const obs::TraceSpan* probe = result.trace->root().FindChild("probe");
  ADASKIP_CHECK(probe != nullptr);
  for (const obs::TraceSpan& child : probe->children) {
    out.push_back(std::stoll(std::string(child.Attr("own_matches"))));
  }
  return out;
}

class ConjunctionDifferentialTest : public ::testing::TestWithParam<int> {};

// Static zonemaps: candidates are a pure function of the data, so the
// intersected candidate set — and every term's own match count over it —
// has a naive definition too.
TEST_P(ConjunctionDifferentialTest, ZoneMapAnswersAndOwnMatchesEqualNaive) {
  std::unique_ptr<Session> session = MakeSession(IndexArm::kZoneMap,
                                                 GetParam());
  int64_t packed_rows = 0;
  int64_t mid_word_edges = 0;
  for (const Query& query : MakeQueries(0x5eed, 150)) {
    const std::string context = query.ToString();
    Result<QueryResult> got =
        session->ExecuteSpec(QuerySpec::Simple("t", query));
    ASSERT_TRUE(got.ok()) << context << ": " << got.status().ToString();
    ASSERT_EQ(got->stats.index_name, "conjunction") << context;
    ExpectSameAnswer(NaiveAnswer(query), *got, context);

    std::vector<RowRange> candidates = {{0, kRows}};
    for (const Predicate& pred : query.predicates) {
      candidates = IntersectRanges(candidates, NaiveZoneCandidates(pred));
    }
    EXPECT_EQ(got->stats.rows_scanned, TotalRows(candidates)) << context;
    const std::vector<int64_t> own = OwnMatches(*got);
    ASSERT_EQ(own.size(), query.predicates.size()) << context;
    for (size_t p = 0; p < query.predicates.size(); ++p) {
      const std::vector<bool> match = NaiveMatches(query.predicates[p]);
      int64_t naive_own = 0;
      for (const RowRange& range : candidates) {
        for (int64_t i = range.begin; i < range.end; ++i) {
          naive_own += match[static_cast<size_t>(i)] ? 1 : 0;
        }
      }
      EXPECT_EQ(own[p], naive_own) << context << " term " << p;
    }
    for (const RowRange& range : candidates) {
      mid_word_edges += (range.begin % 64 != 0) + (range.end % 64 != 0);
    }
    packed_rows += got->stats.rows_scanned_packed;
  }
  // The stream really exercised what it is meant to.
  EXPECT_GT(packed_rows, 0);
  EXPECT_GT(mid_word_edges, 100);
}

INSTANTIATE_TEST_SUITE_P(Threads, ConjunctionDifferentialTest,
                         ::testing::Values(1, 2, 7));

// Adaptive indexes refine from conjunction feedback: answers still equal
// the naive loop, and the feedback stream is so exactly thread-count
// independent that index state, journal and per-term own counts agree
// across 1, 2 and 7 threads.
TEST(ConjunctionDifferentialAdaptiveTest, AnswersNaiveAndStateThreadInvariant) {
  const std::vector<Query> queries = MakeQueries(0xada9, 200);
  struct Run {
    std::vector<std::vector<int64_t>> own;
    std::vector<IndexSnapshot> indexes;
    std::vector<obs::JournalEvent> journal;
  };
  std::vector<Run> runs;
  for (const int threads : {1, 2, 7}) {
    std::unique_ptr<Session> session =
        MakeSession(IndexArm::kAdaptive, threads);
    Run run;
    for (const Query& query : queries) {
      Result<QueryResult> got =
          session->ExecuteSpec(QuerySpec::Simple("t", query));
      ASSERT_TRUE(got.ok()) << query.ToString();
      ExpectSameAnswer(NaiveAnswer(query), *got,
                       query.ToString() + " threads=" +
                           std::to_string(threads));
      run.own.push_back(OwnMatches(*got));
    }
    for (const char* column : {"i32", "i64", "f32", "f64"}) {
      Result<IndexSnapshot> snap = session->DescribeIndex("t", column);
      ASSERT_TRUE(snap.ok());
      run.indexes.push_back(*snap);
    }
    run.journal = session->journal().Snapshot();
    runs.push_back(std::move(run));
  }
  const Run& serial = runs[0];
  int64_t splits = 0;
  for (const IndexSnapshot& snap : serial.indexes) {
    splits += snap.adaptation.zones_refined;
  }
  EXPECT_GT(splits, 0);  // The feedback really drove adaptation.
  for (size_t r = 1; r < runs.size(); ++r) {
    EXPECT_EQ(serial.own, runs[r].own) << "run " << r;
    ASSERT_EQ(serial.indexes.size(), runs[r].indexes.size());
    for (size_t i = 0; i < serial.indexes.size(); ++i) {
      EXPECT_EQ(serial.indexes[i].description, runs[r].indexes[i].description);
      EXPECT_EQ(serial.indexes[i].zone_count, runs[r].indexes[i].zone_count);
      EXPECT_EQ(serial.indexes[i].memory_bytes,
                runs[r].indexes[i].memory_bytes);
      EXPECT_EQ(serial.indexes[i].adaptation.zones_refined,
                runs[r].indexes[i].adaptation.zones_refined);
      EXPECT_EQ(serial.indexes[i].adaptation.zones_merged,
                runs[r].indexes[i].adaptation.zones_merged);
    }
    ASSERT_EQ(serial.journal.size(), runs[r].journal.size()) << "run " << r;
    for (size_t e = 0; e < serial.journal.size(); ++e) {
      const obs::JournalEvent& a = serial.journal[e];
      const obs::JournalEvent& b = runs[r].journal[e];
      EXPECT_EQ(a.kind, b.kind) << "event " << e;
      EXPECT_EQ(a.scope, b.scope) << "event " << e;
      EXPECT_EQ(a.query_seq, b.query_seq) << "event " << e;
      EXPECT_EQ(a.args, b.args) << "event " << e;
      EXPECT_EQ(a.detail, b.detail) << "event " << e;
      ASSERT_EQ(a.values.size(), b.values.size()) << "event " << e;
      for (size_t v = 0; v < a.values.size(); ++v) {
        EXPECT_TRUE(SameBits(a.values[v], b.values[v])) << "event " << e;
      }
    }
  }
}

}  // namespace
}  // namespace adaskip
