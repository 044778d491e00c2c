#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <latch>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "adaskip/adaptive/index_manager.h"
#include "adaskip/engine/query_server.h"
#include "adaskip/engine/query_spec.h"
#include "adaskip/engine/scan_executor.h"
#include "adaskip/engine/session.h"
#include "adaskip/storage/column.h"
#include "adaskip/storage/table.h"
#include "adaskip/util/logging.h"
#include "inputs.h"
#include "trace.h"

namespace skipbench {
namespace {

using adaskip::AdaptationProfile;
using adaskip::AggregateKind;
using adaskip::AppendBatch;
using adaskip::BatchTraceEntry;
using adaskip::IndexManager;
using adaskip::IndexOptions;
using adaskip::Predicate;
using adaskip::Query;
using adaskip::QueryResult;
using adaskip::QueryServer;
using adaskip::QuerySpec;
using adaskip::QueryStats;
using adaskip::Result;
using adaskip::RowRange;
using adaskip::ScanExecutor;
using adaskip::ServerStats;
using adaskip::Session;
using adaskip::Table;

constexpr char kTable[] = "t";

// About 2M int64 rows (16 MB) per column: at 4M rows a serial full scan's
// p50 spread 19% between runs, at 2M rows 4%.
constexpr int64_t kRows = 2'000'000;

// Single-predicate windows cover 0.5% of the rows; conjunction terms 10%.
constexpr double kSkewWidth = 0.005;
constexpr int64_t kConjWidth = kValueRange / 10;
constexpr double kZipfTheta = 0.9;

// Every workload reports append_p50_us. The three read-only workloads get
// it from a fixed burst of appends after the query stream, against the
// index the stream adapted.
constexpr int kBurstAppends = 16;
constexpr int64_t kBurstRows = 4096;

struct Expected {
  AggregateKind aggregate = AggregateKind::kCount;
  int64_t count = 0;
  int64_t sum = 0;
};

Expected Want(AggregateKind aggregate, const Tally& tally) {
  return {aggregate, tally.count, tally.sum};
}

bool Matches(const QueryResult& result, const Expected& want) {
  if (result.count != want.count) return false;
  return want.aggregate != AggregateKind::kSum ||
         result.sum == static_cast<double>(want.sum);
}

QuerySpec RangeSpec(const std::string& column, Window w,
                    AggregateKind aggregate) {
  Query query;
  query.predicates.push_back(Predicate::Between<int64_t>(column, w.lo, w.hi));
  query.aggregate = aggregate;
  return QuerySpec::Simple(kTable, std::move(query));
}

AggregateKind CountOrSum(int64_t i) {
  return i % 2 == 0 ? AggregateKind::kCount : AggregateKind::kSum;
}

/// Per-layer accounting summed over the traced rounds.
struct LayerTotals {
  int64_t queries = 0;
  int64_t call_ns = 0;  // Wall time of the public query calls.
  int64_t probe_ns = 0;
  int64_t scan_ns = 0;
  int64_t adapt_ns = 0;
  int64_t entries_read = 0;
  int64_t candidate_ranges = 0;
  int64_t rows_total = 0;
  int64_t rows_scanned = 0;
  int64_t rows_matched = 0;
  int64_t tail_rows_scanned = 0;
  int64_t probes = 0;  // Predicates probed.

  // Index state at the end of each round's stream, summed over rounds.
  int64_t rounds = 0;
  int64_t zones = 0;
  int64_t splits = 0;
  int64_t merges = 0;
  int64_t bypassed_probes = 0;
  int64_t tail_absorbs = 0;

  int64_t appends = 0;  // Split appends (ingest, traced rounds).
  int64_t table_append_ns = 0;
  int64_t on_append_ns = 0;

  int64_t server_queries = 0;  // Executed (not shed or expired).
  int64_t queue_wait_ns = 0;
  int64_t batches = 0;
  int64_t batch_window_ns = 0;
  int64_t shared_queries = 0;
  int64_t kernel_rows = 0;
  int64_t serial_rows = 0;
  int64_t traced_batches = 0;  // RecentBatches entries collected.
  int64_t peek_ns = 0;
  int64_t batch_scan_ns = 0;
  int64_t replay_ns = 0;
  int64_t pass_width = 0;        // Members of the collected batches.
  int64_t member_pass_ns = 0;    // Σ width × (peek + scan + replay).

  void AddQuery(const QueryStats& s, int64_t wall_ns, int64_t predicates) {
    ++queries;
    call_ns += wall_ns;
    probe_ns += s.probe_nanos;
    scan_ns += s.scan_nanos;
    adapt_ns += s.adapt_nanos;
    entries_read += s.probe.entries_read;
    candidate_ranges += s.candidate_ranges;
    rows_total += s.rows_total;
    rows_scanned += s.rows_scanned;
    rows_matched += s.rows_matched;
    tail_rows_scanned += s.tail_rows_scanned;
    probes += predicates;
  }

  void AddIndex(int64_t zone_count, const AdaptationProfile& a) {
    zones += zone_count;
    splits += a.zones_refined;
    merges += a.zones_merged;
    bypassed_probes += a.bypassed_probes;
    tail_absorbs += a.tail_absorbs;
  }

  void AddBatch(const BatchTraceEntry& b) {
    ++traced_batches;
    peek_ns += b.peek_nanos;
    batch_scan_ns += b.scan_nanos;
    replay_ns += b.replay_nanos;
    pass_width += b.width;
    member_pass_ns += b.width * (b.peek_nanos + b.scan_nanos + b.replay_nanos);
  }

  void Add(const LayerTotals& o) {
    queries += o.queries;
    call_ns += o.call_ns;
    probe_ns += o.probe_ns;
    scan_ns += o.scan_ns;
    adapt_ns += o.adapt_ns;
    entries_read += o.entries_read;
    candidate_ranges += o.candidate_ranges;
    rows_total += o.rows_total;
    rows_scanned += o.rows_scanned;
    rows_matched += o.rows_matched;
    tail_rows_scanned += o.tail_rows_scanned;
    probes += o.probes;
    rounds += o.rounds;
    zones += o.zones;
    splits += o.splits;
    merges += o.merges;
    bypassed_probes += o.bypassed_probes;
    tail_absorbs += o.tail_absorbs;
    appends += o.appends;
    table_append_ns += o.table_append_ns;
    on_append_ns += o.on_append_ns;
    server_queries += o.server_queries;
    queue_wait_ns += o.queue_wait_ns;
    batches += o.batches;
    batch_window_ns += o.batch_window_ns;
    shared_queries += o.shared_queries;
    kernel_rows += o.kernel_rows;
    serial_rows += o.serial_rows;
    traced_batches += o.traced_batches;
    peek_ns += o.peek_ns;
    batch_scan_ns += o.batch_scan_ns;
    replay_ns += o.replay_ns;
    pass_width += o.pass_width;
    member_pass_ns += o.member_pass_ns;
  }
};

struct RoundResult {
  double setup_s = 0.0;
  std::vector<double> query_us;
  std::vector<double> append_us;
  int64_t stream_ns = 0;  // Wall time of the query stream (with appends).
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t wrong = 0;
  int64_t shed = 0;  // Of failed: refused or expired in the server queue.
  int64_t expired = 0;
  double metadata_bytes_per_row = 0.0;
  LayerTotals layers;

  void Merge(RoundResult&& o) {
    query_us.insert(query_us.end(), o.query_us.begin(), o.query_us.end());
    append_us.insert(append_us.end(), o.append_us.begin(), o.append_us.end());
    attempted += o.attempted;
    failed += o.failed;
    wrong += o.wrong;
    layers.Add(o.layers);
  }
};

struct Mode {
  SpanRecorder* spans = nullptr;  // Non-null in a traced round.
  bool split_layers = false;      // Ingest: drive the layers directly.
};

/// Records one answered (or failed) query call of [t0, t1).
void RecordQuery(const Result<QueryResult>& result, const QuerySpec& spec,
                 const Expected& want, int64_t t0, int64_t t1,
                 const char* span, int64_t request, const Mode& mode,
                 RoundResult* out) {
  ++out->attempted;
  if (!result.ok()) {
    ++out->failed;
    std::fprintf(stderr, "query %lld failed: %s\n",
                 static_cast<long long>(request),
                 result.status().ToString().c_str());
    return;
  }
  const QueryResult& r = *result;
  out->query_us.push_back(static_cast<double>(t1 - t0) / 1e3);
  if (!Matches(r, want)) {
    if (out->wrong++ < 5) {
      std::fprintf(stderr,
                   "query %lld wrong: count %lld sum %.0f, want %lld %lld\n",
                   static_cast<long long>(request),
                   static_cast<long long>(r.count), r.sum,
                   static_cast<long long>(want.count),
                   static_cast<long long>(want.sum));
    }
  }
  if (mode.spans == nullptr) return;
  const QueryStats& s = r.stats;
  out->layers.AddQuery(s, t1 - t0,
                       static_cast<int64_t>(spec.query.predicates.size()));
  mode.spans->AddQuery(span, request, t0, t1, s.probe_nanos, s.scan_nanos,
                       s.adapt_nanos);
}

/// A session with every column loaded and indexed: what setup_s times.
std::unique_ptr<Session> LoadSession(
    std::vector<std::pair<std::string, std::vector<int64_t>>> columns) {
  auto session = std::make_unique<Session>();
  ADASKIP_CHECK_OK(session->CreateTable(kTable));
  for (auto& [name, values] : columns) {
    ADASKIP_CHECK_OK(session->AddColumn(kTable, name, std::move(values)));
  }
  for (const auto& column : columns) {
    ADASKIP_CHECK_OK(
        session->AttachIndex(kTable, column.first, IndexOptions::Adaptive()));
  }
  return session;
}

/// End-of-stream index state: footprint per row, plus layer accounting.
void SnapshotIndexes(const Session& session,
                     const std::vector<std::string>& columns,
                     RoundResult* out) {
  int64_t bytes = 0;
  int64_t rows = 0;
  for (const std::string& column : columns) {
    Result<adaskip::IndexSnapshot> snap = session.DescribeIndex(kTable, column);
    ADASKIP_CHECK_OK(snap.status());
    bytes += snap->memory_bytes;
    rows = snap->num_rows;
    out->layers.AddIndex(snap->zone_count, snap->adaptation);
  }
  ++out->layers.rounds;
  out->metadata_bytes_per_row =
      static_cast<double>(bytes) / static_cast<double>(rows);
}

std::vector<AppendBatch> MakeBurst(
    const std::vector<std::pair<std::string, const std::vector<int64_t>*>>&
        columns) {
  std::vector<AppendBatch> burst(kBurstAppends);
  for (int i = 0; i < kBurstAppends; ++i) {
    for (const auto& [name, values] : columns) {
      const auto begin = values->begin() + i * kBurstRows;
      burst[static_cast<size_t>(i)].Add(
          name, std::vector<int64_t>(begin, begin + kBurstRows));
    }
  }
  return burst;
}

void TimedAppend(Session* session, const AppendBatch& batch,
                 RoundResult* out) {
  ++out->attempted;
  const int64_t t0 = NowNanos();
  const adaskip::Status status = session->Append(kTable, batch);
  const int64_t t1 = NowNanos();
  if (!status.ok()) {
    ++out->failed;
    std::fprintf(stderr, "append failed: %s\n", status.ToString().c_str());
    return;
  }
  out->append_us.push_back(static_cast<double>(t1 - t0) / 1e3);
}

class Workload {
 public:
  virtual ~Workload() = default;
  /// One round: a fresh set-up, the round's query stream (its own
  /// sub-seed), the index snapshot and, for read workloads, the burst.
  virtual void RunRound(int64_t round, const Mode& mode, RoundResult* out) = 0;

 protected:
  explicit Workload(uint64_t seed) : seed_(seed) {}

  /// Sub-seed of one round's query stream.
  uint64_t RoundSeed(int64_t round) const {
    return SubSeed(seed_, 100 + static_cast<uint64_t>(round));
  }

  uint64_t seed_;
  int64_t next_request_ = 0;
};

// Two columns, clustered and random-walk, each with the default adaptive
// index; single-predicate COUNT/SUM ranges whose centres follow a Zipf
// law over a permuted quantile domain. Loads probe, adaptation and the
// engine's per-query overhead.
class SkewAdapt : public Workload {
 public:
  static constexpr int64_t kSlots = 256;
  static constexpr int64_t kQueries = 2000;

  explicit SkewAdapt(uint64_t seed)
      : Workload(seed), zipf_(kSlots, kZipfTheta) {
    data_[0] = ClusteredColumn(kRows, 256, 0.002, SubSeed(seed, 1));
    data_[1] = RandomWalkColumn(kRows, 256, 1e-4, SubSeed(seed, 2));
    for (int c = 0; c < 2; ++c) {
      windows_[c] = QuantileWindows(data_[c], kSlots, kSkewWidth);
      TallyWindows(data_[c], 0, data_[c].size(), windows_[c], &tallies_[c]);
    }
    burst_ = MakeBurst({{columns_[0], &data_[0]}, {columns_[1], &data_[1]}});
  }

  void RunRound(int64_t round, const Mode& mode, RoundResult* out) override {
    // Each round ranks the slots afresh, so no handful of windows that one
    // seed makes popular dominates the run.
    const uint64_t round_seed = RoundSeed(round);
    const std::vector<int64_t> perm[2] = {
        Permutation(kSlots, SubSeed(round_seed, 1)),
        Permutation(kSlots, SubSeed(round_seed, 2))};
    Rng rng(round_seed);
    std::vector<QuerySpec> specs;
    std::vector<Expected> want;
    for (int64_t i = 0; i < kQueries; ++i) {
      const int c = static_cast<int>(rng.Below(2));
      const size_t slot = static_cast<size_t>(
          perm[c][static_cast<size_t>(zipf_.Next(&rng))]);
      specs.push_back(RangeSpec(columns_[c], windows_[c][slot], CountOrSum(i)));
      want.push_back(Want(CountOrSum(i), tallies_[c][slot]));
    }
    std::vector<std::pair<std::string, std::vector<int64_t>>> columns = {
        {columns_[0], data_[0]}, {columns_[1], data_[1]}};

    const int64_t setup_start = NowNanos();
    std::unique_ptr<Session> session = LoadSession(std::move(columns));
    out->setup_s = static_cast<double>(NowNanos() - setup_start) / 1e9;

    const int64_t stream_start = NowNanos();
    for (size_t i = 0; i < specs.size(); ++i) {
      const int64_t t0 = NowNanos();
      Result<QueryResult> result = session->ExecuteSpec(specs[i]);
      const int64_t t1 = NowNanos();
      RecordQuery(result, specs[i], want[i], t0, t1, "execute_spec",
                  next_request_++, mode, out);
    }
    out->stream_ns = NowNanos() - stream_start;
    SnapshotIndexes(*session, {columns_[0], columns_[1]}, out);
    for (const AppendBatch& batch : burst_) {
      TimedAppend(session.get(), batch, out);
    }
  }

 private:
  const std::string columns_[2] = {"clustered", "walk"};
  std::vector<int64_t> data_[2];
  std::vector<Window> windows_[2];
  std::vector<Tally> tallies_[2];
  ZipfSampler zipf_;
  std::vector<AppendBatch> burst_;
};

// Two uniform columns; every query is a two-term conjunction of about 10%
// selectivity per term. The cost model bypasses both indexes, so the time
// goes to the conjunction evaluator and the kernels.
class ConjScan : public Workload {
 public:
  static constexpr int64_t kPool = 64;
  // 200 queries leave 10 samples beyond each round's p95.
  static constexpr int64_t kQueries = 200;

  explicit ConjScan(uint64_t seed) : Workload(seed) {
    a_ = UniformColumn(kRows, SubSeed(seed, 1));
    b_ = UniformColumn(kRows, SubSeed(seed, 2));
    Rng rng(SubSeed(seed, 3));
    for (int64_t i = 0; i < kPool; ++i) {
      const int64_t lo_a = rng.Below(kValueRange - kConjWidth);
      const int64_t lo_b = rng.Below(kValueRange - kConjWidth);
      const Window wa{lo_a, lo_a + kConjWidth - 1};
      const Window wb{lo_b, lo_b + kConjWidth - 1};
      Query query{{Predicate::Between<int64_t>("a", wa.lo, wa.hi),
                   Predicate::Between<int64_t>("b", wb.lo, wb.hi)},
                  CountOrSum(i),
                  "a"};
      pool_.push_back(QuerySpec::Simple(kTable, std::move(query)));
      want_.push_back(Want(CountOrSum(i), TallyConjunction(a_, b_, wa, wb)));
    }
    burst_ = MakeBurst({{"a", &a_}, {"b", &b_}});
  }

  void RunRound(int64_t round, const Mode& mode, RoundResult* out) override {
    Rng rng(RoundSeed(round));
    std::vector<size_t> stream(kQueries);
    for (size_t& q : stream) q = static_cast<size_t>(rng.Below(kPool));
    std::vector<std::pair<std::string, std::vector<int64_t>>> columns = {
        {"a", a_}, {"b", b_}};

    const int64_t setup_start = NowNanos();
    std::unique_ptr<Session> session = LoadSession(std::move(columns));
    out->setup_s = static_cast<double>(NowNanos() - setup_start) / 1e9;

    const int64_t stream_start = NowNanos();
    for (size_t q : stream) {
      const int64_t t0 = NowNanos();
      Result<QueryResult> result = session->ExecuteSpec(pool_[q]);
      const int64_t t1 = NowNanos();
      RecordQuery(result, pool_[q], want_[q], t0, t1, "execute_spec",
                  next_request_++, mode, out);
    }
    out->stream_ns = NowNanos() - stream_start;
    SnapshotIndexes(*session, {"a", "b"}, out);
    for (const AppendBatch& batch : burst_) {
      TimedAppend(session.get(), batch, out);
    }
  }

 private:
  std::vector<int64_t> a_;
  std::vector<int64_t> b_;
  std::vector<QuerySpec> pool_;
  std::vector<Expected> want_;
  std::vector<AppendBatch> burst_;
};

// A QueryServer at default options over one clustered adaptive column,
// driven by three closed-loop clients (four threads with the dispatcher
// on a 4-vCPU machine). Each client is a dashboard panel drawing specs
// from a 64-predicate hot set with Zipf popularity.
class Served : public Workload {
 public:
  static constexpr int64_t kSlots = 256;
  static constexpr int64_t kHot = 64;
  static constexpr int kClients = 3;
  static constexpr int64_t kClientQueries = 400;
  static constexpr int64_t kBatchPollEvery = 8;

  explicit Served(uint64_t seed) : Workload(seed), zipf_(kHot, kZipfTheta) {
    data_ = ClusteredColumn(kRows, 256, 0.002, SubSeed(seed, 1));
    windows_ = QuantileWindows(data_, kSlots, kSkewWidth);
    TallyWindows(data_, 0, data_.size(), windows_, &tallies_);
    burst_ = MakeBurst({{"clustered", &data_}});
  }

  void RunRound(int64_t round, const Mode& mode, RoundResult* out) override {
    // The round's hot set: the first kHot slots of a fresh ranking.
    const uint64_t round_seed = RoundSeed(round);
    const std::vector<int64_t> hot = Permutation(kSlots, round_seed);
    std::vector<std::vector<QuerySpec>> specs(kClients);
    std::vector<std::vector<Expected>> want(kClients);
    for (int c = 0; c < kClients; ++c) {
      Rng rng(SubSeed(round_seed, 1 + static_cast<uint64_t>(c)));
      for (int64_t i = 0; i < kClientQueries; ++i) {
        const int64_t h = zipf_.Next(&rng);
        const size_t slot = static_cast<size_t>(hot[static_cast<size_t>(h)]);
        const AggregateKind agg = CountOrSum(h);
        specs[c].push_back(RangeSpec("clustered", windows_[slot], agg));
        want[c].push_back(Want(agg, tallies_[slot]));
      }
    }
    std::vector<std::pair<std::string, std::vector<int64_t>>> columns = {
        {"clustered", data_}};

    const int64_t setup_start = NowNanos();
    std::unique_ptr<Session> session = LoadSession(std::move(columns));
    auto server = std::make_unique<QueryServer>(session.get());
    out->setup_s = static_cast<double>(NowNanos() - setup_start) / 1e9;

    std::mutex batches_mu;
    std::map<int64_t, BatchTraceEntry> batches;
    auto poll_batches = [&] {
      std::vector<BatchTraceEntry> recent = server->RecentBatches();
      std::lock_guard<std::mutex> lock(batches_mu);
      for (BatchTraceEntry& b : recent) {
        batches.emplace(b.batch_seq, std::move(b));
      }
    };

    std::vector<RoundResult> parts(kClients);
    std::latch start(kClients + 1);
    std::vector<std::thread> clients;
    const int64_t first_request = next_request_;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        start.arrive_and_wait();
        for (size_t i = 0; i < specs[c].size(); ++i) {
          const int64_t t0 = NowNanos();
          Result<QueryResult> result = server->Execute(specs[c][i]);
          const int64_t t1 = NowNanos();
          RecordQuery(result, specs[c][i], want[c][i], t0, t1, "server_execute",
                      first_request + c * kClientQueries +
                          static_cast<int64_t>(i),
                      mode, &parts[c]);
          if (mode.spans != nullptr && i % kBatchPollEvery == 0) poll_batches();
        }
      });
    }
    next_request_ += kClients * kClientQueries;
    const int64_t stream_start = NowNanos();
    start.arrive_and_wait();
    for (std::thread& t : clients) t.join();
    out->stream_ns = NowNanos() - stream_start;

    if (mode.spans != nullptr) poll_batches();
    const ServerStats stats = server->stats();
    server->Shutdown();
    server.reset();
    for (RoundResult& part : parts) out->Merge(std::move(part));
    out->shed += stats.shed();
    out->expired += stats.expired();
    if (mode.spans != nullptr) {
      LayerTotals& l = out->layers;
      l.server_queries += stats.submitted() - stats.shed() - stats.expired();
      l.queue_wait_ns += stats.queue_wait_nanos();
      l.batches += stats.batches();
      l.batch_window_ns += stats.batch_window_nanos();
      l.shared_queries += stats.shared_queries();
      l.kernel_rows += stats.kernel_rows();
      l.serial_rows += stats.serial_equivalent_rows();
      for (const auto& [seq, b] : batches) l.AddBatch(b);
    }
    SnapshotIndexes(*session, {"clustered"}, out);
    for (const AppendBatch& batch : burst_) {
      TimedAppend(session.get(), batch, out);
    }
  }

 private:
  std::vector<int64_t> data_;
  std::vector<Window> windows_;
  std::vector<Tally> tallies_;
  ZipfSampler zipf_;
  std::vector<AppendBatch> burst_;
};

// A random-walk column loaded at a quarter of its final size, then fixed
// chunks appended between fixed runs of skewed queries until it holds
// 4M rows: tail zones, absorbs and scans of the unindexed tail.
class Ingest : public Workload {
 public:
  static constexpr int64_t kFinalRows = 1 << 22;
  static constexpr int64_t kInitialRows = kFinalRows / 4;
  static constexpr int64_t kChunkRows = 1 << 15;
  static constexpr int64_t kChunks = (kFinalRows - kInitialRows) / kChunkRows;
  static constexpr int64_t kQueriesPerChunk = 16;
  static constexpr int64_t kSlots = 256;
  static constexpr int64_t kWalks = kFinalRows / 8192;

  explicit Ingest(uint64_t seed) : Workload(seed), zipf_(kSlots, kZipfTheta) {
    data_ = RandomWalkColumn(kFinalRows, kWalks, 1e-4, SubSeed(seed, 1));
    windows_ = QuantileWindows(data_, kSlots, kSkewWidth);
    std::vector<Tally> running;
    TallyWindows(data_, 0, kInitialRows, windows_, &running);
    for (int64_t k = 0; k < kChunks; ++k) {
      const size_t begin = static_cast<size_t>(kInitialRows + k * kChunkRows);
      TallyWindows(data_, begin, begin + kChunkRows, windows_, &running);
      after_chunk_.push_back(running);
      const auto first = data_.begin() + static_cast<std::ptrdiff_t>(begin);
      chunks_.emplace_back().Add(
          "walk", std::vector<int64_t>(first, first + kChunkRows));
    }
  }

  void RunRound(int64_t round, const Mode& mode, RoundResult* out) override {
    const uint64_t round_seed = RoundSeed(round);
    const std::vector<int64_t> perm = Permutation(kSlots, round_seed);
    Rng rng(SubSeed(round_seed, 1));
    std::vector<size_t> slots(kChunks * kQueriesPerChunk);
    for (size_t& s : slots) {
      s = static_cast<size_t>(perm[static_cast<size_t>(zipf_.Next(&rng))]);
    }
    std::vector<QuerySpec> specs;
    for (size_t i = 0; i < slots.size(); ++i) {
      specs.push_back(RangeSpec("walk", windows_[slots[i]],
                                CountOrSum(static_cast<int64_t>(i))));
    }
    auto want = [&](size_t i) {
      const size_t chunk = i / kQueriesPerChunk;
      return Want(CountOrSum(static_cast<int64_t>(i)),
                  after_chunk_[chunk][slots[i]]);
    };
    std::vector<int64_t> initial(data_.begin(), data_.begin() + kInitialRows);
    if (mode.split_layers) {
      RunSplit(std::move(initial), specs, want, mode, out);
      return;
    }
    std::vector<std::pair<std::string, std::vector<int64_t>>> columns;
    columns.emplace_back("walk", std::move(initial));

    const int64_t setup_start = NowNanos();
    std::unique_ptr<Session> session = LoadSession(std::move(columns));
    out->setup_s = static_cast<double>(NowNanos() - setup_start) / 1e9;

    const int64_t stream_start = NowNanos();
    size_t q = 0;
    for (const AppendBatch& chunk : chunks_) {
      TimedAppend(session.get(), chunk, out);
      for (int64_t j = 0; j < kQueriesPerChunk; ++j, ++q) {
        const int64_t t0 = NowNanos();
        Result<QueryResult> result = session->ExecuteSpec(specs[q]);
        const int64_t t1 = NowNanos();
        RecordQuery(result, specs[q], want(q), t0, t1, "execute_spec",
                    next_request_++, mode, out);
      }
    }
    out->stream_ns = NowNanos() - stream_start;
    SnapshotIndexes(*session, {"walk"}, out);
  }

 private:
  // The Table + IndexManager + ScanExecutor stack Session composes, driven
  // directly so an append splits into Table::Append (storage) and
  // IndexManager::OnAppend (adaptive).
  template <typename WantFn>
  void RunSplit(std::vector<int64_t> initial,
                const std::vector<QuerySpec>& specs, const WantFn& want,
                const Mode& mode, RoundResult* out) {
    const int64_t setup_start = NowNanos();
    auto table = std::make_shared<Table>(kTable);
    ADASKIP_CHECK_OK(
        table->AddColumn("walk", adaskip::MakeColumn(std::move(initial))));
    IndexManager indexes(table);
    ADASKIP_CHECK_OK(indexes.AttachIndex("walk", IndexOptions::Adaptive()));
    ScanExecutor executor(table, &indexes);
    out->setup_s = static_cast<double>(NowNanos() - setup_start) / 1e9;

    const int64_t stream_start = NowNanos();
    size_t q = 0;
    for (const AppendBatch& chunk : chunks_) {
      ++out->attempted;
      const int64_t t0 = NowNanos();
      Result<RowRange> appended = table->Append(chunk);
      const int64_t t1 = NowNanos();
      if (appended.ok()) indexes.OnAppend(*appended);
      const int64_t t2 = NowNanos();
      if (!appended.ok()) {
        ++out->failed;
      } else {
        out->append_us.push_back(static_cast<double>(t2 - t0) / 1e3);
      }
      if (mode.spans != nullptr) {
        const int64_t request = next_request_++;
        const int32_t root = mode.spans->Add(
            {"append", "engine", t0, t2, -1, request, false});
        mode.spans->Add(
            {"table_append", "storage", t0, t1, root, request, false});
        mode.spans->Add(
            {"on_append", "adaptive", t1, t2, root, request, false});
        ++out->layers.appends;
        out->layers.table_append_ns += t1 - t0;
        out->layers.on_append_ns += t2 - t1;
      }
      for (int64_t j = 0; j < kQueriesPerChunk; ++j, ++q) {
        const int64_t s0 = NowNanos();
        Result<QueryResult> result = executor.Execute(specs[q].query);
        const int64_t s1 = NowNanos();
        RecordQuery(result, specs[q], want(q), s0, s1, "scan_executor_execute",
                    next_request_++, mode, out);
      }
    }
    out->stream_ns = NowNanos() - stream_start;

    const adaskip::SkipIndex* index = indexes.GetIndex("walk");
    out->layers.AddIndex(index->ZoneCount(), index->GetAdaptationProfile());
    ++out->layers.rounds;
    out->metadata_bytes_per_row =
        static_cast<double>(indexes.MemoryUsageBytes()) /
        static_cast<double>(table->num_rows());
  }

  std::vector<int64_t> data_;
  std::vector<Window> windows_;
  ZipfSampler zipf_;
  std::vector<std::vector<Tally>> after_chunk_;  // Per chunk, per window.
  std::vector<AppendBatch> chunks_;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "skew-adapt") return std::make_unique<SkewAdapt>(seed);
  if (name == "conj-scan") return std::make_unique<ConjScan>(seed);
  if (name == "served") return std::make_unique<Served>(seed);
  if (name == "ingest") return std::make_unique<Ingest>(seed);
  return nullptr;
}

double Ratio(int64_t num, int64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

double Us(int64_t ns, int64_t den) { return Ratio(ns, den) / 1e3; }

/// Rounds measured in one arm (untraced or traced). Each end-to-end
/// metric is taken per round and reported as the median over rounds, so
/// a burst of outside load that hits a few rounds does not move it.
struct Arm {
  std::vector<double> setup_s;
  std::vector<double> p50_us;
  std::vector<double> p95_us;
  std::vector<double> qps;
  std::vector<double> metadata_bytes_per_row;
  std::vector<double> append_p50_us;
  int64_t queries = 0;
  int64_t stream_ns = 0;
  LayerTotals layers;

  void Add(const RoundResult& r) {
    setup_s.push_back(r.setup_s);
    p50_us.push_back(Percentile(r.query_us, 50));
    p95_us.push_back(Percentile(r.query_us, 95));
    qps.push_back(static_cast<double>(r.query_us.size()) * 1e9 /
                  static_cast<double>(r.stream_ns));
    metadata_bytes_per_row.push_back(r.metadata_bytes_per_row);
    append_p50_us.push_back(Percentile(r.append_us, 50));
    queries += static_cast<int64_t>(r.query_us.size());
    stream_ns += r.stream_ns;
    layers.Add(r.layers);
  }

  double qps_overall() const { return Ratio(queries, stream_ns) * 1e9; }
};

std::vector<Metric> EndToEnd(const Arm& arm) {
  return {
      {"setup_s", "s", Percentile(arm.setup_s, 50)},
      {"query_p50_us", "us", Percentile(arm.p50_us, 50)},
      {"query_p95_us", "us", Percentile(arm.p95_us, 50)},
      {"queries_per_s", "1/s", Percentile(arm.qps, 50)},
      {"metadata_bytes_per_row", "B/row",
       Percentile(arm.metadata_bytes_per_row, 50)},
      {"append_p50_us", "us", Percentile(arm.append_p50_us, 50)},
  };
}

std::vector<Metric> PerLayer(const Arm& untraced, const Arm& traced,
                             const std::vector<Span>& spans) {
  const LayerTotals& l = traced.layers;
  const std::map<std::string, int64_t> self = LayerSelfTimes(spans);
  // Per-query averages; "us" variants convert from nanoseconds.
  const auto per_query = [&](int64_t v) { return Ratio(v, l.queries); };
  const auto us_per_query = [&](int64_t ns) { return Us(ns, l.queries); };
  const auto self_us = [&](const char* layer) {
    const auto it = self.find(layer);
    return us_per_query(it == self.end() ? 0 : it->second);
  };
  const double client_us = us_per_query(l.call_ns);
  const double wait_us = Us(l.queue_wait_ns, l.server_queries);
  const double pass_us = Us(l.member_pass_ns, l.pass_width);
  const double dispatch_gap_us =
      l.server_queries > 0 ? client_us - wait_us - pass_us : 0.0;
  const double overhead_pct =
      (untraced.qps_overall() / traced.qps_overall() - 1.0) * 100.0;
  return {
      {"engine.self_us", "us",
       us_per_query(l.call_ns - l.probe_ns - l.scan_ns - l.adapt_ns)},
      {"engine.server_queue_wait_us", "us", wait_us},
      {"engine.server_batch_window_us", "us", Us(l.batch_window_ns, l.batches)},
      {"engine.server_peek_us", "us", Us(l.peek_ns, l.traced_batches)},
      {"engine.server_scan_us", "us", Us(l.batch_scan_ns, l.traced_batches)},
      {"engine.server_replay_us", "us", Us(l.replay_ns, l.traced_batches)},
      {"engine.server_dispatch_gap_us", "us", dispatch_gap_us},
      {"engine.server_batch_width", "queries",
       Ratio(l.shared_queries, l.batches)},
      {"engine.server_saved_row_share", "ratio",
       Ratio(l.serial_rows - l.kernel_rows, l.serial_rows)},
      {"skipping.probe_us", "us", us_per_query(l.probe_ns)},
      {"skipping.entries_read", "count", per_query(l.entries_read)},
      {"skipping.candidate_ranges", "count", per_query(l.candidate_ranges)},
      {"skipping.scanned_fraction", "ratio",
       Ratio(l.rows_scanned, l.rows_total)},
      {"skipping.match_precision", "ratio",
       Ratio(l.rows_matched, l.rows_scanned)},
      {"adaptive.adapt_us", "us", us_per_query(l.adapt_ns)},
      {"adaptive.zones", "count", Ratio(l.zones, l.rounds)},
      {"adaptive.splits", "count", per_query(l.splits)},
      {"adaptive.merges", "count", per_query(l.merges)},
      {"adaptive.bypassed_probe_share", "ratio",
       Ratio(l.bypassed_probes, l.probes)},
      {"adaptive.tail_absorbs", "count", per_query(l.tail_absorbs)},
      {"adaptive.tail_rows_scanned", "count", per_query(l.tail_rows_scanned)},
      {"adaptive.on_append_us", "us", Us(l.on_append_ns, l.appends)},
      {"scan.scan_us", "us", us_per_query(l.scan_ns)},
      {"scan.ns_per_row", "ns", Ratio(l.scan_ns, l.rows_scanned)},
      {"scan.rows_scanned", "count", per_query(l.rows_scanned)},
      {"storage.append_us", "us", Us(l.table_append_ns, l.appends)},
      {"trace.engine_self_us", "us", self_us("engine")},
      {"trace.skipping_self_us", "us", self_us("skipping")},
      {"trace.adaptive_self_us", "us", self_us("adaptive")},
      {"trace.scan_self_us", "us", self_us("scan")},
      {"trace.storage_self_us", "us", self_us("storage")},
      {"trace.overhead_pct", "%", overhead_pct},
  };
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"skew-adapt", "conj-scan",
                                                 "served", "ingest"};
  return names;
}

Report RunBenchmark(const RunOptions& options) {
  std::unique_ptr<Workload> workload =
      MakeWorkload(options.workload, options.seed);
  ADASKIP_CHECK(workload != nullptr);
  Report report;
  SpanRecorder spans;
  // Round 0 warms code, allocator and page tables and is not reported;
  // its answers are still checked. A traced run alternates untraced and
  // traced rounds so both arms see the same machine state.
  Arm arms[2];
  const int64_t min_rounds = options.trace ? 5 : 3;
  const int64_t deadline =
      NowNanos() + static_cast<int64_t>(options.seconds * 1e9);
  for (int64_t round = 0;; ++round) {
    const bool traced = options.trace && round % 2 == 0 && round > 0;
    Mode mode;
    mode.spans = traced ? &spans : nullptr;
    mode.split_layers = options.trace;
    RoundResult result;
    workload->RunRound(round, mode, &result);
    report.attempted += result.attempted;
    report.failed += result.failed;
    report.wrong += result.wrong;
    report.shed += result.shed;
    report.expired += result.expired;
    if (round > 0) arms[traced ? 1 : 0].Add(result);
    if (round + 1 >= min_rounds && NowNanos() >= deadline) break;
  }
  report.rounds =
      static_cast<int64_t>(arms[0].setup_s.size() + arms[1].setup_s.size());
  report.queries = arms[0].queries + arms[1].queries;
  if (!options.trace) {
    report.metrics = EndToEnd(arms[0]);
    return report;
  }
  const std::vector<Span> all = spans.spans();
  report.metrics = PerLayer(arms[0], arms[1], all);
  if (!options.trace_path.empty() &&
      !spans.WriteJson(options.trace_path, 200'000)) {
    std::fprintf(stderr, "could not write %s\n", options.trace_path.c_str());
  }
  return report;
}

}  // namespace skipbench
