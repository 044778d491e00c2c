#include "adaskip/engine/scan_executor.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>

#include "adaskip/obs/metrics.h"
#include "adaskip/scan/packed_kernels.h"
#include "adaskip/scan/scan_kernel.h"
#include "adaskip/scan/simd/kernel_dispatch.h"
#include "adaskip/storage/type_dispatch.h"
#include "adaskip/util/interval_set.h"
#include "adaskip/util/stopwatch.h"

namespace adaskip {

std::string_view AggregateKindToString(AggregateKind kind) {
  switch (kind) {
    case AggregateKind::kCount:
      return "COUNT";
    case AggregateKind::kSum:
      return "SUM";
    case AggregateKind::kMin:
      return "MIN";
    case AggregateKind::kMax:
      return "MAX";
    case AggregateKind::kMaterialize:
      return "MATERIALIZE";
  }
  return "?";
}

std::string Query::ToString() const {
  std::string out(AggregateKindToString(aggregate));
  out += "(";
  out += aggregate_column.empty()
             ? (predicates.empty() ? "*" : predicates[0].column)
             : aggregate_column;
  out += ") WHERE ";
  for (size_t i = 0; i < predicates.size(); ++i) {
    if (i > 0) out += " AND ";
    out += predicates[i].ToString();
  }
  return out;
}

namespace {

/// The aggregation target column of `query` (defaults to the first
/// predicate's column).
std::string_view AggregateColumnOf(const Query& query) {
  if (!query.aggregate_column.empty()) return query.aggregate_column;
  return query.predicates[0].column;
}

/// True if candidate ranges are sorted, disjoint, and inside [0, n).
bool CandidatesAreWellFormed(const std::vector<RowRange>& ranges, int64_t n) {
  int64_t cursor = 0;
  for (const RowRange& r : ranges) {
    if (r.begin < cursor || r.end <= r.begin || r.end > n) return false;
    cursor = r.end;
  }
  return true;
}

/// One unit of parallel scan work: a slice of a single candidate range.
/// Morsels never cross range boundaries, so summing morsel matches per
/// `range_index` reconstructs exact per-range (zone-exact) feedback.
struct Morsel {
  RowRange rows;
  size_t range_index;
};

/// Calls `fn(morsel)` for the morsels of one candidate range, in row
/// order: slices of at most `morsel_rows` rows, additionally split at
/// multiples of `segment_rows` so every morsel sits inside one storage
/// segment (and can be scanned through a single contiguous span). Because
/// segment sizes are powers of two, multiples of the *smallest* segment
/// size among several columns are boundaries for all of them — and the
/// next boundary is a mask away, not a division.
template <typename Fn>
void ForEachMorselOf(RowRange range, int64_t morsel_rows,
                     int64_t segment_rows, Fn&& fn) {
  ADASKIP_DCHECK(std::has_single_bit(static_cast<uint64_t>(segment_rows)));
  morsel_rows = std::max<int64_t>(morsel_rows, 1);
  for (int64_t begin = range.begin; begin < range.end;) {
    const int64_t boundary = (begin | (segment_rows - 1)) + 1;
    const int64_t end = std::min({begin + morsel_rows, boundary, range.end});
    fn(RowRange{begin, end});
    begin = end;
  }
}

/// How one scan cuts its candidate ranges into morsels (ForEachMorselOf).
/// The morsel list exists only when a pool scans: one thread walks the
/// ranges in place, through a single reused scan slot.
struct MorselPlan {
  MorselPlan(const std::vector<RowRange>& candidate_ranges, int64_t rows,
             int64_t morsel_rows_in, int64_t segment_rows_in,
             ThreadPool* workers)
      : ranges(candidate_ranges),
        morsel_rows(morsel_rows_in),
        segment_rows(segment_rows_in),
        max_morsel_rows(std::min({morsel_rows_in, segment_rows_in, rows})),
        pool(workers) {
    if (pool == nullptr) return;
    morsels.reserve(ranges.size());
    for (size_t r = 0; r < ranges.size(); ++r) {
      ForEachMorselOf(ranges[r], morsel_rows, segment_rows,
                      [&](RowRange piece) { morsels.push_back({piece, r}); });
    }
  }

  /// Scan slots the bodies keep per-morsel state in: one per morsel with
  /// a pool, a single reused one without.
  size_t slots() const { return pool == nullptr ? 1 : morsels.size(); }

  /// The most rows a morsel scanned into `slot` can have.
  int64_t SlotRows(size_t slot) const {
    return pool == nullptr ? max_morsel_rows : morsels[slot].rows.size();
  }

  const std::vector<RowRange>& ranges;
  int64_t morsel_rows;
  int64_t segment_rows;
  int64_t max_morsel_rows;
  ThreadPool* pool;
  std::vector<Morsel> morsels;
};

/// Morsel count and time of one RunMorsels call.
struct MorselTimes {
  int64_t morsels = 0;
  // With a pool: summed scan time (CPU, not wall clock). Without one: the
  // whole walk, folds included, under one timer.
  int64_t scan_nanos = 0;
  int64_t fold_nanos = 0;  // Post-barrier fold time; 0 without a pool.
};

/// Runs `scan(slot, morsel)` for every morsel of the plan and
/// `fold(slot, morsel, range_index)` over them in row order. Without a
/// pool the candidate ranges are walked in place: each morsel is scanned
/// into slot 0 and folded right behind its scan, its data still in cache.
/// With one, the workers scan morsel m into slot m and the calling thread
/// folds them after the barrier. Either way the folds see the same
/// morsels in the same order, so whatever they accumulate does not depend
/// on the thread count. Scans only read shared state and write their own
/// slot; everything else belongs to the fold.
template <typename Scan, typename Fold>
MorselTimes RunMorsels(const MorselPlan& plan, Scan&& scan, Fold&& fold) {
  MorselTimes times;
  if (plan.pool == nullptr) {
    Stopwatch walk_timer;
    for (size_t r = 0; r < plan.ranges.size(); ++r) {
      ForEachMorselOf(plan.ranges[r], plan.morsel_rows, plan.segment_rows,
                      [&](RowRange rows) {
                        scan(size_t{0}, rows);
                        fold(size_t{0}, rows, r);
                        ++times.morsels;
                      });
    }
    times.scan_nanos = walk_timer.ElapsedNanos();
    return times;
  }
  // Pool job metrics live here rather than in util/thread_pool.cc because
  // util/ sits below obs/ in the layering DAG.
  ADASKIP_METRIC_COUNTER(jobs, "adaskip.pool.jobs",
                         "Parallel jobs submitted to thread pools");
  ADASKIP_METRIC_HISTOGRAM(tasks, "adaskip.pool.tasks_per_job",
                           "Task count per submitted parallel job");
  const std::vector<Morsel>& morsels = plan.morsels;
  times.morsels = static_cast<int64_t>(morsels.size());
  jobs.Increment();
  tasks.Observe(times.morsels);
  std::vector<int64_t> worker_nanos(
      static_cast<size_t>(plan.pool->num_workers()), 0);
  plan.pool->ParallelFor(times.morsels, [&](int64_t m, int worker) {
    Stopwatch scan_timer;
    scan(static_cast<size_t>(m), morsels[static_cast<size_t>(m)].rows);
    worker_nanos[static_cast<size_t>(worker)] += scan_timer.ElapsedNanos();
  });
  for (int64_t nanos : worker_nanos) times.scan_nanos += nanos;
  Stopwatch fold_timer;
  for (size_t m = 0; m < morsels.size(); ++m) {
    fold(m, morsels[m].rows, morsels[m].range_index);
  }
  times.fold_nanos = fold_timer.ElapsedNanos();
  return times;
}

/// Builds the "probe" trace span from the already-filled probe stats.
obs::TraceSpan MakeProbeSpan(const QueryStats& stats) {
  obs::TraceSpan span("probe");
  span.duration_nanos = stats.probe_nanos;
  span.Set("index", stats.index_name)
      .Set("rows_total", stats.rows_total)
      .Set("zones_candidate", stats.probe.zones_candidate)
      .Set("zones_skipped", stats.probe.zones_skipped)
      .Set("entries_read", stats.probe.entries_read)
      .Set("candidate_ranges", stats.candidate_ranges)
      .Set("tail_rows", stats.tail_rows);
  return span;
}

/// True when the query has one predicate and its aggregate reads that
/// predicate's own column. Such a query scans one column: the fused
/// per-aggregate kernels answer it, and a shared batch can answer it from
/// the predicate's match positions. Every other query is evaluated as
/// match words ANDed per morsel.
bool AggregatesOwnColumn(const Query& query) {
  return query.predicates.size() == 1 &&
         (query.aggregate == AggregateKind::kCount ||
          query.aggregate == AggregateKind::kMaterialize ||
          AggregateColumnOf(query) == query.predicates[0].column);
}

/// One predicate of a query, from its probe to its query-complete
/// feedback: the column it filters, the synced index serving it (nullptr
/// scans the whole column), what the probe returned, and — when tracing —
/// the index state the adapt span diffs against.
struct Term {
  const Predicate* pred = nullptr;
  const Column* column = nullptr;
  SkipIndex* index = nullptr;
  std::vector<RowRange> candidates;
  ProbeStats probe;
  int64_t tail_rows = 0;
  // Rows of the query's scanned candidates matching this predicate alone:
  // the currency of its index's feedback (a zonemap predicts its own
  // column's selectivity, not the conjunction's).
  int64_t own_matches = 0;
  AdaptationProfile profile_before;
  std::string describe_before;

  std::string_view index_name() const {
    return index != nullptr ? index->name() : "none";
  }
};

/// Begin step of a term: fetches the column's synced index (a stale index
/// fails the query), captures the index state when `trace` is non-null,
/// and probes. Without an index the whole column is one candidate range.
/// The probe's accounting adds to `stats`.
Status BeginTerm(const Table& table, IndexManager* indexes,
                 const Predicate& pred, const obs::QueryTrace* trace,
                 Term* term, QueryStats* stats) {
  term->pred = &pred;
  ADASKIP_ASSIGN_OR_RETURN(term->column, table.ColumnByName(pred.column));
  if (indexes != nullptr) {
    ADASKIP_ASSIGN_OR_RETURN(term->index, indexes->GetSyncedIndex(pred.column));
  }
  const int64_t rows = term->column->size();
  if (term->index != nullptr) {
    term->tail_rows = term->index->UnindexedTailRows();
    if (trace != nullptr) {
      term->profile_before = term->index->GetAdaptationProfile();
      if (trace->detail()) term->describe_before = term->index->Describe();
    }
    Stopwatch probe_timer;
    term->index->Probe(pred, &term->candidates, &term->probe);
    stats->probe_nanos += probe_timer.ElapsedNanos();
  } else if (rows > 0) {
    term->candidates.push_back({0, rows});
    term->probe.zones_candidate = 1;
  }
  stats->probe.Add(term->probe);
  stats->tail_rows += term->tail_rows;
  ADASKIP_DCHECK(CandidatesAreWellFormed(term->candidates, rows));
  return Status::OK();
}

/// Finish step of a term, after its range feedback: hands the index the
/// query-complete summary (`stats` holds the query's totals) and drains
/// the adaptation time and tail rows the query cost into `stats`. When
/// tracing, returns the term's "adapt" span, which diffs the index's
/// adaptation profile across the query.
std::optional<obs::TraceSpan> FinishTerm(Term* term,
                                         const obs::QueryTrace* trace,
                                         QueryStats* stats) {
  SkipIndex* index = term->index;
  if (index == nullptr) return std::nullopt;
  QueryFeedback feedback;
  feedback.rows_total = stats->rows_total;
  feedback.rows_scanned = stats->rows_scanned;
  feedback.rows_matched = term->own_matches;
  feedback.probe = term->probe;
  index->OnQueryComplete(*term->pred, feedback);
  const int64_t adapt_nanos = index->TakeAdaptationNanos();
  const int64_t tail_rows_scanned = index->TakeTailRowsScanned();
  stats->adapt_nanos += adapt_nanos;
  stats->tail_rows_scanned += tail_rows_scanned;
  if (trace == nullptr) return std::nullopt;

  const AdaptationProfile& before = term->profile_before;
  const AdaptationProfile after = index->GetAdaptationProfile();
  obs::TraceSpan span("adapt");
  span.duration_nanos = adapt_nanos;
  span.Set("index", index->name())
      .Set("zones_refined", after.zones_refined - before.zones_refined)
      .Set("zones_merged", after.zones_merged - before.zones_merged)
      .Set("rebuilds", after.rebuilds - before.rebuilds)
      .Set("tail_absorbs", after.tail_absorbs - before.tail_absorbs)
      .Set("bypassed_probe", after.bypassed_probes > before.bypassed_probes)
      .Set("mode", after.bypass ? "bypass" : "active")
      .Set("cost_model", after.cost_model_enabled ? "enabled" : "disabled")
      .Set("net_benefit_per_row", after.net_benefit_per_row)
      .Set("skip_ewma", after.skipped_fraction_ewma)
      .Set("entries_per_row_ewma", after.entries_per_row_ewma)
      .Set("queries_observed", after.queries_observed)
      .Set("tail_rows_scanned", tail_rows_scanned);
  if (trace->detail()) {
    span.Set("index_before", std::move(term->describe_before));
    span.Set("index_after", index->Describe());
  }
  return span;
}

/// What ScanPiece accumulates over the pieces it is handed: the match
/// count, sum (kSum), min/max of the matches (kMin/kMax; untouched while
/// nothing matched), materialized row ids (kMaterialize), and the rows a
/// packed-segment kernel served.
template <typename T>
struct ScanPartial {
  int64_t matches = 0;
  double sum = 0.0;
  T min = std::numeric_limits<T>::max();
  T max = std::numeric_limits<T>::lowest();
  SelectionVector rows;
  int64_t packed_rows = 0;
};

/// Adds the morsel partial `part` to the running partial `total`, in the
/// order one thread would have scanned it, moving its rows out.
template <typename T>
void FoldPartial(ScanPartial<T>* part, ScanPartial<T>* total) {
  total->matches += part->matches;
  total->sum += part->sum;
  if (part->matches > 0) {
    total->min = std::min(total->min, part->min);
    total->max = std::max(total->max, part->max);
  }
  for (int64_t row : part->rows.rows()) total->rows.Append(row);
  part->rows = SelectionVector();
  total->packed_rows += part->packed_rows;
}

/// Scans one segment-contained piece of `column` with the kernel
/// matching `aggregate` and adds its answer to `out`. Integer segments
/// that adopted a packed layout scan through the packed-domain kernels
/// (in segment-local coordinates); everything else goes through the
/// dispatched (AVX2 or scalar) raw kernels over the segment span. Both
/// routes are bit-identical by contract, so the choice is invisible in
/// results — only in speed and in the rows_scanned_packed stat.
template <typename T>
void ScanPiece(const TypedColumn<T>& column, RowRange piece,
               AggregateKind aggregate, const ValueInterval<T>& interval,
               ScanPartial<T>* out) {
  auto add_sum = [out](SumCount<T> sc) {
    out->sum += sc.sum;
    out->matches += sc.count;
  };
  auto add_min_max = [out](MinMaxCount<T> mmc) {
    if (mmc.count > 0) {
      out->min = std::min(out->min, mmc.min);
      out->max = std::max(out->max, mmc.max);
    }
    out->matches += mmc.count;
  };
  if constexpr (std::is_integral_v<T>) {
    const PackedSegment<T>* packed =
        column.packed_segment(column.SegmentOf(piece.begin));
    if (packed != nullptr) {
      const int64_t off = column.OffsetInSegment(piece.begin);
      const RowRange local{off, off + piece.size()};
      out->packed_rows += piece.size();
      switch (aggregate) {
        case AggregateKind::kCount:
          out->matches += PackedCountMatches(*packed, local, interval);
          return;
        case AggregateKind::kSum:
          return add_sum(PackedSumMatchesCounted(*packed, local, interval));
        case AggregateKind::kMin:
        case AggregateKind::kMax:
          return add_min_max(
              PackedMinMaxMatchesCounted(*packed, local, interval));
        case AggregateKind::kMaterialize:
          out->matches +=
              PackedMaterializeMatches(*packed, local, interval, &out->rows,
                                       /*base_row=*/piece.begin - off);
          return;
      }
      return;
    }
  }
  const std::span<const T> values = column.SpanFor(piece);
  const RowRange local{0, piece.size()};
  switch (aggregate) {
    case AggregateKind::kCount:
      out->matches += simd::CountMatches(values, local, interval);
      return;
    case AggregateKind::kSum:
      return add_sum(simd::SumMatchesCounted(values, local, interval));
    case AggregateKind::kMin:
    case AggregateKind::kMax:
      return add_min_max(simd::MinMaxMatchesCounted(values, local, interval));
    case AggregateKind::kMaterialize:
      out->matches += simd::MaterializeMatches(values, local, interval,
                                               &out->rows,
                                               /*base=*/piece.begin);
      return;
  }
}

/// The conjunction twin of ScanPiece: ANDs the match words of
/// `interval` over one segment-contained piece of `column` into `words`,
/// through the packed kernel when the segment adopted a packed layout and
/// the dispatched raw kernel otherwise. `packed_rows` (optional) counts
/// the piece's rows when the packed kernel served it.
template <typename T>
WordMatches AndPieceWords(const TypedColumn<T>& column, RowRange piece,
                          const ValueInterval<T>& interval, uint64_t* words,
                          int64_t* packed_rows) {
  if constexpr (std::is_integral_v<T>) {
    const PackedSegment<T>* packed =
        column.packed_segment(column.SegmentOf(piece.begin));
    if (packed != nullptr) {
      const int64_t off = column.OffsetInSegment(piece.begin);
      if (packed_rows != nullptr) *packed_rows += piece.size();
      return PackedAndMatchWords(*packed, RowRange{off, off + piece.size()},
                                 interval, words);
    }
  }
  return simd::AndMatchWords(column.SpanFor(piece), RowRange{0, piece.size()},
                             interval, words);
}

/// Calls `fn(row)` for every set bit of the match words of `rows`, in
/// ascending row order.
template <typename Fn>
void ForEachSetRow(const uint64_t* words, RowRange rows, Fn&& fn) {
  for (int64_t k = 0; k < MatchWordsFor(rows.size()); ++k) {
    for (uint64_t bits = words[k]; bits != 0; bits &= bits - 1) {
      fn(rows.begin + k * 64 + std::countr_zero(bits));
    }
  }
}

/// Per-query fleet metrics, emitted once per completed query by both the
/// standalone path (Execute) and the shared pass (ExecuteShared) — a
/// query batched into a shared pass counts exactly like a standalone
/// one, with its serial-equivalent rows_scanned, so skip-rate dashboards
/// stay comparable across submission modes.
void RecordQueryMetrics(const QueryStats& stats) {
  ADASKIP_METRIC_COUNTER(queries, "adaskip.exec.queries",
                         "Queries executed to completion");
  ADASKIP_METRIC_COUNTER(scanned, "adaskip.exec.rows_scanned",
                         "Rows touched by scan kernels");
  ADASKIP_METRIC_COUNTER(skipped, "adaskip.exec.rows_skipped",
                         "Rows pruned by skip indexes before scanning");
  ADASKIP_METRIC_HISTOGRAM(latency, "adaskip.exec.query_nanos",
                           "End-to-end query latency in nanoseconds");
  queries.Increment();
  scanned.Add(stats.rows_scanned);
  skipped.Add(std::max<int64_t>(stats.rows_total - stats.rows_scanned, 0));
  latency.Observe(stats.total_nanos);
}

/// Calls `fn(piece)` for every maximal sub-range of `window` covered by
/// the canonical interval set `ranges` — the per-morsel intersection
/// step of the shared pass. Binary-searches to the first overlapping
/// range, so cost is O(log |ranges| + overlaps).
template <typename Fn>
void ForEachOverlap(const std::vector<RowRange>& ranges, RowRange window,
                    Fn&& fn) {
  auto it = std::lower_bound(
      ranges.begin(), ranges.end(), window.begin,
      [](const RowRange& r, int64_t begin) { return r.end <= begin; });
  for (; it != ranges.end() && it->begin < window.end; ++it) {
    const RowRange piece{std::max(it->begin, window.begin),
                         std::min(it->end, window.end)};
    if (!piece.empty()) fn(piece);
  }
}

}  // namespace

Status ValidateExecOptions(const ExecOptions& options) {
  if (options.num_threads < 1 || options.num_threads > kMaxExecThreads) {
    return Status::InvalidArgument(
        "num_threads must be in [1, " + std::to_string(kMaxExecThreads) +
        "]; got " + std::to_string(options.num_threads));
  }
  if (options.morsel_rows < 1) {
    return Status::InvalidArgument("morsel_rows must be >= 1; got " +
                                   std::to_string(options.morsel_rows));
  }
  if (!obs::TraceLevelIsValid(options.trace_level)) {
    return Status::InvalidArgument(
        "trace_level is not a valid TraceLevel; got " +
        std::to_string(static_cast<int>(options.trace_level)));
  }
  return Status::OK();
}

Status ScanExecutor::set_exec_options(const ExecOptions& options) {
  ADASKIP_DCHECK_SERIAL(exec_serial_);
  ADASKIP_RETURN_IF_ERROR(ValidateExecOptions(options));
  options_ = options;  // The pool is (re)sized lazily by MorselPool().
  return Status::OK();
}

ThreadPool* ScanExecutor::MorselPool(int64_t candidate_rows) {
  if (options_.num_threads <= 1 || candidate_rows <= options_.morsel_rows) {
    return nullptr;
  }
  if (pool_ == nullptr || pool_->num_workers() != options_.num_threads) {
    pool_ = std::make_unique<ThreadPool>(options_.num_threads);
  }
  return pool_.get();
}

Status ScanExecutor::ValidateQuery(const Query& query) const {
  if (query.predicates.empty()) {
    return Status::InvalidArgument("query needs at least one predicate");
  }
  for (const Predicate& pred : query.predicates) {
    int64_t index = table_->ColumnIndex(pred.column);
    if (index < 0) {
      return Status::NotFound("no column '" + pred.column + "' in table '" +
                              table_->name() + "'");
    }
    DataType type = table_->schema()[static_cast<size_t>(index)].type;
    if (!ScalarMatchesType(pred.lower, type) ||
        (pred.op == CompareOp::kBetween &&
         !ScalarMatchesType(pred.upper, type))) {
      return Status::InvalidArgument(
          "predicate on '" + pred.column + "' carries a scalar that does " +
          "not match the column type " + std::string(DataTypeToString(type)));
    }
  }
  if (query.aggregate != AggregateKind::kCount &&
      query.aggregate != AggregateKind::kMaterialize &&
      table_->ColumnIndex(AggregateColumnOf(query)) < 0) {
    return Status::NotFound("no aggregate column '" +
                            std::string(AggregateColumnOf(query)) +
                            "' in table '" + table_->name() + "'");
  }
  return Status::OK();
}

Result<QueryResult> ScanExecutor::Execute(const Query& query) {
  // One query at a time per executor: adaptation replay, options_, and
  // pool_ all assume a single coordinator (asserted in debug builds).
  ADASKIP_DCHECK_SERIAL(exec_serial_);
  ADASKIP_RETURN_IF_ERROR(ValidateQuery(query));

  Result<QueryResult> result = ExecuteConjunction(query, options_.trace_level);
  if (result.ok()) RecordQueryMetrics(result.value().stats);
  return result;
}

SharedBatchResult ScanExecutor::ExecuteShared(
    const std::vector<SharedQueryRequest>& batch) {
  // The shared pass is still one coordinator's work: planning, the
  // morsel barrier, and the submission-order replay all assume it.
  ADASKIP_DCHECK_SERIAL(exec_serial_);
  SharedBatchResult out;
  const size_t n = batch.size();
  out.pass.queries = static_cast<int64_t>(n);
  if (n == 0) return out;

  // --- Plan: classify each query; peek candidates for shared ones. ---
  //
  // PeekCandidates is side-effect free, so peeking every query up front
  // does not disturb the adaptive state the replay below depends on.
  // Peeked sets only promise to be supersets of each query's matches —
  // exactness is not needed for planning, only for feedback, which the
  // replay reconstructs from the real Probe.
  Stopwatch peek_timer;
  enum class Lane : uint8_t { kShared, kSolo, kFailed };
  struct Slot {
    Lane lane = Lane::kSolo;
    Status error;  // kFailed: this query's own failure; batch proceeds.
    // kShared only:
    const Column* column = nullptr;
    std::vector<RowRange> peek;  // Canonical planning candidates.
    SelectionVector matches;     // Global match rows, ascending.
    int64_t kernel_nanos = 0;    // This predicate's shared-kernel time.
    int64_t kernel_rows = 0;
    int64_t packed_rows = 0;
    size_t share_of = 0;     // Slot whose scan answers this query (leader).
    int64_t group_size = 1;  // Queries sharing this slot's scan (leaders).
  };
  std::vector<Slot> slots(n);
  // Identical predicates share one scan: the first submission becomes
  // the group leader, later copies skip peek and kernels and read the
  // leader's match positions at replay. Matches are value-determined,
  // so a repeated predicate has exactly the same match set no matter
  // which copy scanned — while probes and feedback stay per-query, so
  // the index still adapts as if every copy ran standalone. Dashboards
  // and monitors — the server's target workloads — repeat predicates
  // heavily, and this is where a batch's kernel work collapses.
  std::map<std::string, size_t> leader_by_predicate;
  int64_t min_segment_rows = std::numeric_limits<int64_t>::max();
  int64_t shared_count = 0;
  for (size_t i = 0; i < n; ++i) {
    const Query& query = *batch[i].query;
    Slot& slot = slots[i];
    slot.share_of = i;
    if (Status validation = ValidateQuery(query); !validation.ok()) {
      slot.lane = Lane::kFailed;
      slot.error = std::move(validation);
      continue;
    }
    if (!AggregatesOwnColumn(query)) {
      slot.lane = Lane::kSolo;  // Runs standalone at its submission turn.
      continue;
    }
    const Predicate& pred = query.predicates[0];
    slot.column = table_->ColumnByName(pred.column).value();
    SkipIndex* index = nullptr;  // nullptr scans the peeked full range.
    if (indexes_ != nullptr) {
      Result<SkipIndex*> synced = indexes_->GetSyncedIndex(pred.column);
      if (!synced.ok()) {
        // Stale index: standalone execution would fail this query the
        // same way, so it fails alone and the batch proceeds.
        slot.lane = Lane::kFailed;
        slot.error = synced.status();
        continue;
      }
      index = synced.value();
    }
    slot.lane = Lane::kShared;
    ++shared_count;
    const auto [leader_it, is_leader] =
        leader_by_predicate.emplace(pred.ToString(), i);
    if (!is_leader) {
      slot.share_of = leader_it->second;
      ++slots[leader_it->second].group_size;
      continue;
    }
    if (index != nullptr) {
      index->PeekCandidates(pred, &slot.peek);
    } else if (slot.column->size() > 0) {
      slot.peek.push_back({0, slot.column->size()});
    }
    NormalizeRanges(&slot.peek);
    ADASKIP_DCHECK(CandidatesAreWellFormed(slot.peek, slot.column->size()));
    min_segment_rows = std::min(min_segment_rows, slot.column->segment_rows());
  }
  out.pass.peek_nanos = peek_timer.ElapsedNanos();

  // --- Shared scan: one pass over the union of all peeked sets. ---
  //
  // Morsels split at multiples of the smallest shared column's segment
  // size (powers of two: a boundary for every shared column), so each
  // per-query piece below sits inside one segment of its own column and
  // ScanPiece can route it through that segment's layout. Workers only
  // read and only write their own morsel's hit list; every index
  // mutation happens in the replay, on this thread.
  struct Hit {
    size_t slot;
    SelectionVector sel;  // Match rows inside this morsel, ascending.
    int64_t rows = 0;
    int64_t packed_rows = 0;
    int64_t nanos = 0;
  };
  if (shared_count > 0) {
    std::vector<RowRange> union_ranges;
    for (size_t i = 0; i < n; ++i) {
      if (slots[i].lane == Lane::kShared && slots[i].share_of == i) {
        union_ranges = UnionRanges(union_ranges, slots[i].peek);
      }
    }
    out.pass.unique_rows = TotalRows(union_ranges);
    const MorselPlan plan(union_ranges, out.pass.unique_rows,
                          options_.morsel_rows, min_segment_rows,
                          MorselPool(out.pass.unique_rows));
    std::vector<std::vector<Hit>> morsel_hits(plan.slots());

    auto scan_morsel = [&](size_t m, RowRange window) {
      std::vector<Hit>& hits = morsel_hits[m];
      for (size_t i = 0; i < n; ++i) {
        const Slot& slot = slots[i];
        if (slot.lane != Lane::kShared || slot.share_of != i) continue;
        Stopwatch hit_timer;
        Hit hit{i, {}, 0, 0, 0};
        DispatchDataType(slot.column->type(), [&](auto tag) {
          using T = typename decltype(tag)::type;
          const TypedColumn<T>& typed = *slot.column->As<T>();
          const ValueInterval<T> interval =
              batch[i].query->predicates[0].ToInterval<T>();
          ScanPartial<T> part;
          ForEachOverlap(slot.peek, window, [&](RowRange piece) {
            hit.rows += piece.size();
            ScanPiece(typed, piece, AggregateKind::kMaterialize, interval,
                      &part);
          });
          hit.sel = std::move(part.rows);
          hit.packed_rows = part.packed_rows;
        });
        if (hit.rows == 0) continue;  // This query skips this morsel.
        hit.nanos = hit_timer.ElapsedNanos();
        hits.push_back(std::move(hit));
      }
    };

    // The fold merges each morsel's hits on this thread, in morsel order:
    // morsels ascend in row order and each morsel's hits ascend in slot
    // order, so every query's match positions come out sorted — the
    // property the per-range feedback reconstruction below binary-searches
    // on.
    out.pass.morsels =
        RunMorsels(plan, scan_morsel, [&](size_t m, RowRange, size_t) {
          for (Hit& hit : morsel_hits[m]) {
            Slot& slot = slots[hit.slot];
            for (int64_t row : hit.sel.rows()) slot.matches.Append(row);
            slot.kernel_rows += hit.rows;
            slot.packed_rows += hit.packed_rows;
            slot.kernel_nanos += hit.nanos;
            out.pass.kernel_rows += hit.rows;
            out.pass.scan_nanos += hit.nanos;
          }
          morsel_hits[m].clear();
        }).morsels;
  }

  // --- Replay, in submission order. ---
  //
  // Each query's turn runs the REAL Probe (advancing query sequence
  // numbers, bypass accounting, and predicate sampling exactly as a
  // standalone execution at this point in the order would), then feeds
  // the index per-range counts reconstructed from the shared match
  // positions. Matches are correct per range because every match lies
  // inside the peeked set (scanned above) and inside the probe's
  // candidates (superset contract), in whatever state the index has
  // reached by this turn. Solo queries execute here too, keeping the
  // whole batch's index-mutation order identical to serial submission.
  Stopwatch replay_phase_timer;
  out.results.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Slot& slot = slots[i];
    if (slot.lane == Lane::kFailed) {
      ++out.pass.failed_queries;
      out.results.emplace_back(std::move(slot.error));
      continue;
    }
    if (slot.lane == Lane::kSolo) {
      ++out.pass.solo_queries;
      Result<QueryResult> solo =
          ExecuteConjunction(*batch[i].query, batch[i].trace_level);
      if (solo.ok()) RecordQueryMetrics(solo.value().stats);
      out.results.push_back(std::move(solo));
      continue;
    }

    Stopwatch replay_timer;
    const Query& query = *batch[i].query;
    std::shared_ptr<obs::QueryTrace> trace;
    if (batch[i].trace_level != obs::TraceLevel::kOff) {
      trace = std::make_shared<obs::QueryTrace>(batch[i].trace_level);
      trace->root().Set("query", query.ToString());
      trace->root().Set("shared_batch_width", shared_count);
    }
    QueryResult result;
    result.aggregate = query.aggregate;
    QueryStats& stats = result.stats;
    Term term;
    if (Status begun = BeginTerm(*table_, indexes_, query.predicates[0],
                                 trace.get(), &term, &stats);
        !begun.ok()) {
      ++out.pass.failed_queries;
      out.results.emplace_back(std::move(begun));
      continue;
    }
    ++out.pass.shared_queries;
    // The slot whose kernels answered this query: itself, or — for a
    // repeated predicate — its group leader. Physical attribution is
    // split evenly across the group (the scan ran once for all of them).
    Slot& owner = slots[slot.share_of];
    const int64_t kernel_nanos_share = owner.kernel_nanos / owner.group_size;
    const int64_t packed_rows_share = owner.packed_rows / owner.group_size;
    stats.rows_total = slot.column->size();
    stats.shared_batch_width = shared_count;
    stats.index_name = term.index_name();
    stats.candidate_ranges = static_cast<int64_t>(term.candidates.size());
    if (trace != nullptr) trace->root().AddChild(MakeProbeSpan(stats));

    // Serial-equivalent feedback: rows_scanned counts this probe's own
    // candidate rows — what a standalone scan would have touched — not
    // the shared kernels' physical coverage, so EWMAs and skip metrics
    // evolve exactly as under serial execution.
    const std::vector<int64_t>& match_rows = owner.matches.rows();
    auto cursor = match_rows.begin();
    for (const RowRange& range : term.candidates) {
      // Candidate ranges ascend, so each range's matches begin where the
      // previous range's ended: searching only the remaining suffix keeps
      // the reconstruction near-linear instead of log(n) from scratch per
      // range.
      const auto lo = std::lower_bound(cursor, match_rows.end(), range.begin);
      const auto hi = std::lower_bound(lo, match_rows.end(), range.end);
      cursor = hi;
      const int64_t range_matches = static_cast<int64_t>(hi - lo);
      term.own_matches += range_matches;
      stats.rows_scanned += range.size();
      if (term.index != nullptr) {
        term.index->OnRangeScanned(*term.pred,
                                   RangeFeedback{range, range_matches});
      }
    }
    // Superset contract check: every shared match must fall inside this
    // probe's candidate set, or the feedback above undercounted.
    ADASKIP_DCHECK(term.own_matches == owner.matches.size());
    stats.rows_matched = owner.matches.size();
    stats.scan_nanos = kernel_nanos_share;
    stats.rows_scanned_packed = packed_rows_share;
    out.pass.serial_equivalent_rows += stats.rows_scanned;

    result.count = owner.matches.size();
    // Field-for-field what the standalone typed path produces: sum only
    // accumulates for kSum, min/max only for kMin/kMax, and — matching
    // the standalone quirk — min/max are cast from their untouched
    // sentinels for the other kinds whenever anything matched.
    DispatchDataType(slot.column->type(), [&](auto tag) {
      using T = typename decltype(tag)::type;
      const TypedColumn<T>& typed = *slot.column->As<T>();
      double sum = 0.0;
      T min_v = std::numeric_limits<T>::max();
      T max_v = std::numeric_limits<T>::lowest();
      if (query.aggregate == AggregateKind::kSum) {
        for (int64_t r = 0; r < owner.matches.size(); ++r) {
          sum += static_cast<double>(typed.Get(owner.matches[r]));
        }
      } else if (query.aggregate == AggregateKind::kMin ||
                 query.aggregate == AggregateKind::kMax) {
        for (int64_t r = 0; r < owner.matches.size(); ++r) {
          const T v = typed.Get(owner.matches[r]);
          min_v = std::min(min_v, v);
          max_v = std::max(max_v, v);
        }
      }
      result.sum = sum;
      if (owner.matches.size() > 0) {
        result.min = static_cast<double>(min_v);
        result.max = static_cast<double>(max_v);
      }
    });

    if (trace != nullptr) {
      obs::TraceSpan scan_span("scan");
      scan_span.duration_nanos = stats.scan_nanos;
      scan_span.Set("rows_scanned", stats.rows_scanned)
          .Set("rows_scanned_packed", stats.rows_scanned_packed)
          .Set("rows_matched", stats.rows_matched)
          .Set("kernel_path", simd::ActiveKernelPathName())
          .Set("shared", true)
          .Set("shared_kernel_rows", owner.kernel_rows)
          .Set("shared_group_size", owner.group_size)
          .Set("morsels", out.pass.morsels);
      trace->root().AddChild(std::move(scan_span));
    }

    if (std::optional<obs::TraceSpan> adapt_span =
            FinishTerm(&term, trace.get(), &stats)) {
      trace->root().AddChild(std::move(*adapt_span));
    }

    if (query.aggregate == AggregateKind::kMaterialize) {
      if (owner.group_size == 1) {
        result.rows = std::move(owner.matches);
      } else {
        result.rows = owner.matches;  // Other group members still need it.
      }
    }

    // Attributed time, not wall clock: this query's replay work plus its
    // share of the shared kernels (the batch has one wall clock).
    stats.total_nanos = replay_timer.ElapsedNanos() + kernel_nanos_share;
    if (trace != nullptr) {
      trace->root().duration_nanos = stats.total_nanos;
      result.trace = std::move(trace);
    }
    RecordQueryMetrics(stats);
    out.results.push_back(std::move(result));
  }
  out.pass.replay_nanos = replay_phase_timer.ElapsedNanos();

  ADASKIP_METRIC_COUNTER(batches, "adaskip.exec.shared.batches",
                         "Shared scan passes executed");
  ADASKIP_METRIC_HISTOGRAM(width, "adaskip.exec.shared.batch_width",
                           "Queries answered per shared scan pass");
  ADASKIP_METRIC_COUNTER(kernel_rows, "adaskip.exec.shared.kernel_rows",
                         "Rows touched by shared scan kernels");
  ADASKIP_METRIC_COUNTER(saved, "adaskip.exec.shared.saved_rows",
                         "Row touches avoided versus standalone execution");
  ADASKIP_METRIC_HISTOGRAM(peek_hist, "adaskip.exec.shared.peek_nanos",
                           "Shared pass plan/peek phase wall time");
  ADASKIP_METRIC_HISTOGRAM(scan_hist, "adaskip.exec.shared.scan_nanos",
                           "Shared pass summed kernel scan time");
  ADASKIP_METRIC_HISTOGRAM(replay_hist, "adaskip.exec.shared.replay_nanos",
                           "Shared pass submission-order replay wall time");
  batches.Increment();
  width.Observe(out.pass.shared_queries);
  kernel_rows.Add(out.pass.kernel_rows);
  saved.Add(std::max<int64_t>(out.pass.saved_rows(), 0));
  peek_hist.Observe(out.pass.peek_nanos);
  scan_hist.Observe(out.pass.scan_nanos);
  replay_hist.Observe(out.pass.replay_nanos);
  return out;
}

Result<QueryResult> ScanExecutor::ExecuteConjunction(
    const Query& query, obs::TraceLevel trace_level) {
  Stopwatch total_timer;
  QueryResult result;
  result.aggregate = query.aggregate;
  QueryStats& stats = result.stats;
  stats.rows_total = table_->num_rows();
  const size_t num_terms = query.predicates.size();
  // A query scanning only its own column keeps the single-predicate
  // shape: fused kernels, the index's name, flat probe and adapt spans.
  // Anything else is a conjunction of match words with per-term spans.
  const bool fused = AggregatesOwnColumn(query);

  // Tracing is opt-in per query: at kOff no trace object exists and every
  // capture site below is a skipped null check.
  std::shared_ptr<obs::QueryTrace> trace;
  if (trace_level != obs::TraceLevel::kOff) {
    trace = std::make_shared<obs::QueryTrace>(trace_level);
    trace->root().Set("query", query.ToString());
  }

  // --- Probe every term. ---
  //
  // One term scans its probe output as is: normalizing would merge
  // adjacent zones' ranges and coarsen the zone-exact feedback. Several
  // terms intersect their normalized candidate sets.
  std::vector<Term> terms(num_terms);
  int64_t min_segment_rows = std::numeric_limits<int64_t>::max();
  for (size_t p = 0; p < num_terms; ++p) {
    Term& term = terms[p];
    ADASKIP_RETURN_IF_ERROR(BeginTerm(*table_, indexes_, query.predicates[p],
                                      trace.get(), &term, &stats));
    min_segment_rows = std::min(min_segment_rows, term.column->segment_rows());
  }
  std::vector<RowRange> candidates = std::move(terms[0].candidates);
  if (num_terms > 1) {
    Stopwatch intersect_timer;
    NormalizeRanges(&candidates);
    for (size_t p = 1; p < num_terms; ++p) {
      NormalizeRanges(&terms[p].candidates);
      candidates = IntersectRanges(candidates, terms[p].candidates);
    }
    stats.probe_nanos += intersect_timer.ElapsedNanos();
  }
  stats.candidate_ranges = static_cast<int64_t>(candidates.size());
  stats.rows_scanned = TotalRows(candidates);
  stats.index_name = fused ? terms[0].index_name() : "conjunction";

  // --- Scan morsel by morsel, fold in morsel order. ---
  //
  // Morsels never cross a candidate range and split at the smallest term
  // column's segment size, which (power-of-two sizes) is a segment
  // boundary for every term column — so each morsel maps to one
  // contiguous span, or one packed segment, per column.
  ThreadPool* workers = MorselPool(stats.rows_scanned);
  if (workers != nullptr) stats.parallel_workers = workers->num_workers();
  const MorselPlan plan(candidates, stats.rows_scanned, options_.morsel_rows,
                        min_segment_rows, workers);

  // Range feedback, gathered while folding: per candidate range, the
  // rows kept by the whole conjunction, then each term's own matches.
  const size_t stride = num_terms + 1;
  std::vector<int64_t> range_matches(candidates.size() * stride, 0);
  int64_t matched = 0;

  MorselTimes times;
  if (fused) {
    // The fused per-aggregate kernels, accumulating into one running
    // partial; with a pool each morsel gets its own partial, folded in
    // morsel order. SUM adds the same per-morsel kernel sums in the same
    // order either way, so it is the same double at every thread count.
    DispatchDataType(terms[0].column->type(), [&](auto tag) {
      using T = typename decltype(tag)::type;
      const TypedColumn<T>& column = *terms[0].column->As<T>();
      const ValueInterval<T> interval = query.predicates[0].ToInterval<T>();
      ScanPartial<T> total;
      std::vector<ScanPartial<T>> partials(workers != nullptr ? plan.slots()
                                                              : 0);
      times = RunMorsels(
          plan,
          [&](size_t m, RowRange rows) {
            ScanPiece(column, rows, query.aggregate, interval,
                      workers != nullptr ? &partials[m] : &total);
          },
          [&](size_t m, RowRange, size_t r) {
            if (workers != nullptr) FoldPartial(&partials[m], &total);
            const int64_t kept = total.matches - matched;
            matched = total.matches;
            range_matches[r * stride] += kept;
            range_matches[r * stride + 1] += kept;
          });
      result.sum = total.sum;
      if (matched > 0) {
        result.min = static_cast<double>(total.min);
        result.max = static_cast<double>(total.max);
      }
      result.rows = std::move(total.rows);
      stats.rows_scanned_packed = total.packed_rows;
    });
  } else {
    // Match words: each term ANDs its bits into the morsel's words in one
    // branch-free pass over its column, so every column is read once and
    // no row ids exist until an aggregate asks for them. The popcount of
    // a term's own bits feeds its index; the popcount of the ANDed words
    // is the morsel's COUNT.
    const size_t slots = plan.slots();
    std::vector<int64_t> first_word(slots + 1, 0);
    for (size_t m = 0; m < slots; ++m) {
      first_word[m + 1] = first_word[m] + MatchWordsFor(plan.SlotRows(m));
    }
    const std::unique_ptr<uint64_t[]> match_words =
        std::make_unique_for_overwrite<uint64_t[]>(
            static_cast<size_t>(first_word.back()));
    std::vector<int64_t> own_matches(slots * num_terms, 0);
    std::vector<int64_t> morsel_matches(slots, 0);
    std::vector<int64_t> packed_rows(slots, 0);
    auto scan_morsel = [&](size_t m, RowRange rows) {
      uint64_t* words = &match_words[static_cast<size_t>(first_word[m])];
      std::fill_n(words, MatchWordsFor(rows.size()), ~uint64_t{0});
      packed_rows[m] = 0;
      for (size_t p = 0; p < num_terms; ++p) {
        const Column* column = terms[p].column;
        DispatchDataType(column->type(), [&](auto tag) {
          using T = typename decltype(tag)::type;
          // Like rows_scanned, rows_scanned_packed counts each morsel
          // once, under the first term's layout.
          const WordMatches wm = AndPieceWords(
              *column->As<T>(), rows, query.predicates[p].ToInterval<T>(),
              words, p == 0 ? &packed_rows[m] : nullptr);
          own_matches[m * num_terms + p] = wm.own;
          morsel_matches[m] = wm.kept;
        });
      }
    };
    auto fold_morsel = [&](size_t m, RowRange, size_t r) {
      stats.rows_scanned_packed += packed_rows[m];
      matched += morsel_matches[m];
      int64_t* counts = &range_matches[r * stride];
      counts[0] += morsel_matches[m];
      for (size_t p = 0; p < num_terms; ++p) {
        counts[p + 1] += own_matches[m * num_terms + p];
      }
    };
    // Folds that first visit the morsel's surviving rows in row order.
    auto fold_rows = [&](auto&& each_row) {
      return [&, each_row](size_t m, RowRange rows, size_t r) {
        ForEachSetRow(&match_words[static_cast<size_t>(first_word[m])], rows,
                      each_row);
        fold_morsel(m, rows, r);
      };
    };
    switch (query.aggregate) {
      case AggregateKind::kCount:
        times = RunMorsels(plan, scan_morsel, fold_morsel);
        break;
      case AggregateKind::kMaterialize:
        times = RunMorsels(
            plan, scan_morsel,
            fold_rows([&](int64_t row) { result.rows.Append(row); }));
        break;
      case AggregateKind::kSum:
      case AggregateKind::kMin:
      case AggregateKind::kMax: {
        const Column* agg_column =
            table_->ColumnByName(AggregateColumnOf(query)).value();
        DispatchDataType(agg_column->type(), [&](auto tag) {
          using T = typename decltype(tag)::type;
          const TypedColumn<T>& typed = *agg_column->As<T>();
          double sum = 0.0;
          T min_v = std::numeric_limits<T>::max();
          T max_v = std::numeric_limits<T>::lowest();
          times = RunMorsels(plan, scan_morsel, fold_rows([&](int64_t row) {
            const T v = typed.Get(row);
            sum += static_cast<double>(v);
            min_v = std::min(min_v, v);
            max_v = std::max(max_v, v);
          }));
          result.sum = sum;
          if (matched > 0) {
            result.min = static_cast<double>(min_v);
            result.max = static_cast<double>(max_v);
          }
        });
        break;
      }
    }
  }

  stats.scan_nanos = times.scan_nanos;
  stats.merge_nanos = times.fold_nanos;
  stats.rows_matched = matched;
  result.count = matched;

  // --- Range feedback, in range order, once the scan has finished. ---
  //
  // Each term's index gets its own matches per candidate range — the
  // per-range stream an adaptive index learns from — in the same order at
  // every thread count, after every morsel has been scanned and folded.
  const bool detail = trace != nullptr && trace->detail();
  obs::TraceSpan scan_span("scan");
  for (size_t r = 0; r < candidates.size(); ++r) {
    const RowRange range = candidates[r];
    const int64_t* counts = &range_matches[r * stride];
    for (size_t p = 0; p < num_terms; ++p) {
      Term& term = terms[p];
      term.own_matches += counts[p + 1];
      if (term.index != nullptr) {
        term.index->OnRangeScanned(*term.pred,
                                   RangeFeedback{range, counts[p + 1]});
      }
    }
    if (detail && static_cast<int64_t>(scan_span.children.size()) <
                      obs::QueryTrace::kMaxDetailChildren) {
      obs::TraceSpan child("range");
      child.Set("begin", range.begin)
          .Set("end", range.end)
          .Set("matches", counts[0]);
      scan_span.AddChild(std::move(child));
    }
  }
  if (trace != nullptr) {
    obs::TraceSpan probe_span = MakeProbeSpan(stats);
    for (size_t p = 0; p < num_terms && !fused; ++p) {
      const Term& term = terms[p];
      obs::TraceSpan child("predicate");
      child.Set("column", term.pred->column)
          .Set("index", term.index_name())
          .Set("zones_candidate", term.probe.zones_candidate)
          .Set("zones_skipped", term.probe.zones_skipped)
          .Set("entries_read", term.probe.entries_read)
          .Set("own_matches", term.own_matches);
      probe_span.AddChild(std::move(child));
    }
    trace->root().AddChild(std::move(probe_span));

    scan_span.duration_nanos = stats.scan_nanos;
    scan_span.Set("rows_scanned", stats.rows_scanned)
        .Set("rows_scanned_packed", stats.rows_scanned_packed)
        .Set("rows_matched", stats.rows_matched)
        .Set("kernel_path", simd::ActiveKernelPathName())
        .Set("morsels", times.morsels)
        .Set("parallel_workers", stats.parallel_workers)
        .Set("merge_nanos", stats.merge_nanos);
    const int64_t elided = stats.candidate_ranges -
                           static_cast<int64_t>(scan_span.children.size());
    if (detail && elided > 0) scan_span.Set("detail_elided", elided);
    trace->root().AddChild(std::move(scan_span));
  }

  // --- Finish every term: query-complete feedback and drains. ---
  if (fused) {
    if (std::optional<obs::TraceSpan> adapt_span =
            FinishTerm(&terms[0], trace.get(), &stats)) {
      trace->root().AddChild(std::move(*adapt_span));
    }
  } else {
    obs::TraceSpan adapt_span("adapt");
    for (Term& term : terms) {
      if (std::optional<obs::TraceSpan> child =
              FinishTerm(&term, trace.get(), &stats)) {
        child->Set("column", term.pred->column);
        adapt_span.AddChild(std::move(*child));
      }
    }
    if (trace != nullptr) {
      adapt_span.duration_nanos = stats.adapt_nanos;
      adapt_span.Set("tail_rows_scanned", stats.tail_rows_scanned);
      trace->root().AddChild(std::move(adapt_span));
    }
  }

  stats.total_nanos = total_timer.ElapsedNanos();
  if (trace != nullptr) {
    trace->root().duration_nanos = stats.total_nanos;
    result.trace = std::move(trace);
  }
  return result;
}

}  // namespace adaskip
