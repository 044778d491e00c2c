#include "adaskip/engine/scan_executor.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <map>
#include <memory>
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

/// ParallelFor plus pool job metrics. The metrics live here rather than
/// in util/thread_pool.cc because util/ sits below obs/ in the layering
/// DAG; the executor is the pool's only production driver.
template <typename F>
void InstrumentedParallelFor(ThreadPool* pool, int64_t num_tasks, F&& fn) {
  ADASKIP_METRIC_COUNTER(jobs, "adaskip.pool.jobs",
                         "Parallel jobs submitted to thread pools");
  ADASKIP_METRIC_HISTOGRAM(tasks, "adaskip.pool.tasks_per_job",
                           "Task count per submitted parallel job");
  jobs.Increment();
  tasks.Observe(num_tasks);
  pool->ParallelFor(num_tasks, std::forward<F>(fn));
}

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
  int64_t range_index;
};

/// Splits the candidate ranges into morsels of at most `morsel_rows`
/// rows, in ascending row order, additionally splitting at multiples of
/// `segment_rows` so every morsel sits inside one storage segment (and
/// can be scanned through a single contiguous span). Because segment
/// sizes are powers of two, multiples of the *smallest* segment size
/// among several columns are boundaries for all of them.
std::vector<Morsel> BuildMorsels(const std::vector<RowRange>& ranges,
                                 int64_t morsel_rows, int64_t segment_rows) {
  morsel_rows = std::max<int64_t>(morsel_rows, 1);
  std::vector<Morsel> morsels;
  for (size_t r = 0; r < ranges.size(); ++r) {
    const RowRange& range = ranges[r];
    int64_t begin = range.begin;
    while (begin < range.end) {
      const int64_t boundary = (begin / segment_rows + 1) * segment_rows;
      const int64_t end =
          std::min({begin + morsel_rows, boundary, range.end});
      morsels.push_back({{begin, end}, static_cast<int64_t>(r)});
      begin = end;
    }
  }
  return morsels;
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

/// Builds the "adapt" trace span for one index by diffing its adaptation
/// profile across the query; `describe_before` is consumed only at
/// kDetail (pass empty otherwise).
obs::TraceSpan MakeAdaptSpan(const SkipIndex& index,
                             const AdaptationProfile& before, bool detail,
                             std::string describe_before) {
  const AdaptationProfile after = index.GetAdaptationProfile();
  obs::TraceSpan span("adapt");
  span.Set("index", index.name())
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
      .Set("queries_observed", after.queries_observed);
  if (detail) {
    span.Set("index_before", std::move(describe_before));
    span.Set("index_after", index.Describe());
  }
  return span;
}

/// Caller-side accumulators for ScanPiece: sum/min/max land here (min
/// and max only when the piece matched at least one row), materialized
/// row ids append to `rows`, and packed-kernel coverage adds to
/// `packed_rows`.
template <typename T>
struct PieceAccumulators {
  double* sum;
  T* min_v;
  T* max_v;
  SelectionVector* rows;
  int64_t* packed_rows;
};

/// Scans one segment-contained piece of `column` with the kernel
/// matching `aggregate` and returns its match count. Integer segments
/// that adopted a packed layout scan through the packed-domain kernels
/// (in segment-local coordinates); everything else goes through the
/// dispatched (AVX2 or scalar) raw kernels over the segment span. Both
/// routes are bit-identical by contract, so the choice is invisible in
/// results — only in speed and in the rows_scanned_packed stat.
template <typename T>
int64_t ScanPiece(const TypedColumn<T>& column, RowRange piece,
                  AggregateKind aggregate, const ValueInterval<T>& interval,
                  PieceAccumulators<T> acc) {
  if constexpr (std::is_integral_v<T>) {
    const PackedSegment<T>* packed =
        column.packed_segment(column.SegmentOf(piece.begin));
    if (packed != nullptr) {
      const int64_t off = column.OffsetInSegment(piece.begin);
      const RowRange local{off, off + piece.size()};
      *acc.packed_rows += piece.size();
      switch (aggregate) {
        case AggregateKind::kCount:
          return PackedCountMatches(*packed, local, interval);
        case AggregateKind::kSum: {
          const SumCount<T> sc =
              PackedSumMatchesCounted(*packed, local, interval);
          *acc.sum += sc.sum;
          return sc.count;
        }
        case AggregateKind::kMin:
        case AggregateKind::kMax: {
          const MinMaxCount<T> mmc =
              PackedMinMaxMatchesCounted(*packed, local, interval);
          if (mmc.count > 0) {
            *acc.min_v = std::min(*acc.min_v, mmc.min);
            *acc.max_v = std::max(*acc.max_v, mmc.max);
          }
          return mmc.count;
        }
        case AggregateKind::kMaterialize:
          return PackedMaterializeMatches(*packed, local, interval, acc.rows,
                                          /*base_row=*/piece.begin - off);
      }
      return 0;
    }
  }
  const std::span<const T> values = column.SpanFor(piece);
  const RowRange local{0, piece.size()};
  switch (aggregate) {
    case AggregateKind::kCount:
      return simd::CountMatches(values, local, interval);
    case AggregateKind::kSum: {
      const SumCount<T> sc = simd::SumMatchesCounted(values, local, interval);
      *acc.sum += sc.sum;
      return sc.count;
    }
    case AggregateKind::kMin:
    case AggregateKind::kMax: {
      const MinMaxCount<T> mmc =
          simd::MinMaxMatchesCounted(values, local, interval);
      if (mmc.count > 0) {
        *acc.min_v = std::min(*acc.min_v, mmc.min);
        *acc.max_v = std::max(*acc.max_v, mmc.max);
      }
      return mmc.count;
    }
    case AggregateKind::kMaterialize:
      return simd::MaterializeMatches(values, local, interval, acc.rows,
                                      /*base=*/piece.begin);
  }
  return 0;
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
  options_ = options;  // The pool is (re)sized lazily by pool().
  return Status::OK();
}

ThreadPool* ScanExecutor::pool() {
  const int workers = std::max(options_.num_threads, 1);
  if (pool_ == nullptr || pool_->num_workers() != workers) {
    pool_ = std::make_unique<ThreadPool>(workers);
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

  Result<QueryResult> result = ExecuteValidated(query);
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
    SkipIndex* index = nullptr;  // nullptr scans the peeked full range.
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
    const bool aggregates_predicate_column =
        query.aggregate == AggregateKind::kCount ||
        query.aggregate == AggregateKind::kMaterialize ||
        AggregateColumnOf(query) == query.predicates[0].column;
    if (query.predicates.size() > 1 || !aggregates_predicate_column) {
      slot.lane = Lane::kSolo;  // Runs standalone at its submission turn.
      continue;
    }
    const Predicate& pred = query.predicates[0];
    slot.column = table_->ColumnByName(pred.column).value();
    if (indexes_ != nullptr) {
      Result<SkipIndex*> synced = indexes_->GetSyncedIndex(pred.column);
      if (!synced.ok()) {
        // Stale index: standalone execution would fail this query the
        // same way, so it fails alone and the batch proceeds.
        slot.lane = Lane::kFailed;
        slot.error = synced.status();
        continue;
      }
      slot.index = synced.value();
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
    if (slot.index != nullptr) {
      slot.index->PeekCandidates(pred, &slot.peek);
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
  std::vector<Morsel> morsels;
  std::vector<std::vector<Hit>> morsel_hits;
  if (shared_count > 0) {
    std::vector<RowRange> union_ranges;
    for (size_t i = 0; i < n; ++i) {
      if (slots[i].lane == Lane::kShared && slots[i].share_of == i) {
        union_ranges = UnionRanges(union_ranges, slots[i].peek);
      }
    }
    out.pass.unique_rows = TotalRows(union_ranges);
    morsels =
        BuildMorsels(union_ranges, options_.morsel_rows, min_segment_rows);
    out.pass.morsels = static_cast<int64_t>(morsels.size());
    morsel_hits.resize(morsels.size());

    auto scan_morsel = [&](int64_t m, int /*worker*/) {
      const RowRange window = morsels[static_cast<size_t>(m)].rows;
      std::vector<Hit>& hits = morsel_hits[static_cast<size_t>(m)];
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
          ForEachOverlap(slot.peek, window, [&](RowRange piece) {
            hit.rows += piece.size();
            ScanPiece(typed, piece, AggregateKind::kMaterialize, interval,
                      PieceAccumulators<T>{nullptr, nullptr, nullptr, &hit.sel,
                                           &hit.packed_rows});
          });
        });
        if (hit.rows == 0) continue;  // This query skips this morsel.
        hit.nanos = hit_timer.ElapsedNanos();
        hits.push_back(std::move(hit));
      }
    };

    if (options_.num_threads > 1 &&
        TotalRows(union_ranges) > options_.morsel_rows) {
      InstrumentedParallelFor(pool(), static_cast<int64_t>(morsels.size()),
                              scan_morsel);
    } else {
      for (int64_t m = 0; m < static_cast<int64_t>(morsels.size()); ++m) {
        scan_morsel(m, 0);
      }
    }

    // Deterministic merge, coordinator-side: morsels ascend in row order
    // and each morsel's hits ascend in slot order, so every query's
    // match positions come out sorted — the property the per-range
    // feedback reconstruction below binary-searches on.
    for (std::vector<Hit>& hits : morsel_hits) {
      for (Hit& hit : hits) {
        Slot& slot = slots[hit.slot];
        for (int64_t r = 0; r < hit.sel.size(); ++r) {
          slot.matches.Append(hit.sel[r]);
        }
        slot.kernel_rows += hit.rows;
        slot.packed_rows += hit.packed_rows;
        slot.kernel_nanos += hit.nanos;
        out.pass.kernel_rows += hit.rows;
        out.pass.scan_nanos += hit.nanos;
      }
    }
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
      const obs::TraceLevel saved = options_.trace_level;
      options_.trace_level = batch[i].trace_level;
      Result<QueryResult> solo = ExecuteValidated(*batch[i].query);
      options_.trace_level = saved;
      if (solo.ok()) RecordQueryMetrics(solo.value().stats);
      out.results.push_back(std::move(solo));
      continue;
    }

    ++out.pass.shared_queries;
    Stopwatch replay_timer;
    // The slot whose kernels answered this query: itself, or — for a
    // repeated predicate — its group leader. Physical attribution is
    // split evenly across the group (the scan ran once for all of them).
    Slot& owner = slots[slot.share_of];
    const int64_t kernel_nanos_share = owner.kernel_nanos / owner.group_size;
    const int64_t packed_rows_share = owner.packed_rows / owner.group_size;
    const Query& query = *batch[i].query;
    const Predicate& pred = query.predicates[0];
    QueryResult result;
    result.aggregate = query.aggregate;
    QueryStats& stats = result.stats;
    stats.rows_total = slot.column->size();
    stats.shared_batch_width = shared_count;
    stats.index_name =
        slot.index != nullptr ? std::string(slot.index->name()) : "none";
    stats.tail_rows =
        slot.index != nullptr ? slot.index->UnindexedTailRows() : 0;

    std::shared_ptr<obs::QueryTrace> trace;
    if (batch[i].trace_level != obs::TraceLevel::kOff) {
      trace = std::make_shared<obs::QueryTrace>(batch[i].trace_level);
      trace->root().Set("query", query.ToString());
      trace->root().Set("shared_batch_width", shared_count);
    }
    AdaptationProfile profile_before;
    std::string describe_before;
    if (trace != nullptr && slot.index != nullptr) {
      profile_before = slot.index->GetAdaptationProfile();
      if (trace->detail()) describe_before = slot.index->Describe();
    }

    std::vector<RowRange> candidates;
    Stopwatch probe_timer;
    if (slot.index != nullptr) {
      slot.index->Probe(pred, &candidates, &stats.probe);
    } else if (slot.column->size() > 0) {
      candidates.push_back({0, slot.column->size()});
      stats.probe.zones_candidate = 1;
    }
    stats.probe_nanos = probe_timer.ElapsedNanos();
    stats.candidate_ranges = static_cast<int64_t>(candidates.size());
    ADASKIP_DCHECK(CandidatesAreWellFormed(candidates, slot.column->size()));
    if (trace != nullptr) trace->root().AddChild(MakeProbeSpan(stats));

    // Serial-equivalent feedback: rows_scanned counts this probe's own
    // candidate rows — what a standalone scan would have touched — not
    // the shared kernels' physical coverage, so EWMAs and skip metrics
    // evolve exactly as under serial execution.
    const std::vector<int64_t>& match_rows = owner.matches.rows();
    int64_t replayed_matches = 0;
    auto cursor = match_rows.begin();
    for (const RowRange& range : candidates) {
      // Candidate ranges ascend, so each range's matches begin where the
      // previous range's ended: searching only the remaining suffix keeps
      // the reconstruction near-linear instead of log(n) from scratch per
      // range.
      const auto lo = std::lower_bound(cursor, match_rows.end(), range.begin);
      const auto hi = std::lower_bound(lo, match_rows.end(), range.end);
      cursor = hi;
      const int64_t range_matches = static_cast<int64_t>(hi - lo);
      replayed_matches += range_matches;
      stats.rows_scanned += range.size();
      if (slot.index != nullptr) {
        slot.index->OnRangeScanned(pred, RangeFeedback{range, range_matches});
      }
    }
    // Superset contract check: every shared match must fall inside this
    // probe's candidate set, or the feedback above undercounted.
    ADASKIP_DCHECK(replayed_matches == owner.matches.size());
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

    if (slot.index != nullptr) {
      QueryFeedback feedback;
      feedback.rows_total = stats.rows_total;
      feedback.rows_scanned = stats.rows_scanned;
      feedback.rows_matched = stats.rows_matched;
      feedback.probe = stats.probe;
      slot.index->OnQueryComplete(pred, feedback);
      stats.adapt_nanos = slot.index->TakeAdaptationNanos();
      stats.tail_rows_scanned = slot.index->TakeTailRowsScanned();
      if (trace != nullptr) {
        obs::TraceSpan adapt_span =
            MakeAdaptSpan(*slot.index, profile_before, trace->detail(),
                          std::move(describe_before));
        adapt_span.duration_nanos = stats.adapt_nanos;
        adapt_span.Set("tail_rows_scanned", stats.tail_rows_scanned);
        trace->root().AddChild(std::move(adapt_span));
      }
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

Result<QueryResult> ScanExecutor::ExecuteValidated(const Query& query) {
  const bool aggregates_predicate_column =
      query.aggregate == AggregateKind::kCount ||
      query.aggregate == AggregateKind::kMaterialize ||
      AggregateColumnOf(query) == query.predicates[0].column;
  if (query.predicates.size() > 1 || !aggregates_predicate_column) {
    return ExecuteConjunction(query);
  }

  ADASKIP_ASSIGN_OR_RETURN(const Column* column,
                           table_->ColumnByName(query.predicates[0].column));
  return DispatchDataType(
      column->type(), [&](auto tag) -> Result<QueryResult> {
        using T = typename decltype(tag)::type;
        return ExecuteSingleTyped<T>(query, *column->As<T>());
      });
}

template <typename T>
void ScanExecutor::ScanSingleParallel(const Query& query,
                                      const TypedColumn<T>& column,
                                      const std::vector<RowRange>& candidates,
                                      SkipIndex* index, obs::QueryTrace* trace,
                                      QueryResult* result) {
  QueryStats& stats = result->stats;
  const Predicate& pred = query.predicates[0];
  const ValueInterval<T> interval = pred.ToInterval<T>();
  const bool materialize = query.aggregate == AggregateKind::kMaterialize;

  std::vector<Morsel> morsels =
      BuildMorsels(candidates, options_.morsel_rows, column.segment_rows());

  // Per-morsel partials. Each slot is written by exactly one worker, and
  // the coordinator reads them only after the ParallelFor barrier — this
  // is the thread-safe feedback funnel: workers never touch the index.
  struct Partial {
    int64_t matches = 0;
    double sum = 0.0;
    T min = std::numeric_limits<T>::max();
    T max = std::numeric_limits<T>::lowest();
    int64_t packed_rows = 0;
  };
  std::vector<Partial> partials(morsels.size());
  std::vector<SelectionVector> selections(materialize ? morsels.size() : 0);

  ThreadPool* workers = pool();
  stats.parallel_workers = workers->num_workers();
  std::vector<int64_t> worker_nanos(
      static_cast<size_t>(workers->num_workers()), 0);

  InstrumentedParallelFor(
      workers, static_cast<int64_t>(morsels.size()),
      [&](int64_t m, int worker) {
        Stopwatch scan_timer;
        const RowRange rows = morsels[static_cast<size_t>(m)].rows;
        // Each morsel is segment-contained (BuildMorsels), so it is one
        // piece: ScanPiece picks the packed or dispatched raw kernel.
        Partial& partial = partials[static_cast<size_t>(m)];
        SelectionVector* sel =
            materialize ? &selections[static_cast<size_t>(m)] : nullptr;
        partial.matches = ScanPiece(
            column, rows, query.aggregate, interval,
            PieceAccumulators<T>{&partial.sum, &partial.min, &partial.max, sel,
                                 &partial.packed_rows});
        worker_nanos[static_cast<size_t>(worker)] += scan_timer.ElapsedNanos();
      });

  // Deterministic merge: morsel order is ascending row order, independent
  // of the thread count, so counts/min/max (and SUM, whose reduction tree
  // is fixed by the morsel layout) match across all worker counts, and
  // the materialized row ids come out exactly as the serial scan emits
  // them. Afterwards the buffered feedback is replayed per candidate
  // range, in range order — the exact sequence the serial path produces —
  // so adaptation stays deterministic and single-threaded.
  Stopwatch merge_timer;
  int64_t matched = 0;
  double sum = 0.0;
  T min_v = std::numeric_limits<T>::max();
  T max_v = std::numeric_limits<T>::lowest();
  for (size_t m = 0; m < morsels.size(); ++m) {
    const Partial& partial = partials[m];
    matched += partial.matches;
    sum += partial.sum;
    if (partial.matches > 0) {
      min_v = std::min(min_v, partial.min);
      max_v = std::max(max_v, partial.max);
    }
    stats.rows_scanned += morsels[m].rows.size();
    stats.rows_scanned_packed += partial.packed_rows;
  }
  if (materialize) {
    int64_t total_rows = 0;
    for (const SelectionVector& sel : selections) total_rows += sel.size();
    result->rows.Reserve(total_rows);
    for (const SelectionVector& sel : selections) {
      for (int64_t i = 0; i < sel.size(); ++i) result->rows.Append(sel[i]);
    }
  }
  if (index != nullptr) {
    size_t m = 0;
    for (size_t r = 0; r < candidates.size(); ++r) {
      int64_t range_matches = 0;
      for (; m < morsels.size() &&
             morsels[m].range_index == static_cast<int64_t>(r);
           ++m) {
        range_matches += partials[m].matches;
      }
      index->OnRangeScanned(pred, RangeFeedback{candidates[r], range_matches});
    }
  }
  stats.merge_nanos = merge_timer.ElapsedNanos();
  for (int64_t nanos : worker_nanos) stats.scan_nanos += nanos;

  stats.rows_matched = matched;
  result->count = matched;
  result->sum = sum;
  if (matched > 0) {
    result->min = static_cast<double>(min_v);
    result->max = static_cast<double>(max_v);
  }

  if (trace != nullptr) {
    obs::TraceSpan scan_span("scan");
    scan_span.duration_nanos = stats.scan_nanos;
    scan_span.Set("rows_scanned", stats.rows_scanned)
        .Set("rows_scanned_packed", stats.rows_scanned_packed)
        .Set("rows_matched", matched)
        .Set("kernel_path", simd::ActiveKernelPathName())
        .Set("parallel_workers", stats.parallel_workers)
        .Set("morsels", static_cast<int64_t>(morsels.size()))
        .Set("merge_nanos", stats.merge_nanos);
    if (trace->detail()) {
      const int64_t limit = obs::QueryTrace::kMaxDetailChildren;
      for (size_t m = 0;
           m < morsels.size() && static_cast<int64_t>(m) < limit; ++m) {
        obs::TraceSpan child("morsel");
        child.Set("begin", morsels[m].rows.begin)
            .Set("end", morsels[m].rows.end)
            .Set("matches", partials[m].matches);
        scan_span.AddChild(std::move(child));
      }
      if (static_cast<int64_t>(morsels.size()) > limit) {
        scan_span.Set("detail_elided",
                      static_cast<int64_t>(morsels.size()) - limit);
      }
    }
    trace->root().AddChild(std::move(scan_span));
  }
}

template <typename T>
Result<QueryResult> ScanExecutor::ExecuteSingleTyped(
    const Query& query, const TypedColumn<T>& column) {
  Stopwatch total_timer;
  const Predicate& pred = query.predicates[0];
  QueryResult result;
  result.aggregate = query.aggregate;
  QueryStats& stats = result.stats;
  stats.rows_total = column.size();

  // Tracing is opt-in per query batch: at kOff no trace object exists and
  // every capture site below is a skipped null check.
  std::shared_ptr<obs::QueryTrace> trace;
  if (options_.trace_level != obs::TraceLevel::kOff) {
    trace = std::make_shared<obs::QueryTrace>(options_.trace_level);
    trace->root().Set("query", query.ToString());
  }

  SkipIndex* index = nullptr;
  if (indexes_ != nullptr) {
    ADASKIP_ASSIGN_OR_RETURN(index, indexes_->GetSyncedIndex(pred.column));
  }
  stats.index_name = index != nullptr ? std::string(index->name()) : "none";
  stats.tail_rows = index != nullptr ? index->UnindexedTailRows() : 0;

  AdaptationProfile profile_before;
  std::string describe_before;
  if (trace != nullptr && index != nullptr) {
    profile_before = index->GetAdaptationProfile();
    if (trace->detail()) describe_before = index->Describe();
  }

  // Probe.
  std::vector<RowRange> candidates;
  Stopwatch probe_timer;
  if (index != nullptr) {
    index->Probe(pred, &candidates, &stats.probe);
  } else if (column.size() > 0) {
    candidates.push_back({0, column.size()});
    stats.probe.zones_candidate = 1;
  }
  stats.probe_nanos = probe_timer.ElapsedNanos();
  stats.candidate_ranges = static_cast<int64_t>(candidates.size());
  ADASKIP_DCHECK(CandidatesAreWellFormed(candidates, column.size()));
  if (trace != nullptr) trace->root().AddChild(MakeProbeSpan(stats));

  if (options_.num_threads > 1 &&
      TotalRows(candidates) > options_.morsel_rows) {
    ScanSingleParallel(query, column, candidates, index, trace.get(), &result);
  } else {
    // Serial path: scan candidates with the kernel matching the
    // aggregate, feeding the index per-range feedback as each range
    // finishes (data still hot). Candidate ranges may span storage
    // segments (full scans, imprints blocks, catch-all tails), so each
    // is decomposed into segment-contained pieces; the feedback still
    // covers the *original* range — skip structures see the same
    // feedback stream the pre-segmentation executor produced.
    const ValueInterval<T> interval = pred.ToInterval<T>();
    double sum = 0.0;
    T min_v = std::numeric_limits<T>::max();
    T max_v = std::numeric_limits<T>::lowest();
    int64_t matched = 0;
    obs::TraceSpan scan_span("scan");
    for (const RowRange& range : candidates) {
      Stopwatch scan_timer;
      int64_t range_matches = 0;
      column.ForEachPiece(range, [&](RowRange piece) {
        range_matches += ScanPiece(
            column, piece, query.aggregate, interval,
            PieceAccumulators<T>{&sum, &min_v, &max_v, &result.rows,
                                 &stats.rows_scanned_packed});
      });
      stats.scan_nanos += scan_timer.ElapsedNanos();
      stats.rows_scanned += range.size();
      matched += range_matches;
      if (trace != nullptr && trace->detail() &&
          static_cast<int64_t>(scan_span.children.size()) <
              obs::QueryTrace::kMaxDetailChildren) {
        obs::TraceSpan child("range");
        child.Set("begin", range.begin)
            .Set("end", range.end)
            .Set("matches", range_matches);
        scan_span.AddChild(std::move(child));
      }
      if (index != nullptr) {
        index->OnRangeScanned(pred, RangeFeedback{range, range_matches});
      }
    }
    stats.rows_matched = matched;
    result.count = matched;
    result.sum = sum;
    if (matched > 0) {
      result.min = static_cast<double>(min_v);
      result.max = static_cast<double>(max_v);
    }
    if (trace != nullptr) {
      scan_span.duration_nanos = stats.scan_nanos;
      scan_span.Set("rows_scanned", stats.rows_scanned)
          .Set("rows_scanned_packed", stats.rows_scanned_packed)
          .Set("rows_matched", matched)
          .Set("kernel_path", simd::ActiveKernelPathName());
      const int64_t elided = static_cast<int64_t>(candidates.size()) -
                             static_cast<int64_t>(scan_span.children.size());
      if (trace->detail() && elided > 0) {
        scan_span.Set("detail_elided", elided);
      }
      trace->root().AddChild(std::move(scan_span));
    }
  }

  if (index != nullptr) {
    QueryFeedback feedback;
    feedback.rows_total = stats.rows_total;
    feedback.rows_scanned = stats.rows_scanned;
    feedback.rows_matched = stats.rows_matched;
    feedback.probe = stats.probe;
    index->OnQueryComplete(pred, feedback);
    stats.adapt_nanos = index->TakeAdaptationNanos();
    stats.tail_rows_scanned = index->TakeTailRowsScanned();
    if (trace != nullptr) {
      obs::TraceSpan adapt_span = MakeAdaptSpan(
          *index, profile_before, trace->detail(), std::move(describe_before));
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

Result<QueryResult> ScanExecutor::ExecuteConjunction(const Query& query) {
  Stopwatch total_timer;
  QueryResult result;
  result.aggregate = query.aggregate;
  QueryStats& stats = result.stats;
  stats.rows_total = table_->num_rows();
  stats.index_name = "conjunction";

  const size_t num_preds = query.predicates.size();

  std::shared_ptr<obs::QueryTrace> trace;
  if (options_.trace_level != obs::TraceLevel::kOff) {
    trace = std::make_shared<obs::QueryTrace>(options_.trace_level);
    trace->root().Set("query", query.ToString());
  }
  std::vector<AdaptationProfile> profiles_before(num_preds);
  std::vector<std::string> describes_before(num_preds);

  // Probe each predicated column and intersect the candidate sets,
  // keeping per-predicate accounting so adaptation feedback can be
  // attributed to each column's own index afterwards.
  Stopwatch probe_timer;
  std::vector<SkipIndex*> pred_index(num_preds, nullptr);
  std::vector<ProbeStats> pred_probe(num_preds);
  std::vector<const Column*> pred_column(num_preds, nullptr);
  std::vector<RowRange> candidates;
  int64_t min_segment_rows = std::numeric_limits<int64_t>::max();
  for (size_t p = 0; p < num_preds; ++p) {
    const Predicate& pred = query.predicates[p];
    pred_column[p] = table_->ColumnByName(pred.column).value();
    min_segment_rows =
        std::min(min_segment_rows, pred_column[p]->segment_rows());
    std::vector<RowRange> column_candidates;
    SkipIndex* index = nullptr;
    if (indexes_ != nullptr) {
      ADASKIP_ASSIGN_OR_RETURN(index, indexes_->GetSyncedIndex(pred.column));
    }
    pred_index[p] = index;
    if (index != nullptr) {
      if (trace != nullptr) {
        profiles_before[p] = index->GetAdaptationProfile();
        if (trace->detail()) describes_before[p] = index->Describe();
      }
      stats.tail_rows += index->UnindexedTailRows();
      index->Probe(pred, &column_candidates, &pred_probe[p]);
    } else if (table_->num_rows() > 0) {
      column_candidates.push_back({0, table_->num_rows()});
      pred_probe[p].zones_candidate += 1;
    }
    NormalizeRanges(&column_candidates);
    if (p == 0) {
      candidates = std::move(column_candidates);
    } else {
      candidates = IntersectRanges(candidates, column_candidates);
    }
    stats.probe.Add(pred_probe[p]);
  }
  stats.probe_nanos = probe_timer.ElapsedNanos();
  stats.candidate_ranges = static_cast<int64_t>(candidates.size());

  // Evaluate the conjunction morsel-wise as match words: each predicate
  // ANDs its bits into the morsel's words in one branch-free pass over
  // its column, so every column is read once and no row ids exist until
  // an aggregate asks for them. The popcount of a predicate's own bits is
  // the currency of its index's range feedback (a zonemap predicts its
  // own column's selectivity, not the conjunction's); the popcount of the
  // ANDed words is the morsel's COUNT. Morsels split at the smallest
  // predicate column's segment size, which (power-of-two sizes) is a
  // segment boundary for every predicate column — so each morsel maps to
  // one contiguous span, or one packed segment, per column.
  std::vector<Morsel> morsels =
      BuildMorsels(candidates, options_.morsel_rows, min_segment_rows);
  std::vector<int64_t> first_word(morsels.size() + 1, 0);
  for (size_t m = 0; m < morsels.size(); ++m) {
    first_word[m + 1] = first_word[m] + MatchWordsFor(morsels[m].rows.size());
  }
  const std::unique_ptr<uint64_t[]> match_words =
      std::make_unique_for_overwrite<uint64_t[]>(
          static_cast<size_t>(first_word.back()));
  std::vector<int64_t> own_matches(morsels.size() * num_preds, 0);
  std::vector<int64_t> morsel_matches(morsels.size(), 0);
  std::vector<int64_t> packed_rows(morsels.size(), 0);

  auto scan_morsel = [&](int64_t m) {
    const RowRange rows = morsels[static_cast<size_t>(m)].rows;
    uint64_t* words = &match_words[static_cast<size_t>(first_word[m])];
    std::fill_n(words, MatchWordsFor(rows.size()), ~uint64_t{0});
    for (size_t p = 0; p < num_preds; ++p) {
      const Predicate& pred = query.predicates[p];
      DispatchDataType(pred_column[p]->type(), [&](auto tag) {
        using T = typename decltype(tag)::type;
        // Like rows_scanned, rows_scanned_packed counts each morsel once,
        // under the first predicate's layout.
        const WordMatches wm = AndPieceWords(
            *pred_column[p]->As<T>(), rows, pred.ToInterval<T>(), words,
            p == 0 ? &packed_rows[static_cast<size_t>(m)] : nullptr);
        own_matches[static_cast<size_t>(m) * num_preds + p] = wm.own;
        morsel_matches[static_cast<size_t>(m)] = wm.kept;
      });
    }
  };

  // Runs every morsel, then `fold(m)` over each morsel's surviving rows in
  // morsel (= row) order — right behind the scan on one thread (the
  // morsel's data still in cache), after the barrier on several. Either
  // way the fold sees the same rows in the same order, so SUM's
  // sequential double accumulation, MIN/MAX ties and materialized row ids
  // are identical for every thread count.
  int64_t matched = 0;
  auto run_morsels = [&](auto&& fold) {
    Stopwatch scan_timer;
    if (options_.num_threads > 1 && morsels.size() > 1) {
      ThreadPool* workers = pool();
      stats.parallel_workers = workers->num_workers();
      std::vector<int64_t> worker_nanos(
          static_cast<size_t>(workers->num_workers()), 0);
      InstrumentedParallelFor(workers, static_cast<int64_t>(morsels.size()),
                              [&](int64_t m, int worker) {
                                Stopwatch morsel_timer;
                                scan_morsel(m);
                                worker_nanos[static_cast<size_t>(worker)] +=
                                    morsel_timer.ElapsedNanos();
                              });
      for (int64_t nanos : worker_nanos) stats.scan_nanos += nanos;
      Stopwatch fold_timer;
      for (size_t m = 0; m < morsels.size(); ++m) fold(m);
      stats.merge_nanos += fold_timer.ElapsedNanos();
    } else {
      for (size_t m = 0; m < morsels.size(); ++m) {
        scan_morsel(static_cast<int64_t>(m));
        fold(m);
      }
      stats.scan_nanos = scan_timer.ElapsedNanos();
    }
    for (int64_t matches : morsel_matches) matched += matches;
  };
  auto for_each_match = [&](size_t m, auto&& fn) {
    ForEachSetRow(&match_words[static_cast<size_t>(first_word[m])],
                  morsels[m].rows, fn);
  };
  switch (query.aggregate) {
    case AggregateKind::kCount:
      run_morsels([](size_t) {});
      break;
    case AggregateKind::kMaterialize:
      run_morsels([&](size_t m) {
        for_each_match(m, [&](int64_t row) { result.rows.Append(row); });
      });
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
        run_morsels([&](size_t m) {
          for_each_match(m, [&](int64_t row) {
            const T v = typed.Get(row);
            sum += static_cast<double>(v);
            min_v = std::min(min_v, v);
            max_v = std::max(max_v, v);
          });
        });
        result.sum = sum;
        if (matched > 0) {
          result.min = static_cast<double>(min_v);
          result.max = static_cast<double>(max_v);
        }
      });
      break;
    }
  }

  Stopwatch merge_timer;
  for (const Morsel& morsel : morsels) stats.rows_scanned += morsel.rows.size();
  for (int64_t rows : packed_rows) stats.rows_scanned_packed += rows;
  stats.rows_matched = matched;
  result.count = matched;

  // Replay the buffered feedback: per candidate range in order, each
  // indexed predicate learns how many of its own matches the range held.
  // Adaptive structures mutate only here, on the coordinator thread.
  std::vector<int64_t> pred_total_matches(num_preds, 0);
  {
    std::vector<int64_t> range_matches(num_preds, 0);
    size_t m = 0;
    for (size_t r = 0; r < candidates.size(); ++r) {
      std::fill(range_matches.begin(), range_matches.end(), 0);
      for (; m < morsels.size() &&
             morsels[m].range_index == static_cast<int64_t>(r);
           ++m) {
        for (size_t p = 0; p < num_preds; ++p) {
          range_matches[p] += own_matches[m * num_preds + p];
        }
      }
      for (size_t p = 0; p < num_preds; ++p) {
        pred_total_matches[p] += range_matches[p];
        if (pred_index[p] != nullptr) {
          pred_index[p]->OnRangeScanned(
              query.predicates[p],
              RangeFeedback{candidates[r], range_matches[p]});
        }
      }
    }
  }
  stats.merge_nanos += merge_timer.ElapsedNanos();
  if (trace != nullptr) {
    obs::TraceSpan probe_span = MakeProbeSpan(stats);
    for (size_t p = 0; p < num_preds; ++p) {
      obs::TraceSpan child("predicate");
      child
          .Set("column", query.predicates[p].column)
          .Set("index", pred_index[p] != nullptr
                            ? std::string(pred_index[p]->name())
                            : std::string("none"))
          .Set("zones_candidate", pred_probe[p].zones_candidate)
          .Set("zones_skipped", pred_probe[p].zones_skipped)
          .Set("entries_read", pred_probe[p].entries_read)
          .Set("own_matches", pred_total_matches[p]);
      probe_span.AddChild(std::move(child));
    }
    trace->root().AddChild(std::move(probe_span));

    obs::TraceSpan scan_span("scan");
    scan_span.duration_nanos = stats.scan_nanos;
    scan_span.Set("rows_scanned", stats.rows_scanned)
        .Set("rows_scanned_packed", stats.rows_scanned_packed)
        .Set("rows_matched", stats.rows_matched)
        .Set("kernel_path", simd::ActiveKernelPathName())
        .Set("morsels", static_cast<int64_t>(morsels.size()))
        .Set("parallel_workers", stats.parallel_workers)
        .Set("merge_nanos", stats.merge_nanos);
    trace->root().AddChild(std::move(scan_span));
  }

  obs::TraceSpan adapt_span("adapt");
  for (size_t p = 0; p < num_preds; ++p) {
    if (pred_index[p] == nullptr) continue;
    QueryFeedback feedback;
    feedback.rows_total = stats.rows_total;
    feedback.rows_scanned = stats.rows_scanned;
    feedback.rows_matched = pred_total_matches[p];
    feedback.probe = pred_probe[p];
    pred_index[p]->OnQueryComplete(query.predicates[p], feedback);
    stats.adapt_nanos += pred_index[p]->TakeAdaptationNanos();
    stats.tail_rows_scanned += pred_index[p]->TakeTailRowsScanned();
    if (trace != nullptr) {
      obs::TraceSpan child =
          MakeAdaptSpan(*pred_index[p], profiles_before[p], trace->detail(),
                        std::move(describes_before[p]));
      child.Set("column", query.predicates[p].column);
      adapt_span.AddChild(std::move(child));
    }
  }
  if (trace != nullptr) {
    adapt_span.duration_nanos = stats.adapt_nanos;
    adapt_span.Set("tail_rows_scanned", stats.tail_rows_scanned);
    trace->root().AddChild(std::move(adapt_span));
  }

  stats.total_nanos = total_timer.ElapsedNanos();
  if (trace != nullptr) {
    trace->root().duration_nanos = stats.total_nanos;
    result.trace = std::move(trace);
  }
  return result;
}

}  // namespace adaskip
