#ifndef ADASKIP_ENGINE_SCAN_EXECUTOR_H_
#define ADASKIP_ENGINE_SCAN_EXECUTOR_H_

#include <limits>
#include <memory>
#include <vector>

#include "adaskip/adaptive/index_manager.h"
#include "adaskip/engine/exec_stats.h"
#include "adaskip/engine/query.h"
#include "adaskip/obs/query_trace.h"
#include "adaskip/storage/table.h"
#include "adaskip/util/selection_vector.h"
#include "adaskip/util/status.h"
#include "adaskip/util/thread_annotations.h"
#include "adaskip/util/thread_pool.h"

namespace adaskip {

/// Execution knobs of one ScanExecutor. The default runs on the calling
/// thread, so every existing experiment stays comparable; num_threads > 1
/// turns on morsel-driven parallel scans.
struct ExecOptions {
  /// Total worker count for candidate scanning (the coordinator thread
  /// participates). 1 scans on the calling thread.
  int num_threads = 1;

  /// Target rows per morsel. Candidate ranges are split into morsels of
  /// at most this many rows; morsels never cross a candidate-range
  /// boundary, so per-range (zone-exact) feedback stays intact.
  int64_t morsel_rows = 32768;

  /// Per-query trace capture (see obs::QueryTrace). kOff — the default —
  /// costs one pointer check per capture point; kSummary records the
  /// probe/scan/adapt span tree; kDetail adds bounded per-range /
  /// per-morsel children and before/after index state.
  obs::TraceLevel trace_level = obs::TraceLevel::kOff;

  /// Bind the session's adaptation journal to this table's indexes, so
  /// every structural adaptation (splits, merges, absorbs, rebins, mode
  /// flips, lifecycle transitions) is recorded as a replayable event.
  /// Off by default: when off, emission sites cost one pointer check.
  bool journal_events = false;

  /// Feed per-query effectiveness samples into the session's index
  /// health monitor (windowed time series + drift verdicts). Off by
  /// default: when off, Execute skips the recording call entirely.
  bool time_series = false;
};

/// Upper bound on ExecOptions::num_threads accepted by
/// ValidateExecOptions — far above any sane machine, low enough to catch
/// garbage (negative casts, uninitialized ints).
inline constexpr int kMaxExecThreads = 1024;

/// Validates execution knobs: num_threads in [1, kMaxExecThreads],
/// morsel_rows >= 1, trace_level a defined enumerator. Returns
/// InvalidArgument naming the offending knob.
Status ValidateExecOptions(const ExecOptions& options);

/// Answer of one query plus its execution accounting.
///
/// `min`/`max` are meaningful only when `count > 0`; with no qualifying
/// rows they stay NaN so that accidental use is loud (NaN propagates)
/// instead of silently reading as 0.0 — a real value for most columns.
struct QueryResult {
  AggregateKind aggregate = AggregateKind::kCount;
  int64_t count = 0;   // Number of qualifying rows (all aggregate kinds).
  double sum = 0.0;    // kSum only.
  double min = std::numeric_limits<double>::quiet_NaN();  // kMin; count > 0.
  double max = std::numeric_limits<double>::quiet_NaN();  // kMax; count > 0.
  SelectionVector rows;  // kMaterialize only.
  QueryStats stats;

  /// The captured span tree; non-null only when the query ran with
  /// ExecOptions::trace_level above kOff. Shared const so callers can
  /// retain it past the result without copying the tree.
  std::shared_ptr<const obs::QueryTrace> trace;
};

/// One member of a shared batch (ScanExecutor::ExecuteShared): the query
/// plus its effective per-query trace level. The pointed-to Query must
/// outlive the call; requests carry pointers so a server front-end can
/// batch without copying predicate lists.
struct SharedQueryRequest {
  const Query* query = nullptr;
  obs::TraceLevel trace_level = obs::TraceLevel::kOff;
};

/// Physical accounting of one shared pass, batch-level (per-query
/// numbers live in each QueryResult::stats). The headline number is
/// saved_rows(): how many kernel-row touches the shared pass avoided
/// relative to running every shared query standalone.
struct SharedPassStats {
  int64_t queries = 0;         // Batch width as submitted.
  int64_t shared_queries = 0;  // Answered from the shared scan.
  int64_t solo_queries = 0;    // Conjunctions etc., executed at their turn.
  int64_t failed_queries = 0;  // Validation/index failures; failed alone.
  int64_t morsels = 0;         // Morsels of the shared scan.
  /// Rows in the union of all peeked candidate sets (each row once).
  int64_t unique_rows = 0;
  /// Rows the shared kernels touched: each row once per DISTINCT shared
  /// predicate whose candidates covered it — repeated predicates share
  /// one scan, so this drops well below serial_equivalent_rows when
  /// clients submit the same query concurrently.
  int64_t kernel_rows = 0;
  /// Sum over shared queries of serial-equivalent rows_scanned — what
  /// standalone executions would have touched in total.
  int64_t serial_equivalent_rows = 0;
  int64_t scan_nanos = 0;  // Summed shared-kernel time (CPU, not wall).
  /// Wall time of the plan/peek phase (classify queries, dedup repeated
  /// predicates, side-effect-free index peeks). Feeds the server
  /// request-lifecycle trace spans and the shared-scan phase histograms.
  int64_t peek_nanos = 0;
  /// Wall time of the submission-order replay phase (real probes,
  /// feedback delivery, per-query result assembly).
  int64_t replay_nanos = 0;

  int64_t saved_rows() const { return serial_equivalent_rows - kernel_rows; }
};

/// Answer of ScanExecutor::ExecuteShared: one Result per submitted
/// query, in submission order, plus the batch-level pass accounting.
struct SharedBatchResult {
  std::vector<Result<QueryResult>> results;
  SharedPassStats pass;
};

/// Executes filter-and-aggregate queries over one table, consulting the
/// table's skip indexes: probe → candidate ranges → scan kernels →
/// adaptation feedback. This is the component that turns a SkipIndex's
/// metadata into actual skipped rows, and the place where every
/// nanosecond of probe/scan/adaptation work is attributed.
///
/// Every standalone query runs one morsel pipeline; a single predicate is
/// a one-term conjunction. Each term's index is probed, the candidate sets
/// are intersected (one term's probe output is used as is), and the
/// candidate rows are split into morsels that are scanned and then folded
/// in morsel order. A query whose aggregate reads its one predicate's
/// column runs the fused per-aggregate kernels; any other query ANDs
/// per-term 64-bit match words morsel by morsel, reading each column once.
/// Both drive adaptation: each term's index receives per-range feedback
/// counting that column's own matches, plus a query-complete summary.
///
/// On one thread the candidate ranges are walked in place: each morsel is
/// scanned into one running partial (or one reused match-word buffer) and
/// folded right behind its scan, and stats.scan_nanos is the wall time of
/// that whole walk. With ExecOptions::num_threads > 1 and more than one
/// morsel's worth of candidate rows, a resident ThreadPool scans a morsel
/// list into per-morsel partials and the coordinator folds them after the
/// barrier. The folds add each term's own matches per candidate range
/// into one per-query array; once the scan has finished, the coordinator
/// delivers that feedback in range order — the same sequence at every
/// thread count — so adaptive structures never see concurrent mutation
/// and adapt identically at every thread count. Results are identical at
/// every thread count too: both schedules cut the kernels at the same
/// morsel boundaries, so for float columns the SUM reduction order is
/// fixed by the morsel layout, which does not depend on the thread count.
///
/// Columns are stored in fixed-capacity segments, so morsels are also
/// split at segment boundaries before the kernels run. Adaptation
/// feedback is still delivered once per *original* candidate range —
/// summing morsel matches — so skip structures see the same feedback
/// stream regardless of segmentation. Indexes are fetched through
/// IndexManager::GetSyncedIndex: a query over a table that grew behind
/// the index manager's back fails with FailedPrecondition instead of
/// silently dropping appended rows from the answer.
class ScanExecutor {
 public:
  /// `indexes` may be nullptr (every query scans fully). Both the table
  /// and the index manager must outlive the executor.
  ScanExecutor(std::shared_ptr<const Table> table, IndexManager* indexes,
               const ExecOptions& options = {})
      : table_(std::move(table)), indexes_(indexes), options_(options) {}

  ScanExecutor(const ScanExecutor&) = delete;
  ScanExecutor& operator=(const ScanExecutor&) = delete;

  Result<QueryResult> Execute(const Query& query);

  /// Executes a batch of queries in one shared adaptive pass. Each
  /// query's skip index is peeked once (side-effect free) at batch
  /// start; the union of all candidate sets is scanned morsel-wise,
  /// evaluating every DISTINCT shared predicate over its own candidate
  /// rows and materializing per-predicate match positions — queries
  /// repeating a predicate already in the batch (the dashboard pattern)
  /// reuse the first copy's scan outright. Afterwards the
  /// queries are replayed in submission order: the REAL Probe runs at
  /// each query's turn (advancing adaptive probe-side state exactly as
  /// standalone execution would), per-range feedback is reconstructed
  /// from the shared match positions, and the adaptation summary is
  /// delivered — so after the batch, every index is bit-identical to
  /// what serial submission-order execution would have produced, and so
  /// are the per-query results (for float columns, SUM is exact-equal
  /// only when row sums are exactly representable in double: the shared
  /// pass sums row by row, a standalone scan per morsel).
  ///
  /// Per-query failure isolation: a query that fails validation (or
  /// whose index is stale) gets its own error entry and the rest of the
  /// batch proceeds. Conjunctions and cross-column aggregates execute
  /// standalone at their submission turn, preserving batch-wide
  /// ordering. An empty batch returns an empty result.
  SharedBatchResult ExecuteShared(const std::vector<SharedQueryRequest>& batch);

  /// Reconfigures execution after validating the knobs
  /// (ValidateExecOptions); invalid options are rejected with
  /// InvalidArgument and the previous options stay in force. The worker
  /// pool is (re)built lazily on the next parallel query. Not thread safe
  /// against concurrent Execute.
  Status set_exec_options(const ExecOptions& options);
  const ExecOptions& exec_options() const { return options_; }

  const Table& table() const { return *table_; }

 private:
  Status ValidateQuery(const Query& query) const;

  /// The one pipeline behind every standalone query — Execute, and the
  /// solo lane of ExecuteShared — at the given trace level. Probes each
  /// term, splits the candidate rows into morsels, scans them (on the pool
  /// when the scan is big enough) and folds them in morsel order, then
  /// hands each index its per-range feedback in range order. A query
  /// reading only its predicate's column runs the fused per-aggregate
  /// kernels; any other query ANDs per-term 64-bit match words.
  Result<QueryResult> ExecuteConjunction(const Query& query,
                                         obs::TraceLevel trace_level);

  /// The resident worker pool when a scan of `candidate_rows` rows should
  /// fan out — num_threads > 1 and more than one morsel's worth of rows —
  /// and nullptr when it runs on the calling thread. Built on first use.
  ThreadPool* MorselPool(int64_t candidate_rows);

  std::shared_ptr<const Table> table_;
  IndexManager* indexes_;
  // options_ and pool_ are coordinator-only state: one thread drives
  // Execute / set_exec_options at a time (the adaptive feedback loop
  // depends on it). Debug builds assert that via exec_serial_; worker
  // threads never touch these members.
  ExecOptions options_;
  std::unique_ptr<ThreadPool> pool_;
  MutationSerial exec_serial_;
};

}  // namespace adaskip

#endif  // ADASKIP_ENGINE_SCAN_EXECUTOR_H_
