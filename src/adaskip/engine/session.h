#ifndef ADASKIP_ENGINE_SESSION_H_
#define ADASKIP_ENGINE_SESSION_H_

#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "adaskip/adaptive/cost_model.h"
#include "adaskip/adaptive/index_manager.h"
#include "adaskip/engine/exec_stats.h"
#include "adaskip/engine/query_spec.h"
#include "adaskip/engine/scan_executor.h"
#include "adaskip/obs/event_journal.h"
#include "adaskip/obs/flight_recorder.h"
#include "adaskip/obs/health_monitor.h"
#include "adaskip/obs/telemetry_server.h"
#include "adaskip/storage/catalog.h"
#include "adaskip/util/thread_annotations.h"

namespace adaskip {

namespace obs {
class JournalTailWriter;
class JsonlSpillWriter;
}  // namespace obs

/// Value-type snapshot of one attached skip index: identity, geometry,
/// and adaptation state at the moment of the call. This is the supported
/// introspection surface — a snapshot cannot be used to mutate the index
/// past the session's locking discipline, and it stays valid after the
/// index is detached or replaced.
struct IndexSnapshot {
  std::string table;
  std::string column;
  std::string kind;           // SkipIndex::name(), e.g. "adaptive".
  std::string description;    // SkipIndex::Describe() text.
  int64_t num_rows = 0;
  int64_t zone_count = 0;
  int64_t memory_bytes = 0;
  int64_t unindexed_tail_rows = 0;
  AdaptationProfile adaptation;  // Cumulative actions + cost-model verdict.
};

/// Per-table knobs for adaptive per-segment physical layouts. When
/// enabled, every *sealed* segment of every integer column is run
/// through the cost model's layout decision (DecideSegmentLayout) —
/// once, at seal time (or at enable time for segments already sealed) —
/// and narrow-range segments adopt the frame-of-reference bit-packed
/// layout of storage/segment_layout.h. Decisions are sticky and, when
/// the table journals (ExecOptions::journal_events), emitted as
/// kSegmentLayout events so replay reproduces the layouts bit for bit.
struct SegmentLayoutOptions {
  bool enabled = false;
  SegmentLayoutPolicy policy;
};

/// One-call session configuration (Session::Configure): the surface that
/// replaces the grown setter sprawl (SetExecOptions +
/// SetSegmentLayoutOptions + SetHealthMonitorOptions +
/// EnableJournalSpill/DisableJournalSpill) with a single validated value.
/// Every field is optional — unset pieces leave the session untouched —
/// and Configure validates the whole object (knob sanity AND table
/// existence) before applying any piece of it, so a typo in one table's
/// options cannot half-configure the session.
struct SessionOptions {
  struct TableOptions {
    std::optional<ExecOptions> exec;
    std::optional<SegmentLayoutOptions> layout;
  };

  /// Per-table knobs, keyed by table name.
  std::map<std::string, TableOptions, std::less<>> tables;

  std::optional<obs::HealthMonitorOptions> health;

  /// Flight recorder reconfiguration (ring capacity, slow-query
  /// threshold). The recorder is always on by default; capacity 0
  /// disables capture entirely.
  std::optional<obs::FlightRecorderOptions> flight_recorder;

  /// Journal spill target: a path routes spill evictions to that JSONL
  /// file (replacing any previous target), "" detaches the active spill,
  /// unset leaves spill routing as it is.
  std::optional<std::string> journal_spill_path;
};

/// What Session::Explain returns: the query's answer plus its execution
/// trace rendered both for humans and for machines.
struct Explanation {
  QueryResult result;  // result.trace is the kDetail span tree itself.
  std::string text;    // Indented plan/trace tree with a result header.
  std::string json;    // obs::QueryTrace::ToJson() of the same tree.
};

/// The library's high-level entry point: a catalog of tables, each with
/// its skip indexes and an executor, plus cumulative workload statistics.
/// See examples/quickstart.cpp for the intended usage:
///
///   Session session;
///   ADASKIP_CHECK_OK(session.CreateTable("readings"));
///   ADASKIP_CHECK_OK(session.AddColumn("readings", "temp", values));
///   ADASKIP_CHECK_OK(session.AttachIndex("readings", "temp",
///                                        IndexOptions::Adaptive()));
///   ADASKIP_ASSIGN_OR_RETURN(
///       QuerySpec spec, QueryBuilder("readings")
///                           .Where(Predicate::Between("temp", 10.0, 20.0))
///                           .Count()
///                           .Build());
///   auto result = session.ExecuteSpec(spec);
///
/// Threading: operations on ONE table (Execute / Append / index DDL /
/// SetExecOptions) are serialized by a per-table coordinator mutex —
/// the executor's adaptive feedback loop is deliberately
/// single-coordinator (see DESIGN.md), and the lock makes concurrent
/// callers queue rather than corrupt state. Callers that care about
/// adaptation order should still submit from one thread per table (or
/// through QueryServer, which defines the order); the mutex guarantees
/// safety, not a particular interleaving. It also makes the telemetry
/// readers (DescribeIndex and the /indexes endpoint) safe to run while
/// queries and appends are in flight. The cross-table surface is safe
/// to share: per-table runtimes are registered under `runtimes_mu_` and
/// the cumulative WorkloadStats accumulator is guarded by `stats_mu_`,
/// so sessions driving different tables from different threads record
/// stats without racing.
class Session {
 public:
  // Both out of line: the inline-defaulted forms would need the persist
  // writer types complete in every includer.
  Session();
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Creates an empty table.
  Status CreateTable(std::string name);

  /// Registers an externally built table.
  Status RegisterTable(std::shared_ptr<Table> table);

  /// Appends a column of `values` to `table_name`. Columns must be added
  /// before indexes are attached (indexes snapshot the column payload).
  template <typename T>
  Status AddColumn(std::string_view table_name, std::string column_name,
                   std::vector<T> values) {
    ADASKIP_ASSIGN_OR_RETURN(std::shared_ptr<Table> table,
                             catalog_.GetTable(table_name));
    return table->AddColumn(std::move(column_name),
                            MakeColumn(std::move(values)));
  }

  /// Appends a batch of rows (one equal-length value vector per column)
  /// to `table_name` and routes the append to every attached skip index,
  /// so the indexes stay in sync with the table's data version. This is
  /// THE supported ingest path for live tables: appending to the Table
  /// directly leaves indexes stale and subsequent queries fail fast.
  Status Append(std::string_view table_name, const AppendBatch& batch);

  /// Single-column convenience wrapper over the batch Append.
  template <typename T>
  Status Append(std::string_view table_name, std::string column_name,
                std::vector<T> values) {
    AppendBatch batch;
    batch.Add(std::move(column_name), std::move(values));
    return Append(table_name, batch);
  }

  /// Builds a skip index over `table.column` (replacing any existing one).
  Status AttachIndex(std::string_view table_name,
                     std::string_view column_name,
                     const IndexOptions& options);
  Status DetachIndex(std::string_view table_name,
                     std::string_view column_name);

  /// Sets `table_name`'s execution knobs (serial vs morsel-parallel
  /// scans, trace level; see ExecOptions) after validating them —
  /// nonsensical knobs (morsel_rows < 1, num_threads outside
  /// [1, kMaxExecThreads], an undefined TraceLevel) are rejected with
  /// InvalidArgument and the previous options stay in force. Applies to
  /// all subsequent Execute calls.
  Status SetExecOptions(std::string_view table_name,
                        const ExecOptions& options);

  /// Enables (or reconfigures) adaptive per-segment layout selection for
  /// `table_name`. Already-sealed segments are evaluated immediately;
  /// future segments are evaluated as appends seal them. Disabling stops
  /// new evaluations but keeps layouts already adopted (they are pure
  /// representation changes and stay correct). Rejects a nonsensical
  /// policy (min_rows < 1, max_bits outside [1, 16], skip_saturation
  /// outside [0, 1]) with InvalidArgument.
  Status SetSegmentLayoutOptions(std::string_view table_name,
                                 const SegmentLayoutOptions& options);

  /// Applies a whole SessionOptions in one validated step — the
  /// replacement for calling the per-knob setters one by one. Validation
  /// covers every piece (exec knobs, layout policies, health thresholds,
  /// and the existence of every named table) BEFORE anything is applied;
  /// on a validation error the session is untouched. Only an I/O failure
  /// opening a spill file can surface after partial application (the
  /// spill target is applied first, so table knobs stay untouched then).
  /// The per-knob setters remain and forward to the same machinery.
  Status Configure(const SessionOptions& options);

  /// Runs one QuerySpec to completion, blocking the caller: the spec is
  /// validated (ValidateQuerySpec), its trace-level override (if any) is
  /// applied for just this query, and the result's stats feed the
  /// session's WorkloadStats and health monitor. The spec's deadline and
  /// priority are scheduling hints for the queued submission path
  /// (QueryServer); a blocking call starts immediately, so they do not
  /// apply here beyond validation.
  Result<QueryResult> ExecuteSpec(const QuerySpec& spec);

  /// Executes a batch of specs against `table_name` in ONE shared
  /// adaptive pass (see ScanExecutor::ExecuteShared): skip indexes are
  /// peeked once per query up front, the union of candidate ranges is
  /// scanned once, and adaptation feedback is replayed in submission
  /// order — results AND index state come out bit-identical to calling
  /// ExecuteSpec on each spec in order. Returns one Result per spec, in
  /// order; a spec that fails validation (or targets a different table)
  /// fails alone without poisoning the batch. `pass` (optional) receives
  /// the batch-level accounting. Same single-coordinator contract as
  /// Execute: one batch at a time per table.
  std::vector<Result<QueryResult>> ExecuteShared(
      std::string_view table_name, const std::vector<QuerySpec>& batch,
      SharedPassStats* pass = nullptr);

  /// Runs `query` with full (kDetail) tracing regardless of the table's
  /// configured trace level and renders the captured plan/trace: how many
  /// zones were candidates vs skipped, what was scanned, and which
  /// adaptation actions (splits, merges, absorbs, rebuilds, cost-model
  /// verdicts) the query triggered. The query really executes — it feeds
  /// adaptation and the session stats like any Execute call. The table's
  /// ExecOptions are untouched.
  Result<Explanation> Explain(std::string_view table_name,
                              const Query& query);

  Result<std::shared_ptr<Table>> GetTable(std::string_view table_name) const {
    return catalog_.GetTable(table_name);
  }

  /// Snapshot of the index on `table.column`: kind, geometry, footprint,
  /// and adaptation state. NotFound if the table is unknown or the column
  /// has no attached index. Taken under the table's coordinator lock, so
  /// it is safe to call while queries/appends run on the table (this is
  /// what the /indexes telemetry endpoint does).
  Result<IndexSnapshot> DescribeIndex(std::string_view table_name,
                                      std::string_view column_name) const;

  /// Writes a versioned, checksummed binary snapshot of the whole session
  /// into `dir` (created if missing): every column in its current
  /// physical layout (packed segments included), every attached skip
  /// index with its full adaptation state, the event journal, and a
  /// manifest tying them together. All files are staged under temp names
  /// and fsynced, then committed by removing the old manifest, renaming
  /// the payload files into place, and renaming the new manifest last —
  /// so a crash mid-checkpoint (even over an existing snapshot in the
  /// same `dir`) leaves either the previous snapshot or no restorable
  /// snapshot, never a mixed-generation one, and a checkpoint that
  /// returns an error keeps the previous journal-tail sink installed.
  ///
  /// After the snapshot is committed, a journal-tail file inside `dir`
  /// starts receiving every subsequently journaled event (fsynced per
  /// event); Restore replays that tail so recovered indexes match the
  /// pre-crash state bit for bit, not just the checkpoint-time state.
  ///
  /// The session must be quiesced for the duration of the call: no
  /// concurrent Execute/Append/DDL on any table (same single-coordinator
  /// contract as every other mutation).
  Status Checkpoint(const std::string& dir);

  /// Rebuilds this session from a snapshot written by Checkpoint:
  /// verifies every block checksum, restores tables/columns (including
  /// packed segment layouts), restores the journal and re-appends the
  /// journal-tail events past the snapshot's high-water sequence, then
  /// reconstructs each skip index from its snapshot state plus a replay
  /// of its tail events. Requires an empty session (no tables, untouched
  /// journal). Any corruption surfaces as kDataLoss and the snapshot
  /// files are left untouched; a torn trailing journal-tail record (the
  /// expected crash artifact) is silently dropped. Rows appended after
  /// the checkpoint are not recoverable — events referencing them fail
  /// the replay loudly rather than restoring an index that lies about
  /// its column.
  ///
  /// On success the session resumes journal-tail durability into `dir`:
  /// the tail file is rewritten to the replayed events (trimming any
  /// torn record) and every subsequently journaled event appends behind
  /// them, so the directory stays restorable without waiting for the
  /// next explicit Checkpoint.
  Status Restore(const std::string& dir);

  /// Routes journal spill evictions to a JSONL file at `path` (appending
  /// to any existing history, one JournalEvent JSON object per line).
  /// Replaces any previous spill target.
  Status EnableJournalSpill(const std::string& path);

  /// Detaches and closes the spill file, surfacing any sticky write
  /// error. No-op without an active spill.
  Status DisableJournalSpill();

  const Catalog& catalog() const { return catalog_; }

  /// The session-wide adaptation journal. It only receives events from
  /// tables whose ExecOptions::journal_events is on — SetExecOptions
  /// binds (or unbinds) the table's index manager to it — so a session
  /// that never opts in pays one untaken branch per emission point.
  /// Internally synchronized; safe to read while queries run.
  obs::EventJournal& journal() { return journal_; }
  const obs::EventJournal& journal() const { return journal_; }

  /// Reconfigures the index health monitor (window geometry is fixed at
  /// session construction; thresholds and window_queries apply to windows
  /// that have not closed yet). Samples only flow from tables whose
  /// ExecOptions::time_series is on.
  void SetHealthMonitorOptions(const obs::HealthMonitorOptions& options) {
    health_.SetOptions(options);
  }

  /// Drift verdict and windowed effectiveness of every monitored index
  /// scope ("table.column"), sorted by scope. Empty until a table with
  /// ExecOptions::time_series on has executed queries.
  std::vector<obs::IndexHealth> HealthReport() const {
    return health_.Report();
  }

  const obs::IndexHealthMonitor& health_monitor() const { return health_; }

  /// The always-on flight recorder: a bounded ring of compact per-query
  /// records captured on every submission surface (ExecuteSpec,
  /// ExecuteShared, and therefore every QueryServer dispatch) even at
  /// trace_level=kOff. A query whose latency crosses the configured
  /// slow-query threshold flags its spec digest; the NEXT submission of
  /// the same logical spec through ExecuteSpec/ExecuteShared is promoted
  /// to full (kDetail) tracing, so the outlier's successor arrives with
  /// a complete span tree attached. Internally synchronized.
  obs::FlightRecorder& flight_recorder() { return flight_recorder_; }
  const obs::FlightRecorder& flight_recorder() const {
    return flight_recorder_;
  }

  /// Reconfigures the flight recorder after validating the options
  /// (ValidateFlightRecorderOptions). Changing capacity clears the ring.
  Status SetFlightRecorderOptions(const obs::FlightRecorderOptions& options);

  /// Starts the embedded telemetry HTTP server and registers the stock
  /// endpoints over this session's observability surfaces:
  ///   /metrics        Prometheus text exposition of the registry
  ///   /healthz        index health verdicts (503 when any is degraded)
  ///   /journal?n=K    journal tail as JSONL
  ///   /flightrecorder flight-recorder ring as JSON
  ///   /indexes        IndexSnapshot list (safe during live traffic:
  ///                   each table's snapshot is taken under that
  ///                   table's coordinator lock)
  /// Returns the bound port (options.port == 0 binds an ephemeral one).
  /// One server per session: a second Start without a Stop fails with
  /// FailedPrecondition, as does a port already in use.
  Result<int> StartTelemetryServer(
      const obs::TelemetryServerOptions& options = {});

  /// Stops and destroys the telemetry server. No-op when not running.
  void StopTelemetryServer();

  /// The running server, or nullptr. Use RegisterHandler to add
  /// application endpoints next to the stock ones.
  obs::TelemetryServer* telemetry_server() { return telemetry_server_.get(); }

  /// Writes the session's temporal telemetry as one JSON document:
  /// the journal tail (most recent events plus append/spill totals), the
  /// per-index health report, the windowed time series behind it, and a
  /// snapshot of the process metrics registry. This is the machine-
  /// readable export the drift-monitor bench (and CI) archive.
  void DumpTelemetry(std::ostream& out) const;

  /// Snapshot of the cumulative per-session stats. Returns a copy taken
  /// under `stats_mu_` — a reference would escape the lock.
  WorkloadStats workload_stats() const ADASKIP_EXCLUDES(stats_mu_) {
    MutexLock lock(&stats_mu_);
    return stats_;
  }
  void ResetWorkloadStats() ADASKIP_EXCLUDES(stats_mu_) {
    MutexLock lock(&stats_mu_);
    stats_.Clear();
  }

 private:
  struct TableRuntime {
    /// The table's coordinator lock: every mutating session entry point
    /// on this table (ExecuteSpec / ExecuteShared / Append / index DDL /
    /// SetExecOptions / Explain) holds it for the duration of the
    /// operation, and the telemetry readers (DescribeIndex, and through
    /// it the /indexes endpoint) hold it while they snapshot index
    /// state — so a scrape during live query/ingest traffic reads
    /// consistent state instead of racing the coordinator. Behind a
    /// unique_ptr because TableRuntime is moved into the registry map
    /// and a Mutex is pinned. Uncontended in the sanctioned
    /// one-coordinator-per-table regime, so the hot path pays one
    /// uncontended lock/unlock per query.
    std::unique_ptr<Mutex> coord_mu = std::make_unique<Mutex>();
    std::unique_ptr<IndexManager> indexes;
    std::unique_ptr<ScanExecutor> executor;
    SegmentLayoutOptions layout_options;
    // Per column name: sealed segments already run through the layout
    // decision (decisions are sticky — a segment is evaluated once).
    std::map<std::string, int64_t, std::less<>> layout_evaluated;
  };

  /// Runs the layout decision over every not-yet-evaluated sealed
  /// segment of every column of `table`. Caller holds the table's
  /// coordinator lock (Append / SetSegmentLayoutOptions do).
  void EvaluateSegmentLayouts(std::string_view table_name,
                              TableRuntime* runtime, Table* table);

  /// Gets (building on first use) the runtime of `table_name`. The
  /// returned pointer is stable: runtimes live in a node-based map and
  /// are never erased. `runtimes_mu_` covers only the registry, not the
  /// runtime's executor/indexes — per-table serialization stays the
  /// caller's job.
  Result<TableRuntime*> GetRuntime(std::string_view table_name)
      ADASKIP_EXCLUDES(runtimes_mu_);

  /// Const lookup without creation; nullptr if the runtime was never
  /// built.
  const TableRuntime* FindRuntime(std::string_view table_name) const
      ADASKIP_EXCLUDES(runtimes_mu_);

  /// Post-execution bookkeeping shared by every submission surface:
  /// records the result's stats into the cumulative WorkloadStats and,
  /// when the table opted into time series, one health sample per
  /// predicated column.
  void RecordQueryOutcome(std::string_view table_name, const Query& query,
                          const QueryResult& result,
                          const TableRuntime& runtime);

  /// Builds one FlightRecord for `result` (success or failure) and hands
  /// it to the recorder. `batch_seq` is -1 for standalone submissions.
  void RecordFlight(uint64_t digest, int64_t latency_nanos,
                    const Result<QueryResult>& result, int64_t batch_seq,
                    int32_t batch_width);

  /// JSON body of the /indexes telemetry endpoint: every attached
  /// index's IndexSnapshot across every catalog table.
  obs::HttpResponse IndexesResponse() const;

  Catalog catalog_;
  // Temporal observability: both internally synchronized, shared by all
  // of the session's tables. Indexes hold raw pointers into journal_, so
  // it is declared before runtimes_ — members destroy in reverse
  // declaration order, keeping the journal alive past every runtime.
  obs::EventJournal journal_;
  obs::IndexHealthMonitor health_;
  obs::FlightRecorder flight_recorder_;
  mutable Mutex runtimes_mu_;
  std::map<std::string, TableRuntime, std::less<>> runtimes_
      ADASKIP_GUARDED_BY(runtimes_mu_);
  mutable Mutex stats_mu_;
  WorkloadStats stats_ ADASKIP_GUARDED_BY(stats_mu_);
  /// Session-local id of the next shared pass, stamped into flight
  /// records so an operator can group one batch's members.
  int64_t next_flight_batch_ ADASKIP_GUARDED_BY(stats_mu_) = 0;
  // Persistence plumbing (engine/session_persist.cc). Both writers are
  // referenced by callbacks installed on journal_; the destructor clears
  // those callbacks before any member is torn down.
  std::unique_ptr<obs::JournalTailWriter> tail_writer_;
  std::unique_ptr<obs::JsonlSpillWriter> spill_writer_;
  /// Declared last: the server's handlers close over the members above,
  /// so it must stop (destroy) before any of them is torn down.
  std::unique_ptr<obs::TelemetryServer> telemetry_server_;
};

}  // namespace adaskip

#endif  // ADASKIP_ENGINE_SESSION_H_
