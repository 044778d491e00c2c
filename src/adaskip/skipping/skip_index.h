#ifndef ADASKIP_SKIPPING_SKIP_INDEX_H_
#define ADASKIP_SKIPPING_SKIP_INDEX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "adaskip/scan/predicate.h"
#include "adaskip/util/interval_set.h"
#include "adaskip/util/status.h"

namespace adaskip {

namespace obs {
enum class EventKind : int8_t;
struct JournalEvent;
class EventJournal;
}  // namespace obs

namespace persist {
class Sink;
class Source;
}  // namespace persist

/// Tag selecting the deferred-build constructor of a skip structure: the
/// constructor wires up the column and options but skips the O(rows)
/// metadata build, leaving an empty shell that DeserializeBinary fills
/// from a snapshot.
struct DeferBuildTag {};
inline constexpr DeferBuildTag kDeferBuild{};

/// Metadata-read accounting for one probe. The paper's central tension is
/// that these reads are pure overhead when they do not translate into
/// skipped rows, so every structure reports them honestly.
struct ProbeStats {
  int64_t entries_read = 0;     // Metadata entries (zones/nodes/blocks) touched.
  int64_t zones_skipped = 0;    // Zones pruned by the probe.
  int64_t zones_candidate = 0;  // Zones that must be scanned.

  void Add(const ProbeStats& other) {
    entries_read += other.entries_read;
    zones_skipped += other.zones_skipped;
    zones_candidate += other.zones_candidate;
  }
};

/// Executor → index feedback for one scanned candidate range.
struct RangeFeedback {
  RowRange scanned;      // The candidate range that was scanned.
  int64_t matches = 0;   // Qualifying rows found in it.
};

/// Executor → index feedback for one completed query.
struct QueryFeedback {
  int64_t rows_total = 0;    // Column size.
  int64_t rows_scanned = 0;  // Rows actually touched by scan kernels.
  int64_t rows_matched = 0;  // Qualifying rows.
  ProbeStats probe;          // The probe's own accounting.
};

/// Point-in-time adaptation state of a skip index: cumulative action
/// counts plus the cost model's live verdict. Cheap to copy — the
/// executor snapshots it before and after a query and diffs the two to
/// attribute adaptation actions to that query (the per-query trace /
/// EXPLAIN surface). Static structures report all-zero counts.
struct AdaptationProfile {
  int64_t zones_refined = 0;    // Zones added by refinement (splits).
  int64_t zones_merged = 0;     // Zones removed by merge sweeps.
  int64_t rebuilds = 0;         // Full metadata rebuilds (e.g. rebins).
  int64_t tail_absorbs = 0;     // Conservative tail pieces made exact.
  int64_t bypassed_probes = 0;  // Probes answered by the kill switch.
  bool bypass = false;          // Currently in SkippingMode::kBypass.
  bool cost_model_enabled = false;
  double net_benefit_per_row = 0.0;  // Cost model verdict; >0 = probing pays.

  // Effectiveness-tracker state (EWMAs over non-bypassed queries); zero
  // for static structures. Surfaced so DescribeIndex / EXPLAIN expose
  // what the cost model actually decides on.
  double skipped_fraction_ewma = 0.0;  // EWMA of rows skipped / rows total.
  double entries_per_row_ewma = 0.0;   // EWMA of metadata entries / row.
  int64_t queries_observed = 0;        // Tracker sample count.
};

/// A lightweight skipping structure over one column.
///
/// Contract:
///  * `Probe` appends candidate row ranges for `pred` to `candidates`,
///    sorted and pairwise disjoint (adjacent ranges are allowed: the
///    adaptive structure deliberately emits one range per zone so scan
///    feedback stays zone-exact). The union of the candidates must be a
///    superset of the qualifying rows — a skip index may over-approximate,
///    never under-approximate.
///  * The executor scans the candidates and then calls `OnRangeScanned`
///    once per scanned range, in range order, and `OnQueryComplete` once
///    per query. All of a query's range feedback arrives after its scan
///    has finished, at every thread count, on the coordinator thread, so
///    an index may restructure itself in `OnRangeScanned` (each range
///    still names the zone or block it was probed from, although an
///    earlier range's split may have shifted its position). Static
///    structures ignore the feedback; adaptive structures refine
///    themselves in these hooks (and account for the time they spend —
///    see ExecStats::adapt_nanos).
class SkipIndex {
 public:
  virtual ~SkipIndex();

  SkipIndex() = default;
  SkipIndex(const SkipIndex&) = delete;
  SkipIndex& operator=(const SkipIndex&) = delete;

  virtual std::string_view name() const = 0;

  /// One-line human-readable structural summary: the structure's kind
  /// plus its current geometry (zones / blocks / levels, footprint,
  /// adaptive mode). Must be cheap — no column passes — so examples,
  /// benches, and debugging surfaces can print it per query. Every
  /// subclass overrides this (enforced by the adaskip_lint rule
  /// `skip-index-overrides`, alongside OnAppend).
  virtual std::string Describe() const = 0;

  /// Number of rows covered (the column size at build time).
  virtual int64_t num_rows() const = 0;

  virtual void Probe(const Predicate& pred, std::vector<RowRange>* candidates,
                     ProbeStats* stats) = 0;

  /// Side-effect-free candidate lookup: appends ranges whose union is a
  /// superset of the rows matching `pred`, advancing NO state — no query
  /// sequence, no bypass accounting, no candidacy stamps, no metrics, no
  /// journal. The shared-scan pass uses it to plan a batch's data
  /// coverage up front, then replays the real `Probe` (and its feedback)
  /// once per query in submission order, so adaptation observes exactly
  /// the serial protocol. The result need not equal what `Probe` would
  /// return (a bypassed probe answers the full range; a peek may still
  /// consult the metadata) — only the superset contract binds it.
  /// Default: the conservative full range.
  virtual void PeekCandidates(const Predicate& pred,
                              std::vector<RowRange>* candidates) const {
    (void)pred;
    if (num_rows() > 0) candidates->push_back({0, num_rows()});
  }

  virtual void OnRangeScanned(const Predicate& pred,
                              const RangeFeedback& feedback) {
    (void)pred;
    (void)feedback;
  }

  virtual void OnQueryComplete(const Predicate& pred,
                               const QueryFeedback& feedback) {
    (void)pred;
    (void)feedback;
  }

  /// Data-arrival hook: `appended` is the new tail [old_size, new_size)
  /// already written to the column. Implementations must extend their
  /// metadata so the superset contract holds over the grown column —
  /// without a full rebuild. Static structures extend exact metadata for
  /// the tail; adaptive structures may cover it with conservative
  /// catch-all metadata that later query feedback refines.
  virtual void OnAppend(RowRange appended) = 0;

  /// Rows currently covered only by conservative catch-all metadata (the
  /// not-yet-refined tail of adaptive structures); 0 when fully indexed.
  virtual int64_t UnindexedTailRows() const { return 0; }

  /// Returns and resets the number of scanned rows that fell in catch-all
  /// tail metadata since the last call. The executor drains this into
  /// QueryStats::tail_rows_scanned.
  virtual int64_t TakeTailRowsScanned() { return 0; }

  /// Returns and resets the nanoseconds this index spent adapting itself
  /// (splits, merges) since the last call; 0 for static structures. The
  /// executor drains this into QueryStats::adapt_nanos.
  virtual int64_t TakeAdaptationNanos() { return 0; }

  /// Current adaptation state. Default: all-zero (static structures never
  /// adapt). Adaptive structures override with their real counters so the
  /// executor's per-query trace can diff before/after.
  virtual AdaptationProfile GetAdaptationProfile() const { return {}; }

  /// Heap footprint of the metadata.
  virtual int64_t MemoryUsageBytes() const = 0;

  /// Number of zones (metadata granules); 1 for structures without zones.
  virtual int64_t ZoneCount() const = 0;

  // --- Persistence (persist/binary_io.h) ---

  /// Writes the structure's complete state — geometry, bounds, adaptation
  /// counters, EWMAs, RNG state — as unframed little-endian primitives
  /// into `sink`. The checkpoint driver wraps the payload in a versioned,
  /// CRC-checked block; a restored index must be bit-identical to the
  /// serialized one (same Describe(), same probe results, same future
  /// adaptation decisions). Mandatory alongside Describe() (adaskip_lint
  /// rule serialize-binary-pair keeps the pair in sync).
  virtual Status SerializeBinary(persist::Sink& sink) const = 0;

  /// Fills a deferred-build shell (see kDeferBuild) from a payload
  /// written by SerializeBinary over the same column content and options.
  /// Corrupt or mismatched payloads return kDataLoss/kInvalidArgument and
  /// leave no partially initialized structure behind the interface.
  virtual Status DeserializeBinary(persist::Source& source) = 0;

  // --- Adaptation journal (obs/event_journal.h) ---

  /// Binds (or, with nullptr, unbinds) the journal this index emits its
  /// adaptation events to, under `scope` ("table.column"). Mutation-hook
  /// discipline applies: call only from the index's coordinator thread.
  void BindJournal(obs::EventJournal* journal, std::string scope) {
    journal_ = journal;
    journal_scope_ = std::move(scope);
  }
  obs::EventJournal* journal() const { return journal_; }
  const std::string& journal_scope() const { return journal_scope_; }

  /// Applies one replayed journal event to this index — the inverse of
  /// emission: a fresh index fed the journal's structural events (in
  /// order) reconstructs the live index's adaptation state (see
  /// adaptive/journal_replay.h for the equivalence contract). The default
  /// refuses: static structures take no journaled actions.
  virtual Status ApplyJournalEvent(const obs::JournalEvent& event);

 protected:
  /// Stamps scope and forwards one event to the bound journal (no-op when
  /// none is bound). Call sites guard with `journal() != nullptr` before
  /// building payload vectors, so unjournaled runs pay one branch.
  void EmitJournal(obs::EventKind kind, int64_t query_seq,
                   std::vector<int64_t> args = {},
                   std::vector<double> values = {},
                   std::string detail = {});

 private:
  obs::EventJournal* journal_ = nullptr;
  std::string journal_scope_;
};

/// The no-skipping baseline: every probe returns the full row range at
/// zero metadata cost. Used as the "full scan" arm of every experiment.
class FullScanIndex final : public SkipIndex {
 public:
  explicit FullScanIndex(int64_t num_rows) : num_rows_(num_rows) {}

  std::string_view name() const override { return "fullscan"; }
  std::string Describe() const override {
    return "fullscan: " + std::to_string(num_rows_) + " rows, no metadata";
  }
  int64_t num_rows() const override { return num_rows_; }

  void Probe(const Predicate& pred, std::vector<RowRange>* candidates,
             ProbeStats* stats) override;

  void OnAppend(RowRange appended) override { num_rows_ = appended.end; }

  int64_t MemoryUsageBytes() const override { return 0; }
  int64_t ZoneCount() const override { return 1; }

  Status SerializeBinary(persist::Sink& sink) const override;
  Status DeserializeBinary(persist::Source& source) override;

 private:
  int64_t num_rows_;
};

}  // namespace adaskip

#endif  // ADASKIP_SKIPPING_SKIP_INDEX_H_
