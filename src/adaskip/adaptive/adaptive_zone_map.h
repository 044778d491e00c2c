#ifndef ADASKIP_ADAPTIVE_ADAPTIVE_ZONE_MAP_H_
#define ADASKIP_ADAPTIVE_ADAPTIVE_ZONE_MAP_H_

#include <memory>
#include <span>
#include <vector>

#include "adaskip/adaptive/adaptation_policy.h"
#include "adaskip/adaptive/cost_model.h"
#include "adaskip/adaptive/effectiveness_tracker.h"
#include "adaskip/scan/scan_kernel.h"
#include "adaskip/skipping/skip_index.h"
#include "adaskip/storage/column.h"
#include "adaskip/util/thread_annotations.h"

namespace adaskip {

/// The paper's core contribution: a zonemap whose zones are refined,
/// merged, and — when hostile data makes skipping pointless — bypassed,
/// all as a side effect of query execution.
///
/// Mechanics (see DESIGN.md for the full treatment):
///  * Zones are variable-width and always exactly tile [0, num_rows).
///  * `Probe` emits one candidate range per overlapping zone (deliberately
///    not coalesced, so per-zone scan feedback stays exact).
///  * `OnRangeScanned` splits zones whose scans were mostly wasted,
///    per the configured SplitPolicy; children get exact min/max bounds
///    computed right after the query's scan, while the zone is likely
///    still cached. The zone is looked up only when a tail zone exists
///    or the range passes the split gates. The time spent is accumulated
///    and drained by the executor via `TakeAdaptationNanos()` so
///    experiments charge adaptation honestly.
///  * `OnQueryComplete` feeds the effectiveness tracker, lets the cost
///    model flip between kActive and kBypass, and periodically merges
///    cold zones to respect the metadata budget.
///  * `OnAppend` covers the new tail with *conservative* catch-all zones
///    (bounds = the type's full range, one zone per segment piece), so
///    the superset contract holds the instant data arrives, at zero build
///    cost. The first query that scans such a zone absorbs it — exact
///    bounds at the initial-build granularity, computed from the rows it
///    just scanned — and normal split refinement takes over from there.
///
/// Zones never cross a segment boundary of the underlying column (initial
/// build, splits, merges, and tail zones all respect it), so every zone is
/// addressable as one contiguous span. The index holds a pointer to the
/// column: it must not outlive it.
template <typename T>
class AdaptiveZoneMapT final : public SkipIndex {
 public:
  AdaptiveZoneMapT(const TypedColumn<T>& column,
                   const AdaptiveOptions& options);

  /// Deferred build: an empty shell DeserializeBinary fills.
  AdaptiveZoneMapT(const TypedColumn<T>& column,
                   const AdaptiveOptions& options, DeferBuildTag);

  std::string_view name() const override { return "adaptive"; }
  std::string Describe() const override {
    return "adaptive: " + std::to_string(zones_.size()) + " zones (" +
           std::to_string(conservative_zones_) + " conservative) over " +
           std::to_string(num_rows_) + " rows, " +
           std::to_string(split_count_) + " splits / " +
           std::to_string(merge_count_) + " merges, mode=" +
           (mode_ == SkippingMode::kActive ? "active" : "bypass") + ", " +
           std::to_string(MemoryUsageBytes()) + " B";
  }
  int64_t num_rows() const override { return num_rows_; }

  void Probe(const Predicate& pred, std::vector<RowRange>* candidates,
             ProbeStats* stats) override;
  void PeekCandidates(const Predicate& pred,
                      std::vector<RowRange>* candidates) const override;
  void OnRangeScanned(const Predicate& pred,
                      const RangeFeedback& feedback) override;
  void OnQueryComplete(const Predicate& pred,
                       const QueryFeedback& feedback) override;
  void OnAppend(RowRange appended) override;

  int64_t UnindexedTailRows() const override;
  int64_t TakeTailRowsScanned() override;

  int64_t MemoryUsageBytes() const override;
  int64_t ZoneCount() const override {
    return static_cast<int64_t>(zones_.size());
  }

  // --- Introspection (tests, experiments, examples) ---

  /// One zone of the adaptive map; bounds may be conservative after a
  /// merge (or a catch-all tail zone) but are always correct.
  struct AdaptiveZone {
    int64_t begin;
    int64_t end;
    T min;
    T max;
    int64_t last_candidate_seq;  // Query sequence of the last candidacy.
    // Catch-all tail zone from an append: bounds are the type's full
    // range (always a candidate) until the first scan tightens them.
    bool conservative = false;
  };

  const std::vector<AdaptiveZone>& zones() const { return zones_; }
  const AdaptiveOptions& options() const { return options_; }
  SkippingMode mode() const { return mode_; }
  int64_t split_count() const { return split_count_; }
  int64_t merge_count() const { return merge_count_; }
  int64_t absorb_count() const { return absorb_count_; }
  int64_t bypassed_probe_count() const { return bypassed_probe_count_; }
  int64_t query_count() const { return query_seq_; }
  const EffectivenessTracker& tracker() const { return tracker_; }

  AdaptationProfile GetAdaptationProfile() const override;

  /// Returns and resets the nanoseconds spent on refinement/merging since
  /// the last call.
  int64_t TakeAdaptationNanos() override;

  /// Replays one structural journal event (split / merge / tail absorb /
  /// append / mode change) against this map: child bounds are recomputed
  /// from the column payload, so a fresh map fed the live map's journal
  /// converges to bit-identical zones (probe-driven heat metadata —
  /// last_candidate_seq, query_seq — is excluded; see DESIGN.md).
  Status ApplyJournalEvent(const obs::JournalEvent& event) override;

  /// Verifies the structural invariants (tiling, sortedness, bound
  /// soundness against the column payload). O(num_rows); tests only.
  bool CheckInvariants() const;

  /// Serializes the complete adaptation state — zones (including
  /// conservative flags and candidacy heat), mode, counters, and the
  /// effectiveness EWMAs — so a restored map makes the same future
  /// split/merge/bypass decisions as the live one.
  Status SerializeBinary(persist::Sink& sink) const override;
  Status DeserializeBinary(persist::Source& source) override;

 private:
  /// Index of the zone starting exactly at `begin`, or -1.
  int64_t FindZoneIndex(int64_t begin) const;

  /// Exact min/max of [begin, end), which must lie inside one segment.
  MinMax<T> ZoneMinMax(int64_t begin, int64_t end) const;

  /// Splits zones_[index] at the (strictly interior, sorted) cut
  /// positions, computing exact child bounds from the data.
  void SplitZoneAt(int64_t index, std::span<const int64_t> cuts);

  /// Replaces zones_[index] with pre-computed children (which must tile
  /// it exactly), counting the refinement and journaling it. The single
  /// structural split point — every refinement (halve, budgeted,
  /// boundary, replayed) lands here.
  void ReplaceZone(int64_t index, const std::vector<AdaptiveZone>& children);

  /// Tightens the conservative zone at `index` into exact `chunk`-row
  /// children (shared by the live absorb path and journal replay).
  void AbsorbTailZone(int64_t index, int64_t chunk);

  /// Merges runs of cold adjacent zones; called from OnQueryComplete.
  void MergeSweep();

  int64_t num_rows_;
  const TypedColumn<T>* column_;
  AdaptiveOptions options_;
  EffectivenessTracker tracker_;
  CostModel cost_model_;

  std::vector<AdaptiveZone> zones_;
  SkippingMode mode_ = SkippingMode::kActive;
  bool last_probe_bypassed_ = false;
  bool allow_splits_this_query_ = true;
  int64_t query_seq_ = 0;
  int64_t splits_this_query_ = 0;
  int64_t split_count_ = 0;
  int64_t merge_count_ = 0;
  int64_t absorb_count_ = 0;  // Conservative tail zones made exact.
  int64_t bypassed_probe_count_ = 0;
  int64_t adapt_nanos_ = 0;
  int64_t conservative_zones_ = 0;
  int64_t tail_rows_scanned_ = 0;

  // All mutable state above is protected by protocol, not by a lock: the
  // executor replays feedback and appends on the coordinator thread only.
  // Debug builds assert that discipline on every mutation hook.
  MutationSerial mutation_serial_;
};

/// Builds an adaptive zonemap for `column`, dispatching on its type.
std::unique_ptr<SkipIndex> MakeAdaptiveZoneMap(
    const Column& column, const AdaptiveOptions& options = {});

}  // namespace adaskip

#endif  // ADASKIP_ADAPTIVE_ADAPTIVE_ZONE_MAP_H_
