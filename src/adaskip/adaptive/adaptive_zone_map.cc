#include "adaskip/adaptive/adaptive_zone_map.h"

#include <algorithm>
#include <limits>

#include "adaskip/obs/event_journal.h"
#include "adaskip/obs/metrics.h"
#include "adaskip/persist/binary_io.h"
#include "adaskip/scan/simd/kernel_dispatch.h"
#include "adaskip/storage/type_dispatch.h"
#include "adaskip/util/stopwatch.h"

namespace adaskip {

template <typename T>
AdaptiveZoneMapT<T>::AdaptiveZoneMapT(const TypedColumn<T>& column,
                                      const AdaptiveOptions& options)
    : num_rows_(column.size()),
      column_(&column),
      options_(options),
      tracker_(options.ewma_alpha),
      cost_model_(options) {
  ADASKIP_CHECK_GE(options_.min_zone_size, 1);
  ADASKIP_CHECK_GT(options_.max_zones, 0);
  if (num_rows_ == 0) return;
  const int64_t zone_size =
      options_.initial_zone_size > 0 ? options_.initial_zone_size : num_rows_;
  // Chunk each segment independently so zones never cross a segment
  // boundary (initial_zone_size == 0 yields one zone per segment).
  column.ForEachPiece({0, num_rows_}, [&](RowRange piece) {
    for (int64_t begin = piece.begin; begin < piece.end; begin += zone_size) {
      int64_t end = std::min(begin + zone_size, piece.end);
      MinMax<T> mm = ZoneMinMax(begin, end);
      zones_.push_back(AdaptiveZone{begin, end, mm.min, mm.max,
                                    /*last_candidate_seq=*/0});
    }
  });
}

template <typename T>
AdaptiveZoneMapT<T>::AdaptiveZoneMapT(const TypedColumn<T>& column,
                                      const AdaptiveOptions& options,
                                      DeferBuildTag)
    : num_rows_(0),
      column_(&column),
      options_(options),
      tracker_(options.ewma_alpha),
      cost_model_(options) {
  ADASKIP_CHECK_GE(options_.min_zone_size, 1);
  ADASKIP_CHECK_GT(options_.max_zones, 0);
}

template <typename T>
MinMax<T> AdaptiveZoneMapT<T>::ZoneMinMax(int64_t begin, int64_t end) const {
  std::vector<T> scratch;
  std::span<const T> values = column_->SpanOrUnpack(begin, end, &scratch);
  return simd::ComputeMinMax(values, 0, end - begin);
}

template <typename T>
void AdaptiveZoneMapT<T>::OnAppend(RowRange appended) {
  ADASKIP_DCHECK_SERIAL(mutation_serial_);
  if (appended.empty()) return;
  if (journal() != nullptr) {
    EmitJournal(obs::EventKind::kIndexAppend, query_seq_,
                {appended.begin, appended.end});
  }
  // Cover the tail with conservative catch-all zones, one per segment
  // piece, coalescing with a preceding not-yet-tightened tail zone so
  // back-to-back appends do not pile up metadata.
  column_->ForEachPiece(appended, [&](RowRange piece) {
    if (!zones_.empty()) {
      AdaptiveZone& last = zones_.back();
      if (last.conservative && last.end == piece.begin &&
          column_->SegmentOf(last.begin) == column_->SegmentOf(piece.end - 1)) {
        last.end = piece.end;
        return;
      }
    }
    zones_.push_back(AdaptiveZone{piece.begin, piece.end,
                                  std::numeric_limits<T>::lowest(),
                                  std::numeric_limits<T>::max(), query_seq_,
                                  /*conservative=*/true});
    ++conservative_zones_;
  });
  num_rows_ = appended.end;
}

template <typename T>
int64_t AdaptiveZoneMapT<T>::UnindexedTailRows() const {
  if (conservative_zones_ == 0) return 0;
  int64_t rows = 0;
  for (const AdaptiveZone& zone : zones_) {
    if (zone.conservative) rows += zone.end - zone.begin;
  }
  return rows;
}

template <typename T>
int64_t AdaptiveZoneMapT<T>::TakeTailRowsScanned() {
  int64_t out = tail_rows_scanned_;
  tail_rows_scanned_ = 0;
  return out;
}

template <typename T>
void AdaptiveZoneMapT<T>::Probe(const Predicate& pred,
                                std::vector<RowRange>* candidates,
                                ProbeStats* stats) {
  ++query_seq_;
  if (num_rows_ == 0) return;

  const bool explore_tick =
      options_.explore_interval > 0 &&
      query_seq_ % options_.explore_interval == 0;
  if (mode_ == SkippingMode::kBypass && !explore_tick) {
    // Kill switch engaged: skip the metadata entirely and scan.
    last_probe_bypassed_ = true;
    ++bypassed_probe_count_;
    ADASKIP_METRIC_COUNTER(bypassed, "adaskip.zonemap.bypassed_probes",
                           "Probes answered by the cost-model kill switch");
    bypassed.Increment();
    candidates->push_back({0, num_rows_});
    stats->entries_read += 1;  // The mode flag itself.
    stats->zones_candidate += 1;
    return;
  }
  last_probe_bypassed_ = false;
  splits_this_query_ = 0;

  ValueInterval<T> interval = pred.ToInterval<T>();
  stats->entries_read += static_cast<int64_t>(zones_.size());
  int64_t candidate_rows = 0;
  for (AdaptiveZone& zone : zones_) {
    if (zone.max >= interval.lo && zone.min <= interval.hi) {
      ++stats->zones_candidate;
      zone.last_candidate_seq = query_seq_;
      candidate_rows += zone.end - zone.begin;
      // One candidate per zone — no coalescing — so that OnRangeScanned
      // feedback identifies the zone exactly.
      candidates->push_back({zone.begin, zone.end});
    } else {
      ++stats->zones_skipped;
    }
  }
  // Refinement is worth paying for only when this probe left scan work on
  // the table: at or above the skip ceiling the structure is already
  // effective for this query shape.
  allow_splits_this_query_ =
      static_cast<double>(candidate_rows) >
      (1.0 - options_.refine_skip_ceiling) * static_cast<double>(num_rows_);
}

template <typename T>
void AdaptiveZoneMapT<T>::PeekCandidates(const Predicate& pred,
                                         std::vector<RowRange>* candidates)
    const {
  // Unlike Probe, this advances nothing: no query_seq_, no bypass
  // accounting, no candidacy stamps. Zone bounds are always correct
  // (conservative tail zones span the type's full range), so the
  // overlap set is a superset of the matching rows in every mode —
  // including kBypass, where the real Probe answers the full range.
  // Adjacent candidates are coalesced here; the shared pass normalizes
  // its planning union anyway, and per-zone exactness only matters for
  // the replayed feedback, which uses the real Probe's ranges.
  if (num_rows_ == 0) return;
  const ValueInterval<T> interval = pred.ToInterval<T>();
  for (const AdaptiveZone& zone : zones_) {
    if (zone.max >= interval.lo && zone.min <= interval.hi) {
      if (!candidates->empty() && candidates->back().end == zone.begin) {
        candidates->back().end = zone.end;
      } else {
        candidates->push_back({zone.begin, zone.end});
      }
    }
  }
}

template <typename T>
int64_t AdaptiveZoneMapT<T>::FindZoneIndex(int64_t begin) const {
  auto it = std::lower_bound(
      zones_.begin(), zones_.end(), begin,
      [](const AdaptiveZone& z, int64_t b) { return z.begin < b; });
  if (it == zones_.end() || it->begin != begin) return -1;
  return static_cast<int64_t>(it - zones_.begin());
}

template <typename T>
void AdaptiveZoneMapT<T>::SplitZoneAt(int64_t index,
                                      std::span<const int64_t> cuts) {
  const AdaptiveZone parent = zones_[static_cast<size_t>(index)];
  std::vector<AdaptiveZone> children;
  children.reserve(cuts.size() + 1);
  int64_t prev = parent.begin;
  auto emit = [&](int64_t begin, int64_t end) {
    MinMax<T> mm = ZoneMinMax(begin, end);
    children.push_back(AdaptiveZone{begin, end, mm.min, mm.max,
                                    parent.last_candidate_seq});
  };
  for (int64_t cut : cuts) {
    ADASKIP_DCHECK(cut > prev && cut < parent.end);
    emit(prev, cut);
    prev = cut;
  }
  emit(prev, parent.end);
  ReplaceZone(index, children);
}

template <typename T>
void AdaptiveZoneMapT<T>::OnRangeScanned(const Predicate& pred,
                                         const RangeFeedback& feedback) {
  ADASKIP_DCHECK_SERIAL(mutation_serial_);
  if (last_probe_bypassed_) {
    // A bypassed scan touches everything, including the unrefined tail
    // (feedback arrives as the single whole-column range).
    tail_rows_scanned_ += UnindexedTailRows();
    return;
  }
  // Conservative tail zones are absorbed on their very first scan,
  // regardless of split policy or waste: the data was just scanned, and
  // exact bounds are what lets every later probe skip the zone. (An
  // absorb into several chunks leaves no zone ending at the range's end,
  // so the split logic below bails for this query and refinement resumes
  // on the next probe; a one-chunk absorb may be split right away.)
  //
  // The zone is looked up only when it can change: here when a tail zone
  // exists, otherwise once the range has passed the split gates below.
  // Most feedback fails a gate, so most ranges skip the binary search.
  int64_t index = -1;
  bool looked_up = false;
  if (conservative_zones_ > 0) {
    index = FindZoneIndex(feedback.scanned.begin);
    looked_up = true;
    if (index >= 0 &&
        zones_[static_cast<size_t>(index)].conservative &&
        zones_[static_cast<size_t>(index)].end == feedback.scanned.end) {
      const AdaptiveZone zone = zones_[static_cast<size_t>(index)];
      Stopwatch timer;
      tail_rows_scanned_ += feedback.scanned.size();
      // Absorb the tail at the initial-build granularity while the data
      // is likely still cached: exact bounds per chunk in one pass. A single
      // tightened mega-zone would leave all refinement to the per-query
      // split cap and stretch ingest recovery over many queries.
      int64_t chunk = options_.initial_zone_size > 0
                          ? std::max(options_.initial_zone_size,
                                     options_.min_zone_size)
                          : zone.end - zone.begin;
      const int64_t budget = std::max<int64_t>(
          options_.max_zones - static_cast<int64_t>(zones_.size()) + 1, 1);
      chunk = std::max(chunk, (zone.end - zone.begin + budget - 1) / budget);
      if (journal() != nullptr) {
        // The chunk size is journaled (not recomputed at replay) because
        // it depends on the zone count at emission time.
        EmitJournal(obs::EventKind::kTailAbsorb, query_seq_,
                    {zone.begin, zone.end, chunk});
      }
      // The first child takes the parent's slot, so `index` still names
      // the zone starting at feedback.scanned.begin.
      AbsorbTailZone(index, chunk);
      adapt_nanos_ += timer.ElapsedNanos();
    }
  }
  if (!allow_splits_this_query_) return;
  if (options_.policy == SplitPolicy::kNone) return;
  // Exploration probes while bypassed are pure measurement: refining zones
  // the cost model says are useless would grow metadata for nothing.
  if (mode_ == SkippingMode::kBypass) return;
  const int64_t zone_rows = feedback.scanned.size();
  if (zone_rows <= options_.min_zone_size) return;
  if (static_cast<int64_t>(zones_.size()) >= options_.max_zones) return;
  if (splits_this_query_ >= options_.max_splits_per_query) return;

  const double wasted =
      static_cast<double>(zone_rows - feedback.matches) /
      static_cast<double>(zone_rows);
  if (wasted < options_.split_waste_threshold) return;

  Stopwatch timer;
  if (!looked_up) index = FindZoneIndex(feedback.scanned.begin);
  if (index < 0 ||
      zones_[static_cast<size_t>(index)].end != feedback.scanned.end) {
    // The zone was already restructured this query (should not happen —
    // feedback is per probe — but stay safe).
    return;
  }

  const AdaptiveZone zone = zones_[static_cast<size_t>(index)];
  switch (options_.policy) {
    case SplitPolicy::kNone:
      return;
    case SplitPolicy::kHalve:
    case SplitPolicy::kBudgeted: {
      int64_t cut = zone.begin + zone_rows / 2;
      SplitZoneAt(index, std::span<const int64_t>(&cut, 1));
      break;
    }
    case SplitPolicy::kBoundary: {
      if (feedback.matches == 0) {
        // Pure false positive — no qualifying run to isolate; halve so
        // the children at least get tighter bounds. The executor already
        // told us there is nothing to find, so skip the boundary scan.
        int64_t cut = zone.begin + zone_rows / 2;
        SplitZoneAt(index, std::span<const int64_t>(&cut, 1));
        break;
      }
      // One fused pass yields the qualifying run's bounds and the exact
      // min/max of every child, so the zone is re-read exactly once. The
      // zone sits inside one segment, so scan it as a local span and
      // shift the run bounds back to global row ids.
      ValueInterval<T> interval = pred.ToInterval<T>();
      std::vector<T> scratch;
      BoundaryScan<T> scan = BoundarySplitScan(
          column_->SpanOrUnpack(zone.begin, zone.end, &scratch),
          {0, zone_rows}, interval);
      ADASKIP_DCHECK(scan.match_bounds.begin >= 0);
      scan.match_bounds.begin += zone.begin;
      scan.match_bounds.end += zone.begin;
      if (scan.match_bounds.begin == zone.begin &&
          scan.match_bounds.end == zone.end) {
        // The run spans the zone, yet the scan was wasteful (that is why
        // we are here) — the matches are sparse. Boundary cuts cannot
        // make progress, so halve; recursion isolates the sparse hits.
        int64_t cut = zone.begin + zone_rows / 2;
        SplitZoneAt(index, std::span<const int64_t>(&cut, 1));
        break;
      }
      std::vector<AdaptiveZone> children;
      if (scan.match_bounds.begin > zone.begin) {
        children.push_back(AdaptiveZone{zone.begin, scan.match_bounds.begin,
                                        scan.prefix.min, scan.prefix.max,
                                        zone.last_candidate_seq});
      }
      children.push_back(AdaptiveZone{scan.match_bounds.begin,
                                      scan.match_bounds.end, scan.run.min,
                                      scan.run.max, zone.last_candidate_seq});
      if (scan.match_bounds.end < zone.end) {
        children.push_back(AdaptiveZone{scan.match_bounds.end, zone.end,
                                        scan.suffix.min, scan.suffix.max,
                                        zone.last_candidate_seq});
      }
      ReplaceZone(index, children);
      break;
    }
  }
  ++splits_this_query_;
  adapt_nanos_ += timer.ElapsedNanos();
}

template <typename T>
void AdaptiveZoneMapT<T>::ReplaceZone(int64_t index,
                                      const std::vector<AdaptiveZone>& children) {
  ADASKIP_DCHECK(!children.empty());
  if (journal() != nullptr && children.size() > 1) {
    // args = [parent_begin, parent_end, interior cuts...]: everything
    // replay needs — child bounds are recomputed from the column, which
    // yields exactly the min/max stored here (both are the exact min/max
    // of the same immutable rows).
    const AdaptiveZone& parent = zones_[static_cast<size_t>(index)];
    std::vector<int64_t> args;
    args.reserve(children.size() + 1);
    args.push_back(parent.begin);
    args.push_back(parent.end);
    for (size_t i = 1; i < children.size(); ++i) {
      args.push_back(children[i].begin);
    }
    EmitJournal(obs::EventKind::kZoneSplit, query_seq_, std::move(args));
  }
  // The first child overwrites the parent and only the rest are
  // inserted, so the zones behind it move once.
  zones_[static_cast<size_t>(index)] = children.front();
  zones_.insert(zones_.begin() + index + 1, children.begin() + 1,
                children.end());
  split_count_ += static_cast<int64_t>(children.size()) - 1;
  ADASKIP_METRIC_COUNTER(splits, "adaskip.zonemap.zone_splits",
                         "Zones added by waste-driven refinement");
  splits.Add(static_cast<int64_t>(children.size()) - 1);
}

template <typename T>
void AdaptiveZoneMapT<T>::AbsorbTailZone(int64_t index, int64_t chunk) {
  const AdaptiveZone zone = zones_[static_cast<size_t>(index)];
  std::vector<AdaptiveZone> children;
  for (int64_t begin = zone.begin; begin < zone.end; begin += chunk) {
    const int64_t end = std::min(begin + chunk, zone.end);
    MinMax<T> mm = ZoneMinMax(begin, end);
    children.push_back(AdaptiveZone{begin, end, mm.min, mm.max,
                                    zone.last_candidate_seq});
  }
  zones_[static_cast<size_t>(index)] = children.front();
  zones_.insert(zones_.begin() + index + 1, children.begin() + 1,
                children.end());
  --conservative_zones_;
  ++absorb_count_;
  ADASKIP_METRIC_COUNTER(absorbs, "adaskip.zonemap.tail_absorbs",
                         "Conservative tail zones tightened on first scan");
  absorbs.Increment();
}

template <typename T>
void AdaptiveZoneMapT<T>::OnQueryComplete(const Predicate& pred,
                                          const QueryFeedback& feedback) {
  ADASKIP_DCHECK_SERIAL(mutation_serial_);
  (void)pred;
  if (!last_probe_bypassed_) {
    tracker_.Record(feedback.rows_total, feedback.rows_scanned,
                    feedback.probe.entries_read);
    const SkippingMode previous = mode_;
    mode_ = cost_model_.Decide(tracker_, mode_);
    if (mode_ != previous) {
      ADASKIP_METRIC_COUNTER(to_bypass, "adaskip.zonemap.mode_to_bypass",
                             "Cost-model flips from active to bypass");
      ADASKIP_METRIC_COUNTER(to_active, "adaskip.zonemap.mode_to_active",
                             "Cost-model flips from bypass back to active");
      (mode_ == SkippingMode::kBypass ? to_bypass : to_active).Increment();
      if (journal() != nullptr) {
        EmitJournal(obs::EventKind::kModeChange, query_seq_, {}, {},
                    mode_ == SkippingMode::kBypass ? "bypass" : "active");
      }
    }
  }
  if (options_.enable_merging && options_.merge_check_interval > 0 &&
      query_seq_ % options_.merge_check_interval == 0) {
    MergeSweep();
  }
}

template <typename T>
void AdaptiveZoneMapT<T>::MergeSweep() {
  const int64_t trigger = static_cast<int64_t>(
      options_.merge_trigger_fraction * static_cast<double>(options_.max_zones));
  if (static_cast<int64_t>(zones_.size()) <= trigger) return;

  Stopwatch timer;
  std::vector<AdaptiveZone> merged;
  merged.reserve(zones_.size());
  auto is_cold = [&](const AdaptiveZone& z) {
    return z.last_candidate_seq + options_.merge_cold_age < query_seq_;
  };
  for (const AdaptiveZone& zone : zones_) {
    if (!merged.empty()) {
      AdaptiveZone& prev = merged.back();
      // Conservative tail zones are excluded (their bounds are not real),
      // and merges never cross a segment boundary so zones stay
      // span-addressable.
      if (is_cold(prev) && is_cold(zone) && !prev.conservative &&
          !zone.conservative &&
          column_->SegmentOf(prev.begin) == column_->SegmentOf(zone.end - 1) &&
          prev.end - prev.begin + zone.end - zone.begin <=
              options_.merge_max_zone_size) {
        // Union bounds stay sound (possibly conservative) with no data
        // reads — merging is metadata-only.
        if (journal() != nullptr) {
          // One event per absorbed zone: args = the merged extent so far.
          // Replay folds the zones tiling [args[0], args[1]) with the
          // same union-bound rule.
          EmitJournal(obs::EventKind::kZoneMerge, query_seq_,
                      {prev.begin, zone.end});
        }
        prev.end = zone.end;
        prev.min = std::min(prev.min, zone.min);
        prev.max = std::max(prev.max, zone.max);
        prev.last_candidate_seq =
            std::max(prev.last_candidate_seq, zone.last_candidate_seq);
        ++merge_count_;
        continue;
      }
    }
    merged.push_back(zone);
  }
  const int64_t before = static_cast<int64_t>(zones_.size());
  zones_ = std::move(merged);
  ADASKIP_METRIC_COUNTER(merges, "adaskip.zonemap.zone_merges",
                         "Zones removed by cold-zone merge sweeps");
  merges.Add(before - static_cast<int64_t>(zones_.size()));
  adapt_nanos_ += timer.ElapsedNanos();
}

template <typename T>
int64_t AdaptiveZoneMapT<T>::MemoryUsageBytes() const {
  // size(), not capacity(): a restored index must report the same
  // footprint as the live one it was checkpointed from, and vector
  // growth slack differs between the two.
  return static_cast<int64_t>(zones_.size() * sizeof(AdaptiveZone));
}

template <typename T>
Status AdaptiveZoneMapT<T>::SerializeBinary(persist::Sink& sink) const {
  ADASKIP_RETURN_IF_ERROR(persist::WriteScalar(sink, num_rows_));
  ADASKIP_RETURN_IF_ERROR(
      persist::WriteScalar(sink, static_cast<uint8_t>(mode_)));
  ADASKIP_RETURN_IF_ERROR(persist::WriteScalar(sink, last_probe_bypassed_));
  ADASKIP_RETURN_IF_ERROR(
      persist::WriteScalar(sink, allow_splits_this_query_));
  ADASKIP_RETURN_IF_ERROR(persist::WriteScalar(sink, query_seq_));
  ADASKIP_RETURN_IF_ERROR(persist::WriteScalar(sink, splits_this_query_));
  ADASKIP_RETURN_IF_ERROR(persist::WriteScalar(sink, split_count_));
  ADASKIP_RETURN_IF_ERROR(persist::WriteScalar(sink, merge_count_));
  ADASKIP_RETURN_IF_ERROR(persist::WriteScalar(sink, absorb_count_));
  ADASKIP_RETURN_IF_ERROR(persist::WriteScalar(sink, bypassed_probe_count_));
  ADASKIP_RETURN_IF_ERROR(persist::WriteScalar(sink, adapt_nanos_));
  ADASKIP_RETURN_IF_ERROR(persist::WriteScalar(sink, conservative_zones_));
  ADASKIP_RETURN_IF_ERROR(persist::WriteScalar(sink, tail_rows_scanned_));
  ADASKIP_RETURN_IF_ERROR(
      persist::WriteScalar(sink, tracker_.skipped_fraction()));
  ADASKIP_RETURN_IF_ERROR(
      persist::WriteScalar(sink, tracker_.entries_per_row()));
  ADASKIP_RETURN_IF_ERROR(persist::WriteScalar(sink, tracker_.num_recorded()));
  ADASKIP_RETURN_IF_ERROR(
      persist::WriteScalar(sink, static_cast<uint64_t>(zones_.size())));
  for (const AdaptiveZone& zone : zones_) {
    ADASKIP_RETURN_IF_ERROR(persist::WriteScalar(sink, zone.begin));
    ADASKIP_RETURN_IF_ERROR(persist::WriteScalar(sink, zone.end));
    ADASKIP_RETURN_IF_ERROR(persist::WriteScalar(sink, zone.min));
    ADASKIP_RETURN_IF_ERROR(persist::WriteScalar(sink, zone.max));
    ADASKIP_RETURN_IF_ERROR(
        persist::WriteScalar(sink, zone.last_candidate_seq));
    ADASKIP_RETURN_IF_ERROR(persist::WriteScalar(sink, zone.conservative));
  }
  return Status::OK();
}

template <typename T>
Status AdaptiveZoneMapT<T>::DeserializeBinary(persist::Source& source) {
  int64_t num_rows = 0;
  uint8_t mode_byte = 0;
  bool last_probe_bypassed = false;
  bool allow_splits_this_query = true;
  int64_t query_seq = 0;
  int64_t splits_this_query = 0;
  int64_t split_count = 0;
  int64_t merge_count = 0;
  int64_t absorb_count = 0;
  int64_t bypassed_probe_count = 0;
  int64_t adapt_nanos = 0;
  int64_t conservative_zones = 0;
  int64_t tail_rows_scanned = 0;
  double skipped_fraction = 0.0;
  double entries_per_row = 0.0;
  int64_t num_recorded = 0;
  uint64_t zone_count = 0;
  ADASKIP_RETURN_IF_ERROR(persist::ReadScalar(source, &num_rows));
  ADASKIP_RETURN_IF_ERROR(persist::ReadScalar(source, &mode_byte));
  ADASKIP_RETURN_IF_ERROR(persist::ReadScalar(source, &last_probe_bypassed));
  ADASKIP_RETURN_IF_ERROR(
      persist::ReadScalar(source, &allow_splits_this_query));
  ADASKIP_RETURN_IF_ERROR(persist::ReadScalar(source, &query_seq));
  ADASKIP_RETURN_IF_ERROR(persist::ReadScalar(source, &splits_this_query));
  ADASKIP_RETURN_IF_ERROR(persist::ReadScalar(source, &split_count));
  ADASKIP_RETURN_IF_ERROR(persist::ReadScalar(source, &merge_count));
  ADASKIP_RETURN_IF_ERROR(persist::ReadScalar(source, &absorb_count));
  ADASKIP_RETURN_IF_ERROR(persist::ReadScalar(source, &bypassed_probe_count));
  ADASKIP_RETURN_IF_ERROR(persist::ReadScalar(source, &adapt_nanos));
  ADASKIP_RETURN_IF_ERROR(persist::ReadScalar(source, &conservative_zones));
  ADASKIP_RETURN_IF_ERROR(persist::ReadScalar(source, &tail_rows_scanned));
  ADASKIP_RETURN_IF_ERROR(persist::ReadScalar(source, &skipped_fraction));
  ADASKIP_RETURN_IF_ERROR(persist::ReadScalar(source, &entries_per_row));
  ADASKIP_RETURN_IF_ERROR(persist::ReadScalar(source, &num_recorded));
  ADASKIP_RETURN_IF_ERROR(persist::ReadScalar(source, &zone_count));
  constexpr size_t kZoneWireBytes =
      3 * sizeof(int64_t) + 2 * sizeof(T) + 1;
  const int64_t limit = source.remaining();
  if (limit >= 0 &&
      zone_count > static_cast<uint64_t>(limit) / kZoneWireBytes) {
    return Status::DataLoss("adaptive zone count " +
                            std::to_string(zone_count) +
                            " exceeds the bytes left in the source");
  }
  std::vector<AdaptiveZone> zones;
  zones.reserve(static_cast<size_t>(zone_count));
  int64_t counted_conservative = 0;
  int64_t cursor = 0;
  for (uint64_t i = 0; i < zone_count; ++i) {
    AdaptiveZone zone{};
    ADASKIP_RETURN_IF_ERROR(persist::ReadScalar(source, &zone.begin));
    ADASKIP_RETURN_IF_ERROR(persist::ReadScalar(source, &zone.end));
    ADASKIP_RETURN_IF_ERROR(persist::ReadScalar(source, &zone.min));
    ADASKIP_RETURN_IF_ERROR(persist::ReadScalar(source, &zone.max));
    ADASKIP_RETURN_IF_ERROR(
        persist::ReadScalar(source, &zone.last_candidate_seq));
    ADASKIP_RETURN_IF_ERROR(persist::ReadScalar(source, &zone.conservative));
    if (zone.begin != cursor || zone.end <= zone.begin) {
      return Status::DataLoss("adaptive zonemap snapshot zones do not tile");
    }
    cursor = zone.end;
    if (zone.conservative) ++counted_conservative;
    zones.push_back(zone);
  }
  if (num_rows < 0 || cursor != num_rows || mode_byte > 1 ||
      counted_conservative != conservative_zones || query_seq < 0 ||
      split_count < 0 || merge_count < 0 || absorb_count < 0 ||
      num_recorded < 0) {
    return Status::DataLoss("adaptive zonemap snapshot is structurally "
                            "unsound");
  }
  num_rows_ = num_rows;
  mode_ = static_cast<SkippingMode>(mode_byte);
  last_probe_bypassed_ = last_probe_bypassed;
  allow_splits_this_query_ = allow_splits_this_query;
  query_seq_ = query_seq;
  splits_this_query_ = splits_this_query;
  split_count_ = split_count;
  merge_count_ = merge_count;
  absorb_count_ = absorb_count;
  bypassed_probe_count_ = bypassed_probe_count;
  adapt_nanos_ = adapt_nanos;
  conservative_zones_ = conservative_zones;
  tail_rows_scanned_ = tail_rows_scanned;
  tracker_.Restore(skipped_fraction, entries_per_row, num_recorded);
  zones_ = std::move(zones);
  return Status::OK();
}

template <typename T>
AdaptationProfile AdaptiveZoneMapT<T>::GetAdaptationProfile() const {
  AdaptationProfile profile;
  profile.zones_refined = split_count_;
  profile.zones_merged = merge_count_;
  profile.tail_absorbs = absorb_count_;
  profile.bypassed_probes = bypassed_probe_count_;
  profile.bypass = mode_ == SkippingMode::kBypass;
  profile.cost_model_enabled = cost_model_.enabled();
  profile.net_benefit_per_row = cost_model_.NetBenefitPerRow(tracker_);
  profile.skipped_fraction_ewma = tracker_.skipped_fraction();
  profile.entries_per_row_ewma = tracker_.entries_per_row();
  profile.queries_observed = tracker_.num_recorded();
  return profile;
}

template <typename T>
Status AdaptiveZoneMapT<T>::ApplyJournalEvent(const obs::JournalEvent& event) {
  ADASKIP_DCHECK_SERIAL(mutation_serial_);
  switch (event.kind) {
    case obs::EventKind::kIndexAppend: {
      if (event.args.size() != 2) {
        return Status::InvalidArgument(
            "index_append event needs args [begin, end)");
      }
      OnAppend({event.args[0], event.args[1]});
      return Status::OK();
    }
    case obs::EventKind::kModeChange: {
      mode_ = event.detail == "bypass" ? SkippingMode::kBypass
                                       : SkippingMode::kActive;
      return Status::OK();
    }
    case obs::EventKind::kZoneSplit: {
      if (event.args.size() < 3) {
        return Status::InvalidArgument(
            "zone_split event needs args [begin, end, cuts...]");
      }
      const int64_t begin = event.args[0];
      const int64_t end = event.args[1];
      const int64_t index = FindZoneIndex(begin);
      if (index < 0 || zones_[static_cast<size_t>(index)].end != end) {
        return Status::InvalidArgument(
            "zone_split event [" + std::to_string(begin) + ", " +
            std::to_string(end) + ") does not match a current zone");
      }
      for (size_t i = 2; i < event.args.size(); ++i) {
        const int64_t cut = event.args[i];
        const int64_t prev = i == 2 ? begin : event.args[i - 1];
        if (cut <= prev || cut >= end) {
          return Status::InvalidArgument("zone_split event cuts not strictly "
                                         "interior and increasing");
        }
      }
      SplitZoneAt(index, std::span<const int64_t>(event.args).subspan(2));
      return Status::OK();
    }
    case obs::EventKind::kTailAbsorb: {
      if (event.args.size() != 3 || event.args[2] < 1) {
        return Status::InvalidArgument(
            "tail_absorb event needs args [begin, end, chunk]");
      }
      const int64_t index = FindZoneIndex(event.args[0]);
      if (index < 0 ||
          zones_[static_cast<size_t>(index)].end != event.args[1] ||
          !zones_[static_cast<size_t>(index)].conservative) {
        return Status::InvalidArgument(
            "tail_absorb event does not match a conservative zone");
      }
      AbsorbTailZone(index, event.args[2]);
      return Status::OK();
    }
    case obs::EventKind::kZoneMerge: {
      if (event.args.size() != 2) {
        return Status::InvalidArgument(
            "zone_merge event needs args [begin, end)");
      }
      const int64_t index = FindZoneIndex(event.args[0]);
      if (index < 0) {
        return Status::InvalidArgument(
            "zone_merge event does not start at a current zone");
      }
      AdaptiveZone& prev = zones_[static_cast<size_t>(index)];
      while (prev.end < event.args[1]) {
        const size_t next = static_cast<size_t>(index) + 1;
        if (next >= zones_.size()) {
          return Status::InvalidArgument(
              "zone_merge event extends past the last zone");
        }
        const AdaptiveZone zone = zones_[next];
        prev.end = zone.end;
        prev.min = std::min(prev.min, zone.min);
        prev.max = std::max(prev.max, zone.max);
        prev.last_candidate_seq =
            std::max(prev.last_candidate_seq, zone.last_candidate_seq);
        zones_.erase(zones_.begin() + static_cast<int64_t>(next));
        ++merge_count_;
      }
      if (prev.end != event.args[1]) {
        return Status::InvalidArgument(
            "zone_merge event end does not land on a zone boundary");
      }
      return Status::OK();
    }
    default:
      return Status::InvalidArgument(
          "adaptive zonemap cannot replay a " +
          std::string(obs::EventKindToString(event.kind)) + " event");
  }
}

template <typename T>
int64_t AdaptiveZoneMapT<T>::TakeAdaptationNanos() {
  int64_t out = adapt_nanos_;
  adapt_nanos_ = 0;
  return out;
}

template <typename T>
bool AdaptiveZoneMapT<T>::CheckInvariants() const {
  if (num_rows_ == 0) return zones_.empty();
  int64_t cursor = 0;
  int64_t conservative = 0;
  for (const AdaptiveZone& zone : zones_) {
    if (zone.begin != cursor || zone.end <= zone.begin) return false;
    // No zone may cross a segment boundary.
    if (column_->SegmentOf(zone.begin) != column_->SegmentOf(zone.end - 1)) {
      return false;
    }
    MinMax<T> mm = ZoneMinMax(zone.begin, zone.end);
    if (zone.min > mm.min || zone.max < mm.max) return false;
    if (zone.conservative) ++conservative;
    cursor = zone.end;
  }
  if (conservative != conservative_zones_) return false;
  return cursor == num_rows_;
}

std::unique_ptr<SkipIndex> MakeAdaptiveZoneMap(const Column& column,
                                               const AdaptiveOptions& options) {
  return DispatchDataType(
      column.type(), [&](auto tag) -> std::unique_ptr<SkipIndex> {
        using T = typename decltype(tag)::type;
        return std::make_unique<AdaptiveZoneMapT<T>>(*column.As<T>(), options);
      });
}

template class AdaptiveZoneMapT<int32_t>;
template class AdaptiveZoneMapT<int64_t>;
template class AdaptiveZoneMapT<float>;
template class AdaptiveZoneMapT<double>;

}  // namespace adaskip
