#ifndef ADASKIP_ENGINE_EXEC_STATS_H_
#define ADASKIP_ENGINE_EXEC_STATS_H_

#include <cstdint>
#include <string>

#include "adaskip/skipping/skip_index.h"
#include "adaskip/util/histogram.h"

namespace adaskip {

/// Execution accounting for one query. Every experiment in
/// EXPERIMENTS.md is computed from these numbers, so they are collected
/// unconditionally (the collection cost is a few counters).
struct QueryStats {
  std::string index_name;    // Which skip structure served the probe.
  int64_t rows_total = 0;    // Rows in the scanned column.
  int64_t rows_scanned = 0;  // Rows actually touched by kernels.
  // Of rows_scanned, rows served by a packed-segment kernel instead of
  // the raw span (0 unless segment layouts are enabled and chose to
  // pack; see SegmentLayoutOptions).
  int64_t rows_scanned_packed = 0;
  int64_t rows_matched = 0;  // Qualifying rows.
  int64_t candidate_ranges = 0;
  ProbeStats probe;

  // Appended rows the index covered only by conservative catch-all
  // metadata at probe time (0 once the structure has absorbed the tail).
  int64_t tail_rows = 0;
  // Rows of such tail metadata this query's scan actually touched.
  int64_t tail_rows_scanned = 0;

  int64_t probe_nanos = 0;  // Metadata reads.
  int64_t scan_nanos = 0;   // Kernel time over candidates. On one thread
                            // the wall time of the whole candidate walk,
                            // per-morsel folds included; with a parallel
                            // scan the sum of every worker's kernel time
                            // (CPU time, not wall clock).
  int64_t adapt_nanos = 0;  // Refinement/merge work inside the index.
  int64_t total_nanos = 0;  // Wall clock for the whole query.

  // Morsel-driven parallel execution (0 when the query ran serially).
  int parallel_workers = 0;  // Workers that scanned this query's morsels.
  int64_t merge_nanos = 0;   // Coordinator time folding per-morsel partials
                             // after the barrier.

  // Number of queries that shared the scan pass this query was answered
  // from (ScanExecutor::ExecuteShared); 0 when the query ran standalone.
  // For shared queries, rows_scanned stays serial-equivalent (the rows a
  // standalone execution would have touched — the currency of adaptation
  // feedback and skip metrics), while scan_nanos/rows_scanned_packed
  // report this query's share of the physical shared kernels.
  int64_t shared_batch_width = 0;

  /// Fraction of the column the skip structure avoided scanning.
  double SkippedFraction() const {
    if (rows_total == 0) return 0.0;
    return static_cast<double>(rows_total - rows_scanned) /
           static_cast<double>(rows_total);
  }

  std::string ToString() const;
};

/// Aggregate over a sequence of queries (one experiment arm).
class WorkloadStats {
 public:
  WorkloadStats() = default;

  void Record(const QueryStats& stats);
  void Clear();

  int64_t num_queries() const { return num_queries_; }
  int64_t queries_shared() const { return queries_shared_; }
  int64_t rows_scanned() const { return rows_scanned_; }
  int64_t rows_scanned_packed() const { return rows_scanned_packed_; }
  int64_t rows_total() const { return rows_total_; }
  int64_t rows_matched() const { return rows_matched_; }
  int64_t entries_read() const { return entries_read_; }
  int64_t total_nanos() const { return total_nanos_; }
  int64_t scan_nanos() const { return scan_nanos_; }
  int64_t probe_nanos() const { return probe_nanos_; }
  int64_t adapt_nanos() const { return adapt_nanos_; }

  double TotalSeconds() const {
    return static_cast<double>(total_nanos_) / 1e9;
  }
  double MeanLatencyMicros() const {
    return num_queries_ == 0 ? 0.0
                             : static_cast<double>(total_nanos_) / 1e3 /
                                   static_cast<double>(num_queries_);
  }
  double MeanSkippedFraction() const {
    return rows_total_ == 0
               ? 0.0
               : 1.0 - static_cast<double>(rows_scanned_) /
                           static_cast<double>(rows_total_);
  }

  /// Per-query latency distribution in microseconds.
  const Histogram& latency_histogram() const { return latency_micros_; }

  std::string Summary() const;

 private:
  int64_t num_queries_ = 0;
  int64_t queries_shared_ = 0;  // Of num_queries_, answered from a shared pass.
  int64_t rows_scanned_ = 0;
  int64_t rows_scanned_packed_ = 0;
  int64_t rows_total_ = 0;
  int64_t rows_matched_ = 0;
  int64_t entries_read_ = 0;
  int64_t total_nanos_ = 0;
  int64_t scan_nanos_ = 0;
  int64_t probe_nanos_ = 0;
  int64_t adapt_nanos_ = 0;
  Histogram latency_micros_;
};

}  // namespace adaskip

#endif  // ADASKIP_ENGINE_EXEC_STATS_H_
