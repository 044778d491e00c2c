#ifndef ADASKIP_ENGINE_QUERY_SPEC_H_
#define ADASKIP_ENGINE_QUERY_SPEC_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>

#include "adaskip/engine/query.h"
#include "adaskip/obs/query_trace.h"
#include "adaskip/util/status.h"

namespace adaskip {

/// Scheduling class of a submitted query. The query server never mixes
/// classes in one shared batch and always dispatches the
/// highest-priority work first, so a long batch-class pass cannot starve
/// an interactive point query that arrived behind it.
enum class QueryPriority : int8_t {
  kBatch = 0,        // Throughput work; may wait behind interactive queries.
  kInteractive = 1,  // Latency-sensitive; dispatched ahead of batch work.
};

std::string_view QueryPriorityToString(QueryPriority priority);

constexpr bool QueryPriorityIsValid(QueryPriority priority) {
  return priority == QueryPriority::kBatch ||
         priority == QueryPriority::kInteractive;
}

/// The submission unit of the query API: a value type carrying the
/// target table, the query proper, and the scheduling/observability
/// knobs that used to ride in loose arguments and per-table state.
/// Specs are cheap to copy, independent of any Session, and validated
/// either by QueryBuilder::Build or at execution time
/// (ValidateQuerySpec) — schema checks (column existence, scalar types)
/// still belong to the executor, which owns the table.
struct QuerySpec {
  std::string table;
  Query query;

  /// Relative deadline in nanoseconds from submission; 0 = none. A spec
  /// still queued when its deadline passes fails with kDeadlineExceeded
  /// WITHOUT executing (no probe, no adaptation feedback). Blocking
  /// paths (Session::ExecuteSpec) start immediately, so the deadline
  /// only validates there.
  int64_t deadline_nanos = 0;

  QueryPriority priority = QueryPriority::kInteractive;

  /// Per-query trace override: unset inherits the table's configured
  /// ExecOptions::trace_level; set forces this level for this query.
  std::optional<obs::TraceLevel> trace_level;

  /// A plain query as a spec: no deadline, interactive, inherited trace
  /// level.
  static QuerySpec Simple(std::string table, Query query) {
    QuerySpec spec;
    spec.table = std::move(table);
    spec.query = std::move(query);
    return spec;
  }

  /// "table='t' COUNT(c) WHERE ... [prio=interactive deadline=1ms]".
  std::string ToString() const;
};

/// Stable 64-bit digest of a spec's semantic identity (table + rendered
/// query + aggregate), FNV-1a over the ToString-stable fields. The
/// flight recorder keys its slow-query promotion log on this: two
/// submissions of the same logical query — the recurring-dashboard
/// pattern — collide on purpose, while scheduling knobs (priority,
/// deadline, trace level) are deliberately excluded so a re-run with
/// tracing forced on still matches its slow first occurrence.
uint64_t SpecDigest(const QuerySpec& spec);

/// Session-independent validation: non-empty table, at least one
/// predicate, a defined aggregate/priority/trace level, a non-negative
/// deadline. Build() applies the same checks; Session::ExecuteSpec and
/// QueryServer::Submit re-apply them so hand-rolled specs fail loudly.
Status ValidateQuerySpec(const QuerySpec& spec);

/// Fluent construction of a QuerySpec:
///
///   ADASKIP_ASSIGN_OR_RETURN(
///       QuerySpec spec,
///       QueryBuilder("readings")
///           .Where(Predicate::Between("temp", 10.0, 20.0))
///           .Count()
///           .Priority(QueryPriority::kInteractive)
///           .Build());
///
/// Each Where() appends one conjunction term. The aggregate defaults to
/// Count; Sum/Min/Max take an optional aggregate column (defaulting to
/// the first predicate's column, as Query does). Build validates and
/// returns the spec by value — the builder stays reusable.
class QueryBuilder {
 public:
  explicit QueryBuilder(std::string table) { spec_.table = std::move(table); }

  QueryBuilder& Where(Predicate pred) {
    spec_.query.predicates.push_back(std::move(pred));
    return *this;
  }

  QueryBuilder& Count() { return Aggregate(AggregateKind::kCount, {}); }
  QueryBuilder& Sum(std::string aggregate_column = {}) {
    return Aggregate(AggregateKind::kSum, std::move(aggregate_column));
  }
  QueryBuilder& Min(std::string aggregate_column = {}) {
    return Aggregate(AggregateKind::kMin, std::move(aggregate_column));
  }
  QueryBuilder& Max(std::string aggregate_column = {}) {
    return Aggregate(AggregateKind::kMax, std::move(aggregate_column));
  }
  QueryBuilder& Materialize() {
    return Aggregate(AggregateKind::kMaterialize, {});
  }

  QueryBuilder& Deadline(int64_t deadline_nanos) {
    spec_.deadline_nanos = deadline_nanos;
    return *this;
  }
  QueryBuilder& Priority(QueryPriority priority) {
    spec_.priority = priority;
    return *this;
  }
  QueryBuilder& TraceLevel(obs::TraceLevel level) {
    spec_.trace_level = level;
    return *this;
  }

  /// Validates (ValidateQuerySpec) and returns a copy of the spec.
  Result<QuerySpec> Build() const;

 private:
  QueryBuilder& Aggregate(AggregateKind kind, std::string aggregate_column) {
    spec_.query.aggregate = kind;
    spec_.query.aggregate_column = std::move(aggregate_column);
    return *this;
  }

  QuerySpec spec_;
};

}  // namespace adaskip

#endif  // ADASKIP_ENGINE_QUERY_SPEC_H_
