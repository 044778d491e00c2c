// Span recording and the summary statistics the benchmark reports.
//
// A traced run records one span per call into a layer's public surface
// (Session::ExecuteSpec, QueryServer::Execute, Table::Append, ...), made
// from the benchmark's own code. Where the program returns its own
// accounting for the call (QueryStats probe/scan/adapt nanos), the
// benchmark attaches that accounting as "derived" child spans of the
// call's span, laid end to end from the call's start in execution order:
// their durations are the program's, their placement is the benchmark's.
#ifndef SKIPBENCH_TRACE_H_
#define SKIPBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace skipbench {

/// Linear interpolation between closest ranks (the "type 7" estimator):
/// p = 0 is the minimum, p = 100 the maximum. `values` need not be
/// sorted; an empty input returns 0.
double Percentile(std::vector<double> values, double p);

/// Nanoseconds on the monotonic clock.
int64_t NowNanos();

/// One timed interval. `parent` indexes the span list (-1 for a root);
/// spans of one request share `request_id`.
struct Span {
  const char* name = "";
  const char* layer = "";  // engine, skipping, adaptive, scan or storage.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  int64_t request_id = 0;
  bool derived = false;  // Duration from program accounting, see above.
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children (each clipped to the parent).
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

/// Sum of self time per layer name.
std::map<std::string, int64_t> LayerSelfTimes(const std::vector<Span>& spans);

/// In-memory span store, safe to append from several client threads.
/// Indexes returned by Add stay valid for the recorder's lifetime.
class SpanRecorder {
 public:
  int32_t Add(const Span& span);

  /// Records the call's own span [start_ns, end_ns) and, as derived
  /// children, the probe, scan and adapt nanos the call returned.
  void AddQuery(const char* name, int64_t request_id, int64_t start_ns,
                int64_t end_ns, int64_t probe_ns, int64_t scan_ns,
                int64_t adapt_ns);

  std::vector<Span> spans() const;

  /// Writes {"spans": [...], "dropped": n} with at most `limit` spans.
  bool WriteJson(const std::string& path, size_t limit) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace skipbench

#endif  // SKIPBENCH_TRACE_H_
