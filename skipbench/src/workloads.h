// The benchmark's four workloads and the round loop that measures them.
// README.md explains why each workload exists and which layer it loads.
#ifndef SKIPBENCH_WORKLOADS_H_
#define SKIPBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace skipbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_path;  // Span dump of a traced run; "" writes none.
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct Report {
  int64_t attempted = 0;
  int64_t failed = 0;  // Operations that returned an error status.
  int64_t wrong = 0;   // Answers that differ from the reference.
  int64_t shed = 0;    // Of failed: refused at QueryServer admission.
  int64_t expired = 0; // Of failed: deadline passed in the server queue.
  int64_t rounds = 0;   // Reported rounds (warm-up excluded).
  int64_t queries = 0;  // Answered queries in the reported rounds.
  std::vector<Metric> metrics;
};

const std::vector<std::string>& WorkloadNames();

/// Generates the inputs of `options.workload` from its seed, then runs
/// rounds for `options.seconds`. An untraced run reports the end-to-end
/// metrics; a traced run alternates untraced and traced rounds and
/// reports the per-layer metrics plus the tracing overhead.
Report RunBenchmark(const RunOptions& options);

}  // namespace skipbench

#endif  // SKIPBENCH_WORKLOADS_H_
