// skipbench: end-to-end and per-layer benchmark of adaskip.
//
//   skipbench --workload <skew-adapt|conj-scan|served|ingest> [--seed N]
//             [--seconds S] [--trace 0|1] [--trace-out PATH]
//
// Prints a run header, one line per metric, and as its last line one JSON
// object {"correct", "attempted", "failed", "metrics"}. Exits 1 when any
// answer differs from the reference, 2 on bad arguments, and 3 (without
// reporting) from a build or kernel path whose numbers are not comparable.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "adaskip/scan/simd/kernel_dispatch.h"
#include "workloads.h"

namespace {

constexpr uint64_t kDefaultSeed = 1;

int Usage(const char* why) {
  std::fprintf(stderr,
               "skipbench: %s\nusage: skipbench --workload <name> [--seed N] "
               "[--seconds S] [--trace 0|1] [--trace-out PATH]\nworkloads:",
               why);
  for (const std::string& name : skipbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

int CpuCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return -1;
  return CPU_COUNT(&set);
}

}  // namespace

int main(int argc, char** argv) {
  skipbench::RunOptions options;
  options.seed = kDefaultSeed;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("--seed takes an unsigned integer");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' ||
          !(options.seconds > 0.0 && options.seconds <= 120.0)) {
        return Usage("--seconds takes a number in (0, 120]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--trace-out") {
      options.trace_path = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  bool known = false;
  for (const std::string& name : skipbench::WorkloadNames()) {
    known = known || name == options.workload;
  }
  if (!known) return Usage("unknown or missing --workload");

  namespace simd = adaskip::simd;
  const std::string build_type = SKIPBENCH_BUILD_TYPE;
#ifdef NDEBUG
  const bool asserts = false;
#else
  const bool asserts = true;
#endif
  std::printf("skipbench workload=%s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::printf("kernel_path=%s nproc=%d build=%s%s\n",
              std::string(simd::ActiveKernelPathName()).c_str(), CpuCount(),
              build_type.c_str(), asserts ? " (assertions on)" : "");
  if (build_type != "Release" || asserts) {
    std::fprintf(stderr, "skipbench: refusing to report from a %s build\n",
                 build_type.c_str());
    return 3;
  }
  if (simd::ActiveKernelPath() == simd::KernelPath::kScalarForced) {
    std::fprintf(stderr,
                 "skipbench: refusing to report under ADASKIP_FORCE_SCALAR\n");
    return 3;
  }
  if (simd::ActiveKernelPath() == simd::KernelPath::kScalar) {
    std::printf("FLAG: this CPU has no AVX2; figures are scalar-kernel "
                "figures, not comparable with avx2 runs\n");
  }
  std::fflush(stdout);

  const skipbench::Report report = skipbench::RunBenchmark(options);
  std::printf("rounds=%lld queries=%lld (per-round metrics, median over "
              "rounds)\n",
              static_cast<long long>(report.rounds),
              static_cast<long long>(report.queries));
  std::printf("attempted=%lld failed=%lld wrong=%lld shed=%lld expired=%lld\n",
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed),
              static_cast<long long>(report.wrong),
              static_cast<long long>(report.shed),
              static_cast<long long>(report.expired));
  for (const skipbench::Metric& m : report.metrics) {
    std::printf("%-32s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += report.wrong == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const skipbench::Metric& m = report.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    json += (i > 0 ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return report.wrong == 0 ? 0 : 1;
}
