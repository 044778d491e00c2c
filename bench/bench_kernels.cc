// Per-kernel dispatch micro-benchmark: rows/s for the dispatch-scalar,
// AVX2, and packed-segment implementations of each scan kernel, per
// element type, across selectivities. This is the evidence behind the
// EXPERIMENTS.md kernel-speedup table and the CI acceptance gate
// (CountMatches and ComputeMinMax int32 must beat scalar by >= 2x at
// selectivity 0.1 on an AVX2 host).
//
// Usage: bench_kernels [--json=<path>]
//   ADASKIP_BENCH_ROWS scales the column (default 2,000,000).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "bench/common/bench_util.h"

#include "adaskip/obs/json.h"
#include "adaskip/scan/simd/kernel_dispatch.h"
#include "adaskip/scan/packed_kernels.h"
#include "adaskip/util/stopwatch.h"

namespace adaskip {
namespace bench {
namespace {

constexpr double kSelectivities[] = {0.001, 0.01, 0.1, 0.5, 1.0};
constexpr int64_t kValueRange = 65536;  // 16-bit range: widest packable.

// Defeats dead-code elimination across all kernels.
volatile int64_t g_sink = 0;
volatile double g_sink_d = 0.0;

struct BenchRow {
  std::string kernel;
  std::string type;
  double selectivity;
  std::string arm;
  double rows_per_sec;
  double speedup;  // vs the dispatch-scalar arm of the same cell.
};

template <typename T>
std::vector<T> MakeValues(int64_t n) {
  std::mt19937_64 rng(42);
  std::uniform_int_distribution<int64_t> dist(0, kValueRange - 1);
  std::vector<T> values(static_cast<size_t>(n));
  for (T& v : values) v = static_cast<T>(dist(rng));
  return values;
}

template <typename T>
ValueInterval<T> IntervalFor(double selectivity) {
  // Values are uniform in [0, kValueRange): [0, sel * range) selects
  // ~sel of the rows.
  const double hi = selectivity * static_cast<double>(kValueRange) - 1.0;
  return {T{0}, static_cast<T>(hi < 0.0 ? 0.0 : hi)};
}

/// Times `fn` (which must consume one full pass over `n` rows) over
/// enough repetitions to be stable; returns rows per second.
template <typename Fn>
double MeasureRowsPerSec(int64_t n, Fn&& fn) {
  const int reps =
      static_cast<int>(std::max<int64_t>(1, 20'000'000 / std::max<int64_t>(n, 1)));
  fn();  // Warm-up pass (page in, warm the dispatch).
  Stopwatch timer;
  for (int r = 0; r < reps; ++r) fn();
  const double seconds =
      static_cast<double>(timer.ElapsedNanos()) / 1e9;
  return static_cast<double>(n) * static_cast<double>(reps) /
         (seconds > 0.0 ? seconds : 1e-9);
}

void PrintRow(const BenchRow& row) {
  std::printf("  %-18s %-7s sel %-6.3f %-8s %10.0f Mrows/s",
              row.kernel.c_str(), row.type.c_str(), row.selectivity,
              row.arm.c_str(), row.rows_per_sec / 1e6);
  if (row.speedup > 0.0) std::printf("  %5.2fx vs scalar", row.speedup);
  std::printf("\n");
}

template <typename T>
void BenchType(const char* type_name, int64_t n, std::vector<BenchRow>* rows) {
  const std::vector<T> values = MakeValues<T>(n);
  const std::span<const T> span(values);
  const RowRange range{0, n};
  const simd::KernelOps<T>& scalar = simd::ScalarOps<T>();
  const simd::KernelOps<T>* avx2 = simd::Avx2OpsOrNull<T>();

  // Packed twin of the same payload (integer types only).
  PackedSegment<T> packed;
  bool have_packed = false;
  if constexpr (std::is_integral_v<T>) {
    const SegmentPackPlan<T> plan = PlanSegmentPack<T>(span);
    if (plan.value_range_ok) {
      packed = PackSegment<T>(span, plan.base, plan.bits);
      have_packed = true;
    }
  }

  SelectionVector sel_out;
  sel_out.Reserve(n);
  // Conjunction words: re-seeded to all ones per pass, as the executor
  // seeds each morsel before its first predicate.
  std::vector<uint64_t> words(static_cast<size_t>(MatchWordsFor(n)));
  const auto seed_words = [&] {
    std::fill(words.begin(), words.end(), ~uint64_t{0});
  };

  // Each runner does one full pass and feeds the sink.
  const auto run_count = [](const simd::KernelOps<T>& ops,
                            std::span<const T> v, RowRange r,
                            ValueInterval<T> iv, SelectionVector*,
                            int64_t) -> double {
    g_sink = g_sink + ops.count_matches(v, r, iv);
    return 0.0;
  };
  const auto run_sum = [](const simd::KernelOps<T>& ops, std::span<const T> v,
                          RowRange r, ValueInterval<T> iv, SelectionVector*,
                          int64_t) -> double {
    const SumCount<T> sc = ops.sum_matches_counted(v, r, iv);
    g_sink = g_sink + sc.count;
    g_sink_d = g_sink_d + sc.sum;
    return 0.0;
  };
  const auto run_minmax = [](const simd::KernelOps<T>& ops,
                             std::span<const T> v, RowRange r,
                             ValueInterval<T> iv, SelectionVector*,
                             int64_t) -> double {
    const MinMaxCount<T> mmc = ops.min_max_matches_counted(v, r, iv);
    g_sink = g_sink + mmc.count;
    return 0.0;
  };

  for (const double selectivity : kSelectivities) {
    const ValueInterval<T> interval = IntervalFor<T>(selectivity);
    struct Cell {
      const char* kernel;
      int which;  // 0 count, 1 sum, 2 minmax, 3 materialize, 4 words
    };
    for (const Cell cell : {Cell{"CountMatches", 0}, Cell{"SumMatches", 1},
                            Cell{"MinMaxMatches", 2},
                            Cell{"MaterializeMatches", 3},
                            Cell{"AndMatchWords", 4}}) {
      const auto run_table = [&](const simd::KernelOps<T>& ops) {
        switch (cell.which) {
          case 0:
            run_count(ops, span, range, interval, nullptr, 0);
            break;
          case 1:
            run_sum(ops, span, range, interval, nullptr, 0);
            break;
          case 2:
            run_minmax(ops, span, range, interval, nullptr, 0);
            break;
          case 4:
            seed_words();
            g_sink = g_sink + ops.and_match_words(span, range, interval,
                                                  words.data())
                                  .kept;
            break;
          default:
            sel_out.Clear();
            g_sink =
                g_sink + ops.materialize_matches(span, range, interval,
                                                 &sel_out, 0);
            break;
        }
      };
      const double scalar_rps =
          MeasureRowsPerSec(n, [&] { run_table(scalar); });
      rows->push_back({cell.kernel, type_name, selectivity, "scalar",
                       scalar_rps, 0.0});
      PrintRow(rows->back());
      if (avx2 != nullptr) {
        const double avx2_rps =
            MeasureRowsPerSec(n, [&] { run_table(*avx2); });
        rows->push_back({cell.kernel, type_name, selectivity, "avx2",
                         avx2_rps, avx2_rps / scalar_rps});
        PrintRow(rows->back());
      }
      if (have_packed) {
        if constexpr (std::is_integral_v<T>) {
          const double packed_rps = MeasureRowsPerSec(n, [&] {
            switch (cell.which) {
              case 0:
                g_sink = g_sink + PackedCountMatches(packed, range, interval);
                break;
              case 1: {
                const SumCount<T> sc =
                    PackedSumMatchesCounted(packed, range, interval);
                g_sink = g_sink + sc.count;
                g_sink_d = g_sink_d + sc.sum;
                break;
              }
              case 2: {
                const MinMaxCount<T> mmc =
                    PackedMinMaxMatchesCounted(packed, range, interval);
                g_sink = g_sink + mmc.count;
                break;
              }
              case 4:
                seed_words();
                g_sink = g_sink + PackedAndMatchWords(packed, range, interval,
                                                      words.data())
                                      .kept;
                break;
              default:
                sel_out.Clear();
                g_sink = g_sink + PackedMaterializeMatches(packed, range,
                                                           interval, &sel_out,
                                                           0);
                break;
            }
          });
          rows->push_back({cell.kernel, type_name, selectivity, "packed",
                           packed_rps, packed_rps / scalar_rps});
          PrintRow(rows->back());
        }
      }
    }
  }

  // ComputeMinMax has no predicate; one cell per type (selectivity 1.0).
  const double scalar_rps = MeasureRowsPerSec(n, [&] {
    const MinMax<T> mm = scalar.compute_min_max(span, 0, n);
    g_sink_d = g_sink_d + static_cast<double>(mm.min);
  });
  rows->push_back({"ComputeMinMax", type_name, 1.0, "scalar", scalar_rps,
                   0.0});
  PrintRow(rows->back());
  if (avx2 != nullptr) {
    const double avx2_rps = MeasureRowsPerSec(n, [&] {
      const MinMax<T> mm = avx2->compute_min_max(span, 0, n);
      g_sink_d = g_sink_d + static_cast<double>(mm.min);
    });
    rows->push_back({"ComputeMinMax", type_name, 1.0, "avx2", avx2_rps,
                     avx2_rps / scalar_rps});
    PrintRow(rows->back());
  }
}

void WriteKernelJsonReport(const std::string& path, int64_t num_rows,
                           const std::vector<BenchRow>& rows) {
  if (path.empty()) return;
  std::string doc = "{\"experiment\":\"bench_kernels\",\"config\":{\"rows\":" +
                    std::to_string(num_rows) + ",\"kernel_path\":";
  obs::AppendJsonString(&doc, std::string(simd::ActiveKernelPathName()));
  doc += "},\"rows\":[";
  for (size_t i = 0; i < rows.size(); ++i) {
    const BenchRow& row = rows[i];
    if (i > 0) doc += ',';
    doc += "{\"kernel\":";
    obs::AppendJsonString(&doc, row.kernel);
    doc += ",\"type\":";
    obs::AppendJsonString(&doc, row.type);
    doc += ",\"selectivity\":";
    obs::AppendJsonDouble(&doc, row.selectivity);
    doc += ",\"arm\":";
    obs::AppendJsonString(&doc, row.arm);
    doc += ",\"rows_per_sec\":";
    obs::AppendJsonDouble(&doc, row.rows_per_sec);
    doc += ",\"speedup_vs_scalar\":";
    obs::AppendJsonDouble(&doc, row.speedup);
    doc += '}';
  }
  doc += "]}\n";
  std::ofstream file(path, std::ios::out | std::ios::trunc);
  ADASKIP_CHECK(file.good()) << "cannot open --json path '" << path << "'";
  file << doc;
  file.flush();
  ADASKIP_CHECK(file.good()) << "failed writing --json path '" << path << "'";
}

int Main(int argc, char** argv) {
  BenchConfig config = BenchConfig::FromEnv();
  const std::string json_path = JsonPathFromArgs(argc, argv);

  std::printf("==============================================================================\n");
  std::printf("bench_kernels: scan-kernel dispatch (scalar vs AVX2 vs packed)\n");
  std::printf("  setup: %lld rows, values uniform in [0, %lld), kernel path %s\n",
              static_cast<long long>(config.num_rows),
              static_cast<long long>(kValueRange),
              std::string(simd::ActiveKernelPathName()).c_str());
  std::printf("==============================================================================\n");

  std::vector<BenchRow> rows;
  BenchType<int32_t>("int32", config.num_rows, &rows);
  BenchType<int64_t>("int64", config.num_rows, &rows);
  BenchType<float>("float", config.num_rows, &rows);
  BenchType<double>("double", config.num_rows, &rows);

  WriteKernelJsonReport(json_path, config.num_rows, rows);
  std::printf("  (sink %lld %f)\n", static_cast<long long>(g_sink),
              g_sink_d == 0.0 ? 0.0 : 1.0);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace adaskip

int main(int argc, char** argv) { return adaskip::bench::Main(argc, argv); }
