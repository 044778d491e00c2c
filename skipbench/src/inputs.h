// Input generation and reference answers. Everything here runs outside
// the timed regions; the program under test only ever receives the
// vectors and specs built from these.
//
// The generators are the benchmark's own (not adaskip/workload), so a
// change to the library's generators cannot silently change the inputs.
#ifndef SKIPBENCH_INPUTS_H_
#define SKIPBENCH_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace skipbench {

/// SplitMix64: small, seedable, and identical on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, bound); bound > 0.
  int64_t Below(int64_t bound);
  /// Uniform in [0, 1).
  double Unit();
  double Gaussian();

 private:
  uint64_t state_;
};

/// Mixes a run seed with a stream tag into an independent sub-seed.
uint64_t SubSeed(uint64_t seed, uint64_t tag);

inline constexpr int64_t kValueRange = 1'000'000'000;

/// Contiguous runs of rows, each drawn uniformly from a narrow band
/// (width `width_fraction` of the value range) around a random centre.
std::vector<int64_t> ClusteredColumn(int64_t rows, int64_t clusters,
                                     double width_fraction, uint64_t seed);

/// `walks` Gaussian random walks (sensor traces) laid end to end, each
/// starting at a random value and reflected at the domain borders. Many
/// short walks rather than one long one: a single walk's shape, and with
/// it the cost of every query, swings with the seed.
std::vector<int64_t> RandomWalkColumn(int64_t rows, int64_t walks,
                                      double step_fraction, uint64_t seed);

/// Uniform values in arbitrary order.
std::vector<int64_t> UniformColumn(int64_t rows, uint64_t seed);

/// Zipf(theta) over ranks [0, n) by inverse CDF; rank 0 is the most
/// popular.
class ZipfSampler {
 public:
  ZipfSampler(int64_t n, double theta);
  int64_t Next(Rng* rng) const;

 private:
  std::vector<double> cdf_;
};

/// A random permutation of [0, n).
std::vector<int64_t> Permutation(int64_t n, uint64_t seed);

/// Inclusive value window [lo, hi].
struct Window {
  int64_t lo = 0;
  int64_t hi = 0;
};

/// `slots` windows over the quantiles of `values`: window i spans the
/// `width` share of rows centred on quantile (i + 0.5) / slots.
std::vector<Window> QuantileWindows(const std::vector<int64_t>& values,
                                    int64_t slots, double width);

/// COUNT and SUM of the rows inside one window.
struct Tally {
  int64_t count = 0;
  int64_t sum = 0;
};

/// Naive reference: adds every row of values[begin, end) to the tally of
/// each window that contains it.
void TallyWindows(const std::vector<int64_t>& values, size_t begin,
                  size_t end, const std::vector<Window>& windows,
                  std::vector<Tally>* tallies);

/// Naive reference of a two-column conjunction: COUNT and SUM(a) of the
/// rows with a in `wa` and b in `wb`.
Tally TallyConjunction(const std::vector<int64_t>& a,
                       const std::vector<int64_t>& b, Window wa, Window wb);

}  // namespace skipbench

#endif  // SKIPBENCH_INPUTS_H_
