#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace skipbench {

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

int64_t Rng::Below(int64_t bound) {
  return static_cast<int64_t>(
      (static_cast<__uint128_t>(Next()) * static_cast<__uint128_t>(bound)) >>
      64);
}

double Rng::Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

double Rng::Gaussian() {
  const double u1 = 1.0 - Unit();  // (0, 1]: log stays finite.
  const double u2 = Unit();
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

uint64_t SubSeed(uint64_t seed, uint64_t tag) {
  Rng rng(seed ^ (tag * 0xD1B54A32D192ED03ULL));
  return rng.Next();
}

std::vector<int64_t> ClusteredColumn(int64_t rows, int64_t clusters,
                                     double width_fraction, uint64_t seed) {
  Rng rng(seed);
  const int64_t width = static_cast<int64_t>(
      width_fraction * static_cast<double>(kValueRange));
  std::vector<int64_t> values;
  values.reserve(static_cast<size_t>(rows));
  for (int64_t c = 0; c < clusters; ++c) {
    const int64_t end = (c + 1) * rows / clusters;
    const int64_t base = rng.Below(kValueRange - width);
    while (static_cast<int64_t>(values.size()) < end) {
      values.push_back(base + rng.Below(width));
    }
  }
  return values;
}

std::vector<int64_t> RandomWalkColumn(int64_t rows, int64_t walks,
                                      double step_fraction, uint64_t seed) {
  Rng rng(seed);
  const double top = static_cast<double>(kValueRange - 1);
  const double step = step_fraction * static_cast<double>(kValueRange);
  double v = 0.0;
  std::vector<int64_t> values;
  values.reserve(static_cast<size_t>(rows));
  for (int64_t i = 0; i < rows; ++i) {
    if (i % (rows / walks) == 0) v = rng.Unit() * top;
    v += rng.Gaussian() * step;
    if (v < 0.0) v = -v;
    if (v > top) v = 2.0 * top - v;
    values.push_back(static_cast<int64_t>(std::clamp(v, 0.0, top)));
  }
  return values;
}

std::vector<int64_t> UniformColumn(int64_t rows, uint64_t seed) {
  Rng rng(seed);
  std::vector<int64_t> values(static_cast<size_t>(rows));
  for (int64_t& v : values) v = rng.Below(kValueRange);
  return values;
}

ZipfSampler::ZipfSampler(int64_t n, double theta) {
  cdf_.resize(static_cast<size_t>(n));
  double total = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), theta);
    cdf_[static_cast<size_t>(i)] = total;
  }
  for (double& c : cdf_) c /= total;
}

int64_t ZipfSampler::Next(Rng* rng) const {
  const double u = rng->Unit();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<int64_t>(it - cdf_.begin(),
                           static_cast<int64_t>(cdf_.size()) - 1);
}

std::vector<int64_t> Permutation(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<int64_t> perm(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) perm[static_cast<size_t>(i)] = i;
  for (int64_t i = n - 1; i > 0; --i) {
    std::swap(perm[static_cast<size_t>(i)],
              perm[static_cast<size_t>(rng.Below(i + 1))]);
  }
  return perm;
}

std::vector<Window> QuantileWindows(const std::vector<int64_t>& values,
                                    int64_t slots, double width) {
  std::vector<int64_t> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const double last = static_cast<double>(sorted.size() - 1);
  auto at = [&](double q) {
    return sorted[static_cast<size_t>(std::clamp(q, 0.0, 1.0) * last)];
  };
  std::vector<Window> windows;
  windows.reserve(static_cast<size_t>(slots));
  for (int64_t i = 0; i < slots; ++i) {
    const double centre =
        (static_cast<double>(i) + 0.5) / static_cast<double>(slots);
    windows.push_back({at(centre - width / 2), at(centre + width / 2)});
  }
  return windows;
}

void TallyWindows(const std::vector<int64_t>& values, size_t begin,
                  size_t end, const std::vector<Window>& windows,
                  std::vector<Tally>* tallies) {
  tallies->resize(windows.size());
  for (size_t w = 0; w < windows.size(); ++w) {
    const Window win = windows[w];
    int64_t count = 0;
    int64_t sum = 0;
    for (size_t i = begin; i < end; ++i) {
      const int64_t v = values[i];
      const bool in = v >= win.lo && v <= win.hi;
      count += in;
      sum += in ? v : 0;
    }
    (*tallies)[w].count += count;
    (*tallies)[w].sum += sum;
  }
}

Tally TallyConjunction(const std::vector<int64_t>& a,
                       const std::vector<int64_t>& b, Window wa, Window wb) {
  Tally t;
  for (size_t i = 0; i < a.size(); ++i) {
    const bool in = a[i] >= wa.lo && a[i] <= wa.hi && b[i] >= wb.lo &&
                    b[i] <= wb.hi;
    t.count += in;
    t.sum += in ? a[i] : 0;
  }
  return t;
}

}  // namespace skipbench
