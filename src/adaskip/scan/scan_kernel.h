#ifndef ADASKIP_SCAN_SCAN_KERNEL_H_
#define ADASKIP_SCAN_SCAN_KERNEL_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <type_traits>

#include "adaskip/scan/predicate.h"
#include "adaskip/util/interval_set.h"
#include "adaskip/util/logging.h"
#include "adaskip/util/selection_vector.h"

namespace adaskip {

/// Min/max of a row range, as computed by zonemap builds and refinement.
template <typename T>
struct MinMax {
  T min;
  T max;

  friend bool operator==(const MinMax& a, const MinMax& b) {
    return a.min == b.min && a.max == b.max;
  }
};

// ---------------------------------------------------------------------------
// Tight scan kernels. All kernels take the full column payload plus a row
// range so skip-index-driven scans touch only candidate ranges. Inner loops
// are branchless (predicate evaluated as arithmetic) so the compiler can
// vectorize them; these kernels are the "fast scans" substrate the paper's
// main-memory setting assumes.
// ---------------------------------------------------------------------------

/// Number of values in [range.begin, range.end) inside `interval`.
template <typename T>
int64_t CountMatches(std::span<const T> values, RowRange range,
                     ValueInterval<T> interval) {
  ADASKIP_DCHECK(range.begin >= 0 &&
                 range.end <= static_cast<int64_t>(values.size()));
  const T lo = interval.lo;
  const T hi = interval.hi;
  int64_t count = 0;
  const T* __restrict data = values.data();
  for (int64_t i = range.begin; i < range.end; ++i) {
    const T v = data[i];
    count += static_cast<int64_t>(v >= lo) & static_cast<int64_t>(v <= hi);
  }
  return count;
}

/// Sum of matching values (double accumulator; exact for integer payloads
/// up to 2^53, which all generators stay well below).
template <typename T>
double SumMatches(std::span<const T> values, RowRange range,
                  ValueInterval<T> interval) {
  ADASKIP_DCHECK(range.begin >= 0 &&
                 range.end <= static_cast<int64_t>(values.size()));
  const T lo = interval.lo;
  const T hi = interval.hi;
  double sum = 0.0;
  const T* __restrict data = values.data();
  for (int64_t i = range.begin; i < range.end; ++i) {
    const T v = data[i];
    const bool match = (v >= lo) & (v <= hi);
    sum += match ? static_cast<double>(v) : 0.0;
  }
  return sum;
}

/// Appends matching row ids (offset by `base`) to `out`. Returns the
/// number appended. `base` maps span-local positions back to global row
/// ids when `values` is one segment of a larger column.
template <typename T>
int64_t MaterializeMatches(std::span<const T> values, RowRange range,
                           ValueInterval<T> interval, SelectionVector* out,
                           int64_t base = 0) {
  ADASKIP_DCHECK(range.begin >= 0 &&
                 range.end <= static_cast<int64_t>(values.size()));
  const T lo = interval.lo;
  const T hi = interval.hi;
  const T* __restrict data = values.data();
  int64_t appended = 0;
  for (int64_t i = range.begin; i < range.end; ++i) {
    const T v = data[i];
    if ((v >= lo) & (v <= hi)) {
      out->Append(base + i);
      ++appended;
    }
  }
  return appended;
}

/// Number of 64-bit match words covering `rows` rows.
constexpr int64_t MatchWordsFor(int64_t rows) { return (rows + 63) / 64; }

/// What one AndMatchWords call saw: `own` rows of the range match this
/// predicate by itself (its index's feedback currency), and `kept` bits
/// remain set in the words after the AND (the conjunction so far).
struct WordMatches {
  int64_t own = 0;
  int64_t kept = 0;
};

/// Shared body of the scalar words kernels (raw and packed): evaluates
/// `match(j)` for j in [0, n), packs the results into 64-bit words (bit
/// j % 64 of word j / 64) and ANDs them into words[0, MatchWordsFor(n)).
/// Bits past `n` in the last word are cleared.
template <typename MatchFn>
WordMatches AndMatchWordsWith(int64_t n, uint64_t* words, MatchFn&& match) {
  WordMatches out;
  for (int64_t k = 0; k * 64 < n; ++k) {
    const int64_t first = k * 64;
    const int width = static_cast<int>(std::min<int64_t>(64, n - first));
    uint64_t word = 0;
    for (int j = 0; j < width; ++j) {
      word |= static_cast<uint64_t>(match(first + j)) << j;
    }
    const uint64_t kept = words[k] & word;
    words[k] = kept;
    out.own += std::popcount(word);
    out.kept += std::popcount(kept);
  }
  return out;
}

/// The conjunction kernel: one branch-free pass turns [range.begin,
/// range.end) into match words — bit j of words[k] is row range.begin +
/// 64 * k + j — ANDed into words[0, MatchWordsFor(range.size())). Callers
/// seed the words with all ones and AND one predicate after another.
template <typename T>
WordMatches AndMatchWords(std::span<const T> values, RowRange range,
                          ValueInterval<T> interval, uint64_t* words) {
  ADASKIP_DCHECK(range.begin >= 0 &&
                 range.end <= static_cast<int64_t>(values.size()));
  const T lo = interval.lo;
  const T hi = interval.hi;
  const T* __restrict data = values.data() + range.begin;
  return AndMatchWordsWith(range.size(), words, [&](int64_t j) {
    const T v = data[j];
    return (v >= lo) & (v <= hi);
  });
}

/// Sum plus count of matching values, in one pass (the executor's kSum
/// path needs both for feedback).
template <typename T>
struct SumCount {
  double sum = 0.0;
  int64_t count = 0;
};

template <typename T>
SumCount<T> SumMatchesCounted(std::span<const T> values, RowRange range,
                              ValueInterval<T> interval) {
  ADASKIP_DCHECK(range.begin >= 0 &&
                 range.end <= static_cast<int64_t>(values.size()));
  const T lo = interval.lo;
  const T hi = interval.hi;
  const T* __restrict data = values.data();
  SumCount<T> out;
  for (int64_t i = range.begin; i < range.end; ++i) {
    const T v = data[i];
    const bool match = (v >= lo) & (v <= hi);
    out.sum += match ? static_cast<double>(v) : 0.0;
    out.count += match;
  }
  return out;
}

/// Min/max plus count of matching values, in one pass.
template <typename T>
struct MinMaxCount {
  T min = std::numeric_limits<T>::max();
  T max = std::numeric_limits<T>::lowest();
  int64_t count = 0;
};

template <typename T>
MinMaxCount<T> MinMaxMatchesCounted(std::span<const T> values, RowRange range,
                                    ValueInterval<T> interval) {
  ADASKIP_DCHECK(range.begin >= 0 &&
                 range.end <= static_cast<int64_t>(values.size()));
  const T lo = interval.lo;
  const T hi = interval.hi;
  const T* __restrict data = values.data();
  MinMaxCount<T> out;
  for (int64_t i = range.begin; i < range.end; ++i) {
    const T v = data[i];
    const bool match = (v >= lo) & (v <= hi);
    // Conditional selects, not branches: misses fold in the identity
    // elements, so the loop stays branch-free (and vectorizable) even at
    // the low selectivities where a branch would mispredict constantly.
    const T vmin = match ? v : std::numeric_limits<T>::max();
    const T vmax = match ? v : std::numeric_limits<T>::lowest();
    out.min = vmin < out.min ? vmin : out.min;
    out.max = vmax > out.max ? vmax : out.max;
    out.count += match;
  }
  return out;
}

/// Min and max of matching values; `found` reports whether any matched.
template <typename T>
MinMax<T> MinMaxMatches(std::span<const T> values, RowRange range,
                        ValueInterval<T> interval, bool* found) {
  ADASKIP_DCHECK(range.begin >= 0 &&
                 range.end <= static_cast<int64_t>(values.size()));
  const T lo = interval.lo;
  const T hi = interval.hi;
  const T* __restrict data = values.data();
  T min_v = std::numeric_limits<T>::max();
  T max_v = std::numeric_limits<T>::lowest();
  int64_t matches = 0;
  for (int64_t i = range.begin; i < range.end; ++i) {
    const T v = data[i];
    const bool match = (v >= lo) & (v <= hi);
    const T vmin = match ? v : std::numeric_limits<T>::max();
    const T vmax = match ? v : std::numeric_limits<T>::lowest();
    min_v = vmin < min_v ? vmin : min_v;
    max_v = vmax > max_v ? vmax : max_v;
    matches += match;
  }
  *found = matches > 0;
  return {min_v, max_v};
}

/// Min/max over *all* values in [begin, end) — the zonemap build and
/// refinement primitive. Requires a non-empty range. NaN never becomes a
/// bound: float folds start from +inf/-inf and the ordered compares drop
/// NaN, so an all-NaN range gets min > max and matches no predicate.
template <typename T>
MinMax<T> ComputeMinMax(std::span<const T> values, int64_t begin,
                        int64_t end) {
  ADASKIP_DCHECK(begin >= 0 && begin < end &&
                 end <= static_cast<int64_t>(values.size()));
  const T* __restrict data = values.data();
  T min_v = data[begin];
  T max_v = data[begin];
  if constexpr (std::is_floating_point_v<T>) {
    min_v = std::numeric_limits<T>::infinity();
    max_v = -std::numeric_limits<T>::infinity();
  }
  for (int64_t i = begin; i < end; ++i) {
    const T v = data[i];
    min_v = v < min_v ? v : min_v;
    max_v = v > max_v ? v : max_v;
  }
  return {min_v, max_v};
}

/// Positions of the first and last matching rows in the range, or
/// {-1, -1} when nothing matches. Used by boundary-guided zone splitting.
template <typename T>
RowRange FindMatchBounds(std::span<const T> values, RowRange range,
                         ValueInterval<T> interval) {
  ADASKIP_DCHECK(range.begin >= 0 &&
                 range.end <= static_cast<int64_t>(values.size()));
  const T lo = interval.lo;
  const T hi = interval.hi;
  const T* __restrict data = values.data();
  int64_t first = -1;
  for (int64_t i = range.begin; i < range.end; ++i) {
    const T v = data[i];
    if ((v >= lo) & (v <= hi)) {
      first = i;
      break;
    }
  }
  if (first < 0) return {-1, -1};
  int64_t last = first;
  for (int64_t i = range.end - 1; i > first; --i) {
    const T v = data[i];
    if ((v >= lo) & (v <= hi)) {
      last = i;
      break;
    }
  }
  return {first, last + 1};  // Half-open: [first, last+1).
}

/// Everything a boundary zone split needs, computed in one pass over the
/// zone: the qualifying run's bounds plus the min/max of the prefix
/// (rows before the run), the run itself, and the suffix (rows after).
/// Segment bounds are valid only when the segment is non-empty. When
/// nothing matches, `match_bounds` is {-1, -1} and `prefix` holds the
/// min/max of the whole range.
template <typename T>
struct BoundaryScan {
  RowRange match_bounds{-1, -1};
  MinMax<T> prefix{std::numeric_limits<T>::max(),
                   std::numeric_limits<T>::lowest()};
  MinMax<T> run{std::numeric_limits<T>::max(),
                std::numeric_limits<T>::lowest()};
  MinMax<T> suffix{std::numeric_limits<T>::max(),
                   std::numeric_limits<T>::lowest()};
};

template <typename T>
BoundaryScan<T> BoundarySplitScan(std::span<const T> values, RowRange range,
                                  ValueInterval<T> interval) {
  ADASKIP_DCHECK(range.begin >= 0 && range.begin < range.end &&
                 range.end <= static_cast<int64_t>(values.size()));
  const T lo = interval.lo;
  const T hi = interval.hi;
  const T* __restrict data = values.data();
  BoundaryScan<T> out;

  // Forward to the first match, folding the prefix min/max.
  int64_t first = -1;
  for (int64_t i = range.begin; i < range.end; ++i) {
    const T v = data[i];
    if ((v >= lo) & (v <= hi)) {
      first = i;
      break;
    }
    out.prefix.min = v < out.prefix.min ? v : out.prefix.min;
    out.prefix.max = v > out.prefix.max ? v : out.prefix.max;
  }
  if (first < 0) return out;  // No matches; prefix covers the whole range.

  // Backward to the last match, folding the suffix min/max.
  int64_t last = first;
  for (int64_t i = range.end - 1; i > first; --i) {
    const T v = data[i];
    if ((v >= lo) & (v <= hi)) {
      last = i;
      break;
    }
    out.suffix.min = v < out.suffix.min ? v : out.suffix.min;
    out.suffix.max = v > out.suffix.max ? v : out.suffix.max;
  }

  // Min/max of the run [first, last] — the only rows read twice are none;
  // the three sweeps together touch each row exactly once.
  for (int64_t i = first; i <= last; ++i) {
    const T v = data[i];
    out.run.min = v < out.run.min ? v : out.run.min;
    out.run.max = v > out.run.max ? v : out.run.max;
  }
  out.match_bounds = {first, last + 1};
  return out;
}

// ---------------------------------------------------------------------------
// Reference kernels: deliberately naive implementations used only by tests
// to validate the tight kernels and every skip-index execution path.
// ---------------------------------------------------------------------------
namespace reference {

template <typename T>
int64_t CountMatches(std::span<const T> values, RowRange range,
                     ValueInterval<T> interval) {
  int64_t count = 0;
  for (int64_t i = range.begin; i < range.end; ++i) {
    if (interval.Contains(values[static_cast<size_t>(i)])) ++count;
  }
  return count;
}

template <typename T>
double SumMatches(std::span<const T> values, RowRange range,
                  ValueInterval<T> interval) {
  double sum = 0.0;
  for (int64_t i = range.begin; i < range.end; ++i) {
    T v = values[static_cast<size_t>(i)];
    if (interval.Contains(v)) sum += static_cast<double>(v);
  }
  return sum;
}

template <typename T>
SelectionVector MaterializeMatches(std::span<const T> values, RowRange range,
                                   ValueInterval<T> interval) {
  SelectionVector out;
  for (int64_t i = range.begin; i < range.end; ++i) {
    if (interval.Contains(values[static_cast<size_t>(i)])) out.Append(i);
  }
  return out;
}

}  // namespace reference
}  // namespace adaskip

#endif  // ADASKIP_SCAN_SCAN_KERNEL_H_
