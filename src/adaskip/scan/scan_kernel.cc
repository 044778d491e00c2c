#include "adaskip/scan/scan_kernel.h"

// Explicit instantiations of the hot kernels for all supported column
// types: keeps the optimizer's work in one translation unit and catches
// template errors for every type at library build time.

namespace adaskip {

#define ADASKIP_INSTANTIATE_KERNELS(T)                                       \
  template int64_t CountMatches<T>(std::span<const T>, RowRange,             \
                                   ValueInterval<T>);                        \
  template double SumMatches<T>(std::span<const T>, RowRange,                \
                                ValueInterval<T>);                           \
  template int64_t MaterializeMatches<T>(std::span<const T>, RowRange,       \
                                         ValueInterval<T>, SelectionVector*, \
                                         int64_t);                           \
  template WordMatches AndMatchWords<T>(std::span<const T>, RowRange,        \
                                        ValueInterval<T>, uint64_t*);        \
  template MinMax<T> MinMaxMatches<T>(std::span<const T>, RowRange,          \
                                      ValueInterval<T>, bool*);              \
  template SumCount<T> SumMatchesCounted<T>(std::span<const T>, RowRange,    \
                                            ValueInterval<T>);               \
  template MinMaxCount<T> MinMaxMatchesCounted<T>(                           \
      std::span<const T>, RowRange, ValueInterval<T>);                       \
  template MinMax<T> ComputeMinMax<T>(std::span<const T>, int64_t, int64_t); \
  template RowRange FindMatchBounds<T>(std::span<const T>, RowRange,         \
                                       ValueInterval<T>);                    \
  template BoundaryScan<T> BoundarySplitScan<T>(std::span<const T>,          \
                                                RowRange, ValueInterval<T>)

ADASKIP_INSTANTIATE_KERNELS(int32_t);
ADASKIP_INSTANTIATE_KERNELS(int64_t);
ADASKIP_INSTANTIATE_KERNELS(float);
ADASKIP_INSTANTIATE_KERNELS(double);

#undef ADASKIP_INSTANTIATE_KERNELS

}  // namespace adaskip
