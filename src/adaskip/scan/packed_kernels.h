#ifndef ADASKIP_SCAN_PACKED_KERNELS_H_
#define ADASKIP_SCAN_PACKED_KERNELS_H_

#include <cstdint>
#include <span>

#include "adaskip/scan/predicate.h"
#include "adaskip/scan/scan_kernel.h"
#include "adaskip/storage/segment_layout.h"
#include "adaskip/util/interval_set.h"
#include "adaskip/util/selection_vector.h"

/// Packed-domain scan kernels over the frame-of-reference layout of
/// storage/segment_layout.h. They translate a value-space predicate
/// interval into code space once, then scan codes directly. All results
/// are exact integer computations, bit-identical to running the
/// dispatched raw kernels over the same rows (the sum reconstructs
/// base * count + sum(codes) in int64 and converts once; the
/// kMaxPackedMagnitude eligibility guard keeps that arithmetic exact and
/// inside the repo's 2^53 integer-sum contract).
///
/// These live in scan/ (not storage/) because they are predicate
/// evaluation — the packed twin of scan_kernel.h — and because
/// PlanSegmentPack's min/max pass runs through the SIMD dispatcher.
/// storage/ owns only the passive layout (PackedSegment, PackSegment).

namespace adaskip {

/// Everything the cost model and the packer need to know about one
/// sealed segment's values, computed in one min/max pass.
template <typename T>
SegmentPackPlan<T> PlanSegmentPack(std::span<const T> values);

/// Packed-domain kernels. `range` is in segment-local coordinates
/// ([0, seg.rows)); results are bit-identical to the dispatched raw
/// kernels over the same rows. `base_row` in PackedMaterializeMatches
/// maps local positions back to global row ids, exactly like the raw
/// MaterializeMatches `base` parameter.
template <typename T>
int64_t PackedCountMatches(const PackedSegment<T>& seg, RowRange range,
                           ValueInterval<T> interval);

template <typename T>
SumCount<T> PackedSumMatchesCounted(const PackedSegment<T>& seg,
                                    RowRange range, ValueInterval<T> interval);

template <typename T>
MinMaxCount<T> PackedMinMaxMatchesCounted(const PackedSegment<T>& seg,
                                          RowRange range,
                                          ValueInterval<T> interval);

template <typename T>
int64_t PackedMaterializeMatches(const PackedSegment<T>& seg, RowRange range,
                                 ValueInterval<T> interval,
                                 SelectionVector* out, int64_t base_row);

/// Packed twin of AndMatchWords: ANDs the match words of `range`
/// (segment-local) into words[0, MatchWordsFor(range.size())), bit j of
/// word k being local row range.begin + 64k + j.
template <typename T>
WordMatches PackedAndMatchWords(const PackedSegment<T>& seg, RowRange range,
                                ValueInterval<T> interval, uint64_t* words);

}  // namespace adaskip

#endif  // ADASKIP_SCAN_PACKED_KERNELS_H_
