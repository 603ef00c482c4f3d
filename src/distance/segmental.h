// Manhattan segmental distance (Section 1.2):
//
//   d_D(x1, x2) = ( sum_{i in D} |x1_i - x2_i| ) / |D|
//
// i.e. the average per-dimension L1 difference over a dimension subset D.
// The normalization by |D| is what makes distances comparable between
// clusters whose dimension subsets have different cardinality — the core
// reason the paper prefers it over the plain Manhattan distance during
// point assignment.

#ifndef PROCLUS_DISTANCE_SEGMENTAL_H_
#define PROCLUS_DISTANCE_SEGMENTAL_H_

#include <span>
#include <vector>

#include "common/check.h"
#include "common/dimension_set.h"

namespace proclus {

/// Manhattan segmental distance of `a` and `b` relative to the dimensions
/// listed in `dims` (a plain index list, the fast path for hot loops).
/// Requires dims non-empty and every index < a.size() == b.size().
inline double ManhattanSegmentalDistance(std::span<const double> a,
                                         std::span<const double> b,
                                         std::span<const uint32_t> dims) {
  PROCLUS_DCHECK(a.size() == b.size());
  PROCLUS_DCHECK(!dims.empty());
  double sum = 0.0;
  for (uint32_t d : dims) {
    PROCLUS_DCHECK(d < a.size());
    double diff = a[d] - b[d];
    sum += diff < 0 ? -diff : diff;
  }
  return sum / static_cast<double>(dims.size());
}

/// Convenience overload taking a DimensionSet directly (allocation-free
/// bitset walk, bit-identical to the span overload). Still slower than a
/// pre-materialized index list: hot loops must cache `dims.ToVector()`
/// once and call the span overload — tools/lint.py bans this overload
/// inside src/core and src/distance loops.
double ManhattanSegmentalDistance(std::span<const double> a,
                                  std::span<const double> b,
                                  const DimensionSet& dims);

/// Plain (unnormalized) Manhattan distance restricted to `dims` — the
/// ablation comparator for the segmental normalization.
inline double RestrictedManhattanDistance(std::span<const double> a,
                                          std::span<const double> b,
                                          std::span<const uint32_t> dims) {
  PROCLUS_DCHECK(a.size() == b.size());
  double sum = 0.0;
  for (uint32_t d : dims) {
    double diff = a[d] - b[d];
    sum += diff < 0 ? -diff : diff;
  }
  return sum;
}

}  // namespace proclus

#endif  // PROCLUS_DISTANCE_SEGMENTAL_H_
