// Full-dimensional distance metrics (Section 1.2 of the paper): the
// Manhattan (L1), Euclidean (L2) and Chebyshev (L-infinity) norms used by
// the PROCLUS initialization phase and the full-dimensional baselines.

#ifndef PROCLUS_DISTANCE_METRIC_H_
#define PROCLUS_DISTANCE_METRIC_H_

#include <cmath>
#include <span>

#include "common/check.h"

namespace proclus {

/// Manhattan (L1) distance. Requires equal-length spans.
double ManhattanDistance(std::span<const double> a, std::span<const double> b);

/// Euclidean (L2) distance. Requires equal-length spans.
double EuclideanDistance(std::span<const double> a, std::span<const double> b);

/// Squared Euclidean distance (saves the sqrt in nearest-neighbor loops).
double SquaredEuclideanDistance(std::span<const double> a,
                                std::span<const double> b);

/// Chebyshev (L-infinity) distance.
double ChebyshevDistance(std::span<const double> a, std::span<const double> b);

/// Identifies a full-dimensional metric for option structs.
enum class MetricKind {
  kManhattan,
  kEuclidean,
  kChebyshev,
};

/// Dispatches to the metric named by `kind`.
double Distance(MetricKind kind, std::span<const double> a,
                std::span<const double> b);

}  // namespace proclus

#endif  // PROCLUS_DISTANCE_METRIC_H_
