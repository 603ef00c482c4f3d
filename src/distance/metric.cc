#include "distance/metric.h"

#include <algorithm>

namespace proclus {

double ManhattanDistance(std::span<const double> a,
                         std::span<const double> b) {
  PROCLUS_DCHECK(a.size() == b.size());
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) sum += std::fabs(a[i] - b[i]);
  return sum;
}

double SquaredEuclideanDistance(std::span<const double> a,
                                std::span<const double> b) {
  PROCLUS_DCHECK(a.size() == b.size());
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    double diff = a[i] - b[i];
    sum += diff * diff;
  }
  return sum;
}

double EuclideanDistance(std::span<const double> a,
                         std::span<const double> b) {
  return std::sqrt(SquaredEuclideanDistance(a, b));
}

double ChebyshevDistance(std::span<const double> a,
                         std::span<const double> b) {
  PROCLUS_DCHECK(a.size() == b.size());
  double best = 0.0;
  for (size_t i = 0; i < a.size(); ++i)
    best = std::max(best, std::fabs(a[i] - b[i]));
  return best;
}

double Distance(MetricKind kind, std::span<const double> a,
                std::span<const double> b) {
  switch (kind) {
    case MetricKind::kManhattan:
      return ManhattanDistance(a, b);
    case MetricKind::kEuclidean:
      return EuclideanDistance(a, b);
    case MetricKind::kChebyshev:
      return ChebyshevDistance(a, b);
  }
  PROCLUS_CHECK(false);
  return 0.0;
}

}  // namespace proclus
