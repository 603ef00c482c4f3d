#include "core/find_dimensions.h"

#include <algorithm>
#include <cmath>
#include <tuple>

namespace proclus {

Matrix ComputeZScores(const Matrix& X) {
  const size_t k = X.rows();
  const size_t d = X.cols();
  PROCLUS_CHECK(d >= 2);
  Matrix Z(k, d);
  for (size_t i = 0; i < k; ++i) {
    double mean = 0.0;
    for (size_t j = 0; j < d; ++j) mean += X(i, j);
    mean /= static_cast<double>(d);
    double var = 0.0;
    for (size_t j = 0; j < d; ++j) {
      double diff = X(i, j) - mean;
      var += diff * diff;
    }
    double sigma = std::sqrt(var / static_cast<double>(d - 1));
    if (sigma > 0.0) {
      for (size_t j = 0; j < d; ++j) Z(i, j) = (X(i, j) - mean) / sigma;
    }
    // sigma == 0: leave the row at zero; every dimension is equivalent.
  }
  return Z;
}

Result<std::vector<DimensionSet>> AllocateDimensions(const Matrix& Z,
                                                     size_t total,
                                                     size_t min_per_row) {
  const size_t k = Z.rows();
  const size_t d = Z.cols();
  if (k == 0) return Status::InvalidArgument("Z has no rows");
  if (total < min_per_row * k)
    return Status::InvalidArgument(
        "total dimensions below the per-medoid minimum");
  if (total > k * d)
    return Status::InvalidArgument(
        "total dimensions exceeds k * d available slots");

  struct Entry {
    double z;
    uint32_t row;
    uint32_t col;
    bool operator<(const Entry& other) const {
      return std::tie(z, row, col) < std::tie(other.z, other.row, other.col);
    }
  };

  std::vector<std::vector<DimensionSet>::value_type> result(
      k, DimensionSet(d));

  // Preallocate the min_per_row smallest entries of each row.
  std::vector<Entry> remaining;
  remaining.reserve(k * d);
  size_t picked = 0;
  std::vector<Entry> row_entries(d);
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = 0; j < d; ++j)
      row_entries[j] = {Z(i, j), static_cast<uint32_t>(i),
                        static_cast<uint32_t>(j)};
    std::sort(row_entries.begin(), row_entries.end());
    for (size_t j = 0; j < d; ++j) {
      if (j < min_per_row) {
        result[i].Add(row_entries[j].col);
        ++picked;
      } else {
        remaining.push_back(row_entries[j]);
      }
    }
  }

  // Greedily take the globally smallest remaining values.
  std::sort(remaining.begin(), remaining.end());
  for (const Entry& e : remaining) {
    if (picked == total) break;
    result[e.row].Add(e.col);
    ++picked;
  }
  // invariant: the two greedy passes allocate exactly `total` slots; the
  // slot arithmetic was validated against k*d above.
  PROCLUS_CHECK(picked == total);
  return result;
}

Result<std::vector<DimensionSet>> FindDimensions(const Matrix& X,
                                                 double avg_dims) {
  const size_t k = X.rows();
  if (k == 0) return Status::InvalidArgument("X has no rows");
  // Checked before rounding: llround of a NaN or out-of-range value is
  // unspecified.
  const double slots = avg_dims * static_cast<double>(k);
  if (!std::isfinite(avg_dims) || slots < 0.0 ||
      slots > static_cast<double>(k * X.cols()))
    return Status::InvalidArgument(
        "avg_dims must be finite with k * avg_dims in [0, k * d]");
  const size_t total = static_cast<size_t>(std::llround(slots));
  Matrix Z = ComputeZScores(X);
  return AllocateDimensions(Z, total, /*min_per_row=*/2);
}

}  // namespace proclus
