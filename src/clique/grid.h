// Uniform grid quantization for CLIQUE (Agrawal et al., SIGMOD 1998).
//
// Each dimension is partitioned into xi equal-width intervals over the
// data's bounding box. A *unit* in a subspace S is the cross product of one
// interval per dimension of S; CLIQUE mines units whose point count exceeds
// a density threshold.

#ifndef PROCLUS_CLIQUE_GRID_H_
#define PROCLUS_CLIQUE_GRID_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "data/point_source.h"

namespace proclus {

/// Per-dimension uniform interval grid.
class Grid {
 public:
  /// Builds a grid with `xi` intervals per dimension spanning the source's
  /// per-dimension bounds, found with one scan. Requires xi in [2, 255]
  /// and a non-empty source; a NaN or infinite coordinate returns
  /// InvalidArgument naming the first one's row and dimension.
  static Result<Grid> BuildFromSource(const PointSource& source, size_t xi);

  /// Quantizes every point of a source into interval indices (N x d,
  /// row-major) with one scan. The cell matrix is 8x smaller than the
  /// coordinates, so it fits in memory even when the data does not.
  Result<std::vector<uint8_t>> QuantizeSource(
      const PointSource& source) const;

  /// Number of intervals per dimension.
  size_t xi() const { return xi_; }

  /// Dimensionality of the gridded space.
  size_t dims() const { return lo_.size(); }

  /// Interval index of coordinate `value` on dimension `dim`, clamped to
  /// [0, xi-1] (the maximum coordinate belongs to the last interval).
  uint8_t Interval(size_t dim, double value) const;

  /// Interval bounds [lo, hi) of interval `idx` on dimension `dim`.
  void IntervalBounds(size_t dim, uint8_t idx, double* lo, double* hi) const;

 private:
  Grid(size_t xi, std::vector<double> lo, std::vector<double> width)
      : xi_(xi), lo_(std::move(lo)), width_(std::move(width)) {}

  size_t xi_;
  std::vector<double> lo_;
  std::vector<double> width_;
};

}  // namespace proclus

#endif  // PROCLUS_CLIQUE_GRID_H_
