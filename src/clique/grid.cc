#include "clique/grid.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "data/engine.h"

namespace proclus {

namespace {

// Per-dimension min/max over a scan. Min/max merging is associativity-
// free, so the bounds are bitwise identical for any block size or thread
// count. A NaN passes neither comparison, and an infinity would make the
// grid's widths and interval indices meaningless, so the scan also finds
// the first non-finite coordinate in row order: each block keeps its
// first, and the merge takes the lowest row.
class BoundsConsumer final : public ScanConsumer {
 public:
  // A coordinate's position; `found` is false while none is known.
  struct Cell {
    bool found = false;
    size_t row = 0;
    size_t dim = 0;
  };

  Status Prepare(const ScanGeometry& geometry) override {
    dims_ = geometry.dims;
    partial_non_finite_.assign(geometry.num_blocks, Cell{});
    partial_mins_.assign(geometry.num_blocks,
                         std::vector<double>(
                             dims_, std::numeric_limits<double>::infinity()));
    partial_maxs_.assign(
        geometry.num_blocks,
        std::vector<double>(dims_,
                            -std::numeric_limits<double>::infinity()));
    return Status::OK();
  }

  void ConsumeBlock(size_t block_index, size_t first_row,
                    std::span<const double> data, size_t rows) override {
    std::vector<double>& mins = partial_mins_[block_index];
    std::vector<double>& maxs = partial_maxs_[block_index];
    Cell& non_finite = partial_non_finite_[block_index];
    for (size_t r = 0; r < rows; ++r) {
      const double* point = data.data() + r * dims_;
      for (size_t j = 0; j < dims_; ++j) {
        if (point[j] < mins[j]) mins[j] = point[j];
        if (point[j] > maxs[j]) maxs[j] = point[j];
        if (!non_finite.found && !std::isfinite(point[j]))
          non_finite = {true, first_row + r, j};
      }
    }
  }

  Status Merge() override {
    mins_.assign(dims_, std::numeric_limits<double>::infinity());
    maxs_.assign(dims_, -std::numeric_limits<double>::infinity());
    non_finite_ = Cell{};
    for (size_t b = 0; b < partial_mins_.size(); ++b) {
      for (size_t j = 0; j < dims_; ++j) {
        if (partial_mins_[b][j] < mins_[j]) mins_[j] = partial_mins_[b][j];
        if (partial_maxs_[b][j] > maxs_[j]) maxs_[j] = partial_maxs_[b][j];
      }
      // Blocks hold ascending rows: the first block with one has the
      // lowest.
      if (!non_finite_.found) non_finite_ = partial_non_finite_[b];
    }
    return Status::OK();
  }

  std::vector<double> TakeMins() { return std::move(mins_); }
  const std::vector<double>& maxs() const { return maxs_; }
  /// The first non-finite coordinate in row order, valid after Merge.
  const Cell& non_finite() const { return non_finite_; }

 private:
  size_t dims_ = 0;
  std::vector<std::vector<double>> partial_mins_;   // [block][dim]
  std::vector<std::vector<double>> partial_maxs_;   // [block][dim]
  std::vector<Cell> partial_non_finite_;            // [block]
  std::vector<double> mins_;
  std::vector<double> maxs_;
  Cell non_finite_;
};

// Per-point interval quantization; writes are disjoint per row.
class QuantizeConsumer final : public ScanConsumer {
 public:
  explicit QuantizeConsumer(const Grid* grid) : grid_(grid) {}

  Status Prepare(const ScanGeometry& geometry) override {
    dims_ = geometry.dims;
    cells_.resize(geometry.rows * dims_);
    return Status::OK();
  }

  void ConsumeBlock(size_t, size_t first_row, std::span<const double> data,
                    size_t rows) override {
    for (size_t r = 0; r < rows; ++r) {
      const double* point = data.data() + r * dims_;
      uint8_t* out = cells_.data() + (first_row + r) * dims_;
      for (size_t j = 0; j < dims_; ++j)
        out[j] = grid_->Interval(j, point[j]);
    }
  }

  Status Merge() override { return Status::OK(); }

  std::vector<uint8_t> TakeCells() { return std::move(cells_); }

 private:
  const Grid* grid_;
  size_t dims_ = 0;
  std::vector<uint8_t> cells_;
};

}  // namespace

Result<Grid> Grid::BuildFromSource(const PointSource& source, size_t xi) {
  if (xi < 2 || xi > 255)
    return Status::InvalidArgument("xi must be in [2, 255]");
  if (source.size() == 0)
    return Status::InvalidArgument("source is empty");
  BoundsConsumer bounds;
  PROCLUS_RETURN_IF_ERROR(ScanExecutor(ScanOptions{}).Run(source, {&bounds}));
  if (const BoundsConsumer::Cell& bad = bounds.non_finite(); bad.found)
    return Status::InvalidArgument(
        "CLIQUE needs finite data: non-finite coordinate at row " +
        std::to_string(bad.row) + ", dimension " + std::to_string(bad.dim));
  std::vector<double> mins = bounds.TakeMins();
  std::vector<double> width(mins.size());
  for (size_t j = 0; j < mins.size(); ++j) {
    double range = bounds.maxs()[j] - mins[j];
    // Constant dimensions get a unit-width grid so every point lands in
    // interval 0.
    width[j] = range > 0.0 ? range / static_cast<double>(xi) : 1.0;
  }
  return Grid(xi, std::move(mins), std::move(width));
}

Result<std::vector<uint8_t>> Grid::QuantizeSource(
    const PointSource& source) const {
  if (source.dims() != dims())
    return Status::InvalidArgument("source dimensionality mismatch");
  QuantizeConsumer quantize(this);
  PROCLUS_RETURN_IF_ERROR(
      ScanExecutor(ScanOptions{}).Run(source, {&quantize}));
  return quantize.TakeCells();
}

uint8_t Grid::Interval(size_t dim, double value) const {
  PROCLUS_DCHECK(dim < dims());
  double offset = (value - lo_[dim]) / width_[dim];
  long idx = static_cast<long>(std::floor(offset));
  idx = std::clamp<long>(idx, 0, static_cast<long>(xi_) - 1);
  return static_cast<uint8_t>(idx);
}

void Grid::IntervalBounds(size_t dim, uint8_t idx, double* lo,
                          double* hi) const {
  PROCLUS_DCHECK(dim < dims());
  PROCLUS_DCHECK(idx < xi_);
  *lo = lo_[dim] + width_[dim] * static_cast<double>(idx);
  *hi = *lo + width_[dim];
}

}  // namespace proclus
