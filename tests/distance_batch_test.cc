// Property tests: every batched kernel in distance/batch.h must be
// bit-identical to its per-point scalar reference — not approximately
// equal — for randomized sizes, dimension counts, and batch splits. The
// kernels' whole design contract is that tiling only reorders work
// across points, never within one, so EXPECT_EQ on doubles is the right
// assertion: any reassociation shows up as an exact-inequality failure.

#include "distance/batch.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/matrix.h"
#include "common/rng.h"
#include "distance/metric.h"
#include "distance/segmental.h"

namespace proclus {
namespace {

// Row counts exercising the degenerate single-row batch, sub-tile
// boundaries (kKernelRowTile - 1 / exact / + 1), and a multi-tile size
// with a partial tail.
const size_t kRowCounts[] = {1, 2, 37, kKernelRowTile - 1, kKernelRowTile,
                             kKernelRowTile + 1, 2 * kKernelRowTile + 17};

std::vector<double> RandomBlock(Rng& rng, size_t rows, size_t d) {
  std::vector<double> data(rows * d);
  for (double& v : data) v = rng.Uniform(-50, 50);
  return data;
}

Matrix RandomMatrix(Rng& rng, size_t rows, size_t d) {
  Matrix m(rows, d);
  for (size_t i = 0; i < rows; ++i)
    for (size_t j = 0; j < d; ++j) m(i, j) = rng.Uniform(-50, 50);
  return m;
}

// A sorted random subset of [0, d) with `count` dimensions, like the
// ascending lists FindDimensions emits.
std::vector<uint32_t> RandomDims(Rng& rng, size_t d, size_t count) {
  std::vector<uint32_t> all(d);
  for (size_t j = 0; j < d; ++j) all[j] = static_cast<uint32_t>(j);
  for (size_t j = 0; j < count; ++j) {
    size_t pick = j + static_cast<size_t>(rng.UniformInt(
                          static_cast<uint64_t>(d - j)));
    std::swap(all[j], all[pick]);
  }
  std::vector<uint32_t> dims(all.begin(), all.begin() + count);
  std::sort(dims.begin(), dims.end());
  return dims;
}

TEST(DistanceBatchTest, SegmentalMatchesScalarBitForBit) {
  Rng rng(7001);
  for (size_t rows : kRowCounts) {
    for (size_t d : {size_t{3}, size_t{20}}) {
      const size_t nd = 1 + static_cast<size_t>(rng.UniformInt(d));
      std::vector<uint32_t> dims = RandomDims(rng, d, nd);
      std::vector<double> block = RandomBlock(rng, rows, d);
      std::vector<double> medoid(d);
      for (double& v : medoid) v = rng.Uniform(-50, 50);
      for (bool normalize : {true, false}) {
        std::vector<double> out(rows);
        KernelScratch scratch;
        SegmentalDistanceBatch(block, rows, d, medoid, dims, normalize,
                               scratch, out.data());
        for (size_t r = 0; r < rows; ++r) {
          std::span<const double> point(block.data() + r * d, d);
          const double expected =
              normalize ? ManhattanSegmentalDistance(point, medoid, dims)
                        : RestrictedManhattanDistance(point, medoid, dims);
          ASSERT_EQ(out[r], expected)
              << "rows=" << rows << " d=" << d << " r=" << r
              << " normalize=" << normalize;
        }
      }
    }
  }
}

TEST(DistanceBatchTest, FullDimensionalKernelsMatchScalarBitForBit) {
  Rng rng(7002);
  for (size_t rows : kRowCounts) {
    const size_t d = 11;
    std::vector<double> block = RandomBlock(rng, rows, d);
    std::vector<double> point(d);
    for (double& v : point) v = rng.Uniform(-50, 50);
    std::vector<double> out(rows);
    KernelScratch scratch;

    ManhattanBatch(block, rows, d, point, scratch, out.data());
    for (size_t r = 0; r < rows; ++r) {
      std::span<const double> row(block.data() + r * d, d);
      ASSERT_EQ(out[r], ManhattanDistance(row, point)) << "r=" << r;
    }

    SquaredEuclideanBatch(block, rows, d, point, scratch, out.data());
    for (size_t r = 0; r < rows; ++r) {
      std::span<const double> row(block.data() + r * d, d);
      ASSERT_EQ(out[r], SquaredEuclideanDistance(row, point)) << "r=" << r;
    }

    ChebyshevBatch(block, rows, d, point, scratch, out.data());
    for (size_t r = 0; r < rows; ++r) {
      std::span<const double> row(block.data() + r * d, d);
      ASSERT_EQ(out[r], ChebyshevDistance(row, point)) << "r=" << r;
    }
  }
}

TEST(DistanceBatchTest, ManhattanManyMatchesScalarForEveryReference) {
  Rng rng(7003);
  for (size_t rows : kRowCounts) {
    const size_t d = 9;
    // Odd and even reference counts cover both the paired loop and the
    // leftover single-reference path.
    for (size_t u : {size_t{1}, size_t{2}, size_t{5}}) {
      std::vector<double> block = RandomBlock(rng, rows, d);
      Matrix points = RandomMatrix(rng, u, d);
      std::vector<double> out(u * rows);
      KernelScratch scratch;
      ManhattanManyBatch(block, rows, d, points, scratch, out.data());
      for (size_t m = 0; m < u; ++m) {
        for (size_t r = 0; r < rows; ++r) {
          std::span<const double> row(block.data() + r * d, d);
          ASSERT_EQ(out[m * rows + r], ManhattanDistance(row, points.row(m)))
              << "u=" << u << " m=" << m << " r=" << r;
        }
      }
    }
  }
}

TEST(DistanceBatchTest, SegmentalArgminMatchesScalarIncludingTies) {
  Rng rng(7004);
  for (size_t rows : kRowCounts) {
    const size_t d = 12;
    const size_t k = 4;
    std::vector<double> block = RandomBlock(rng, rows, d);
    Matrix medoids = RandomMatrix(rng, k, d);
    std::vector<std::vector<uint32_t>> dim_lists(k);
    for (size_t i = 0; i < k; ++i)
      dim_lists[i] = RandomDims(rng, d, 3 + i);
    // Duplicate medoid (and dimension list) -> exact distance ties; the
    // strict-< rule must keep the lower index, like the scalar loop.
    medoids.row(2)[0] = medoids.row(1)[0];
    for (size_t j = 0; j < d; ++j) medoids(2, j) = medoids(1, j);
    dim_lists[2] = dim_lists[1];
    std::vector<double> spheres(k);
    for (double& s : spheres) s = rng.Uniform(0, 40);

    std::vector<int> labels(rows);
    KernelScratch scratch;
    SegmentalArgminBatch(block, rows, d, medoids, dim_lists,
                         /*normalize=*/true, spheres, scratch, labels.data());
    for (size_t r = 0; r < rows; ++r) {
      std::span<const double> point(block.data() + r * d, d);
      double best = std::numeric_limits<double>::infinity();
      int best_i = 0;
      bool inside = false;
      for (size_t i = 0; i < k; ++i) {
        const double dist =
            ManhattanSegmentalDistance(point, medoids.row(i), dim_lists[i]);
        inside = inside || dist <= spheres[i];
        if (dist < best) {
          best = dist;
          best_i = static_cast<int>(i);
        }
      }
      ASSERT_EQ(labels[r], best_i) << "rows=" << rows << " r=" << r;
      ASSERT_EQ(scratch.best[r], best) << "rows=" << rows << " r=" << r;
      ASSERT_EQ(scratch.inside[r] != 0, inside)
          << "rows=" << rows << " r=" << r;
    }
  }
}

TEST(DistanceBatchTest, SquaredEuclideanArgminMatchesScalar) {
  Rng rng(7005);
  for (size_t rows : kRowCounts) {
    const size_t d = 8;
    for (size_t k : {size_t{1}, size_t{2}, size_t{5}}) {
      std::vector<double> block = RandomBlock(rng, rows, d);
      std::vector<std::vector<double>> centers(k);
      for (std::vector<double>& center : centers) {
        center.resize(d);
        for (double& v : center) v = rng.Uniform(-50, 50);
      }
      std::vector<int> labels(rows);
      KernelScratch scratch;
      SquaredEuclideanArgminBatch(block, rows, d, centers, scratch,
                                  labels.data());
      for (size_t r = 0; r < rows; ++r) {
        std::span<const double> point(block.data() + r * d, d);
        double best = std::numeric_limits<double>::infinity();
        int best_i = 0;
        for (size_t c = 0; c < k; ++c) {
          const double d2 = SquaredEuclideanDistance(point, centers[c]);
          if (d2 < best) {
            best = d2;
            best_i = static_cast<int>(c);
          }
        }
        ASSERT_EQ(labels[r], best_i) << "k=" << k << " r=" << r;
        ASSERT_EQ(scratch.best[r], best) << "k=" << k << " r=" << r;
      }
    }
  }
}

TEST(DistanceBatchTest, MetricArgminMatchesScalarForAllMetrics) {
  Rng rng(7006);
  for (MetricKind metric : {MetricKind::kManhattan, MetricKind::kEuclidean,
                            MetricKind::kChebyshev}) {
    for (size_t rows : {size_t{1}, size_t{513}, kKernelRowTile + 9}) {
      const size_t d = 6;
      const size_t k = 3;
      std::vector<double> block = RandomBlock(rng, rows, d);
      Matrix medoids = RandomMatrix(rng, k, d);
      std::vector<int> labels(rows);
      KernelScratch scratch;
      MetricArgminBatch(block, rows, d, metric, medoids, scratch,
                        labels.data());
      for (size_t r = 0; r < rows; ++r) {
        std::span<const double> point(block.data() + r * d, d);
        double best = std::numeric_limits<double>::infinity();
        int best_i = 0;
        for (size_t m = 0; m < k; ++m) {
          const double dist = Distance(metric, point, medoids.row(m));
          if (dist < best) {
            best = dist;
            best_i = static_cast<int>(m);
          }
        }
        ASSERT_EQ(labels[r], best_i)
            << "metric=" << static_cast<int>(metric) << " r=" << r;
        ASSERT_EQ(scratch.best[r], best)
            << "metric=" << static_cast<int>(metric) << " r=" << r;
      }
    }
  }
}

// Scalar strict-< argmin over full-dimensional references: the loop the
// batched argmin kernels must reproduce, lower index winning every tie.
template <typename DistFn>
void ScalarArgmin(std::span<const double> point, size_t k, DistFn dist,
                  int* label, double* best) {
  *best = std::numeric_limits<double>::infinity();
  *label = 0;
  for (size_t m = 0; m < k; ++m) {
    const double value = dist(point, m);
    if (value < *best) {
      *best = value;
      *label = static_cast<int>(m);
    }
  }
}

TEST(DistanceBatchTest, ArgminTiesAndNearTiesMatchScalar) {
  // A duplicated medoid ties exactly on every row and a one-ulp nudge
  // creates rounding-scale near-ties; the batched kernels must resolve
  // both through the scalar strict-< path, so labels AND winning
  // distances match bit for bit, for every metric and the Lloyd twin.
  Rng rng(7010);
  const size_t d = 64;
  const size_t k = 5;
  for (size_t rows : {size_t{1}, size_t{257}, kKernelRowTile + 33}) {
    std::vector<double> block = RandomBlock(rng, rows, d);
    Matrix medoids = RandomMatrix(rng, k, d);
    for (size_t j = 0; j < d; ++j) medoids(2, j) = medoids(1, j);
    for (size_t j = 0; j < d; ++j) medoids(4, j) = medoids(3, j);
    medoids(4, 17) =
        std::nextafter(medoids(4, 17), std::numeric_limits<double>::max());

    for (MetricKind metric : {MetricKind::kManhattan, MetricKind::kEuclidean,
                              MetricKind::kChebyshev}) {
      std::vector<int> labels(rows);
      KernelScratch scratch;
      MetricArgminBatch(block, rows, d, metric, medoids, scratch,
                        labels.data());
      for (size_t r = 0; r < rows; ++r) {
        int label = 0;
        double best = 0.0;
        ScalarArgmin(
            std::span<const double>(block.data() + r * d, d), k,
            [&](std::span<const double> p, size_t m) {
              return Distance(metric, p, medoids.row(m));
            },
            &label, &best);
        ASSERT_EQ(labels[r], label)
            << "metric=" << static_cast<int>(metric) << " r=" << r;
        ASSERT_EQ(scratch.best[r], best)
            << "metric=" << static_cast<int>(metric) << " r=" << r;
      }
    }

    std::vector<std::vector<double>> centers(k);
    for (size_t c = 0; c < k; ++c)
      centers[c].assign(medoids.row(c).begin(), medoids.row(c).end());
    std::vector<int> labels(rows);
    KernelScratch scratch;
    SquaredEuclideanArgminBatch(block, rows, d, centers, scratch,
                                labels.data());
    for (size_t r = 0; r < rows; ++r) {
      int label = 0;
      double best = 0.0;
      ScalarArgmin(
          std::span<const double>(block.data() + r * d, d), k,
          [&](std::span<const double> p, size_t c) {
            return SquaredEuclideanDistance(p, centers[c]);
          },
          &label, &best);
      ASSERT_EQ(labels[r], label) << "rows=" << rows << " r=" << r;
      ASSERT_EQ(scratch.best[r], best) << "rows=" << rows << " r=" << r;
    }
  }
}

TEST(DistanceBatchTest, SegmentalArgminTiedListsMatchScalar) {
  // Dimension lists of different lengths, and an exact tie: medoid 3
  // mirrors medoid 2 on an identical list. Normalized and restricted
  // distances, with and without spheres.
  Rng rng(7011);
  const size_t d = 40;
  const size_t k = 4;
  for (size_t rows : {size_t{1}, size_t{513}, kKernelRowTile + 9}) {
    std::vector<double> block = RandomBlock(rng, rows, d);
    Matrix medoids = RandomMatrix(rng, k, d);
    std::vector<std::vector<uint32_t>> dim_lists(k);
    for (size_t i = 0; i < k; ++i) dim_lists[i] = RandomDims(rng, d, 3 + 5 * i);
    for (size_t j = 0; j < d; ++j) medoids(3, j) = medoids(2, j);
    dim_lists[3] = dim_lists[2];
    std::vector<double> spheres(k);
    for (double& sphere : spheres) sphere = rng.Uniform(0, 30);

    for (bool normalize : {true, false}) {
      for (bool with_spheres : {true, false}) {
        std::span<const double> sph =
            with_spheres ? std::span<const double>(spheres)
                         : std::span<const double>();
        std::vector<int> labels(rows);
        KernelScratch scratch;
        SegmentalArgminBatch(block, rows, d, medoids, dim_lists, normalize,
                             sph, scratch, labels.data());
        for (size_t r = 0; r < rows; ++r) {
          std::span<const double> point(block.data() + r * d, d);
          bool inside = false;
          int label = 0;
          double best = 0.0;
          ScalarArgmin(
              point, k,
              [&](std::span<const double> p, size_t i) {
                const double dist =
                    normalize
                        ? ManhattanSegmentalDistance(p, medoids.row(i),
                                                     dim_lists[i])
                        : RestrictedManhattanDistance(p, medoids.row(i),
                                                      dim_lists[i]);
                inside = inside || dist <= spheres[i];
                return dist;
              },
              &label, &best);
          ASSERT_EQ(labels[r], label)
              << "rows=" << rows << " normalize=" << normalize
              << " spheres=" << with_spheres << " r=" << r;
          ASSERT_EQ(scratch.best[r], best) << "r=" << r;
          if (with_spheres) {
            ASSERT_EQ(scratch.inside[r] != 0, inside) << "r=" << r;
          }
        }
      }
    }
  }
}

TEST(DistanceBatchTest, ManhattanManyNearDuplicateReferenceMatchesScalar) {
  // The locality scan divides each column by d after the kernel; that
  // must equal the scalar full-space segmental distance even for a
  // reference one 1e-12 nudge away from a row (a distance dominated by
  // rounding noise against coordinates of magnitude ~50).
  Rng rng(7012);
  const size_t rows = 300;
  const size_t d = 64;
  const size_t u = 4;
  std::vector<double> block = RandomBlock(rng, rows, d);
  Matrix points = RandomMatrix(rng, u, d);
  for (size_t j = 0; j < d; ++j) points(3, j) = block[j];
  points(3, 0) += 1e-12;
  std::vector<double> out(u * rows);
  KernelScratch scratch;
  ManhattanManyBatch(block, rows, d, points, scratch, out.data());
  const double denom = static_cast<double>(d);
  for (size_t m = 0; m < u; ++m) {
    for (size_t r = 0; r < rows; ++r) {
      std::span<const double> row(block.data() + r * d, d);
      ASSERT_EQ(out[m * rows + r] / denom,
                ManhattanDistance(row, points.row(m)) / denom)
          << "m=" << m << " r=" << r;
    }
  }
}

TEST(DistanceBatchTest, WideMetricArgminSweepMatchesScalar) {
  // Randomized (seed, d, rows, k) shapes at the wide dimensionalities the
  // full-dimensional baselines run at.
  for (uint64_t seed : {21ull, 22ull, 23ull, 24ull, 25ull}) {
    Rng rng(seed * 1000 + 7);
    for (size_t d : {size_t{32}, size_t{64}, size_t{130}}) {
      const size_t rows =
          1 + static_cast<size_t>(rng.UniformInt(2 * kKernelRowTile));
      const size_t k = 2 + static_cast<size_t>(rng.UniformInt(6));
      std::vector<double> block = RandomBlock(rng, rows, d);
      Matrix medoids = RandomMatrix(rng, k, d);
      std::vector<int> labels(rows);
      KernelScratch scratch;
      MetricArgminBatch(block, rows, d, MetricKind::kManhattan, medoids,
                        scratch, labels.data());
      for (size_t r = 0; r < rows; ++r) {
        int label = 0;
        double best = 0.0;
        ScalarArgmin(
            std::span<const double>(block.data() + r * d, d), k,
            [&](std::span<const double> p, size_t m) {
              return ManhattanDistance(p, medoids.row(m));
            },
            &label, &best);
        ASSERT_EQ(labels[r], label)
            << "seed=" << seed << " d=" << d << " r=" << r;
        ASSERT_EQ(scratch.best[r], best) << "r=" << r;
      }
    }
  }
}

TEST(DistanceBatchTest, LabeledAbsDeviationMatchesScalarAndSkipsOutliers) {
  Rng rng(7007);
  const size_t rows = 777;
  const size_t d = 10;
  const size_t k = 3;
  std::vector<double> block = RandomBlock(rng, rows, d);
  Matrix refs = RandomMatrix(rng, k, d);
  std::vector<int> labels(rows);
  for (int& label : labels) {
    const uint64_t pick = rng.UniformInt(k + 1);
    label = pick == k ? -1 : static_cast<int>(pick);  // -1 = outlier
  }

  std::vector<double> sums(k * d, 0.0);
  std::vector<size_t> count(k, 0);
  KernelScratch scratch;
  LabeledAbsDeviationBatch(block, rows, d, labels.data(), refs, scratch,
                           sums.data(), count.data());

  std::vector<double> expected_sums(k * d, 0.0);
  std::vector<size_t> expected_count(k, 0);
  for (size_t r = 0; r < rows; ++r) {
    if (labels[r] < 0) continue;
    const size_t i = static_cast<size_t>(labels[r]);
    for (size_t j = 0; j < d; ++j) {
      double diff = block[r * d + j] - refs(i, j);
      expected_sums[i * d + j] += diff < 0 ? -diff : diff;
    }
    ++expected_count[i];
  }
  EXPECT_EQ(sums, expected_sums);
  EXPECT_EQ(count, expected_count);
}

TEST(DistanceBatchTest, ResultsIndependentOfBatchSplit) {
  // Splitting the same rows into arbitrary batch boundaries (including
  // B=1) must not change a single bit: the engine's block size is a
  // tuning knob, never a results knob.
  Rng rng(7008);
  const size_t rows = kKernelRowTile + 321;
  const size_t d = 13;
  const size_t k = 4;
  std::vector<double> block = RandomBlock(rng, rows, d);
  Matrix medoids = RandomMatrix(rng, k, d);
  std::vector<std::vector<uint32_t>> dim_lists(k);
  for (size_t i = 0; i < k; ++i) dim_lists[i] = RandomDims(rng, d, 4);

  std::vector<int> whole_labels(rows);
  std::vector<double> whole_best(rows);
  KernelScratch scratch;
  SegmentalArgminBatch(block, rows, d, medoids, dim_lists,
                       /*normalize=*/true, /*spheres=*/{}, scratch,
                       whole_labels.data());
  std::copy(scratch.best.begin(), scratch.best.end(), whole_best.begin());

  for (size_t batch : {size_t{1}, size_t{17}, size_t{1000}}) {
    std::vector<int> labels(rows);
    std::vector<double> best(rows);
    KernelScratch split_scratch;
    for (size_t first = 0; first < rows; first += batch) {
      const size_t n = std::min(batch, rows - first);
      SegmentalArgminBatch(
          std::span<const double>(block.data() + first * d, n * d), n, d,
          medoids, dim_lists, /*normalize=*/true, /*spheres=*/{},
          split_scratch, labels.data() + first);
      std::copy(split_scratch.best.begin(), split_scratch.best.begin() + n,
                best.begin() + first);
    }
    EXPECT_EQ(labels, whole_labels) << "batch=" << batch;
    EXPECT_EQ(best, whole_best) << "batch=" << batch;
  }
}

TEST(DistanceBatchTest, CountersTrackRowsAndTileReuse) {
  Rng rng(7009);
  const size_t rows = 100;
  const size_t d = 5;
  const size_t u = 4;
  std::vector<double> block = RandomBlock(rng, rows, d);
  Matrix points = RandomMatrix(rng, u, d);
  std::vector<double> out(u * rows);
  KernelScratch scratch;
  ManhattanManyBatch(block, rows, d, points, scratch, out.data());
  EXPECT_EQ(scratch.batches, 1u);
  EXPECT_EQ(scratch.rows_scored, rows * u);
  // One sub-tile (rows < kKernelRowTile) folded over by u references ->
  // u - 1 reuses.
  EXPECT_EQ(scratch.tile_hits, u - 1);
}

}  // namespace
}  // namespace proclus
