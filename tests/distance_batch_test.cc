// Property tests: every batched kernel in distance/batch.h must be
// bit-identical to its per-point scalar reference — not approximately
// equal — for randomized sizes, dimension counts, and batch splits. The
// kernels' whole design contract is that tiling only reorders work
// across points, never within one, so EXPECT_EQ on doubles is the right
// assertion: any reassociation shows up as an exact-inequality failure.

#include "distance/batch.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <span>
#include <string>
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
  // Three references, each on its own dimension list, scored in a listed
  // order that skips one: every scattered column must be the scalar
  // distance of its own reference.
  Rng rng(7001);
  for (size_t rows : kRowCounts) {
    for (size_t d : {size_t{3}, size_t{20}}) {
      Matrix refs = RandomMatrix(rng, 3, d);
      std::vector<std::vector<uint32_t>> dims(3);
      for (std::vector<uint32_t>& list : dims)
        list = RandomDims(rng, d, 1 + static_cast<size_t>(rng.UniformInt(d)));
      std::vector<double> block = RandomBlock(rng, rows, d);
      const std::vector<size_t> listed = {2, 0};
      for (bool normalize : {true, false}) {
        std::vector<std::vector<double>> out(2, std::vector<double>(rows));
        std::vector<double*> outs = {out[0].data(), out[1].data()};
        KernelScratch scratch;
        SegmentalDistanceBatch(block, rows, d, refs, listed, dims, normalize,
                               scratch, outs);
        EXPECT_EQ(scratch.rows_scored, 2 * rows);
        for (size_t f = 0; f < listed.size(); ++f) {
          const size_t m = listed[f];
          for (size_t r = 0; r < rows; ++r) {
            std::span<const double> point(block.data() + r * d, d);
            const double expected =
                normalize
                    ? ManhattanSegmentalDistance(point, refs.row(m), dims[m])
                    : RestrictedManhattanDistance(point, refs.row(m),
                                                  dims[m]);
            ASSERT_EQ(out[f][r], expected)
                << "rows=" << rows << " d=" << d << " ref=" << m
                << " r=" << r << " normalize=" << normalize;
          }
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

    SquaredEuclideanBatch(block, rows, d, point, scratch, out.data());
    for (size_t r = 0; r < rows; ++r) {
      std::span<const double> row(block.data() + r * d, d);
      ASSERT_EQ(out[r], SquaredEuclideanDistance(row, point)) << "r=" << r;
    }
  }
}

TEST(DistanceBatchTest, ManhattanManyMatchesScalarForEveryReference) {
  // Shapes around the kernel's 8-row groups and 8 x 8 register blocks:
  // d below, at and past one block; rows below, at and past one group,
  // past a kKernelRowTile sub-tile and past a scan block; reference
  // counts that leave every remainder of the four references a group
  // folds at once. A third of the rows and references carry one of
  // -0.0, a subnormal, an infinity or a NaN, and results are compared as
  // bit patterns.
  const double specials[] = {-0.0,
                             0.0,
                             std::numeric_limits<double>::denorm_min(),
                             -std::numeric_limits<double>::denorm_min(),
                             1e-310,
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN(),
                             -std::numeric_limits<double>::quiet_NaN()};
  Rng rng(7003);
  auto sprinkle = [&](std::span<double> values) {
    if (rng.UniformInt(3) != 0) return;
    values[rng.UniformInt(values.size())] =
        specials[rng.UniformInt(std::size(specials))];
  };
  for (size_t d : {1, 2, 7, 8, 9, 16, 17, 200}) {
    for (size_t rows : {1, 7, 8, 9, 1025, 8193}) {
      std::vector<double> block = RandomBlock(rng, rows, d);
      for (size_t r = 0; r < rows; ++r)
        sprinkle(std::span<double>(block.data() + r * d, d));
      for (size_t u : {1, 2, 3, 5, 8, 9, 17}) {
        Matrix points = RandomMatrix(rng, u, d);
        for (size_t m = 0; m < u; ++m) sprinkle(points.row(m));
        std::vector<double> out(u * rows);
        KernelScratch scratch;
        ManhattanManyBatch(block, rows, d, points, scratch, out.data());
        for (size_t m = 0; m < u; ++m) {
          for (size_t r = 0; r < rows; ++r) {
            std::span<const double> row(block.data() + r * d, d);
            ASSERT_EQ(std::bit_cast<uint64_t>(out[m * rows + r]),
                      std::bit_cast<uint64_t>(
                          ManhattanDistance(row, points.row(m))))
                << "d=" << d << " rows=" << rows << " u=" << u << " m=" << m
                << " r=" << r;
          }
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

// This test, ArgminTiesAndNearTiesMatchScalar,
// WideMetricArgminSweepMatchesScalar and
// FullDimensionalKernelsMatchScalarBitForBit are the runtime check that
// floating-point contraction stays off in the kernels: on a CPU with FMA
// (x86-64-v3 and up), kernel clones built without -ffp-contract=off fuse
// `acc + diff * diff` in the squared-Euclidean kernels, and all four
// fail. The PROCLUS kernels multiply nothing, so the fit goldens cannot
// catch it.
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

// With SquaredEuclideanArgminMatchesScalar, the runtime check that
// contraction stays off (see the comment there).
TEST(DistanceBatchTest, ArgminTiesAndNearTiesMatchScalar) {
  // A duplicated center ties exactly on every row and a one-ulp nudge
  // creates rounding-scale near-ties; the batched Lloyd argmin must
  // resolve both through the scalar strict-< path, so labels AND winning
  // distances match bit for bit.
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
  // Randomized (seed, d, rows, k) shapes of the Lloyd argmin at the wide
  // dimensionalities the full-dimensional baselines run at.
  for (uint64_t seed : {21ull, 22ull, 23ull, 24ull, 25ull}) {
    Rng rng(seed * 1000 + 7);
    for (size_t d : {size_t{32}, size_t{64}, size_t{130}}) {
      const size_t rows =
          1 + static_cast<size_t>(rng.UniformInt(2 * kKernelRowTile));
      const size_t k = 2 + static_cast<size_t>(rng.UniformInt(6));
      std::vector<double> block = RandomBlock(rng, rows, d);
      std::vector<std::vector<double>> centers(k, std::vector<double>(d));
      for (std::vector<double>& center : centers)
        for (double& v : center) v = rng.Uniform(-50, 50);
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
        ASSERT_EQ(labels[r], label)
            << "seed=" << seed << " d=" << d << " r=" << r;
        ASSERT_EQ(scratch.best[r], best) << "r=" << r;
      }
    }
  }
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

// ---- Kernels that replaced per-row loops of the scan consumers ----
//
// Each Scalar* function below is the loop core/consumers.cc ran inside
// ConsumeBlock before the loop became a batch kernel, copied verbatim
// apart from names. The kernels must match them bit for bit, so results
// are compared as bit patterns: a +0.0 where the loop kept -0.0 fails.

// Ragged row counts: one row, the vector remainders around the sub-tile
// size, and one row past the default scan block.
const size_t kRaggedRows[] = {1, 1023, 1025, 8193};

std::vector<uint64_t> Bits(const std::vector<double>& values) {
  std::vector<uint64_t> bits(values.size());
  for (size_t i = 0; i < values.size(); ++i)
    bits[i] = std::bit_cast<uint64_t>(values[i]);
  return bits;
}

// LocalityStatsConsumer::ConsumeBlock's accumulation loop.
void ScalarLocalityLoop(std::span<const double> data, size_t rows, size_t d,
                        const Matrix& medoids,
                        const std::vector<size_t>& acc_medoid,
                        const std::vector<const double*>& cols,
                        const std::vector<double>& acc_delta,
                        double* partial_sums, size_t* partial_count) {
  const size_t num_acc = acc_medoid.size();
  for (size_t r = 0; r < rows; ++r) {
    std::span<const double> point = data.subspan(r * d, d);
    for (size_t a = 0; a < num_acc; ++a) {
      if (cols[a][r] <= acc_delta[a]) {
        auto medoid = medoids.row(acc_medoid[a]);
        double* sums = partial_sums + a * d;
        for (size_t j = 0; j < d; ++j) {
          double diff = point[j] - medoid[j];
          sums[j] += diff < 0 ? -diff : diff;
        }
        ++partial_count[a];
      }
    }
  }
}

// The centroid loop LabeledSumBatch replaced in AssignConsumer's
// ConsumeBlock (the assignment and the refinement) and k-means' Lloyd
// step.
void ScalarLabeledSumLoop(std::span<const double> data, size_t rows,
                          size_t d, const int* labels, double* partial_sums,
                          size_t* partial_count) {
  for (size_t r = 0; r < rows; ++r) {
    int label = labels[r];
    if (label == -1) continue;  // kOutlierLabel
    size_t i = static_cast<size_t>(label);
    std::span<const double> point = data.subspan(r * d, d);
    double* sums = partial_sums + i * d;
    for (size_t j = 0; j < d; ++j) sums[j] += point[j];
    ++partial_count[i];
  }
}

// The per-row deviation loop of the refinement's cluster statistics and
// of DeviationConsumer before it summed each cluster's own dimensions
// only: |diff| written as `diff < 0 ? -diff : diff`, all d dimensions.
void ScalarLabeledAbsDeviationLoop(std::span<const double> data, size_t rows,
                                   size_t d, const int* labels,
                                   const Matrix& refs, double* partial_sums) {
  for (size_t r = 0; r < rows; ++r) {
    if (labels[r] < 0) continue;
    const size_t i = static_cast<size_t>(labels[r]);
    double* sums = partial_sums + i * d;
    for (size_t j = 0; j < d; ++j) {
      double diff = data[r * d + j] - refs(i, j);
      sums[j] += diff < 0 ? -diff : diff;
    }
  }
}

// Dimensionalities of the restricted kernels' cases: below one 8-lane
// group, one group plus one column, two and a half groups, and
// perfbench mem_d200's d, whose full list takes several passes.
const size_t kRestrictedDims[] = {2, 9, 20, 200};

// Special values the walk kernels' cases sprinkle into rows and
// references: signed zeros, subnormals, +-inf and NaN.
// The NaN is the one x86 arithmetic makes (inf - inf: sign set, quiet),
// so every NaN a sum meets has one bit pattern. When an addition's two
// operands are NaNs of different patterns, which one it returns follows
// the operand order the compiler picked, which C++ leaves open; such a
// sum has no defined bits in the per-row loop either.
const double kSpecials[] = {-0.0,
                            0.0,
                            std::numeric_limits<double>::denorm_min(),
                            -3 * std::numeric_limits<double>::denorm_min(),
                            std::numeric_limits<double>::min() / 4,
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::quiet_NaN()};

// Replaces about one value in `one_in` with a special value.
void SprinkleSpecials(Rng& rng, std::span<double> values, uint64_t one_in) {
  for (double& v : values)
    if (rng.UniformInt(one_in) == 0)
      v = kSpecials[rng.UniformInt(std::size(kSpecials))];
}

// One case for the restricted labeled kernels: a label per list length
// in {1, 2, 7, 8, 9, 16, 17, d} that fits in d, a label with an empty
// list, and a last label that gets no rows; outliers (-1) among the
// rows; and kSpecials in the block and the references.
struct RestrictedCase {
  size_t k = 0;
  std::vector<double> block;
  std::vector<int> labels;
  Matrix refs;
  std::vector<std::vector<uint32_t>> dim_lists;
};

RestrictedCase MakeRestrictedCase(Rng& rng, size_t rows, size_t d) {
  RestrictedCase c;
  for (size_t length : {size_t{1}, size_t{2}, size_t{7}, size_t{8},
                        size_t{9}, size_t{16}, size_t{17}})
    if (length < d) c.dim_lists.push_back(RandomDims(rng, d, length));
  c.dim_lists.push_back(RandomDims(rng, d, d));
  c.dim_lists.emplace_back();  // Rows are counted, nothing is summed.
  c.dim_lists.push_back(RandomDims(rng, d, 1 + d / 2));  // No rows.
  c.k = c.dim_lists.size();
  c.labels.resize(rows);
  for (int& label : c.labels)
    label = static_cast<int>(rng.UniformInt(c.k)) - 1;  // k - 1: none.
  c.block = RandomBlock(rng, rows, d);
  c.refs = RandomMatrix(rng, c.k, d);
  SprinkleSpecials(rng, c.block, 64);
  SprinkleSpecials(rng, c.refs.data(), 16);
  // Row 0 repeats label 0's reference with its zero signs flipped, so the
  // deviation adds -0.0 terms to a -0.0 partial.
  c.labels[0] = 0;
  for (size_t j = 0; j < d; ++j) {
    c.refs(0, j) = j % 2 == 0 ? 0.0 : -0.0;
    c.block[j] = j % 2 == 0 ? -0.0 : 0.0;
  }
  return c;
}

// `got` must hold `want`'s bits on each label's listed entries and keep
// its starting -0.0 everywhere else.
void ExpectListedBitsAndUntouchedRest(const RestrictedCase& c, size_t d,
                                      const std::vector<double>& want,
                                      const std::vector<double>& got) {
  for (size_t i = 0; i < c.k; ++i) {
    std::vector<bool> listed(d, false);
    for (uint32_t j : c.dim_lists[i]) listed[j] = true;
    for (size_t j = 0; j < d; ++j) {
      const uint64_t expected =
          std::bit_cast<uint64_t>(listed[j] ? want[i * d + j] : -0.0);
      ASSERT_EQ(std::bit_cast<uint64_t>(got[i * d + j]), expected)
          << "d=" << d << " rows=" << c.labels.size() << " label=" << i
          << " |list|=" << c.dim_lists[i].size() << " j=" << j
          << (listed[j] ? " (listed)" : " (not listed)");
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
  ScalarLabeledAbsDeviationLoop(block, rows, d, labels.data(), refs,
                                expected_sums.data());
  for (int label : labels)
    if (label >= 0) ++expected_count[static_cast<size_t>(label)];
  EXPECT_EQ(sums, expected_sums);
  EXPECT_EQ(count, expected_count);

  // The restricted kernel over the same loop's entries on each label's
  // own list: special values, ragged rows, an empty label, partials at
  // -0.0 (RestrictedCase).
  for (size_t d_case : kRestrictedDims) {
    for (size_t rows_case : kRaggedRows) {
      RestrictedCase c = MakeRestrictedCase(rng, rows_case, d_case);
      std::vector<double> want(c.k * d_case, -0.0);
      ScalarLabeledAbsDeviationLoop(c.block, rows_case, d_case,
                                    c.labels.data(), c.refs, want.data());
      KernelScratch groups;
      GroupRowsByLabel(c.labels.data(), rows_case, c.k, groups);
      std::vector<double> got(c.k * d_case, -0.0);
      KernelScratch counters;
      RestrictedLabeledAbsDeviationBatch(c.block, rows_case, d_case, c.refs,
                                         c.dim_lists, groups, counters,
                                         got.data());
      EXPECT_EQ(counters.batches, 1u);
      EXPECT_EQ(counters.rows_scored, rows_case);
      ExpectListedBitsAndUntouchedRest(c, d_case, want, got);
    }
  }
}

TEST(DistanceBatchTest, LocalityAbsDeviationMatchesConsumerLoop) {
  Rng rng(7011);
  // One scratch for every call, as a block's consumer scratch is reused:
  // its member list must follow each call's row count.
  KernelScratch scratch;
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // Acc rows as the consumer's row plan builds them: medoid 2 twice
  // under two radii, medoid 1 with a radius no row is within, and medoid
  // 4 with one every row is within.
  const std::vector<size_t> acc_medoid = {0, 2, 2, 1, 3, 4};
  const std::vector<double> acc_delta = {40.0, 25.0, 60.0, -1.0, 50.0, inf};
  const size_t num_acc = acc_medoid.size();
  const size_t kEveryRow = 5;
  // d crosses the walk's 8-lane groups and its 32-column passes.
  const size_t kDims[] = {1, 2, 7, 8, 9, 16, 17, 31, 32, 33, 40, 200};
  for (size_t rows : kRaggedRows) {
    for (size_t d : kDims) {
      std::vector<double> block = RandomBlock(rng, rows, d);
      Matrix medoids = RandomMatrix(rng, 5, d);
      SprinkleSpecials(rng, block, 64);
      SprinkleSpecials(rng, medoids.data(), 16);
      // Signed zeros: medoid 0 alternates +0.0 and -0.0 and row 0 holds
      // the opposite signs, so the walk adds -0.0 and +0.0 terms.
      for (size_t j = 0; j < d; ++j) medoids(0, j) = j % 2 == 0 ? 0.0 : -0.0;
      for (size_t j = 0; j < d; ++j) block[j] = j % 2 == 0 ? -0.0 : 0.0;
      std::vector<std::vector<double>> dist(num_acc,
                                            std::vector<double>(rows));
      for (std::vector<double>& col : dist)
        for (double& v : col) v = rng.Uniform(0, 100);
      // Rows exactly at the radius are inside (the `<=`); a NaN distance
      // is inside no radius.
      for (size_t a = 0; a < num_acc; ++a) {
        if (a == kEveryRow) continue;
        if (acc_delta[a] >= 0)
          for (size_t r = a; r < rows; r += 7) dist[a][r] = acc_delta[a];
        for (size_t r = a + 3; r < rows; r += 11) dist[a][r] = nan;
      }
      dist[0][0] = 0.0;  // Row 0 lies in medoid 0's locality.
      std::vector<const double*> cols(num_acc);
      for (size_t a = 0; a < num_acc; ++a) cols[a] = dist[a].data();

      // Partials start at -0.0, where a lost zero sign would show. The
      // kernel runs over two consecutive row ranges, as the locality
      // scan runs it tile by tile, into the same partials.
      std::vector<double> sums(num_acc * d, -0.0);
      std::vector<size_t> count(num_acc, 0);
      const size_t split = rows * 2 / 5;
      const std::span<const double> all(block);
      LocalityAbsDeviationBatch(all.first(split * d), split, d, medoids,
                                acc_medoid, cols, acc_delta, scratch,
                                sums.data(), count.data());
      std::vector<const double*> rest(num_acc);
      for (size_t a = 0; a < num_acc; ++a) rest[a] = cols[a] + split;
      LocalityAbsDeviationBatch(all.subspan(split * d), rows - split, d,
                                medoids, acc_medoid, rest, acc_delta,
                                scratch, sums.data(), count.data());
      std::vector<double> expected_sums(num_acc * d, -0.0);
      std::vector<size_t> expected_count(num_acc, 0);
      ScalarLocalityLoop(block, rows, d, medoids, acc_medoid, cols,
                         acc_delta, expected_sums.data(),
                         expected_count.data());
      ASSERT_EQ(Bits(sums), Bits(expected_sums))
          << "rows=" << rows << " d=" << d;
      ASSERT_EQ(count, expected_count) << "rows=" << rows << " d=" << d;
      EXPECT_EQ(count[3], 0u);
      EXPECT_EQ(count[kEveryRow], rows);
      EXPECT_GE(count[0], 1u);
      EXPECT_EQ(scratch.batches, 0u) << "the walk scores no pairs";
      EXPECT_EQ(scratch.rows_scored, 0u);
    }
  }
}

TEST(DistanceBatchTest, LocalityAbsDeviationWithNoAccRowsWritesNothing) {
  // Every locality row came from the memo: nothing to accumulate.
  Rng rng(7012);
  const size_t rows = 1025;
  const size_t d = 20;
  std::vector<double> block = RandomBlock(rng, rows, d);
  Matrix medoids = RandomMatrix(rng, 3, d);
  KernelScratch scratch;
  LocalityAbsDeviationBatch(block, rows, d, medoids, {}, {}, {}, scratch,
                            /*sums=*/nullptr, /*count=*/nullptr);
}

TEST(DistanceBatchTest, DivideColumnsMatchesConsumerLoop) {
  Rng rng(7013);
  for (size_t rows : kRaggedRows) {
    for (double denom : {3.0, 20.0, 200.0}) {
      std::vector<std::vector<double>> got(3, std::vector<double>(rows));
      for (std::vector<double>& col : got)
        for (double& v : col) v = rng.Uniform(0, 1000);
      got[0][0] = 0.0;
      got[1][rows - 1] = -0.0;
      std::vector<std::vector<double>> want = got;
      std::vector<double*> outs = {got[0].data(), got[1].data(),
                                   got[2].data()};
      DivideColumnsBatch(outs, rows, denom);
      // LocalityStatsConsumer::ConsumeBlock's normalization loop.
      for (size_t f = 0; f < want.size(); ++f) {
        double* col = want[f].data();
        for (size_t r = 0; r < rows; ++r) col[r] /= denom;
      }
      for (size_t f = 0; f < want.size(); ++f)
        ASSERT_EQ(Bits(got[f]), Bits(want[f]))
            << "rows=" << rows << " denom=" << denom << " col=" << f;
    }
  }
}

TEST(DistanceBatchTest, LabeledSumMatchesConsumerLoopAndSkipsOutliers) {
  Rng rng(7014);
  for (size_t rows : kRaggedRows) {
    for (size_t d : {size_t{2}, size_t{20}, size_t{37}}) {
      const size_t k = 4;
      std::vector<double> block = RandomBlock(rng, rows, d);
      block[0] = -0.0;
      // Cluster 3 gets no rows; -1 marks outliers.
      std::vector<int> labels(rows);
      for (int& label : labels)
        label = static_cast<int>(rng.UniformInt(k)) - 1;
      labels[0] = 0;
      std::vector<double> sums(k * d, -0.0);
      std::vector<size_t> count(k, 0);
      LabeledSumBatch(block, rows, d, labels.data(), k, sums.data(),
                      count.data());
      std::vector<double> expected_sums(k * d, -0.0);
      std::vector<size_t> expected_count(k, 0);
      ScalarLabeledSumLoop(block, rows, d, labels.data(),
                           expected_sums.data(), expected_count.data());
      ASSERT_EQ(Bits(sums), Bits(expected_sums))
          << "rows=" << rows << " d=" << d;
      ASSERT_EQ(count, expected_count) << "rows=" << rows << " d=" << d;
      EXPECT_EQ(count[3], 0u);
    }
  }
  // The restricted kernel, which AssignConsumer runs, against the same
  // loop on each label's own list (RestrictedCase).
  for (size_t d : kRestrictedDims) {
    for (size_t rows : kRaggedRows) {
      RestrictedCase c = MakeRestrictedCase(rng, rows, d);
      std::vector<double> want(c.k * d, -0.0);
      std::vector<size_t> want_count(c.k, 0);
      ScalarLabeledSumLoop(c.block, rows, d, c.labels.data(), want.data(),
                           want_count.data());
      KernelScratch groups;
      GroupRowsByLabel(c.labels.data(), rows, c.k, groups);
      std::vector<double> got(c.k * d, -0.0);
      std::vector<size_t> got_count(c.k, 0);
      RestrictedLabeledSumBatch(c.block, d, c.dim_lists, groups, got.data(),
                                got_count.data());
      ExpectListedBitsAndUntouchedRest(c, d, want, got);
      ASSERT_EQ(got_count, want_count) << "rows=" << rows << " d=" << d;
      EXPECT_EQ(got_count.back(), 0u);
    }
  }
}

TEST(DistanceBatchTest, ColumnArgminOverSegmentalColumnsMatchesArgmin) {
  // The cached assignment scores its missing columns with
  // SegmentalDistanceBatch and labels rows with ColumnArgminBatch; the
  // pair must reproduce SegmentalArgminBatch's labels and winning
  // distances bit for bit, ties (medoid 2 mirrors medoid 1) included.
  Rng rng(7021);
  const size_t d = 15;
  for (size_t rows : kRowCounts) {
    for (size_t k : {size_t{1}, size_t{2}, size_t{5}}) {
      std::vector<double> block = RandomBlock(rng, rows, d);
      Matrix medoids = RandomMatrix(rng, k, d);
      std::vector<std::vector<uint32_t>> dim_lists(k);
      for (size_t i = 0; i < k; ++i)
        dim_lists[i] = RandomDims(rng, d, 2 + 3 * i % (d - 1));
      if (k > 2) {
        for (size_t j = 0; j < d; ++j) medoids(2, j) = medoids(1, j);
        dim_lists[2] = dim_lists[1];
      }
      for (bool normalize : {true, false}) {
        std::vector<int> want(rows);
        KernelScratch direct;
        SegmentalArgminBatch(block, rows, d, medoids, dim_lists, normalize,
                             /*spheres=*/{}, direct, want.data());

        std::vector<std::vector<double>> columns(k, std::vector<double>(rows));
        std::vector<const double*> cols(k);
        std::vector<double*> outs(k);
        std::vector<size_t> all(k);
        for (size_t i = 0; i < k; ++i) {
          cols[i] = outs[i] = columns[i].data();
          all[i] = i;
        }
        KernelScratch scratch;
        SegmentalDistanceBatch(block, rows, d, medoids, all, dim_lists,
                               normalize, scratch, outs);
        const uint64_t scored = scratch.rows_scored;
        std::vector<int> got(rows, -7);
        ColumnArgminBatch(cols, rows, scratch, got.data());
        EXPECT_EQ(scratch.rows_scored, scored) << "argmin scores nothing";
        ASSERT_EQ(got, want) << "rows=" << rows << " k=" << k
                             << " normalize=" << normalize;
        ASSERT_EQ(Bits(scratch.best), Bits(direct.best))
            << "rows=" << rows << " k=" << k;
      }
    }
  }
}

TEST(DistanceBatchTest, ColumnArgminKeepsTheInfinityStartRule) {
  // Start at +inf with label 0 and compare with strict `<`: a NaN or +inf
  // column never wins, and an exact tie keeps the lower index. Checked
  // against the scalar rule on hand-placed values.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::vector<double>> columns = {
      {nan, inf, 3.0, 1.0, nan, -0.0},
      {2.0, inf, 3.0, nan, nan, 0.0},
      {1.0, 5.0, 2.0, 1.0, nan, -1.0}};
  const size_t rows = columns[0].size();
  std::vector<const double*> cols;
  for (const std::vector<double>& col : columns) cols.push_back(col.data());
  std::vector<int> labels(rows, -7);
  KernelScratch scratch;
  ColumnArgminBatch(cols, rows, scratch, labels.data());
  for (size_t r = 0; r < rows; ++r) {
    double best = inf;
    int label = 0;
    for (size_t i = 0; i < columns.size(); ++i)
      if (columns[i][r] < best) {
        best = columns[i][r];
        label = static_cast<int>(i);
      }
    EXPECT_EQ(labels[r], label) << "r=" << r;
    EXPECT_EQ(std::bit_cast<uint64_t>(scratch.best[r]),
              std::bit_cast<uint64_t>(best))
        << "r=" << r;
  }
  EXPECT_EQ(labels, (std::vector<int>{2, 2, 2, 0, 0, 2}));
}

TEST(DistanceBatchTest, FullSetSegmentalColumnIsTheLocalityColumn) {
  // A normalized assignment column over all d dimensions and the
  // locality's full-space column (ManhattanManyBatch, then / d) share one
  // cache key, so their bits must agree — signed zeros included, where
  // the segmental fold keeps a -0.0 term and std::fabs does not.
  Rng rng(7022);
  for (size_t d : {size_t{3}, size_t{20}}) {
    for (size_t rows : kRaggedRows) {
      std::vector<double> block = RandomBlock(rng, rows, d);
      Matrix medoid = RandomMatrix(rng, 1, d);
      medoid(0, 0) = 0.0;
      for (size_t r = 0; r < rows; r += 3) block[r * d] = -0.0;
      std::vector<uint32_t> all(d);
      for (size_t j = 0; j < d; ++j) all[j] = static_cast<uint32_t>(j);

      std::vector<double> segmental(rows);
      KernelScratch scratch;
      const std::vector<std::vector<uint32_t>> lists = {all};
      const std::vector<size_t> first = {0};
      std::vector<double*> outs = {segmental.data()};
      SegmentalDistanceBatch(block, rows, d, medoid, first, lists,
                             /*normalize=*/true, scratch, outs);
      std::vector<double> locality(rows);
      outs = {locality.data()};
      ManhattanManyBatch(block, rows, d, medoid, scratch, outs);
      DivideColumnsBatch(outs, rows, static_cast<double>(d));
      ASSERT_EQ(Bits(segmental), Bits(locality))
          << "d=" << d << " rows=" << rows;
    }
  }
}

TEST(DistanceBatchTest, KernelIsaNamesAKnownClone) {
  const std::string isa = KernelIsa();
  EXPECT_TRUE(isa == "x86-64-v4" || isa == "x86-64-v3" || isa == "baseline")
      << isa;
#if defined(__SANITIZE_THREAD__)
  // ThreadSanitizer builds carry no clones.
  EXPECT_EQ(isa, "baseline");
#endif
}

}  // namespace
}  // namespace proclus
