// Kernel A/B harness: scalar vs batched distance kernels.
//
// Times the per-point scalar kernels (distance/segmental.h,
// distance/metric.h) against the block-batched kernels (distance/batch.h)
// on a block-partitioned input, driving them exactly as the scan
// consumers do: one KernelScratch reused across blocks of
// kDefaultBlockRows. Three kernels are measured at d in {20, 100}, and
// the Manhattan kernel also at perfbench mem_d200's shape (20,000 rows
// of d = 200):
//
//   segmental   - k-medoid argmin assignment on per-medoid dimension
//                 lists (the PROCLUS assignment hot path)
//   manhattan   - full-dimensional Manhattan distances to k reference
//                 points sharing each row read (the locality-statistics
//                 path)
//   sqeuclidean - full-dimensional squared Euclidean argmin (the Lloyd
//                 assignment step)
//
// Two kernels that add rows into sums rather than score them have their
// own cells, each with the per-row loop it replaced, transcribed below,
// as its "scalar" side:
//
//   evaluation  - the two sums of Figure 6 at mem_d200's shape (five
//                 clusters of ten dimensions, 5% outliers): the
//                 full-width per-row loops the consumers once ran, against
//                 GroupRowsByLabel plus the restricted kernels, which add
//                 only each cluster's own columns. Its throughput counts
//                 rows, and its bit-identity covers every listed entry and
//                 the counts. It has no d = 20 twin: there the two sides
//                 tie, and the --smoke rule would fail at random.
//   locality    - the locality sums of Figure 4 (LocalityStatsConsumer):
//                 five medoids, each with the radius 35% of the rows fall
//                 within, over precomputed distance columns. The batched
//                 side calls LocalityAbsDeviationBatch one row tile
//                 (LocalityTileRows) at a time, as the consumer does; sums
//                 and counts must match bit for bit.
//
// Each cell is timed over --reps=N passes of each side (at least 5),
// scalar and batched passes interleaved so that a burst of host load
// lands on both, and reports the throughput of the fastest, median and
// slowest pass, and "speedup median", the scalar median over the batched
// median of the same take: timings of one cell drift together with the
// host's load, so tools/bench_diff.py gates a cell on that ratio alone.
// --json records the kernel clone that ran
// (host.kernel_isa, distance/batch.h KernelIsa). Every batched output
// is checked bit-identical to its scalar reference on every run. --smoke
// additionally asserts that the fastest batched pass is no slower than
// the fastest scalar pass for each configuration, printing every pass
// of both sides and exiting nonzero otherwise — wired into ctest (label
// bench_smoke) so a vectorization regression cannot land silently.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/matrix.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/timer.h"
#include "distance/batch.h"
#include "distance/metric.h"
#include "distance/segmental.h"

namespace {

using namespace proclus;
using namespace proclus::bench;

constexpr size_t kMedoids = 5;
constexpr size_t kSubspaceDims = 7;

struct Input {
  size_t n = 0;
  size_t d = 0;
  std::vector<double> data;                    // n x d row-major
  Matrix medoids;                              // kMedoids x d
  std::vector<std::vector<uint32_t>> dim_lists;  // kMedoids lists
};

Input MakeInput(size_t n, size_t d, uint64_t seed) {
  Input input;
  input.n = n;
  input.d = d;
  Rng rng(seed);
  input.data.resize(n * d);
  for (double& v : input.data) v = rng.Uniform(0, 100);
  input.medoids = Matrix(kMedoids, d);
  for (size_t i = 0; i < kMedoids; ++i)
    for (size_t j = 0; j < d; ++j) input.medoids(i, j) = rng.Uniform(0, 100);
  // Distinct ascending per-medoid dimension lists (stride keeps them
  // within [0, d) without wrapping for the d used here).
  const uint32_t stride = static_cast<uint32_t>(d / kSubspaceDims);
  input.dim_lists.resize(kMedoids);
  for (size_t i = 0; i < kMedoids; ++i)
    for (uint32_t j = 0; j < kSubspaceDims; ++j)
      input.dim_lists[i].push_back(static_cast<uint32_t>(i) + j * stride);
  return input;
}

// Wall times of one side's passes: the fastest, the median and the
// slowest.
struct Spread {
  double best = 0.0;
  double median = 0.0;
  double worst = 0.0;
};

Spread SpreadOf(std::vector<double> seconds) {
  std::sort(seconds.begin(), seconds.end());
  return {seconds.front(), seconds[seconds.size() / 2], seconds.back()};
}

template <typename Fn>
double TimePass(Fn& pass) {
  Timer timer;
  pass();
  return timer.ElapsedSeconds();
}

// Wall times of `reps` passes of each side, in run order. The sides
// alternate pass by pass, and so does which of them goes first.
struct KernelResult {
  std::vector<double> scalar_seconds;
  std::vector<double> batch_seconds;
  bool identical = false;
};

template <typename Scalar, typename Batch>
KernelResult TimeInterleaved(size_t reps, Scalar scalar, Batch batch) {
  KernelResult result;
  result.scalar_seconds.resize(reps);
  result.batch_seconds.resize(reps);
  for (size_t i = 0; i < reps; ++i) {
    if (i % 2 == 0) {
      result.scalar_seconds[i] = TimePass(scalar);
      result.batch_seconds[i] = TimePass(batch);
    } else {
      result.batch_seconds[i] = TimePass(batch);
      result.scalar_seconds[i] = TimePass(scalar);
    }
  }
  return result;
}

// Visits the input in scan-sized blocks, like ScanExecutor does.
template <typename Fn>
void VisitBlocks(const Input& input, Fn fn) {
  for (size_t first = 0; first < input.n; first += kDefaultBlockRows) {
    const size_t rows = std::min(kDefaultBlockRows, input.n - first);
    fn(first, std::span<const double>(input.data.data() + first * input.d,
                                      rows * input.d),
       rows);
  }
}

KernelResult BenchSegmental(const Input& input, size_t reps) {
  const size_t d = input.d;
  std::vector<int> labels_scalar(input.n), labels_batch(input.n);
  std::vector<double> best_scalar(input.n), best_batch(input.n);
  KernelScratch scratch;
  auto scalar = [&] {
    VisitBlocks(input, [&](size_t first, std::span<const double> block,
                            size_t rows) {
      for (size_t r = 0; r < rows; ++r) {
        std::span<const double> point = block.subspan(r * d, d);
        double best = std::numeric_limits<double>::infinity();
        int best_i = 0;
        for (size_t i = 0; i < kMedoids; ++i) {
          double dist = ManhattanSegmentalDistance(point, input.medoids.row(i),
                                                   input.dim_lists[i]);
          if (dist < best) {
            best = dist;
            best_i = static_cast<int>(i);
          }
        }
        labels_scalar[first + r] = best_i;
        best_scalar[first + r] = best;
      }
    });
  };
  auto batch = [&] {
    VisitBlocks(input, [&](size_t first, std::span<const double> block,
                            size_t rows) {
      SegmentalArgminBatch(block, rows, d, input.medoids, input.dim_lists,
                           /*normalize=*/true, /*spheres=*/{}, scratch,
                           labels_batch.data() + first);
      std::copy(scratch.best.begin(), scratch.best.begin() + rows,
                best_batch.begin() + first);
    });
  };
  KernelResult result = TimeInterleaved(reps, scalar, batch);
  result.identical =
      labels_scalar == labels_batch && best_scalar == best_batch;
  return result;
}

KernelResult BenchManhattan(const Input& input, size_t reps) {
  const size_t d = input.d;
  std::vector<double> out_scalar(kMedoids * input.n);
  std::vector<double> out_batch(kMedoids * input.n);
  KernelScratch scratch;
  auto scalar = [&] {
    VisitBlocks(input, [&](size_t first, std::span<const double> block,
                            size_t rows) {
      for (size_t r = 0; r < rows; ++r) {
        std::span<const double> point = block.subspan(r * d, d);
        for (size_t m = 0; m < kMedoids; ++m)
          out_scalar[m * input.n + first + r] =
              ManhattanDistance(point, input.medoids.row(m));
      }
    });
  };
  // The batched path mirrors LocalityStatsConsumer: one many-reference
  // call per block writing an [medoid x row] panel, then a copy into the
  // row-major comparison layout (charged to the batched time).
  std::vector<double> panel(kMedoids * kDefaultBlockRows);
  auto batch = [&] {
    VisitBlocks(input, [&](size_t first, std::span<const double> block,
                            size_t rows) {
      ManhattanManyBatch(block, rows, d, input.medoids, scratch,
                         panel.data());
      for (size_t m = 0; m < kMedoids; ++m)
        std::copy(panel.begin() + m * rows, panel.begin() + (m + 1) * rows,
                  out_batch.begin() + m * input.n + first);
    });
  };
  KernelResult result = TimeInterleaved(reps, scalar, batch);
  result.identical = out_scalar == out_batch;
  return result;
}

KernelResult BenchSquaredEuclidean(const Input& input, size_t reps) {
  const size_t d = input.d;
  std::vector<std::vector<double>> centers(kMedoids);
  for (size_t m = 0; m < kMedoids; ++m) {
    auto row = input.medoids.row(m);
    centers[m].assign(row.begin(), row.end());
  }
  std::vector<int> labels_scalar(input.n), labels_batch(input.n);
  std::vector<double> best_scalar(input.n), best_batch(input.n);
  KernelScratch scratch;
  auto scalar = [&] {
    VisitBlocks(input, [&](size_t first, std::span<const double> block,
                            size_t rows) {
      for (size_t r = 0; r < rows; ++r) {
        std::span<const double> point = block.subspan(r * d, d);
        double best = std::numeric_limits<double>::infinity();
        int best_i = 0;
        for (size_t c = 0; c < kMedoids; ++c) {
          double d2 = SquaredEuclideanDistance(point, centers[c]);
          if (d2 < best) {
            best = d2;
            best_i = static_cast<int>(c);
          }
        }
        labels_scalar[first + r] = best_i;
        best_scalar[first + r] = best;
      }
    });
  };
  auto batch = [&] {
    VisitBlocks(input, [&](size_t first, std::span<const double> block,
                            size_t rows) {
      SquaredEuclideanArgminBatch(block, rows, d, centers, scratch,
                                  labels_batch.data() + first);
      std::copy(scratch.best.begin(), scratch.best.begin() + rows,
                best_batch.begin() + first);
    });
  };
  KernelResult result = TimeInterleaved(reps, scalar, batch);
  result.identical =
      labels_scalar == labels_batch && best_scalar == best_batch;
  return result;
}

// The full-width per-row loops the evaluation ran before it summed each
// cluster's own columns.
void FullWidthSumLoop(std::span<const double> block, size_t rows, size_t d,
                      const int* labels, double* sums, size_t* count) {
  for (size_t r = 0; r < rows; ++r) {
    if (labels[r] < 0) continue;
    const size_t i = static_cast<size_t>(labels[r]);
    const double* point = block.data() + r * d;
    double* acc = sums + i * d;
    for (size_t j = 0; j < d; ++j) acc[j] += point[j];
    ++count[i];
  }
}

void FullWidthDeviationLoop(std::span<const double> block, size_t rows,
                            size_t d, const int* labels, const Matrix& refs,
                            double* sums) {
  for (size_t r = 0; r < rows; ++r) {
    if (labels[r] < 0) continue;
    const size_t i = static_cast<size_t>(labels[r]);
    const double* point = block.data() + r * d;
    const double* ref = refs.row(i).data();
    double* acc = sums + i * d;
    for (size_t j = 0; j < d; ++j) {
      double diff = point[j] - ref[j];
      acc[j] += diff < 0 ? -diff : diff;
    }
  }
}

// The per-row loop LocalityAbsDeviationBatch ran before it walked each
// medoid's member rows.
void LocalityRowLoop(std::span<const double> block, size_t rows, size_t d,
                     const Matrix& refs, const std::vector<const double*>& dists,
                     const std::vector<double>& radii, double* sums,
                     size_t* count) {
  for (size_t r = 0; r < rows; ++r) {
    const double* point = block.data() + r * d;
    for (size_t a = 0; a < radii.size(); ++a) {
      if (dists[a][r] <= radii[a]) {
        const double* ref = refs.row(a).data();
        double* acc = sums + a * d;
        for (size_t j = 0; j < d; ++j) {
          double diff = point[j] - ref[j];
          acc[j] += diff < 0 ? -diff : diff;
        }
        ++count[a];
      }
    }
  }
}

// Per-block partial sums and counts, compared bit for bit.
struct Partials {
  std::vector<double> sums, deviations;
  std::vector<size_t> count;
};

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), [](double x, double y) {
           return std::bit_cast<uint64_t>(x) == std::bit_cast<uint64_t>(y);
         });
}

KernelResult BenchLocality(const Input& input, size_t reps) {
  const size_t d = input.d;
  const size_t n = input.n;
  // Each medoid's full-space segmental distance column, and the radius
  // 35% of the rows fall within.
  const std::span<const double> data(input.data);
  std::vector<std::vector<double>> columns(kMedoids, std::vector<double>(n));
  std::vector<double> radii(kMedoids);
  for (size_t m = 0; m < kMedoids; ++m) {
    for (size_t r = 0; r < n; ++r)
      columns[m][r] = ManhattanDistance(data.subspan(r * d, d),
                                        input.medoids.row(m)) /
                      static_cast<double>(d);
    std::vector<double> sorted = columns[m];
    std::nth_element(sorted.begin(), sorted.begin() + n * 35 / 100,
                     sorted.end());
    radii[m] = sorted[n * 35 / 100];
  }
  std::vector<size_t> ref_rows(kMedoids);
  for (size_t m = 0; m < kMedoids; ++m) ref_rows[m] = m;
  const size_t num_blocks = (n + kDefaultBlockRows - 1) / kDefaultBlockRows;
  std::vector<Partials> loop(num_blocks), walk(num_blocks);
  auto reset = [&](Partials& p) {
    p.sums.assign(kMedoids * d, 0.0);
    p.count.assign(kMedoids, 0);
  };
  std::vector<const double*> cols(kMedoids);
  auto at_row = [&](size_t row) {
    for (size_t m = 0; m < kMedoids; ++m) cols[m] = columns[m].data() + row;
  };
  KernelScratch scratch;
  auto scalar = [&] {
    VisitBlocks(input, [&](size_t first, std::span<const double> block,
                            size_t rows) {
      Partials& p = loop[first / kDefaultBlockRows];
      reset(p);
      at_row(first);
      LocalityRowLoop(block, rows, d, input.medoids, cols, radii,
                      p.sums.data(), p.count.data());
    });
  };
  const size_t tile_rows = LocalityTileRows(d);
  auto batch = [&] {
    VisitBlocks(input, [&](size_t first, std::span<const double> block,
                            size_t rows) {
      Partials& p = walk[first / kDefaultBlockRows];
      reset(p);
      for (size_t t0 = 0; t0 < rows; t0 += tile_rows) {
        const size_t tile = std::min(tile_rows, rows - t0);
        at_row(first + t0);
        LocalityAbsDeviationBatch(block.subspan(t0 * d, tile * d), tile, d,
                                  input.medoids, ref_rows, cols, radii,
                                  scratch, p.sums.data(), p.count.data());
      }
    });
  };
  KernelResult result = TimeInterleaved(reps, scalar, batch);
  result.identical = true;
  for (size_t b = 0; b < num_blocks; ++b)
    if (loop[b].count != walk[b].count || !SameBits(loop[b].sums, walk[b].sums))
      result.identical = false;
  return result;
}

KernelResult BenchEvaluation(const Input& input, size_t reps) {
  const size_t d = input.d;
  const size_t k = kMedoids;
  // mem_d200's lists: ten dimensions per cluster, drawn apart.
  constexpr size_t kEvaluationDims = 10;
  Rng rng(input.n * 31 + d);
  std::vector<std::vector<uint32_t>> dim_lists(k);
  for (std::vector<uint32_t>& list : dim_lists) {
    while (list.size() < kEvaluationDims) {
      const uint32_t j = static_cast<uint32_t>(rng.UniformInt(d));
      if (std::find(list.begin(), list.end(), j) == list.end())
        list.push_back(j);
    }
    std::sort(list.begin(), list.end());
  }
  std::vector<int> labels(input.n);
  for (int& label : labels)
    label = rng.UniformInt(20) == 0 ? -1 : static_cast<int>(rng.UniformInt(k));
  const Matrix& centroids = input.medoids;

  const size_t num_blocks =
      (input.n + kDefaultBlockRows - 1) / kDefaultBlockRows;
  std::vector<Partials> full(num_blocks), restricted(num_blocks);
  auto reset = [&](Partials& p) {
    p.sums.assign(k * d, 0.0);
    p.deviations.assign(k * d, 0.0);
    p.count.assign(k, 0);
  };
  KernelScratch scratch;
  KernelScratch groups;
  auto scalar = [&] {
    VisitBlocks(input, [&](size_t first, std::span<const double> block,
                            size_t rows) {
      Partials& p = full[first / kDefaultBlockRows];
      reset(p);
      const int* block_labels = labels.data() + first;
      FullWidthSumLoop(block, rows, d, block_labels, p.sums.data(),
                       p.count.data());
      FullWidthDeviationLoop(block, rows, d, block_labels, centroids,
                             p.deviations.data());
    });
  };
  auto batch = [&] {
    VisitBlocks(input, [&](size_t first, std::span<const double> block,
                            size_t rows) {
      Partials& p = restricted[first / kDefaultBlockRows];
      reset(p);
      GroupRowsByLabel(labels.data() + first, rows, k, groups);
      RestrictedLabeledSumBatch(block, d, dim_lists, groups, p.sums.data(),
                                p.count.data());
      RestrictedLabeledAbsDeviationBatch(block, rows, d, centroids,
                                         dim_lists, groups, scratch,
                                         p.deviations.data());
    });
  };
  KernelResult result = TimeInterleaved(reps, scalar, batch);
  result.identical = true;
  for (size_t b = 0; b < num_blocks; ++b) {
    if (full[b].count != restricted[b].count) result.identical = false;
    for (size_t i = 0; i < k; ++i) {
      for (uint32_t j : dim_lists[i]) {
        const size_t at = i * d + j;
        if (std::bit_cast<uint64_t>(full[b].sums[at]) !=
                std::bit_cast<uint64_t>(restricted[b].sums[at]) ||
            std::bit_cast<uint64_t>(full[b].deviations[at]) !=
                std::bit_cast<uint64_t>(restricted[b].deviations[at]))
          result.identical = false;
      }
    }
  }
  return result;
}

void PrintPasses(const char* side, const std::vector<double>& seconds) {
  std::fprintf(stderr, "  %s passes (s, in run order):", side);
  for (double s : seconds) std::fprintf(stderr, " %.5f", s);
  std::fprintf(stderr, "\n");
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions options = ParseOptions(argc, argv);
  bool smoke = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;

  const size_t reps = std::max<size_t>(5, options.repetitions);
  bool ok = true;

  // paper_n is the row count before --quick / --scale: the paper's
  // 100,000, or 20,000 for perfbench mem_d200's shape. A distance cell
  // scores kMedoids pairs per row; the evaluation cell adds each row to
  // one cluster.
  struct Config {
    const char* kernel;
    size_t d;
    size_t paper_n;
    KernelResult (*run)(const Input&, size_t);
    size_t per_row;
  };
  const Config configs[] = {
      {"segmental", 20, 100000, BenchSegmental, kMedoids},
      {"segmental", 100, 100000, BenchSegmental, kMedoids},
      {"manhattan", 20, 100000, BenchManhattan, kMedoids},
      {"manhattan", 100, 100000, BenchManhattan, kMedoids},
      {"manhattan", 200, 20000, BenchManhattan, kMedoids},
      {"sqeuclidean", 20, 100000, BenchSquaredEuclidean, kMedoids},
      {"sqeuclidean", 100, 100000, BenchSquaredEuclidean, kMedoids},
      {"evaluation", 200, 20000, BenchEvaluation, 1},
      {"locality", 20, 100000, BenchLocality, kMedoids},
      {"locality", 200, 20000, BenchLocality, kMedoids},
  };
  for (const Config& config : configs) {
    const size_t n = options.Points(config.paper_n);
    Input input = MakeInput(n, config.d, options.seed);
    KernelResult result = config.run(input, reps);
    const double work =
        static_cast<double>(n) * static_cast<double>(config.per_row);
    const std::string name =
        std::string(config.kernel) + " d=" + std::to_string(config.d);
    const Spread scalar = SpreadOf(result.scalar_seconds);
    const Spread batch = SpreadOf(result.batch_seconds);
    const std::string unit = config.per_row == 1 ? "Mrows/s" : "Mpairs/s";
    PrintHeader(name);
    PrintKV("rows", static_cast<double>(n));
    PrintKV("reps", static_cast<double>(reps));
    // Throughput of the fastest rep, then the median and slowest reps.
    PrintKV("scalar " + unit, work / scalar.best / 1e6);
    PrintKV("scalar " + unit + " median", work / scalar.median / 1e6);
    PrintKV("scalar " + unit + " min", work / scalar.worst / 1e6);
    PrintKV("batched " + unit, work / batch.best / 1e6);
    PrintKV("batched " + unit + " median", work / batch.median / 1e6);
    PrintKV("batched " + unit + " min", work / batch.worst / 1e6);
    PrintKV("speedup", scalar.best / batch.best);
    PrintKV("speedup median", scalar.median / batch.median);
    PrintKV("bit identical", result.identical ? "yes" : "no");
    bool cell_ok = true;
    if (!result.identical) {
      std::fprintf(stderr, "FAIL %s: batched != scalar\n", name.c_str());
      cell_ok = false;
    }
    if (smoke && batch.best > scalar.best) {
      std::fprintf(stderr,
                   "FAIL %s: batched slower than scalar (%.4fs vs %.4fs)\n",
                   name.c_str(), batch.best, scalar.best);
      cell_ok = false;
    }
    if (!cell_ok) {
      PrintPasses("scalar", result.scalar_seconds);
      PrintPasses("batched", result.batch_seconds);
      ok = false;
    }
  }

  FinishJson("kernels");
  return ok ? 0 : 1;
}
