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
// Each cell is timed over --reps=N passes of each side (at least 5),
// scalar and batched passes interleaved so that a burst of host load
// lands on both, and reports the throughput of the fastest, median and
// slowest pass; --json records the kernel clone that ran
// (host.kernel_isa, distance/batch.h KernelIsa). Every batched output
// is checked bit-identical to its scalar reference on every run. --smoke
// additionally asserts that the fastest batched pass is no slower than
// the fastest scalar pass for each configuration, printing every pass
// of both sides and exiting nonzero otherwise — wired into ctest (label
// bench_smoke) so a vectorization regression cannot land silently.

#include <algorithm>
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
  // 100,000, or 20,000 for perfbench mem_d200's shape.
  struct Config {
    const char* kernel;
    size_t d;
    size_t paper_n;
    KernelResult (*run)(const Input&, size_t);
  };
  const Config configs[] = {
      {"segmental", 20, 100000, BenchSegmental},
      {"segmental", 100, 100000, BenchSegmental},
      {"manhattan", 20, 100000, BenchManhattan},
      {"manhattan", 100, 100000, BenchManhattan},
      {"manhattan", 200, 20000, BenchManhattan},
      {"sqeuclidean", 20, 100000, BenchSquaredEuclidean},
      {"sqeuclidean", 100, 100000, BenchSquaredEuclidean},
  };
  for (const Config& config : configs) {
    const size_t n = options.Points(config.paper_n);
    Input input = MakeInput(n, config.d, options.seed);
    KernelResult result = config.run(input, reps);
    const double pairs =
        static_cast<double>(n) * static_cast<double>(kMedoids);
    const std::string name =
        std::string(config.kernel) + " d=" + std::to_string(config.d);
    const Spread scalar = SpreadOf(result.scalar_seconds);
    const Spread batch = SpreadOf(result.batch_seconds);
    PrintHeader(name);
    PrintKV("rows", static_cast<double>(n));
    PrintKV("reps", static_cast<double>(reps));
    // Throughput of the fastest rep, then the median and slowest reps.
    PrintKV("scalar Mpairs/s", pairs / scalar.best / 1e6);
    PrintKV("scalar Mpairs/s median", pairs / scalar.median / 1e6);
    PrintKV("scalar Mpairs/s min", pairs / scalar.worst / 1e6);
    PrintKV("batched Mpairs/s", pairs / batch.best / 1e6);
    PrintKV("batched Mpairs/s median", pairs / batch.median / 1e6);
    PrintKV("batched Mpairs/s min", pairs / batch.worst / 1e6);
    PrintKV("speedup", scalar.best / batch.best);
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
