// Microbenchmarks of the library's hot kernels: distance functions,
// segmental distance, the synthetic generator, greedy medoid selection,
// locality statistics, point assignment, dimension selection, CLIQUE
// dense-unit mining, Jacobi eigendecomposition, and the end-to-end
// PROCLUS / ORCLUS drivers.
//
// Follows the repo harness convention (bench_util.h): --quick / --scale
// shrink the inputs, --reps takes the best-of-N wall time, --json emits
// a machine-diffable document whose "binary" is "micro_kernels" (no
// baseline of it is committed; BENCH_kernels.json is kernels.cc's). Each
// case reports items/s (items = rows or element-operations, per case).
// The locality-statistics and assignment cases run their consumers on a
// ScanExecutor over a MemorySource, as the fit does.
//
// --smoke asserts every case completes with a finite positive
// throughput and that the end-to-end PROCLUS case is run-to-run
// deterministic (identical labels on a second run) — wired into ctest
// under the bench_smoke label. Absolute throughput is never asserted
// here; kernels.cc owns the batched-vs-scalar performance guarantee.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "bench_util.h"
#include "clique/dense_units.h"
#include "clique/grid.h"
#include "common/eigen.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/classify.h"
#include "core/consumers.h"
#include "core/find_dimensions.h"
#include "core/greedy.h"
#include "core/proclus.h"
#include "data/engine.h"
#include "data/point_source.h"
#include "distance/metric.h"
#include "distance/segmental.h"
#include "extensions/orclus.h"
#include "gen/synthetic.h"

namespace {

using namespace proclus;
using namespace proclus::bench;

// Sink the compiler cannot eliminate the timed work into.
volatile double g_sink = 0.0;

std::vector<double> RandomPoint(size_t dims, Rng& rng) {
  std::vector<double> p(dims);
  for (double& v : p) v = rng.Uniform(0, 100);
  return p;
}

SyntheticData MakeData(size_t n, size_t d, size_t k,
                       std::vector<size_t> dims, uint64_t seed) {
  GeneratorParams gen;
  gen.num_points = n;
  gen.space_dims = d;
  gen.num_clusters = k;
  gen.cluster_dim_counts = std::move(dims);
  gen.seed = seed;
  auto data = GenerateSynthetic(gen);
  if (!data.ok()) {
    std::fprintf(stderr, "generator failed: %s\n",
                 data.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(data).value();
}

struct Case {
  std::string name;
  double items = 0.0;              // work per timed pass, for items/s
  std::function<void()> pass;      // one timed pass
};

// A failed bind or scan ends the run.
void Check(const Status& status) {
  if (status.ok()) return;
  std::fprintf(stderr, "scan failed: %s\n", status.ToString().c_str());
  std::exit(1);
}

// Times each case as the best of `reps` passes and reports items/s.
// Returns false if any throughput comes out non-finite or non-positive.
bool RunCases(const std::vector<Case>& cases, size_t reps) {
  bool ok = true;
  for (const Case& c : cases) {
    double best = std::numeric_limits<double>::infinity();
    for (size_t rep = 0; rep < reps; ++rep) {
      Timer timer;
      c.pass();
      best = std::min(best, timer.ElapsedSeconds());
    }
    const double rate = c.items / best;
    PrintHeader(c.name);
    PrintKV("items per pass", c.items);
    PrintKV("seconds", best);
    PrintKV("Mitems/s", rate / 1e6);
    if (!std::isfinite(rate) || rate <= 0.0) {
      std::fprintf(stderr, "FAIL %s: non-finite or zero throughput\n",
                   c.name.c_str());
      ok = false;
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions options = ParseOptions(argc, argv);
  bool smoke = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;

  const size_t reps = options.repetitions < 3 ? 3 : options.repetitions;
  // Row counts for the dataset-driven cases; the paper-scale defaults
  // shrink under --quick/--scale like every other harness binary.
  const size_t n_scan = options.Points(50000);
  const size_t n_mid = options.Points(10000);
  const size_t n_small = std::max<size_t>(1000, n_mid / 5);

  // Shared inputs, built once outside the timed passes.
  Rng rng(1);
  const auto a20 = RandomPoint(20, rng), b20 = RandomPoint(20, rng);
  const auto a100 = RandomPoint(100, rng), b100 = RandomPoint(100, rng);
  const auto a1000 = RandomPoint(1000, rng), b1000 = RandomPoint(1000, rng);
  std::vector<uint32_t> dims7;
  for (uint32_t j = 0; j < 7; ++j) dims7.push_back(j * 7);

  SyntheticData scan_data =
      MakeData(n_scan, 20, 5, {5, 5, 5, 5, 5}, 13);
  std::vector<size_t> medoids{0, n_scan / 5, 2 * n_scan / 5, 3 * n_scan / 5,
                              4 * n_scan / 5};
  std::vector<DimensionSet> assign_dims(5,
                                        DimensionSet(20, {0, 4, 9, 13, 19}));
  MemorySource scan_source(scan_data.dataset);
  auto scan_medoids = scan_source.Fetch(medoids);
  if (!scan_medoids.ok()) {
    std::fprintf(stderr, "medoid fetch failed: %s\n",
                 scan_medoids.status().ToString().c_str());
    return 1;
  }
  const ScanExecutor scan_executor(ScanOptions{});

  SyntheticData greedy_data = MakeData(2000, 20, 5, {5, 5, 5, 5, 5}, 7);
  std::vector<size_t> candidates(greedy_data.dataset.size());
  for (size_t i = 0; i < candidates.size(); ++i) candidates[i] = i;

  Rng fd_rng(19);
  Matrix locality(5, 100);
  for (size_t i = 0; i < 5; ++i)
    for (size_t j = 0; j < 100; ++j) locality(i, j) = fd_rng.Uniform(0, 30);

  SyntheticData clique_data = MakeData(n_mid, 10, 3, {4, 4, 4}, 23);
  MemorySource clique_source(clique_data.dataset);
  auto grid = Grid::BuildFromSource(clique_source, 10);
  const std::vector<uint8_t> cells = *grid->QuantizeSource(clique_source);
  MinerParams miner;
  miner.xi = 10;
  miner.tau_percent = 1.0;

  Rng eig_rng(43);
  Matrix sym(50, 50);
  for (size_t i = 0; i < 50; ++i)
    for (size_t j = i; j < 50; ++j) {
      sym(i, j) = eig_rng.Uniform(-1, 1);
      sym(j, i) = sym(i, j);
    }

  SyntheticData proclus_data = MakeData(n_mid, 20, 5, {5, 5, 5, 5, 5}, 29);
  ProclusParams proclus_params;
  proclus_params.num_clusters = 5;
  proclus_params.avg_dims = 5.0;
  proclus_params.seed = 31;
  auto classify_model = RunProclus(proclus_data.dataset, proclus_params);
  if (!classify_model.ok()) {
    std::fprintf(stderr, "PROCLUS failed: %s\n",
                 classify_model.status().ToString().c_str());
    return 1;
  }

  SyntheticData orclus_data = MakeData(n_small, 12, 3, {4, 4, 4}, 47);
  OrclusParams orclus_params;
  orclus_params.num_clusters = 3;
  orclus_params.subspace_dims = 4;
  orclus_params.seed = 53;

  constexpr size_t kDistEvals = 20000;
  std::vector<Case> cases;
  auto dist_case = [&](const char* name, const std::vector<double>& a,
                       const std::vector<double>& b, auto fn) {
    cases.push_back({name, static_cast<double>(kDistEvals * a.size()), [&, fn] {
                       double acc = 0.0;
                       for (size_t i = 0; i < kDistEvals; ++i) acc += fn(a, b);
                       g_sink = acc;
                     }});
  };
  dist_case("manhattan d=20", a20, b20,
            [](const auto& a, const auto& b) {
              return ManhattanDistance(a, b);
            });
  dist_case("manhattan d=100", a100, b100,
            [](const auto& a, const auto& b) {
              return ManhattanDistance(a, b);
            });
  dist_case("manhattan d=1000", a1000, b1000,
            [](const auto& a, const auto& b) {
              return ManhattanDistance(a, b);
            });
  dist_case("euclidean d=20", a20, b20,
            [](const auto& a, const auto& b) {
              return EuclideanDistance(a, b);
            });
  dist_case("euclidean d=100", a100, b100,
            [](const auto& a, const auto& b) {
              return EuclideanDistance(a, b);
            });
  cases.push_back({"segmental 7-of-50", static_cast<double>(kDistEvals * 7),
                   [&] {
                     double acc = 0.0;
                     for (size_t i = 0; i < kDistEvals; ++i)
                       acc += ManhattanSegmentalDistance(a100, b100, dims7);
                     g_sink = acc;
                   }});
  cases.push_back({"synthetic generator", static_cast<double>(n_mid), [&] {
                     GeneratorParams gen;
                     gen.num_points = n_mid;
                     gen.space_dims = 20;
                     gen.num_clusters = 5;
                     gen.poisson_mean = 5.0;
                     gen.seed = 5;
                     auto result = GenerateSynthetic(gen);
                     g_sink = result.ok()
                                  ? static_cast<double>(result->dataset.size())
                                  : 0.0;
                   }});
  cases.push_back(
      {"greedy pick 50", static_cast<double>(greedy_data.dataset.size()), [&] {
         Rng pick_rng(11);
         auto picked = GreedyPick(greedy_data.dataset, candidates, 50,
                                  MetricKind::kManhattan, pick_rng);
         g_sink = static_cast<double>(picked.size());
       }});
  cases.push_back({"locality stats", static_cast<double>(n_scan), [&] {
                     LocalityStatsConsumer stats;
                     Check(stats.Bind(&*scan_medoids));
                     Check(scan_executor.Run(scan_source, {&stats}));
                     g_sink = stats.stats()(0, 0);
                   }});
  cases.push_back({"assign points", static_cast<double>(n_scan), [&] {
                     AssignConsumer assign;
                     Check(assign.Bind(&*scan_medoids, &assign_dims,
                                       /*segmental_normalization=*/true,
                                       /*accumulate_centroids=*/false));
                     Check(scan_executor.Run(scan_source, {&assign}));
                     g_sink = static_cast<double>(assign.labels().back());
                   }});
  cases.push_back({"find dimensions d=100", 500.0, [&] {
                     auto found = FindDimensions(locality, 5.0);
                     g_sink = found.ok()
                                  ? static_cast<double>(found->size())
                                  : -1.0;
                   }});
  cases.push_back({"clique dense units", static_cast<double>(n_mid), [&] {
                     auto units = MineDenseUnits(cells, n_mid, 10, miner);
                     g_sink = units.ok()
                                  ? static_cast<double>(units->levels.size())
                                  : -1.0;
                   }});
  cases.push_back({"jacobi eigen 50x50", 50.0 * 50.0, [&] {
                     auto eig = JacobiEigen(sym);
                     g_sink = eig.ok() ? eig->values[0] : -1.0;
                   }});
  cases.push_back({"classify points", static_cast<double>(n_mid), [&] {
                     auto labels =
                         ClassifyPoints(*classify_model, proclus_data.dataset);
                     g_sink = labels.ok()
                                  ? static_cast<double>(labels->back())
                                  : -1.0;
                   }});
  cases.push_back({"proclus end-to-end", static_cast<double>(n_mid), [&] {
                     auto model = RunProclus(proclus_data.dataset,
                                             proclus_params);
                     g_sink = model.ok() ? model->objective : -1.0;
                   }});
  cases.push_back({"orclus end-to-end", static_cast<double>(n_small), [&] {
                     auto model = RunOrclus(orclus_data.dataset,
                                            orclus_params);
                     g_sink = model.ok() ? model->objective : -1.0;
                   }});

  bool ok = RunCases(cases, reps);

  if (smoke) {
    // Run-to-run determinism of the heaviest composite case: two
    // fresh end-to-end runs must agree bit-for-bit.
    auto first = RunProclus(proclus_data.dataset, proclus_params);
    auto second = RunProclus(proclus_data.dataset, proclus_params);
    if (!first.ok() || !second.ok() || first->labels != second->labels ||
        first->objective != second->objective) {
      std::fprintf(stderr, "FAIL proclus end-to-end: nondeterministic\n");
      ok = false;
    }
  }

  FinishJson("micro_kernels");
  return ok ? 0 : 1;
}
