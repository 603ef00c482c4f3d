// Side-by-side comparison of PROCLUS and CLIQUE on the same projected-
// clustering input, illustrating the output-format difference the paper
// emphasizes: PROCLUS yields a disjoint partition plus per-cluster
// dimensions; CLIQUE yields overlapping dense regions across subspaces.
//
// Run: ./build/examples/compare_clique

#include <algorithm>
#include <cstdio>

#include "clique/clique.h"
#include "clique/describe.h"
#include "common/timer.h"
#include "core/proclus.h"
#include "eval/confusion.h"
#include "eval/matching.h"
#include "eval/metrics.h"
#include "gen/synthetic.h"

int main() {
  using namespace proclus;

  GeneratorParams gen;
  gen.num_points = 20000;
  gen.space_dims = 15;
  gen.num_clusters = 4;
  gen.cluster_dim_counts = {4, 4, 4, 4};
  gen.outlier_fraction = 0.05;
  gen.seed = 501;
  auto data = GenerateSynthetic(gen);
  if (!data.ok()) return 1;

  // --- PROCLUS ---
  ProclusParams pparams;
  pparams.num_clusters = 4;
  pparams.avg_dims = 4.0;
  pparams.seed = 2;
  Timer proclus_timer;
  auto proclus_result = RunProclus(data->dataset, pparams);
  double proclus_sec = proclus_timer.ElapsedSeconds();
  if (!proclus_result.ok()) return 1;

  auto confusion = ConfusionMatrix::Build(proclus_result->labels, 4,
                                          data->truth.labels, 4);
  std::printf("PROCLUS (%.2fs):\n", proclus_sec);
  std::printf("  output: disjoint partition, %zu clusters + %zu outliers\n",
              proclus_result->num_clusters(),
              proclus_result->NumOutliers());
  if (confusion.ok())
    std::printf("  matched accuracy %.4f, ARI %.4f\n",
                MatchedAccuracy(*confusion),
                AdjustedRandIndex(proclus_result->labels,
                                  data->truth.labels));
  for (size_t i = 0; i < 4; ++i)
    std::printf("  cluster %zu dims: %s\n", i + 1,
                proclus_result->dimensions[i].ToString().c_str());

  // --- CLIQUE ---
  CliqueParams cparams;
  cparams.xi = 10;
  cparams.tau_percent = 0.5;
  Timer clique_timer;
  auto clique_result = RunClique(data->dataset, cparams,
                                 &data->truth.labels);
  double clique_sec = clique_timer.ElapsedSeconds();
  if (!clique_result.ok()) return 1;

  std::printf("\nCLIQUE xi=10 tau=0.5%% (%.2fs):\n", clique_sec);
  std::printf("  output: %zu overlapping region clusters, max subspace "
              "dimensionality %zu\n",
              clique_result->clusters.size(), clique_result->max_level);
  std::printf("  cluster-point coverage %.1f%%, average overlap %.2f\n",
              100.0 * clique_result->cluster_point_coverage,
              clique_result->overlap);

  // Show the DNF description of the largest CLIQUE cluster (the output
  // format the CLIQUE paper proposes).
  if (!clique_result->clusters.empty()) {
    auto grid = Grid::BuildFromSource(MemorySource(data->dataset), cparams.xi);
    if (grid.ok()) {
      const CliqueCluster* largest = &clique_result->clusters[0];
      for (const auto& cluster : clique_result->clusters)
        if (cluster.point_count > largest->point_count) largest = &cluster;
      std::string dnf = RenderDnf(DescribeCluster(*largest, *grid));
      if (dnf.size() > 160) dnf = dnf.substr(0, 157) + "...";
      std::printf("  largest cluster as DNF: %s\n", dnf.c_str());
    }
  }
  std::printf("\nPROCLUS partitions every point exactly once; CLIQUE "
              "reports dense regions whose projections overlap, which is "
              "useful for exploration but is not a partition.\n");
  return 0;
}
