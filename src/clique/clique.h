// CLIQUE driver (Agrawal, Gehrke, Gunopulos, Raghavan — SIGMOD 1998),
// re-implemented from its description as the comparison baseline of the
// PROCLUS paper.
//
// Pipeline: uniform xi-interval grid -> bottom-up dense unit mining with
// monotonicity pruning -> connected components per subspace -> greedy
// rectangular covers. Unlike PROCLUS the output is NOT a partition: a
// point can fall in dense regions of several subspaces, and the regions'
// lower-dimensional projections are dense as well. The report mode
// controls which subspaces produce output clusters:
//
//  * kMaximal  — clusters only from subspaces not strictly contained in
//                another subspace holding dense units (default; closest to
//                how the PROCLUS paper summarizes CLIQUE output).
//  * kAll      — clusters from every subspace with dense units.
//  * kTargetDim— clusters only from subspaces of exactly `target_dim`
//                dimensions (the "find clusters only in 7 dimensions"
//                switch used for Table 5).

#ifndef PROCLUS_CLIQUE_CLIQUE_H_
#define PROCLUS_CLIQUE_CLIQUE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "clique/clusters.h"
#include "clique/dense_units.h"
#include "clique/grid.h"
#include "data/dataset.h"

namespace proclus {

/// Which subspaces contribute output clusters.
///
///  * kMaxLevel  — only subspaces of the highest dimensionality reached
///                 (how the PROCLUS paper summarizes CLIQUE's output:
///                 "CLIQUE reported output clusters in 8 dimensions").
///  * kMaximal   — subspaces not strictly contained in another subspace
///                 with dense units.
///  * kAll       — every subspace with dense units.
///  * kTargetDim — exactly `target_dim`-dimensional subspaces (the
///                 "find clusters only in 7 dimensions" option of §4.2).
enum class CliqueReportMode { kMaxLevel, kMaximal, kAll, kTargetDim };

/// User parameters of CLIQUE (paper notation: xi intervals, tau density).
struct CliqueParams {
  /// Number of intervals per dimension (paper experiments: 10).
  size_t xi = 10;
  /// Density threshold as percent of N (paper experiments: 0.1 - 0.8).
  double tau_percent = 0.5;
  /// Output cluster selection.
  CliqueReportMode report_mode = CliqueReportMode::kMaxLevel;
  /// Apply CLIQUE's MDL subspace selectivity pruning during mining (the
  /// original algorithm's behavior, and the default): low-coverage
  /// subspaces are discarded level by level, keeping the subspace count
  /// tractable at permissive tau at the cost of losing clusters whose
  /// support chains run through pruned subspaces. Set false for the
  /// exact (exhaustive) miner.
  bool mdl_prune = true;
  /// Subspace dimensionality for kTargetDim.
  size_t target_dim = 0;
  /// Optional cap on mined levels (0 = unlimited); also passed to the
  /// miner as a safety bound.
  size_t max_level = 0;
  /// Candidate cap per level (safety bound for low tau).
  size_t max_candidates_per_level = 4000000;
  /// Ignore output clusters from 1-dimensional subspaces (a single dense
  /// interval is rarely a meaningful cluster; the PROCLUS paper's inputs
  /// always have >= 2-dimensional structure).
  bool skip_one_dimensional = true;

  Status Validate() const;
};

/// One output cluster with point-level statistics.
struct CliqueCluster {
  Subspace subspace;
  /// Dense cells of the connected component (sorted keys).
  std::vector<uint64_t> cells;
  /// Greedy rectangular cover (the reported description).
  std::vector<UnitRegion> regions;
  /// Number of data points inside the component.
  size_t point_count = 0;
  /// Points per ground-truth label (size k+1, last = outliers); filled
  /// only when ground-truth labels were supplied to RunClique.
  std::vector<size_t> label_counts;
};

/// Full CLIQUE result plus the summary statistics the PROCLUS paper
/// reports (coverage and average overlap).
struct CliqueResult {
  std::vector<CliqueCluster> clusters;
  /// Density threshold in points.
  size_t threshold = 0;
  /// Highest subspace dimensionality with dense units.
  size_t max_level = 0;
  /// True if the miner hit its candidate cap.
  bool truncated = false;
  /// Number of distinct points contained in at least one output cluster.
  size_t covered_points = 0;
  /// Average overlap: sum_i |C_i| / |union_i C_i| (1.0 = partition-like).
  double overlap = 0.0;
  /// Fraction of ground-truth cluster points covered by some output
  /// cluster (only meaningful when labels were supplied; else -1).
  double cluster_point_coverage = -1.0;
};

/// Runs CLIQUE on `dataset`. When `truth_labels` is non-null (size N,
/// values in [0,k) or kOutlierLabel), per-cluster label counts and the
/// coverage statistic are filled in. Delegates to RunCliqueOnSource over
/// an in-memory view of `dataset`.
Result<CliqueResult> RunClique(const Dataset& dataset,
                               const CliqueParams& params,
                               const std::vector<int>* truth_labels = nullptr);

/// Runs CLIQUE over any PointSource with exactly two scans of the data
/// (bounds, then quantization); everything downstream operates on the
/// N x d byte cell matrix, which is 8x smaller than the coordinates, so
/// it fits in memory even when the data does not.
Result<CliqueResult> RunCliqueOnSource(
    const PointSource& source, const CliqueParams& params,
    const std::vector<int>* truth_labels = nullptr);

}  // namespace proclus

#endif  // PROCLUS_CLIQUE_CLIQUE_H_
