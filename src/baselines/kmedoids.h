// Full-dimensional K-Medoids baselines:
//
//  * PAM-style swap search (Kaufman & Rousseeuw) on a sample — exact local
//    search, quadratic per pass, intended for small inputs and tests.
//  * CLARANS (Ng & Han, VLDB 1994) — randomized search over the medoid-set
//    graph; the algorithm whose hill-climbing strategy PROCLUS generalizes.
//
// Both partition in the FULL dimensional space, providing the comparison
// point for the paper's claim that full-dimensional methods miss projected
// clusters.

#ifndef PROCLUS_BASELINES_KMEDOIDS_H_
#define PROCLUS_BASELINES_KMEDOIDS_H_

#include <cstdint>
#include <vector>

#include "common/cancel.h"
#include "common/run_stats.h"
#include "common/status.h"
#include "data/dataset.h"
#include "data/point_source.h"
#include "distance/metric.h"

namespace proclus {

/// Result of a medoid-based full-dimensional clustering.
struct MedoidClustering {
  /// Per-point cluster id in [0, k).
  std::vector<int> labels;
  /// Point index of each medoid.
  std::vector<size_t> medoids;
  /// Total distance from points to their medoids (the PAM objective).
  double cost = 0.0;
  /// Search iterations performed.
  size_t iterations = 0;
  /// Data-movement counters of the run (CLARANS only; PAM runs on
  /// in-memory samples and leaves them zero).
  RunStats stats;
};

/// PAM configuration.
struct PamParams {
  size_t num_clusters = 5;
  size_t max_iterations = 100;
  MetricKind metric = MetricKind::kManhattan;
  uint64_t seed = 1;

  Status Validate(size_t num_points) const;
};

/// Runs PAM (BUILD by greedy cost reduction, then SWAP until local
/// optimum). O(k (n-k)^2) per pass — use on samples.
Result<MedoidClustering> RunPam(const Dataset& dataset,
                                const PamParams& params);

/// CLARANS configuration (paper notation: numlocal restarts, maxneighbor
/// random swaps examined per local search).
struct ClaransParams {
  size_t num_clusters = 5;
  /// Number of local searches from random starting medoid sets.
  size_t num_local = 2;
  /// Random neighbors examined before declaring a local optimum. The
  /// original paper recommends max(250, 1.25% of k*(n-k)).
  size_t max_neighbor = 0;  // 0 = use the recommendation.
  MetricKind metric = MetricKind::kManhattan;
  uint64_t seed = 1;
  /// Worker threads for the assignment scans over in-memory sources.
  /// Results are bit-identical for every value.
  size_t num_threads = 1;
  /// Rows per scan block / disk read.
  size_t block_rows = 8192;
  /// Cooperative cancellation token and/or deadline for the run, checked
  /// before every trial medoid set and once per scan block. Never
  /// changes results (DESIGN.md §13).
  CancelContext cancel{};

  Status Validate(size_t num_points) const;
};

/// Runs CLARANS full-dimensional k-medoids. Delegates to
/// RunClaransOnSource over an in-memory view of `dataset`.
Result<MedoidClustering> RunClarans(const Dataset& dataset,
                                    const ClaransParams& params);

/// Runs CLARANS over any PointSource on the scan executor: each trial
/// medoid set costs one assignment scan; random access is limited to
/// fetching the k trial medoids. Results are bit-identical across thread
/// counts and across Memory/Disk sources for a fixed block_rows.
Result<MedoidClustering> RunClaransOnSource(const PointSource& source,
                                            const ClaransParams& params);

}  // namespace proclus

#endif  // PROCLUS_BASELINES_KMEDOIDS_H_
