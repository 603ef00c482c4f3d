// Lloyd's k-means: the canonical full-dimensional clustering baseline.
// Used to demonstrate the paper's motivation (Figure 1): full-dimensional
// algorithms cannot separate clusters that exist only in projections.

#ifndef PROCLUS_BASELINES_KMEANS_H_
#define PROCLUS_BASELINES_KMEANS_H_

#include <cstdint>
#include <vector>

#include "common/cancel.h"
#include "common/run_stats.h"
#include "common/status.h"
#include "data/dataset.h"
#include "data/point_source.h"

namespace proclus {

/// k-means configuration.
struct KMeansParams {
  size_t num_clusters = 5;
  /// Maximum Lloyd iterations.
  size_t max_iterations = 100;
  /// Convergence threshold on total centroid movement (L2).
  double tolerance = 1e-6;
  /// Use k-means++ seeding (else uniform random points).
  bool plus_plus_init = true;
  uint64_t seed = 1;
  /// Worker threads for the scans (ScanOptions::num_threads). Results are
  /// bit-identical for every value (block-ordered deterministic
  /// reduction).
  size_t num_threads = 1;
  /// Rows per scan block / disk read.
  size_t block_rows = 8192;
  /// Cooperative cancellation token and/or deadline for the run, checked
  /// at the top of every Lloyd iteration and once per scan block. Never
  /// changes results (DESIGN.md §13).
  CancelContext cancel{};

  Status Validate(size_t num_points) const;
};

/// k-means result.
struct KMeansResult {
  /// Per-point cluster id in [0, k).
  std::vector<int> labels;
  /// Final centroids (k rows).
  std::vector<std::vector<double>> centroids;
  /// Final sum of squared distances to assigned centroids.
  double inertia = 0.0;
  /// Lloyd iterations performed.
  size_t iterations = 0;
  /// Data-movement counters of the run (scans, rows, bytes, distance
  /// evaluations).
  RunStats stats;
};

/// Runs Lloyd's algorithm with k-means++ (or uniform) seeding.
/// Deterministic for a fixed seed. Empty clusters are re-seeded with the
/// point farthest from its centroid. Delegates to RunKMeansOnSource over
/// an in-memory view of `dataset`.
Result<KMeansResult> RunKMeans(const Dataset& dataset,
                               const KMeansParams& params);

/// Runs Lloyd's algorithm over any PointSource on the scan executor: one
/// fused scan per iteration computes the assignment, the inertia, and the
/// per-cluster coordinate sums; k-means++ seeding scans once per center.
/// Random access is limited to fetching the chosen centers. Transient
/// read failures of scans and fetches alike are retried under the default
/// RetryPolicy. Results are bit-identical across thread counts, retries
/// and Memory/Disk sources for a fixed block_rows.
Result<KMeansResult> RunKMeansOnSource(const PointSource& source,
                                       const KMeansParams& params);

}  // namespace proclus

#endif  // PROCLUS_BASELINES_KMEANS_H_
