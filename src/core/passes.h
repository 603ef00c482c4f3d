// The data passes of PROCLUS, expressed over a PointSource.
//
// Each pass is one scan over the data (the database-algorithm contract
// of the paper) producing either per-point outputs (labels) or small
// aggregates (k x d statistics). The passes are thin wrappers over the
// scan-executor layer (data/engine.h, core/consumers.h): each one binds
// the matching ScanConsumer and runs it over a single scan, inheriting
// the executor's determinism contract — block-parallel over in-memory
// sources, sequential block-ordered merge, bit-identical results for any
// thread count. Callers that want to FUSE several computations into one
// physical scan use the consumers and ScanExecutor::Run directly, as the
// hill-climbing loop in core/proclus.cc does.
//
// Medoids are passed by coordinates (a k x d matrix) rather than point
// indices so the passes never need random access into the source.

#ifndef PROCLUS_CORE_PASSES_H_
#define PROCLUS_CORE_PASSES_H_

#include <cstdint>
#include <vector>

#include "common/dimension_set.h"
#include "common/status.h"
#include "data/engine.h"
#include "data/point_source.h"

namespace proclus {

/// Execution options shared by all passes (threads, block size, optional
/// RunStats sink). See ScanOptions in data/engine.h.
using PassOptions = ScanOptions;

/// Locality statistics (iterative phase): X(i, j) = average |p_j - m_ij|
/// over the points within delta_i of medoid i, where delta_i is the
/// full-space segmental distance from medoid i to its nearest other
/// medoid and the medoid rows come from `medoids` (k x d).
Result<Matrix> LocalityStatsPass(const PointSource& source,
                                 const Matrix& medoids,
                                 const PassOptions& options = {});

/// Cluster statistics (refinement phase): X(i, j) = average |p_j - m_ij|
/// over the points labeled i (outliers skipped; empty clusters keep
/// all-zero rows).
Result<Matrix> ClusterStatsPass(const PointSource& source,
                                const Matrix& medoids,
                                const std::vector<int>& labels,
                                const PassOptions& options = {});

/// Assignment (Figure 5): each point goes to the medoid minimizing the
/// Manhattan segmental distance on that medoid's dimensions (or the
/// unnormalized restricted distance when `segmental_normalization` is
/// false). Ties to the lower index.
Result<std::vector<int>> AssignPointsPass(
    const PointSource& source, const Matrix& medoids,
    const std::vector<DimensionSet>& dims, bool segmental_normalization,
    const PassOptions& options = {});

/// Evaluation (Figure 6): size-weighted average, over non-empty
/// clusters, of the mean per-dimension distance of cluster points to
/// their centroid on the cluster's dimensions. Two scans (centroids,
/// then deviations).
Result<double> EvaluateClustersPass(const PointSource& source,
                                    const std::vector<int>& labels,
                                    const std::vector<DimensionSet>& dims,
                                    const PassOptions& options = {});

/// Refinement assignment: like AssignPointsPass but with outlier
/// handling — a point whose distance to medoid i exceeds `spheres[i]`
/// for every i is labeled kOutlierLabel (when `detect_outliers`).
Result<std::vector<int>> RefineAssignPass(
    const PointSource& source, const Matrix& medoids,
    const std::vector<DimensionSet>& dims,
    const std::vector<double>& spheres, bool segmental_normalization,
    bool detect_outliers, const PassOptions& options = {});

}  // namespace proclus

#endif  // PROCLUS_CORE_PASSES_H_
