// Result types of the PROCLUS algorithm: a (k+1)-way partition of the
// points (k clusters + outliers) plus a dimension subset per cluster.

#ifndef PROCLUS_CORE_MODEL_H_
#define PROCLUS_CORE_MODEL_H_

#include <cstdint>
#include <vector>

#include "common/dimension_set.h"
#include "common/matrix.h"
#include "common/run_stats.h"
#include "common/status.h"
#include "data/dataset.h"
#include "gen/ground_truth.h"

namespace proclus {

/// Output of a projected clustering run. Besides the partition itself it
/// carries everything needed to act as a *model*: medoid coordinates,
/// dimension subsets, and spheres of influence, so new points can be
/// classified without the training data (see core/classify.h).
struct ProjectedClustering {
  /// Per-point cluster id in [0, k), or kOutlierLabel for outliers.
  std::vector<int> labels;
  /// Point index of each cluster's medoid.
  std::vector<size_t> medoids;
  /// Coordinates of the medoids (k rows), so the model is self-contained.
  Matrix medoid_coords;
  /// Dimension subset D_i associated with each cluster.
  std::vector<DimensionSet> dimensions;
  /// Sphere of influence of each medoid (segmental distance to its
  /// nearest fellow medoid on its own dimensions); empty when the
  /// refinement phase was disabled. Used for outlier detection when
  /// classifying new points.
  std::vector<double> spheres;
  /// Final value of the paper's objective (average Manhattan segmental
  /// distance from points to their cluster centroid; lower is better).
  double objective = 0.0;
  /// Hill-climbing iterations performed in the iterative phase.
  size_t iterations = 0;
  /// Medoid-set replacements that improved the objective.
  size_t improvements = 0;
  /// Data-movement counters and per-phase wall time of the run that
  /// produced this model (scans issued, rows visited, bytes read from
  /// disk-backed sources, distance evaluations).
  RunStats stats;

  /// Number of clusters.
  size_t num_clusters() const { return medoids.size(); }

  /// Point indices per cluster (index k holds the outliers).
  std::vector<std::vector<size_t>> ClusterIndices() const {
    std::vector<std::vector<size_t>> out(num_clusters() + 1);
    for (size_t p = 0; p < labels.size(); ++p) {
      int label = labels[p];
      if (label == kOutlierLabel)
        out[num_clusters()].push_back(p);
      else
        out[static_cast<size_t>(label)].push_back(p);
    }
    return out;
  }

  /// Number of points labeled as outliers.
  size_t NumOutliers() const {
    size_t n = 0;
    for (int label : labels)
      if (label == kOutlierLabel) ++n;
    return n;
  }
};

/// The shape a model needs before it can label points: k > 0 clusters,
/// k medoid coordinate rows of `dims` columns, k dimension sets, and no
/// spheres or one per cluster. InvalidArgument names the first mismatch.
/// Shared by ClassifyPoints and ValidateClustering (core/proclus.h).
Status ValidateModelShape(const ProjectedClustering& model, size_t dims);

}  // namespace proclus

#endif  // PROCLUS_CORE_MODEL_H_
