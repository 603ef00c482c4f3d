// Classification of new points against a fitted projected clustering.
//
// A ProjectedClustering carries medoid coordinates, per-cluster
// dimension subsets, and spheres of influence — enough to label unseen
// points exactly the way the refinement phase labeled the training
// points: nearest medoid under the Manhattan segmental distance on that
// medoid's dimensions, with points outside every sphere of influence
// flagged as outliers. This is the "classification" application the
// paper motivates (Section 1: trend analysis and classification need a
// partition with interpretable per-segment attributes).

#ifndef PROCLUS_CORE_CLASSIFY_H_
#define PROCLUS_CORE_CLASSIFY_H_

#include <vector>

#include "common/status.h"
#include "core/model.h"
#include "data/engine.h"
#include "data/point_source.h"

namespace proclus {

/// Options for classifying new points.
struct ClassifyOptions {
  /// Flag points outside every sphere of influence as outliers. Ignored
  /// (treated as false) when the model has no spheres (refine=false).
  bool detect_outliers = true;
  /// Use the paper's |D|-normalized segmental distance (must match how
  /// the model was fit).
  bool segmental_normalization = true;
  /// Scan execution (threads / block size).
  ScanOptions pass;
};

/// Labels every point of `source` against `model`. The source's
/// dimensionality must match the model's. Returns per-point cluster ids
/// (kOutlierLabel for detected outliers).
Result<std::vector<int>> ClassifyPoints(const ProjectedClustering& model,
                                        const PointSource& source,
                                        const ClassifyOptions& options = {});

/// Convenience overload for an in-memory dataset.
Result<std::vector<int>> ClassifyPoints(const ProjectedClustering& model,
                                        const Dataset& dataset,
                                        const ClassifyOptions& options = {});

/// Labels a single point. Requires point.size() == model dimensionality.
Result<int> ClassifyPoint(const ProjectedClustering& model,
                          std::span<const double> point,
                          const ClassifyOptions& options = {});

}  // namespace proclus

#endif  // PROCLUS_CORE_CLASSIFY_H_
