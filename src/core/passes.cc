#include "core/passes.h"

#include "core/consumers.h"

namespace proclus {

Result<Matrix> LocalityStatsPass(const PointSource& source,
                                 const Matrix& medoids,
                                 const PassOptions& options) {
  if (medoids.rows() == 0) return Status::InvalidArgument("no medoids");
  if (medoids.cols() != source.dims())
    return Status::InvalidArgument("medoid dimensionality mismatch");
  LocalityStatsConsumer consumer;
  PROCLUS_RETURN_IF_ERROR(consumer.Bind(&medoids));
  PROCLUS_RETURN_IF_ERROR(ScanExecutor(options).Run(source, {&consumer}));
  return consumer.TakeStats();
}

Result<Matrix> ClusterStatsPass(const PointSource& source,
                                const Matrix& medoids,
                                const std::vector<int>& labels,
                                const PassOptions& options) {
  if (medoids.rows() == 0) return Status::InvalidArgument("no medoids");
  if (labels.size() != source.size())
    return Status::InvalidArgument("label count mismatch");
  ClusterStatsConsumer consumer;
  PROCLUS_RETURN_IF_ERROR(consumer.Bind(&medoids, &labels));
  PROCLUS_RETURN_IF_ERROR(ScanExecutor(options).Run(source, {&consumer}));
  return consumer.TakeStats();
}

Result<std::vector<int>> AssignPointsPass(
    const PointSource& source, const Matrix& medoids,
    const std::vector<DimensionSet>& dims, bool segmental_normalization,
    const PassOptions& options) {
  if (medoids.rows() == 0) return Status::InvalidArgument("no medoids");
  if (dims.size() != medoids.rows())
    return Status::InvalidArgument("dimension set count mismatch");
  AssignConsumer consumer;
  PROCLUS_RETURN_IF_ERROR(consumer.Bind(&medoids, &dims,
                                        segmental_normalization,
                                        /*accumulate_centroids=*/false));
  PROCLUS_RETURN_IF_ERROR(ScanExecutor(options).Run(source, {&consumer}));
  return consumer.TakeLabels();
}

Result<double> EvaluateClustersPass(const PointSource& source,
                                    const std::vector<int>& labels,
                                    const std::vector<DimensionSet>& dims,
                                    const PassOptions& options) {
  if (labels.size() != source.size())
    return Status::InvalidArgument("label count mismatch");
  ScanExecutor executor(options);
  // Scan 1: centroids.
  CentroidConsumer centroids;
  PROCLUS_RETURN_IF_ERROR(centroids.Bind(&labels, dims.size()));
  PROCLUS_RETURN_IF_ERROR(executor.Run(source, {&centroids}));
  // Scan 2: per-dimension absolute deviations from the centroids.
  DeviationConsumer deviation;
  PROCLUS_RETURN_IF_ERROR(deviation.Bind(&labels, &centroids.centroids(),
                                         &centroids.cluster_sizes(), &dims));
  PROCLUS_RETURN_IF_ERROR(executor.Run(source, {&deviation}));
  return deviation.objective();
}

Result<std::vector<int>> RefineAssignPass(
    const PointSource& source, const Matrix& medoids,
    const std::vector<DimensionSet>& dims,
    const std::vector<double>& spheres, bool segmental_normalization,
    bool detect_outliers, const PassOptions& options) {
  if (medoids.rows() == 0) return Status::InvalidArgument("no medoids");
  if (dims.size() != medoids.rows() || spheres.size() != medoids.rows())
    return Status::InvalidArgument("per-medoid input count mismatch");
  AssignConsumer consumer;
  PROCLUS_RETURN_IF_ERROR(consumer.BindRefine(&medoids, &dims, &spheres,
                                              segmental_normalization,
                                              detect_outliers,
                                              /*accumulate_centroids=*/false));
  PROCLUS_RETURN_IF_ERROR(ScanExecutor(options).Run(source, {&consumer}));
  return consumer.TakeLabels();
}

}  // namespace proclus
