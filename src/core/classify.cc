#include "core/classify.h"

#include "core/consumers.h"

namespace proclus {

Result<std::vector<int>> ClassifyPoints(const ProjectedClustering& model,
                                        const PointSource& source,
                                        const ClassifyOptions& options) {
  PROCLUS_RETURN_IF_ERROR(ValidateModelShape(model, source.dims()));
  const bool detect = options.detect_outliers &&
                      model.spheres.size() == model.num_clusters();
  AssignConsumer assign;
  PROCLUS_RETURN_IF_ERROR(assign.Bind(
      &model.medoid_coords, &model.dimensions,
      options.segmental_normalization, /*accumulate_centroids=*/false,
      detect ? &model.spheres : nullptr));
  PROCLUS_RETURN_IF_ERROR(ScanExecutor(options.pass).Run(source, {&assign}));
  return assign.TakeLabels();
}

Result<std::vector<int>> ClassifyPoints(const ProjectedClustering& model,
                                        const Dataset& dataset,
                                        const ClassifyOptions& options) {
  MemorySource source(dataset);
  return ClassifyPoints(model, source, options);
}

Result<int> ClassifyPoint(const ProjectedClustering& model,
                          std::span<const double> point,
                          const ClassifyOptions& options) {
  Matrix one(1, point.size());
  std::copy(point.begin(), point.end(), one.row(0).begin());
  Dataset dataset(std::move(one));
  auto labels = ClassifyPoints(model, dataset, options);
  PROCLUS_RETURN_IF_ERROR(labels.status());
  return (*labels)[0];
}

}  // namespace proclus
