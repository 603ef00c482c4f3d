#include "core/model.h"

#include <string>

namespace proclus {

Status ValidateModelShape(const ProjectedClustering& model, size_t dims) {
  const size_t k = model.num_clusters();
  if (k == 0) return Status::InvalidArgument("model has no clusters");
  if (model.medoid_coords.rows() != k)
    return Status::InvalidArgument(
        "model is missing medoid coordinates (fit with this library "
        "version, or fill medoid_coords)");
  if (model.medoid_coords.cols() != dims)
    return Status::InvalidArgument("model dimensionality " +
                                   std::to_string(model.medoid_coords.cols()) +
                                   " != data dimensionality " +
                                   std::to_string(dims));
  if (model.dimensions.size() != k)
    return Status::InvalidArgument("model dimension sets inconsistent");
  if (!model.spheres.empty() && model.spheres.size() != k)
    return Status::InvalidArgument("model spheres inconsistent");
  return Status::OK();
}

}  // namespace proclus
