#include "core/tune.h"

#include <algorithm>
#include <cmath>

#include "gen/ground_truth.h"

namespace proclus {

double EstimateAvgDims(const Dataset& dataset,
                       const std::vector<int>& labels, size_t num_clusters,
                       double correlation_fraction) {
  PROCLUS_CHECK(labels.size() == dataset.size());
  PROCLUS_CHECK(num_clusters > 0);
  const size_t n = dataset.size();
  const size_t d = dataset.dims();

  // Dataset-wide average absolute deviation per dimension.
  std::vector<double> global_mean = dataset.Centroid();
  std::vector<double> global_dev(d, 0.0);
  for (size_t p = 0; p < n; ++p) {
    auto point = dataset.point(p);
    for (size_t j = 0; j < d; ++j)
      global_dev[j] += std::fabs(point[j] - global_mean[j]);
  }
  for (double& dev : global_dev) dev /= static_cast<double>(n);

  // Per-cluster centroids and deviations.
  std::vector<std::vector<double>> centroid(num_clusters,
                                            std::vector<double>(d, 0.0));
  std::vector<size_t> count(num_clusters, 0);
  for (size_t p = 0; p < n; ++p) {
    int label = labels[p];
    if (label == kOutlierLabel) continue;
    size_t i = static_cast<size_t>(label);
    PROCLUS_CHECK(i < num_clusters);
    auto point = dataset.point(p);
    for (size_t j = 0; j < d; ++j) centroid[i][j] += point[j];
    ++count[i];
  }
  for (size_t i = 0; i < num_clusters; ++i) {
    if (count[i] == 0) continue;
    for (size_t j = 0; j < d; ++j)
      centroid[i][j] /= static_cast<double>(count[i]);
  }
  std::vector<std::vector<double>> deviation(num_clusters,
                                             std::vector<double>(d, 0.0));
  for (size_t p = 0; p < n; ++p) {
    int label = labels[p];
    if (label == kOutlierLabel) continue;
    size_t i = static_cast<size_t>(label);
    auto point = dataset.point(p);
    for (size_t j = 0; j < d; ++j)
      deviation[i][j] += std::fabs(point[j] - centroid[i][j]);
  }

  size_t total_correlated = 0;
  size_t populated = 0;
  for (size_t i = 0; i < num_clusters; ++i) {
    if (count[i] == 0) continue;
    ++populated;
    size_t correlated = 0;
    for (size_t j = 0; j < d; ++j) {
      double dev = deviation[i][j] / static_cast<double>(count[i]);
      if (global_dev[j] > 0.0 &&
          dev < correlation_fraction * global_dev[j]) {
        ++correlated;
      }
    }
    // PROCLUS requires >= 2 dims per cluster.
    total_correlated += std::max<size_t>(correlated, 2);
  }
  if (populated == 0) return 2.0;
  double estimate = static_cast<double>(total_correlated) /
                    static_cast<double>(populated);
  return std::clamp(estimate, 2.0, static_cast<double>(d));
}

Result<TuneResult> AutoTuneAvgDims(const Dataset& dataset,
                                   const ProclusParams& base,
                                   const TuneParams& tune) {
  if (tune.max_rounds == 0)
    return Status::InvalidArgument("max_rounds must be >= 1");
  if (!std::isfinite(tune.correlation_fraction))
    return Status::InvalidArgument("correlation_fraction must be finite");
  if (tune.correlation_fraction <= 0.0 || tune.correlation_fraction >= 1.0)
    return Status::InvalidArgument(
        "correlation_fraction must be in (0, 1)");
  if (!std::isfinite(tune.initial_avg_dims))
    return Status::InvalidArgument("initial_avg_dims must be finite");
  if (tune.initial_avg_dims < 2.0 ||
      tune.initial_avg_dims > static_cast<double>(dataset.dims()))
    return Status::InvalidArgument("initial_avg_dims must be in [2, d]");
  {
    ProclusParams probe = base;
    probe.avg_dims = tune.initial_avg_dims;
    PROCLUS_RETURN_IF_ERROR(probe.Validate(dataset.size(), dataset.dims()));
  }

  TuneResult result;
  double current_l = tune.initial_avg_dims;
  for (size_t round = 0; round < tune.max_rounds; ++round) {
    ProclusParams params = base;
    params.avg_dims = current_l;
    auto clustering = RunProclus(dataset, params);
    PROCLUS_RETURN_IF_ERROR(clustering.status());

    double estimate =
        EstimateAvgDims(dataset, clustering->labels, params.num_clusters,
                        tune.correlation_fraction);
    result.rounds.push_back(
        {current_l, estimate, clustering->objective});
    result.clustering = std::move(clustering).value();
    result.selected_avg_dims = current_l;

    // Fixed point: re-cluster only while the estimate moves materially.
    double next_l = std::clamp(estimate, 2.0,
                               static_cast<double>(dataset.dims()));
    if (std::fabs(next_l - current_l) < 0.5) break;
    current_l = next_l;
  }
  return result;
}

}  // namespace proclus
