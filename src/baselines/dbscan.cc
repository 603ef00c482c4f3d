#include "baselines/dbscan.h"

#include <cmath>
#include <deque>

#include "gen/ground_truth.h"

namespace proclus {

Status DbscanParams::Validate() const {
  if (!std::isfinite(eps))
    return Status::InvalidArgument("eps must be finite");
  if (eps <= 0.0) return Status::InvalidArgument("eps must be > 0");
  if (min_points == 0)
    return Status::InvalidArgument("min_points must be >= 1");
  return Status::OK();
}

Result<DbscanResult> RunDbscan(const Dataset& dataset,
                               const DbscanParams& params) {
  PROCLUS_RETURN_IF_ERROR(params.Validate());
  const size_t n = dataset.size();

  // Exact quadratic neighborhood lists.
  std::vector<std::vector<uint32_t>> neighbors(n);
  for (size_t i = 0; i < n; ++i) {
    auto pi = dataset.point(i);
    neighbors[i].push_back(static_cast<uint32_t>(i));
    for (size_t j = i + 1; j < n; ++j) {
      if (Distance(params.metric, pi, dataset.point(j)) <= params.eps) {
        neighbors[i].push_back(static_cast<uint32_t>(j));
        neighbors[j].push_back(static_cast<uint32_t>(i));
      }
    }
  }

  DbscanResult result;
  result.labels.assign(n, kOutlierLabel);
  std::vector<bool> core(n, false);
  for (size_t i = 0; i < n; ++i) {
    core[i] = neighbors[i].size() >= params.min_points;
    if (core[i]) ++result.core_points;
  }

  // Expand clusters from unvisited core points in index order.
  std::vector<bool> visited(n, false);
  int next_cluster = 0;
  for (size_t seed = 0; seed < n; ++seed) {
    if (!core[seed] || visited[seed]) continue;
    int cluster = next_cluster++;
    std::deque<uint32_t> frontier{static_cast<uint32_t>(seed)};
    visited[seed] = true;
    result.labels[seed] = cluster;
    while (!frontier.empty()) {
      uint32_t current = frontier.front();
      frontier.pop_front();
      if (!core[current]) continue;  // Border points do not expand.
      for (uint32_t neighbor : neighbors[current]) {
        if (result.labels[neighbor] == kOutlierLabel)
          result.labels[neighbor] = cluster;  // Claim border points.
        if (!visited[neighbor] && core[neighbor]) {
          visited[neighbor] = true;
          frontier.push_back(neighbor);
        }
      }
    }
  }
  result.num_clusters = static_cast<size_t>(next_cluster);
  return result;
}

}  // namespace proclus
