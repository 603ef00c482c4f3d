#include "extensions/orclus.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/check.h"
#include "common/eigen.h"
#include "common/rng.h"

namespace proclus {

Status OrclusParams::Validate(size_t num_points, size_t dims) const {
  if (num_clusters == 0)
    return Status::InvalidArgument("num_clusters must be >= 1");
  if (num_points < num_clusters)
    return Status::InvalidArgument("fewer points than clusters");
  if (subspace_dims == 0 || subspace_dims > dims)
    return Status::InvalidArgument("subspace_dims must be in [1, d]");
  if (!std::isfinite(alpha))
    return Status::InvalidArgument("alpha must be finite");
  if (alpha <= 0.0 || alpha >= 1.0)
    return Status::InvalidArgument("alpha must be in (0, 1)");
  if (initial_seeds != 0 && initial_seeds < num_clusters)
    return Status::InvalidArgument("initial_seeds must be >= num_clusters");
  return Status::OK();
}

double ProjectedDistance(std::span<const double> point,
                         std::span<const double> center,
                         const Matrix& basis) {
  PROCLUS_DCHECK(point.size() == center.size());
  PROCLUS_DCHECK(basis.cols() == point.size());
  double sum = 0.0;
  for (size_t e = 0; e < basis.rows(); ++e) {
    auto axis = basis.row(e);
    double dot = 0.0;
    for (size_t j = 0; j < point.size(); ++j)
      dot += (point[j] - center[j]) * axis[j];
    sum += dot * dot;
  }
  return std::sqrt(sum);
}

namespace {

// Per-cluster sufficient statistics: count, mean, covariance (around the
// mean), plus the current basis of tight directions.
struct ClusterState {
  size_t count = 0;
  std::vector<double> mean;
  Matrix covariance;  // d x d.
  Matrix basis;       // s x d (s = current subspace dimensionality).
};

// Second-moment matrix E[x x^T] from mean/covariance.
Matrix SecondMoment(const ClusterState& cluster) {
  const size_t d = cluster.mean.size();
  Matrix moment = cluster.covariance;
  for (size_t i = 0; i < d; ++i)
    for (size_t j = 0; j < d; ++j)
      moment(i, j) += cluster.mean[i] * cluster.mean[j];
  return moment;
}

// Covariance of the union of two clusters from their statistics.
Matrix UnionCovariance(const ClusterState& a, const ClusterState& b,
                       std::vector<double>* union_mean) {
  const size_t d = a.mean.size();
  const double na = static_cast<double>(a.count);
  const double nb = static_cast<double>(b.count);
  const double n = na + nb;
  union_mean->resize(d);
  for (size_t j = 0; j < d; ++j)
    (*union_mean)[j] = (na * a.mean[j] + nb * b.mean[j]) / n;
  Matrix ma = SecondMoment(a);
  Matrix mb = SecondMoment(b);
  Matrix cov(d, d);
  for (size_t i = 0; i < d; ++i)
    for (size_t j = 0; j < d; ++j)
      cov(i, j) = (na * ma(i, j) + nb * mb(i, j)) / n -
                  (*union_mean)[i] * (*union_mean)[j];
  return cov;
}

// Projected energy of a covariance in its own best s-dim tight subspace:
// the sum of the s smallest eigenvalues (clamped at 0 for numeric noise).
double ProjectedEnergy(const Matrix& covariance, size_t s) {
  auto eigen = JacobiEigen(covariance, /*symmetry_tolerance=*/1e-6);
  PROCLUS_CHECK(eigen.ok());
  double energy = 0.0;
  for (size_t e = 0; e < s && e < eigen->values.size(); ++e)
    energy += std::max(eigen->values[e], 0.0);
  return energy;
}

// The s smallest-eigenvalue eigenvectors of a covariance.
Matrix TightBasis(const Matrix& covariance, size_t s) {
  auto eigen = JacobiEigen(covariance, /*symmetry_tolerance=*/1e-6);
  PROCLUS_CHECK(eigen.ok());
  const size_t d = covariance.rows();
  Matrix basis(std::min(s, d), d);
  for (size_t e = 0; e < basis.rows(); ++e) {
    auto src = eigen->vectors.row(e);
    std::copy(src.begin(), src.end(), basis.row(e).begin());
  }
  return basis;
}

// Recomputes means/covariances/bases of the clusters from an assignment;
// drops empty clusters (compacting labels). Returns cluster states.
std::vector<ClusterState> RebuildClusters(const Dataset& dataset,
                                          std::vector<int>* labels,
                                          size_t num_clusters,
                                          size_t subspace_dims) {
  const size_t d = dataset.dims();
  std::vector<ClusterState> clusters(num_clusters);
  for (auto& cluster : clusters) {
    cluster.mean.assign(d, 0.0);
    cluster.covariance = Matrix(d, d);
  }
  for (size_t p = 0; p < dataset.size(); ++p) {
    int label = (*labels)[p];
    PROCLUS_CHECK(label >= 0 &&
                  static_cast<size_t>(label) < num_clusters);
    ClusterState& cluster = clusters[static_cast<size_t>(label)];
    auto point = dataset.point(p);
    for (size_t j = 0; j < d; ++j) cluster.mean[j] += point[j];
    ++cluster.count;
  }
  for (auto& cluster : clusters) {
    if (cluster.count == 0) continue;
    for (double& m : cluster.mean)
      m /= static_cast<double>(cluster.count);
  }
  for (size_t p = 0; p < dataset.size(); ++p) {
    ClusterState& cluster =
        clusters[static_cast<size_t>((*labels)[p])];
    auto point = dataset.point(p);
    for (size_t i = 0; i < d; ++i) {
      double di = point[i] - cluster.mean[i];
      for (size_t j = i; j < d; ++j)
        cluster.covariance(i, j) += di * (point[j] - cluster.mean[j]);
    }
  }
  for (auto& cluster : clusters) {
    if (cluster.count == 0) continue;
    const double inv = 1.0 / static_cast<double>(cluster.count);
    for (size_t i = 0; i < d; ++i)
      for (size_t j = i; j < d; ++j) {
        cluster.covariance(i, j) *= inv;
        cluster.covariance(j, i) = cluster.covariance(i, j);
      }
  }

  // Compact away empty clusters and renumber labels.
  std::vector<int> remap(num_clusters, -1);
  std::vector<ClusterState> compacted;
  for (size_t i = 0; i < num_clusters; ++i) {
    if (clusters[i].count == 0) continue;
    remap[i] = static_cast<int>(compacted.size());
    compacted.push_back(std::move(clusters[i]));
  }
  for (auto& label : *labels)
    label = remap[static_cast<size_t>(label)];
  for (auto& cluster : compacted)
    cluster.basis = TightBasis(cluster.covariance, subspace_dims);
  return compacted;
}

// Assigns every point to the cluster with the smallest projected
// distance. Ties to the lower index.
void AssignProjected(const Dataset& dataset,
                     const std::vector<ClusterState>& clusters,
                     std::vector<int>* labels) {
  for (size_t p = 0; p < dataset.size(); ++p) {
    auto point = dataset.point(p);
    double best = std::numeric_limits<double>::infinity();
    int best_i = 0;
    for (size_t i = 0; i < clusters.size(); ++i) {
      double dist =
          ProjectedDistance(point, clusters[i].mean, clusters[i].basis);
      if (dist < best) {
        best = dist;
        best_i = static_cast<int>(i);
      }
    }
    (*labels)[p] = best_i;
  }
}

// Merges clusters (by union projected energy, cheapest first) until at
// most `target` remain. Labels are renumbered accordingly.
void MergeClusters(std::vector<ClusterState>* clusters,
                   std::vector<int>* labels, size_t target,
                   size_t subspace_dims) {
  while (clusters->size() > target) {
    size_t best_a = 0, best_b = 1;
    double best_cost = std::numeric_limits<double>::infinity();
    Matrix best_covariance;
    std::vector<double> best_mean;
    for (size_t a = 0; a < clusters->size(); ++a) {
      for (size_t b = a + 1; b < clusters->size(); ++b) {
        std::vector<double> mean;
        Matrix covariance =
            UnionCovariance((*clusters)[a], (*clusters)[b], &mean);
        double cost = ProjectedEnergy(covariance, subspace_dims);
        if (cost < best_cost) {
          best_cost = cost;
          best_a = a;
          best_b = b;
          best_covariance = std::move(covariance);
          best_mean = std::move(mean);
        }
      }
    }
    // Fold b into a.
    ClusterState& a = (*clusters)[best_a];
    ClusterState& b = (*clusters)[best_b];
    a.count += b.count;
    a.mean = std::move(best_mean);
    a.covariance = std::move(best_covariance);
    a.basis = TightBasis(a.covariance, subspace_dims);
    for (auto& label : *labels) {
      if (label == static_cast<int>(best_b))
        label = static_cast<int>(best_a);
      else if (label > static_cast<int>(best_b))
        --label;
    }
    clusters->erase(clusters->begin() + static_cast<long>(best_b));
  }
}

}  // namespace

Result<OrclusResult> RunOrclus(const Dataset& dataset,
                               const OrclusParams& params) {
  PROCLUS_RETURN_IF_ERROR(params.Validate(dataset.size(), dataset.dims()));
  const size_t n = dataset.size();
  const size_t d = dataset.dims();
  const size_t k = params.num_clusters;
  const size_t l = params.subspace_dims;
  Rng rng(params.seed);

  size_t k0 = params.initial_seeds == 0 ? 15 * k : params.initial_seeds;
  k0 = std::min(k0, n);
  k0 = std::max(k0, k);

  // Decay schedules: cluster count by alpha, subspace dimensionality by
  // beta, chosen so both reach their targets after the same number of
  // iterations.
  size_t rounds = 0;
  for (size_t kc = k0; kc > k;
       kc = std::max(k, static_cast<size_t>(std::floor(
                            params.alpha * static_cast<double>(kc)))))
    ++rounds;
  rounds = std::max<size_t>(rounds, 1);
  const double beta =
      std::pow(static_cast<double>(l) / static_cast<double>(d),
               1.0 / static_cast<double>(rounds));

  // Initial seeds: random points, full-dimensional subspaces.
  std::vector<size_t> seed_indices = rng.SampleWithoutReplacement(n, k0);
  std::vector<ClusterState> clusters(k0);
  for (size_t i = 0; i < k0; ++i) {
    auto point = dataset.point(seed_indices[i]);
    clusters[i].count = 1;
    clusters[i].mean.assign(point.begin(), point.end());
    clusters[i].covariance = Matrix(d, d);
    // Identity basis rows = axis directions (full space).
    clusters[i].basis = Matrix(d, d);
    for (size_t j = 0; j < d; ++j) clusters[i].basis(j, j) = 1.0;
  }

  std::vector<int> labels(n, 0);
  OrclusResult result;
  size_t kc = k0;
  double lc = static_cast<double>(d);
  while (true) {
    ++result.iterations;
    size_t current_dims = std::max(
        l, static_cast<size_t>(std::llround(lc)));
    AssignProjected(dataset, clusters, &labels);
    clusters = RebuildClusters(dataset, &labels, clusters.size(),
                               current_dims);
    if (kc <= k && clusters.size() <= k) break;
    size_t next_kc = std::max(
        k, static_cast<size_t>(
               std::floor(params.alpha * static_cast<double>(kc))));
    lc = std::max(static_cast<double>(l), lc * beta);
    size_t next_dims = std::max(
        l, static_cast<size_t>(std::llround(lc)));
    MergeClusters(&clusters, &labels, next_kc, next_dims);
    kc = clusters.size();
    if (result.iterations > 100) break;  // Safety bound.
  }

  // Final assignment and bookkeeping at exactly l dimensions.
  for (auto& cluster : clusters)
    cluster.basis = TightBasis(cluster.covariance, l);
  AssignProjected(dataset, clusters, &labels);
  clusters = RebuildClusters(dataset, &labels, clusters.size(), l);

  result.labels = std::move(labels);
  result.centroids = Matrix(clusters.size(), d);
  result.subspaces.reserve(clusters.size());
  double objective = 0.0;
  for (size_t i = 0; i < clusters.size(); ++i) {
    for (size_t j = 0; j < d; ++j)
      result.centroids(i, j) = clusters[i].mean[j];
    result.subspaces.push_back(clusters[i].basis);
  }
  for (size_t p = 0; p < n; ++p) {
    size_t i = static_cast<size_t>(result.labels[p]);
    objective += ProjectedDistance(dataset.point(p), clusters[i].mean,
                                   clusters[i].basis);
  }
  result.objective = objective / static_cast<double>(n);
  return result;
}

}  // namespace proclus
