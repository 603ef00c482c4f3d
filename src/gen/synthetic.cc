#include "gen/synthetic.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <string>
#include <utility>

#include "common/rng.h"

namespace proclus {

Status GeneratorParams::Validate() const {
  // Every range check below is false for a NaN, so non-finite values are
  // rejected first; an infinite spread, scale or range would otherwise
  // yield non-finite coordinates.
  const std::pair<const char*, double> doubles[] = {
      {"poisson_mean", poisson_mean},
      {"outlier_fraction", outlier_fraction},
      {"spread", spread},
      {"max_scale", max_scale},
      {"range", range},
      {"rotation_max_degrees", rotation_max_degrees}};
  for (const auto& [name, value] : doubles) {
    if (!std::isfinite(value))
      return Status::InvalidArgument(std::string(name) + " must be finite");
  }
  if (num_points == 0) return Status::InvalidArgument("num_points must be > 0");
  if (space_dims < 2)
    return Status::InvalidArgument("space_dims must be >= 2");
  if (space_dims > std::vector<double>().max_size() / num_points)
    return Status::InvalidArgument(
        "num_points * space_dims is too large to allocate");
  if (num_clusters == 0)
    return Status::InvalidArgument("num_clusters must be > 0");
  if (!cluster_dim_counts.empty() &&
      cluster_dim_counts.size() != num_clusters) {
    return Status::InvalidArgument(
        "cluster_dim_counts must be empty or have num_clusters entries");
  }
  if (outlier_fraction < 0.0 || outlier_fraction >= 1.0)
    return Status::InvalidArgument("outlier_fraction must be in [0, 1)");
  if (poisson_mean <= 0.0 && cluster_dim_counts.empty())
    return Status::InvalidArgument("poisson_mean must be > 0");
  if (spread <= 0.0) return Status::InvalidArgument("spread must be > 0");
  if (max_scale < 1.0)
    return Status::InvalidArgument("max_scale must be >= 1");
  if (range <= 0.0) return Status::InvalidArgument("range must be > 0");
  if (rotation_max_degrees < 0.0 || rotation_max_degrees > 90.0)
    return Status::InvalidArgument(
        "rotation_max_degrees must be in [0, 90]");
  // A cluster coordinate is anchor + s_ij * spread * z with s_ij <= max_scale
  // and |z| < 12.1 (the polar method's s is at least 2^-104), and a rotation
  // adds at most one more range, so this bound keeps every coordinate finite.
  if (!std::isfinite(2.0 * range + 16.0 * spread * max_scale))
    return Status::InvalidArgument(
        "range, spread and max_scale are too large: coordinates would "
        "overflow");
  size_t min_cluster_points =
      static_cast<size_t>(static_cast<double>(num_points) *
                          (1.0 - outlier_fraction));
  if (min_cluster_points < num_clusters)
    return Status::InvalidArgument(
        "not enough non-outlier points for the requested cluster count");
  return Status::OK();
}

namespace {

// Per-cluster dimensionality: Poisson(lambda) clamped to [2, d], or the
// user-pinned counts.
std::vector<size_t> DrawClusterDimCounts(const GeneratorParams& params,
                                         Rng& rng) {
  std::vector<size_t> counts(params.num_clusters);
  if (!params.cluster_dim_counts.empty()) {
    for (size_t i = 0; i < params.num_clusters; ++i) {
      counts[i] = std::clamp<size_t>(params.cluster_dim_counts[i], 2,
                                     params.space_dims);
    }
    return counts;
  }
  for (size_t i = 0; i < params.num_clusters; ++i) {
    int draw = rng.Poisson(params.poisson_mean);
    counts[i] = std::clamp<size_t>(static_cast<size_t>(std::max(draw, 0)), 2,
                                   params.space_dims);
  }
  return counts;
}

// Inductive dimension selection of Section 4.1: the first cluster's
// dimensions are random; cluster i inherits min(d_{i-1}, d_i / 2)
// dimensions from cluster i-1 and draws the rest at random.
std::vector<DimensionSet> DrawClusterDims(const GeneratorParams& params,
                                          const std::vector<size_t>& counts,
                                          Rng& rng) {
  const size_t d = params.space_dims;
  std::vector<DimensionSet> dims;
  dims.reserve(counts.size());
  std::vector<uint32_t> prev;
  for (size_t i = 0; i < counts.size(); ++i) {
    const size_t want = counts[i];
    DimensionSet set(d);
    std::vector<uint32_t> chosen;
    // draws: invariant — the generator is sequential seeded driver code:
    // its draw sequence is a pure function of params, so a data-dependent
    // count cannot desynchronize anything (no scans, no speculation).
    if (i > 0) {
      size_t inherit =
          std::min(prev.size(), static_cast<size_t>(want / 2));
      if (inherit > 0) {
        std::vector<size_t> pick = rng.SampleWithoutReplacement(
            prev.size(), inherit);
        for (size_t p : pick) chosen.push_back(prev[p]);
      }
    }
    // Fill the remainder with fresh random dimensions.
    std::vector<uint32_t> pool;
    pool.reserve(d);
    for (uint32_t j = 0; j < d; ++j) {
      if (std::find(chosen.begin(), chosen.end(), j) == chosen.end())
        pool.push_back(j);
    }
    rng.Shuffle(pool);
    for (size_t p = 0; chosen.size() < want; ++p) chosen.push_back(pool[p]);
    for (uint32_t j : chosen) set.Add(j);
    PROCLUS_CHECK(set.size() == want);
    dims.push_back(std::move(set));
    prev = chosen;
  }
  return dims;
}

// Cluster sizes proportional to k iid Exponential(1) realizations, summing
// to num_cluster_points, each cluster non-empty.
std::vector<size_t> DrawClusterSizes(size_t num_cluster_points, size_t k,
                                     Rng& rng) {
  std::vector<double> r(k);
  double total = 0.0;
  for (double& v : r) {
    v = rng.Exponential(1.0);
    total += v;
  }
  std::vector<size_t> sizes(k, 1);  // Guarantee non-empty clusters.
  size_t assigned = k;
  PROCLUS_CHECK(num_cluster_points >= k);
  for (size_t i = 0; i < k; ++i) {
    size_t extra = static_cast<size_t>(
        std::floor(static_cast<double>(num_cluster_points - k) * r[i] /
                   total));
    sizes[i] += extra;
    assigned += extra;
  }
  // Distribute the rounding remainder round-robin.
  size_t i = 0;
  while (assigned < num_cluster_points) {
    ++sizes[i % k];
    ++assigned;
    ++i;
  }
  return sizes;
}

}  // namespace

Result<SyntheticData> GenerateSynthetic(const GeneratorParams& params) {
  PROCLUS_RETURN_IF_ERROR(params.Validate());
  Rng rng(params.seed);

  const size_t d = params.space_dims;
  const size_t k = params.num_clusters;
  const size_t n = params.num_points;
  const size_t num_outliers = static_cast<size_t>(
      std::floor(static_cast<double>(n) * params.outlier_fraction));
  const size_t num_cluster_points = n - num_outliers;

  // Anchor points, cluster dimensions, cluster sizes.
  std::vector<std::vector<double>> anchors(k, std::vector<double>(d));
  for (auto& anchor : anchors)
    for (double& coord : anchor) coord = rng.Uniform(0.0, params.range);

  std::vector<size_t> dim_counts = DrawClusterDimCounts(params, rng);
  std::vector<DimensionSet> cluster_dims =
      DrawClusterDims(params, dim_counts, rng);
  std::vector<size_t> sizes = DrawClusterSizes(num_cluster_points, k, rng);

  // Per-(cluster, dimension) scale factors s_ij in [1, max_scale].
  std::vector<std::vector<double>> sigma(k, std::vector<double>(d, 0.0));
  for (size_t i = 0; i < k; ++i) {
    for (uint32_t j : cluster_dims[i].ToVector()) {
      double s_ij = rng.Uniform(1.0, params.max_scale);
      sigma[i][j] = s_ij * params.spread;
    }
  }

  Matrix points(n, d);
  std::vector<int> labels(n, kOutlierLabel);

  size_t row = 0;
  const double max_angle =
      params.rotation_max_degrees * 3.14159265358979323846 / 180.0;
  for (size_t i = 0; i < k; ++i) {
    std::vector<uint32_t> cdims = cluster_dims[i].ToVector();
    std::vector<bool> is_cluster_dim(d, false);
    for (uint32_t j : cdims) is_cluster_dim[j] = true;
    // Beyond-paper rotation: tilt alternating cluster dimensions toward
    // randomly chosen non-cluster dimensions (empty at 0 degrees).
    struct Givens {
      uint32_t a, b;
      double cos_t, sin_t;
    };
    std::vector<Givens> rotations;
    // draws: invariant — sequential seeded generator; the branch and the
    // pair count are pure functions of params, so the draw sequence is
    // reproducible by construction.
    if (max_angle > 0.0) {
      std::vector<uint32_t> noise_dims;
      for (uint32_t j = 0; j < d; ++j)
        if (!is_cluster_dim[j]) noise_dims.push_back(j);
      if (!noise_dims.empty()) {
        rng.Shuffle(noise_dims);
        size_t next_noise = 0;
        for (size_t pair = 0; pair < cdims.size() && next_noise <
                                                     noise_dims.size();
             pair += 2) {
          double theta = rng.Uniform(0.5 * max_angle, max_angle);
          rotations.push_back({cdims[pair], noise_dims[next_noise++],
                               std::cos(theta), std::sin(theta)});
        }
      }
    }
    for (size_t p = 0; p < sizes[i]; ++p, ++row) {
      auto out = points.row(row);
      for (size_t j = 0; j < d; ++j) {
        // draws: invariant — each arm consumes exactly one draw per
        // coordinate, so the stream position is path-independent.
        if (is_cluster_dim[j]) {
          out[j] = rng.Normal(anchors[i][j], sigma[i][j]);
        } else {
          out[j] = rng.Uniform(0.0, params.range);
        }
      }
      for (const Givens& g : rotations) {
        double x = out[g.a] - anchors[i][g.a];
        double y = out[g.b] - anchors[i][g.b];
        out[g.a] = anchors[i][g.a] + g.cos_t * x - g.sin_t * y;
        out[g.b] = anchors[i][g.b] + g.sin_t * x + g.cos_t * y;
      }
      labels[row] = static_cast<int>(i);
    }
  }
  for (size_t p = 0; p < num_outliers; ++p, ++row) {
    auto out = points.row(row);
    for (size_t j = 0; j < d; ++j) out[j] = rng.Uniform(0.0, params.range);
  }
  // invariant: cluster sizes plus outliers were constructed to sum to n.
  PROCLUS_CHECK(row == n);

  // Shuffle points so cluster membership is not encoded in file order.
  // The Fisher–Yates swaps move the rows in place, so the generator never
  // holds a second n × d matrix.
  rng.Shuffle(n, [&points, &labels](size_t a, size_t b) {
    if (a == b) return;  // swap_ranges needs two distinct rows.
    std::span<double> row_a = points.row(a);
    std::swap_ranges(row_a.begin(), row_a.end(), points.row(b).begin());
    std::swap(labels[a], labels[b]);
  });

  SyntheticData out;
  out.dataset = Dataset(std::move(points));
  out.truth.labels = std::move(labels);
  out.truth.cluster_dims = std::move(cluster_dims);
  out.truth.anchors = std::move(anchors);
  return out;
}

}  // namespace proclus
