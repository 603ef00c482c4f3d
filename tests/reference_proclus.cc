#include "reference_proclus.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "core/find_dimensions.h"
#include "core/greedy.h"

namespace proclus::reference {
namespace {

// Rows of the data set, as read by every pass below.
struct Data {
  const Matrix& points;
  size_t n;
  size_t d;
  size_t block_rows;

  const double* row(size_t p) const { return points.row(p).data(); }
};

// Manhattan distance over all d dimensions, ascending.
double Manhattan(const double* a, const double* b, size_t d) {
  double sum = 0.0;
  for (size_t j = 0; j < d; ++j) sum += std::fabs(a[j] - b[j]);
  return sum;
}

// Figure 5: the Manhattan segmental distance on `dims` (ascending), or
// the plain restricted Manhattan sum when normalization is ablated.
double Segmental(const double* a, const double* b,
                 const std::vector<uint32_t>& dims, bool normalize) {
  double sum = 0.0;
  for (uint32_t j : dims) sum += std::fabs(a[j] - b[j]);
  return normalize ? sum / static_cast<double>(dims.size()) : sum;
}

// k x d sums plus k counts: the shape of every aggregate pass.
struct Sums {
  Sums(size_t k, size_t d) : sum(k * d, 0.0), count(k, 0) {}
  std::vector<double> sum;
  std::vector<size_t> count;
};

// One aggregate pass. The rows are cut into blocks of block_rows rows;
// `add(p, partial)` adds row p's terms to its block's partial, which
// starts at zero, and the partials are added into the total in
// ascending block order.
template <typename AddRow>
Sums BlockedSums(const Data& data, size_t k, AddRow add) {
  Sums total(k, data.d);
  for (size_t first = 0; first < data.n;) {
    const size_t rows = std::min(data.block_rows, data.n - first);
    Sums partial(k, data.d);
    for (size_t p = first; p < first + rows; ++p) add(p, partial);
    for (size_t i = 0; i < k * data.d; ++i) total.sum[i] += partial.sum[i];
    for (size_t i = 0; i < k; ++i) total.count[i] += partial.count[i];
    first += rows;
  }
  return total;
}

// Adds |p_j - ref_j| for every j to row i of `sums`.
void AddAbsDeviation(const double* p, const double* ref, size_t i, size_t d,
                     Sums& sums) {
  for (size_t j = 0; j < d; ++j)
    sums.sum[i * d + j] += std::fabs(p[j] - ref[j]);
  ++sums.count[i];
}

// Sum / count per entry; rows with no points stay zero.
Matrix Averages(const Sums& sums, size_t k, size_t d) {
  Matrix out(k, d);
  for (size_t i = 0; i < k; ++i) {
    if (sums.count[i] == 0) continue;
    for (size_t j = 0; j < d; ++j)
      out(i, j) = sums.sum[i * d + j] / static_cast<double>(sums.count[i]);
  }
  return out;
}

std::vector<std::vector<uint32_t>> Lists(
    const std::vector<DimensionSet>& dims) {
  std::vector<std::vector<uint32_t>> lists;
  for (const DimensionSet& set : dims) lists.push_back(set.ToVector());
  return lists;
}

// Figure 4, input of FindDimensions in the iterative phase. The locality
// L_i of medoid i holds the points within delta_i of it, where delta_i
// is the full-space segmental distance (Manhattan / d) to the nearest
// other medoid; X(i, j) is the average |p_j - m_ij| over L_i.
Matrix LocalityStats(const Data& data, const std::vector<size_t>& medoids) {
  const size_t k = medoids.size();
  const double d = static_cast<double>(data.d);
  std::vector<double> delta(k, std::numeric_limits<double>::infinity());
  for (size_t i = 0; i < k; ++i)
    for (size_t j = 0; j < k; ++j)
      if (j != i)
        delta[i] = std::min(
            delta[i],
            Manhattan(data.row(medoids[i]), data.row(medoids[j]), data.d) / d);
  Sums sums = BlockedSums(data, k, [&](size_t p, Sums& partial) {
    for (size_t i = 0; i < k; ++i) {
      const double* m = data.row(medoids[i]);
      if (Manhattan(data.row(p), m, data.d) / d <= delta[i])
        AddAbsDeviation(data.row(p), m, i, data.d, partial);
    }
  });
  return Averages(sums, k, data.d);
}

// Refinement input of FindDimensions: X(i, j) is the average
// |p_j - m_ij| over the points of cluster i (outliers skipped).
Matrix ClusterStats(const Data& data, const std::vector<size_t>& medoids,
                    const std::vector<int>& labels) {
  const size_t k = medoids.size();
  Sums sums = BlockedSums(data, k, [&](size_t p, Sums& partial) {
    if (labels[p] < 0) return;
    const size_t i = static_cast<size_t>(labels[p]);
    AddAbsDeviation(data.row(p), data.row(medoids[i]), i, data.d, partial);
  });
  return Averages(sums, k, data.d);
}

// Figure 5: each point goes to the medoid at the smallest segmental
// distance on that medoid's dimensions; ties go to the lower index. With
// `spheres`, a point outside every medoid's sphere of influence
// (distance > sphere) is an outlier.
std::vector<int> Assign(const Data& data, const std::vector<size_t>& medoids,
                        const std::vector<std::vector<uint32_t>>& dims,
                        bool normalize, const std::vector<double>* spheres) {
  std::vector<int> labels(data.n, 0);
  for (size_t p = 0; p < data.n; ++p) {
    double best = std::numeric_limits<double>::infinity();
    bool inside = false;
    for (size_t i = 0; i < medoids.size(); ++i) {
      const double dist =
          Segmental(data.row(p), data.row(medoids[i]), dims[i], normalize);
      if (dist < best) {
        best = dist;
        labels[p] = static_cast<int>(i);
      }
      if (spheres != nullptr && dist <= (*spheres)[i]) inside = true;
    }
    if (spheres != nullptr && !inside) labels[p] = kOutlierLabel;
  }
  return labels;
}

// Figure 6: the size-weighted average, over non-empty clusters, of the
// mean per-dimension distance of the cluster's points to its centroid
// on the cluster's dimensions. Two passes: centroids, then deviations.
double Evaluate(const Data& data, const std::vector<int>& labels,
                const std::vector<std::vector<uint32_t>>& dims) {
  const size_t k = dims.size();
  const size_t d = data.d;
  Sums coordinate_sums = BlockedSums(data, k, [&](size_t p, Sums& partial) {
    if (labels[p] < 0) return;
    const size_t i = static_cast<size_t>(labels[p]);
    for (size_t j = 0; j < d; ++j) partial.sum[i * d + j] += data.row(p)[j];
    ++partial.count[i];
  });
  const Matrix centroids = Averages(coordinate_sums, k, d);
  Sums deviations = BlockedSums(data, k, [&](size_t p, Sums& partial) {
    if (labels[p] < 0) return;
    const size_t i = static_cast<size_t>(labels[p]);
    AddAbsDeviation(data.row(p), centroids.row(i).data(), i, d, partial);
  });
  double weighted = 0.0;
  size_t clustered = 0;
  for (size_t i = 0; i < k; ++i) {
    const size_t count = coordinate_sums.count[i];
    if (count == 0) continue;
    double w = 0.0;
    for (uint32_t j : dims[i])
      w += deviations.sum[i * d + j] / static_cast<double>(count);
    w /= static_cast<double>(dims[i].size());
    weighted += w * static_cast<double>(count);
    clustered += count;
  }
  return clustered == 0 ? 0.0 : weighted / static_cast<double>(clustered);
}

// The bad medoids of Figure 2: the medoid of the smallest cluster (ties
// to the lower index), plus every medoid whose cluster has fewer than
// (N/k) * min_deviation points.
std::vector<size_t> BadMedoids(const std::vector<int>& labels, size_t k,
                               double min_deviation) {
  std::vector<size_t> count(k, 0);
  for (int label : labels) ++count[static_cast<size_t>(label)];
  size_t smallest = 0;
  for (size_t i = 1; i < k; ++i)
    if (count[i] < count[smallest]) smallest = i;
  const double threshold =
      static_cast<double>(labels.size()) / static_cast<double>(k) *
      min_deviation;
  std::vector<size_t> bad{smallest};
  for (size_t i = 0; i < k; ++i)
    if (i != smallest && static_cast<double>(count[i]) < threshold)
      bad.push_back(i);
  return bad;
}

// Replaces the bad medoids (positions in `slots`) by random candidates
// not in the set: the unused candidate slots, ascending, shuffled, taken
// in order.
void ReplaceBad(size_t pool, const std::vector<size_t>& bad,
                std::vector<size_t>& slots, Rng& rng) {
  std::vector<size_t> unused;
  for (size_t slot = 0; slot < pool; ++slot)
    if (std::find(slots.begin(), slots.end(), slot) == slots.end())
      unused.push_back(slot);
  rng.Shuffle(unused);
  for (size_t b = 0; b < bad.size() && b < unused.size(); ++b)
    slots[bad[b]] = unused[b];
}

std::vector<size_t> Points(const std::vector<size_t>& candidates,
                           const std::vector<size_t>& slots) {
  std::vector<size_t> points;
  for (size_t slot : slots) points.push_back(candidates[slot]);
  return points;
}

Status Validate(const ProclusParams& p, size_t n, size_t d) {
  const size_t k = p.num_clusters;
  const bool valid =
      k >= 1 && n >= k && d >= 2 && p.avg_dims >= 2.0 &&
      p.avg_dims <= static_cast<double>(d) &&
      static_cast<size_t>(std::llround(p.avg_dims * static_cast<double>(k))) <=
          k * d &&
      p.sample_factor >= 1 && p.candidate_factor >= 1 &&
      p.min_deviation > 0.0 && p.min_deviation <= 1.0 &&
      p.max_iterations >= 1 && p.max_no_improve >= 1 &&
      p.num_restarts >= 1 && p.block_rows >= 1;
  return valid ? Status::OK()
               : Status::InvalidArgument("parameters outside the paper's "
                                         "domain");
}

// Best state of one hill climb (or of all restarts).
struct Climb {
  double objective = std::numeric_limits<double>::infinity();
  std::vector<size_t> slots;
  std::vector<DimensionSet> dims;
  std::vector<int> labels;
};

}  // namespace

Result<ProjectedClustering> Proclus(const Dataset& dataset,
                                    const ProclusParams& params) {
  const Data data{dataset.matrix(), dataset.size(), dataset.dims(),
                  params.block_rows};
  PROCLUS_RETURN_IF_ERROR(Validate(params, data.n, data.d));
  const size_t k = params.num_clusters;
  Rng rng(params.seed);

  // ----- Initialization (Figure 2, Figure 3) -----
  // A random sample S of A*k points is reduced to B*k candidate medoids
  // by the farthest-first greedy (or, in the ablation, the candidates
  // are a plain random sample of that size).
  const size_t sample_size = std::min(data.n, params.sample_factor * k);
  const size_t candidate_size =
      std::max(k, std::min(sample_size, params.candidate_factor * k));
  std::vector<size_t> candidates;
  if (params.two_step_init) {
    const std::vector<size_t> sample =
        rng.SampleWithoutReplacement(data.n, sample_size);
    candidates = GreedyPick(dataset, sample, candidate_size,
                            MetricKind::kManhattan, rng);
  } else {
    candidates = rng.SampleWithoutReplacement(data.n, candidate_size);
  }

  // ----- Iterative phase (Figure 2), once per restart -----
  ProjectedClustering result;
  Climb best;
  for (size_t restart = 0; restart < params.num_restarts; ++restart) {
    std::vector<size_t> current =
        rng.SampleWithoutReplacement(candidates.size(), k);
    Climb climb;
    std::vector<size_t> bad;
    size_t since_improvement = 0;
    for (size_t iteration = 0; iteration < params.max_iterations &&
                               since_improvement < params.max_no_improve;
         ++iteration) {
      ++result.iterations;
      const std::vector<size_t> medoids = Points(candidates, current);
      auto dims =
          FindDimensions(LocalityStats(data, medoids), params.avg_dims);
      PROCLUS_RETURN_IF_ERROR(dims.status());
      const std::vector<std::vector<uint32_t>> lists = Lists(*dims);
      std::vector<int> labels =
          Assign(data, medoids, lists, params.segmental_normalization,
                 /*spheres=*/nullptr);
      const double objective = Evaluate(data, labels, lists);
      if (objective < climb.objective) {
        climb.objective = objective;
        climb.slots = current;
        climb.dims = *std::move(dims);
        climb.labels = std::move(labels);
        bad = BadMedoids(climb.labels, k, params.min_deviation);
        ++result.improvements;
        since_improvement = 0;
      } else {
        ++since_improvement;
      }
      current = climb.slots;
      ReplaceBad(candidates.size(), bad, current, rng);
      if (current == climb.slots) break;  // No unused candidate left.
    }
    if (climb.objective < best.objective) best = std::move(climb);
  }

  result.medoids = Points(candidates, best.slots);
  result.medoid_coords = Matrix(k, data.d);
  for (size_t i = 0; i < k; ++i)
    for (size_t j = 0; j < data.d; ++j)
      result.medoid_coords(i, j) = data.row(result.medoids[i])[j];
  if (!params.refine) {
    result.dimensions = std::move(best.dims);
    result.labels = std::move(best.labels);
    result.objective = best.objective;
    return result;
  }

  // ----- Refinement phase (Figure 2) -----
  // Dimensions are recomputed from the clusters instead of the
  // localities; each medoid's sphere of influence is the segmental
  // distance to its nearest other medoid on its own dimensions; points
  // are reassigned, outside every sphere being outliers.
  auto dims = FindDimensions(ClusterStats(data, result.medoids, best.labels),
                             params.avg_dims);
  PROCLUS_RETURN_IF_ERROR(dims.status());
  const std::vector<std::vector<uint32_t>> lists = Lists(*dims);
  result.spheres.assign(k, std::numeric_limits<double>::infinity());
  for (size_t i = 0; i < k; ++i)
    for (size_t j = 0; j < k; ++j)
      if (j != i)
        result.spheres[i] = std::min(
            result.spheres[i],
            Segmental(data.row(result.medoids[i]), data.row(result.medoids[j]),
                      lists[i], params.segmental_normalization));
  result.labels =
      Assign(data, result.medoids, lists, params.segmental_normalization,
             params.detect_outliers ? &result.spheres : nullptr);
  result.objective = Evaluate(data, result.labels, lists);
  result.dimensions = *std::move(dims);
  return result;
}

namespace {

Data DefaultBlocks(const Dataset& dataset) {
  return {dataset.matrix(), dataset.size(), dataset.dims(),
          ProclusParams{}.block_rows};
}

}  // namespace

Matrix LocalityStats(const Dataset& dataset,
                     const std::vector<size_t>& medoids) {
  return LocalityStats(DefaultBlocks(dataset), medoids);
}

Matrix ClusterStats(const Dataset& dataset,
                    const std::vector<size_t>& medoids,
                    const std::vector<int>& labels) {
  return ClusterStats(DefaultBlocks(dataset), medoids, labels);
}

std::vector<int> Assign(const Dataset& dataset,
                        const std::vector<size_t>& medoids,
                        const std::vector<DimensionSet>& dims,
                        bool segmental_normalization) {
  return Assign(DefaultBlocks(dataset), medoids, Lists(dims),
                segmental_normalization, /*spheres=*/nullptr);
}

double Evaluate(const Dataset& dataset, const std::vector<int>& labels,
                const std::vector<DimensionSet>& dims) {
  return Evaluate(DefaultBlocks(dataset), labels, Lists(dims));
}

}  // namespace proclus::reference
