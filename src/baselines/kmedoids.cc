#include "baselines/kmedoids.h"

#include <algorithm>
#include <limits>
#include <unordered_set>

#include "common/matrix.h"
#include "common/rng.h"
#include "common/timer.h"
#include "data/engine.h"
#include "distance/batch.h"

namespace proclus {

Status PamParams::Validate(size_t num_points) const {
  if (num_clusters == 0)
    return Status::InvalidArgument("num_clusters must be >= 1");
  if (num_points < num_clusters)
    return Status::InvalidArgument("fewer points than clusters");
  if (max_iterations == 0)
    return Status::InvalidArgument("max_iterations must be >= 1");
  return Status::OK();
}

Status ClaransParams::Validate(size_t num_points) const {
  if (num_clusters == 0)
    return Status::InvalidArgument("num_clusters must be >= 1");
  if (num_points < num_clusters)
    return Status::InvalidArgument("fewer points than clusters");
  if (num_local == 0)
    return Status::InvalidArgument("num_local must be >= 1");
  if (block_rows == 0)
    return Status::InvalidArgument("block_rows must be >= 1");
  return Status::OK();
}

namespace {

// Assigns each point to its nearest medoid; returns total cost.
double AssignToMedoids(const Dataset& dataset,
                       const std::vector<size_t>& medoids, MetricKind metric,
                       std::vector<int>* labels) {
  const size_t n = dataset.size();
  labels->assign(n, 0);
  double cost = 0.0;
  for (size_t p = 0; p < n; ++p) {
    auto point = dataset.point(p);
    double best = std::numeric_limits<double>::infinity();
    int best_i = 0;
    for (size_t m = 0; m < medoids.size(); ++m) {
      double d = Distance(metric, point, dataset.point(medoids[m]));
      if (d < best) {
        best = d;
        best_i = static_cast<int>(m);
      }
    }
    (*labels)[p] = best_i;
    cost += best;
  }
  return cost;
}

// Nearest-medoid assignment + cost over a scan: the per-point labels are
// exact, the cost is a block-partial sum merged in block order.
class MedoidAssignConsumer final : public ScanConsumer {
 public:
  /// `medoid_coords` (k x d) must outlive the scan.
  void Bind(const Matrix* medoid_coords, MetricKind metric) {
    medoids_ = medoid_coords;
    metric_ = metric;
  }

  Status Prepare(const ScanGeometry& geometry) override {
    if (medoids_->cols() != geometry.dims)
      return Status::InvalidArgument("medoid dimensionality mismatch");
    dims_ = geometry.dims;
    labels_.resize(geometry.rows);
    cost_partials_.assign(geometry.num_blocks, 0.0);
    PrepareKernelScratch(scratch_, geometry.num_blocks);
    distance_evals_ =
        static_cast<uint64_t>(geometry.rows) * medoids_->rows();
    return Status::OK();
  }

  void ConsumeBlock(size_t block_index, size_t first_row,
                    std::span<const double> data, size_t rows) override {
    KernelScratch& scratch = scratch_[block_index];
    MetricArgminBatch(data, rows, dims_, metric_, *medoids_, scratch,
                      labels_.data() + first_row);
    double cost = 0.0;
    for (size_t r = 0; r < rows; ++r) cost += scratch.best[r];
    cost_partials_[block_index] = cost;
  }

  Status Merge() override {
    cost_ = 0.0;
    for (double partial : cost_partials_) cost_ += partial;
    return Status::OK();
  }

  uint64_t distance_evals() const override { return distance_evals_; }
  KernelStats kernel_stats() const override {
    KernelStats totals;
    for (const KernelScratch& scratch : scratch_) totals.Accumulate(scratch);
    return totals;
  }

  const std::vector<int>& labels() const { return labels_; }
  double cost() const { return cost_; }

 private:
  const Matrix* medoids_ = nullptr;
  MetricKind metric_ = MetricKind::kManhattan;
  std::vector<int> labels_;
  std::vector<double> cost_partials_;
  std::vector<KernelScratch> scratch_;  // [block]
  double cost_ = 0.0;
  size_t dims_ = 0;
  uint64_t distance_evals_ = 0;
};

}  // namespace

Result<MedoidClustering> RunPam(const Dataset& dataset,
                                const PamParams& params) {
  PROCLUS_RETURN_IF_ERROR(params.Validate(dataset.size()));
  const size_t n = dataset.size();
  const size_t k = params.num_clusters;
  Rng rng(params.seed);

  // BUILD: first medoid minimizes total distance; each next medoid is the
  // point that reduces the cost most.
  std::vector<size_t> medoids;
  std::vector<double> nearest(n, std::numeric_limits<double>::infinity());
  {
    size_t best_point = 0;
    double best_cost = std::numeric_limits<double>::infinity();
    for (size_t candidate = 0; candidate < n; ++candidate) {
      double cost = 0.0;
      auto cp = dataset.point(candidate);
      for (size_t p = 0; p < n; ++p)
        cost += Distance(params.metric, cp, dataset.point(p));
      if (cost < best_cost) {
        best_cost = cost;
        best_point = candidate;
      }
    }
    medoids.push_back(best_point);
    auto mp = dataset.point(best_point);
    for (size_t p = 0; p < n; ++p)
      nearest[p] = Distance(params.metric, mp, dataset.point(p));
  }
  while (medoids.size() < k) {
    size_t best_point = 0;
    double best_gain = -std::numeric_limits<double>::infinity();
    for (size_t candidate = 0; candidate < n; ++candidate) {
      if (std::find(medoids.begin(), medoids.end(), candidate) !=
          medoids.end())
        continue;
      double gain = 0.0;
      auto cp = dataset.point(candidate);
      for (size_t p = 0; p < n; ++p) {
        double d = Distance(params.metric, cp, dataset.point(p));
        if (d < nearest[p]) gain += nearest[p] - d;
      }
      if (gain > best_gain) {
        best_gain = gain;
        best_point = candidate;
      }
    }
    medoids.push_back(best_point);
    auto mp = dataset.point(best_point);
    for (size_t p = 0; p < n; ++p) {
      double d = Distance(params.metric, mp, dataset.point(p));
      if (d < nearest[p]) nearest[p] = d;
    }
  }

  // SWAP: steepest-descent over (medoid, non-medoid) exchanges.
  MedoidClustering result;
  double cost = AssignToMedoids(dataset, medoids, params.metric,
                                &result.labels);
  for (size_t iteration = 0; iteration < params.max_iterations; ++iteration) {
    ++result.iterations;
    double best_cost = cost;
    size_t best_m = k, best_p = n;
    std::vector<int> scratch;
    for (size_t m = 0; m < k; ++m) {
      for (size_t candidate = 0; candidate < n; ++candidate) {
        if (std::find(medoids.begin(), medoids.end(), candidate) !=
            medoids.end())
          continue;
        std::vector<size_t> trial = medoids;
        trial[m] = candidate;
        double trial_cost =
            AssignToMedoids(dataset, trial, params.metric, &scratch);
        if (trial_cost < best_cost) {
          best_cost = trial_cost;
          best_m = m;
          best_p = candidate;
        }
      }
    }
    if (best_m == k) break;  // Local optimum.
    medoids[best_m] = best_p;
    cost = AssignToMedoids(dataset, medoids, params.metric, &result.labels);
  }
  result.medoids = std::move(medoids);
  result.cost = cost;
  return result;
}

Result<MedoidClustering> RunClaransOnSource(const PointSource& source,
                                            const ClaransParams& params) {
  PROCLUS_RETURN_IF_ERROR(params.Validate(source.size()));
  const size_t n = source.size();
  const size_t k = params.num_clusters;
  Rng rng(params.seed);
  RunStats stats;
  ScanOptions scan_options{params.num_threads, params.block_rows, &stats};
  scan_options.cancel = params.cancel;
  ScanExecutor executor(scan_options);
  Timer timer;

  size_t max_neighbor = params.max_neighbor;
  if (max_neighbor == 0) {
    max_neighbor = std::max<size_t>(
        250, static_cast<size_t>(0.0125 * static_cast<double>(k * (n - k))));
  }

  MedoidClustering best;
  best.cost = std::numeric_limits<double>::infinity();
  MedoidAssignConsumer assign;

  for (size_t local = 0; local < params.num_local; ++local) {
    std::vector<size_t> current = rng.SampleWithoutReplacement(n, k);
    auto current_coords = source.Fetch(current);
    PROCLUS_RETURN_IF_ERROR(current_coords.status());
    assign.Bind(&*current_coords, params.metric);
    PROCLUS_RETURN_IF_ERROR(executor.Run(source, {&assign}));
    std::vector<int> labels = assign.labels();
    double cost = assign.cost();
    size_t examined = 0;
    size_t iterations = 0;
    while (examined < max_neighbor) {
      if (params.cancel.active()) {
        stats.cancel_checks += 1;
        PROCLUS_RETURN_IF_ERROR(params.cancel.Check());
      }
      ++iterations;
      // Random neighbor: swap one random medoid with one random
      // non-medoid.
      size_t m = rng.UniformInt(static_cast<uint64_t>(k));
      size_t candidate;
      do {
        candidate = rng.UniformInt(static_cast<uint64_t>(n));
      } while (std::find(current.begin(), current.end(), candidate) !=
               current.end());
      std::vector<size_t> trial = current;
      trial[m] = candidate;
      auto trial_coords = source.Fetch(trial);
      PROCLUS_RETURN_IF_ERROR(trial_coords.status());
      assign.Bind(&*trial_coords, params.metric);
      PROCLUS_RETURN_IF_ERROR(executor.Run(source, {&assign}));
      if (assign.cost() < cost) {
        current = std::move(trial);
        labels = assign.labels();
        cost = assign.cost();
        examined = 0;  // Restart the neighbor count at the new node.
      } else {
        ++examined;
      }
    }
    if (cost < best.cost) {
      best.cost = cost;
      best.medoids = std::move(current);
      best.labels = std::move(labels);
      best.iterations += iterations;
    }
  }
  stats.iterative_scans = stats.scans_issued;
  stats.total_seconds = timer.ElapsedSeconds();
  best.stats = stats;
  return best;
}

Result<MedoidClustering> RunClarans(const Dataset& dataset,
                                    const ClaransParams& params) {
  MemorySource source(dataset);
  return RunClaransOnSource(source, params);
}

}  // namespace proclus
