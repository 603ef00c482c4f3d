#include "baselines/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/rng.h"
#include "common/timer.h"
#include "data/engine.h"
#include "distance/batch.h"
#include "distance/metric.h"

namespace proclus {

Status KMeansParams::Validate(size_t num_points) const {
  if (num_clusters == 0)
    return Status::InvalidArgument("num_clusters must be >= 1");
  if (num_points < num_clusters)
    return Status::InvalidArgument("fewer points than clusters");
  if (max_iterations == 0)
    return Status::InvalidArgument("max_iterations must be >= 1");
  if (!std::isfinite(tolerance))
    return Status::InvalidArgument("tolerance must be finite");
  if (tolerance < 0.0)
    return Status::InvalidArgument("tolerance must be >= 0");
  if (block_rows == 0)
    return Status::InvalidArgument("block_rows must be >= 1");
  return Status::OK();
}

namespace {

// k-means++ seeding helper: folds the latest center into the per-point
// squared distance to the nearest center. dist2 entries are per-point
// state at disjoint rows, so the scan is order-independent and the
// result is exact for any block size or thread count.
class MinDist2Consumer final : public ScanConsumer {
 public:
  void Bind(const std::vector<double>* center, std::vector<double>* dist2) {
    center_ = center;
    dist2_ = dist2;
  }

  Status Prepare(const ScanGeometry& geometry) override {
    if (center_->size() != geometry.dims)
      return Status::InvalidArgument("center dimensionality mismatch");
    dims_ = geometry.dims;
    PrepareKernelScratch(scratch_, geometry.num_blocks);
    distance_evals_ = geometry.rows;
    return Status::OK();
  }

  void ConsumeBlock(size_t block_index, size_t first_row,
                    std::span<const double> data, size_t rows) override {
    KernelScratch& scratch = scratch_[block_index];
    scratch.dist.resize(rows);
    SquaredEuclideanBatch(data, rows, dims_, *center_, scratch,
                          scratch.dist.data());
    for (size_t r = 0; r < rows; ++r) {
      double& slot = (*dist2_)[first_row + r];
      if (scratch.dist[r] < slot) slot = scratch.dist[r];
    }
  }

  Status Merge() override { return Status::OK(); }
  uint64_t distance_evals() const override { return distance_evals_; }
  KernelStats kernel_stats() const override {
    KernelStats totals;
    for (const KernelScratch& scratch : scratch_) totals.Accumulate(scratch);
    return totals;
  }

 private:
  const std::vector<double>* center_ = nullptr;
  std::vector<double>* dist2_ = nullptr;
  std::vector<KernelScratch> scratch_;  // [block]
  size_t dims_ = 0;
  uint64_t distance_evals_ = 0;
};

// One Lloyd iteration fused into a single scan: nearest-centroid
// assignment, inertia, and the per-cluster coordinate sums the update
// step needs. Inertia and sums are block partials merged in block order.
class LloydConsumer final : public ScanConsumer {
 public:
  void Bind(const std::vector<std::vector<double>>* centroids) {
    centroids_ = centroids;
  }

  Status Prepare(const ScanGeometry& geometry) override {
    if (!centroids_->empty() && (*centroids_)[0].size() != geometry.dims)
      return Status::InvalidArgument("centroid dimensionality mismatch");
    dims_ = geometry.dims;
    labels_.resize(geometry.rows);
    partials_.resize(geometry.num_blocks);
    inertia_partials_.assign(geometry.num_blocks, 0.0);
    PrepareKernelScratch(scratch_, geometry.num_blocks);
    distance_evals_ =
        static_cast<uint64_t>(geometry.rows) * centroids_->size();
    return Status::OK();
  }

  void ConsumeBlock(size_t block_index, size_t first_row,
                    std::span<const double> data, size_t rows) override {
    const size_t d = dims_;
    const size_t k = centroids_->size();
    BlockPartial& partial = partials_[block_index];
    partial.sums.assign(k * d, 0.0);
    partial.count.assign(k, 0);
    KernelScratch& scratch = scratch_[block_index];
    SquaredEuclideanArgminBatch(data, rows, d, *centroids_, scratch,
                                labels_.data() + first_row);
    double inertia = 0.0;
    for (size_t r = 0; r < rows; ++r) inertia += scratch.best[r];
    inertia_partials_[block_index] = inertia;
    LabeledSumBatch(data, rows, d, labels_.data() + first_row, k,
                    partial.sums.data(), partial.count.data());
  }

  Status Merge() override {
    const size_t d = dims_;
    const size_t k = centroids_->size();
    sums_.assign(k * d, 0.0);
    counts_.assign(k, 0);
    inertia_ = 0.0;
    for (size_t b = 0; b < partials_.size(); ++b) {
      const BlockPartial& partial = partials_[b];
      if (partial.count.empty()) continue;
      for (size_t i = 0; i < k * d; ++i) sums_[i] += partial.sums[i];
      for (size_t c = 0; c < k; ++c) counts_[c] += partial.count[c];
      inertia_ += inertia_partials_[b];
    }
    return Status::OK();
  }

  uint64_t distance_evals() const override { return distance_evals_; }
  KernelStats kernel_stats() const override {
    KernelStats totals;
    for (const KernelScratch& scratch : scratch_) totals.Accumulate(scratch);
    return totals;
  }

  const std::vector<int>& labels() const { return labels_; }
  std::vector<int> TakeLabels() { return std::move(labels_); }
  double inertia() const { return inertia_; }
  /// Coordinate sum of cluster `c` (d doubles), valid after Merge.
  const double* sums(size_t c) const { return sums_.data() + c * dims_; }
  const std::vector<size_t>& counts() const { return counts_; }

 private:
  struct BlockPartial {
    std::vector<double> sums;   // k x d
    std::vector<size_t> count;  // k
  };

  const std::vector<std::vector<double>>* centroids_ = nullptr;
  std::vector<int> labels_;
  std::vector<BlockPartial> partials_;
  std::vector<double> inertia_partials_;
  std::vector<KernelScratch> scratch_;  // [block]
  std::vector<double> sums_;
  std::vector<size_t> counts_;
  double inertia_ = 0.0;
  size_t dims_ = 0;
  uint64_t distance_evals_ = 0;
};

// Argmax of the squared distance from each point to its own centroid
// (empty-cluster re-seeding). Strict > comparisons and an
// ascending-block merge reproduce the flat scan's first-wins
// tie-breaking exactly, so the pick is bitwise independent of block
// size and thread count.
class FarthestPointConsumer final : public ScanConsumer {
 public:
  void Bind(const std::vector<std::vector<double>>* centroids,
            const std::vector<int>* labels) {
    centroids_ = centroids;
    labels_ = labels;
  }

  Status Prepare(const ScanGeometry& geometry) override {
    if (labels_->size() != geometry.rows)
      return Status::InvalidArgument("label count mismatch");
    dims_ = geometry.dims;
    best_.assign(geometry.num_blocks, {-1.0, 0});
    distance_evals_ = geometry.rows;
    return Status::OK();
  }

  void ConsumeBlock(size_t block_index, size_t first_row,
                    std::span<const double> data, size_t rows) override {
    double best = -1.0;
    size_t farthest = 0;
    for (size_t r = 0; r < rows; ++r) {
      size_t p = first_row + r;
      double d2 = SquaredEuclideanDistance(
          data.subspan(r * dims_, dims_),
          (*centroids_)[static_cast<size_t>((*labels_)[p])]);
      if (d2 > best) {
        best = d2;
        farthest = p;
      }
    }
    best_[block_index] = {best, farthest};
  }

  Status Merge() override {
    double best = -1.0;
    farthest_ = 0;
    for (const auto& [d2, p] : best_) {
      if (d2 > best) {
        best = d2;
        farthest_ = p;
      }
    }
    return Status::OK();
  }

  uint64_t distance_evals() const override { return distance_evals_; }

  size_t farthest() const { return farthest_; }

 private:
  const std::vector<std::vector<double>>* centroids_ = nullptr;
  const std::vector<int>* labels_ = nullptr;
  std::vector<std::pair<double, size_t>> best_;  // [block] (d2, point)
  size_t farthest_ = 0;
  size_t dims_ = 0;
  uint64_t distance_evals_ = 0;
};

// Fetches rows by position as the executor's scans read them: under its
// retry policy and cancel context, counted in its stats.
Result<Matrix> FetchRows(const PointSource& source,
                         std::span<const size_t> indices,
                         const ScanExecutor& executor) {
  const ScanOptions& options = executor.options();
  return FetchWithRetry(source, indices, options.retry, options.stats,
                        options.cancel);
}

// k-means++ seeding over a source: one scan per center folds the new
// center into the per-point nearest-center distances; the selection walk
// runs over the flat dist2 vector afterwards, exactly as the in-memory
// version would.
Result<std::vector<std::vector<double>>> PlusPlusInitOnSource(
    const PointSource& source, size_t k, Rng& rng,
    const ScanExecutor& executor) {
  const size_t n = source.size();
  std::vector<std::vector<double>> centers;
  centers.reserve(k);
  size_t first = rng.UniformInt(static_cast<uint64_t>(n));
  size_t index[1] = {first};
  auto first_coords = FetchRows(source, index, executor);
  PROCLUS_RETURN_IF_ERROR(first_coords.status());
  auto fp = first_coords->row(0);
  centers.emplace_back(fp.begin(), fp.end());

  std::vector<double> dist2(n, std::numeric_limits<double>::infinity());
  MinDist2Consumer min_dist2;
  while (centers.size() < k) {
    min_dist2.Bind(&centers.back(), &dist2);
    PROCLUS_RETURN_IF_ERROR(executor.Run(source, {&min_dist2}));
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) total += dist2[i];
    size_t chosen = 0;
    // draws: invariant — each arm consumes exactly one draw per new
    // center, so the stream position after the branch is path-independent.
    if (total > 0.0) {
      double target = rng.UniformDouble() * total;
      double acc = 0.0;
      for (size_t i = 0; i < n; ++i) {
        acc += dist2[i];
        if (acc >= target) {
          chosen = i;
          break;
        }
      }
    } else {
      chosen = rng.UniformInt(static_cast<uint64_t>(n));
    }
    index[0] = chosen;
    auto chosen_coords = FetchRows(source, index, executor);
    PROCLUS_RETURN_IF_ERROR(chosen_coords.status());
    auto cp = chosen_coords->row(0);
    centers.emplace_back(cp.begin(), cp.end());
  }
  return centers;
}

}  // namespace

Result<KMeansResult> RunKMeansOnSource(const PointSource& source,
                                       const KMeansParams& params) {
  PROCLUS_RETURN_IF_ERROR(params.Validate(source.size()));
  Rng rng(params.seed);
  const size_t n = source.size();
  const size_t d = source.dims();
  const size_t k = params.num_clusters;
  RunStats stats;
  ScanOptions scan_options{params.num_threads, params.block_rows, &stats};
  scan_options.cancel = params.cancel;
  ScanExecutor executor(scan_options);
  Timer timer;

  std::vector<std::vector<double>> centroids;
  // draws: invariant — the branch is selected by run config (params),
  // not by data, and each config owns its own golden stream.
  if (params.plus_plus_init) {
    auto centers = PlusPlusInitOnSource(source, k, rng, executor);
    PROCLUS_RETURN_IF_ERROR(centers.status());
    centroids = std::move(centers).value();
  } else {
    std::vector<size_t> pick = rng.SampleWithoutReplacement(n, k);
    auto coords = FetchRows(source, pick, executor);
    PROCLUS_RETURN_IF_ERROR(coords.status());
    for (size_t i = 0; i < k; ++i) {
      auto p = coords->row(i);
      centroids.emplace_back(p.begin(), p.end());
    }
  }
  stats.init_scans = stats.scans_issued;

  KMeansResult result;
  LloydConsumer lloyd;
  FarthestPointConsumer farthest;
  for (size_t iteration = 0; iteration < params.max_iterations; ++iteration) {
    if (params.cancel.active()) {
      stats.cancel_checks += 1;
      PROCLUS_RETURN_IF_ERROR(params.cancel.Check());
    }
    ++result.iterations;
    // Assignment + inertia + update sums, all in one scan.
    lloyd.Bind(&centroids);
    PROCLUS_RETURN_IF_ERROR(executor.Run(source, {&lloyd}));
    result.inertia = lloyd.inertia();
    // A NaN or infinite coordinate makes its row's distance, and so the
    // inertia, non-finite; without this check the loop would run on to
    // max_iterations and return non-finite centroids.
    if (!std::isfinite(result.inertia))
      return Status::InvalidArgument(
          "the k-means inertia is not finite: the data hold a non-finite "
          "coordinate, or their differences overflow");

    // Update step.
    double movement = 0.0;
    for (size_t c = 0; c < k; ++c) {
      if (lloyd.counts()[c] == 0) {
        // Re-seed an empty cluster with the point farthest from its
        // current centroid. The extra scan mirrors the in-memory pass;
        // centroids before `c` have already moved, as in the original
        // update loop.
        farthest.Bind(&centroids, &lloyd.labels());
        PROCLUS_RETURN_IF_ERROR(executor.Run(source, {&farthest}));
        size_t index[1] = {farthest.farthest()};
        auto coords = FetchRows(source, index, executor);
        PROCLUS_RETURN_IF_ERROR(coords.status());
        auto fp = coords->row(0);
        std::copy(fp.begin(), fp.end(), centroids[c].begin());
        movement += 1.0;  // Force another iteration.
        continue;
      }
      double move2 = 0.0;
      const double* sums = lloyd.sums(c);
      for (size_t j = 0; j < d; ++j) {
        double updated = sums[j] / static_cast<double>(lloyd.counts()[c]);
        double diff = updated - centroids[c][j];
        move2 += diff * diff;
        centroids[c][j] = updated;
      }
      movement += std::sqrt(move2);
    }
    if (movement <= params.tolerance) break;
  }

  stats.iterative_scans = stats.scans_issued - stats.init_scans;
  stats.total_seconds = timer.ElapsedSeconds();
  result.labels = lloyd.TakeLabels();
  result.centroids = std::move(centroids);
  result.stats = stats;
  return result;
}

Result<KMeansResult> RunKMeans(const Dataset& dataset,
                               const KMeansParams& params) {
  MemorySource source(dataset);
  return RunKMeansOnSource(source, params);
}

}  // namespace proclus
