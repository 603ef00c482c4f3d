// Layer probes: the common, data and distance layers timed in isolation
// through their public entry points, on the workload's own geometry,
// source and first-op model.

#include <algorithm>
#include <chrono>
#include <vector>

#include "bench.h"
#include "common/parallel.h"
#include "data/engine.h"
#include "distance/batch.h"

namespace perfbench {

namespace {

// Repeats `body` (which returns its own timing) until `budget_s` has passed
// and at least `min_reps` samples exist; returns the median sample.
template <typename Body>
double MedianOver(double budget_s, size_t min_reps, Body&& body) {
  std::vector<double> samples;
  const Clock::time_point start = Clock::now();
  while (samples.size() < min_reps || SecondsSince(start) < budget_s)
    samples.push_back(body());
  return Median(std::move(samples));
}

double BlockSum(const double* data, size_t count) {
  double sum = 0.0;
  for (size_t i = 0; i < count; ++i) sum += data[i];
  return sum;
}

// Reads every coordinate of every block: the scan layer's delivery cost
// with the cheapest consumer possible. Writes only its block's partial.
class SumConsumer final : public proclus::ScanConsumer {
 public:
  proclus::Status Prepare(const proclus::ScanGeometry& geometry) override {
    partials_.assign(geometry.num_blocks, 0.0);
    return proclus::Status::OK();
  }
  void ConsumeBlock(size_t block_index, size_t /*first_row*/,
                    std::span<const double> data, size_t /*rows*/) override {
    partials_[block_index] = BlockSum(data.data(), data.size());
  }
  proclus::Status Merge() override {
    total_ = 0.0;
    for (double partial : partials_) total_ += partial;
    return proclus::Status::OK();
  }
  // Prepare re-initializes every partial Merge reads, and ConsumeBlock
  // overwrites (never accumulates into) its block's slot, so a rolled-back
  // or re-delivered attempt leaves nothing behind.
  void Reset() override {}

  double total() const { return total_; }

 private:
  std::vector<double> partials_;
  double total_ = 0.0;
};

}  // namespace

proclus::Result<ProbeResult> RunProbes(const ProbeInput& in) {
  // The ops' geometry: the library's default scan block.
  constexpr size_t kBlockRows = proclus::kDefaultBlockRows;
  ProbeResult out;
  const proclus::Dataset& data = *in.data;
  const size_t n = data.size();
  const size_t d = data.dims();
  const double* values = data.matrix().data().data();
  const size_t blocks = proclus::BlockCount(n, kBlockRows);
  const size_t workers = std::min(in.threads, blocks);

  // common: ParallelBlocks over the workload's geometry with a body that
  // reads its block. Wake-up is the delay until the last logical worker
  // starts its first block (block w for worker w under the static
  // round-robin mapping).
  std::vector<double> partial(blocks);
  std::vector<Clock::time_point> first_start(workers);
  auto pass = [&](size_t threads, bool record) {
    const Clock::time_point entry = Clock::now();
    proclus::ParallelBlocks(n, kBlockRows, threads,
                            [&](size_t block, size_t first, size_t count) {
                              if (record && block < workers)
                                first_start[block] = Clock::now();
                              partial[block] =
                                  BlockSum(values + first * d, count * d);
                            });
    const double seconds = SecondsSince(entry);
    double wake_us = 0.0;
    if (record)
      for (const Clock::time_point& start : first_start)
        wake_us = std::max(
            wake_us,
            std::chrono::duration<double, std::micro>(start - entry).count());
    return std::make_pair(seconds, wake_us);
  };
  std::vector<double> wake;
  const double parallel_s = MedianOver(in.budget_s, 5, [&] {
    auto [seconds, wake_us] = pass(in.threads, true);
    wake.push_back(wake_us);
    return seconds;
  });
  const double serial_s =
      MedianOver(in.budget_s, 5, [&] { return pass(1, false).first; });
  out.pool_wake_us = Median(wake);
  out.pool_speedup = serial_s / parallel_s;
  double expected_total = 0.0;
  for (double sum : partial) expected_total += sum;

  // data: one executor scan over the workload's own source.
  proclus::ScanOptions options;
  options.num_threads = in.threads;
  options.block_rows = kBlockRows;
  const proclus::ScanExecutor executor(options);
  SumConsumer consumer;
  proclus::Status scan_status;
  out.scan_s = MedianOver(in.budget_s, 5, [&] {
    const Clock::time_point start = Clock::now();
    proclus::Status status = executor.Run(*in.source, {&consumer});
    if (!status.ok()) scan_status = status;
    return SecondsSince(start);
  });
  PROCLUS_RETURN_IF_ERROR(scan_status);
  // Same block sums merged in the same order: the scan must deliver exactly
  // the rows the op sees.
  if (consumer.total() != expected_total)
    return proclus::Status::Internal("scan probe delivered other rows");
  out.scan_bytes = static_cast<double>(n * d * sizeof(double));

  // distance: the batch kernels, one thread, over the same blocks against
  // the first op's model.
  const proclus::ProjectedClustering& model = *in.model;
  const size_t k = model.num_clusters();
  std::vector<std::vector<uint32_t>> dim_lists;
  for (const proclus::DimensionSet& dims : model.dimensions)
    dim_lists.push_back(dims.ToVector());
  proclus::KernelScratch scratch;
  std::vector<int> labels(n);
  std::vector<double> distances(k * kBlockRows);
  const double pairs = static_cast<double>(n * k);
  const double argmin_s = MedianOver(in.budget_s, 5, [&] {
    const Clock::time_point start = Clock::now();
    for (size_t first = 0; first < n; first += kBlockRows) {
      const size_t rows = std::min(kBlockRows, n - first);
      proclus::SegmentalArgminBatch(
          std::span<const double>(values + first * d, rows * d), rows, d,
          model.medoid_coords, dim_lists, /*normalize=*/true, model.spheres,
          scratch, labels.data() + first);
    }
    return SecondsSince(start);
  });
  out.argmin_mpairs_s = pairs / argmin_s * 1e-6;
  const double manhattan_s = MedianOver(in.budget_s, 5, [&] {
    const Clock::time_point start = Clock::now();
    for (size_t first = 0; first < n; first += kBlockRows) {
      const size_t rows = std::min(kBlockRows, n - first);
      proclus::ManhattanManyBatch(
          std::span<const double>(values + first * d, rows * d), rows, d,
          model.medoid_coords, scratch, distances.data());
    }
    return SecondsSince(start);
  });
  out.manhattan_mpairs_s = pairs / manhattan_s * 1e-6;
  return out;
}

}  // namespace perfbench
