// The four workloads: input generation, set-up and the timed op.

#include <algorithm>
#include <chrono>

#include "bench.h"
#include "common/parallel.h"
#include "core/classify.h"
#include "core/proclus.h"
#include "data/binary_io.h"
#include "data/engine.h"
#include "data/sharded_source.h"
#include "gen/synthetic.h"

namespace perfbench {

namespace {

constexpr size_t kClusters = 5;
constexpr size_t kShards = 4;
// Shards align to the library's default scan block, so the sharded
// executor's per-shard path engages.
constexpr size_t kBlockRows = proclus::kDefaultBlockRows;
// Threads of the classify workload's set-up fit (not timed as an op).
constexpr size_t kSetupFitThreads = 4;

proclus::Dataset RowSlice(const proclus::Dataset& data, size_t first,
                          size_t count) {
  const size_t d = data.dims();
  const auto& values = data.matrix().data();
  std::vector<double> slice(values.begin() + static_cast<ptrdiff_t>(first * d),
                            values.begin() +
                                static_cast<ptrdiff_t>((first + count) * d));
  return proclus::Dataset(proclus::Matrix(count, d, std::move(slice)));
}

}  // namespace

std::optional<WorkloadSpec> FindWorkload(const std::string& name, bool smoke) {
  WorkloadSpec spec;
  spec.name = name;
  // Paper Case 2 shape (Table 2 / Table 4 input).
  spec.dims = 20;
  spec.cluster_dims = {7, 3, 2, 6, 2};
  spec.avg_dims = 4.0;
  spec.data_tag = "case2";
  spec.rows = smoke ? 32768 : 100000;
  if (name == "mem_d20") {
    spec.threads = 4;
  } else if (name == "disk_shard_d20") {
    spec.threads = 2;
    spec.disk = true;
  } else if (name == "mem_d200") {
    spec.data_tag = "d200";
    spec.rows = smoke ? 4096 : 20000;
    spec.dims = 200;
    spec.cluster_dims = {10, 10, 10, 10, 10};
    spec.avg_dims = 10.0;
    spec.threads = 4;
  } else if (name == "classify_d20") {
    spec.data_tag = "classify";
    spec.train_rows = smoke ? 20000 : 100000;
    spec.rows = smoke ? 8192 : 65536;
    spec.threads = 1;
    spec.classify = true;
  } else {
    return std::nullopt;
  }
  return spec;
}

size_t BusyThreads(const WorkloadSpec& spec) {
  if (spec.disk) return 2 * std::min(spec.threads, kShards);
  return std::min(spec.threads, proclus::BlockCount(spec.rows, kBlockRows));
}

proclus::Result<std::unique_ptr<Workload>> SetUp(const WorkloadSpec& spec,
                                                 uint64_t seed,
                                                 const std::string& dir) {
  auto workload = std::make_unique<Workload>();
  workload->spec = spec;
  const Clock::time_point start = Clock::now();
  const double cpu_start = CpuSeconds();

  proclus::GeneratorParams gen;
  gen.num_points = spec.train_rows + spec.rows;
  gen.space_dims = spec.dims;
  gen.num_clusters = kClusters;
  gen.cluster_dim_counts = spec.cluster_dims;
  gen.outlier_fraction = 0.05;
  gen.seed = seed;
  proclus::Result<proclus::SyntheticData> generated =
      proclus::GenerateSynthetic(gen);
  PROCLUS_RETURN_IF_ERROR(generated.status());
  workload->times.generate_s = CpuSeconds() - cpu_start;

  if (spec.classify) {
    // The generator shuffles, so the rows after the training prefix are
    // fresh points of the same clusters.
    const double fit_start = CpuSeconds();
    proclus::Dataset train = RowSlice(generated->dataset, 0, spec.train_rows);
    proclus::ProclusParams params;
    params.num_clusters = kClusters;
    params.avg_dims = spec.avg_dims;
    params.seed = seed * 100;
    params.num_threads = kSetupFitThreads;
    proclus::Result<proclus::ProjectedClustering> model =
        proclus::RunProclus(train, params);
    PROCLUS_RETURN_IF_ERROR(model.status());
    workload->model = std::move(model).value();
    workload->data = RowSlice(generated->dataset, spec.train_rows, spec.rows);
    workload->truth.assign(
        generated->truth.labels.begin() +
            static_cast<ptrdiff_t>(spec.train_rows),
        generated->truth.labels.end());
    workload->times.model_fit_s = CpuSeconds() - fit_start;
  } else {
    workload->data = std::move(generated->dataset);
    workload->truth = std::move(generated->truth.labels);
  }

  if (spec.disk) {
    const double store_start = CpuSeconds();
    const std::string snapshot = dir + "/rows.bin";
    PROCLUS_RETURN_IF_ERROR(
        proclus::WriteBinaryFile(workload->data, snapshot));
    proclus::ShardSplitOptions split;
    split.num_shards = kShards;
    split.align_rows = kBlockRows;
    proclus::Result<std::string> manifest =
        proclus::SplitIntoShards(snapshot, dir + "/rows", split);
    PROCLUS_RETURN_IF_ERROR(manifest.status());
    workload->manifest = *manifest;
    proclus::Result<proclus::ShardedSource> sharded =
        proclus::ShardedSource::OpenManifest(workload->manifest);
    PROCLUS_RETURN_IF_ERROR(sharded.status());
    if (!sharded->AlignedTo(kBlockRows))
      return proclus::Status::Internal("shards are not block-aligned");
    workload->source =
        std::make_unique<proclus::ShardedSource>(std::move(sharded).value());
    workload->times.store_s = CpuSeconds() - store_start;
  } else {
    workload->source = std::make_unique<proclus::MemorySource>(workload->data);
  }
  workload->times.total_s = CpuSeconds() - cpu_start;
  workload->times.wall_s = SecondsSince(start);
  return workload;
}

proclus::Result<std::unique_ptr<proclus::PointSource>> TracedSource(
    const Workload& workload, TraceRecorder* recorder) {
  if (!workload.spec.disk) {
    return std::unique_ptr<proclus::PointSource>(
        std::make_unique<TracingSource>(
            std::make_unique<proclus::MemorySource>(workload.data), recorder));
  }
  // ShardedSource::OpenManifest's checks, with each shard wrapped before
  // Create so the executor still takes the per-shard path.
  proclus::Result<proclus::ShardManifest> manifest =
      proclus::ReadShardManifest(workload.manifest);
  PROCLUS_RETURN_IF_ERROR(manifest.status());
  const std::string& path = workload.manifest;
  const std::string dir = path.substr(0, path.find_last_of('/') + 1);
  std::vector<std::unique_ptr<proclus::PointSource>> shards;
  size_t total = 0;
  for (size_t s = 0; s < manifest->shards.size(); ++s) {
    const proclus::ShardManifest::Entry& entry = manifest->shards[s];
    proclus::Result<proclus::DiskSource> shard =
        proclus::DiskSource::Open(dir + entry.file);
    PROCLUS_RETURN_IF_ERROR(shard.status());
    if (shard->size() != entry.rows || shard->dims() != manifest->cols)
      return proclus::Status::Corruption("shard '" + entry.file +
                                         "' does not match the manifest");
    total += shard->size();
    shards.push_back(std::make_unique<TracingSource>(
        std::make_unique<proclus::DiskSource>(std::move(shard).value()),
        recorder, static_cast<int>(s)));
  }
  if (total != manifest->rows)
    return proclus::Status::Corruption("manifest row count mismatch");
  proclus::Result<proclus::ShardedSource> sharded =
      proclus::ShardedSource::Create(std::move(shards));
  PROCLUS_RETURN_IF_ERROR(sharded.status());
  return std::unique_ptr<proclus::PointSource>(
      std::make_unique<proclus::ShardedSource>(std::move(sharded).value()));
}

OpResult RunOp(const Workload& workload, const proclus::PointSource& source,
               uint64_t algo_seed) {
  OpResult out;
  const uint64_t fetched_before = source.io().rows_fetched;
  const double cpu_start = CpuSeconds();
  const Clock::time_point start = Clock::now();
  if (workload.spec.classify) {
    proclus::ClassifyOptions options;
    options.pass.stats = &out.stats;
    proclus::Result<std::vector<int>> labels =
        proclus::ClassifyPoints(workload.model, source, options);
    out.wall_s = SecondsSince(start);
    out.cpu_s = CpuSeconds() - cpu_start;
    out.status = labels.status();
    if (labels.ok()) out.labels = std::move(labels).value();
  } else {
    proclus::ProclusParams params;
    params.num_clusters = kClusters;
    params.avg_dims = workload.spec.avg_dims;
    params.seed = algo_seed;
    params.num_threads = workload.spec.threads;
    proclus::Result<proclus::ProjectedClustering> model =
        proclus::RunProclusOnSource(source, params);
    out.wall_s = SecondsSince(start);
    out.cpu_s = CpuSeconds() - cpu_start;
    out.status = model.status();
    if (model.ok()) {
      out.model = std::move(model).value();
      out.labels = out.model.labels;
      out.stats = out.model.stats;
    }
  }
  out.rows_fetched = source.io().rows_fetched - fetched_before;
  return out;
}

}  // namespace perfbench
