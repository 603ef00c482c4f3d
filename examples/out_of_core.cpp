// Clustering data that lives on disk — including a sharded layout.
//
// The paper is a database paper: its phases are designed as sequential
// scans plus random access to a handful of candidate medoids, exactly
// the access pattern a disk-resident table supports. This example writes
// a dataset to a binary snapshot, opens it as a DiskSource (no full
// in-memory copy), runs PROCLUS over it, then splits the snapshot into
// checksummed per-shard files (SplitIntoShards) and runs again over the
// sharded set — the shard scans execute concurrently on the persistent
// thread pool, and all three results are bit-identical.
//
// Run: ./build/examples/out_of_core

#include <unistd.h>

#include <cstdio>
#include <string>

#include "common/timer.h"
#include "core/proclus.h"
#include "data/binary_io.h"
#include "data/point_source.h"
#include "data/sharded_source.h"
#include "eval/metrics.h"
#include "gen/synthetic.h"

int main() {
  using namespace proclus;

  GeneratorParams gen;
  gen.num_points = 50000;
  gen.space_dims = 16;
  gen.num_clusters = 4;
  gen.cluster_dim_counts = {4, 4, 4, 4};
  gen.seed = 314;
  auto data = GenerateSynthetic(gen);
  if (!data.ok()) return 1;

  // pid-unique paths: concurrent runs of this example (or a CI runner
  // reusing /tmp) must not collide on a fixed filename.
  const std::string prefix =
      "/tmp/proclus_out_of_core_" + std::to_string(::getpid());
  const std::string path = prefix + ".bin";
  if (Status status = WriteBinaryFile(data->dataset, path); !status.ok()) {
    std::fprintf(stderr, "snapshot write failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu points x %zu dims (%.1f MB) to %s\n",
              gen.num_points, gen.space_dims,
              static_cast<double>(gen.num_points * gen.space_dims * 8) /
                  1e6,
              path.c_str());

  ProclusParams params;
  params.num_clusters = 4;
  params.avg_dims = 4.0;
  params.seed = 7;

  // In-memory run.
  Timer memory_timer;
  auto memory_result = RunProclus(data->dataset, params);
  double memory_sec = memory_timer.ElapsedSeconds();
  if (!memory_result.ok()) return 1;

  // Disk-resident run: each pool worker reads and verifies its scan
  // blocks into its own buffer; only the sampled candidates are ever
  // fetched by position.
  auto source = DiskSource::Open(path);
  if (!source.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 source.status().ToString().c_str());
    return 1;
  }
  Timer disk_timer;
  auto disk_result = RunProclusOnSource(*source, params);
  double disk_sec = disk_timer.ElapsedSeconds();
  if (!disk_result.ok()) return 1;

  bool identical = memory_result->labels == disk_result->labels &&
                   memory_result->medoids == disk_result->medoids &&
                   memory_result->objective == disk_result->objective;
  std::printf("in-memory: %.2fs   disk-resident: %.2fs   results %s\n",
              memory_sec, disk_sec,
              identical ? "IDENTICAL" : "DIFFER (bug!)");
  std::printf("ARI vs ground truth: %.4f, outliers %zu\n",
              AdjustedRandIndex(disk_result->labels, data->truth.labels),
              disk_result->NumOutliers());

  // Sharded disk run: split the snapshot into 4 checksummed shard files
  // plus a manifest, open the set, and cluster with 4 threads — the
  // executor scans the shards concurrently and merges deterministically,
  // so the bits match the single-source runs exactly.
  ShardSplitOptions split;
  split.num_shards = 4;
  auto manifest = SplitIntoShards(path, prefix, split);
  if (!manifest.ok()) {
    std::fprintf(stderr, "split failed: %s\n",
                 manifest.status().ToString().c_str());
    return 1;
  }
  auto sharded = ShardedSource::OpenManifest(*manifest);
  if (!sharded.ok()) {
    std::fprintf(stderr, "manifest open failed: %s\n",
                 sharded.status().ToString().c_str());
    return 1;
  }
  params.num_threads = 4;
  Timer sharded_timer;
  auto sharded_result = RunProclusOnSource(*sharded, params);
  double sharded_sec = sharded_timer.ElapsedSeconds();
  if (!sharded_result.ok()) return 1;
  bool sharded_same = sharded_result->labels == disk_result->labels &&
                      sharded_result->medoids == disk_result->medoids &&
                      sharded_result->objective == disk_result->objective;
  std::printf("4 disk shards, 4 threads: %.2fs   results %s\n",
              sharded_sec, sharded_same ? "IDENTICAL" : "DIFFER (bug!)");

  // Multi-threaded in-memory run: same result, less wall clock.
  Timer threaded_timer;
  auto threaded_result = RunProclus(data->dataset, params);
  double threaded_sec = threaded_timer.ElapsedSeconds();
  if (!threaded_result.ok()) return 1;
  bool same = threaded_result->labels == memory_result->labels;
  std::printf("4 threads in memory: %.2fs   results %s\n", threaded_sec,
              same ? "IDENTICAL" : "DIFFER (bug!)");

  std::remove(path.c_str());
  std::remove(manifest->c_str());
  for (size_t s = 0; s < split.num_shards; ++s)
    std::remove((prefix + ".shard" + std::to_string(s) + ".bin").c_str());
  return identical && sharded_same && same ? 0 : 1;
}
