// Shard-engine harness: measures the sharded scan path and the DiskSource
// read loop, and proves both bit-identical on every run.
//
// Part 1 — disk vs memory at the N=50k acceptance point of
// BENCH_scan_engine.json: the PROCLUS fit over memory and over a disk
// snapshot, --reps times each (median, min, max). At this scale the
// snapshot is page-cache hot after the first scan, so the read side is
// pure CPU (memcpy + checksum) that the executor's second worker per
// thread (2T for storage reads) overlaps with the fit's kernels.
//
// Part 2 — shard scaling: whole-set scans over a >= 10^7-row snapshot for
// shard count x {memory, disk}, each sharded run using `shards` worker
// threads on the persistent pool. Every shard layout is built (and
// fsync'd) before any timing starts and every configuration gets one
// untimed warmup scan, so writeback of the freshly written shard files
// and first-touch page-cache misses don't land inside a timed region.
// Every configuration must reproduce the unsharded consumer bits exactly.
//
// Part 3 — equal thread budget: the Part 2 snapshot as one DiskSource
// file against its 4-shard SplitIntoShards layout, both at T in {1, 2, 4}
// threads, so any difference is the shards' own, not their threads'.
// Each cell runs warm (page-cache hot after one untimed scan per side) and
// cold (the bench evicts that source's own files with posix_fadvise
// DONTNEED before every scan, so the reads are device I/O), --reps scans
// per side, the two sides interleaved; it prints each side's median, min
// and max and the ratio of the medians.
//
// --smoke asserts the bit-identity of every configuration plus a
// flake-resistant scaling bound on Part 2 (the best sharded disk run may
// not be slower than 1.15x the single-shard run) and exits nonzero on any
// violation — wired into ctest under the bench_smoke label (RUN_SERIAL:
// it is a timing assertion). Part 3 is checked for bit-identity only.
//
// NOTE: pool size. VMs and containers often under-report
// hardware_concurrency; set PROCLUS_POOL_THREADS to the real core count
// when reproducing the committed baseline (see common/thread_pool.h). The
// committed JSON records both values — on a single-core host the sharded
// configurations time-slice one CPU, so parity with single-shard (not
// speedup) is the expected reading there.

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "core/consumers.h"
#include "data/binary_io.h"
#include "data/engine.h"
#include "data/point_source.h"
#include "data/sharded_source.h"

namespace {

using namespace proclus;
using namespace proclus::bench;

constexpr size_t kShardCounts[] = {1, 2, 4, 8};
// Index of the 4-shard layout in kShardCounts (Part 3).
constexpr size_t kFourShards = 2;
static_assert(kShardCounts[kFourShards] == 4);

// Flushes dirty pages of `path` and asks the kernel to drop its page
// cache, so the next read is real device I/O. Best effort: a failure
// only means a warmer-than-intended run.
void EvictFromPageCache(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return;
  ::fdatasync(fd);
  ::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
  ::close(fd);
}

struct EngineRun {
  ProjectedClustering clustering;
  double seconds = 0.0;
};

EngineRun RunOnce(const PointSource& source, const ProclusParams& params) {
  Timer timer;
  auto result = RunProclusOnSource(source, params);
  double seconds = timer.ElapsedSeconds();
  if (!result.ok()) {
    std::fprintf(stderr, "PROCLUS failed: %s\n",
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return EngineRun{std::move(result).value(), seconds};
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

bool SameClustering(const ProjectedClustering& a,
                    const ProjectedClustering& b) {
  return a.labels == b.labels && a.medoids == b.medoids &&
         a.objective == b.objective && a.iterations == b.iterations;
}

// One timed whole-set scan configuration of Part 2.
struct ScanRun {
  double seconds = 0.0;
  RunStats stats;
  bool identical = false;  // Consumer bits match the unsharded run.
};

// Times `repetitions` scans after one untimed warm-up scan.
ScanRun TimeScans(const PointSource& source, const Matrix& medoids,
                  size_t num_threads, size_t repetitions,
                  const LocalityStatsConsumer& reference) {
  ScanRun run;
  ScanOptions options;
  options.num_threads = num_threads;
  LocalityStatsConsumer consumer;
  if (!consumer.Bind(&medoids).ok()) std::exit(1);
  if (!ScanExecutor(options).Run(source, {&consumer}).ok()) std::exit(1);
  options.stats = &run.stats;
  Timer timer;
  for (size_t rep = 0; rep < repetitions; ++rep) {
    if (!consumer.Bind(&medoids).ok()) std::exit(1);
    Status status = ScanExecutor(options).Run(source, {&consumer});
    if (!status.ok()) {
      std::fprintf(stderr, "scan failed: %s\n", status.ToString().c_str());
      std::exit(1);
    }
  }
  run.seconds = timer.ElapsedSeconds();
  run.identical = consumer.stats() == reference.stats();
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions options = ParseOptions(argc, argv);
  bool smoke = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  bool ok = true;

  const char* pool_env = std::getenv("PROCLUS_POOL_THREADS");

  // -------------------------------------------------------------------
  // Part 1: disk vs memory fits at the scan_engine acceptance point.
  // -------------------------------------------------------------------
  GeneratorParams gen = Case1Params(options);
  gen.num_points = options.Points(50000);
  auto data = GenerateSynthetic(gen);
  if (!data.ok()) {
    std::fprintf(stderr, "generator failed: %s\n",
                 data.status().ToString().c_str());
    return 1;
  }
  ProclusParams params = DefaultProclus(5, 7.0, options.algo_seed);
  params.num_restarts = 2;
  params.max_iterations = 30;
  params.max_no_improve = 30;

  const std::string prefix =
      "/tmp/proclus_shard_engine_" + std::to_string(::getpid());
  const std::string disk_path = prefix + ".bin";
  Status written = WriteBinaryFile(data->dataset, disk_path);
  if (!written.ok()) {
    std::fprintf(stderr, "snapshot write failed: %s\n",
                 written.ToString().c_str());
    return 1;
  }
  auto disk = DiskSource::Open(disk_path);
  if (!disk.ok()) {
    std::fprintf(stderr, "snapshot open failed: %s\n",
                 disk.status().ToString().c_str());
    return 1;
  }
  MemorySource memory(data->dataset);

  PrintHeader("Disk vs memory at N=50k");
  PrintKV("N", static_cast<double>(gen.num_points));
  PrintKV("d", static_cast<double>(gen.space_dims));
  PrintKV("k", static_cast<double>(gen.num_clusters));
  PrintKV("pool threads (env)", pool_env != nullptr ? pool_env : "unset");
  PrintKV("hardware_concurrency",
          static_cast<double>(std::thread::hardware_concurrency()));
  const size_t reps = options.repetitions;
  PrintKV("repetitions", static_cast<double>(reps));

  std::vector<double> memory_fit_seconds;
  std::vector<double> disk_fit_seconds;
  EngineRun mem_run;
  EngineRun disk_run;
  for (size_t rep = 0; rep < reps; ++rep) {
    EngineRun mem_rep = RunOnce(memory, params);
    EngineRun disk_rep = RunOnce(*disk, params);
    memory_fit_seconds.push_back(mem_rep.seconds);
    disk_fit_seconds.push_back(disk_rep.seconds);
    if (rep == 0) {
      mem_run = std::move(mem_rep);
      disk_run = std::move(disk_rep);
    } else if (!SameClustering(mem_run.clustering, mem_rep.clustering) ||
               !SameClustering(mem_run.clustering, disk_rep.clustering)) {
      std::fprintf(stderr, "FAIL: repeated fits disagree\n");
      ok = false;
    }
  }
  PrintSpread("memory seconds", memory_fit_seconds);
  PrintSpread("disk seconds", disk_fit_seconds);
  PrintRunStats("disk", disk_run.clustering.stats);
  if (!SameClustering(mem_run.clustering, disk_run.clustering)) {
    std::fprintf(stderr, "FAIL: the disk read changed the clustering bits\n");
    ok = false;
  }

  // -------------------------------------------------------------------
  // Part 2: shard count x {memory, disk} scan throughput.
  // -------------------------------------------------------------------
  GeneratorParams sweep_gen;
  sweep_gen.num_points = options.Points(10000000);
  sweep_gen.space_dims = 8;
  sweep_gen.num_clusters = 4;
  sweep_gen.cluster_dim_counts = {3, 3, 3, 3};
  sweep_gen.seed = options.seed;
  auto sweep = GenerateSynthetic(sweep_gen);
  if (!sweep.ok()) {
    std::fprintf(stderr, "sweep generator failed: %s\n",
                 sweep.status().ToString().c_str());
    return 1;
  }
  const size_t rows = sweep->dataset.size();
  const std::string sweep_path = prefix + "_sweep.bin";
  written = WriteBinaryFile(sweep->dataset, sweep_path);
  if (!written.ok()) {
    std::fprintf(stderr, "sweep snapshot write failed: %s\n",
                 written.ToString().c_str());
    return 1;
  }

  MemorySource sweep_memory(sweep->dataset);
  std::vector<size_t> medoid_indices{1, rows / 4, rows / 2,
                                     (3 * rows) / 4, rows - 2};
  auto medoids = sweep_memory.Fetch(medoid_indices);
  if (!medoids.ok()) std::exit(1);

  PrintHeader("Shard scaling");
  PrintKV("rows", static_cast<double>(rows));
  PrintKV("dims", static_cast<double>(sweep_gen.space_dims));
  PrintKV("bytes",
          static_cast<double>(rows * sweep_gen.space_dims * sizeof(double)));
  PrintKV("scan repetitions", static_cast<double>(reps));

  // Build every shard layout up front: the split writes are fsync'd and
  // done with before the first timed scan, so background writeback of
  // one configuration's files cannot tax another configuration's timing.
  std::vector<ShardedSource> mem_layouts;
  std::vector<ShardedSource> disk_layouts;
  // Each disk layout's shard files, then its manifest.
  std::vector<std::vector<std::string>> layout_files;
  for (size_t shards : kShardCounts) {
    auto mem_sharded =
        ShardedSource::FromDataset(sweep->dataset, shards, kDefaultBlockRows);
    if (!mem_sharded.ok()) std::exit(1);
    mem_layouts.push_back(std::move(mem_sharded).value());

    ShardSplitOptions split;
    split.num_shards = shards;
    const std::string shard_prefix =
        prefix + "_sweep" + std::to_string(shards);
    auto manifest = SplitIntoShards(sweep_path, shard_prefix, split);
    if (!manifest.ok()) {
      std::fprintf(stderr, "split failed: %s\n",
                   manifest.status().ToString().c_str());
      std::exit(1);
    }
    std::vector<std::string> files;
    for (size_t s = 0; s < shards; ++s) {
      std::string shard_file =
          shard_prefix + ".shard" + std::to_string(s) + ".bin";
      int fd = ::open(shard_file.c_str(), O_RDONLY);
      if (fd >= 0) {
        ::fdatasync(fd);
        ::close(fd);
      }
      files.push_back(std::move(shard_file));
    }
    files.push_back(*manifest);
    layout_files.push_back(std::move(files));
    auto disk_sharded = ShardedSource::OpenManifest(*manifest);
    if (!disk_sharded.ok()) {
      std::fprintf(stderr, "manifest open failed: %s\n",
                   disk_sharded.status().ToString().c_str());
      std::exit(1);
    }
    disk_layouts.push_back(std::move(disk_sharded).value());
  }

  // Unsharded sequential reference: the bits every configuration must hit.
  LocalityStatsConsumer reference;
  if (!reference.Bind(&*medoids).ok()) std::exit(1);
  {
    ScanOptions reference_options;
    Status status =
        ScanExecutor(reference_options).Run(sweep_memory, {&reference});
    if (!status.ok()) std::exit(1);
  }

  double disk_seconds[std::size(kShardCounts)] = {0};
  double memory_seconds[std::size(kShardCounts)] = {0};
  for (size_t i = 0; i < std::size(kShardCounts); ++i) {
    const size_t shards = kShardCounts[i];
    const std::string tag = std::to_string(shards) + " shards";

    ScanRun mem_scan =
        TimeScans(mem_layouts[i], *medoids, shards, reps, reference);
    memory_seconds[i] = mem_scan.seconds;
    PrintKV("memory/" + tag + " seconds", mem_scan.seconds);
    PrintKV("memory/" + tag + " rows per sec",
            static_cast<double>(rows) * static_cast<double>(reps) /
                mem_scan.seconds);
    if (!mem_scan.identical) {
      std::fprintf(stderr, "FAIL: memory/%zu shards changed the bits\n",
                   shards);
      ok = false;
    }

    ScanRun disk_scan =
        TimeScans(disk_layouts[i], *medoids, shards, reps, reference);
    disk_seconds[i] = disk_scan.seconds;
    PrintKV("disk/" + tag + " seconds", disk_scan.seconds);
    PrintKV("disk/" + tag + " rows per sec",
            static_cast<double>(rows) * static_cast<double>(reps) /
                disk_scan.seconds);
    PrintRunStats("disk/" + tag, disk_scan.stats);
    if (!disk_scan.identical) {
      std::fprintf(stderr, "FAIL: disk/%zu shards changed the bits\n",
                   shards);
      ok = false;
    }
  }

  double best_sharded_disk = disk_seconds[1];
  double best_sharded_memory = memory_seconds[1];
  for (size_t i = 2; i < std::size(kShardCounts); ++i) {
    best_sharded_disk = std::min(best_sharded_disk, disk_seconds[i]);
    best_sharded_memory = std::min(best_sharded_memory, memory_seconds[i]);
  }
  PrintKV("disk speedup (best sharded)", disk_seconds[0] / best_sharded_disk);
  PrintKV("memory speedup (best sharded)",
          memory_seconds[0] / best_sharded_memory);

  if (smoke) {
    // Flake-resistant scaling bound: sharding must never make the scan
    // meaningfully slower than single-shard. Real speedups are recorded
    // in the committed full-scale baseline, not asserted at smoke scale.
    if (best_sharded_disk > disk_seconds[0] * 1.15) {
      std::fprintf(stderr,
                   "FAIL: best sharded disk scan %.3fs vs single-shard "
                   "%.3fs (> 1.15x)\n",
                   best_sharded_disk, disk_seconds[0]);
      ok = false;
    }
  }

  // -------------------------------------------------------------------
  // Part 3: one file vs its 4-shard layout at an equal thread budget.
  // -------------------------------------------------------------------
  PrintHeader("Equal thread budget");
  auto one_file = DiskSource::Open(sweep_path);
  if (!one_file.ok()) std::exit(1);
  std::vector<std::string> four_shard_files = layout_files[kFourShards];
  four_shard_files.pop_back();  // The manifest is read at open only.
  struct Side {
    const char* name;
    const PointSource* source;
    std::vector<std::string> files;
  };
  const Side sides[] = {{"one file", &*one_file, {sweep_path}},
                        {"4 shards", &disk_layouts[kFourShards],
                         four_shard_files}};
  PrintKV("scans per side", static_cast<double>(reps));
  // One consumer per side, kept across scans, so no timed scan pays for
  // first-touching its per-block buffers.
  LocalityStatsConsumer consumers[std::size(sides)];
  auto scan_once = [&](size_t i, size_t threads) {
    ScanOptions scan;
    scan.num_threads = threads;
    if (!consumers[i].Bind(&*medoids).ok()) std::exit(1);
    Timer timer;
    Status status = ScanExecutor(scan).Run(*sides[i].source, {&consumers[i]});
    const double seconds = timer.ElapsedSeconds();
    if (!status.ok()) {
      std::fprintf(stderr, "scan failed: %s\n", status.ToString().c_str());
      std::exit(1);
    }
    if (consumers[i].stats() != reference.stats()) {
      std::fprintf(stderr, "FAIL: %s at %zu threads changed the bits\n",
                   sides[i].name, threads);
      ok = false;
    }
    return seconds;
  };
  for (const bool cold : {false, true}) {
    for (const size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
      const std::string cell = std::string(cold ? "cold" : "warm") +
                               " T=" + std::to_string(threads);
      // Untimed: for a warm cell this also fills the page cache.
      for (size_t i = 0; i < std::size(sides); ++i) scan_once(i, threads);
      std::vector<double> seconds[std::size(sides)];
      for (size_t rep = 0; rep < reps; ++rep) {
        for (size_t i = 0; i < std::size(sides); ++i) {
          if (cold)
            for (const std::string& file : sides[i].files)
              EvictFromPageCache(file);
          seconds[i].push_back(scan_once(i, threads));
        }
      }
      for (size_t i = 0; i < std::size(sides); ++i)
        PrintSpread(cell + " " + sides[i].name + " seconds", seconds[i]);
      PrintKV(cell + " 4 shards / one file median",
              Median(seconds[1]) / Median(seconds[0]));
    }
  }

  PrintKV("all configurations bit-identical", ok ? "yes" : "NO");
  FinishJson("shard_engine");
  std::remove(disk_path.c_str());
  std::remove(sweep_path.c_str());
  for (const auto& files : layout_files)
    for (const std::string& path : files) std::remove(path.c_str());
  return ok ? 0 : 1;
}
