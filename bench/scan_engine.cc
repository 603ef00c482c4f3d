// Scan-engine harness: measures what the fused scan executor buys.
//
// Runs the PROCLUS fit over an in-memory source and a disk snapshot of
// the same input and reports, per source, the wall time (median, min
// and max over --reps runs), the scans issued, the rows visited and the
// bytes read. Beside them it prints the paper's baseline as an analytic
// count: Figure 2 reads the data 4 times per hill-climbing iteration
// (locality statistics, assignment, and the two-pass evaluation) and 4
// times to refine, with no bootstrap scan. The fused climb spends 2
// scans per iteration plus one locality bootstrap per restart, and 3 to
// refine. Memory and disk must produce bit-identical clusterings, and so
// must every repetition; this harness verifies both on every run.
//
// --smoke additionally asserts the documented scan budget
// (DESIGN.md "Scan executor"):
//   iterative_scans == 2 * iterations, bootstrap_scans == num_restarts,
//   refine_scans == 3
// and exits nonzero on any violation — wired into ctest as the
// bench_smoke label so the budget cannot silently regress.

#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "data/binary_io.h"
#include "data/point_source.h"

namespace {

using namespace proclus;
using namespace proclus::bench;

struct EngineRun {
  ProjectedClustering clustering;
  std::vector<double> seconds;  // One per repetition.
  bool repeatable = true;       // Every repetition gave the same bits.
};

bool SameClustering(const ProjectedClustering& a,
                    const ProjectedClustering& b) {
  return a.labels == b.labels && a.medoids == b.medoids &&
         a.objective == b.objective && a.iterations == b.iterations &&
         a.improvements == b.improvements;
}

EngineRun RunTimed(const PointSource& source, const ProclusParams& params,
                   size_t repetitions) {
  EngineRun run;
  for (size_t rep = 0; rep < repetitions; ++rep) {
    Timer timer;
    auto result = RunProclusOnSource(source, params);
    run.seconds.push_back(timer.ElapsedSeconds());
    if (!result.ok()) {
      std::fprintf(stderr, "PROCLUS failed: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
    if (rep == 0) {
      run.clustering = std::move(result).value();
    } else if (!SameClustering(*result, run.clustering)) {
      run.repeatable = false;
    }
  }
  return run;
}

void ReportRun(const std::string& name, const EngineRun& run,
               uint64_t bytes_per_scan) {
  const RunStats& stats = run.clustering.stats;
  const uint64_t iterations = run.clustering.iterations;
  // Figure 2's passes: 4 per iteration, 4 to refine, no bootstrap.
  const uint64_t paper_scans = 4 * iterations + 4;
  PrintSpread(name + " seconds", run.seconds);
  PrintKV(name + " iterations", static_cast<double>(iterations));
  PrintKV(name + " objective", run.clustering.objective);
  PrintRunStats(name, stats);
  PrintKV(name + " paper scans (analytic)",
          static_cast<double>(paper_scans));
  if (stats.bytes_read > 0) {  // Disk-backed: the read volume too.
    PrintKV(name + " paper bytes (analytic)",
            static_cast<double>(paper_scans * bytes_per_scan));
  }
  PrintKV(name + " scan reduction vs paper",
          static_cast<double>(paper_scans) /
              static_cast<double>(stats.scans_issued));
}

bool CheckBudget(const std::string& name, const EngineRun& run,
                 const ProclusParams& params) {
  const RunStats& stats = run.clustering.stats;
  const uint64_t iterations = run.clustering.iterations;
  bool ok = true;
  auto expect = [&](const char* what, uint64_t got, uint64_t want) {
    if (got != want) {
      std::fprintf(stderr, "FAIL %s: %s = %" PRIu64 ", expected %" PRIu64 "\n",
                   name.c_str(), what, got, want);
      ok = false;
    }
  };
  expect("iterative_scans", stats.iterative_scans, 2 * iterations);
  expect("bootstrap_scans", stats.bootstrap_scans, params.num_restarts);
  expect("refine_scans", stats.refine_scans, 3);
  expect("scans_issued",
         stats.scans_issued,
         stats.init_scans + stats.bootstrap_scans + stats.iterative_scans +
             stats.refine_scans);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions options = ParseOptions(argc, argv);
  bool smoke = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;

  // A mid-size Case-1-style input: big enough to span many scan blocks,
  // small enough that repeated memory and disk fits stay fast.
  GeneratorParams gen = Case1Params(options);
  gen.num_points = options.Points(50000);
  auto data = GenerateSynthetic(gen);
  if (!data.ok()) {
    std::fprintf(stderr, "generator failed: %s\n",
                 data.status().ToString().c_str());
    return 1;
  }

  ProclusParams params = DefaultProclus(5, 7.0, options.algo_seed);
  // Fix the climb length so the scan counts of a run are reproducible.
  params.num_restarts = 2;
  params.max_iterations = 30;
  params.max_no_improve = 30;

  const std::string disk_path = "/tmp/proclus_scan_engine_" +
                                std::to_string(::getpid()) + ".bin";
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

  PrintHeader("Scan engine: fused climb vs the paper's scan count");
  PrintKV("N", static_cast<double>(gen.num_points));
  PrintKV("d", static_cast<double>(gen.space_dims));
  PrintKV("k", static_cast<double>(gen.num_clusters));
  PrintKV("restarts", static_cast<double>(params.num_restarts));
  PrintKV("max iterations", static_cast<double>(params.max_iterations));
  PrintKV("repetitions", static_cast<double>(options.repetitions));

  const uint64_t bytes_per_scan =
      gen.num_points * gen.space_dims * sizeof(double);
  EngineRun mem = RunTimed(memory, params, options.repetitions);
  EngineRun on_disk = RunTimed(*disk, params, options.repetitions);
  ReportRun("memory", mem, bytes_per_scan);
  ReportRun("disk", on_disk, bytes_per_scan);

  bool ok = true;
  if (!mem.repeatable || !on_disk.repeatable) {
    std::fprintf(stderr, "FAIL: repeated fits disagree\n");
    ok = false;
  }
  if (!SameClustering(mem.clustering, on_disk.clustering)) {
    std::fprintf(stderr, "FAIL: memory and disk sources disagree\n");
    ok = false;
  }
  if (smoke) {
    ok = CheckBudget("memory", mem, params) && ok;
    ok = CheckBudget("disk", on_disk, params) && ok;
  }
  PrintKV("checks passed", ok ? "yes" : "NO");
  FinishJson("scan_engine");
  std::remove(disk_path.c_str());
  if (!ok) return 1;
  return 0;
}
