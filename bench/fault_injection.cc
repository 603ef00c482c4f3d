// Fault-injection resilience harness: what do storage faults cost, and do
// they ever change results?
//
// Sweeps FaultPlan fail rates over a disk-resident PROCLUS run (transient
// failures, detected corruption, and short reads at fail_rate/5 each),
// reporting the retry work (retries, failed scans, wasted rows, injected
// and absorbed fault counts) and wall time next to the fault-free
// baseline. Then a crash leg: a run killed mid-climb (kill_after_ops)
// leaves a checkpoint behind and is resumed on the healthy source.
//
// Every leg is compared bit-for-bit against the fault-free baseline —
// resilience must never change results, only survival. --smoke asserts
// exactly that (zero drift on every leg, at least one retry absorbed, and
// a successful kill+resume) and exits nonzero on any violation; wired
// into ctest under the bench_smoke label.
//
// --reps=N runs every timed leg N times and reports its median, min and
// max (PrintSpread); the fault and retry counters are those of the first
// rep. --json emits the machine-diffable document BENCH_fault_injection.json
// holds.

#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "core/model_io.h"
#include "data/binary_io.h"
#include "data/fault_source.h"
#include "data/point_source.h"

namespace {

using namespace proclus;
using namespace proclus::bench;

bool SameClustering(const ProjectedClustering& a,
                    const ProjectedClustering& b) {
  return a.labels == b.labels && a.medoids == b.medoids &&
         a.objective == b.objective && a.iterations == b.iterations &&
         a.improvements == b.improvements;
}

ProjectedClustering MustRun(const PointSource& source,
                            const ProclusParams& params,
                            double* seconds = nullptr) {
  Timer timer;
  auto result = RunProclusOnSource(source, params);
  if (seconds != nullptr) *seconds = timer.ElapsedSeconds();
  if (!result.ok()) {
    std::fprintf(stderr, "PROCLUS failed: %s\n",
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).value();
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions options = ParseOptions(argc, argv);
  bool smoke = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;

  GeneratorParams gen = Case1Params(options);
  gen.num_points = options.Points(20000);
  auto data = GenerateSynthetic(gen);
  if (!data.ok()) {
    std::fprintf(stderr, "generator failed: %s\n",
                 data.status().ToString().c_str());
    return 1;
  }

  ProclusParams params = DefaultProclus(5, 7.0, options.algo_seed);
  // Fix the climb length so every leg does identical work and the
  // counters are reproducible.
  params.num_restarts = 2;
  params.max_iterations = 30;
  params.max_no_improve = 30;

  const std::string disk_path = "/tmp/proclus_fault_injection_" +
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

  PrintHeader("Fault injection: retry + checkpoint/resume");
  PrintKV("N", static_cast<double>(gen.num_points));
  PrintKV("d", static_cast<double>(gen.space_dims));
  PrintKV("k", static_cast<double>(gen.num_clusters));
  PrintKV("restarts", static_cast<double>(params.num_restarts));
  PrintKV("max iterations", static_cast<double>(params.max_iterations));
  PrintKV("retry max attempts",
          static_cast<double>(params.retry.max_attempts));

  const size_t reps = options.repetitions;
  PrintKV("repetitions", static_cast<double>(reps));
  std::vector<double> baseline_runs(reps);
  ProjectedClustering baseline = MustRun(*disk, params, &baseline_runs[0]);
  for (size_t rep = 1; rep < reps; ++rep)
    MustRun(*disk, params, &baseline_runs[rep]);
  const double baseline_seconds = Median(baseline_runs);
  PrintSpread("baseline seconds", baseline_runs);
  PrintKV("baseline objective", baseline.objective);
  PrintRunStats("baseline", baseline.stats);

  bool ok = true;
  uint64_t total_retries = 0;

  // --- Sweep: fault rate vs retry work, results pinned to baseline. ---
  const double fail_rates[] = {0.02, 0.05, 0.10, 0.20};
  for (double fail_rate : fail_rates) {
    FaultPlan plan;
    plan.seed = options.algo_seed + 177;
    plan.fail_rate = fail_rate;
    plan.corrupt_rate = fail_rate / 5;
    plan.short_read_rate = fail_rate / 5;
    char label[64];
    std::snprintf(label, sizeof(label), "fail=%.2f", fail_rate);
    // Each rep faces the same schedule from a fresh injector.
    std::vector<double> runs(reps);
    FaultInjectingPointSource faulty(*disk, plan);
    ProjectedClustering run = MustRun(faulty, params, &runs[0]);
    const FaultCounters counters = faulty.fault_counters();
    bool identical = SameClustering(run, baseline);
    for (size_t rep = 1; rep < reps; ++rep) {
      FaultInjectingPointSource again(*disk, plan);
      identical =
          SameClustering(MustRun(again, params, &runs[rep]), baseline) &&
          identical;
    }

    PrintHeader(std::string("Sweep ") + label);
    PrintSpread(std::string(label) + " seconds", runs);
    PrintKV(std::string(label) + " slowdown",
            baseline_seconds > 0 ? Median(runs) / baseline_seconds : 0.0);
    PrintKV(std::string(label) + " operations",
            static_cast<double>(counters.operations));
    PrintKV(std::string(label) + " injected scan faults",
            static_cast<double>(counters.injected_scan_faults));
    PrintKV(std::string(label) + " injected fetch faults",
            static_cast<double>(counters.injected_fetch_faults));
    PrintKV(std::string(label) + " injected corruptions",
            static_cast<double>(counters.injected_corruptions));
    PrintKV(std::string(label) + " injected short reads",
            static_cast<double>(counters.injected_short_reads));
    PrintKV(std::string(label) + " absorbed",
            static_cast<double>(counters.absorbed));
    PrintKV(std::string(label) + " retries",
            static_cast<double>(run.stats.retries));
    PrintKV(std::string(label) + " failed scans",
            static_cast<double>(run.stats.failed_scans));
    PrintKV(std::string(label) + " wasted rows",
            static_cast<double>(run.stats.wasted_rows));

    PrintKV(std::string(label) + " bit-identical",
            identical ? "yes" : "NO");
    if (!identical) {
      std::fprintf(stderr, "FAIL: %s drifted from the baseline\n", label);
      ok = false;
    }
    total_retries += run.stats.retries;
  }

  // --- Crash leg: kill mid-climb, resume from the checkpoint. ---
  const std::string ck_path = "/tmp/proclus_fault_injection_" +
                              std::to_string(::getpid()) + ".pckp";
  std::remove(ck_path.c_str());
  ProclusParams ck_params = params;
  ck_params.checkpoint.path = ck_path;
  ck_params.checkpoint.every_iterations = 8;

  // The crash lands at the 60th scan: one injector operation is one
  // block read.
  FaultPlan crash_plan;
  crash_plan.kill_after_ops =
      60 * BlockCount(gen.num_points, params.block_rows);
  PrintHeader("Crash + resume");
  bool crash_happened = true;
  bool checkpoint_left = true;
  bool resumes_identical = true;
  std::vector<double> resume_runs;
  for (size_t rep = 0; rep < reps && crash_happened && checkpoint_left;
       ++rep) {
    std::remove(ck_path.c_str());
    FaultInjectingPointSource dying(*disk, crash_plan);
    crash_happened = !RunProclusOnSource(dying, ck_params).ok();
    checkpoint_left = LoadCheckpointFile(ck_path).ok();
    if (!crash_happened || !checkpoint_left) break;
    resume_runs.push_back(0.0);
    resumes_identical =
        SameClustering(MustRun(*disk, ck_params, &resume_runs.back()),
                       baseline) &&
        resumes_identical;
  }
  PrintKV("crash killed the run", crash_happened ? "yes" : "NO");
  PrintKV("checkpoint left behind", checkpoint_left ? "yes" : "NO");
  if (!crash_happened || !checkpoint_left) {
    std::fprintf(stderr,
                 "FAIL: crash leg did not leave a resumable checkpoint\n");
    ok = false;
  } else {
    PrintSpread("resume seconds", resume_runs);
    PrintKV("resume fraction of baseline",
            baseline_seconds > 0 ? Median(resume_runs) / baseline_seconds
                                 : 0.0);
    PrintKV("resume bit-identical", resumes_identical ? "yes" : "NO");
    if (!resumes_identical) {
      std::fprintf(stderr, "FAIL: resumed run drifted from baseline\n");
      ok = false;
    }
  }

  if (smoke && total_retries == 0) {
    std::fprintf(stderr,
                 "FAIL: the sweep never retried; fault injection is not "
                 "exercising the retry path\n");
    ok = false;
  }
  PrintKV("total sweep retries", static_cast<double>(total_retries));
  PrintKV("resilience verdict", ok ? "zero drift" : "DRIFT");

  FinishJson("fault_injection");
  std::remove(disk_path.c_str());
  std::remove(ck_path.c_str());
  if (!ok) return 1;
  return 0;
}
