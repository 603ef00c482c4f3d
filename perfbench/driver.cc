// perfbench driver: sets up one workload, runs its ops for a fixed wall
// budget, checks every output, and prints one tab-separated line per
// metric ("metric", name, value or "absent", unit, note). perfbench/run.py
// builds this program, runs it and turns the lines into the result JSON.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --work-dir DIR [--fingerprints FILE] [--record]
//                    [--smoke]
//
// --trace 0 runs the timed ops and reports the end-to-end metrics.
// --trace 1 runs each op untraced and then again on a traced source, then
// the layer probes, and reports the per-layer metrics.
// --record runs each algorithm seed once and writes the fingerprints of a
// run without failures to FILE. --smoke shrinks the rows and does one
// set-up and at least one op.

#include <unistd.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "eval/metrics.h"

namespace perfbench {
namespace {

// Ops listed one by one in the report (classify runs thousands).
constexpr size_t kShownOps = 8;
// Algorithm seeds per workload seed; op i uses entry i mod kAlgoSeeds.
constexpr size_t kAlgoSeeds = 4;
// Set-ups per run; setup_s is their median.
constexpr size_t kSetupReps = 5;
// Ops an untraced run does even when --seconds has passed.
constexpr size_t kMinOps = 2;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string work_dir;
  std::string fingerprints;
  bool record = false;
  bool smoke = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (flag == "--record") {
      args->record = true;
    } else if (flag == "--smoke") {
      args->smoke = true;
    } else if ((v = value()) == nullptr) {
      return false;
    } else if (flag == "--workload") {
      args->workload = v;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::atoi(v);
    } else if (flag == "--work-dir") {
      args->work_dir = v;
    } else if (flag == "--fingerprints") {
      args->fingerprints = v;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && !args->work_dir.empty() &&
         args->seconds > 0.0 && (args->trace == 0 || args->trace == 1);
}

void PrintMetric(const std::string& name, double value, const char* unit,
                 const std::string& note = "") {
  std::printf("metric\t%s\t%.17g\t%s\t%s\n", name.c_str(), value, unit,
              note.c_str());
}

void PrintAbsent(const std::string& name, const char* unit,
                 const std::string& reason) {
  std::printf("metric\t%s\tabsent\t%s\t%s\n", name.c_str(), unit,
              reason.c_str());
}

// The counts that must repeat exactly for one (data, algorithm seed).
struct Counts {
  uint64_t scans = 0, bytes = 0, kernel_rows = 0, evals = 0, iterations = 0,
           screened = 0, rows_fetched = 0;
  bool operator==(const Counts&) const = default;
};

struct OpRecord {
  uint64_t algo_seed = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double ari = 0.0;
  proclus::RunStats stats;
  Counts counts;
  bool failed = false;
};

class Runner {
 public:
  Runner(const Args& args, const Workload& workload)
      : args_(args), w_(workload) {}

  bool LoadBooks(std::string* error) {
    return expected_.Load(args_.fingerprints, error) &&
           seen_.Load(SeenPath(), error);
  }

  // Runs op `i` (algorithm seed AlgoSeed(i)) on `source` and checks it.
  // A traced op records an "op" span in `recorder`.
  OpRecord RunOne(const proclus::PointSource& source, size_t i,
                  TraceRecorder* recorder) {
    const uint64_t algo_seed = AlgoSeed(i);
    Span op_span;
    if (recorder != nullptr) {
      op_span.name = "op";
      op_span.id = recorder->NewId();
      op_span.op = op_span.id;
      op_span.rows = w_.spec.rows;
      recorder->SetOp(op_span.id);
      op_span.start_ns = recorder->Now();
    }
    OpResult result = RunOp(w_, source, algo_seed);
    if (recorder != nullptr) {
      op_span.end_ns = recorder->Now();
      recorder->SetOp(0);
      recorder->Record(op_span);
      op_spans_.push_back(op_span);
    }
    OpRecord record = Check(result, algo_seed);
    if (i < kShownOps)
      std::printf("op\t%zu\tseed %" PRIu64 "\t%.3f s wall\t%.3f s cpu\t"
                  "%zu iterations\t%" PRIu64 " scans%s\n",
                  i, algo_seed, result.wall_s, result.cpu_s,
                  result.model.iterations, result.stats.scans_issued,
                  recorder != nullptr ? "\ttraced" : "");
    if (first_model_.num_clusters() == 0 && result.status.ok())
      first_model_ = w_.spec.classify ? w_.model : std::move(result.model);
    return record;
  }

  // Records this run's fingerprints for later runs (mem_d20 and
  // disk_shard_d20 check each other through it) and, with --record, into
  // the fingerprint file. Only a run without failed ops may call it, so
  // wrong outputs never become a reference.
  bool SaveBooks() {
    for (const auto& [key, fp] : run_fps_) {
      seen_.Put(key, fp);
      expected_.Put(key, fp);
    }
    if (!seen_.Save(SeenPath())) return false;
    return !args_.record || expected_.Save(args_.fingerprints);
  }

  size_t fingerprints() const { return run_fps_.size(); }
  bool any_failed() const { return any_failed_; }
  const std::vector<Span>& op_spans() const { return op_spans_; }
  const proclus::ProjectedClustering& first_model() const {
    return first_model_;
  }

 private:
  // Fixed list of algorithm seeds derived from the workload seed. Classify
  // ops reuse the set-up model.
  uint64_t AlgoSeed(size_t i) const {
    return w_.spec.classify ? args_.seed * 100
                            : args_.seed * 100 + 1 + i % kAlgoSeeds;
  }

  std::string SeenPath() const {
    return args_.work_dir + "/seen-fingerprints.txt";
  }

  OpRecord Check(const OpResult& result, uint64_t algo_seed) {
    OpRecord rec;
    rec.algo_seed = algo_seed;
    rec.wall_s = result.wall_s;
    rec.cpu_s = result.cpu_s;
    rec.stats = result.stats;
    const WorkloadSpec& spec = w_.spec;
    const size_t k = 5;
    std::string why;
    if (!result.status.ok()) {
      why = result.status.ToString();
    } else {
      why = spec.classify ? CheckLabels(result.labels, spec.rows, k)
                          : CheckFit(result.model, spec.rows, k, spec.avg_dims);
      if (why.empty())
        why = CheckStats(result.stats, spec.rows, spec.dims, spec.disk);
    }
    if (why.empty()) {
      const Fingerprint fp = FingerprintOf(
          spec.classify ? w_.model : result.model, result.labels);
      const std::string key = FingerprintBook::Key(spec.data_tag, spec.rows,
                                                   args_.seed, algo_seed);
      rec.counts.scans = result.stats.scans_issued;
      rec.counts.bytes = result.stats.bytes_read;
      rec.counts.kernel_rows = result.stats.kernel_rows;
      rec.counts.evals = result.stats.distance_evals;
      rec.counts.iterations = result.model.iterations;
      rec.counts.rows_fetched = result.rows_fetched;
      if (auto sketch = SketchOf(result.stats))
        rec.counts.screened = sketch->screened;
      const Fingerprint* expected = expected_.Find(key);
      const Fingerprint* seen = seen_.Find(key);
      auto previous = run_fps_.find(key);
      auto counts = run_counts_.find(key);
      if (!args_.record && expected != nullptr && !(*expected == fp)) {
        why = "fingerprint " + fp.ToString() + " != recorded " +
              expected->ToString();
      } else if (previous != run_fps_.end() && !(previous->second == fp)) {
        why = "repeat of algorithm seed gave another fingerprint";
      } else if (counts != run_counts_.end() &&
                 !(counts->second == rec.counts)) {
        why = "repeat of algorithm seed gave other counts";
      } else if (seen != nullptr && !(*seen == fp)) {
        why = "fingerprint differs from an earlier run on the same data";
      }
      if (why.empty()) {
        run_fps_.emplace(key, fp);
        run_counts_.emplace(key, rec.counts);
      }
      auto ari = ari_.find(fp.labels_hash);
      if (ari == ari_.end())
        ari = ari_.emplace(fp.labels_hash,
                           proclus::AdjustedRandIndex(result.labels, w_.truth))
                  .first;
      rec.ari = ari->second;
    }
    if (!why.empty()) {
      rec.failed = true;
      any_failed_ = true;
      std::printf("op-failed\tseed %" PRIu64 "\t%s\n", algo_seed,
                  why.c_str());
    }
    return rec;
  }

  const Args& args_;
  const Workload& w_;
  FingerprintBook expected_;
  FingerprintBook seen_;
  std::map<std::string, Fingerprint> run_fps_;
  std::map<std::string, Counts> run_counts_;
  std::map<uint64_t, double> ari_;
  bool any_failed_ = false;
  std::vector<Span> op_spans_;
  proclus::ProjectedClustering first_model_;
};

std::vector<double> Field(const std::vector<OpRecord>& ops,
                          double OpRecord::*field) {
  std::vector<double> out;
  for (const OpRecord& op : ops) out.push_back(op.*field);
  return out;
}

size_t Failed(const std::vector<OpRecord>& ops) {
  size_t n = 0;
  for (const OpRecord& op : ops) n += op.failed ? 1 : 0;
  return n;
}

void ReportEndToEnd(const WorkloadSpec& spec, const std::vector<OpRecord>& ops,
                    const std::vector<SetupTimes>& setups) {
  const size_t n = ops.size();
  const std::vector<double> wall = Field(ops, &OpRecord::wall_s);
  const std::string count_note = "median of " + std::to_string(n) + " ops";
  PrintMetric("op_s_p50", Median(wall), "s", count_note);
  if (n >= 20) {
    // Highest percentile with at least 10 ops beyond it.
    double pct = 50.0;
    for (double p : {99.9, 99.0, 95.0, 90.0, 75.0})
      if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0) {
        pct = p;
        break;
      }
    char note[64];
    std::snprintf(note, sizeof(note), "p%g of %zu ops", pct, n);
    PrintMetric("op_s_tail", Percentile(wall, pct), "s", note);
  } else {
    PrintAbsent("op_s_tail", "s",
                "fewer than 20 ops (" + std::to_string(n) + ")");
  }
  double total = 0.0;
  for (double t : wall) total += t;
  PrintMetric("points_per_s",
              static_cast<double>(spec.rows) * static_cast<double>(n) / total,
              "1/s", std::to_string(spec.rows) + " points per op");
  PrintMetric("op_cpu_s", Median(Field(ops, &OpRecord::cpu_s)), "s",
              "process CPU, all threads; " + count_note);
  // Per point and hill-climbing iteration, so it does not move with the
  // number of iterations a seed happens to need. The fingerprints pin the
  // iteration count, and the division leaves the engine's scans per
  // iteration inside the figure. A classify call is one pass.
  std::vector<double> iter_cpu;
  for (const OpRecord& op : ops) {
    const uint64_t passes = spec.classify ? 1 : op.counts.iterations;
    if (passes == 0) continue;  // no valid model to count iterations of
    iter_cpu.push_back(op.cpu_s /
                       (static_cast<double>(spec.rows) *
                        static_cast<double>(passes)) *
                       1e6);
  }
  if (iter_cpu.empty()) {
    PrintAbsent("cpu_us_per_point_iter", "us", "no op returned a valid fit");
  } else {
    PrintMetric("cpu_us_per_point_iter", Median(iter_cpu), "us",
                std::string("process CPU per point per ") +
                    (spec.classify ? "classify call" : "iteration") + "; " +
                    count_note);
  }
  std::vector<double> setup, setup_wall;
  for (const SetupTimes& t : setups) {
    setup.push_back(t.total_s);
    setup_wall.push_back(t.wall_s);
  }
  const std::string reps =
      "median of " + std::to_string(setups.size()) + " set-ups";
  PrintMetric("setup_s", Median(setup), "s", "process CPU; " + reps);
  PrintMetric("setup_wall_s", Median(setup_wall), "s", reps);
  PrintMetric("peak_rss_mb", PeakRssMiB(), "MiB", "whole process");
  PrintMetric("ari", Median(Field(ops, &OpRecord::ari)), "index",
              "adjusted Rand index against ground truth; " + count_note);
  PrintMetric("fail_ratio",
              static_cast<double>(Failed(ops)) / static_cast<double>(n),
              "ratio",
              std::to_string(Failed(ops)) + " of " + std::to_string(n));
}

void ReportLayers(const Workload& w,
                  const std::vector<OpRecord>& plain,
                  const std::vector<OpRecord>& traced,
                  const std::vector<Span>& spans,
                  const std::vector<Span>& op_spans,
                  const std::vector<SetupTimes>& setups,
                  const ProbeResult& probe) {
  const WorkloadSpec& spec = w.spec;
  const proclus::RunStats& s = plain.front().stats;
  const std::string first = "first op";
  const double wall_p50 = Median(Field(plain, &OpRecord::wall_s));
  const double cpu_p50 = Median(Field(plain, &OpRecord::cpu_s));

  // common
  PrintMetric("common.pool_wake_us", probe.pool_wake_us, "us",
              "probe: ParallelBlocks, " + std::to_string(spec.threads) +
                  " threads");
  PrintMetric("common.pool_speedup", probe.pool_speedup, "x",
              "probe: 1-thread / " + std::to_string(spec.threads) +
                  "-thread pass time");
  const size_t busy = BusyThreads(spec);
  PrintMetric("common.cpu_util",
              cpu_p50 / (wall_p50 * static_cast<double>(busy)), "ratio",
              "op_cpu_s / (op_s_p50 x " + std::to_string(busy) +
                  " busy threads)");

  // data
  PrintMetric("data.scans", static_cast<double>(s.scans_issued), "count",
              first);
  PrintMetric("data.bytes_read", static_cast<double>(s.bytes_read), "bytes",
              first);
  PrintMetric("data.rows_fetched",
              static_cast<double>(plain.front().counts.rows_fetched), "count",
              first);
  PrintMetric("data.scan_s", probe.scan_s, "s",
              "probe: one ScanExecutor::Run over the workload source");
  PrintMetric("data.scan_GBps", probe.scan_bytes / probe.scan_s * 1e-9, "GB/s",
              "computed bytes per scan / data.scan_s; the rows are page-cache "
              "and LLC resident, so this is not a storage figure");
  PrintMetric("data.retries", static_cast<double>(s.retries), "count", first);
  PrintMetric("data.failed_scans", static_cast<double>(s.failed_scans), "count",
              first);

  // Traced figures, per op, medians over the traced ops.
  std::vector<OpTrace> per_op;
  const size_t shards = spec.disk ? 4 : 0;
  for (const Span& op : op_spans)
    per_op.push_back(SummarizeOp(spans, op, shards));
  auto traced_median = [&](double OpTrace::*field) {
    std::vector<double> v;
    for (const OpTrace& t : per_op) v.push_back(t.*field);
    return Median(v);
  };
  const bool scans_visible = !per_op.empty() && per_op.front().scans > 0;
  const std::string invisible =
      "scans take the zero-copy parallel path (in memory, threads > 1) and "
      "never call Scan, so they are invisible from outside the library";
  if (scans_visible) {
    PrintMetric("data.wait_s", traced_median(&OpTrace::wait_s), "s",
                "traced: summed block.wait per op");
  } else {
    PrintAbsent("data.wait_s", "s", invisible);
  }
  if (spec.disk && scans_visible) {
    std::vector<double> skew;
    for (const OpTrace& t : per_op) skew.push_back(Median(t.shard_skew));
    PrintMetric("data.shard_skew", Median(skew), "ratio",
                "traced: slowest / fastest shard scan, median over scans");
  } else {
    PrintAbsent("data.shard_skew", "ratio", "source is not sharded");
  }
  PrintMetric("data.fetch_s", traced_median(&OpTrace::fetch_s), "s",
              "traced: summed fetch per op");

  // distance
  PrintMetric("distance.kernel_rows", static_cast<double>(s.kernel_rows),
              "count", first);
  PrintMetric("distance.evals", static_cast<double>(s.distance_evals), "count",
              first);
  if (s.kernel_batches > 0) {
    PrintMetric("distance.tile_reuse_ratio",
                static_cast<double>(s.tile_reuse_hits) /
                    static_cast<double>(s.kernel_batches),
                "ratio", "tile_reuse_hits / kernel_batches, " + first);
  } else {
    PrintAbsent("distance.tile_reuse_ratio", "ratio", "no kernel batches");
  }
  PrintMetric("distance.segmental_argmin_Mpairs_s", probe.argmin_mpairs_s,
              "Mpairs/s", "probe: SegmentalArgminBatch, 1 thread");
  PrintMetric("distance.manhattan_many_Mpairs_s", probe.manhattan_mpairs_s,
              "Mpairs/s", "probe: ManhattanManyBatch, 1 thread");

  // sketch
  if (auto sketch = SketchOf(s)) {
    PrintMetric("sketch.rows_screened", static_cast<double>(sketch->screened),
                "count", first);
    if (sketch->screened > 0) {
      PrintMetric("sketch.prune_ratio",
                  static_cast<double>(sketch->pruned) /
                      static_cast<double>(sketch->screened),
                  "ratio", "pruned / screened, " + first);
    } else {
      PrintAbsent("sketch.prune_ratio", "ratio", "no rows screened");
    }
  } else {
    const char* reason = "RunStats has no sketch counters";
    PrintAbsent("sketch.rows_screened", "count", reason);
    PrintAbsent("sketch.prune_ratio", "ratio", reason);
  }

  // core
  if (spec.classify) {
    const char* reason = "classify runs no driver phases";
    PrintAbsent("core.iterations", "count", reason);
    PrintAbsent("core.scans_per_iteration", "ratio", reason);
    PrintAbsent("core.init_s", "s", reason);
    PrintAbsent("core.iterative_s", "s", reason);
    PrintAbsent("core.refine_s", "s", reason);
    PrintAbsent("core.locality_cache_hit_ratio", "ratio", reason);
  } else {
    const double iterations =
        static_cast<double>(plain.front().counts.iterations);
    PrintMetric("core.iterations", iterations, "count", first);
    PrintMetric("core.scans_per_iteration",
                static_cast<double>(s.iterative_scans) / iterations, "ratio",
                "iterative_scans / iterations, " + first);
    std::vector<double> init, iterative, refine;
    for (const OpRecord& op : plain) {
      init.push_back(op.stats.init_seconds);
      iterative.push_back(op.stats.iterative_seconds);
      refine.push_back(op.stats.refine_seconds);
    }
    PrintMetric("core.init_s", Median(init), "s", "RunStats phase time");
    PrintMetric("core.iterative_s", Median(iterative), "s",
                "RunStats phase time");
    PrintMetric("core.refine_s", Median(refine), "s", "RunStats phase time");
    const uint64_t lookups = s.locality_cache_hits + s.locality_cache_misses;
    PrintMetric("core.locality_cache_hit_ratio",
                lookups == 0 ? 0.0
                             : static_cast<double>(s.locality_cache_hits) /
                                   static_cast<double>(lookups),
                "ratio", "hits / (hits + misses), " + first);
  }
  if (scans_visible) {
    PrintMetric("core.consume_s", traced_median(&OpTrace::consume_s), "s",
                "traced: summed block.consume per op (consumers + kernels)");
    PrintMetric("core.serial_s", traced_median(&OpTrace::serial_s), "s",
                "traced: op span minus the union of its scan spans");
    PrintMetric("trace.scan_union_s", traced_median(&OpTrace::scan_union_s),
                "s", "traced: union of scan spans per op");
    PrintMetric("trace.residual_s", traced_median(&OpTrace::residual_s), "s",
                "op - core.serial_s - trace.scan_union_s");
  } else {
    PrintAbsent("core.consume_s", "s", invisible);
    PrintAbsent("core.serial_s", "s", invisible);
  }

  // set-up split
  std::vector<double> gen, store, fit;
  for (const SetupTimes& t : setups) {
    gen.push_back(t.generate_s);
    store.push_back(t.store_s);
    fit.push_back(t.model_fit_s);
  }
  PrintMetric("gen.generate_s", Median(gen), "s", "set-up, process CPU");
  if (spec.disk) {
    PrintMetric("data.store_s", Median(store), "s",
                "set-up, process CPU: snapshot and shard writes, source "
                "opening");
  } else {
    PrintAbsent("data.store_s", "s", "in-memory source");
  }
  if (spec.classify) {
    PrintMetric("core.model_fit_s", Median(fit), "s",
                "set-up fit, 4 threads, process CPU");
  } else {
    PrintAbsent("core.model_fit_s", "s", "no set-up fit");
  }
  PrintMetric("trace.overhead",
              Median(Field(traced, &OpRecord::wall_s)) / wall_p50, "ratio",
              "traced / untraced op_s_p50 over the same ops");
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload NAME --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR [--fingerprints FILE] [--record] "
                 "[--smoke]\n");
    return 2;
  }
  const std::optional<WorkloadSpec> spec =
      FindWorkload(args.workload, args.smoke);
  if (!spec) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const std::string run_dir =
      args.work_dir + "/" + args.workload + "-" + std::to_string(getpid());
  std::error_code ec;
  std::filesystem::create_directories(run_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", run_dir.c_str(),
                 ec.message().c_str());
    return 2;
  }
  struct RemoveOnExit {
    std::string dir;
    ~RemoveOnExit() {
      std::error_code ignored;
      std::filesystem::remove_all(dir, ignored);
    }
  } cleanup{run_dir};

  // Set-up, repeated; the last one is kept for the ops.
  std::vector<SetupTimes> setups;
  std::unique_ptr<Workload> workload;
  const size_t setup_reps = args.smoke ? 1 : kSetupReps;
  for (size_t rep = 0; rep < setup_reps; ++rep) {
    workload.reset();
    proclus::Result<std::unique_ptr<Workload>> made =
        SetUp(*spec, args.seed, run_dir);
    if (!made.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   made.status().ToString().c_str());
      return 2;
    }
    workload = std::move(made).value();
    setups.push_back(workload->times);
  }

  Runner runner(args, *workload);
  std::string error;
  if (!runner.LoadBooks(&error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  std::printf("workload\t%s\tseed %" PRIu64 "\ttrace %d\trows %zu\tdims %zu\t"
              "threads %zu\n",
              spec->name.c_str(), args.seed, args.trace, spec->rows,
              spec->dims, spec->threads);

  size_t attempted = 0;
  size_t failed = 0;
  if (args.trace == 0) {
    std::vector<OpRecord> ops;
    const size_t min_ops = args.smoke ? 1 : kMinOps;
    const Clock::time_point start = Clock::now();
    for (size_t i = 0;
         args.record ? i < kAlgoSeeds
                     : i < min_ops || SecondsSince(start) < args.seconds;
         ++i)
      ops.push_back(runner.RunOne(*workload->source, i, nullptr));
    attempted = ops.size();
    failed = Failed(ops);
    ReportEndToEnd(*spec, ops, setups);
  } else {
    // Each op runs untraced, then again on the traced source, so drift
    // over the run cancels out of trace.overhead; then the probes.
    TraceRecorder recorder;
    proclus::Result<std::unique_ptr<proclus::PointSource>> traced_source =
        TracedSource(*workload, &recorder);
    if (!traced_source.ok()) {
      std::fprintf(stderr, "traced source: %s\n",
                   traced_source.status().ToString().c_str());
      return 2;
    }
    std::vector<OpRecord> plain, traced;
    const Clock::time_point start = Clock::now();
    for (size_t i = 0; i == 0 || SecondsSince(start) < args.seconds; ++i) {
      plain.push_back(runner.RunOne(*workload->source, i, nullptr));
      traced.push_back(runner.RunOne(**traced_source, i, &recorder));
    }
    attempted = plain.size() + traced.size();
    failed = Failed(plain) + Failed(traced);
    if (runner.first_model().num_clusters() == 0) {
      std::fprintf(stderr, "no successful op to probe with\n");
      return 2;
    }
    ProbeInput probe_in;
    probe_in.data = &workload->data;
    probe_in.source = workload->source.get();
    probe_in.threads = spec->threads;
    probe_in.model = &runner.first_model();
    probe_in.budget_s = args.smoke ? 0.05 : 0.3;
    Span probes{"probes", recorder.NewId(), 0, 0, recorder.Now()};
    proclus::Result<ProbeResult> probe = RunProbes(probe_in);
    if (!probe.ok()) {
      std::fprintf(stderr, "probe failed: %s\n",
                   probe.status().ToString().c_str());
      return 2;
    }
    probes.end_ns = recorder.Now();
    recorder.Record(probes);
    const std::vector<Span> spans = recorder.Spans();
    ReportLayers(*workload, plain, traced, spans, runner.op_spans(),
                 setups, *probe);
    const std::string span_path = args.work_dir + "/trace-" + spec->name +
                                  "-seed" + std::to_string(args.seed) + ".json";
    if (WriteSpans(spans, span_path))
      std::printf("spans\t%zu\t%s\n", spans.size(), span_path.c_str());
  }

  if (runner.any_failed()) {
    std::printf("books\tnot saved: the run had failed ops\n");
  } else if (!runner.SaveBooks()) {
    std::fprintf(stderr, "cannot save fingerprints\n");
    return 2;
  } else if (args.record) {
    std::printf("recorded\t%zu fingerprints\t%s\n", runner.fingerprints(),
                args.fingerprints.c_str());
  }
  std::printf("result\t%zu\t%zu\n", attempted, failed);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
