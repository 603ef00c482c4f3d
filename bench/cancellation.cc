// Cancellation + stall-hedging harness: how fast does a cancelled run
// return, and what does the shard watchdog buy on tail latency?
//
// Leg 1 — cancel latency. A fused PROCLUS fit runs over a sharded
// on-disk source while a second thread fires Cancel() at staggered
// points of the fit; we report the p50/p99 of (return time − cancel
// time). Cooperative per-block checks bound that latency by one block's
// work, so --smoke asserts p99 <= max(250 ms, 100 x the measured
// per-block cost) — a generous multiple that still catches a lost token
// (which would serve the rest of the fit, seconds not milliseconds).
// After the cancelled fits, a clean fit must reproduce the baseline
// bits: a cancelled run leaves no residue.
//
// Leg 2 — stall hedging A/B. Four memory shards scan under injected
// rare stalls (deterministic per-shard fault seeds; one injector
// operation is one block read), once without a watchdog and once with a
// soft per-read deadline + hedged re-reads. Every scan of both legs must
// reproduce the unsharded reference bits (hedging is a latency lever,
// never a semantic one); --smoke additionally asserts that at least one
// hedge fired and that the hedged p99 beats the unhedged p99 (margin ~the
// injected stall vs the soft cap).
//
// --reps=N times the baseline fit N times; every timed quantity is also
// reported as median, min and max (PrintSpread). --json emits the
// machine-diffable document BENCH_cancellation.json holds.
//
// Wired into ctest under the bench_smoke label (RUN_SERIAL: both legs
// are timing measurements).

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/cancel.h"
#include "common/timer.h"
#include "core/proclus.h"
#include "data/binary_io.h"
#include "data/engine.h"
#include "data/fault_source.h"
#include "data/sharded_source.h"

namespace {

using namespace proclus;
using namespace proclus::bench;
using std::chrono::duration;
using std::chrono::microseconds;
using std::chrono::steady_clock;

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

uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  return samples[static_cast<size_t>(pos + 0.5)];
}

// Block-ordered checksum: the per-block partial sums are merged in block
// order, so the total's bit pattern is the determinism witness every
// configuration (sharded, stalled, hedged) must reproduce.
class ChecksumConsumer final : public ScanConsumer {
 public:
  Status Prepare(const ScanGeometry& geometry) override {
    partials_.assign(geometry.num_blocks, 0.0);
    return Status::OK();
  }
  void ConsumeBlock(size_t block_index, size_t /*first_row*/,
                    std::span<const double> data,
                    size_t /*rows*/) override {
    double sum = 0.0;
    for (double v : data) sum += v;
    partials_[block_index] = sum;
  }
  Status Merge() override {
    total_ = 0.0;
    for (double v : partials_) total_ += v;
    return Status::OK();
  }
  double total() const { return total_; }

 private:
  std::vector<double> partials_;
  double total_ = 0.0;
};

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

  bool ok = true;

  // ---- Leg 1: cancel latency on a sharded on-disk fit. ----
  const std::string prefix =
      "/tmp/proclus_cancellation_" + std::to_string(::getpid());
  const std::string disk_path = prefix + ".bin";
  Status written = WriteBinaryFile(data->dataset, disk_path);
  if (!written.ok()) {
    std::fprintf(stderr, "snapshot write failed: %s\n",
                 written.ToString().c_str());
    return 1;
  }
  std::vector<std::string> cleanup = {disk_path};
  ShardSplitOptions split;
  split.num_shards = 4;
  auto manifest = SplitIntoShards(disk_path, prefix, split);
  if (!manifest.ok()) {
    std::fprintf(stderr, "split failed: %s\n",
                 manifest.status().ToString().c_str());
    return 1;
  }
  cleanup.push_back(*manifest);
  for (size_t s = 0; s < split.num_shards; ++s)
    cleanup.push_back(prefix + ".shard" + std::to_string(s) + ".bin");
  auto sharded_disk = ShardedSource::OpenManifest(*manifest);
  if (!sharded_disk.ok()) {
    std::fprintf(stderr, "manifest open failed: %s\n",
                 sharded_disk.status().ToString().c_str());
    return 1;
  }

  ProclusParams params = DefaultProclus(5, 7.0, options.algo_seed);
  params.num_restarts = 2;
  params.max_iterations = 30;
  params.max_no_improve = 30;
  params.block_rows = 512;

  PrintHeader("Cancel latency: fused fit on a sharded disk source");
  PrintKV("N", static_cast<double>(gen.num_points));
  PrintKV("d", static_cast<double>(gen.space_dims));
  PrintKV("shards", static_cast<double>(split.num_shards));
  PrintKV("block rows", static_cast<double>(params.block_rows));

  std::vector<double> baseline_runs(options.repetitions);
  ProjectedClustering baseline =
      MustRun(*sharded_disk, params, &baseline_runs[0]);
  for (size_t rep = 1; rep < baseline_runs.size(); ++rep)
    MustRun(*sharded_disk, params, &baseline_runs[rep]);
  const double baseline_seconds = Percentile(baseline_runs, 0.50);
  const double blocks_visited =
      static_cast<double>(baseline.stats.rows_visited) /
      static_cast<double>(params.block_rows);
  const double per_block_seconds =
      baseline_seconds / std::max(1.0, blocks_visited);
  PrintSpread("baseline seconds", baseline_runs);
  PrintKV("baseline objective", baseline.objective);
  PrintKV("blocks visited", blocks_visited);
  PrintKV("per-block seconds", per_block_seconds);

  // Fire the cancel at staggered fractions of the baseline duration so
  // the samples land in the bootstrap, the climb, and the refine legs.
  const double fractions[] = {0.15, 0.30, 0.45, 0.60, 0.75};
  std::vector<double> latency;
  size_t completed = 0;
  for (int round = 0; round < 3; ++round) {
    for (double frac : fractions) {
      CancelToken token;
      ProclusParams racing = params;
      racing.cancel.token = &token;
      const auto delay = duration<double>(frac * baseline_seconds);
      steady_clock::time_point cancel_at{};
      std::thread canceller([&token, &cancel_at, delay] {
        // Inactive context: sleeps the full delay via the sanctioned
        // primitive (the raw-sleep lint bans this_thread sleeps here).
        (void)InterruptibleSleep(
            std::chrono::duration_cast<std::chrono::nanoseconds>(delay),
            CancelContext{});
        cancel_at = steady_clock::now();
        token.Cancel();
      });
      auto result = RunProclusOnSource(*sharded_disk, racing);
      const steady_clock::time_point returned = steady_clock::now();
      canceller.join();
      if (result.ok()) {
        ++completed;  // The fit beat the cancel; no latency sample.
      } else if (result.status().code() == StatusCode::kCancelled) {
        latency.push_back(
            duration<double>(returned - cancel_at).count());
      } else {
        std::fprintf(stderr, "unexpected status: %s\n",
                     result.status().ToString().c_str());
        ok = false;
      }
    }
  }
  const double cancel_p50 = Percentile(latency, 0.50);
  const double cancel_p99 = Percentile(latency, 0.99);
  PrintKV("cancelled runs", static_cast<double>(latency.size()));
  PrintKV("completed before cancel", static_cast<double>(completed));
  PrintKV("cancel latency p50 seconds", cancel_p50);
  PrintKV("cancel latency p99 seconds", cancel_p99);
  if (!latency.empty()) PrintSpread("cancel latency seconds", latency);

  // One block's work, with generous slack for scheduler noise: a lost
  // token would blow through this by orders of magnitude.
  const double latency_bound = std::max(0.25, 100.0 * per_block_seconds);
  PrintKV("cancel latency bound seconds", latency_bound);
  if (smoke) {
    if (latency.size() < 3) {
      std::fprintf(stderr,
                   "FAIL: only %zu cancelled samples; the fit is too "
                   "short to measure cancel latency\n",
                   latency.size());
      ok = false;
    }
    if (cancel_p99 > latency_bound) {
      std::fprintf(stderr,
                   "FAIL: cancel latency p99 %.4fs exceeds the "
                   "one-block bound %.4fs\n",
                   cancel_p99, latency_bound);
      ok = false;
    }
  }

  // A cancelled fit must leave no residue: the next clean fit on the
  // same source reproduces the baseline bits.
  ProjectedClustering after = MustRun(*sharded_disk, params);
  const bool clean_after = SameClustering(after, baseline);
  PrintKV("clean fit after cancels bit-identical",
          clean_after ? "yes" : "NO");
  if (!clean_after) {
    std::fprintf(stderr,
                 "FAIL: clean fit after cancelled fits drifted\n");
    ok = false;
  }

  // ---- Leg 2: stall hedging A/B on a stalled sharded scan. ----
  const Dataset& ds = data->dataset;
  const size_t rows = ds.size();
  const size_t block_rows = 512;
  // Shard boundaries aligned to the block size so the sharded scans
  // share the unsharded block geometry (and therefore its bits).
  const size_t per_shard = ((rows / 4) / block_rows) * block_rows;
  const size_t starts[4] = {0, per_shard, 2 * per_shard, 3 * per_shard};
  const size_t counts[4] = {per_shard, per_shard, per_shard,
                            rows - 3 * per_shard};

  MemorySource whole(ds);
  ChecksumConsumer reference;
  {
    ScanOptions reference_options;
    reference_options.block_rows = block_rows;
    Status status = ScanExecutor(reference_options).Run(whole, {&reference});
    if (!status.ok()) {
      std::fprintf(stderr, "reference scan failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
  }
  const uint64_t reference_bits = Bits(reference.total());

  const microseconds stall = microseconds(60000);
  const double stall_rate = 0.15;
  const size_t reps = 20;
  PrintHeader("Stall hedging A/B");
  PrintKV("rows", static_cast<double>(rows));
  PrintKV("shards", 4.0);
  PrintKV("stall seconds", duration<double>(stall).count());
  PrintKV("stall rate", stall_rate);
  PrintKV("scan repetitions", static_cast<double>(reps));

  struct LegResult {
    std::vector<double> seconds;
    uint64_t hedges = 0;
    bool identical = true;
  };
  // Both legs rebuild the fault decorators from the same seeds, so they
  // face the same initial stall schedule (hedged re-reads draw extra
  // faults, diverging later reps — deterministically, per the seeds).
  auto run_leg = [&](bool hedging) {
    std::vector<std::unique_ptr<PointSource>> slices;
    std::vector<std::unique_ptr<PointSource>> decorated;
    for (size_t s = 0; s < 4; ++s) {
      slices.push_back(std::make_unique<MemorySource>(
          ds, starts[s], counts[s]));
      FaultPlan plan;
      plan.seed = 900 + s;
      plan.stall_rate = stall_rate;
      plan.stall = stall;
      decorated.push_back(std::make_unique<FaultInjectingPointSource>(
          *slices[s], plan));
    }
    auto sharded = ShardedSource::Create(std::move(decorated));
    if (!sharded.ok()) {
      std::fprintf(stderr, "shard build failed: %s\n",
                   sharded.status().ToString().c_str());
      std::exit(1);
    }
    LegResult leg;
    for (size_t rep = 0; rep < reps; ++rep) {
      RunStats stats;
      ScanOptions scan;
      scan.num_threads = 4;
      scan.block_rows = block_rows;
      scan.stats = &stats;
      if (hedging) {
        scan.shard_soft_deadline = microseconds(8000);
        scan.max_hedges_per_shard = 3;
      }
      ChecksumConsumer consumer;
      Timer timer;
      Status status = ScanExecutor(scan).Run(*sharded, {&consumer});
      leg.seconds.push_back(timer.ElapsedSeconds());
      if (!status.ok()) {
        std::fprintf(stderr, "stalled scan failed: %s\n",
                     status.ToString().c_str());
        std::exit(1);
      }
      if (Bits(consumer.total()) != reference_bits)
        leg.identical = false;
      leg.hedges += stats.hedged_scans;
    }
    return leg;
  };

  LegResult no_hedge = run_leg(false);
  LegResult hedged = run_leg(true);
  const double a_p50 = Percentile(no_hedge.seconds, 0.50);
  const double a_p99 = Percentile(no_hedge.seconds, 0.99);
  const double b_p50 = Percentile(hedged.seconds, 0.50);
  const double b_p99 = Percentile(hedged.seconds, 0.99);
  PrintKV("no-hedge p50 seconds", a_p50);
  PrintKV("no-hedge p99 seconds", a_p99);
  PrintSpread("no-hedge seconds", no_hedge.seconds);
  PrintKV("no-hedge bit-identical", no_hedge.identical ? "yes" : "NO");
  PrintKV("hedged p50 seconds", b_p50);
  PrintKV("hedged p99 seconds", b_p99);
  PrintSpread("hedged seconds", hedged.seconds);
  PrintKV("hedged bit-identical", hedged.identical ? "yes" : "NO");
  PrintKV("hedges fired", static_cast<double>(hedged.hedges));
  PrintKV("hedged p99 speedup", b_p99 > 0 ? a_p99 / b_p99 : 0.0);

  if (!no_hedge.identical || !hedged.identical) {
    std::fprintf(stderr,
                 "FAIL: a stalled scan drifted from the reference — "
                 "hedging must never change bits\n");
    ok = false;
  }
  if (smoke) {
    if (hedged.hedges == 0) {
      std::fprintf(stderr,
                   "FAIL: the watchdog never hedged; the A/B is not "
                   "exercising the hedging path\n");
      ok = false;
    }
    // The unhedged leg serves at least one full 60 ms stall at its tail;
    // the hedged leg caps every stall near the 8 ms soft deadline.
    if (a_p99 < duration<double>(stall).count() * 0.5) {
      std::fprintf(stderr,
                   "FAIL: no stall landed in the unhedged leg "
                   "(p99 %.4fs); the A/B measured nothing\n",
                   a_p99);
      ok = false;
    } else if (b_p99 >= a_p99) {
      std::fprintf(stderr,
                   "FAIL: hedged p99 %.4fs did not beat unhedged "
                   "p99 %.4fs\n",
                   b_p99, a_p99);
      ok = false;
    }
  }

  PrintKV("cancellation verdict", ok ? "bounded and bit-stable" : "FAIL");
  FinishJson("cancellation");
  for (const std::string& path : cleanup) std::remove(path.c_str());
  return ok ? 0 : 1;
}
