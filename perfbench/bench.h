// Shared declarations of the repository benchmark driver (perfbench/).
//
// The driver runs one named workload per process through the library's
// public entry points (RunProclusOnSource, ClassifyPoints), checks every
// output, and reports end-to-end metrics. A traced run additionally wraps
// each source in TracingSource, which records spans around the calls into
// the data layer from outside the library, and runs the layer probes.

#ifndef PROCLUS_PERFBENCH_BENCH_H_
#define PROCLUS_PERFBENCH_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/run_stats.h"
#include "common/sync.h"
#include "core/model.h"
#include "data/point_source.h"

namespace perfbench {

// ---------------------------------------------------------------- tracing

/// One timed interval. Times are nanoseconds on the recorder's steady
/// clock. `op` is the id of the enclosing op span (0 outside ops);
/// `parent` the causing span (0 for roots).
struct Span {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t op = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t rows = 0;
  uint64_t bytes = 0;
  /// Shard index of the traced source (-1 when it is not a shard).
  int shard = -1;

  double seconds() const {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

/// In-memory span sink shared by every traced source of a run.
class TraceRecorder {
 public:
  TraceRecorder();

  /// Nanoseconds since the recorder was created.
  int64_t Now() const;
  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  /// The op span new scan and fetch spans attach to (0 = none).
  void SetOp(uint64_t op) { op_.store(op, std::memory_order_relaxed); }
  uint64_t op() const { return op_.load(std::memory_order_relaxed); }

  void Record(const Span& span);
  std::vector<Span> Spans() const;

 private:
  int64_t epoch_ns_;
  // order: relaxed — unique-id ticket; ids carry no payload.
  std::atomic<uint64_t> next_id_{1};
  // order: relaxed — set on the driver thread between ops; scans that
  // read it run inside the op, after the store, ordered by the pool's
  // task handoff.
  std::atomic<uint64_t> op_{0};
  mutable proclus::Mutex mu_;
  std::vector<Span> spans_ PROCLUS_GUARDED_BY(mu_);
};

/// PointSource decorator that records a "scan" span per Scan (with
/// "block.wait" and "block.consume" children per delivered block) and a
/// "fetch" span per Fetch. It forwards InMemory(), so the executor takes
/// the same path as for the undecorated source, and keeps Sharded() null,
/// as every decorator does: to trace a shard set, wrap each shard before
/// ShardedSource::Create.
class TracingSource final : public proclus::PointSource {
 public:
  TracingSource(std::unique_ptr<proclus::PointSource> inner,
                TraceRecorder* recorder, int shard = -1)
      : inner_(std::move(inner)), recorder_(recorder), shard_(shard) {}

  size_t size() const override { return inner_->size(); }
  size_t dims() const override { return inner_->dims(); }
  proclus::Result<proclus::Matrix> Fetch(
      std::span<const size_t> indices) const override;
  const proclus::Dataset* InMemory() const override {
    return inner_->InMemory();
  }

 protected:
  proclus::Status ScanBlocks(const proclus::ScanSpec& spec,
                             const proclus::BlockVisitor& visit) const override;

 private:
  std::unique_ptr<proclus::PointSource> inner_;
  TraceRecorder* recorder_;
  int shard_;
};

/// Per-op figures derived from the spans of one traced op.
struct OpTrace {
  double op_s = 0.0;
  size_t scans = 0;          ///< scan spans (one per shard scan)
  double wait_s = 0.0;       ///< summed block.wait
  double consume_s = 0.0;    ///< summed block.consume
  double fetch_s = 0.0;      ///< summed fetch
  double scan_union_s = 0.0; ///< union of scan spans, clipped to the op
  double serial_s = 0.0;     ///< op time outside every scan span
  double residual_s = 0.0;   ///< op - serial - union
  std::vector<double> shard_skew;  ///< per whole-set scan (sharded only)
};

OpTrace SummarizeOp(const std::vector<Span>& spans, const Span& op_span,
                    size_t num_shards);

/// Writes the spans as one JSON array (one object per line).
bool WriteSpans(const std::vector<Span>& spans, const std::string& path);

// ----------------------------------------------------------------- checks

/// Identity of one op's output. It pins the iteration count, so the
/// per-iteration CPU figure divides by a number the goldens fix.
struct Fingerprint {
  uint64_t objective_bits = 0;
  uint64_t labels_hash = 0;
  uint64_t iterations = 0;
  std::string medoids;     ///< "i,j,..."
  std::string dimensions;  ///< per cluster "a.b.c", joined by '/'
  bool operator==(const Fingerprint&) const = default;
  std::string ToString() const;
};

Fingerprint FingerprintOf(const proclus::ProjectedClustering& model,
                          const std::vector<int>& labels);

/// Fingerprint file: one line per (data, rows, seed, algorithm seed).
class FingerprintBook {
 public:
  static std::string Key(const std::string& data_tag, size_t rows,
                         uint64_t seed, uint64_t algo_seed);
  /// Loads `path`; a missing file is an empty book.
  bool Load(const std::string& path, std::string* error);
  bool Save(const std::string& path) const;
  const Fingerprint* Find(const std::string& key) const;
  void Put(const std::string& key, const Fingerprint& fp) { book_[key] = fp; }

 private:
  std::map<std::string, Fingerprint> book_;
};

/// Output invariants of a fit; returns "" when they hold.
std::string CheckFit(const proclus::ProjectedClustering& model, size_t rows,
                     size_t k, double l);
/// Output invariants of a classify call; returns "" when they hold.
std::string CheckLabels(const std::vector<int>& labels, size_t rows, size_t k);
/// RunStats identities checked from outside; returns "" when they hold.
std::string CheckStats(const proclus::RunStats& stats, size_t rows,
                       size_t dims, bool disk);

/// Sketch counters, read only when RunStats still has them.
struct SketchCounts {
  uint64_t screened = 0;
  uint64_t pruned = 0;
  uint64_t verified = 0;
};
std::optional<SketchCounts> SketchOf(const proclus::RunStats& stats);

// ----------------------------------------------------------------- probes

struct ProbeInput {
  const proclus::Dataset* data = nullptr;        ///< rows the op scans
  const proclus::PointSource* source = nullptr;  ///< the workload's source
  size_t threads = 1;
  const proclus::ProjectedClustering* model = nullptr;  ///< first op's model
  double budget_s = 0.5;  ///< wall budget per probe
};

struct ProbeResult {
  double pool_wake_us = 0.0;
  double pool_speedup = 0.0;
  double scan_s = 0.0;
  double scan_bytes = 0.0;
  double argmin_mpairs_s = 0.0;
  double manhattan_mpairs_s = 0.0;
};

proclus::Result<ProbeResult> RunProbes(const ProbeInput& input);

// -------------------------------------------------------------- workloads

/// Shape and execution of one named workload.
struct WorkloadSpec {
  std::string name;
  /// Data identity: workloads that share it see the same rows and must
  /// produce the same fingerprints (mem_d20 and disk_shard_d20).
  std::string data_tag;
  size_t rows = 0;        ///< rows one op processes
  size_t train_rows = 0;  ///< classify: rows fitted at set-up
  size_t dims = 0;
  std::vector<size_t> cluster_dims;
  double avg_dims = 0.0;     ///< l
  size_t threads = 1;        ///< op threads (ProclusParams / ScanOptions)
  bool disk = false;         ///< 4-shard checksummed snapshot
  bool classify = false;
};

/// Looks up a workload; `smoke` shrinks the rows for the self-test.
std::optional<WorkloadSpec> FindWorkload(const std::string& name, bool smoke);

/// Threads that can work at once during an op, from the scan geometry: the
/// pool's workers are capped by the blocks per scan in memory and by the
/// shards on disk, where each shard worker is paired with its prefetch
/// producer.
size_t BusyThreads(const WorkloadSpec& spec);

/// Set-up cost in process CPU seconds (all threads), split by step, plus
/// the wall time of the whole set-up.
struct SetupTimes {
  double generate_s = 0.0;
  double store_s = 0.0;
  double model_fit_s = 0.0;
  double total_s = 0.0;
  double wall_s = 0.0;
};

/// A set-up workload: its rows, ground truth and source. Not movable: the
/// sources point into `data`.
struct Workload {
  WorkloadSpec spec;
  proclus::Dataset data;   ///< the rows an op processes
  std::vector<int> truth;  ///< ground-truth labels of `data`
  std::unique_ptr<proclus::PointSource> source;
  std::string manifest;    ///< disk: shard manifest path
  proclus::ProjectedClustering model;  ///< classify: set-up model
  SetupTimes times;

  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
};

/// Generates the inputs from `seed` (and, on disk, writes the snapshot and
/// shards under `dir` and opens them; for classify, fits the model).
proclus::Result<std::unique_ptr<Workload>> SetUp(const WorkloadSpec& spec,
                                                 uint64_t seed,
                                                 const std::string& dir);

/// The same source wrapped for tracing. On disk the shard set is rebuilt
/// from the manifest with OpenManifest's checks, each shard wrapped.
proclus::Result<std::unique_ptr<proclus::PointSource>> TracedSource(
    const Workload& workload, TraceRecorder* recorder);

struct OpResult {
  proclus::Status status;
  proclus::ProjectedClustering model;  ///< fit output (empty for classify)
  std::vector<int> labels;
  proclus::RunStats stats;
  uint64_t rows_fetched = 0;  ///< source Fetch rows during the op
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

/// One op: a fit with `algo_seed`, or one classify call.
OpResult RunOp(const Workload& workload, const proclus::PointSource& source,
               uint64_t algo_seed);

// ------------------------------------------------------------------- misc

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> values);
/// Nearest-rank percentile, `p` in (0, 100].
double Percentile(std::vector<double> values, double p);
double CpuSeconds();
double PeakRssMiB();

}  // namespace perfbench

#endif  // PROCLUS_PERFBENCH_BENCH_H_
