// PROCLUS (Aggarwal, Procopiuc, Wolf, Yu, Park — SIGMOD 1999).
//
// A projected clustering algorithm: partitions N points in d dimensions
// into k clusters plus an outlier set, and associates with each cluster a
// subset of dimensions in which its points are correlated. Three phases
// (Figure 2 of the paper):
//
//  1. Initialization — a uniform random sample S of size A*k, reduced by
//     Gonzalez's farthest-first greedy to a candidate medoid set M of size
//     B*k that is likely to pierce every natural cluster while containing
//     few outliers.
//  2. Iterative — CLARANS-style hill climbing over k-subsets of M. For
//     each candidate medoid set: localities (points within the distance to
//     the nearest other medoid) determine per-dimension statistics, the
//     FindDimensions Z-score allocation picks k*l dimensions (>= 2 per
//     medoid), points are assigned by Manhattan segmental distance, and
//     the clustering is scored; the bad medoids (smallest cluster, and any
//     cluster below (N/k)*min_deviation points) of the best set are
//     replaced with random candidates until no improvement persists.
//  3. Refinement — dimensions are recomputed from the actual best clusters
//     (instead of localities), points are reassigned once more, and points
//     farther from every medoid than that medoid's sphere of influence
//     (min segmental distance to the other medoids, in its own dimensions)
//     are declared outliers.

#ifndef PROCLUS_CORE_PROCLUS_H_
#define PROCLUS_CORE_PROCLUS_H_

#include <chrono>
#include <cstdint>
#include <string>

#include "common/cancel.h"
#include "common/retry.h"
#include "common/status.h"
#include "core/model.h"
#include "data/dataset.h"
#include "data/point_source.h"

namespace proclus {

/// Checkpointing of the iterative phase. When `path` is non-empty, the
/// run resumes from a compatible checkpoint at that path if one exists
/// (a missing file starts fresh; a mismatched or damaged one is an error,
/// never silently ignored), and atomically rewrites the file (see
/// core/model_io.h) at the top of every `every_iterations`-th
/// hill-climbing iteration and when the run's CancelContext fires at the
/// top of an iteration. A resumed run is bit-identical to an
/// uninterrupted one: the checkpoint carries the full RNG state, so the
/// remaining iterations replay the exact random stream the interrupted
/// run would have drawn. A cancellation that lands mid-scan saves
/// nothing; the run resumes from the last periodic save.
struct CheckpointOptions {
  /// Checkpoint file path; empty disables checkpointing entirely.
  std::string path;
  /// Save period in hill-climbing iterations (per capture opportunity at
  /// the top of each iteration). Must be >= 1 when `path` is set.
  size_t every_iterations = 16;
};

/// Tunable parameters of PROCLUS. Defaults follow the paper where it gives
/// values (min_deviation = 0.1) and use conservative constants elsewhere.
struct ProclusParams {
  /// Number of clusters k (user parameter of the paper).
  size_t num_clusters = 5;
  /// Average number of dimensions per cluster l (user parameter). May be
  /// fractional as long as round(k*l) is achievable; must be >= 2.
  double avg_dims = 4.0;
  /// Initialization sample size factor A (sample has A*k points). The
  /// paper leaves A unspecified; 60 recovers the paper's Case 1/2 inputs
  /// reliably in our tuning sweep (see bench/ablation_init).
  size_t sample_factor = 60;
  /// Candidate medoid set size factor B (greedy keeps B*k points). Larger
  /// values admit more sampled outliers into the candidate set and hurt
  /// quality, so B stays a small multiple of k as the paper prescribes.
  size_t candidate_factor = 10;
  /// A cluster with fewer than (N/k) * min_deviation points marks its
  /// medoid as bad (paper default 0.1).
  double min_deviation = 0.1;
  /// Terminate the iterative phase after this many consecutive candidate
  /// sets without improvement.
  size_t max_no_improve = 40;
  /// Hard cap on hill-climbing iterations (per restart).
  size_t max_iterations = 500;
  /// Independent hill-climbing restarts from fresh random medoid sets;
  /// the restart with the best objective wins. PROCLUS inherits its local
  /// search from CLARANS, whose `numlocal` restarts are the standard
  /// escape from the local optima a single climb gets stuck in.
  size_t num_restarts = 4;
  /// Seed for all randomness in the run.
  uint64_t seed = 1;
  /// Worker threads for the data passes (ScanOptions::num_threads): every
  /// source's blocks are spread over the workers, and a source read from
  /// storage gets twice as many. Results are bit-identical for every value
  /// (block-ordered deterministic reduction).
  size_t num_threads = 1;
  /// Rows per scan block / disk read.
  size_t block_rows = 8192;

  // --- Ablation switches (all true reproduces the paper's algorithm). ---
  /// Run the refinement phase.
  bool refine = true;
  /// Detect outliers during refinement (if false, every point is assigned
  /// to its closest medoid).
  bool detect_outliers = true;
  /// Normalize restricted Manhattan distances by |D| during assignment.
  bool segmental_normalization = true;
  /// Use the two-step initialization (sample + greedy). If false, medoid
  /// candidates are a plain random sample of size B*k — the ablation
  /// showing why the greedy step matters.
  bool two_step_init = true;
  // --- Resilience (no effect on results, only on survival). ---
  /// Retry schedule for transient I/O failures (IOError/DataLoss): the
  /// executor re-issues a failed block read for that block alone, and
  /// FetchWithRetry re-issues a failed fetch. Results are bit-identical
  /// whether or not any retry happened; RunStats records retries /
  /// failed_scans / wasted_rows.
  RetryPolicy retry{};
  /// Periodic checkpoint/resume of the iterative phase.
  CheckpointOptions checkpoint{};
  /// Cooperative cancellation token and/or absolute deadline for the
  /// whole run (DESIGN.md §13). Checked at the top of every hill-climbing
  /// iteration and once per scan block, so Cancel() returns within one
  /// block's work; backoff sleeps are interruptible. Like retry, it can
  /// never change results — a run either completes with identical bits or
  /// returns kCancelled/kDeadlineExceeded (after a cancel-to-checkpoint
  /// save when a checkpoint path is set; see CheckpointOptions).
  /// Excluded from the checkpoint fingerprint: a run may be resumed under
  /// a different deadline.
  CancelContext cancel{};
  /// Soft deadline of one block read attempt, the executor's stall
  /// watchdog (0 = disabled): a read exceeding it is cancelled and hedged
  /// — re-issued for that block only — which masks stalled storage
  /// without changing bits (see ScanOptions::shard_soft_deadline).
  std::chrono::microseconds shard_soft_deadline{0};
  /// Hedged re-reads allowed per block read before the soft cap is
  /// dropped.
  size_t max_hedges_per_shard = 1;

  /// Validates the parameters against a dataset shape.
  Status Validate(size_t num_points, size_t dims) const;
};

/// Runs PROCLUS on `dataset`. Deterministic for a fixed seed.
Result<ProjectedClustering> RunProclus(const Dataset& dataset,
                                       const ProclusParams& params);

/// Runs PROCLUS over any PointSource — in particular a disk-resident
/// DiskSource whose data never fits in memory. Each phase performs the
/// sequential scans the paper's database setting calls for; random
/// access is limited to the A*k sampled points and the medoid
/// candidates. The hill climb fuses the paper's four passes per
/// iteration into two physical scans (plus one locality bootstrap per
/// restart) and the refinement into three (see RunStats and
/// bench/scan_engine.cc). Produces the same result as RunProclus for a
/// MemorySource over the same data.
Result<ProjectedClustering> RunProclusOnSource(const PointSource& source,
                                               const ProclusParams& params);

/// Checks the output invariants of a PROCLUS fit over `n` points with
/// `params`: the model shape (ValidateModelShape), k distinct medoids
/// each < n, >= 2 dimensions per medoid summing to round(k * l), n labels
/// in [-1, k), a finite objective, and the scan identity
/// stats.rows_visited == n * stats.scans_issued (every scan is a full
/// scan). InvalidArgument names the first violation. Every fit runs it
/// under PROCLUS_DCHECK.
Status ValidateClustering(const ProjectedClustering& model,
                          const ProclusParams& params, size_t n);

namespace internal {

/// Identifies the bad medoids of a clustering: the medoid of the smallest
/// cluster, plus every medoid whose cluster has fewer than
/// (N/k)*min_deviation points. Returns cluster indices. Exposed for
/// testing.
std::vector<size_t> FindBadMedoids(const std::vector<int>& labels, size_t k,
                                   double min_deviation);

}  // namespace internal
}  // namespace proclus

#endif  // PROCLUS_CORE_PROCLUS_H_
