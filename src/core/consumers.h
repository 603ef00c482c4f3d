// ScanConsumer implementations of the PROCLUS data passes.
//
// Each class computes one of the paper's aggregate or per-point passes
// (Figures 4-6 and the refinement) under the scan-executor contract
// (data/engine.h): per-block partials, block-ordered merge, bit-identical
// results for any thread count. The fit (core/proclus.cc) and
// ClassifyPoints (core/classify.cc) bind them and run them on a
// ScanExecutor directly. Because they are consumers, several of them can
// share one physical scan — the fused PROCLUS loop runs assignment +
// centroid accumulation in one scan and deviation evaluation +
// speculative locality statistics in another.
//
// Consumers are long-lived: construct once, Bind(...) the inputs of the
// next scan, hand to ScanExecutor::Run. Their block buffers persist
// across scans, so rebinding every iteration costs no allocations once
// the buffers reach steady-state capacity.
//
// Accumulation-order guarantee: every consumer adds values in ascending
// row order within a block, per cluster, and merges partials in
// ascending block order, so its outputs are bit-identical to the scalar
// transcription of the paper (tests/reference_proclus.cc) for identical
// inputs.
//
// Failure: the executor hands a consumer only whole, verified blocks, each
// exactly once per scan, and retries a failed read for its block alone, so
// a consumer never rolls anything back. A scan that fails or is cancelled
// runs no Merge, and every Prepare re-initializes the partials Merge
// reads, so the next scan starts clean.

#ifndef PROCLUS_CORE_CONSUMERS_H_
#define PROCLUS_CORE_CONSUMERS_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/dimension_set.h"
#include "common/matrix.h"
#include "data/engine.h"
#include "distance/batch.h"

namespace proclus {

// Per-block accumulator of k x d sums plus k counts, shared by the
// aggregate consumers.
struct BlockSums {
  std::vector<double> sums;   // k x d
  std::vector<size_t> count;  // k
};

/// Cross-scan store of per-point distance columns, plus a memo of
/// finished locality statistics rows. Hill climbing replaces only the bad
/// medoids between iterations (usually one of k), so most of the distance
/// work of one scan was already done by an earlier one. The store reuses
/// it three ways:
///  * locality rows: a finished row X(i, .) keyed by (slot, delta bits)
///    makes that medoid free in the next locality scan (delta only moves
///    when a medoid's nearest other medoid changes);
///  * locality columns: a medoid whose delta did change still finds its
///    full-space segmental distance column, keyed (slot, all d
///    dimensions, normalized);
///  * assignment columns: the cached AssignConsumer finds each medoid's
///    (slot, D_i, normalization) column and scores only the missing ones.
/// One column key serves both consumers: a full-dimensional normalized
/// assignment column is the locality column of the same slot (both
/// kernels add the same terms in the same order and divide by d). Values
/// are reused verbatim, so a cached run is bit-identical to an uncached
/// one. Owned by the caller (the fused climb's scratch) and valid only
/// while the candidate coordinates and the source it was filled from stay
/// fixed.
///
/// Scatter-fill/commit protocol (lock-free by ownership partitioning;
/// DESIGN.md §10): the structure itself — entries, rows, clock, the
/// counters, and each entry's key/valid/last_used — is touched ONLY by
/// the thread driving the scan, inside consumers' Prepare (BeginClaims,
/// ClaimColumn, FindRow) and Merge (CommitColumns, InsertRow), which the
/// executor runs strictly before and after the parallel region. During
/// the region, workers write only the *contents* of fresh columns, each
/// block scattering into its own disjoint row range [first_row,
/// first_row + rows); hit columns are read-only and the memo is not
/// touched at all. Columns turn valid and rows enter the memo on Merge
/// and nowhere else, so a scan that fails or is cancelled commits nothing
/// and the next scan recomputes — fault survival and resume keep
/// bit-identical results.
///
/// Eviction invariant: one cached consumer per scan
/// (ScanGeometry::attempt; a second is rejected with InvalidArgument),
/// the LRU clock ticks once per scan, and an entry carrying the
/// current tick is never evicted. The entry budget is max(16, 2u + 4)
/// for the consumer's u medoid rows and each row claims at most one
/// entry, so an evictable entry always exists and no claim evicts a
/// column the same scan claimed or reads.
struct MedoidDistanceCache {
  struct Entry {
    size_t slot = 0;
    DimensionSet dims;        ///< Dimensions the distance sums over.
    bool normalized = true;   ///< Sum divided by |dims|.
    /// Committed by a successful scan's Merge; entries claimed by a scan
    /// that failed or was abandoned simply stay invalid and are refilled.
    bool valid = false;
    uint64_t last_used = 0;
    std::vector<double> dist;  ///< One distance per source row.
  };
  /// One finished locality statistics row: the d averages X(i, .) of the
  /// medoid at `slot` over its locality of radius delta. Unlike a
  /// distance column, a row depends on how the scan splits rows into
  /// blocks (partials merge in block order), so the memo holds rows of
  /// one scan geometry only (row_scope below).
  struct Row {
    size_t slot = 0;
    uint64_t delta_bits = 0;  ///< Bit pattern of delta.
    uint64_t last_used = 0;
    std::vector<double> stats;  ///< d doubles.
  };
  /// A column handed out by ClaimColumn.
  struct Claim {
    double* column = nullptr;  ///< One distance per source row.
    size_t entry = 0;          ///< Index into `entries`.
    bool fresh = false;        ///< The claiming scan must fill it.
  };

  /// Opens a cached consumer's claims, from its Prepare: advances the
  /// clock and budgets max(16, 2 * bound_rows + 4) entries. Fails when a
  /// consumer already claimed in `geometry`'s scan attempt.
  Status BeginClaims(const ScanGeometry& geometry, size_t bound_rows);
  /// The column of (slot, dims, normalized) for the open attempt: a
  /// committed one (fresh == false; read-only during the scan), or a
  /// claimed entry the scan must fill (fresh == true), evicting the
  /// least-recently-used entry not touched by this attempt when the
  /// budget is spent. Call after BeginClaims, on the driving thread.
  Claim ClaimColumn(size_t slot, const DimensionSet& dims, bool normalized);
  /// Merge-time commit: the fresh entries of a completed scan turn valid.
  void CommitColumns(std::span<const size_t> fresh_entries);

  /// Empties the row memo unless it holds rows of `geometry`'s (rows,
  /// block_rows).
  void ScopeRows(const ScanGeometry& geometry);
  /// The memo row of (slot, delta_bits), or null. A hit is counted once
  /// per distinct key per scan attempt.
  const Row* FindRow(size_t slot, uint64_t delta_bits);
  /// Merge-time insert of a finished row, evicting the least-recently-used
  /// row once the memo holds `capacity` rows.
  void InsertRow(size_t slot, uint64_t delta_bits,
                 std::span<const double> stats, size_t capacity);

  std::vector<Entry> entries;  ///< Small; linear lookup by key.
  std::vector<Row> rows;       ///< Bounded LRU; linear lookup by key.
  /// (source rows, block_rows) of the scans that filled `rows`; a scan of
  /// any other geometry empties the memo first.
  std::pair<size_t, size_t> row_scope{0, 0};
  uint64_t clock = 0;  ///< Bumped per scan attempt; drives LRU eviction.
  uint64_t attempt = 0;     ///< ScanGeometry::attempt of the open claims.
  size_t capacity = 0;      ///< Entry budget of the open claims.
  size_t column_rows = 0;   ///< Column length of the open claims.
  uint64_t hits = 0;    ///< Locality column lookups served from `entries`.
  uint64_t misses = 0;  ///< Locality columns the scans computed.
  uint64_t assign_hits = 0;    ///< Assignment column lookups served.
  uint64_t assign_misses = 0;  ///< Assignment columns the scans scored.
  uint64_t row_hits = 0;  ///< Distinct (slot, delta) served from `rows`.
  uint64_t row_misses = 0;
};

/// Locality statistics (iterative phase): X(i, j) = average |p_j - m_ij|
/// over the points within delta_i of medoid i, where delta_i is the
/// full-space segmental distance from medoid i to its nearest other
/// medoid.
///
/// Supports VARIANTS: several candidate medoid sets evaluated in the same
/// scan, sharing the per-point distance computations to the union of
/// their medoids. A statistics row depends only on its medoid and its
/// delta, so a (medoid, delta) pair two variants share is accumulated
/// once; every row is accumulated and merged exactly as a separate scan
/// per variant would, so the results are bit-identical to one. This is
/// what lets the fused hill-climb compute the locality statistics of
/// both speculative next medoid sets inside the evaluation scan.
///
/// Each block is consumed one L2-sized row tile at a time
/// (distance/batch.h, LocalityTileRows): the tile's distance columns are
/// filled (ManhattanManyBatch), then every acc row walks its members in
/// the tile over all d columns in register accumulators
/// (LocalityAbsDeviationBatch), re-reading the rows from L2 once per 32
/// columns. Partials stay per block, and each adds its rows in ascending
/// order, tile after tile.
class LocalityStatsConsumer final : public ScanConsumer {
 public:
  /// Binds the union medoid coordinate matrix (u x d) and one row-index
  /// list per variant; variant v's medoid i is `medoids->row(rows[v][i])`.
  /// `medoids` must outlive the scan.
  Status Bind(const Matrix* medoids,
              std::vector<std::vector<size_t>> variant_rows);

  /// Single-variant convenience: the variant is all rows of `medoids`.
  Status Bind(const Matrix* medoids);

  /// Cached binding: `slots` names the candidate slot behind each medoid
  /// row (distinct, same length as `medoids` rows) and `cache` persists
  /// across scans. Locality rows the memo holds for (slot, delta) are
  /// copied, the scan accumulates only the rest, and their full-space
  /// distance columns are reused when cached; freshly computed columns
  /// and rows are committed back on Merge. `cache` must outlive the scan.
  Status Bind(const Matrix* medoids,
              std::vector<std::vector<size_t>> variant_rows,
              std::span<const size_t> slots, MedoidDistanceCache* cache);

  Status Prepare(const ScanGeometry& geometry) override;
  void ConsumeBlock(size_t block_index, size_t first_row,
                    std::span<const double> data, size_t rows) override;
  Status Merge() override;
  uint64_t distance_evals() const override { return distance_evals_; }
  KernelStats kernel_stats() const override;

  size_t num_variants() const { return variant_rows_.size(); }
  /// Statistics matrix (k_v x d) of variant `v`, valid after Merge.
  const Matrix& stats(size_t v = 0) const { return stats_[v]; }
  Matrix TakeStats(size_t v = 0) { return std::move(stats_[v]); }

 private:
  const Matrix* medoids_ = nullptr;
  std::vector<std::vector<size_t>> variant_rows_;
  std::vector<std::vector<double>> deltas_;         // [variant][cluster]
  // Row plan, rebuilt by every Prepare: the distinct (union row, delta)
  // pairs the scan must accumulate ("acc rows"), and where each variant
  // row comes from — an acc row, or kFromMemo when Prepare already copied
  // it out of the cache's row memo.
  std::vector<size_t> acc_medoid_;             // [acc row] union row
  std::vector<double> acc_delta_;              // [acc row] radius
  std::vector<std::vector<size_t>> targets_;   // [variant][cluster]
  std::vector<BlockSums> partials_;            // [block], acc rows x d
  std::vector<KernelScratch> scratch_;         // [block]
  std::vector<std::vector<const double*>> cols_;  // [block][acc row]
  Matrix acc_stats_;                           // acc rows x d, Merge
  std::vector<size_t> acc_count_;              // [acc row], Merge
  std::vector<Matrix> stats_;                  // [variant]
  // Distance columns: full-length column per union row (null when no acc
  // row needs it), and the union rows whose column this scan computes.
  std::vector<double*> col_base_;
  std::vector<size_t> fill_rows_;
  Matrix fill_medoids_;         // fill rows' coordinates, packed
  std::vector<double> own_cols_;  // uncached binds' columns, fill x n
  // Cached-binding state (empty/null for uncached binds).
  MedoidDistanceCache* cache_ = nullptr;
  std::vector<size_t> slots_;          // candidate slot per medoid row
  std::vector<size_t> fresh_entries_;  // cache entry per fill row
  DimensionSet full_dims_;             // the locality columns' key
  size_t dims_ = 0;
  size_t rows_ = 0;  // source rows (= cached column length) this scan
  uint64_t distance_evals_ = 0;
};

/// Assignment (Figure 5): each point goes to the medoid minimizing the
/// Manhattan segmental distance on that medoid's dimensions, ties to the
/// lower index. Optionally fuses the per-cluster centroid accumulation
/// (the first of Figure 6's two scans) into the same pass. Figure 6 reads
/// cluster i's centroid on D_i only, so only those coordinates are
/// summed: each block groups its rows by label and adds every row into
/// its own cluster's D_i columns (distance/batch.h,
/// RestrictedLabeledSumBatch). A DeviationConsumer bound to this
/// consumer reuses those groups.
class AssignConsumer final : public ScanConsumer {
 public:
  /// `medoids` (k x d) and `dims` (k sets) must outlive the scan. With
  /// `spheres` (one per medoid, outliving the scan), a point farther from
  /// every medoid than that medoid's sphere of influence is labeled
  /// kOutlierLabel and the centroids skip it: the refinement's outlier
  /// detection. Null detects no outliers.
  Status Bind(const Matrix* medoids, const std::vector<DimensionSet>* dims,
              bool segmental_normalization, bool accumulate_centroids,
              const std::vector<double>* spheres = nullptr);

  /// Cached binding: `slots` names the candidate slot behind each medoid
  /// row (distinct, same length as `medoids` rows) and `cache` persists
  /// across scans. Each medoid's (slot, dims, normalization) distance
  /// column is read back when the cache holds it; the scan scores only
  /// the missing columns, labels every row by the argmin over the k
  /// columns, and commits the new columns on Merge. Labels are
  /// bit-identical to the uncached bind. `cache` must outlive the scan.
  Status Bind(const Matrix* medoids, const std::vector<DimensionSet>* dims,
              bool segmental_normalization, bool accumulate_centroids,
              std::span<const size_t> slots, MedoidDistanceCache* cache);

  Status Prepare(const ScanGeometry& geometry) override;
  void ConsumeBlock(size_t block_index, size_t first_row,
                    std::span<const double> data, size_t rows) override;
  Status Merge() override;
  uint64_t distance_evals() const override { return distance_evals_; }
  KernelStats kernel_stats() const override;

  /// Per-point labels in [0, k), valid after Merge. The reference stays
  /// stable across scans (the vector is a long-lived member), so it can
  /// be bound into a follow-up consumer.
  const std::vector<int>& labels() const { return labels_; }
  /// Moves the labels out (one-shot use; surrenders buffer reuse).
  std::vector<int> TakeLabels() { return std::move(labels_); }
  /// Cluster centroids (k x d) and sizes; valid after Merge when bound
  /// with accumulate_centroids = true. Row i holds the centroid on D_i,
  /// the bound dimensions of medoid i; its entries off D_i are 0.
  const Matrix& centroids() const { return centroids_; }
  const std::vector<size_t>& cluster_sizes() const { return counts_; }

 private:
  // DeviationConsumer reads the centroids' dimension lists and each
  // block's label groups (scratch_[block]) of the last merged scan.
  friend class DeviationConsumer;

  const Matrix* medoids_ = nullptr;
  const std::vector<DimensionSet>* dims_sets_ = nullptr;
  std::vector<std::vector<uint32_t>> dim_lists_;
  const std::vector<double>* spheres_ = nullptr;  // null unless detecting
  bool segmental_ = true;
  bool accumulate_ = false;
  std::vector<int> labels_;
  std::vector<BlockSums> partials_;
  std::vector<KernelScratch> scratch_;  // [block]
  Matrix centroids_;
  std::vector<size_t> counts_;
  uint64_t distance_evals_ = 0;
  // The geometry of the last scan, and whether it merged with centroids.
  ScanGeometry geometry_;
  bool merged_centroids_ = false;
  // Cached-binding state (empty/null for uncached binds): the column of
  // each medoid, the medoids whose column this scan scores and their
  // cache entries, and each block's column pointers at its first row.
  MedoidDistanceCache* cache_ = nullptr;
  std::vector<size_t> slots_;
  std::vector<double*> col_base_;
  std::vector<size_t> fill_;
  std::vector<size_t> fresh_entries_;
  std::vector<std::vector<const double*>> cols_;  // [block][medoid]
};

/// Cluster statistics (refinement phase): X(i, j) = average |p_j - m_ij|
/// over the points labeled i (outliers skipped; empty clusters keep
/// all-zero rows).
class ClusterStatsConsumer final : public ScanConsumer {
 public:
  /// `labels` holds one label per source row; both pointers must outlive
  /// the scan.
  Status Bind(const Matrix* medoids, const std::vector<int>* labels);

  Status Prepare(const ScanGeometry& geometry) override;
  void ConsumeBlock(size_t block_index, size_t first_row,
                    std::span<const double> data, size_t rows) override;
  Status Merge() override;
  KernelStats kernel_stats() const override;

  const Matrix& stats() const { return stats_; }
  Matrix TakeStats() { return std::move(stats_); }

 private:
  const Matrix* medoids_ = nullptr;
  const std::vector<int>* labels_ = nullptr;
  std::vector<BlockSums> partials_;
  std::vector<KernelScratch> scratch_;  // [block]
  Matrix stats_;
  size_t dims_ = 0;
};

/// Deviation evaluation (the second scan of Figure 6): accumulates
/// per-dimension absolute deviations from the assignment's centroids and
/// reduces them to the paper's objective — the size-weighted average,
/// over non-empty clusters, of the mean per-dimension deviation on the
/// cluster's dimensions. Only those dimensions are accumulated: cluster
/// i adds |x_j - c_ij| for j in D_i alone, walking the rows the
/// assignment grouped by label (RestrictedLabeledAbsDeviationBatch).
class DeviationConsumer final : public ScanConsumer {
 public:
  /// Binds the outputs of `assign`, which must be bound with
  /// accumulate_centroids: its centroids, cluster sizes and dimension
  /// lists, and each block's rows grouped by label. The deviations are
  /// thus summed on exactly the dimensions the centroids were. Prepare
  /// fails unless `assign`'s last scan merged over the same rows,
  /// dimensions and blocks. `assign` must outlive the scan.
  Status Bind(const AssignConsumer& assign);

  Status Prepare(const ScanGeometry& geometry) override;
  void ConsumeBlock(size_t block_index, size_t first_row,
                    std::span<const double> data, size_t rows) override;
  Status Merge() override;
  KernelStats kernel_stats() const override;

  /// The objective value, valid after Merge.
  double objective() const { return objective_; }

 private:
  const AssignConsumer* assign_ = nullptr;
  std::vector<BlockSums> partials_;  // count unused
  std::vector<KernelScratch> scratch_;  // [block]
  Matrix deviation_;
  double objective_ = 0.0;
};

}  // namespace proclus

#endif  // PROCLUS_CORE_CONSUMERS_H_
