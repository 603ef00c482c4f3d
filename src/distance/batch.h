// Batched distance kernels: score reference points against a contiguous
// block of rows at a time.
//
// The scalar kernels in distance/metric.h and distance/segmental.h reduce
// one point at a time: `sum += |a[d] - b[d]|` is a loop-carried dependency
// chain, so the compiler cannot vectorize it without reassociating the
// additions — which would change results bit-for-bit. The batch kernels
// follow the opposite design rule: *vectorize across points, not within a
// point*. Each point's additions still happen in ascending-dimension
// order — exactly the scalar loop's order — so every output is
// bit-identical to the scalar reference (property-tested in
// tests/distance_batch_test.cc). Two layouts put several points' values
// of one dimension side by side, and a third several dimensions of one
// accumulated row (DESIGN.md §9):
//
//   * ManhattanManyBatch, the full-width fold of the locality scan,
//     loads eight rows at a time and transposes them 8 x 8 in registers;
//     each reference keeps an 8-lane accumulator. Every row is read once
//     per call and nothing but the outputs is written.
//   * The selected-dimension and Lloyd kernels gather a reference's
//     `dims` columns of kKernelRowTile rows into a |dims| x
//     kKernelRowTile column tile (padded leading dimension, so the
//     column streams never alias the same cache sets), then accumulate
//     dimension by dimension over contiguous, dependency-free loops over
//     points. A tile of a few selected dimensions is small; a full-width
//     one (the Lloyd kernels) is d x 8 KiB and outgrows a 48 KiB L1d
//     from d = 6.
//   * The walk kernels add rows into accumulators rather than score
//     them: the per-cluster sums of Figure 6, the refinement's cluster
//     statistics and a medoid's locality sums of Figure 4. Each walks one
//     run of rows — a cluster's rows (GroupRowsByLabel), or the rows
//     within a medoid's radius — and carries up to four 8-lane register
//     accumulators, each holding eight dimensions of one accumulated
//     row, while the run's rows stream past in ascending order. Eight
//     contiguous columns are one load; a cluster's own list D_i is
//     gathered eight columns per row.
//
// Multi-reference kernels fold every reference over one read of the rows
// — a gathered sub-tile or a transposed row group — so a block's
// coordinates come from memory once per call instead of once per
// reference; that reuse is what `tile_hits` counts.
//
// Scratch discipline: kernels never allocate on the steady-state path.
// Callers own a KernelScratch per (consumer, block) — ConsumeBlock runs
// concurrently for distinct blocks, so scratch must be keyed exactly like
// the block partials.
//
// ISA dispatch: every kernel here is compiled for x86-64-v4, x86-64-v3
// and the baseline ISA, and the loader binds the widest clone the CPU
// supports (KernelIsa() names it; DESIGN.md §9). Contraction is off for
// the whole library, so each clone rounds exactly like the baseline one.

#ifndef PROCLUS_DISTANCE_BATCH_H_
#define PROCLUS_DISTANCE_BATCH_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/matrix.h"

namespace proclus {

/// Rows per gathered sub-tile, and the unit `tile_hits` counts in. A
/// tile of a segmental kernel's selected dimensions (|dims| x 8 KiB)
/// stays in L1 or L2 while several references fold over it. A
/// full-width tile is d x 8 KiB, 1.6 MB at d = 200 against a 48 KiB
/// L1d, so ManhattanManyBatch gathers none.
inline constexpr size_t kKernelRowTile = 1024;

/// Bytes of rows in one locality row tile (LocalityTileRows): small
/// enough that a tile's rows, read once by ManhattanManyBatch, are still
/// in L2 for the ceil(d / 32) passes of LocalityAbsDeviationBatch's walk.
inline constexpr size_t kLocalityTileBytes = 128 * 1024;

/// Rows per locality row tile at dimensionality d: kLocalityTileBytes of
/// rows, rounded down to a multiple of eight (ManhattanManyBatch's row
/// group), and at least eight. 816 rows at d = 20, 80 at d = 200.
constexpr size_t LocalityTileRows(size_t d) {
  const size_t rows = kLocalityTileBytes / (sizeof(double) * (d > 0 ? d : 1));
  return rows < 8 ? 8 : rows / 8 * 8;
}

/// Reusable buffers plus observability counters for the batch kernels.
/// One instance per (consumer, block); not thread-safe.
struct KernelScratch {
  /// Kernel invocations (one public kernel call on one block).
  uint64_t batches = 0;
  /// (row, reference) pairs scored, summed over invocations.
  uint64_t rows_scored = 0;
  /// Row reuses: per kKernelRowTile rows, each reference after the
  /// first that folds over rows already read (a gathered sub-tile, or
  /// ManhattanManyBatch's transposed row groups) instead of reading
  /// them again.
  uint64_t tile_hits = 0;

  void ResetCounters() {
    batches = 0;
    rows_scored = 0;
    tile_hits = 0;
  }

  // Buffers below are kernel-internal; callers may read `best`/`inside`
  // after an argmin kernel as documented on the kernel.
  std::vector<double> tile;    ///< |dims| x kKernelRowTile padded tile
                               ///< (the gathered-tile kernels only).
  std::vector<double> dist;    ///< Per-row distances (argmin kernels).
  std::vector<double> best;    ///< Per-row winning distance (argmin).
  std::vector<uint8_t> inside; ///< Per-row sphere flags (refine argmin).
  std::vector<double*> outs;   ///< Per-reference output pointers.
  /// Runs of rows the walk kernels add, block-relative and ascending.
  /// After GroupRowsByLabel, label i's rows are run_rows[run_start[i] ..
  /// run_start[i + 1]); the labeled kernels read them.
  /// LocalityAbsDeviationBatch keeps one medoid's member rows in run_rows
  /// and leaves run_start alone.
  std::vector<uint32_t> run_rows;
  std::vector<uint32_t> run_start;
};

/// Sizes `scratches` to one KernelScratch per block and readies each for
/// a new scan (counters zeroed — kernel_stats reports per-scan totals).
/// Buffer capacity is kept, so steady-state scans never reallocate.
inline void PrepareKernelScratch(std::vector<KernelScratch>& scratches,
                                 size_t num_blocks) {
  scratches.resize(num_blocks);
  for (KernelScratch& scratch : scratches) scratch.ResetCounters();
}

/// For each listed reference m = ref_rows[f]: outs[f][r] =
/// ManhattanSegmentalDistance(row r, refs.row(m), dim_lists[m]) when
/// `normalize`, RestrictedManhattanDistance otherwise; bit-identical to
/// the scalar loops in distance/segmental.h. `block` holds rows x
/// dims_total doubles row-major; every dim_lists[m] must be non-empty
/// with each index < dims_total == refs.cols(). Scatter output, so the
/// columns can be independently owned buffers (the cached assignment's
/// distance columns). Each reference gathers its own dimensions, but a
/// sub-tile's rows stay cache-resident across all of them, as in
/// SegmentalArgminBatch.
void SegmentalDistanceBatch(std::span<const double> block, size_t rows,
                            size_t dims_total, const Matrix& refs,
                            std::span<const size_t> ref_rows,
                            std::span<const std::vector<uint32_t>> dim_lists,
                            bool normalize, KernelScratch& scratch,
                            std::span<double* const> outs);

/// out[m * rows + r] = ManhattanDistance(row r, points.row(m)) for every
/// reference row m; bit-identical to the scalar kernel. Rows are read
/// eight at a time and transposed in registers, and up to four
/// references fold over each transposed group (the locality-statistics
/// path: u medoids against the same block). Uses no scratch.tile.
void ManhattanManyBatch(std::span<const double> block, size_t rows,
                        size_t dims_total, const Matrix& points,
                        KernelScratch& scratch, double* out);

/// Scatter-output variant: reference m's distances land at outs[m][0..rows)
/// instead of a contiguous u x rows panel. Lets a caller stream per-medoid
/// distance columns into independently-owned buffers (the locality
/// distance cache) without a copy; same loads, same bit-exact results.
void ManhattanManyBatch(std::span<const double> block, size_t rows,
                        size_t dims_total, const Matrix& points,
                        KernelScratch& scratch,
                        std::span<double* const> outs);

/// out[r] = SquaredEuclideanDistance(row r, point); bit-identical.
void SquaredEuclideanBatch(std::span<const double> block, size_t rows,
                           size_t dims_total, std::span<const double> point,
                           KernelScratch& scratch, double* out);

/// Nearest medoid per row under the per-medoid segmental distance on
/// `dim_lists[i]` (normalized or restricted, as in the assignment scan):
/// labels[r] gets the argmin index, ties to the lower medoid index via
/// the scalar loop's strict `<`. After the call scratch.best[r] holds the
/// winning distance; when `spheres` is non-empty (one radius per medoid),
/// scratch.inside[r] is 1 iff some medoid i has distance <= spheres[i]
/// (the refinement outlier test). Bit-identical to the scalar
/// assignment loops in core/consumers.cc for every batch split.
void SegmentalArgminBatch(std::span<const double> block, size_t rows,
                          size_t dims_total, const Matrix& medoids,
                          std::span<const std::vector<uint32_t>> dim_lists,
                          bool normalize, std::span<const double> spheres,
                          KernelScratch& scratch, int* labels);

/// Nearest column per row: labels[r] gets the i minimizing cols[i][r]
/// with SegmentalArgminBatch's exact rule — start at +infinity with label
/// 0, strict `<`, columns visited in ascending index order — so over
/// columns that SegmentalDistanceBatch scored it yields the same labels
/// and winning distances bit for bit. `cols[i]` points at the block's
/// first row. After the call scratch.best[r] holds the winning distance.
/// It scores no pairs, so it adds nothing to the scratch counters.
void ColumnArgminBatch(std::span<const double* const> cols, size_t rows,
                       KernelScratch& scratch, int* labels);

/// Nearest center per row by squared Euclidean distance over all
/// dimensions (the Lloyd assignment step): labels[r] gets the argmin,
/// scratch.best[r] the winning squared distance. Each gathered sub-tile
/// is shared by all centers.
void SquaredEuclideanArgminBatch(std::span<const double> block, size_t rows,
                                 size_t dims_total,
                                 std::span<const std::vector<double>> centers,
                                 KernelScratch& scratch, int* labels);

/// Locality deviations (the X statistics of Figure 4): for every
/// reference a and every row r with dists[a][r] <= radii[a], sums[a *
/// dims_total + j] += |row[j] - refs(ref_rows[a], j)| for all j, and
/// ++count[a]. `dists[a]` points at `block`'s first row; `sums` holds
/// ref_rows.size() x dims_total zeros-or-partials. Each reference lists
/// its member rows (a NaN distance is never inside) in scratch.run_rows
/// and walks them over all dims_total columns, 32 per pass. Each
/// accumulator adds its members in ascending order, as the scalar
/// per-point loop does, and |diff| is `diff < 0 ? -diff : diff`, so the
/// results are bit-identical, also over consecutive calls on consecutive
/// row ranges into the same sums: the locality scan calls it once per
/// row tile (LocalityTileRows), so every pass re-reads rows from L2. It
/// scores no pairs and adds nothing to the scratch counters.
void LocalityAbsDeviationBatch(std::span<const double> block, size_t rows,
                               size_t dims_total, const Matrix& refs,
                               std::span<const size_t> ref_rows,
                               std::span<const double* const> dists,
                               std::span<const double> radii,
                               KernelScratch& scratch, double* sums,
                               size_t* count);

/// cols[c][r] /= denom in place for every column c and row r < rows: the
/// full-space segmental normalization (Manhattan sum / d) of
/// ManhattanManyBatch's scatter output, one IEEE division per value as in
/// the scalar loop.
void DivideColumnsBatch(std::span<double* const> cols, size_t rows,
                        double denom);

/// Accumulates per-label coordinate sums over all dimensions (k-means'
/// Lloyd update): for every row r with labels[r] == i >= 0 (negative
/// labels — outliers — are skipped), sums[i * dims_total + j] += row[j]
/// for all j and ++count[i]. Every label must be < num_labels. Ascending
/// row order, so bit-identical to the scalar centroid loops. A per-row
/// loop, not a walk of label groups: it adds without a subtraction, and
/// at d <= 20 the grouping pass costs more than the walk saves
/// (DESIGN.md §9).
void LabeledSumBatch(std::span<const double> block, size_t rows,
                     size_t dims_total, const int* labels, size_t num_labels,
                     double* sums, size_t* count);

/// Accumulates per-label absolute deviations over all dimensions (the
/// refinement's cluster statistics, which FindDimensions reads in full):
/// for every row r with labels[r] == i >= 0 (negative labels — outliers —
/// are skipped), sums[i * dims_total + j] += |row[j] - refs(i, j)| for
/// all j, and count[i] is incremented when `count` is non-null. Groups
/// the rows by label in `scratch` (GroupRowsByLabel) and walks each
/// label's run, so each accumulator sees the same addition order as the
/// scalar cluster-stats loop — bit-identical results. `sums` must hold
/// refs.rows() x dims_total zeros-or-partials.
void LabeledAbsDeviationBatch(std::span<const double> block, size_t rows,
                              size_t dims_total, const int* labels,
                              const Matrix& refs, KernelScratch& scratch,
                              double* sums, size_t* count);

/// Groups a block's rows by label for the labeled kernels: afterwards
/// scratch.run_rows holds, for i = 0 .. num_labels - 1 in turn, the rows
/// r < rows with labels[r] == i in ascending order, and
/// scratch.run_start (num_labels + 1 entries) bounds each label's run.
/// Negative labels (outliers) are left out; every other label must be
/// < num_labels, and `rows` must fit in 32 bits.
void GroupRowsByLabel(const int* labels, size_t rows, size_t num_labels,
                      KernelScratch& scratch);

/// Per-label coordinate sums on each label's own dimensions (the
/// centroids of Figure 6, before the divide): for every label i and each
/// row r of its run in `groups` (GroupRowsByLabel over this block),
/// sums[i * dims_total + j] += row[j] for j in dim_lists[i] only, and
/// count[i] += the run's length. The entries off dim_lists[i] are not
/// touched. Each accumulator adds its rows in ascending order, so every
/// entry on dim_lists[i] is bit-identical to LabeledSumBatch's. An empty
/// list adds nothing but still counts its rows. dim_lists.size() must
/// equal the number of labels `groups` was built for.
void RestrictedLabeledSumBatch(
    std::span<const double> block, size_t dims_total,
    std::span<const std::vector<uint32_t>> dim_lists,
    const KernelScratch& groups, double* sums, size_t* count);

/// Per-label absolute deviations on each label's own dimensions (the
/// second scan of Figure 6): for every label i and each row r of its run
/// in `groups`, sums[i * dims_total + j] += |row[j] - refs(i, j)| for j
/// in dim_lists[i] only; the entries off dim_lists[i] are not touched.
/// Bit-identical on every listed entry to LabeledAbsDeviationBatch,
/// signed zeros and NaNs included: |diff| is `diff < 0 ? -diff : diff`.
/// `rows` is the block's row count; like LabeledAbsDeviationBatch the
/// call counts one batch and `rows` scored rows in `scratch`.
void RestrictedLabeledAbsDeviationBatch(
    std::span<const double> block, size_t rows, size_t dims_total,
    const Matrix& refs, std::span<const std::vector<uint32_t>> dim_lists,
    const KernelScratch& groups, KernelScratch& scratch, double* sums);

/// The kernel clone the loader bound on this CPU: "x86-64-v4",
/// "x86-64-v3" or "baseline". Always "baseline" in builds without clones
/// (ThreadSanitizer, non-GCC compilers, targets other than x86-64 ELF).
const char* KernelIsa();

}  // namespace proclus

#endif  // PROCLUS_DISTANCE_BATCH_H_
