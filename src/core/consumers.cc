#include "core/consumers.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <type_traits>

#include "common/check.h"
#include "distance/batch.h"
#include "distance/metric.h"
#include "gen/ground_truth.h"

namespace proclus {

namespace {

// Row-plan target of a variant row that Prepare copied from the memo.
constexpr size_t kFromMemo = static_cast<size_t>(-1);

// Full-space Manhattan segmental distance between two equal-length rows.
inline double FullSegmental(std::span<const double> a,
                            std::span<const double> b) {
  return ManhattanDistance(a, b) / static_cast<double>(a.size());
}

// Sums a consumer's per-block kernel scratches for kernel_stats().
ScanConsumer::KernelStats SumKernelStats(
    const std::vector<KernelScratch>& scratches) {
  ScanConsumer::KernelStats totals;
  for (const KernelScratch& scratch : scratches) totals.Accumulate(scratch);
  return totals;
}

// Materialized dimension lists (the hot loops iterate plain indices).
std::vector<std::vector<uint32_t>> DimLists(
    const std::vector<DimensionSet>& dims) {
  std::vector<std::vector<uint32_t>> lists(dims.size());
  for (size_t i = 0; i < dims.size(); ++i) {
    lists[i] = dims[i].ToVector();
    PROCLUS_CHECK(!lists[i].empty());
  }
  return lists;
}

// Zeroes `m` in place, reallocating only on shape change. A moved-from
// Matrix keeps its shape but loses its storage, so the storage size is
// checked too.
void ResetMatrix(Matrix* m, size_t rows, size_t cols) {
  if (m->rows() != rows || m->cols() != cols ||
      m->data().size() != rows * cols) {
    *m = Matrix(rows, cols);
  } else {
    std::fill(m->data().begin(), m->data().end(), 0.0);
  }
}

// Reduces per-block (sums, count) partials of rows x d in ascending block
// order, then divides every row with a non-zero count by that count: the
// block-ordered means every aggregate consumer merges.
void MergeMeans(const std::vector<BlockSums>& partials, size_t rows,
                size_t d, Matrix* means, std::vector<size_t>* counts) {
  ResetMatrix(means, rows, d);
  counts->assign(rows, 0);
  for (const BlockSums& partial : partials) {
    if (partial.sums.empty()) continue;
    for (size_t i = 0; i < rows; ++i) {
      for (size_t j = 0; j < d; ++j)
        (*means)(i, j) += partial.sums[i * d + j];
      (*counts)[i] += partial.count[i];
    }
  }
  for (size_t i = 0; i < rows; ++i) {
    if ((*counts)[i] == 0) continue;
    for (size_t j = 0; j < d; ++j)
      (*means)(i, j) /= static_cast<double>((*counts)[i]);
  }
}

// A cached bind names one distinct candidate slot per medoid row.
Status CheckSlots(std::span<const size_t> slots, size_t medoid_rows) {
  if (slots.size() != medoid_rows)
    return Status::InvalidArgument("one slot id per medoid row required");
  for (size_t i = 0; i < slots.size(); ++i)
    for (size_t j = i + 1; j < slots.size(); ++j)
      if (slots[i] == slots[j])
        return Status::InvalidArgument("duplicate slot in cached bind");
  return Status::OK();
}

}  // namespace

// ---------- MedoidDistanceCache ----------

// A consumer keeps raw pointers into the columns of its earlier claims
// while later claims grow `entries`; a nothrow move keeps every column
// buffer in place when the vector relocates.
static_assert(std::is_nothrow_move_constructible_v<MedoidDistanceCache::Entry>);

Status MedoidDistanceCache::BeginClaims(const ScanGeometry& geometry,
                                        size_t bound_rows) {
  // One tick per scan, and one cached consumer per scan: a second one
  // could evict an entry the first claimed or reads. Validity and rows
  // are only committed by Merge, so after a scan that fails the next one
  // (with a new number) simply looks everything up again.
  if (geometry.attempt == attempt)
    return Status::InvalidArgument(
        "a second cached consumer on one store in one scan");
  attempt = geometry.attempt;
  ++clock;
  capacity = std::max<size_t>(16, 2 * bound_rows + 4);
  column_rows = geometry.rows;
  return Status::OK();
}

MedoidDistanceCache::Claim MedoidDistanceCache::ClaimColumn(
    size_t slot, const DimensionSet& dims, bool normalized) {
  Entry* entry = nullptr;
  for (Entry& e : entries)
    if (e.slot == slot && e.normalized == normalized && e.dims == dims) {
      entry = &e;
      break;
    }
  const bool hit =
      entry != nullptr && entry->valid && entry->dist.size() == column_rows;
  if (!hit) {
    if (entry == nullptr) {
      if (entries.size() < capacity) {
        entry = &entries.emplace_back();
      } else {
        // Evict the least-recently-used entry not touched this attempt.
        for (Entry& e : entries)
          if (e.last_used != clock &&
              (entry == nullptr || e.last_used < entry->last_used))
            entry = &e;
        // invariant: capacity >= 2u + 4 for the u bound rows and each
        // bound row claims at most one entry per attempt, so at most u
        // entries carry the current tick and an evictable one exists.
        PROCLUS_CHECK(entry != nullptr);
      }
      entry->slot = slot;
      entry->dims = dims;
      entry->normalized = normalized;
    }
    entry->valid = false;
    entry->dist.resize(column_rows);
  }
  entry->last_used = clock;
  return {entry->dist.data(), static_cast<size_t>(entry - entries.data()),
          !hit};
}

void MedoidDistanceCache::CommitColumns(std::span<const size_t> fresh_entries) {
  for (size_t e : fresh_entries) entries[e].valid = true;
}

void MedoidDistanceCache::ScopeRows(const ScanGeometry& geometry) {
  const std::pair<size_t, size_t> scope{geometry.rows, geometry.block_rows};
  if (row_scope != scope) {
    rows.clear();
    row_scope = scope;
  }
}

const MedoidDistanceCache::Row* MedoidDistanceCache::FindRow(
    size_t slot, uint64_t delta_bits) {
  for (Row& row : rows)
    if (row.slot == slot && row.delta_bits == delta_bits) {
      if (row.last_used != clock) ++row_hits;
      row.last_used = clock;
      return &row;
    }
  return nullptr;
}

void MedoidDistanceCache::InsertRow(size_t slot, uint64_t delta_bits,
                                    std::span<const double> stats,
                                    size_t capacity) {
  Row* row = nullptr;
  if (rows.size() < capacity) {
    row = &rows.emplace_back();
  } else {
    // Hits of this scan were already copied out, so any row may go.
    row = &rows.front();
    for (Row& r : rows)
      if (r.last_used < row->last_used) row = &r;
  }
  row->slot = slot;
  row->delta_bits = delta_bits;
  row->last_used = clock;
  row->stats.assign(stats.begin(), stats.end());
}

// ---------- LocalityStatsConsumer ----------

Status LocalityStatsConsumer::Bind(
    const Matrix* medoids, std::vector<std::vector<size_t>> variant_rows) {
  if (medoids == nullptr || medoids->rows() == 0)
    return Status::InvalidArgument("no medoids");
  if (variant_rows.empty())
    return Status::InvalidArgument("no medoid-set variants");
  for (const std::vector<size_t>& rows : variant_rows) {
    if (rows.empty()) return Status::InvalidArgument("empty variant");
    for (size_t row : rows)
      if (row >= medoids->rows())
        return Status::InvalidArgument("variant row out of range");
  }
  medoids_ = medoids;
  variant_rows_ = std::move(variant_rows);
  cache_ = nullptr;
  slots_.clear();

  // delta_i = full-space segmental distance from variant medoid i to its
  // nearest other medoid of the same variant (infinity when k == 1).
  deltas_.resize(variant_rows_.size());
  for (size_t v = 0; v < variant_rows_.size(); ++v) {
    const std::vector<size_t>& map = variant_rows_[v];
    const size_t k = map.size();
    deltas_[v].assign(k, std::numeric_limits<double>::infinity());
    for (size_t i = 0; i < k; ++i) {
      for (size_t j = i + 1; j < k; ++j) {
        double dist =
            FullSegmental(medoids_->row(map[i]), medoids_->row(map[j]));
        if (dist < deltas_[v][i]) deltas_[v][i] = dist;
        if (dist < deltas_[v][j]) deltas_[v][j] = dist;
      }
    }
  }
  return Status::OK();
}

Status LocalityStatsConsumer::Bind(const Matrix* medoids) {
  if (medoids == nullptr || medoids->rows() == 0)
    return Status::InvalidArgument("no medoids");
  std::vector<size_t> all(medoids->rows());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  return Bind(medoids, {std::move(all)});
}

Status LocalityStatsConsumer::Bind(
    const Matrix* medoids, std::vector<std::vector<size_t>> variant_rows,
    std::span<const size_t> slots, MedoidDistanceCache* cache) {
  PROCLUS_RETURN_IF_ERROR(Bind(medoids, std::move(variant_rows)));
  if (cache == nullptr) return Status::OK();
  PROCLUS_RETURN_IF_ERROR(CheckSlots(slots, medoids_->rows()));
  cache_ = cache;
  slots_.assign(slots.begin(), slots.end());
  return Status::OK();
}

Status LocalityStatsConsumer::Prepare(const ScanGeometry& geometry) {
  if (medoids_ == nullptr) return Status::InvalidArgument("Bind not called");
  if (medoids_->cols() != geometry.dims)
    return Status::InvalidArgument("medoid dimensionality mismatch");
  const size_t d = geometry.dims;
  dims_ = d;
  rows_ = geometry.rows;
  const size_t u = medoids_->rows();
  const size_t num_variants = variant_rows_.size();
  partials_.resize(geometry.num_blocks);
  PrepareKernelScratch(scratch_, geometry.num_blocks);
  cols_.resize(geometry.num_blocks);
  stats_.resize(num_variants);
  targets_.resize(num_variants);

  if (cache_ != nullptr) {
    PROCLUS_RETURN_IF_ERROR(cache_->BeginClaims(geometry, u));
    cache_->ScopeRows(geometry);
    if (full_dims_.capacity() != d) full_dims_ = DimensionSet::All(d);
  }

  // Row plan: each variant row is served by an earlier acc row with the
  // same (union row, delta) key, by the memo, or by a new acc row.
  acc_medoid_.clear();
  acc_delta_.clear();
  for (size_t v = 0; v < num_variants; ++v) {
    const std::vector<size_t>& map = variant_rows_[v];
    ResetMatrix(&stats_[v], map.size(), d);
    targets_[v].assign(map.size(), kFromMemo);
    for (size_t i = 0; i < map.size(); ++i) {
      const size_t m = map[i];
      const double delta = deltas_[v][i];
      const uint64_t bits = std::bit_cast<uint64_t>(delta);
      size_t a = 0;
      while (a < acc_medoid_.size() &&
             (acc_medoid_[a] != m ||
              std::bit_cast<uint64_t>(acc_delta_[a]) != bits))
        ++a;
      if (a < acc_medoid_.size()) {
        targets_[v][i] = a;
        continue;
      }
      if (cache_ != nullptr) {
        if (const MedoidDistanceCache::Row* hit =
                cache_->FindRow(slots_[m], bits)) {
          PROCLUS_DCHECK(hit->stats.size() == d);
          std::copy(hit->stats.begin(), hit->stats.end(),
                    stats_[v].row(i).begin());
          continue;
        }
      }
      targets_[v][i] = acc_medoid_.size();
      acc_medoid_.push_back(m);
      acc_delta_.push_back(delta);
    }
  }
  if (cache_ != nullptr) cache_->row_misses += acc_medoid_.size();

  // Distance columns: only union rows with an acc row need one. Uncached
  // binds compute each of them into a scan-local column; cached binds
  // reuse committed columns and claim cache entries for the rest.
  fill_rows_.clear();
  fresh_entries_.clear();
  col_base_.assign(u, nullptr);
  if (cache_ == nullptr) {
    for (size_t m : acc_medoid_)
      if (std::find(fill_rows_.begin(), fill_rows_.end(), m) ==
          fill_rows_.end())
        fill_rows_.push_back(m);
    own_cols_.resize(fill_rows_.size() * geometry.rows);
    for (size_t f = 0; f < fill_rows_.size(); ++f)
      col_base_[fill_rows_[f]] = own_cols_.data() + f * geometry.rows;
  } else {
    for (size_t m : acc_medoid_) {
      if (col_base_[m] != nullptr) continue;  // Shared by an earlier row.
      const MedoidDistanceCache::Claim claim =
          cache_->ClaimColumn(slots_[m], full_dims_, /*normalized=*/true);
      if (claim.fresh) {
        ++cache_->misses;
        fill_rows_.push_back(m);
        fresh_entries_.push_back(claim.entry);
      } else {
        ++cache_->hits;
      }
      col_base_[m] = claim.column;
    }
  }
  ResetMatrix(&fill_medoids_, fill_rows_.size(), d);
  for (size_t f = 0; f < fill_rows_.size(); ++f) {
    auto src = medoids_->row(fill_rows_[f]);
    std::copy(src.begin(), src.end(), fill_medoids_.row(f).begin());
  }

  uint64_t pair_evals = 0;
  for (const std::vector<size_t>& map : variant_rows_)
    pair_evals += static_cast<uint64_t>(map.size()) * (map.size() - 1) / 2;
  distance_evals_ =
      static_cast<uint64_t>(geometry.rows) * fill_rows_.size() + pair_evals;
  return Status::OK();
}

void LocalityStatsConsumer::ConsumeBlock(size_t block_index, size_t first_row,
                                         std::span<const double> data,
                                         size_t rows) {
  const size_t d = dims_;
  const size_t num_acc = acc_medoid_.size();
  BlockSums& partial = partials_[block_index];
  partial.sums.assign(num_acc * d, 0.0);
  partial.count.assign(num_acc, 0);
  if (num_acc == 0) return;  // Every row came from the memo.
  // Distances to the needed medoids are computed once per point and
  // shared: one many-reference kernel scores them all against each
  // group of rows it reads. Dividing the Manhattan sum by d afterwards is
  // exactly FullSegmental's operation order, so every distance stays
  // bit-identical to the per-point scalar loop.
  //
  // Each fresh column is scattered straight into its full-length buffer
  // (a cache entry, or the scan-local column of an uncached bind) at this
  // block's row range; distinct blocks write disjoint ranges, so
  // concurrent fills are safe, and cached columns are reused verbatim —
  // bit-identical by construction.
  //
  // Ownership contract (consumers.h): this block may write only the row
  // range it owns inside each fresh column.
  //
  // The fill and the deviation walk run one row tile at a time
  // (LocalityTileRows): the walk re-reads the tile's rows once per 32
  // columns, from L2 rather than from memory, and the fill's read of the
  // tile brings them there. Each accumulator still adds its rows in
  // ascending order, tile after tile.
  PROCLUS_DCHECK(first_row + rows <= rows_);
  KernelScratch& scratch = scratch_[block_index];
  const size_t fill = fill_rows_.size();
  std::vector<const double*>& cols = cols_[block_index];
  scratch.outs.resize(fill);
  cols.resize(num_acc);
  const size_t tile_rows = LocalityTileRows(d);
  for (size_t t0 = 0; t0 < rows; t0 += tile_rows) {
    const size_t n = std::min(tile_rows, rows - t0);
    const std::span<const double> tile = data.subspan(t0 * d, n * d);
    const size_t row = first_row + t0;
    if (fill > 0) {
      for (size_t f = 0; f < fill; ++f)
        scratch.outs[f] = col_base_[fill_rows_[f]] + row;
      const std::span<double* const> outs(scratch.outs);
      ManhattanManyBatch(tile, n, d, fill_medoids_, scratch, outs);
      DivideColumnsBatch(outs, n, static_cast<double>(d));
    }
    for (size_t a = 0; a < num_acc; ++a)
      cols[a] = col_base_[acc_medoid_[a]] + row;
    LocalityAbsDeviationBatch(tile, n, d, *medoids_, acc_medoid_, cols,
                              acc_delta_, scratch, partial.sums.data(),
                              partial.count.data());
  }
}

ScanConsumer::KernelStats LocalityStatsConsumer::kernel_stats() const {
  return SumKernelStats(scratch_);
}

Status LocalityStatsConsumer::Merge() {
  const size_t num_acc = acc_medoid_.size();
  // Every medoid is a data point, so its own locality is non-empty as
  // long as the medoid coordinates came from this source.
  MergeMeans(partials_, num_acc, dims_, &acc_stats_, &acc_count_);
  size_t max_k = 0;
  for (size_t v = 0; v < variant_rows_.size(); ++v) {
    max_k = std::max(max_k, targets_[v].size());
    for (size_t i = 0; i < targets_[v].size(); ++i) {
      const size_t a = targets_[v][i];
      if (a == kFromMemo) continue;  // Copied by Prepare.
      auto src = acc_stats_.row(a);
      std::copy(src.begin(), src.end(), stats_[v].row(i).begin());
    }
  }
  if (cache_ == nullptr) return Status::OK();
  // Columns become reusable and rows enter the memo only once the whole
  // scan succeeded: Merge runs after every block, so each fresh column
  // and row is complete. A failed scan never reaches this point, leaves
  // valid == false and the memo untouched, and the next scan recomputes
  // both from scratch.
  cache_->CommitColumns(fresh_entries_);
  const size_t capacity = std::max<size_t>(64, 12 * max_k);
  for (size_t a = 0; a < num_acc; ++a)
    cache_->InsertRow(slots_[acc_medoid_[a]],
                      std::bit_cast<uint64_t>(acc_delta_[a]),
                      acc_stats_.row(a), capacity);
  return Status::OK();
}

// ---------- AssignConsumer ----------

Status AssignConsumer::Bind(const Matrix* medoids,
                            const std::vector<DimensionSet>* dims,
                            bool segmental_normalization,
                            bool accumulate_centroids,
                            const std::vector<double>* spheres) {
  if (medoids == nullptr || medoids->rows() == 0)
    return Status::InvalidArgument("no medoids");
  if (dims == nullptr || dims->size() != medoids->rows())
    return Status::InvalidArgument("dimension set count mismatch");
  if (spheres != nullptr && spheres->size() != medoids->rows())
    return Status::InvalidArgument("sphere count mismatch");
  medoids_ = medoids;
  dims_sets_ = dims;
  dim_lists_ = DimLists(*dims);
  spheres_ = spheres;
  segmental_ = segmental_normalization;
  accumulate_ = accumulate_centroids;
  merged_centroids_ = false;
  cache_ = nullptr;
  slots_.clear();
  return Status::OK();
}

Status AssignConsumer::Bind(const Matrix* medoids,
                            const std::vector<DimensionSet>* dims,
                            bool segmental_normalization,
                            bool accumulate_centroids,
                            std::span<const size_t> slots,
                            MedoidDistanceCache* cache) {
  PROCLUS_RETURN_IF_ERROR(Bind(medoids, dims, segmental_normalization,
                               accumulate_centroids));
  if (cache == nullptr) return Status::OK();
  PROCLUS_RETURN_IF_ERROR(CheckSlots(slots, medoids_->rows()));
  cache_ = cache;
  slots_.assign(slots.begin(), slots.end());
  return Status::OK();
}

Status AssignConsumer::Prepare(const ScanGeometry& geometry) {
  if (medoids_ == nullptr) return Status::InvalidArgument("Bind not called");
  if (medoids_->cols() != geometry.dims)
    return Status::InvalidArgument("medoid dimensionality mismatch");
  geometry_ = geometry;
  merged_centroids_ = false;
  const size_t k = medoids_->rows();
  labels_.resize(geometry.rows);
  if (accumulate_) partials_.resize(geometry.num_blocks);
  PrepareKernelScratch(scratch_, geometry.num_blocks);
  size_t scored = k;
  if (cache_ != nullptr) {
    // Look every medoid's column up; the scan scores only the misses.
    PROCLUS_RETURN_IF_ERROR(cache_->BeginClaims(geometry, k));
    col_base_.resize(k);
    fill_.clear();
    fresh_entries_.clear();
    for (size_t i = 0; i < k; ++i) {
      const MedoidDistanceCache::Claim claim =
          cache_->ClaimColumn(slots_[i], (*dims_sets_)[i], segmental_);
      if (claim.fresh) {
        ++cache_->assign_misses;
        fill_.push_back(i);
        fresh_entries_.push_back(claim.entry);
      } else {
        ++cache_->assign_hits;
      }
      col_base_[i] = claim.column;
    }
    cols_.resize(geometry.num_blocks);
    scored = fill_.size();
  }
  distance_evals_ = static_cast<uint64_t>(geometry.rows) * scored;
  return Status::OK();
}

void AssignConsumer::ConsumeBlock(size_t block_index, size_t first_row,
                                  std::span<const double> data,
                                  size_t rows) {
  const size_t d = geometry_.dims;
  const size_t k = medoids_->rows();
  KernelScratch& scratch = scratch_[block_index];
  int* labels = labels_.data() + first_row;
  if (cache_ == nullptr) {
    const std::span<const double> spheres =
        spheres_ == nullptr ? std::span<const double>() : *spheres_;
    SegmentalArgminBatch(data, rows, d, *medoids_, dim_lists_, segmental_,
                         spheres, scratch, labels);
    if (spheres_ != nullptr) {
      for (size_t r = 0; r < rows; ++r)
        if (scratch.inside[r] == 0) labels[r] = kOutlierLabel;
    }
  } else {
    // Ownership contract (consumers.h): this block writes only the row
    // range it owns inside each fresh column, then reads its range of
    // all k columns. The distances are SegmentalArgminBatch's own, so
    // the argmin over them picks the same labels.
    PROCLUS_DCHECK(first_row + rows <= labels_.size());
    if (!fill_.empty()) {
      scratch.outs.resize(fill_.size());
      for (size_t f = 0; f < fill_.size(); ++f)
        scratch.outs[f] = col_base_[fill_[f]] + first_row;
      SegmentalDistanceBatch(data, rows, d, *medoids_, fill_, dim_lists_,
                             segmental_, scratch, scratch.outs);
    }
    std::vector<const double*>& cols = cols_[block_index];
    cols.resize(k);
    for (size_t i = 0; i < k; ++i) cols[i] = col_base_[i] + first_row;
    ColumnArgminBatch(cols, rows, scratch, labels);
  }
  if (!accumulate_) return;
  // Figure 6 reads centroid i on D_i only: group the rows by label and
  // sum each cluster's own columns. DeviationConsumer reuses the groups.
  BlockSums& partial = partials_[block_index];
  partial.sums.assign(k * d, 0.0);
  partial.count.assign(k, 0);
  GroupRowsByLabel(labels, rows, k, scratch);
  RestrictedLabeledSumBatch(data, d, dim_lists_, scratch, partial.sums.data(),
                            partial.count.data());
}

ScanConsumer::KernelStats AssignConsumer::kernel_stats() const {
  return SumKernelStats(scratch_);
}

Status AssignConsumer::Merge() {
  // Every block filled its range of the fresh columns; see the commit
  // protocol in consumers.h.
  if (cache_ != nullptr) cache_->CommitColumns(fresh_entries_);
  if (!accumulate_) return Status::OK();
  MergeMeans(partials_, medoids_->rows(), geometry_.dims, &centroids_,
             &counts_);
  merged_centroids_ = true;
  return Status::OK();
}

// ---------- ClusterStatsConsumer ----------

Status ClusterStatsConsumer::Bind(const Matrix* medoids,
                                  const std::vector<int>* labels) {
  if (medoids == nullptr || medoids->rows() == 0)
    return Status::InvalidArgument("no medoids");
  if (labels == nullptr) return Status::InvalidArgument("no labels");
  medoids_ = medoids;
  labels_ = labels;
  return Status::OK();
}

Status ClusterStatsConsumer::Prepare(const ScanGeometry& geometry) {
  if (medoids_ == nullptr) return Status::InvalidArgument("Bind not called");
  if (labels_->size() != geometry.rows)
    return Status::InvalidArgument("label count mismatch");
  dims_ = geometry.dims;
  partials_.resize(geometry.num_blocks);
  PrepareKernelScratch(scratch_, geometry.num_blocks);
  return Status::OK();
}

void ClusterStatsConsumer::ConsumeBlock(size_t block_index, size_t first_row,
                                        std::span<const double> data,
                                        size_t rows) {
  const size_t d = dims_;
  const size_t k = medoids_->rows();
  BlockSums& partial = partials_[block_index];
  partial.sums.assign(k * d, 0.0);
  partial.count.assign(k, 0);
  LabeledAbsDeviationBatch(data, rows, d, labels_->data() + first_row,
                           *medoids_, scratch_[block_index],
                           partial.sums.data(), partial.count.data());
}

ScanConsumer::KernelStats ClusterStatsConsumer::kernel_stats() const {
  return SumKernelStats(scratch_);
}

Status ClusterStatsConsumer::Merge() {
  std::vector<size_t> count;
  MergeMeans(partials_, medoids_->rows(), dims_, &stats_, &count);
  return Status::OK();
}

// ---------- DeviationConsumer ----------

Status DeviationConsumer::Bind(const AssignConsumer& assign) {
  if (!assign.accumulate_)
    return Status::InvalidArgument(
        "the deviation scan needs an assignment that sums centroids");
  assign_ = &assign;
  return Status::OK();
}

Status DeviationConsumer::Prepare(const ScanGeometry& geometry) {
  if (assign_ == nullptr) return Status::InvalidArgument("Bind not called");
  // The assignment's centroids, sizes and label groups describe the rows
  // and blocks of its own last scan; any other scan would misread them.
  const ScanGeometry& assigned = assign_->geometry_;
  if (!assign_->merged_centroids_ || assigned.rows != geometry.rows ||
      assigned.dims != geometry.dims ||
      assigned.block_rows != geometry.block_rows ||
      assigned.num_blocks != geometry.num_blocks)
    return Status::InvalidArgument(
        "the deviation scan must cover the rows and blocks of a merged "
        "assignment scan");
  partials_.resize(geometry.num_blocks);
  PrepareKernelScratch(scratch_, geometry.num_blocks);
  return Status::OK();
}

// The assignment's label groups hold block-relative rows, so the block's
// first row is not needed.
void DeviationConsumer::ConsumeBlock(size_t block_index,
                                     size_t /*first_row*/,
                                     std::span<const double> data,
                                     size_t rows) {
  const size_t d = assign_->geometry_.dims;
  const Matrix& centroids = assign_->centroids_;
  BlockSums& partial = partials_[block_index];
  partial.sums.assign(centroids.rows() * d, 0.0);
  RestrictedLabeledAbsDeviationBatch(
      data, rows, d, centroids, assign_->dim_lists_,
      assign_->scratch_[block_index], scratch_[block_index],
      partial.sums.data());
}

ScanConsumer::KernelStats DeviationConsumer::kernel_stats() const {
  return SumKernelStats(scratch_);
}

Status DeviationConsumer::Merge() {
  const size_t d = assign_->geometry_.dims;
  const size_t k = assign_->centroids_.rows();
  ResetMatrix(&deviation_, k, d);
  for (const BlockSums& partial : partials_) {
    if (partial.sums.empty()) continue;
    for (size_t i = 0; i < k; ++i)
      for (size_t j = 0; j < d; ++j)
        deviation_(i, j) += partial.sums[i * d + j];
  }

  double weighted = 0.0;
  size_t clustered = 0;
  for (size_t i = 0; i < k; ++i) {
    const size_t count = assign_->counts_[i];
    if (count == 0) continue;
    const std::vector<uint32_t>& dim_list = assign_->dim_lists_[i];
    // invariant: FindDimensions allocates >= 2 dimensions per medoid.
    PROCLUS_CHECK(!dim_list.empty());
    double w = 0.0;
    for (uint32_t j : dim_list)
      w += deviation_(i, j) / static_cast<double>(count);
    w /= static_cast<double>(dim_list.size());
    weighted += w * static_cast<double>(count);
    clustered += count;
  }
  objective_ =
      clustered == 0 ? 0.0 : weighted / static_cast<double>(clustered);
  return Status::OK();
}

}  // namespace proclus
