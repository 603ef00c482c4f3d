#include "core/consumers.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/check.h"
#include "distance/batch.h"
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

}  // namespace

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
  if (slots.size() != medoids_->rows())
    return Status::InvalidArgument("one slot id per medoid row required");
  for (size_t i = 0; i < slots.size(); ++i)
    for (size_t j = i + 1; j < slots.size(); ++j)
      if (slots[i] == slots[j])
        return Status::InvalidArgument("duplicate slot in cached bind");
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
    // One clock tick per scan attempt. Entries and rows touched during
    // this attempt carry the current tick; validity and new rows are only
    // committed by Merge, so an attempt that fails and retries simply
    // looks everything up again.
    ++cache_->clock;
    const std::pair<size_t, size_t> scope{geometry.rows, geometry.block_rows};
    if (cache_->row_scope != scope) {
      cache_->rows.clear();
      cache_->row_scope = scope;
    }
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
        MedoidDistanceCache::Row* hit = nullptr;
        for (MedoidDistanceCache::Row& row : cache_->rows)
          if (row.slot == slots_[m] && row.delta_bits == bits) {
            hit = &row;
            break;
          }
        if (hit != nullptr) {
          PROCLUS_DCHECK(hit->stats.size() == d);
          // Counted once per distinct key per scan attempt.
          if (hit->last_used != cache_->clock) ++cache_->row_hits;
          hit->last_used = cache_->clock;
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
    // Reserve before taking any pointers: push_back must never relocate
    // entries mid-Prepare, and the eviction cap must always leave an
    // unprotected entry to reuse.
    const size_t capacity = std::max<size_t>(16, 2 * u + 4);
    cache_->entries.reserve(std::max(capacity, cache_->entries.size() + u));
    for (size_t m : acc_medoid_) {
      if (col_base_[m] != nullptr) continue;  // Shared by an earlier row.
      MedoidDistanceCache::Entry* entry = nullptr;
      for (MedoidDistanceCache::Entry& e : cache_->entries)
        if (e.slot == slots_[m]) {
          entry = &e;
          break;
        }
      const bool hit = entry != nullptr && entry->valid &&
                       entry->dist.size() == geometry.rows;
      if (hit) {
        ++cache_->hits;
      } else {
        ++cache_->misses;
        if (entry == nullptr) {
          if (cache_->entries.size() < capacity) {
            entry = &cache_->entries.emplace_back();
          } else {
            // Evict the least-recently-used entry not touched this scan.
            for (MedoidDistanceCache::Entry& e : cache_->entries)
              if (e.last_used != cache_->clock &&
                  (entry == nullptr || e.last_used < entry->last_used))
                entry = &e;
            // invariant: capacity >= 2u + 4 and at most u entries carry
            // the current tick, so an evictable entry always exists.
            PROCLUS_CHECK(entry != nullptr);
          }
        }
        entry->slot = slots_[m];
        entry->valid = false;
        entry->dist.resize(geometry.rows);
        fill_rows_.push_back(m);
        fresh_entries_.push_back(
            static_cast<size_t>(entry - cache_->entries.data()));
      }
      entry->last_used = cache_->clock;
      col_base_[m] = entry->dist.data();
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
  // gathered sub-tile. Dividing the Manhattan sum by d afterwards is
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
  PROCLUS_DCHECK(first_row + rows <= rows_);
  KernelScratch& scratch = scratch_[block_index];
  const size_t fill = fill_rows_.size();
  if (fill > 0) {
    scratch.outs.resize(fill);
    for (size_t f = 0; f < fill; ++f)
      scratch.outs[f] = col_base_[fill_rows_[f]] + first_row;
    const std::span<double* const> outs(scratch.outs);
    ManhattanManyBatch(data, rows, d, fill_medoids_, scratch, outs);
    DivideColumnsBatch(outs, rows, static_cast<double>(d));
  }
  std::vector<const double*>& cols = cols_[block_index];
  cols.resize(num_acc);
  for (size_t a = 0; a < num_acc; ++a)
    cols[a] = col_base_[acc_medoid_[a]] + first_row;
  LocalityAbsDeviationBatch(data, rows, d, *medoids_, acc_medoid_, cols,
                            acc_delta_, partial.sums.data(),
                            partial.count.data());
}

ScanConsumer::KernelStats LocalityStatsConsumer::kernel_stats() const {
  return SumKernelStats(scratch_);
}

Status LocalityStatsConsumer::Merge() {
  const size_t d = dims_;
  const size_t num_acc = acc_medoid_.size();
  ResetMatrix(&acc_stats_, num_acc, d);
  acc_count_.assign(num_acc, 0);
  for (const BlockSums& partial : partials_) {
    if (partial.sums.empty()) continue;
    for (size_t a = 0; a < num_acc; ++a) {
      for (size_t j = 0; j < d; ++j)
        acc_stats_(a, j) += partial.sums[a * d + j];
      acc_count_[a] += partial.count[a];
    }
  }
  for (size_t a = 0; a < num_acc; ++a) {
    // Every medoid is a data point, so its own locality is non-empty as
    // long as the medoid coordinates came from this source.
    if (acc_count_[a] == 0) continue;
    for (size_t j = 0; j < d; ++j)
      acc_stats_(a, j) /= static_cast<double>(acc_count_[a]);
  }
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
  // and row is complete. A failed attempt never reaches this point,
  // leaves valid == false and the memo untouched, and the retry
  // recomputes both from scratch.
  for (size_t e : fresh_entries_) cache_->entries[e].valid = true;
  const size_t capacity = std::max<size_t>(64, 12 * max_k);
  for (size_t a = 0; a < num_acc; ++a) {
    MedoidDistanceCache::Row* row = nullptr;
    if (cache_->rows.size() < capacity) {
      row = &cache_->rows.emplace_back();
    } else {
      // Evict the least-recently-used row; hits of this scan were
      // already copied out, so any row may go.
      row = &cache_->rows.front();
      for (MedoidDistanceCache::Row& r : cache_->rows)
        if (r.last_used < row->last_used) row = &r;
    }
    row->slot = slots_[acc_medoid_[a]];
    row->delta_bits = std::bit_cast<uint64_t>(acc_delta_[a]);
    row->last_used = cache_->clock;
    auto src = acc_stats_.row(a);
    row->stats.assign(src.begin(), src.end());
  }
  return Status::OK();
}

// ---------- AssignConsumer ----------

Status AssignConsumer::Bind(const Matrix* medoids,
                            const std::vector<DimensionSet>* dims,
                            bool segmental_normalization,
                            bool accumulate_centroids) {
  if (medoids == nullptr || medoids->rows() == 0)
    return Status::InvalidArgument("no medoids");
  if (dims == nullptr || dims->size() != medoids->rows())
    return Status::InvalidArgument("dimension set count mismatch");
  medoids_ = medoids;
  dims_sets_ = dims;
  dim_lists_ = DimLists(*dims);
  segmental_ = segmental_normalization;
  accumulate_ = accumulate_centroids;
  return Status::OK();
}

Status AssignConsumer::Prepare(const ScanGeometry& geometry) {
  if (medoids_ == nullptr) return Status::InvalidArgument("Bind not called");
  if (medoids_->cols() != geometry.dims)
    return Status::InvalidArgument("medoid dimensionality mismatch");
  dims_ = geometry.dims;
  labels_.resize(geometry.rows);
  if (accumulate_) partials_.resize(geometry.num_blocks);
  PrepareKernelScratch(scratch_, geometry.num_blocks);
  distance_evals_ =
      static_cast<uint64_t>(geometry.rows) * medoids_->rows();
  return Status::OK();
}

void AssignConsumer::ConsumeBlock(size_t block_index, size_t first_row,
                                  std::span<const double> data,
                                  size_t rows) {
  const size_t d = dims_;
  const size_t k = medoids_->rows();
  SegmentalArgminBatch(data, rows, d, *medoids_, dim_lists_, segmental_,
                       /*spheres=*/{}, scratch_[block_index],
                       labels_.data() + first_row);
  if (!accumulate_) return;
  BlockSums& partial = partials_[block_index];
  partial.sums.assign(k * d, 0.0);
  partial.count.assign(k, 0);
  LabeledSumBatch(data, rows, d, labels_.data() + first_row, k,
                  partial.sums.data(), partial.count.data());
}

ScanConsumer::KernelStats AssignConsumer::kernel_stats() const {
  return SumKernelStats(scratch_);
}

Status AssignConsumer::Merge() {
  if (!accumulate_) return Status::OK();
  const size_t d = dims_;
  const size_t k = medoids_->rows();
  ResetMatrix(&centroids_, k, d);
  counts_.assign(k, 0);
  for (const BlockSums& partial : partials_) {
    if (partial.sums.empty()) continue;
    for (size_t i = 0; i < k; ++i) {
      for (size_t j = 0; j < d; ++j)
        centroids_(i, j) += partial.sums[i * d + j];
      counts_[i] += partial.count[i];
    }
  }
  for (size_t i = 0; i < k; ++i) {
    if (counts_[i] == 0) continue;
    for (size_t j = 0; j < d; ++j)
      centroids_(i, j) /= static_cast<double>(counts_[i]);
  }
  return Status::OK();
}

// ---------- RefineAssignConsumer ----------

Status RefineAssignConsumer::Bind(const Matrix* medoids,
                                  const std::vector<DimensionSet>* dims,
                                  const std::vector<double>* spheres,
                                  bool segmental_normalization,
                                  bool detect_outliers,
                                  bool accumulate_centroids) {
  if (medoids == nullptr || medoids->rows() == 0)
    return Status::InvalidArgument("no medoids");
  if (dims == nullptr || spheres == nullptr ||
      dims->size() != medoids->rows() ||
      spheres->size() != medoids->rows())
    return Status::InvalidArgument("per-medoid input count mismatch");
  medoids_ = medoids;
  dims_sets_ = dims;
  spheres_ = spheres;
  dim_lists_ = DimLists(*dims);
  segmental_ = segmental_normalization;
  detect_outliers_ = detect_outliers;
  accumulate_ = accumulate_centroids;
  return Status::OK();
}

Status RefineAssignConsumer::Prepare(const ScanGeometry& geometry) {
  if (medoids_ == nullptr) return Status::InvalidArgument("Bind not called");
  if (medoids_->cols() != geometry.dims)
    return Status::InvalidArgument("medoid dimensionality mismatch");
  dims_ = geometry.dims;
  labels_.resize(geometry.rows);
  if (accumulate_) partials_.resize(geometry.num_blocks);
  PrepareKernelScratch(scratch_, geometry.num_blocks);
  distance_evals_ =
      static_cast<uint64_t>(geometry.rows) * medoids_->rows();
  return Status::OK();
}

void RefineAssignConsumer::ConsumeBlock(size_t block_index, size_t first_row,
                                        std::span<const double> data,
                                        size_t rows) {
  const size_t d = dims_;
  const size_t k = medoids_->rows();
  KernelScratch& scratch = scratch_[block_index];
  int* labels = labels_.data() + first_row;
  SegmentalArgminBatch(data, rows, d, *medoids_, dim_lists_, segmental_,
                       *spheres_, scratch, labels);
  if (detect_outliers_) {
    for (size_t r = 0; r < rows; ++r)
      if (scratch.inside[r] == 0) labels[r] = kOutlierLabel;
  }
  if (!accumulate_) return;
  BlockSums& partial = partials_[block_index];
  partial.sums.assign(k * d, 0.0);
  partial.count.assign(k, 0);
  LabeledSumBatch(data, rows, d, labels, k, partial.sums.data(),
                  partial.count.data());
}

ScanConsumer::KernelStats RefineAssignConsumer::kernel_stats() const {
  return SumKernelStats(scratch_);
}

Status RefineAssignConsumer::Merge() {
  if (!accumulate_) return Status::OK();
  const size_t d = dims_;
  const size_t k = medoids_->rows();
  ResetMatrix(&centroids_, k, d);
  counts_.assign(k, 0);
  for (const BlockSums& partial : partials_) {
    if (partial.sums.empty()) continue;
    for (size_t i = 0; i < k; ++i) {
      for (size_t j = 0; j < d; ++j)
        centroids_(i, j) += partial.sums[i * d + j];
      counts_[i] += partial.count[i];
    }
  }
  for (size_t i = 0; i < k; ++i) {
    if (counts_[i] == 0) continue;
    for (size_t j = 0; j < d; ++j)
      centroids_(i, j) /= static_cast<double>(counts_[i]);
  }
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
  const size_t d = dims_;
  const size_t k = medoids_->rows();
  ResetMatrix(&stats_, k, d);
  std::vector<size_t> count(k, 0);
  for (const BlockSums& partial : partials_) {
    if (partial.sums.empty()) continue;
    for (size_t i = 0; i < k; ++i) {
      for (size_t j = 0; j < d; ++j)
        stats_(i, j) += partial.sums[i * d + j];
      count[i] += partial.count[i];
    }
  }
  for (size_t i = 0; i < k; ++i) {
    if (count[i] == 0) continue;
    for (size_t j = 0; j < d; ++j)
      stats_(i, j) /= static_cast<double>(count[i]);
  }
  return Status::OK();
}

// ---------- CentroidConsumer ----------

Status CentroidConsumer::Bind(const std::vector<int>* labels,
                              size_t num_clusters) {
  if (labels == nullptr) return Status::InvalidArgument("no labels");
  labels_ = labels;
  num_clusters_ = num_clusters;
  return Status::OK();
}

Status CentroidConsumer::Prepare(const ScanGeometry& geometry) {
  if (labels_ == nullptr) return Status::InvalidArgument("Bind not called");
  if (labels_->size() != geometry.rows)
    return Status::InvalidArgument("label count mismatch");
  dims_ = geometry.dims;
  partials_.resize(geometry.num_blocks);
  return Status::OK();
}

void CentroidConsumer::ConsumeBlock(size_t block_index, size_t first_row,
                                    std::span<const double> data,
                                    size_t rows) {
  const size_t d = dims_;
  const size_t k = num_clusters_;
  BlockSums& partial = partials_[block_index];
  partial.sums.assign(k * d, 0.0);
  partial.count.assign(k, 0);
  LabeledSumBatch(data, rows, d, labels_->data() + first_row, k,
                  partial.sums.data(), partial.count.data());
}

Status CentroidConsumer::Merge() {
  const size_t d = dims_;
  const size_t k = num_clusters_;
  ResetMatrix(&centroids_, k, d);
  counts_.assign(k, 0);
  for (const BlockSums& partial : partials_) {
    if (partial.sums.empty()) continue;
    for (size_t i = 0; i < k; ++i) {
      for (size_t j = 0; j < d; ++j)
        centroids_(i, j) += partial.sums[i * d + j];
      counts_[i] += partial.count[i];
    }
  }
  for (size_t i = 0; i < k; ++i) {
    if (counts_[i] == 0) continue;
    for (size_t j = 0; j < d; ++j)
      centroids_(i, j) /= static_cast<double>(counts_[i]);
  }
  return Status::OK();
}

// ---------- DeviationConsumer ----------

Status DeviationConsumer::Bind(const std::vector<int>* labels,
                               const Matrix* centroids,
                               const std::vector<size_t>* cluster_sizes,
                               const std::vector<DimensionSet>* dims) {
  if (labels == nullptr || centroids == nullptr || cluster_sizes == nullptr ||
      dims == nullptr)
    return Status::InvalidArgument("null deviation input");
  if (dims->size() != centroids->rows() ||
      cluster_sizes->size() != centroids->rows())
    return Status::InvalidArgument("per-cluster input count mismatch");
  labels_ = labels;
  centroids_ = centroids;
  counts_ = cluster_sizes;
  dims_sets_ = dims;
  // Materialize the per-cluster dimension lists once per Bind; the paper's
  // objective only reads them in Merge, but re-extracting a bitset per
  // cluster per scan is the exact allocation pattern tools/lint.py bans.
  // Empty sets are tolerated here — Merge only requires non-empty lists
  // for clusters that received points.
  dim_lists_.resize(dims->size());
  for (size_t i = 0; i < dims->size(); ++i)
    dim_lists_[i] = (*dims)[i].ToVector();
  return Status::OK();
}

Status DeviationConsumer::Prepare(const ScanGeometry& geometry) {
  if (labels_ == nullptr) return Status::InvalidArgument("Bind not called");
  if (labels_->size() != geometry.rows)
    return Status::InvalidArgument("label count mismatch");
  dims_ = geometry.dims;
  partials_.resize(geometry.num_blocks);
  PrepareKernelScratch(scratch_, geometry.num_blocks);
  return Status::OK();
}

void DeviationConsumer::ConsumeBlock(size_t block_index, size_t first_row,
                                     std::span<const double> data,
                                     size_t rows) {
  const size_t d = dims_;
  const size_t k = centroids_->rows();
  BlockSums& partial = partials_[block_index];
  partial.sums.assign(k * d, 0.0);
  LabeledAbsDeviationBatch(data, rows, d, labels_->data() + first_row,
                           *centroids_, scratch_[block_index],
                           partial.sums.data(), /*count=*/nullptr);
}

ScanConsumer::KernelStats DeviationConsumer::kernel_stats() const {
  return SumKernelStats(scratch_);
}

Status DeviationConsumer::Merge() {
  const size_t d = dims_;
  const size_t k = centroids_->rows();
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
    const size_t count = (*counts_)[i];
    if (count == 0) continue;
    const std::vector<uint32_t>& dim_list = dim_lists_[i];
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
