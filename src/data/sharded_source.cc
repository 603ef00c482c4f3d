#include "data/sharded_source.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/check.h"
#include "data/binary_io.h"

namespace proclus {

// ---------- MemorySliceSource ----------

MemorySliceSource::MemorySliceSource(const Dataset& dataset, size_t first_row,
                                     size_t rows)
    : dataset_(&dataset), first_row_(first_row), rows_(rows) {
  PROCLUS_CHECK(first_row + rows <= dataset.size());
}

Status MemorySliceSource::ScanBlocks(const ScanSpec& spec,
                                     const BlockVisitor& visit) const {
  const size_t block_rows = spec.block_rows;
  const size_t d = dataset_->dims();
  const std::vector<double>& data = dataset_->matrix().data();
  for (size_t first = 0; first < rows_; first += block_rows) {
    PROCLUS_RETURN_IF_ERROR(spec.cancel.Check());
    const size_t rows = std::min(block_rows, rows_ - first);
    visit(first,
          std::span<const double>(data.data() + (first_row_ + first) * d,
                                  rows * d),
          rows);
  }
  RecordScan(rows_, /*bytes=*/0);  // Blocks are zero-copy views.
  return Status::OK();
}

Result<Matrix> MemorySliceSource::Fetch(
    std::span<const size_t> indices) const {
  Matrix out(indices.size(), dims());
  for (size_t r = 0; r < indices.size(); ++r) {
    if (indices[r] >= rows_)
      return Status::OutOfRange("point index " + std::to_string(indices[r]) +
                                " out of range");
    auto src = dataset_->point(first_row_ + indices[r]);
    std::copy(src.begin(), src.end(), out.row(r).begin());
  }
  RecordFetch(indices.size(), /*bytes=*/0);
  return out;
}

// ---------- ShardedSource ----------

Result<ShardedSource> ShardedSource::Create(
    std::vector<std::unique_ptr<PointSource>> shards) {
  if (shards.empty()) return Status::InvalidArgument("no shards");
  for (const auto& shard : shards)
    if (shard == nullptr) return Status::InvalidArgument("null shard");
  const size_t cols = shards.front()->dims();
  std::vector<size_t> offsets(shards.size());
  size_t rows = 0;
  for (size_t s = 0; s < shards.size(); ++s) {
    if (shards[s]->dims() != cols) {
      return Status::Corruption(
          "shard " + std::to_string(s) + " has dimensionality " +
          std::to_string(shards[s]->dims()) + ", shard 0 has " +
          std::to_string(cols));
    }
    offsets[s] = rows;
    rows += shards[s]->size();
  }
  return ShardedSource(std::move(shards), std::move(offsets), rows, cols);
}

Result<ShardedSource> ShardedSource::OpenManifest(const std::string& path) {
  Result<ShardManifest> manifest = ReadShardManifest(path);
  PROCLUS_RETURN_IF_ERROR(manifest.status());
  // Shard paths are stored relative to the manifest's own directory.
  std::string dir;
  const size_t slash = path.find_last_of('/');
  if (slash != std::string::npos) dir = path.substr(0, slash + 1);
  std::vector<std::unique_ptr<PointSource>> shards;
  shards.reserve(manifest->shards.size());
  size_t total = 0;
  for (size_t s = 0; s < manifest->shards.size(); ++s) {
    const ShardManifest::Entry& entry = manifest->shards[s];
    Result<DiskSource> shard = DiskSource::Open(dir + entry.file);
    PROCLUS_RETURN_IF_ERROR(shard.status());
    if (shard->size() != entry.rows || shard->dims() != manifest->cols) {
      return Status::Corruption(
          "shard '" + entry.file + "' is " + std::to_string(shard->size()) +
          " x " + std::to_string(shard->dims()) + ", manifest promises " +
          std::to_string(entry.rows) + " x " +
          std::to_string(manifest->cols));
    }
    total += shard->size();
    shards.push_back(std::make_unique<DiskSource>(std::move(shard).value()));
  }
  if (total != manifest->rows) {
    return Status::Corruption(
        "manifest '" + path + "' promises " +
        std::to_string(manifest->rows) + " rows, shards hold " +
        std::to_string(total));
  }
  return Create(std::move(shards));
}

Result<ShardedSource> ShardedSource::FromDataset(const Dataset& dataset,
                                                 size_t num_shards,
                                                 size_t align_rows) {
  if (num_shards == 0) return Status::InvalidArgument("num_shards must be > 0");
  if (align_rows == 0) return Status::InvalidArgument("align_rows must be > 0");
  const size_t rows = dataset.size();
  num_shards = std::max<size_t>(1, std::min(num_shards, std::max<size_t>(1, rows)));
  size_t per = rows / num_shards / align_rows * align_rows;
  if (per == 0) per = std::max<size_t>(1, rows / num_shards);
  std::vector<std::unique_ptr<PointSource>> shards;
  shards.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    const size_t first = s * per;
    const size_t count = s + 1 == num_shards ? rows - first : per;
    shards.push_back(
        std::make_unique<MemorySliceSource>(dataset, first, count));
  }
  return Create(std::move(shards));
}

bool ShardedSource::AlignedTo(size_t block_rows) const {
  if (block_rows == 0) return false;
  for (size_t s = 1; s < offsets_.size(); ++s)
    if (offsets_[s] % block_rows != 0) return false;
  return true;
}

Status ShardedSource::ScanBlocks(const ScanSpec& spec,
                                 const BlockVisitor& visit) const {
  const size_t block_rows = spec.block_rows;
  // Restitch the shard streams into the single-source block geometry:
  // rows flow shard by shard into the current global block, which is
  // delivered once full (or at end of data). A shard delivery that covers
  // a whole block while the staging buffer is empty passes through
  // zero-copy; only boundary-straddling blocks are copied.
  std::vector<double> staging;
  size_t block_start = 0;  // Global first row of the block being built.
  size_t pending = 0;      // Rows of that block already staged.
  uint64_t bytes = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    const uint64_t shard_bytes_before = shards_[s]->io().bytes_read;
    // Forward the whole spec: each shard checks the cancellation context
    // per block, so a cancelled glued scan unwinds within one block.
    Status status = shards_[s]->Scan(
        spec,
        [&](size_t, std::span<const double> data, size_t rows) {
          const double* src = data.data();
          size_t left = rows;
          while (left > 0) {
            // block_start stays a multiple of block_rows by induction, so
            // cap is block_rows everywhere except the global last block.
            const size_t cap = std::min(block_rows, rows_ - block_start);
            if (pending == 0 && left >= cap) {
              visit(block_start, std::span<const double>(src, cap * cols_),
                    cap);
              block_start += cap;
              src += cap * cols_;
              left -= cap;
              continue;
            }
            // Sized by the rows that exist: block_rows may exceed them.
            if (staging.empty())
              staging.resize(std::min(block_rows, rows_) * cols_);
            const size_t take = std::min(cap - pending, left);
            std::memcpy(staging.data() + pending * cols_, src,
                        take * cols_ * sizeof(double));
            pending += take;
            src += take * cols_;
            left -= take;
            if (pending == cap) {
              visit(block_start,
                    std::span<const double>(staging.data(), cap * cols_),
                    cap);
              block_start += cap;
              pending = 0;
            }
          }
        });
    PROCLUS_RETURN_IF_ERROR(status);
    bytes += shards_[s]->io().bytes_read - shard_bytes_before;
  }
  // Every row was delivered: the last block fills exactly at rows_.
  PROCLUS_DCHECK(block_start == rows_ && pending == 0);
  RecordScan(rows_, bytes);
  return Status::OK();
}

Result<Matrix> ShardedSource::Fetch(std::span<const size_t> indices) const {
  Matrix out(indices.size(), cols_);
  // One batched fetch per shard: group the requests by owning shard,
  // preserving each row's position in the output.
  std::vector<std::vector<size_t>> local(shards_.size());
  std::vector<std::vector<size_t>> out_rows(shards_.size());
  for (size_t r = 0; r < indices.size(); ++r) {
    const size_t idx = indices[r];
    if (idx >= rows_)
      return Status::OutOfRange("point index " + std::to_string(idx) +
                                " out of range");
    const size_t shard =
        static_cast<size_t>(
            std::upper_bound(offsets_.begin(), offsets_.end(), idx) -
            offsets_.begin()) -
        1;
    local[shard].push_back(idx - offsets_[shard]);
    out_rows[shard].push_back(r);
  }
  uint64_t bytes = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (local[s].empty()) continue;
    const uint64_t before = shards_[s]->io().bytes_read;
    Result<Matrix> rows = shards_[s]->Fetch(local[s]);
    PROCLUS_RETURN_IF_ERROR(rows.status());
    bytes += shards_[s]->io().bytes_read - before;
    for (size_t r = 0; r < out_rows[s].size(); ++r) {
      auto src = rows->row(r);
      std::copy(src.begin(), src.end(), out.row(out_rows[s][r]).begin());
    }
  }
  RecordFetch(indices.size(), bytes);
  return out;
}

}  // namespace proclus
