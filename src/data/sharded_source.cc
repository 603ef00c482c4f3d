#include "data/sharded_source.h"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "data/binary_io.h"

namespace proclus {

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
        std::make_unique<MemorySource>(dataset, first, count));
  }
  return Create(std::move(shards));
}

size_t ShardedSource::ShardOf(size_t row) const {
  return static_cast<size_t>(
             std::upper_bound(offsets_.begin(), offsets_.end(), row) -
             offsets_.begin()) -
         1;
}

bool ShardedSource::AlignedTo(size_t block_rows) const {
  if (block_rows == 0) return false;
  for (size_t s = 1; s < offsets_.size(); ++s)
    if (offsets_[s] % block_rows != 0) return false;
  return true;
}

Status ShardedSource::ScanBlocks(const ScanSpec& spec,
                                 const BlockVisitor& visit) const {
  const uint64_t bytes_before = ThreadScanBytesRead();
  const size_t rows = spec.end_row - spec.first_row;
  const size_t s = ShardOf(spec.first_row);
  const size_t offset = offsets_[s];
  if (spec.end_row <= offset + shards_[s]->size()) {
    // Inside shard s: its own read.
    ScanSpec local = spec;
    local.first_row -= offset;
    local.end_row -= offset;
    PROCLUS_RETURN_IF_ERROR(shards_[s]->Scan(
        local, [&](size_t row, std::span<const double> data, size_t count) {
          visit(offset + row, data, count);
        }));
  } else {
    // Spanning shards s, s+1, ...: read each piece whole into one buffer
    // (each piece's Scan checks the cancellation context), and deliver the
    // block once every piece has arrived.
    std::vector<double> spanning(rows * cols_);
    for (size_t row = spec.first_row; row < spec.end_row;) {
      const size_t p = ShardOf(row);
      const size_t piece_end =
          std::min(spec.end_row, offsets_[p] + shards_[p]->size());
      ScanSpec piece = spec;
      piece.first_row = row - offsets_[p];
      piece.end_row = piece_end - offsets_[p];
      size_t arrived = 0;
      PROCLUS_RETURN_IF_ERROR(shards_[p]->Scan(
          piece, [&](size_t, std::span<const double> data, size_t count) {
            std::copy(data.begin(), data.end(),
                      spanning.begin() + static_cast<std::ptrdiff_t>(
                                             (row - spec.first_row) * cols_));
            arrived = count;
          }));
      if (arrived != piece_end - row)
        return Status::IOError("shard " + std::to_string(p) + " delivered " +
                               std::to_string(arrived) + " of rows [" +
                               std::to_string(piece.first_row) + ", " +
                               std::to_string(piece.end_row) + ")");
      row = piece_end;
    }
    visit(spec.first_row, std::span<const double>(spanning), rows);
  }
  RecordScan(rows, ThreadScanBytesRead() - bytes_before);
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
    const size_t shard = ShardOf(idx);
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
