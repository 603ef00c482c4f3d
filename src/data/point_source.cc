#include "data/point_source.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <thread>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/parallel.h"
#include "common/sync.h"

namespace proclus {

// ---------- MemorySource ----------

Status MemorySource::ScanBlocks(const ScanSpec& spec,
                                const BlockVisitor& visit) const {
  const size_t block_rows = spec.block_rows;
  const size_t n = dataset_->size();
  const size_t d = dataset_->dims();
  const std::vector<double>& data = dataset_->matrix().data();
  for (size_t first = 0; first < n; first += block_rows) {
    PROCLUS_RETURN_IF_ERROR(spec.cancel.Check());
    size_t rows = std::min(block_rows, n - first);
    visit(first, std::span<const double>(data.data() + first * d, rows * d),
          rows);
  }
  RecordScan(n, /*bytes=*/0);  // Blocks are zero-copy views.
  return Status::OK();
}

Result<Matrix> MemorySource::Fetch(std::span<const size_t> indices) const {
  Matrix out(indices.size(), dims());
  for (size_t r = 0; r < indices.size(); ++r) {
    if (indices[r] >= size())
      return Status::OutOfRange("point index " +
                                std::to_string(indices[r]) +
                                " out of range");
    auto src = dataset_->point(indices[r]);
    std::copy(src.begin(), src.end(), out.row(r).begin());
  }
  RecordFetch(indices.size(), /*bytes=*/0);
  return out;
}

// ---------- DiskSource ----------

namespace {
constexpr char kMagic[4] = {'P', 'C', 'L', 'S'};
constexpr uint32_t kVersionPlain = 1;
constexpr uint32_t kVersionChecksummed = 2;
// magic(4) + version(4) + rows(8) + cols(8)
constexpr size_t kHeaderBytes = 24;

std::string ShortReadDetail(const std::string& path, uint64_t offset,
                            uint64_t expected, std::streamsize actual) {
  return "'" + path + "' at byte offset " + std::to_string(offset) +
         ": expected " + std::to_string(expected) + " bytes, got " +
         std::to_string(actual < 0 ? 0 : actual);
}

// Streaming verifier over a snapshot's checksum blocks, independent of
// the scan tile geometry (the two block sizes need not align). Feed()
// consumes rows in scan order and reports the first mismatched checksum
// block as DataLoss.
class ChecksumStream {
 public:
  ChecksumStream(const std::vector<uint64_t>& checksums,
                 size_t checksum_block_rows, size_t total_rows,
                 size_t row_bytes, size_t data_offset,
                 const std::string& path)
      : checksums_(checksums),
        checksum_block_rows_(checksum_block_rows),
        total_rows_(total_rows),
        row_bytes_(row_bytes),
        data_offset_(data_offset),
        path_(path) {}

  /// Hashes `rows` rows at `bytes`; returns DataLoss when a completed
  /// checksum block disagrees with the table. No-op for v1 snapshots.
  Status Feed(const char* bytes, size_t rows) {
    if (checksums_.empty()) return Status::OK();
    size_t left = rows;
    while (left > 0) {
      const size_t take =
          std::min(checksum_block_rows_ - rows_in_block_, left);
      hasher_.Update(bytes, take * row_bytes_);
      bytes += take * row_bytes_;
      left -= take;
      rows_in_block_ += take;
      rows_hashed_ += take;
      if (rows_in_block_ == checksum_block_rows_ ||
          rows_hashed_ == total_rows_) {
        const uint64_t digest = hasher_.Digest();
        if (digest != checksums_[block_]) {
          return Status::DataLoss(
              "checksum mismatch in '" + path_ + "' block " +
              std::to_string(block_) + " (byte offset " +
              std::to_string(data_offset_ +
                             block_ * checksum_block_rows_ * row_bytes_) +
              "): expected " + std::to_string(checksums_[block_]) +
              ", computed " + std::to_string(digest));
        }
        hasher_.Reset();
        ++block_;
        rows_in_block_ = 0;
      }
    }
    return Status::OK();
  }

 private:
  const std::vector<uint64_t>& checksums_;
  const size_t checksum_block_rows_;
  const size_t total_rows_;
  const size_t row_bytes_;
  const size_t data_offset_;
  const std::string& path_;
  Xxh64 hasher_;
  size_t block_ = 0;
  size_t rows_in_block_ = 0;
  size_t rows_hashed_ = 0;
};
}  // namespace

Result<DiskSource> DiskSource::Open(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open '" + path + "'");
  char magic[4];
  uint32_t version;
  uint64_t rows, cols;
  in.read(magic, sizeof(magic));
  in.read(reinterpret_cast<char*>(&version), sizeof(version));
  in.read(reinterpret_cast<char*>(&rows), sizeof(rows));
  in.read(reinterpret_cast<char*>(&cols), sizeof(cols));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
    return Status::Corruption("'" + path + "' is not a PROCLUS snapshot");
  if (version != kVersionPlain && version != kVersionChecksummed)
    return Status::Corruption("unsupported snapshot version " +
                              std::to_string(version));
  if (rows > 0 && cols == 0)
    return Status::Corruption("'" + path + "' has points of dimension 0");
  if (cols > 0 && rows > std::numeric_limits<uint64_t>::max() / cols)
    return Status::Corruption("'" + path + "' element count overflows");
  const uint64_t payload64 = rows * cols;
  if (payload64 > std::numeric_limits<uint64_t>::max() / sizeof(double))
    return Status::Corruption("'" + path + "' payload size overflows");
  const uint64_t payload_bytes = payload64 * sizeof(double);

  uint64_t csum_block_rows = 0;
  uint64_t num_blocks = 0;
  uint64_t data_offset = kHeaderBytes;
  if (version == kVersionChecksummed) {
    in.read(reinterpret_cast<char*>(&csum_block_rows),
            sizeof(csum_block_rows));
    in.read(reinterpret_cast<char*>(&num_blocks), sizeof(num_blocks));
    if (!in)
      return Status::Corruption("'" + path +
                                "' has a truncated checksum header");
    if (csum_block_rows == 0)
      return Status::Corruption("'" + path +
                                "' checksum_block_rows must be positive");
    const uint64_t expected_blocks =
        rows / csum_block_rows + (rows % csum_block_rows != 0 ? 1 : 0);
    if (num_blocks != expected_blocks)
      return Status::Corruption(
          "'" + path + "' checksum table has " + std::to_string(num_blocks) +
          " blocks, shape implies " + std::to_string(expected_blocks));
    data_offset = kHeaderBytes + 16 + num_blocks * sizeof(uint64_t);
  }

  // Validate the payload length against the header before reading the
  // checksum table (which the size check also bounds).
  in.seekg(0, std::ios::end);
  const uint64_t file_size = static_cast<uint64_t>(in.tellg());
  const uint64_t expected = data_offset + payload_bytes;
  if (file_size < expected)
    return Status::Corruption(
        "'" + path + "' is truncated: header promises " +
        std::to_string(expected) + " bytes, file has " +
        std::to_string(file_size));

  std::vector<uint64_t> checksums(static_cast<size_t>(num_blocks));
  if (num_blocks > 0) {
    in.seekg(static_cast<std::streamoff>(kHeaderBytes + 16));
    in.read(reinterpret_cast<char*>(checksums.data()),
            static_cast<std::streamsize>(checksums.size() *
                                         sizeof(uint64_t)));
    if (!in)
      return Status::IOError("short read of checksum table in " +
                             ShortReadDetail(path, kHeaderBytes + 16,
                                             checksums.size() *
                                                 sizeof(uint64_t),
                                             in.gcount()));
  }
  return DiskSource(path, static_cast<size_t>(rows),
                    static_cast<size_t>(cols),
                    static_cast<size_t>(data_offset),
                    static_cast<size_t>(csum_block_rows),
                    std::move(checksums));
}

Status DiskSource::ScanBlocks(const ScanSpec& spec,
                              const BlockVisitor& visit) const {
  const size_t block_rows = spec.block_rows;
  std::ifstream in(path_, std::ios::binary);
  if (!in) return Status::IOError("cannot reopen '" + path_ + "'");
  in.seekg(static_cast<std::streamoff>(data_offset_));
  const size_t row_bytes = cols_ * sizeof(double);
  const size_t num_tiles = BlockCount(rows_, block_rows);

  // Double buffer: tile t lives in slot t % 2. The producer thread reads
  // and checksums tile t+1 while the calling thread delivers tile t; the
  // counters below hand slot ownership back and forth, so neither side
  // ever touches a buffer the other is using. Tiles are delivered in
  // order, each only after it was fully read and its completed checksum
  // blocks verified, and a producer failure surfaces after every tile
  // read before it was delivered. Checksum blocks are hashed as their
  // bytes pass, independent of the tile size, so rows of a still-open
  // checksum block can be delivered before a mismatch is detected — which
  // is why a failed scan must be discarded wholesale (ScanConsumer::Reset
  // contract).
  //
  // Cancellation: both sides poll spec.cancel between tiles. The producer
  // reports an observed stop through the failure slot (so a consumer
  // blocked waiting for the next tile wakes and unwinds), and the
  // consumer requests producer exit through the `stop` token — the same
  // mechanism an external CancelToken uses, so abandonment-on-failure and
  // external cancellation share one code path.
  struct Shared {
    Mutex mu;
    CondVar cv;
    // Tiles fully read + verified (producer advances; tile t is safe to
    // deliver when filled > t).
    size_t filled PROCLUS_GUARDED_BY(mu) = 0;
    // Tiles delivered (consumer advances; the producer may overwrite
    // slot t % 2 once consumed >= t - 1).
    size_t consumed PROCLUS_GUARDED_BY(mu) = 0;
    // Set by the consumer when it abandons the scan (producer failure or
    // external cancellation observed): the producer must exit without
    // touching further slots. A CancelToken (lock-free flag) rather than
    // a guarded bool so the producer can also poll it between reads
    // without taking mu; waiters on cv are woken explicitly.
    CancelToken stop;
    // First producer error, valid once failed is set.
    bool failed PROCLUS_GUARDED_BY(mu) = false;
    Status status PROCLUS_GUARDED_BY(mu);
  };
  Shared shared;
  // Sized by the rows that exist, not by block_rows, which may exceed the
  // data; a single-tile scan never touches the second slot.
  const size_t tile_values = std::min(block_rows, rows_) * cols_;
  std::vector<double> slots[2];
  slots[0].resize(tile_values);
  if (num_tiles > 1) slots[1].resize(tile_values);

  std::thread producer([&]() {
    ChecksumStream verifier(checksums_, checksum_block_rows_, rows_,
                            row_bytes, data_offset_, path_);
    for (size_t tile = 0; tile < num_tiles; ++tile) {
      {
        MutexLock lock(shared.mu);
        while (tile >= shared.consumed + 2 && !shared.stop.cancelled())
          shared.cv.Wait(shared.mu);
        if (shared.stop.cancelled()) return;
      }
      // External cancellation stops the read-ahead here; the failure slot
      // carries the status so a consumer blocked on the next tile wakes.
      Status status = spec.cancel.Check();
      if (status.ok()) {
        const size_t first = tile * block_rows;
        const size_t rows = std::min(block_rows, rows_ - first);
        std::vector<double>& buffer = slots[tile % 2];
        in.read(reinterpret_cast<char*>(buffer.data()),
                static_cast<std::streamsize>(rows * row_bytes));
        if (!in) {
          status = Status::IOError(
              "scan read failed in " +
              ShortReadDetail(path_, data_offset_ + first * row_bytes,
                              rows * row_bytes, in.gcount()));
        } else {
          status = verifier.Feed(
              reinterpret_cast<const char*>(buffer.data()), rows);
        }
      }
      {
        MutexLock lock(shared.mu);
        if (!status.ok()) {
          shared.failed = true;
          shared.status = std::move(status);
        } else {
          shared.filled = tile + 1;
        }
      }
      shared.cv.NotifyAll();
      if (!status.ok()) return;
    }
  });

  Status result;
  for (size_t tile = 0; tile < num_tiles; ++tile) {
    // Fast-path check while the producer is ahead; a cancellation that
    // strikes while this thread is blocked below is surfaced by the
    // producer through the failure slot within one tile read.
    result = spec.cancel.Check();
    if (!result.ok()) break;
    {
      MutexLock lock(shared.mu);
      while (shared.filled <= tile && !shared.failed)
        shared.cv.Wait(shared.mu);
      if (shared.filled <= tile) {  // Producer failed before this tile.
        result = shared.status;
        break;
      }
    }
    const size_t first = tile * block_rows;
    const size_t rows = std::min(block_rows, rows_ - first);
    visit(first,
          std::span<const double>(slots[tile % 2].data(), rows * cols_),
          rows);
    {
      MutexLock lock(shared.mu);
      shared.consumed = tile + 1;
    }
    shared.cv.NotifyAll();
  }
  // Ask the producer to exit (no-op when it already finished or failed)
  // and wake it if it is waiting for a free slot.
  shared.stop.Cancel();
  shared.cv.NotifyAll();
  producer.join();
  if (!result.ok()) return result;
  RecordScan(rows_, rows_ * cols_ * sizeof(double));
  return Status::OK();
}

Result<Matrix> DiskSource::Fetch(std::span<const size_t> indices) const {
  std::ifstream in(path_, std::ios::binary);
  if (!in) return Status::IOError("cannot reopen '" + path_ + "'");
  Matrix out(indices.size(), cols_);
  const size_t row_bytes = cols_ * sizeof(double);
  // v2 fetches read and verify the whole checksum block containing the
  // row; the last verified block is cached so runs of nearby indices pay
  // for it once.
  std::vector<double> block_buf;
  size_t cached_block = std::numeric_limits<size_t>::max();
  uint64_t bytes_read = 0;
  for (size_t r = 0; r < indices.size(); ++r) {
    const size_t idx = indices[r];
    if (idx >= rows_)
      return Status::OutOfRange("point index " + std::to_string(idx) +
                                " out of range");
    Status status = RunWithRetry(retry_, [&]() -> Status {
      if (!in || !in.is_open()) {
        // A failed attempt leaves the stream in an error state; reopen for
        // the retry and drop the (possibly suspect) cached block.
        in.clear();
        in.close();
        in.open(path_, std::ios::binary);
        cached_block = std::numeric_limits<size_t>::max();
        if (!in) return Status::IOError("cannot reopen '" + path_ + "'");
      }
      if (checksums_.empty()) {
        const uint64_t offset = data_offset_ + idx * row_bytes;
        in.seekg(static_cast<std::streamoff>(offset));
        in.read(reinterpret_cast<char*>(out.row(r).data()),
                static_cast<std::streamsize>(row_bytes));
        if (!in)
          return Status::IOError("fetch of point " + std::to_string(idx) +
                                 " failed in " +
                                 ShortReadDetail(path_, offset, row_bytes,
                                                 in.gcount()));
        bytes_read += row_bytes;
        return Status::OK();
      }
      const size_t block = idx / checksum_block_rows_;
      if (block != cached_block) {
        const size_t block_first = block * checksum_block_rows_;
        const size_t block_rows =
            std::min(checksum_block_rows_, rows_ - block_first);
        const uint64_t offset = data_offset_ + block_first * row_bytes;
        block_buf.resize(block_rows * cols_);
        in.seekg(static_cast<std::streamoff>(offset));
        in.read(reinterpret_cast<char*>(block_buf.data()),
                static_cast<std::streamsize>(block_rows * row_bytes));
        if (!in)
          return Status::IOError("fetch of point " + std::to_string(idx) +
                                 " failed in " +
                                 ShortReadDetail(path_, offset,
                                                 block_rows * row_bytes,
                                                 in.gcount()));
        bytes_read += block_rows * row_bytes;
        const uint64_t digest =
            Xxh64::Hash(block_buf.data(), block_rows * row_bytes);
        if (digest != checksums_[block]) {
          return Status::DataLoss(
              "checksum mismatch in '" + path_ + "' block " +
              std::to_string(block) + " (byte offset " +
              std::to_string(offset) + ") while fetching point " +
              std::to_string(idx) + ": expected " +
              std::to_string(checksums_[block]) + ", computed " +
              std::to_string(digest));
        }
        cached_block = block;
      }
      std::memcpy(out.row(r).data(),
                  block_buf.data() +
                      (idx - block * checksum_block_rows_) * cols_,
                  row_bytes);
      return Status::OK();
    });
    if (!status.ok()) return status;
  }
  RecordFetch(indices.size(), bytes_read);
  return out;
}

}  // namespace proclus
