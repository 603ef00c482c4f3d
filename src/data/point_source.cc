#include "data/point_source.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/hash.h"
#include "common/parallel.h"
#include "data/binary_io.h"

namespace proclus {

namespace {
thread_local uint64_t tls_scan_bytes_read = 0;
}  // namespace

uint64_t ThreadScanBytesRead() { return tls_scan_bytes_read; }

// ---------- MemorySource ----------

MemorySource::MemorySource(const Dataset& dataset, size_t first_row,
                           size_t rows)
    : dataset_(&dataset),
      first_row_(first_row),
      rows_(rows == std::numeric_limits<size_t>::max()
                ? dataset.size() - first_row
                : rows) {
  PROCLUS_CHECK(first_row <= dataset.size() &&
                rows_ <= dataset.size() - first_row);
}

Status MemorySource::ScanBlocks(const ScanSpec& spec,
                                const BlockVisitor& visit) const {
  const size_t d = dataset_->dims();
  const size_t rows = spec.end_row - spec.first_row;
  const double* data =
      dataset_->matrix().data().data() + (first_row_ + spec.first_row) * d;
  visit(spec.first_row, std::span<const double>(data, rows * d), rows);
  // The block is a zero-copy view.
  RecordScan(rows, /*bytes=*/0);
  return Status::OK();
}

Result<Matrix> MemorySource::Fetch(std::span<const size_t> indices) const {
  Matrix out(indices.size(), dims());
  for (size_t r = 0; r < indices.size(); ++r) {
    if (indices[r] >= rows_)
      return Status::OutOfRange("point index " +
                                std::to_string(indices[r]) +
                                " out of range");
    auto src = dataset_->point(first_row_ + indices[r]);
    std::copy(src.begin(), src.end(), out.row(r).begin());
  }
  RecordFetch(indices.size(), /*bytes=*/0);
  return out;
}

// ---------- DiskSource ----------

struct DiskSource::File {
  explicit File(int descriptor) : fd(descriptor) {}
  ~File() { ::close(fd); }
  File(const File&) = delete;
  File& operator=(const File&) = delete;

  // Positioned read of up to `bytes` bytes at `offset` into `dst`, retried
  // across interrupted and partial reads; returns the bytes read (short
  // at end of file or on an error).
  size_t ReadAt(uint64_t offset, size_t bytes, char* dst) const {
    size_t got = 0;
    while (got < bytes) {
      const ssize_t n = ::pread(fd, dst + got, bytes - got,
                                static_cast<off_t>(offset + got));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      got += static_cast<size_t>(n);
    }
    return got;
  }

  const int fd;
};

struct DiskSource::ReadBuffer {
  // Grows to `values` doubles without initializing them; never shrinks.
  double* Reserve(size_t values) {
    if (values > capacity) {
      data = std::make_unique_for_overwrite<double[]>(values);
      capacity = values;
    }
    return data.get();
  }

  std::unique_ptr<double[]> data;
  size_t capacity = 0;
  // Set while a scan on this thread reads through the buffer.
  bool in_use = false;
};

namespace {

std::string ShortReadDetail(const std::string& path, uint64_t offset,
                            uint64_t expected, uint64_t actual) {
  return "'" + path + "' at byte offset " + std::to_string(offset) +
         ": expected " + std::to_string(expected) + " bytes, got " +
         std::to_string(actual);
}

constexpr size_t kNoPoint = std::numeric_limits<size_t>::max();

}  // namespace

Result<DiskSource> DiskSource::Open(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open '" + path + "'");
  SnapshotHeader header;
  if (Status status = ReadSnapshotHeader(in, &header); !status.ok())
    return Status::Corruption("'" + path + "': " + status.message());
  const std::streampos payload_at = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streampos end = in.tellg();
  if (payload_at == std::streampos(-1) || end == std::streampos(-1))
    return Status::IOError("cannot size '" + path + "'");
  const uint64_t data_offset = static_cast<uint64_t>(payload_at);
  const uint64_t file_size = static_cast<uint64_t>(end);
  // The header parser proved rows * cols * sizeof(double) fits in 64
  // bits; compare it with the bytes after the header so that adding the
  // header's length cannot wrap.
  const uint64_t payload_bytes = header.rows * header.cols * sizeof(double);
  if (file_size - data_offset < payload_bytes) {
    const bool wraps =
        payload_bytes > std::numeric_limits<uint64_t>::max() - data_offset;
    return Status::Corruption(
        "'" + path + "' is truncated: header promises " +
        (wraps ? "more than 2^64"
               : std::to_string(data_offset + payload_bytes)) +
        " bytes, file has " + std::to_string(file_size));
  }
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::IOError("cannot open '" + path + "'");
  return DiskSource(path, std::make_shared<const File>(fd),
                    static_cast<size_t>(header.rows),
                    static_cast<size_t>(header.cols),
                    static_cast<size_t>(data_offset),
                    static_cast<size_t>(header.checksum_block_rows),
                    std::move(header.checksums));
}

Status DiskSource::ReadVerified(size_t first, size_t end, ReadBuffer* buffer,
                                Held* held, uint64_t* bytes,
                                size_t point) const {
  *held = Held{};
  const size_t csum_rows = checksum_block_rows_;
  size_t lo = first;
  size_t hi = end;
  if (!checksums_.empty()) {
    lo = first / csum_rows * csum_rows;
    hi = std::min(rows_, BlockCount(end, csum_rows) * csum_rows);
  }
  const size_t row_bytes = cols_ * sizeof(double);
  const size_t want = (hi - lo) * row_bytes;
  double* dst = buffer->Reserve((hi - lo) * cols_);
  const uint64_t offset = data_offset_ + uint64_t{lo} * row_bytes;
  const size_t got = file_->ReadAt(offset, want, reinterpret_cast<char*>(dst));
  if (got != want) {
    return Status::IOError(
        (point == kNoPoint ? std::string("scan read")
                           : "fetch of point " + std::to_string(point)) +
        " failed in " + ShortReadDetail(path_, offset, want, got));
  }
  *bytes += want;
  if (point == kNoPoint) tls_scan_bytes_read += want;
  if (!checksums_.empty()) {
    for (size_t b = lo / csum_rows; b * csum_rows < hi; ++b) {
      const size_t b_first = b * csum_rows;
      const size_t b_rows = std::min(csum_rows, rows_ - b_first);
      const uint64_t digest =
          Xxh64::Hash(dst + (b_first - lo) * cols_, b_rows * row_bytes);
      if (digest != checksums_[b]) {
        return Status::DataLoss(
            "checksum mismatch in '" + path_ + "' block " + std::to_string(b) +
            " (byte offset " +
            std::to_string(data_offset_ + uint64_t{b_first} * row_bytes) +
            ")" +
            (point == kNoPoint ? ""
                               : " while fetching point " +
                                     std::to_string(point)) +
            ": expected " + std::to_string(checksums_[b]) + ", computed " +
            std::to_string(digest));
      }
    }
  }
  *held = Held{dst, lo, hi};
  return Status::OK();
}

Status DiskSource::ScanBlocks(const ScanSpec& spec,
                              const BlockVisitor& visit) const {
  // The thread's own read buffer, or a private one when a scan on this
  // thread already reads through it (this scan runs inside its visitor).
  thread_local ReadBuffer thread_buffer;
  ReadBuffer nested;
  ReadBuffer* buffer = thread_buffer.in_use ? &nested : &thread_buffer;
  buffer->in_use = true;
  struct Release {
    ReadBuffer* buffer;
    ~Release() { buffer->in_use = false; }
  } release{buffer};

  Held held;
  uint64_t bytes = 0;
  PROCLUS_RETURN_IF_ERROR(ReadVerified(spec.first_row, spec.end_row, buffer,
                                       &held, &bytes, kNoPoint));
  const size_t rows = spec.end_row - spec.first_row;
  visit(spec.first_row,
        std::span<const double>(
            held.data + (spec.first_row - held.first) * cols_, rows * cols_),
        rows);
  RecordScan(rows, bytes);
  return Status::OK();
}

Result<Matrix> DiskSource::Fetch(std::span<const size_t> indices) const {
  Matrix out(indices.size(), cols_);
  const size_t row_bytes = cols_ * sizeof(double);
  // The last verified read is kept, so runs of nearby indices pay for
  // their checksum block once.
  ReadBuffer buffer;
  Held held;
  uint64_t bytes_read = 0;
  for (size_t r = 0; r < indices.size(); ++r) {
    const size_t idx = indices[r];
    if (idx >= rows_)
      return Status::OutOfRange("point index " + std::to_string(idx) +
                                " out of range");
    if (idx < held.first || idx >= held.end) {
      PROCLUS_RETURN_IF_ERROR(
          ReadVerified(idx, idx + 1, &buffer, &held, &bytes_read, idx));
    }
    std::memcpy(out.row(r).data(), held.data + (idx - held.first) * cols_,
                row_bytes);
  }
  RecordFetch(indices.size(), bytes_read);
  return out;
}

}  // namespace proclus
