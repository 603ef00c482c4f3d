// PointSource: ranged-read + point-fetch access to a point set,
// decoupling the clustering passes from where the data lives.
//
// PROCLUS is a database algorithm: every phase is one scan over the data
// plus random access to a handful of points (medoid candidates). This
// interface captures exactly that contract, so the same algorithm runs
// over an in-memory Dataset or a disk-resident binary snapshot that
// never fits in RAM.
//
//  * Scan(spec, visit) — reads one block, the rows
//    [spec.first_row, spec.end_row), and hands it to `visit` once, whole.
//    In-memory sources pass a zero-copy span; the disk source reads and
//    verifies the rows into the calling thread's read buffer first.
//  * Fetch(indices) — materializes a small set of points (samples,
//    medoids) by position.
//
// The scan executor (data/engine.h) is the only reader: it issues one
// Scan per block, on the pool worker that owns the block, so
// implementations must support concurrent Scan/Fetch calls from many
// threads.
//
// Delivery rule: a source delivers a block only after it has read (and,
// where it keeps checksums, verified) all of it. A failed read delivers
// nothing, so the caller can retry that block alone.

#ifndef PROCLUS_DATA_POINT_SOURCE_H_
#define PROCLUS_DATA_POINT_SOURCE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/matrix.h"
#include "common/status.h"
#include "common/sync.h"
#include "data/dataset.h"

namespace proclus {

class ShardedSource;

/// Parameters of one Scan call: the block to read and the cancellation
/// context, which Scan checks once before the read.
struct ScanSpec {
  /// The rows to read, [first_row, end_row). end_row is clamped to the
  /// source's size, so the default range is the whole source.
  size_t first_row = 0;
  size_t end_row = std::numeric_limits<size_t>::max();
  /// Cooperative stop signal; inactive by default.
  CancelContext cancel{};
};

/// Snapshot of a source's cumulative physical-access counters (monotonic
/// over the source's lifetime). `bytes_read` counts bytes physically read
/// from backing storage: zero for in-memory sources, whose scans hand out
/// zero-copy views.
struct IoCounters {
  uint64_t scans = 0;
  uint64_t rows_scanned = 0;
  uint64_t bytes_read = 0;
  uint64_t rows_fetched = 0;
};

/// Receives one block: index of its first row, row-major coordinate data
/// (`rows` x dims() values), and the number of rows in the block.
using BlockVisitor =
    std::function<void(size_t first_row, std::span<const double> data,
                       size_t rows)>;

/// Bytes the calling thread has read from storage for scans, over the
/// thread's life (DiskSource adds every scan read). The difference taken
/// around one Scan call on one thread is exactly what that call read,
/// however many decorators wrap the source and whatever other threads read
/// at the same time; the executor and the shard set count bytes this way.
uint64_t ThreadScanBytesRead();

/// Abstract scan/fetch access to N points in d dimensions.
class PointSource {
 public:
  // Counters are bound to the source's identity, not its data: copy- and
  // move-constructed sources start counting from zero and assignment
  // leaves the target's tallies untouched. GuardedCounter implements
  // exactly those semantics, so the special member functions need no
  // special-casing here.
  PointSource() = default;
  virtual ~PointSource() = default;

  /// Number of points N.
  virtual size_t size() const = 0;
  /// Dimensionality d.
  virtual size_t dims() const = 0;

  /// Reads the rows [spec.first_row, min(spec.end_row, size())) and
  /// calls `visit` once with all of them (see the delivery rule above).
  /// Thread-compatible: may be called concurrently from several threads.
  /// Checks `spec.cancel` once, before the read, and returns its status
  /// when it has fired. A range starting past the last row is OutOfRange;
  /// an empty range reads nothing, calls no `visit` and counts no scan.
  Status Scan(const ScanSpec& spec, const BlockVisitor& visit) const {
    ScanSpec range = spec;
    range.end_row = std::min(spec.end_row, size());
    if (range.first_row > range.end_row)
      return Status::OutOfRange("scan range starts at row " +
                                std::to_string(range.first_row) +
                                ", past the last row " +
                                std::to_string(range.end_row));
    PROCLUS_RETURN_IF_ERROR(spec.cancel.Check());
    if (range.first_row == range.end_row) return Status::OK();
    return ScanBlocks(range, visit);
  }

  /// Materializes the points at `indices` (any order, duplicates
  /// allowed) as the rows of a Matrix. Returns OutOfRange for bad
  /// indices.
  virtual Result<Matrix> Fetch(std::span<const size_t> indices) const = 0;

  /// Non-null when the full point set is addressable in memory, i.e. its
  /// blocks are zero-copy views: the executor then runs num_threads
  /// workers, where storage-backed sources get twice as many (see
  /// ScanOptions::num_threads).
  virtual const Dataset* InMemory() const { return nullptr; }

  /// Non-null when the source is a shard set (data/sharded_source.h); the
  /// executor reads it for the per-shard counters of RunStats::shard_io.
  /// Decorators (e.g. the fault injector) keep the null default.
  virtual const ShardedSource* Sharded() const { return nullptr; }

  /// Cumulative access counters. Thread-compatible with concurrent
  /// Scan/Fetch calls (relaxed GuardedCounters; each field is
  /// individually consistent, not a cross-field snapshot).
  IoCounters io() const { return io_.Snapshot(); }

 protected:
  /// The read hook implementations override (non-virtual-interface: the
  /// public Scan clamps end_row to size(), rejects a range past the end,
  /// checks cancellation and skips an empty range, so every source gets
  /// all four uniformly). `spec` holds a non-empty range inside the
  /// source. Implementations read and verify all of it, then call `visit`
  /// once with the whole range (the delivery rule); decorators forward
  /// the spec to their inner source.
  virtual Status ScanBlocks(const ScanSpec& spec,
                            const BlockVisitor& visit) const = 0;

  /// Implementations call this once per completed Scan, with the rows it
  /// delivered and the bytes it read from storage.
  void RecordScan(uint64_t rows, uint64_t bytes) const {
    io_.scans.Add(1);
    io_.rows_scanned.Add(rows);
    io_.bytes_read.Add(bytes);
  }

  /// Implementations call this once per completed Fetch.
  void RecordFetch(uint64_t rows, uint64_t bytes) const {
    io_.rows_fetched.Add(rows);
    io_.bytes_read.Add(bytes);
  }

 private:
  // Relaxed-atomic cells behind the IoCounters snapshot. Concurrent
  // Scan/Fetch calls bump them without coordination; Snapshot() is the
  // single read path. Ordering discipline lives inside GuardedCounter
  // (relaxed — independent statistics, no payload publication).
  struct IoCounterCells {
    GuardedCounter scans;
    GuardedCounter rows_scanned;
    GuardedCounter bytes_read;
    GuardedCounter rows_fetched;

    IoCounters Snapshot() const {
      IoCounters out;
      out.scans = scans.Load();
      out.rows_scanned = rows_scanned.Load();
      out.bytes_read = bytes_read.Load();
      out.rows_fetched = rows_fetched.Load();
      return out;
    }
  };

  mutable IoCounterCells io_;
};

/// PointSource view over rows [first_row, first_row + rows) of an
/// in-memory Dataset (not owned): by default all of it. Blocks are
/// zero-copy views; a slice is the building block of memory sharding.
class MemorySource final : public PointSource {
 public:
  /// Views `rows` rows of `dataset` from `first_row` on (every row from
  /// there by default). `dataset` must outlive this source, and the rows
  /// must lie inside it.
  explicit MemorySource(const Dataset& dataset, size_t first_row = 0,
                        size_t rows = std::numeric_limits<size_t>::max());

  size_t size() const override { return rows_; }
  size_t dims() const override { return dataset_->dims(); }
  Result<Matrix> Fetch(std::span<const size_t> indices) const override;
  /// The dataset when this source views all of it; null for a slice.
  const Dataset* InMemory() const override {
    return first_row_ == 0 && rows_ == dataset_->size() ? dataset_
                                                          : nullptr;
  }

 protected:
  Status ScanBlocks(const ScanSpec& spec,
                    const BlockVisitor& visit) const override;

 private:
  const Dataset* dataset_;
  size_t first_row_;
  size_t rows_;
};

/// PointSource over a binary dataset snapshot on disk (the format of
/// data/binary_io.h), reading blocks through a bounded buffer so the
/// full data never needs to fit in memory.
///
/// Reads: the snapshot is opened once and read with positioned reads, so
/// concurrent scans of different blocks share one descriptor. Each block
/// is read into the calling thread's read buffer, which is kept for the
/// thread's life, reused by every later scan on it and never zero-filled:
/// the executor's pool workers take no allocations or page faults in
/// steady state. A scan nested inside another scan's visitor on the same
/// thread reads through a private buffer instead.
///
/// Integrity: version-2 snapshots carry a per-block XXH64 checksum table.
/// A scan block is delivered only after every checksum block it overlaps
/// was read whole and verified; when the scan block's first or last row is
/// not on a checksum-block boundary, the read widens to the whole checksum
/// blocks around it. Fetch verifies the checksum block containing each
/// requested row. A mismatch yields DataLoss with the block index and byte
/// offset. Version-1 snapshots (no checksums) are still readable,
/// unverified.
///
/// Resilience: neither Fetch nor Scan retries. The executor retries a
/// failed block alone (ScanExecutor::Run), and FetchWithRetry a failed
/// fetch.
class DiskSource final : public PointSource {
 public:
  /// Opens and validates the snapshot at `path`.
  static Result<DiskSource> Open(const std::string& path);

  size_t size() const override { return rows_; }
  size_t dims() const override { return cols_; }
  Result<Matrix> Fetch(std::span<const size_t> indices) const override;

  /// True when the snapshot carries a checksum table (version >= 2).
  bool verifies_checksums() const { return !checksums_.empty(); }

 protected:
  Status ScanBlocks(const ScanSpec& spec,
                    const BlockVisitor& visit) const override;

 private:
  // The snapshot's open descriptor, shared by copies of the source and
  // closed with the last of them.
  struct File;
  // A grow-only, never zero-filled read buffer (point_source.cc).
  struct ReadBuffer;
  // Rows of the snapshot held in a read buffer, [first, end).
  struct Held {
    const double* data = nullptr;
    size_t first = 0;
    size_t end = 0;
  };

  DiskSource(std::string path, std::shared_ptr<const File> file,
             size_t rows, size_t cols, size_t data_offset,
             size_t checksum_block_rows, std::vector<uint64_t> checksums)
      : path_(std::move(path)),
        file_(std::move(file)),
        rows_(rows),
        cols_(cols),
        data_offset_(data_offset),
        checksum_block_rows_(checksum_block_rows),
        checksums_(std::move(checksums)) {}

  // Reads rows [first, end), widened to whole checksum blocks, into
  // `buffer` and verifies every checksum block read; on success `held`
  // names the rows the buffer now holds and `bytes` grows by the bytes
  // read. On failure `held` is empty. `point` names the fetched row in
  // error messages (npos for scans).
  Status ReadVerified(size_t first, size_t end, ReadBuffer* buffer,
                      Held* held, uint64_t* bytes, size_t point) const;

  std::string path_;
  std::shared_ptr<const File> file_;
  size_t rows_;
  size_t cols_;
  size_t data_offset_;
  // v2 only: rows per checksum block and one XXH64 digest per block
  // (empty for v1 snapshots).
  size_t checksum_block_rows_;
  std::vector<uint64_t> checksums_;
};

}  // namespace proclus

#endif  // PROCLUS_DATA_POINT_SOURCE_H_
