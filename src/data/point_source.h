// PointSource: sequential-scan + point-fetch access to a point set,
// decoupling the clustering passes from where the data lives.
//
// PROCLUS is a database algorithm: every phase is one scan over the data
// plus random access to a handful of points (medoid candidates). This
// interface captures exactly that contract, so the same algorithm runs
// over an in-memory Dataset or a disk-resident binary snapshot that
// never fits in RAM.
//
//  * Scan(block_rows, visit) — visits consecutive blocks of row-major
//    coordinates in order. In-memory sources pass zero-copy spans; the
//    disk source reads through a reusable buffer.
//  * Fetch(indices) — materializes a small set of points (samples,
//    medoids) by position.
//
// Implementations must support concurrent Scan/Fetch calls from multiple
// threads (the disk source opens a private stream per call).

#ifndef PROCLUS_DATA_POINT_SOURCE_H_
#define PROCLUS_DATA_POINT_SOURCE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/matrix.h"
#include "common/retry.h"
#include "common/status.h"
#include "common/sync.h"
#include "data/dataset.h"

namespace proclus {

class ShardedSource;

/// Parameters of one Scan call. The cancellation context is checked by
/// every source implementation between blocks (one relaxed load per block
/// when only a token is set), so Cancel() or deadline expiry aborts a
/// running scan within one block's worth of work, returning
/// kCancelled/kDeadlineExceeded with the blocks after the abort withheld.
struct ScanSpec {
  /// Rows per delivered block (must be > 0).
  size_t block_rows = 0;
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

  /// Visits all points in consecutive blocks of at most `spec.block_rows`
  /// rows, in order of increasing row index. Every block except possibly
  /// the last has exactly `spec.block_rows` rows. Thread-compatible: may
  /// be called concurrently from several threads. Checks `spec.cancel`
  /// once on entry and once per block (see ScanSpec); a cancelled or
  /// deadline-expired scan stops delivering and returns the context's
  /// status.
  Status Scan(const ScanSpec& spec, const BlockVisitor& visit) const {
    if (spec.block_rows == 0)
      return Status::InvalidArgument("block_rows must be > 0");
    PROCLUS_RETURN_IF_ERROR(spec.cancel.Check());
    return ScanBlocks(spec, visit);
  }

  /// Scan without a cancellation context (uninterruptible).
  Status Scan(size_t block_rows, const BlockVisitor& visit) const {
    ScanSpec spec;
    spec.block_rows = block_rows;
    return Scan(spec, visit);
  }

  /// Materializes the points at `indices` (any order, duplicates
  /// allowed) as the rows of a Matrix. Returns OutOfRange for bad
  /// indices.
  virtual Result<Matrix> Fetch(std::span<const size_t> indices) const = 0;

  /// Non-null when the full point set is addressable in memory; enables
  /// the zero-copy parallel pass path.
  virtual const Dataset* InMemory() const { return nullptr; }

  /// Non-null when the source is a shard set (data/sharded_source.h);
  /// ScanExecutor::Run delegates such sources to the ShardedScanExecutor
  /// so every caller gets the per-shard parallel/retry path without
  /// knowing about sharding. Decorators (e.g. the fault injector) keep
  /// the null default: a wrapped shard set scans through the decorated
  /// glued Scan() instead, which preserves their interception.
  virtual const ShardedSource* Sharded() const { return nullptr; }

  /// Cumulative access counters. Thread-compatible with concurrent
  /// Scan/Fetch calls (relaxed GuardedCounters; each field is
  /// individually consistent, not a cross-field snapshot).
  IoCounters io() const { return io_.Snapshot(); }

 protected:
  /// The scan hook implementations override (non-virtual-interface: the
  /// public Scan validates block_rows and pre-checks cancellation once, so
  /// every source gets both uniformly). Implementations must check
  /// `spec.cancel` between blocks and propagate its status; decorators
  /// forward the whole spec to their inner source.
  virtual Status ScanBlocks(const ScanSpec& spec,
                            const BlockVisitor& visit) const = 0;

  /// Implementations call this once per completed Scan.
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
  // The executor's zero-copy parallel path reads an in-memory source's
  // data without going through Scan(); it records the logical scan here so
  // the counters stay truthful for every path. The sharded executor
  // likewise scans the shards directly, bypassing the shard set's own
  // glued Scan(), and records the logical whole-set scan on it here.
  friend class ScanExecutor;
  friend class ShardedScanExecutor;

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

/// PointSource view over an in-memory Dataset (not owned).
class MemorySource final : public PointSource {
 public:
  /// Wraps `dataset`, which must outlive this source.
  explicit MemorySource(const Dataset& dataset) : dataset_(&dataset) {}

  size_t size() const override { return dataset_->size(); }
  size_t dims() const override { return dataset_->dims(); }
  Result<Matrix> Fetch(std::span<const size_t> indices) const override;
  const Dataset* InMemory() const override { return dataset_; }

 protected:
  Status ScanBlocks(const ScanSpec& spec,
                    const BlockVisitor& visit) const override;

 private:
  const Dataset* dataset_;
};

/// PointSource over a binary dataset snapshot on disk (the format of
/// data/binary_io.h), reading blocks through a bounded buffer so the
/// full data never needs to fit in memory.
///
/// Integrity: version-2 snapshots carry a per-block XXH64 checksum table.
/// Scan verifies every checksum block as its bytes stream past and Fetch
/// verifies the block containing each requested row; a mismatch yields
/// DataLoss with the block index and byte offset. Version-1 snapshots
/// (no checksums) are still readable, unverified.
///
/// Resilience: Fetch re-issues transiently failed row reads under
/// `retry_policy()` (stream reopened between attempts). Scan does NOT
/// retry internally — a mid-scan failure invalidates everything already
/// delivered to visitors, so the re-issue belongs to the caller that owns
/// the consumer state (ScanExecutor::Run).
///
/// Prefetch: every Scan double-buffers — a producer thread reads and
/// checksums tile i+1 while the visitor consumes tile i, overlapping disk
/// I/O with kernel compute. A tile is delivered only once it was fully
/// read and every checksum block completed inside it verified. The two
/// tile buffers hold min(block_rows, rows) rows each, so an oversized
/// block size costs no more memory than the data; a single-tile scan
/// allocates one.
class DiskSource final : public PointSource {
 public:
  /// Opens and validates the snapshot at `path`.
  static Result<DiskSource> Open(const std::string& path);

  size_t size() const override { return rows_; }
  size_t dims() const override { return cols_; }
  Result<Matrix> Fetch(std::span<const size_t> indices) const override;

  /// Retry schedule for transient Fetch failures.
  const RetryPolicy& retry_policy() const { return retry_; }
  void set_retry_policy(const RetryPolicy& policy) { retry_ = policy; }

  /// True when the snapshot carries a checksum table (version >= 2).
  bool verifies_checksums() const { return !checksums_.empty(); }

 protected:
  Status ScanBlocks(const ScanSpec& spec,
                    const BlockVisitor& visit) const override;

 private:
  DiskSource(std::string path, size_t rows, size_t cols, size_t data_offset,
             size_t checksum_block_rows, std::vector<uint64_t> checksums)
      : path_(std::move(path)),
        rows_(rows),
        cols_(cols),
        data_offset_(data_offset),
        checksum_block_rows_(checksum_block_rows),
        checksums_(std::move(checksums)) {}

  std::string path_;
  size_t rows_;
  size_t cols_;
  size_t data_offset_;
  // v2 only: rows per checksum block and one XXH64 digest per block
  // (empty for v1 snapshots).
  size_t checksum_block_rows_;
  std::vector<uint64_t> checksums_;
  RetryPolicy retry_;
};

}  // namespace proclus

#endif  // PROCLUS_DATA_POINT_SOURCE_H_
