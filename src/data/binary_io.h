// Binary snapshot format for datasets: a fixed little-endian layout with a
// magic header, used to cache large generated datasets between benchmark
// runs (the Figure 7 sweep re-uses the same 500k-point file across
// algorithms).
//
// Version 2 (written by WriteBinary) adds a per-block XXH64 checksum table
// so readers detect silent on-disk corruption instead of consuming garbage
// coordinates. Version 1 snapshots (no checksums) remain readable.
//
// v1: magic "PCLS" (4) | version u32 | rows u64 | cols u64 |
//     rows*cols f64 values (row-major).
// v2: magic "PCLS" (4) | version u32 | rows u64 | cols u64 |
//     checksum_block_rows u64 | num_checksum_blocks u64 |
//     num_checksum_blocks x u64 XXH64(block payload, seed 0) |
//     rows*cols f64 values (row-major).
// num_checksum_blocks = ceil(rows / checksum_block_rows); the final block
// may cover fewer rows.

// Shard manifests (.pcsm) describe a snapshot split into N per-shard
// snapshots for the sharded scan engine (data/sharded_source.h):
//
// v1: magic "PCSM" (4) | version u32 | num_shards u64 | rows u64 |
//     cols u64 | checksum_block_rows u64 | per shard:
//     rows u64 | name_len u64 | name bytes (path relative to the
//     manifest's directory).
//
// SplitIntoShards writes the shard snapshots (each a self-contained v2
// PCLS file with its own checksum table) plus the manifest, verifying the
// input snapshot's checksums as its payload streams through.

#ifndef PROCLUS_DATA_BINARY_IO_H_
#define PROCLUS_DATA_BINARY_IO_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/status.h"
#include "data/dataset.h"

namespace proclus {

/// Rows covered by one checksum in a v2 snapshot (writer default). Small
/// enough that point fetches verify cheaply, large enough that the table
/// stays negligible next to the payload.
inline constexpr uint64_t kDefaultChecksumBlockRows = 256;

/// Writes the dataset's points to a binary stream (current format, v2:
/// checksummed). `checksum_block_rows` sets the integrity granularity.
Status WriteBinary(const Dataset& dataset, std::ostream& out,
                   uint64_t checksum_block_rows = kDefaultChecksumBlockRows);

/// Writes the dataset's points to the file at `path`.
Status WriteBinaryFile(const Dataset& dataset, const std::string& path,
                       uint64_t checksum_block_rows = kDefaultChecksumBlockRows);

/// Reads a dataset previously written with WriteBinary.
///
/// Corrupted input yields a Status error: the header magic/version, the
/// rows*cols*sizeof(double) payload size (checked against both uint64/size_t
/// overflow and, on seekable streams, the bytes actually present) are all
/// validated before allocation, and the payload is read incrementally so a
/// hostile header can never force a huge upfront allocation.
Result<Dataset> ReadBinary(std::istream& in);

/// Reads a dataset from the file at `path`.
Result<Dataset> ReadBinaryFile(const std::string& path);

/// Everything a v1/v2 snapshot stores before its payload, validated.
struct SnapshotHeader {
  uint32_t version = 0;
  uint64_t rows = 0;
  uint64_t cols = 0;
  /// v2 only (0 / empty for v1 snapshots).
  uint64_t checksum_block_rows = 0;
  std::vector<uint64_t> checksums;
};

/// Parses and validates a snapshot header and (for v2) its checksum table,
/// leaving `in` at the first payload byte. rows * cols * sizeof(double) is
/// checked against uint64 overflow, and the table is read incrementally,
/// so a hostile block count cannot force an allocation larger than the
/// bytes present. The one header parser: ReadBinary, SplitIntoShards and
/// DiskSource::Open all call it. Every failure is a Corruption status.
Status ReadSnapshotHeader(std::istream& in, SnapshotHeader* header);

/// Reads the whole file at `path` into a byte string via the checked I/O
/// layer. Errors carry the path and the expected/actual byte counts. This is
/// the sanctioned route for text readers (e.g. CSV) so that every file read
/// in src/data stays behind one audited implementation (see the raw-ifstream
/// lint rule).
Result<std::string> ReadFileBytes(const std::string& path);

/// Parsed contents of a shard manifest (.pcsm; format at the top of this
/// header).
struct ShardManifest {
  struct Entry {
    /// Rows held by this shard.
    uint64_t rows = 0;
    /// Shard snapshot path, relative to the manifest's directory.
    std::string file;
  };
  /// Total rows across all shards.
  uint64_t rows = 0;
  /// Dimensionality shared by every shard.
  uint64_t cols = 0;
  /// Checksum granularity the shard snapshots were written with.
  uint64_t checksum_block_rows = 0;
  /// Shards in row order (shard i holds the rows after shards 0..i-1).
  std::vector<Entry> shards;
};

/// Writes `manifest` to the file at `path`.
Status WriteShardManifest(const ShardManifest& manifest,
                          const std::string& path);

/// Reads a manifest previously written with WriteShardManifest. Corrupted
/// or truncated input yields a Corruption status.
Result<ShardManifest> ReadShardManifest(const std::string& path);

/// How SplitIntoShards partitions a snapshot.
struct ShardSplitOptions {
  /// Number of shards to produce (clamped to the row count).
  size_t num_shards = 1;
  /// Every shard boundary is placed at a multiple of this row count, so
  /// no scan block of a size dividing it spans two shards (a spanning
  /// block is read from both shards and copied into one buffer). When
  /// the snapshot is too small for aligned shards the split falls back to
  /// an even unaligned partition, which scans bit-identically too.
  uint64_t align_rows = kDefaultBlockRows;
  /// Integrity granularity of the written shard snapshots.
  uint64_t checksum_block_rows = kDefaultChecksumBlockRows;
};

/// Splits the PCLS snapshot at `snapshot_path` into per-shard snapshots
/// `<out_prefix>.shard<i>.bin` plus a manifest `<out_prefix>.pcsm`,
/// streaming the payload (the full dataset is never resident) and
/// verifying the input's checksum table as it passes through. Returns the
/// manifest path.
Result<std::string> SplitIntoShards(const std::string& snapshot_path,
                                    const std::string& out_prefix,
                                    const ShardSplitOptions& options = {});

}  // namespace proclus

#endif  // PROCLUS_DATA_BINARY_IO_H_
