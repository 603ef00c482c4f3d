// ShardedSource: one logical PointSource over an ordered set of shard
// sources, each holding a contiguous row range of the full point set.
//
// A shard set is a row-range router. The scan executor (data/engine.h)
// reads a shard set like any other source, one block per Scan: a block
// inside one shard is that shard's own read, passed through without a
// copy, and a block that spans shards is read from each into one buffer
// and delivered once, whole. Block indices stay those of the unsharded
// scan, so results are bit-identical to scanning the unsharded snapshot
// for any shard count, layout and thread count (DESIGN.md §12). Fetch()
// routes each index to the shard owning its row.
//
// Shard boundaries are fixed at construction. SplitIntoShards aligns them
// to the scan block size (see data/binary_io.h), so no block spans two
// shards and none is copied; any other layout still scans correctly.

#ifndef PROCLUS_DATA_SHARDED_SOURCE_H_
#define PROCLUS_DATA_SHARDED_SOURCE_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"
#include "data/point_source.h"

namespace proclus {

/// Logical concatenation of N shard sources (shard i holds rows
/// [shard_offset(i), shard_offset(i) + shard(i).size())).
class ShardedSource final : public PointSource {
 public:
  /// Takes ownership of `shards` (all non-null, all with equal dims;
  /// shards may be empty only when every shard is empty). Returns
  /// InvalidArgument when the shard set is empty or a shard is null, and
  /// Corruption when shard dimensionalities disagree.
  static Result<ShardedSource> Create(
      std::vector<std::unique_ptr<PointSource>> shards);

  /// Opens every shard snapshot listed in the PCSM manifest at `path`
  /// (see data/binary_io.h) as a DiskSource, validating each shard's
  /// shape against the manifest.
  static Result<ShardedSource> OpenManifest(const std::string& path);

  /// Shards an in-memory dataset into `num_shards` contiguous sliced
  /// MemorySource ranges, each (except the last) holding a multiple
  /// of `align_rows` rows. `dataset` must outlive the source. Shard
  /// counts larger than the row count are clamped.
  static Result<ShardedSource> FromDataset(const Dataset& dataset,
                                           size_t num_shards,
                                           size_t align_rows);

  size_t size() const override { return rows_; }
  size_t dims() const override { return cols_; }
  /// Routes each index to its owning shard (one batched fetch per shard).
  Result<Matrix> Fetch(std::span<const size_t> indices) const override;
  const ShardedSource* Sharded() const override { return this; }

  size_t num_shards() const { return shards_.size(); }
  const PointSource& shard(size_t i) const { return *shards_[i]; }
  /// Global index of shard i's first row.
  size_t shard_offset(size_t i) const { return offsets_[i]; }
  size_t shard_rows(size_t i) const { return shards_[i]->size(); }

  /// Index of the shard holding global row `row` (< size()).
  size_t ShardOf(size_t row) const;

  /// True when every shard boundary is a multiple of `block_rows`, i.e.
  /// no scan block of that size spans two shards, so none is copied.
  bool AlignedTo(size_t block_rows) const;

 protected:
  /// Routes the block: one inside a shard is that shard's read (with the
  /// spec's cancellation context), and one that spans shards is read
  /// from each into one buffer, then delivered.
  Status ScanBlocks(const ScanSpec& spec,
                    const BlockVisitor& visit) const override;

 private:
  ShardedSource(std::vector<std::unique_ptr<PointSource>> shards,
                std::vector<size_t> offsets, size_t rows, size_t cols)
      : shards_(std::move(shards)),
        offsets_(std::move(offsets)),
        rows_(rows),
        cols_(cols) {}

  std::vector<std::unique_ptr<PointSource>> shards_;
  std::vector<size_t> offsets_;  // offsets_[i] = first global row of shard i
  size_t rows_;
  size_t cols_;
};

}  // namespace proclus

#endif  // PROCLUS_DATA_SHARDED_SOURCE_H_
