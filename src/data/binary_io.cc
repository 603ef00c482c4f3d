#include "data/binary_io.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>

#include "common/hash.h"

namespace proclus {

namespace {
constexpr char kMagic[4] = {'P', 'C', 'L', 'S'};
constexpr uint32_t kVersionPlain = 1;
constexpr uint32_t kVersionChecksummed = 2;

// Chunk size (in doubles) for the incremental payload read: 512 KiB. Reading
// incrementally means a hostile header can never force an allocation larger
// than the bytes actually present in the stream.
constexpr size_t kChunkElems = size_t{1} << 16;

template <typename T>
void PutRaw(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool GetRaw(std::istream& in, T* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  return static_cast<bool>(in);
}

constexpr char kManifestMagic[4] = {'P', 'C', 'S', 'M'};
constexpr uint32_t kManifestVersion = 1;
// Upper bound on a shard file name in a manifest; anything longer is a
// hostile or corrupted length field.
constexpr uint64_t kMaxShardNameBytes = 4096;

// Bytes remaining in `in` from the current position, or -1 if the stream is
// not seekable (e.g. a pipe).
std::streamoff RemainingBytes(std::istream& in) {
  std::streampos cur = in.tellg();
  if (cur == std::streampos(-1)) return -1;
  in.seekg(0, std::ios::end);
  std::streampos end = in.tellg();
  in.seekg(cur);
  if (end == std::streampos(-1) || !in) {
    in.clear();
    in.seekg(cur);
    return -1;
  }
  return end - cur;
}

}  // namespace

Status ReadSnapshotHeader(std::istream& in, SnapshotHeader* header) {
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
    return Status::Corruption("bad magic; not a PROCLUS binary dataset");
  if (!GetRaw(in, &header->version))
    return Status::Corruption("truncated header");
  if (header->version != kVersionPlain &&
      header->version != kVersionChecksummed)
    return Status::Corruption("unsupported version " +
                              std::to_string(header->version));
  if (!GetRaw(in, &header->rows) || !GetRaw(in, &header->cols))
    return Status::Corruption("truncated header");
  const uint64_t rows = header->rows;
  const uint64_t cols = header->cols;
  if (rows > 0 && cols == 0)
    return Status::Corruption("degenerate shape: " + std::to_string(rows) +
                              " points of dimension 0");
  // rows*cols and rows*cols*sizeof(double) must both be computable without
  // overflow before any of them is used for allocation or arithmetic.
  if (cols > 0 && rows > std::numeric_limits<uint64_t>::max() / cols)
    return Status::Corruption("element count overflows");
  if (rows * cols > std::numeric_limits<uint64_t>::max() / sizeof(double))
    return Status::Corruption("payload size overflows");

  // v2: checksum geometry + table precede the payload. The block count is
  // validated against the header shape before it sizes any allocation.
  header->checksum_block_rows = 0;
  header->checksums.clear();
  if (header->version == kVersionChecksummed) {
    uint64_t num_blocks = 0;
    if (!GetRaw(in, &header->checksum_block_rows) ||
        !GetRaw(in, &num_blocks))
      return Status::Corruption("truncated checksum header");
    if (header->checksum_block_rows == 0)
      return Status::Corruption("checksum_block_rows must be positive");
    const uint64_t expected_blocks =
        rows / header->checksum_block_rows +
        (rows % header->checksum_block_rows != 0 ? 1 : 0);
    if (num_blocks != expected_blocks)
      return Status::Corruption(
          "checksum table has " + std::to_string(num_blocks) +
          " blocks, shape implies " + std::to_string(expected_blocks));
    // Incremental read, same rationale as the payload: a hostile block
    // count cannot force an allocation larger than the bytes present.
    header->checksums.reserve(static_cast<size_t>(
        std::min<uint64_t>(num_blocks, kChunkElems)));
    while (header->checksums.size() < num_blocks) {
      const size_t take = static_cast<size_t>(std::min<uint64_t>(
          kChunkElems, num_blocks - header->checksums.size()));
      const size_t old = header->checksums.size();
      header->checksums.resize(old + take);
      in.read(reinterpret_cast<char*>(header->checksums.data() + old),
              static_cast<std::streamsize>(take * sizeof(uint64_t)));
      if (!in) return Status::Corruption("truncated checksum table");
    }
  }
  return Status::OK();
}

Status WriteBinary(const Dataset& dataset, std::ostream& out,
                   uint64_t checksum_block_rows) {
  if (checksum_block_rows == 0)
    return Status::InvalidArgument("checksum_block_rows must be positive");
  const uint64_t rows = dataset.size();
  const uint64_t cols = dataset.dims();
  const uint64_t num_blocks =
      rows / checksum_block_rows + (rows % checksum_block_rows != 0 ? 1 : 0);
  out.write(kMagic, sizeof(kMagic));
  PutRaw(out, kVersionChecksummed);
  PutRaw(out, rows);
  PutRaw(out, cols);
  PutRaw(out, checksum_block_rows);
  PutRaw(out, num_blocks);
  const auto& data = dataset.matrix().data();
  for (uint64_t b = 0; b < num_blocks; ++b) {
    const uint64_t first = b * checksum_block_rows;
    const uint64_t block_rows = std::min(checksum_block_rows, rows - first);
    PutRaw(out, Xxh64::Hash(data.data() + first * cols,
                            static_cast<size_t>(block_rows * cols) *
                                sizeof(double)));
  }
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size() * sizeof(double)));
  if (!out) return Status::IOError("binary write failed");
  return Status::OK();
}

Status WriteBinaryFile(const Dataset& dataset, const std::string& path,
                       uint64_t checksum_block_rows) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open '" + path + "' for writing");
  return WriteBinary(dataset, out, checksum_block_rows);
}

Result<Dataset> ReadBinary(std::istream& in) {
  SnapshotHeader header;
  PROCLUS_RETURN_IF_ERROR(ReadSnapshotHeader(in, &header));
  const uint64_t rows = header.rows;
  const uint64_t cols = header.cols;
  const uint64_t count64 = rows * cols;
  if (count64 > std::numeric_limits<size_t>::max() / sizeof(double))
    return Status::Corruption("payload size overflows size_t");
  const size_t count = static_cast<size_t>(count64);
  const uint64_t csum_block_rows = header.checksum_block_rows;
  const std::vector<uint64_t>& checksums = header.checksums;

  // Fast-fail on seekable streams: a header promising more payload than the
  // stream holds is rejected before any allocation happens.
  std::streamoff remaining = RemainingBytes(in);
  if (remaining >= 0 &&
      static_cast<uint64_t>(remaining) < count64 * sizeof(double)) {
    return Status::Corruption(
        "truncated payload: header promises " +
        std::to_string(count64 * sizeof(double)) + " bytes, stream has " +
        std::to_string(remaining));
  }

  // Incremental read: memory grows with bytes actually present, so even a
  // non-seekable stream with a hostile header cannot trigger a huge upfront
  // allocation.
  std::vector<double> data;
  data.reserve(std::min(count, kChunkElems));
  while (data.size() < count) {
    const size_t take = std::min(kChunkElems, count - data.size());
    const size_t old = data.size();
    data.resize(old + take);
    in.read(reinterpret_cast<char*>(data.data() + old),
            static_cast<std::streamsize>(take * sizeof(double)));
    if (!in) return Status::Corruption("truncated payload");
  }

  if (!checksums.empty()) {
    for (size_t b = 0; b < checksums.size(); ++b) {
      const uint64_t first = static_cast<uint64_t>(b) * csum_block_rows;
      const uint64_t block_rows = std::min<uint64_t>(csum_block_rows,
                                                     rows - first);
      const size_t block_bytes =
          static_cast<size_t>(block_rows * cols) * sizeof(double);
      const uint64_t actual =
          Xxh64::Hash(data.data() + static_cast<size_t>(first * cols),
                      block_bytes);
      if (actual != checksums[b]) {
        return Status::DataLoss(
            "checksum mismatch in block " + std::to_string(b) + " (rows " +
            std::to_string(first) + ".." + std::to_string(first + block_rows) +
            "): expected " + std::to_string(checksums[b]) + ", computed " +
            std::to_string(actual));
      }
    }
  }
  return Dataset(Matrix(static_cast<size_t>(rows), static_cast<size_t>(cols),
                        std::move(data)));
}

Result<Dataset> ReadBinaryFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open '" + path + "' for reading");
  return ReadBinary(in);
}

Result<std::string> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open '" + path + "' for reading");
  in.seekg(0, std::ios::end);
  const std::streampos end = in.tellg();
  if (end == std::streampos(-1))
    return Status::IOError("cannot determine size of '" + path + "'");
  in.seekg(0);
  std::string bytes(static_cast<size_t>(end), '\0');
  in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!in) {
    return Status::IOError("short read of '" + path + "' at byte offset " +
                           std::to_string(in.gcount()) + ": expected " +
                           std::to_string(bytes.size()) + " bytes, got " +
                           std::to_string(in.gcount()));
  }
  return bytes;
}

Status WriteShardManifest(const ShardManifest& manifest,
                          const std::string& path) {
  if (manifest.shards.empty())
    return Status::InvalidArgument("manifest has no shards");
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open '" + path + "' for writing");
  out.write(kManifestMagic, sizeof(kManifestMagic));
  PutRaw(out, kManifestVersion);
  PutRaw(out, static_cast<uint64_t>(manifest.shards.size()));
  PutRaw(out, manifest.rows);
  PutRaw(out, manifest.cols);
  PutRaw(out, manifest.checksum_block_rows);
  for (const ShardManifest::Entry& entry : manifest.shards) {
    PutRaw(out, entry.rows);
    PutRaw(out, static_cast<uint64_t>(entry.file.size()));
    out.write(entry.file.data(),
              static_cast<std::streamsize>(entry.file.size()));
  }
  if (!out) return Status::IOError("manifest write to '" + path + "' failed");
  return Status::OK();
}

Result<ShardManifest> ReadShardManifest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open '" + path + "' for reading");
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kManifestMagic, sizeof(kManifestMagic)) != 0)
    return Status::Corruption("'" + path + "' is not a shard manifest");
  uint32_t version;
  if (!GetRaw(in, &version))
    return Status::Corruption("'" + path + "' has a truncated header");
  if (version != kManifestVersion)
    return Status::Corruption("unsupported shard manifest version " +
                              std::to_string(version));
  uint64_t num_shards;
  ShardManifest manifest;
  if (!GetRaw(in, &num_shards) || !GetRaw(in, &manifest.rows) ||
      !GetRaw(in, &manifest.cols) ||
      !GetRaw(in, &manifest.checksum_block_rows))
    return Status::Corruption("'" + path + "' has a truncated header");
  if (num_shards == 0)
    return Status::Corruption("'" + path + "' lists no shards");
  if (manifest.rows > 0 && manifest.cols == 0)
    return Status::Corruption("'" + path +
                              "' has points of dimension 0");
  uint64_t listed_rows = 0;
  for (uint64_t s = 0; s < num_shards; ++s) {
    ShardManifest::Entry entry;
    uint64_t name_len;
    if (!GetRaw(in, &entry.rows) || !GetRaw(in, &name_len))
      return Status::Corruption("'" + path +
                                "' has a truncated shard table (entry " +
                                std::to_string(s) + " of " +
                                std::to_string(num_shards) + ")");
    if (name_len == 0 || name_len > kMaxShardNameBytes)
      return Status::Corruption("'" + path + "' shard " + std::to_string(s) +
                                " has an invalid name length " +
                                std::to_string(name_len));
    entry.file.resize(static_cast<size_t>(name_len));
    in.read(entry.file.data(), static_cast<std::streamsize>(name_len));
    if (!in)
      return Status::Corruption("'" + path +
                                "' has a truncated shard table (entry " +
                                std::to_string(s) + " of " +
                                std::to_string(num_shards) + ")");
    listed_rows += entry.rows;
    manifest.shards.push_back(std::move(entry));
  }
  if (listed_rows != manifest.rows)
    return Status::Corruption(
        "'" + path + "' promises " + std::to_string(manifest.rows) +
        " rows but its shards list " + std::to_string(listed_rows));
  return manifest;
}

Result<std::string> SplitIntoShards(const std::string& snapshot_path,
                                    const std::string& out_prefix,
                                    const ShardSplitOptions& options) {
  if (options.num_shards == 0)
    return Status::InvalidArgument("num_shards must be > 0");
  if (options.align_rows == 0)
    return Status::InvalidArgument("align_rows must be > 0");
  if (options.checksum_block_rows == 0)
    return Status::InvalidArgument("checksum_block_rows must be positive");
  std::ifstream in(snapshot_path, std::ios::binary);
  if (!in)
    return Status::IOError("cannot open '" + snapshot_path +
                           "' for reading");
  SnapshotHeader header;
  PROCLUS_RETURN_IF_ERROR(ReadSnapshotHeader(in, &header));
  const uint64_t rows = header.rows;
  const uint64_t cols = header.cols;

  // Aligned partition: shards 0..k-2 hold `per` rows (a multiple of
  // align_rows when the snapshot is large enough), the last shard holds
  // the remainder. See ShardSplitOptions::align_rows.
  const uint64_t k = std::max<uint64_t>(
      1, std::min<uint64_t>(options.num_shards, std::max<uint64_t>(1, rows)));
  uint64_t per = rows / k / options.align_rows * options.align_rows;
  if (per == 0) per = std::max<uint64_t>(1, rows / k);

  // Streaming state: the input's own checksum blocks are verified as the
  // payload passes through, independent of shard boundaries (a block may
  // straddle two shards).
  Xxh64 in_hasher;
  size_t in_block = 0;
  uint64_t in_rows_in_block = 0;
  uint64_t rows_streamed = 0;
  const bool verify = !header.checksums.empty();

  const size_t chunk_rows = static_cast<size_t>(std::max<uint64_t>(
      1, kChunkElems / std::max<uint64_t>(1, cols)));
  const size_t row_bytes = static_cast<size_t>(cols) * sizeof(double);
  std::vector<double> buffer(chunk_rows * static_cast<size_t>(cols));

  std::string base = out_prefix;
  const size_t slash = base.find_last_of('/');
  if (slash != std::string::npos) base = base.substr(slash + 1);

  ShardManifest manifest;
  manifest.rows = rows;
  manifest.cols = cols;
  manifest.checksum_block_rows = options.checksum_block_rows;

  for (uint64_t s = 0; s < k; ++s) {
    const uint64_t shard_rows = s + 1 == k ? rows - per * (k - 1) : per;
    const std::string name = ".shard" + std::to_string(s) + ".bin";
    const std::string shard_path = out_prefix + name;
    std::ofstream out(shard_path, std::ios::binary);
    if (!out)
      return Status::IOError("cannot open '" + shard_path +
                             "' for writing");
    const uint64_t num_blocks =
        shard_rows / options.checksum_block_rows +
        (shard_rows % options.checksum_block_rows != 0 ? 1 : 0);
    out.write(kMagic, sizeof(kMagic));
    PutRaw(out, kVersionChecksummed);
    PutRaw(out, shard_rows);
    PutRaw(out, cols);
    PutRaw(out, options.checksum_block_rows);
    PutRaw(out, num_blocks);
    // Placeholder table, patched below once the streamed payload has been
    // hashed — the shard's checksums are computed in the same pass that
    // writes its bytes, so the shard payload is never buffered whole.
    const std::streampos table_pos = out.tellp();
    for (uint64_t b = 0; b < num_blocks; ++b) PutRaw(out, uint64_t{0});

    std::vector<uint64_t> table;
    table.reserve(static_cast<size_t>(num_blocks));
    Xxh64 out_hasher;
    uint64_t out_rows_in_block = 0;
    uint64_t shard_streamed = 0;
    while (shard_streamed < shard_rows) {
      const size_t take = static_cast<size_t>(std::min<uint64_t>(
          chunk_rows, shard_rows - shard_streamed));
      in.read(reinterpret_cast<char*>(buffer.data()),
              static_cast<std::streamsize>(take * row_bytes));
      if (!in)
        return Status::Corruption("'" + snapshot_path +
                                  "' has a truncated payload");
      if (verify) {
        // Feed the chunk through the input's checksum blocks.
        const char* p = reinterpret_cast<const char*>(buffer.data());
        size_t left = take;
        while (left > 0) {
          const size_t span = static_cast<size_t>(std::min<uint64_t>(
              header.checksum_block_rows - in_rows_in_block, left));
          in_hasher.Update(p, span * row_bytes);
          p += span * row_bytes;
          left -= span;
          in_rows_in_block += span;
          rows_streamed += span;
          if (in_rows_in_block == header.checksum_block_rows ||
              rows_streamed == rows) {
            const uint64_t digest = in_hasher.Digest();
            if (digest != header.checksums[in_block]) {
              return Status::DataLoss(
                  "checksum mismatch in '" + snapshot_path + "' block " +
                  std::to_string(in_block) + ": expected " +
                  std::to_string(header.checksums[in_block]) +
                  ", computed " + std::to_string(digest));
            }
            in_hasher.Reset();
            ++in_block;
            in_rows_in_block = 0;
          }
        }
      } else {
        rows_streamed += take;
      }
      {
        // Feed the same chunk through the shard's own checksum blocks.
        const char* p = reinterpret_cast<const char*>(buffer.data());
        size_t left = take;
        while (left > 0) {
          const size_t span = static_cast<size_t>(std::min<uint64_t>(
              options.checksum_block_rows - out_rows_in_block, left));
          out_hasher.Update(p, span * row_bytes);
          p += span * row_bytes;
          left -= span;
          out_rows_in_block += span;
          shard_streamed += span;
          if (out_rows_in_block == options.checksum_block_rows ||
              shard_streamed == shard_rows) {
            table.push_back(out_hasher.Digest());
            out_hasher.Reset();
            out_rows_in_block = 0;
          }
        }
      }
      out.write(reinterpret_cast<const char*>(buffer.data()),
                static_cast<std::streamsize>(take * row_bytes));
      if (!out)
        return Status::IOError("shard write to '" + shard_path +
                               "' failed");
    }
    out.seekp(table_pos);
    out.write(reinterpret_cast<const char*>(table.data()),
              static_cast<std::streamsize>(table.size() * sizeof(uint64_t)));
    if (!out)
      return Status::IOError("shard write to '" + shard_path + "' failed");
    ShardManifest::Entry entry;
    entry.rows = shard_rows;
    entry.file = base + name;
    manifest.shards.push_back(std::move(entry));
  }

  const std::string manifest_path = out_prefix + ".pcsm";
  PROCLUS_RETURN_IF_ERROR(WriteShardManifest(manifest, manifest_path));
  return manifest_path;
}

}  // namespace proclus
