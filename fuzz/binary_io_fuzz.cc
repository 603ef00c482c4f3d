// Binary snapshot loader harness: the input bytes are the untrusted file.
// Hostile headers (bad magic, truncation, element counts that overflow
// size_t multiplication, payloads larger than the stream) must yield Status
// errors without large allocations; accepted parses must have a consistent
// shape and re-serialize to a stable byte string (bitwise idempotent even
// for NaN payloads).
//
// Differential half: the same bytes, written to a per-process temp file,
// are opened with DiskSource::Open and read through the scan executor.
// Whatever ReadBinary accepts, the disk read path must accept too and
// deliver the same rows bit for bit (scans at block sizes 7 and 8192, and
// Fetch of the first and last row); an input ReadBinary rejects only for a
// checksum mismatch must make the scan return DataLoss. Every accepted
// dataset is also scanned through an unaligned 3-shard memory set at block
// size 7, so that blocks span shards, and must arrive bit for bit.

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "data/binary_io.h"
#include "data/engine.h"
#include "data/point_source.h"
#include "data/sharded_source.h"

namespace {

// Copies every delivered block into a row-major matrix at its rows.
class CopyConsumer final : public proclus::ScanConsumer {
 public:
  proclus::Status Prepare(const proclus::ScanGeometry& geometry) override {
    values_.assign(geometry.rows * geometry.dims, 0.0);
    dims_ = geometry.dims;
    return proclus::Status::OK();
  }
  void ConsumeBlock(size_t /*block_index*/, size_t first_row,
                    std::span<const double> data, size_t rows) override {
    PROCLUS_CHECK(data.size() == rows * dims_);
    std::memcpy(values_.data() + first_row * dims_, data.data(),
                data.size() * sizeof(double));
  }
  proclus::Status Merge() override { return proclus::Status::OK(); }

  const std::vector<double>& values() const { return values_; }

 private:
  std::vector<double> values_;
  size_t dims_ = 0;
};

bool SameBits(const double* a, const double* b, size_t count) {
  return count == 0 || std::memcmp(a, b, count * sizeof(double)) == 0;
}

proclus::Status ScanAll(const proclus::PointSource& source, size_t block_rows,
                        CopyConsumer* consumer) {
  proclus::ScanOptions options;
  options.num_threads = 2;
  options.block_rows = block_rows;
  options.retry.max_attempts = 1;
  return proclus::ScanExecutor(options).Run(source, {consumer});
}

// Checks the disk read path against ReadBinary's verdict on `bytes`.
void CheckDiskReadPath(const std::string& bytes,
                       const proclus::Result<proclus::Dataset>& parsed) {
  const bool accepted = parsed.ok();
  const bool checksum_only =
      !accepted && parsed.status().code() == proclus::StatusCode::kDataLoss;
  if (!accepted && !checksum_only) return;

  static const std::string path =
      (std::filesystem::temp_directory_path() /
       ("proclus_binary_io_fuzz_" + std::to_string(::getpid()) + ".bin"))
          .string();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    PROCLUS_CHECK(static_cast<bool>(out));
  }
  {
    auto disk = proclus::DiskSource::Open(path);
    PROCLUS_CHECK(disk.ok());
    for (size_t block_rows : {size_t{7}, size_t{8192}}) {
      CopyConsumer consumer;
      const proclus::Status status = ScanAll(*disk, block_rows, &consumer);
      if (checksum_only) {
        PROCLUS_CHECK(status.code() == proclus::StatusCode::kDataLoss);
        continue;
      }
      PROCLUS_CHECK(status.ok());
      const proclus::Dataset& ds = *parsed;
      PROCLUS_CHECK(disk->size() == ds.size() && disk->dims() == ds.dims());
      PROCLUS_CHECK(SameBits(consumer.values().data(),
                             ds.matrix().data().data(),
                             ds.matrix().data().size()));
    }
    if (accepted && parsed->size() > 0) {
      const proclus::Dataset& ds = *parsed;
      const std::vector<size_t> ends = {0, ds.size() - 1};
      auto fetched = disk->Fetch(ends);
      PROCLUS_CHECK(fetched.ok());
      for (size_t r = 0; r < ends.size(); ++r)
        PROCLUS_CHECK(SameBits(fetched->row(r).data(),
                               ds.point(ends[r]).data(), ds.dims()));
    }
  }
  std::remove(path.c_str());
}

// Scans `ds` through 3 memory shards whose boundaries (at thirds of the
// rows) fall inside 7-row blocks, and checks the rows against `ds`.
void CheckShardedReadPath(const proclus::Dataset& ds) {
  auto sharded = proclus::ShardedSource::FromDataset(ds, 3, 1);
  PROCLUS_CHECK(sharded.ok());
  CopyConsumer consumer;
  PROCLUS_CHECK(ScanAll(*sharded, 7, &consumer).ok());
  PROCLUS_CHECK(SameBits(consumer.values().data(), ds.matrix().data().data(),
                         ds.matrix().data().size()));
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string bytes(reinterpret_cast<const char*>(data), size);
  std::istringstream in(bytes, std::ios::binary);
  auto result = proclus::ReadBinary(in);
  CheckDiskReadPath(bytes, result);
  if (!result.ok()) return 0;

  const proclus::Dataset& ds = *result;
  PROCLUS_CHECK(ds.matrix().data().size() == ds.size() * ds.dims());
  PROCLUS_CHECK(ds.dims() > 0 || ds.size() == 0);
  CheckShardedReadPath(ds);

  std::ostringstream out(std::ios::binary);
  PROCLUS_CHECK(proclus::WriteBinary(ds, out).ok());
  const std::string serialized = out.str();
  std::istringstream back_in(serialized, std::ios::binary);
  auto back = proclus::ReadBinary(back_in);
  PROCLUS_CHECK(back.ok());
  std::ostringstream out2(std::ios::binary);
  PROCLUS_CHECK(proclus::WriteBinary(*back, out2).ok());
  PROCLUS_CHECK(out2.str() == serialized);
  return 0;
}
