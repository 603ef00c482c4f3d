#include "data/point_source.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "test_temp.h"

#include "common/rng.h"
#include "data/binary_io.h"
#include "data/fault_source.h"
#include "data/sharded_source.h"

namespace proclus {
namespace {

// Asserts that `status`'s message mentions `substr` (used to pin down the
// diagnostic detail contract: path, byte offset, expected/actual sizes).
void ExpectMessageContains(const Status& status, const std::string& substr) {
  EXPECT_NE(status.message().find(substr), std::string::npos)
      << "status message \"" << status.message()
      << "\" does not contain \"" << substr << "\"";
}

Dataset RandomDataset(size_t n, size_t d, uint64_t seed = 5) {
  Rng rng(seed);
  Matrix m(n, d);
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < d; ++j) m(i, j) = rng.Uniform(-100, 100);
  return Dataset(std::move(m));
}

std::string WriteTempSnapshot(const Dataset& dataset, const char* name) {
  std::string path = TestTempPath(name);
  EXPECT_TRUE(WriteBinaryFile(dataset, path).ok());
  return path;
}

// Reads the source one block per Scan, as the executor does, and
// collects the rows back into one matrix. Every read must call `visit`
// once, with exactly the block asked for.
Matrix CollectScan(const PointSource& source, size_t block_rows) {
  Matrix out(source.size(), source.dims());
  for (size_t first = 0; first < source.size(); first += block_rows) {
    const size_t end = first + std::min(block_rows, source.size() - first);
    size_t visits = 0;
    Status status = source.Scan(
        {.first_row = first, .end_row = end},
        [&](size_t row, std::span<const double> data, size_t rows) {
          ++visits;
          EXPECT_EQ(row, first);
          EXPECT_EQ(rows, end - first);
          EXPECT_EQ(data.size(), rows * source.dims());
          std::copy(data.begin(), data.end(), out.row(row).begin());
        });
    EXPECT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(visits, 1u);
  }
  return out;
}

// Reads rows [first, end) in one Scan, discarding them.
Status ReadBlock(const PointSource& source, size_t first, size_t end) {
  return source.Scan({.first_row = first, .end_row = end},
                     [](size_t, std::span<const double>, size_t) {});
}

TEST(MemorySourceTest, ScanReproducesData) {
  Dataset ds = RandomDataset(100, 4);
  MemorySource source(ds);
  EXPECT_EQ(source.size(), 100u);
  EXPECT_EQ(source.dims(), 4u);
  EXPECT_EQ(CollectScan(source, 16), ds.matrix());
  EXPECT_EQ(CollectScan(source, 100), ds.matrix());
  EXPECT_EQ(CollectScan(source, 1000), ds.matrix());
  EXPECT_EQ(CollectScan(source, 1), ds.matrix());
}

TEST(MemorySourceTest, FetchByIndex) {
  Dataset ds = RandomDataset(50, 3);
  MemorySource source(ds);
  std::vector<size_t> indices{7, 0, 49, 7};
  auto fetched = source.Fetch(indices);
  ASSERT_TRUE(fetched.ok());
  ASSERT_EQ(fetched->rows(), 4u);
  for (size_t r = 0; r < indices.size(); ++r)
    for (size_t j = 0; j < 3; ++j)
      EXPECT_EQ((*fetched)(r, j), ds.at(indices[r], j));
}

TEST(MemorySourceTest, FetchOutOfRange) {
  Dataset ds = RandomDataset(10, 2);
  MemorySource source(ds);
  std::vector<size_t> indices{10};
  EXPECT_EQ(source.Fetch(indices).status().code(),
            StatusCode::kOutOfRange);
}

TEST(MemorySourceTest, InMemoryExposesDataset) {
  Dataset ds = RandomDataset(10, 2);
  MemorySource source(ds);
  EXPECT_EQ(source.InMemory(), &ds);
}

TEST(DiskSourceTest, OpenValidatesFile) {
  EXPECT_EQ(DiskSource::Open("/nonexistent.bin").status().code(),
            StatusCode::kIOError);
  // Not a snapshot.
  std::string junk = TestTempPath("junk.bin");
  {
    std::ofstream out(junk, std::ios::binary);
    out << "this is not a snapshot at all, definitely";
  }
  EXPECT_EQ(DiskSource::Open(junk).status().code(),
            StatusCode::kCorruption);
}

TEST(DiskSourceTest, RejectsTruncatedPayload) {
  Dataset ds = RandomDataset(20, 3);
  std::string path = WriteTempSnapshot(ds, "truncated_source.bin");
  // Truncate the file by a few bytes.
  {
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    bytes.resize(bytes.size() - 10);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  EXPECT_EQ(DiskSource::Open(path).status().code(),
            StatusCode::kCorruption);
}

TEST(DiskSourceTest, ScanMatchesMemory) {
  Dataset ds = RandomDataset(333, 7, 11);
  std::string path = WriteTempSnapshot(ds, "scan_source.bin");
  auto source = DiskSource::Open(path);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  EXPECT_EQ(source->size(), 333u);
  EXPECT_EQ(source->dims(), 7u);
  EXPECT_EQ(CollectScan(*source, 64), ds.matrix());
  EXPECT_EQ(CollectScan(*source, 333), ds.matrix());
  EXPECT_EQ(CollectScan(*source, 1000), ds.matrix());
}

TEST(DiskSourceTest, FetchMatchesMemory) {
  Dataset ds = RandomDataset(100, 5, 13);
  std::string path = WriteTempSnapshot(ds, "fetch_source.bin");
  auto source = DiskSource::Open(path);
  ASSERT_TRUE(source.ok());
  std::vector<size_t> indices{99, 0, 42, 42, 7};
  auto fetched = source->Fetch(indices);
  ASSERT_TRUE(fetched.ok());
  for (size_t r = 0; r < indices.size(); ++r)
    for (size_t j = 0; j < 5; ++j)
      EXPECT_EQ((*fetched)(r, j), ds.at(indices[r], j));
  std::vector<size_t> bad{100};
  EXPECT_EQ(source->Fetch(bad).status().code(), StatusCode::kOutOfRange);
}

TEST(DiskSourceTest, NotInMemory) {
  Dataset ds = RandomDataset(10, 2);
  std::string path = WriteTempSnapshot(ds, "mem_source.bin");
  auto source = DiskSource::Open(path);
  ASSERT_TRUE(source.ok());
  EXPECT_EQ(source->InMemory(), nullptr);
}

// ---------------------------------------------------------------------
// Counter identity semantics.
// ---------------------------------------------------------------------

TEST(PointSourceCountersTest, CopiesAndMovedToStartAtZero) {
  Dataset ds = RandomDataset(64, 4);
  std::string path = WriteTempSnapshot(ds, "counter_source.bin");
  auto opened = DiskSource::Open(path);
  ASSERT_TRUE(opened.ok());
  DiskSource original = *std::move(opened);
  CollectScan(original, 64);
  std::vector<size_t> some{0, 63};
  ASSERT_TRUE(original.Fetch(some).ok());
  IoCounters before = original.io();
  EXPECT_EQ(before.scans, 1u);
  EXPECT_EQ(before.rows_scanned, 64u);
  EXPECT_GT(before.bytes_read, 0u);
  EXPECT_EQ(before.rows_fetched, 2u);

  // Counters are bound to the source's identity, not its data: a copy
  // counts from zero while the original keeps its totals.
  DiskSource copy = original;
  IoCounters copied = copy.io();
  EXPECT_EQ(copied.scans, 0u);
  EXPECT_EQ(copied.rows_scanned, 0u);
  EXPECT_EQ(copied.bytes_read, 0u);
  EXPECT_EQ(copied.rows_fetched, 0u);
  EXPECT_EQ(original.io().scans, before.scans);
  EXPECT_EQ(original.io().bytes_read, before.bytes_read);

  // A moved-to source likewise starts from zero, and still works.
  DiskSource moved = std::move(original);
  IoCounters fresh = moved.io();
  EXPECT_EQ(fresh.scans, 0u);
  EXPECT_EQ(fresh.rows_scanned, 0u);
  EXPECT_EQ(fresh.bytes_read, 0u);
  EXPECT_EQ(fresh.rows_fetched, 0u);
  CollectScan(moved, 64);
  EXPECT_EQ(moved.io().scans, 1u);
  EXPECT_EQ(moved.io().rows_scanned, 64u);
}

// ---------------------------------------------------------------------
// Detailed failure Statuses: every I/O error names the path and the byte
// offset and sizes involved, so a corrupted deployment is diagnosable
// from the message alone.
// ---------------------------------------------------------------------

// Shrinks the file at `path` to `keep` bytes.
void TruncateFile(const std::string& path, size_t keep) {
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  ASSERT_LT(keep, bytes.size());
  bytes.resize(keep);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

// XORs one byte of the file at `path`.
void FlipByte(const std::string& path, size_t offset) {
  std::fstream f(path,
                 std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.good());
  f.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  f.get(byte);
  f.seekp(static_cast<std::streamoff>(offset));
  f.put(static_cast<char>(byte ^ 0x5a));
}

// v2 layout: 24-byte header, 16 bytes of checksum geometry, then the
// XXH64 table, then the payload.
size_t DataOffset(size_t rows, size_t csum_block_rows) {
  const size_t blocks =
      rows / csum_block_rows + (rows % csum_block_rows != 0 ? 1 : 0);
  return 24 + 16 + blocks * sizeof(uint64_t);
}

TEST(DiskSourceTest, ScanErrorNamesPathOffsetAndSizes) {
  Dataset ds = RandomDataset(100, 4);
  std::string path = WriteTempSnapshot(ds, "scan_detail.bin");
  auto source = DiskSource::Open(path);
  ASSERT_TRUE(source.ok());
  // Truncate AFTER opening: Open's up-front size validation has passed,
  // so the failure surfaces mid-scan, in the first read.
  const size_t data_offset = DataOffset(100, kDefaultChecksumBlockRows);
  const size_t row_bytes = 4 * sizeof(double);
  TruncateFile(path, data_offset + 64 * row_bytes);
  Status status = ReadBlock(*source, 0, 32);
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  // The block, rows [0, 32), lies inside checksum block 0,
  // which covers all 100 rows, so its read covers the whole checksum
  // block and runs out of bytes after row 64.
  ExpectMessageContains(status, "'" + path + "'");
  ExpectMessageContains(status, "byte offset " + std::to_string(data_offset));
  ExpectMessageContains(status, "expected " + std::to_string(100 * row_bytes) + " bytes, got " + std::to_string(64 * row_bytes));
}

TEST(DiskSourceTest, FetchErrorNamesPathOffsetAndSizes) {
  Dataset ds = RandomDataset(100, 4);
  std::string path = WriteTempSnapshot(ds, "fetch_detail.bin");
  auto source = DiskSource::Open(path);
  ASSERT_TRUE(source.ok());
  const size_t data_offset = DataOffset(100, kDefaultChecksumBlockRows);
  TruncateFile(path, data_offset + 10 * 4 * sizeof(double));
  std::vector<size_t> indices{99};
  Status status = source->Fetch(indices).status();
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  ExpectMessageContains(status, "fetch of point 99");
  ExpectMessageContains(status, "'" + path + "'");
  ExpectMessageContains(status, "byte offset");
  ExpectMessageContains(status, "expected");
}

// A 104-byte v2 snapshot claiming 2^60 rows x 1 column in checksum blocks
// of one row: header offset + payload length wraps 64 bits to 40, and a
// 2^60-entry checksum table cannot be allocated up front.
void WritePayloadLengthWrapsSnapshot(const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  const uint32_t version = 2;
  const uint64_t fields[] = {uint64_t{1} << 60, 1, 1, uint64_t{1} << 60};
  out.write("PCLS", 4);
  out.write(reinterpret_cast<const char*>(&version), sizeof(version));
  out.write(reinterpret_cast<const char*>(fields), sizeof(fields));
  const std::string digests(64, '\0');
  out << digests;
}

TEST(DiskSourceTest, OpenRejectsAHeaderWhosePayloadLengthWraps) {
  const std::string path = TestTempPath("payload_length_wraps.bin");
  WritePayloadLengthWrapsSnapshot(path);
  // The one header parser rejects it for both readers, without aborting.
  EXPECT_EQ(DiskSource::Open(path).status().code(), StatusCode::kCorruption);
  EXPECT_EQ(ReadBinaryFile(path).status().code(), StatusCode::kCorruption);
}

TEST(DiskSourceTest, OpenTruncationReportsPromisedAndActualSizes) {
  Dataset ds = RandomDataset(20, 3);
  std::string path = WriteTempSnapshot(ds, "open_detail.bin");
  const size_t data_offset = DataOffset(20, kDefaultChecksumBlockRows);
  const size_t full = data_offset + 20 * 3 * sizeof(double);
  TruncateFile(path, full - 10);
  Status status = DiskSource::Open(path).status();
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  ExpectMessageContains(status, "header promises " + std::to_string(full));
  ExpectMessageContains(status, "file has " + std::to_string(full - 10));
}

// ---------------------------------------------------------------------
// Checksum verification (v2 snapshots).
// ---------------------------------------------------------------------

TEST(DiskSourceTest, NewSnapshotsCarryChecksums) {
  Dataset ds = RandomDataset(10, 2);
  std::string path = WriteTempSnapshot(ds, "csum_source.bin");
  auto source = DiskSource::Open(path);
  ASSERT_TRUE(source.ok());
  EXPECT_TRUE(source->verifies_checksums());
}

TEST(DiskSourceTest, ScanDetectsCorruptedBlockWithOffset) {
  // 600 rows x 4 dims with the default 256-row checksum blocks: blocks
  // cover rows [0,256), [256,512), [512,600).
  Dataset ds = RandomDataset(600, 4);
  std::string path = WriteTempSnapshot(ds, "corrupt_scan.bin");
  auto source = DiskSource::Open(path);
  ASSERT_TRUE(source.ok());
  const size_t data_offset = DataOffset(600, kDefaultChecksumBlockRows);
  const size_t row_bytes = 4 * sizeof(double);
  // Flip a byte inside checksum block 1 (row 300).
  FlipByte(path, data_offset + 300 * row_bytes + 3);
  // Blocks inside clean checksum blocks still read; the one over row 300
  // does not.
  EXPECT_TRUE(ReadBlock(*source, 0, 128).ok());
  EXPECT_TRUE(ReadBlock(*source, 512, 600).ok());
  Status status = ReadBlock(*source, 256, 384);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  ExpectMessageContains(status, "checksum mismatch");
  ExpectMessageContains(status, "block 1");
  ExpectMessageContains(status, "byte offset " + std::to_string(data_offset + 256 * row_bytes));
  ExpectMessageContains(status, "expected");
  ExpectMessageContains(status, "computed");
}

TEST(DiskSourceTest, FetchVerifiesOnlyTheContainingBlock) {
  Dataset ds = RandomDataset(600, 4);
  std::string path = WriteTempSnapshot(ds, "corrupt_fetch.bin");
  auto source = DiskSource::Open(path);
  ASSERT_TRUE(source.ok());
  const size_t data_offset = DataOffset(600, kDefaultChecksumBlockRows);
  FlipByte(path, data_offset + 300 * 4 * sizeof(double));
  // Rows in clean blocks still fetch (and match the original data).
  std::vector<size_t> clean{0, 599};
  auto fetched = source->Fetch(clean);
  ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
  for (size_t j = 0; j < 4; ++j) {
    EXPECT_EQ((*fetched)(0, j), ds.at(0, j));
    EXPECT_EQ((*fetched)(1, j), ds.at(599, j));
  }
  // A row inside the damaged block is refused, with the point named.
  std::vector<size_t> dirty{300};
  Status status = source->Fetch(dirty).status();
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  ExpectMessageContains(status, "block 1");
  ExpectMessageContains(status, "fetching point 300");
}

// Hand-writes a version-1 snapshot of `dataset` at `path`: 24-byte
// header, payload, no checksum table.
void WriteV1Snapshot(const Dataset& dataset, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  const char magic[4] = {'P', 'C', 'L', 'S'};
  const uint32_t version = 1;
  const uint64_t rows = dataset.size(), cols = dataset.dims();
  out.write(magic, 4);
  out.write(reinterpret_cast<const char*>(&version), sizeof(version));
  out.write(reinterpret_cast<const char*>(&rows), sizeof(rows));
  out.write(reinterpret_cast<const char*>(&cols), sizeof(cols));
  out.write(reinterpret_cast<const char*>(dataset.matrix().data().data()),
            static_cast<std::streamsize>(rows * cols * sizeof(double)));
}

TEST(DiskSourceTest, V1SnapshotsReadableButUnverified) {
  Dataset ds = RandomDataset(50, 3);
  std::string path = TestTempPath("v1_source.bin");
  WriteV1Snapshot(ds, path);
  auto source = DiskSource::Open(path);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  EXPECT_FALSE(source->verifies_checksums());
  EXPECT_EQ(CollectScan(*source, 16), ds.matrix());
  // Without a checksum table, corruption passes silently — which is why
  // WriteBinary emits version 2 by default.
  FlipByte(path, 24 + 7 * 3 * sizeof(double));
  EXPECT_TRUE(ReadBlock(*source, 0, 16).ok());
}

// ---------------------------------------------------------------------
// The Scan contract, for every source kind: a read calls `visit` once,
// with exactly the rows asked for, bit for bit, and counts one scan.
// ---------------------------------------------------------------------

struct ContractCase {
  std::string name;
  const PointSource* source;
  // The source views dataset rows [offset, offset + source->size()).
  size_t offset;
  // Reads to issue, [first, end); end may run past the source's size.
  std::vector<std::pair<size_t, size_t>> reads;
};

template <typename Source>
const Source* Keep(std::vector<std::unique_ptr<PointSource>>* owned,
                   Result<Source> opened) {
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  owned->push_back(std::make_unique<Source>(std::move(opened).value()));
  return static_cast<const Source*>(owned->back().get());
}

TEST(PointSourceContractTest, OneVisitWithExactlyTheRowsAskedFor) {
  const Dataset ds = RandomDataset(1000, 3, 61);
  const std::string v1_path = TestTempPath("contract_v1.bin");
  WriteV1Snapshot(ds, v1_path);
  // Checksum blocks of 64 rows: a read of [50, 200) straddles four.
  const std::string v2_path = TestTempPath("contract_v2.bin");
  ASSERT_TRUE(WriteBinaryFile(ds, v2_path, 64).ok());

  std::vector<std::unique_ptr<PointSource>> owned;
  const MemorySource whole(ds);
  const MemorySource slice(ds, 200, 500);
  const DiskSource* v1 = Keep(&owned, DiskSource::Open(v1_path));
  const DiskSource* v2 = Keep(&owned, DiskSource::Open(v2_path));
  ASSERT_FALSE(v1->verifies_checksums());
  ASSERT_TRUE(v2->verifies_checksums());
  // 4 shards aligned to 64 rows (192-row shards, the last 424), and 8
  // shards of 125 rows, where [100, 300) spans shards 0, 1 and 2.
  const ShardedSource* aligned =
      Keep(&owned, ShardedSource::FromDataset(ds, 4, 64));
  const ShardedSource* ragged =
      Keep(&owned, ShardedSource::FromDataset(ds, 8, 1));
  ASSERT_TRUE(aligned->AlignedTo(64));
  ASSERT_EQ(ragged->ShardOf(100), 0u);
  ASSERT_EQ(ragged->ShardOf(299), 2u);
  const FaultInjectingPointSource clean(whole, FaultPlan{});

  const size_t n = ds.size();
  const std::vector<ContractCase> cases = {
      {"memory", &whole, 0, {{0, n}, {0, 1}, {n - 1, n}, {100, 356}}},
      {"memory slice", &slice, 200, {{0, 500}, {37, 101}, {499, 500}}},
      {"disk v1", v1, 0, {{0, n}, {5, 260}, {n - 1, n}}},
      {"disk v2", v2, 0, {{0, n}, {50, 200}, {64, 128}, {990, n}}},
      {"shards aligned", aligned, 0, {{0, n}, {192, 384}, {0, 64}}},
      {"shards ragged", ragged, 0, {{100, 300}, {0, n}, {125, 250}}},
      {"fault injector", &clean, 0, {{0, n}, {10, 20}}},
  };
  for (const ContractCase& c : cases) {
    SCOPED_TRACE(c.name);
    const PointSource& source = *c.source;
    const size_t size = source.size();
    std::vector<std::pair<size_t, size_t>> reads = c.reads;
    // end_row is clamped to the source's size.
    reads.emplace_back(size - 5, std::numeric_limits<size_t>::max());
    for (const auto& [first, end] : reads) {
      SCOPED_TRACE("rows [" + std::to_string(first) + ", " +
                   std::to_string(end) + ")");
      const size_t want = std::min(end, size) - first;
      const uint64_t scans_before = source.io().scans;
      size_t visits = 0;
      Status status = source.Scan(
          {.first_row = first, .end_row = end},
          [&](size_t row, std::span<const double> data, size_t rows) {
            ++visits;
            EXPECT_EQ(row, first);
            ASSERT_EQ(rows, want);
            ASSERT_EQ(data.size(), want * ds.dims());
            EXPECT_EQ(std::memcmp(data.data(), ds.point(c.offset + row).data(),
                                  data.size() * sizeof(double)),
                      0);
          });
      ASSERT_TRUE(status.ok()) << status.ToString();
      EXPECT_EQ(visits, 1u);
      EXPECT_EQ(source.io().scans, scans_before + 1);
    }

    // An empty range reads nothing; a range past the end is refused.
    const uint64_t scans_before = source.io().scans;
    for (size_t at : {size_t{0}, size_t{3}, size}) {
      size_t visits = 0;
      EXPECT_TRUE(source
                      .Scan({.first_row = at, .end_row = at},
                            [&](size_t, std::span<const double>,
                                size_t) { ++visits; })
                      .ok());
      EXPECT_EQ(visits, 0u);
    }
    EXPECT_EQ(source.io().scans, scans_before);
    EXPECT_EQ(ReadBlock(source, size + 1, size + 2).code(),
              StatusCode::kOutOfRange);
  }
  EXPECT_EQ(whole.InMemory(), &ds);
  EXPECT_EQ(slice.InMemory(), nullptr);
  EXPECT_EQ(MemorySource(ds, 0, n - 1).InMemory(), nullptr);
  EXPECT_EQ(MemorySource(ds, 0, n).InMemory(), &ds);
}

}  // namespace
}  // namespace proclus
