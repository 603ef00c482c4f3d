// Checkpoint/resume tests:
//
//  * The "PCKP" binary round-trips every field of ProclusCheckpoint.
//  * Damaged input — truncation anywhere, bit flips, bad magic, an
//    unknown version, trailing bytes — is rejected with a Status and is
//    never partially consumed; a missing file is NotFound ("start
//    fresh"); file writes are atomic.
//  * A checkpoint is bound to its run configuration: resuming under
//    different parameters is an error, not silent nonsense, and the
//    configuration digest is pinned so older checkpoints stay resumable.
//  * The headline guarantee: a run killed mid-climb and resumed from its
//    checkpoint produces a result bit-identical to the uninterrupted
//    run — across memory/disk/sharded sources and thread counts (the
//    checkpoint format is agnostic of the scan engine and the thread
//    count).

#include "core/model_io.h"

#include <gtest/gtest.h>

#include "test_temp.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/hash.h"
#include "core/proclus.h"
#include "data/binary_io.h"
#include "data/engine.h"
#include "data/fault_source.h"
#include "data/sharded_source.h"
#include "gen/synthetic.h"

namespace proclus {
namespace {

uint64_t ObjectiveBits(double objective) {
  uint64_t bits = 0;
  std::memcpy(&bits, &objective, sizeof(bits));
  return bits;
}

// A checkpoint with every field set to a distinctive value.
ProclusCheckpoint SampleCheckpoint() {
  ProclusCheckpoint ck;
  ck.fingerprint = 0x1122334455667788ULL;
  ck.num_dims = 8;
  ck.restart = 1;
  ck.rng.state[0] = 11;
  ck.rng.state[1] = 22;
  ck.rng.state[2] = 33;
  ck.rng.state[3] = 44;
  ck.rng.normal_spare = 0.625;
  ck.rng.has_normal_spare = true;
  ck.candidates = {3, 14, 15, 92, 65};
  ck.current = {0, 2, 4};
  ck.climb.objective = 2.5;
  ck.climb.slots = {1, 2, 3};
  ck.climb.dims = {{0, 3}, {1, 2, 5}, {6, 7}};
  ck.climb.labels = {0, 1, 2, 0, 1, -1};
  ck.climb.iterations = 17;
  ck.climb.improvements = 4;
  ck.bad = {2};
  ck.since_improvement = 3;
  ck.best.objective = 3.75;
  ck.best.slots = {0, 1, 4};
  ck.best.dims = {{0, 1}, {2, 3}, {4, 5, 6}};
  ck.best.labels = {1, 1, 0, 2, 2, 0};
  ck.best.iterations = 40;
  ck.best.improvements = 9;
  return ck;
}

void ExpectRecordEq(const ClimbRecord& a, const ClimbRecord& b) {
  EXPECT_EQ(ObjectiveBits(a.objective), ObjectiveBits(b.objective));
  EXPECT_EQ(a.slots, b.slots);
  EXPECT_EQ(a.dims, b.dims);
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.improvements, b.improvements);
}

void ExpectCheckpointEq(const ProclusCheckpoint& a,
                        const ProclusCheckpoint& b) {
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.num_dims, b.num_dims);
  EXPECT_EQ(a.restart, b.restart);
  EXPECT_TRUE(a.rng == b.rng);
  EXPECT_EQ(a.candidates, b.candidates);
  EXPECT_EQ(a.current, b.current);
  ExpectRecordEq(a.climb, b.climb);
  EXPECT_EQ(a.bad, b.bad);
  EXPECT_EQ(a.since_improvement, b.since_improvement);
  ExpectRecordEq(a.best, b.best);
}

std::string SerializeToString(const ProclusCheckpoint& ck) {
  std::ostringstream out;
  EXPECT_TRUE(SaveCheckpoint(ck, out).ok());
  return out.str();
}

TEST(CheckpointFormatTest, RoundTripPreservesEveryField) {
  ProclusCheckpoint ck = SampleCheckpoint();
  std::istringstream in(SerializeToString(ck));
  auto loaded = LoadCheckpoint(in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectCheckpointEq(*loaded, ck);
}

TEST(CheckpointFormatTest, RoundTripPreservesDefaultInfinities) {
  // A checkpoint captured before any evaluation carries +inf objectives.
  ProclusCheckpoint ck;
  ck.num_dims = 4;
  std::istringstream in(SerializeToString(ck));
  auto loaded = LoadCheckpoint(in);
  ASSERT_TRUE(loaded.ok());
  ExpectCheckpointEq(*loaded, ck);
}

TEST(CheckpointFormatTest, EveryTruncationIsRejectedNotCrashed) {
  std::string bytes = SerializeToString(SampleCheckpoint());
  for (size_t keep = 0; keep < bytes.size(); ++keep) {
    std::istringstream in(bytes.substr(0, keep));
    auto loaded = LoadCheckpoint(in);
    EXPECT_FALSE(loaded.ok()) << "prefix of " << keep << " bytes parsed";
  }
}

TEST(CheckpointFormatTest, BitFlipFailsTheIntegrityTrailer) {
  std::string bytes = SerializeToString(SampleCheckpoint());
  for (size_t offset : {size_t{9}, bytes.size() / 2, bytes.size() - 9}) {
    std::string damaged = bytes;
    damaged[offset] = static_cast<char>(damaged[offset] ^ 0x40);
    std::istringstream in(damaged);
    auto loaded = LoadCheckpoint(in);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
        << "flip at " << offset << ": " << loaded.status().ToString();
  }
}

TEST(CheckpointFormatTest, BadMagicIsCorruption) {
  std::string bytes = SerializeToString(SampleCheckpoint());
  bytes[0] = 'X';
  std::istringstream in(bytes);
  auto loaded = LoadCheckpoint(in);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST(CheckpointFormatTest, UnknownVersionIsCorruption) {
  std::string bytes = SerializeToString(SampleCheckpoint());
  // Patch the version field (offset 4) and recompute the trailer so that
  // ONLY the version is wrong.
  const uint32_t version = 99;
  std::memcpy(bytes.data() + 4, &version, sizeof(version));
  const uint64_t trailer = Xxh64::Hash(bytes.data(), bytes.size() - 8);
  std::memcpy(bytes.data() + bytes.size() - 8, &trailer, sizeof(trailer));
  std::istringstream in(bytes);
  auto loaded = LoadCheckpoint(in);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  EXPECT_NE(loaded.status().message().find("version"), std::string::npos);
}

TEST(CheckpointFormatTest, TrailingBytesAreRejected) {
  std::string bytes = SerializeToString(SampleCheckpoint());
  bytes += "extra";
  std::istringstream in(bytes);
  EXPECT_FALSE(LoadCheckpoint(in).ok());
}

TEST(CheckpointFileTest, MissingFileIsNotFound) {
  auto loaded =
      LoadCheckpointFile(TestTempPath("does_not_exist.pckp"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(CheckpointFileTest, SaveIsAtomicAndReplacesPrior) {
  const std::string path = TestTempPath("atomic.pckp");
  std::remove(path.c_str());
  ProclusCheckpoint first = SampleCheckpoint();
  ASSERT_TRUE(SaveCheckpointFile(first, path).ok());
  ProclusCheckpoint second = SampleCheckpoint();
  second.climb.iterations = 99;
  ASSERT_TRUE(SaveCheckpointFile(second, path).ok());
  // No temp residue, and the file holds the latest save.
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  auto loaded = LoadCheckpointFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->climb.iterations, 99u);
}

// ---------------------------------------------------------------------
// End-to-end checkpoint/resume through RunProclusOnSource.
// ---------------------------------------------------------------------

struct Fixture {
  SyntheticData data;
  std::string disk_path;
};

// `name` keeps the on-disk snapshot unique per test: ctest may run the
// tests of this binary concurrently, and two tests rewriting one file
// race a reader against a truncated writer.
Fixture MakeFixture(const std::string& name) {
  GeneratorParams gen;
  gen.num_points = 2000;
  gen.space_dims = 8;
  gen.num_clusters = 3;
  gen.cluster_dim_counts = {3, 3, 3};
  gen.seed = 11;
  auto data = GenerateSynthetic(gen);
  EXPECT_TRUE(data.ok());
  Fixture fixture;
  fixture.data = std::move(data).value();
  fixture.disk_path = TestTempPath(name + "_fixture.bin");
  EXPECT_TRUE(
      WriteBinaryFile(fixture.data.dataset, fixture.disk_path).ok());
  return fixture;
}

ProclusParams BaseParams() {
  ProclusParams params;
  params.num_clusters = 3;
  params.avg_dims = 3.0;
  params.seed = 5;
  params.num_restarts = 2;
  params.block_rows = 256;
  return params;
}

void ExpectSameResult(const ProjectedClustering& a,
                      const ProjectedClustering& b) {
  EXPECT_EQ(ObjectiveBits(a.objective), ObjectiveBits(b.objective));
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_EQ(a.medoids, b.medoids);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.improvements, b.improvements);
  ASSERT_EQ(a.dimensions.size(), b.dimensions.size());
  for (size_t i = 0; i < a.dimensions.size(); ++i)
    EXPECT_EQ(a.dimensions[i], b.dimensions[i]);
}

// Runs until the source dies at `kill_after_ops`, leaving a checkpoint at
// `ck_path` behind; asserts the run did fail.
void RunUntilKilled(const PointSource& source, ProclusParams params,
                    const std::string& ck_path, uint64_t kill_after_ops) {
  FaultPlan plan;
  plan.kill_after_ops = kill_after_ops;
  FaultInjectingPointSource dying(source, plan);
  params.checkpoint.path = ck_path;
  params.checkpoint.every_iterations = 5;
  auto crashed = RunProclusOnSource(dying, params);
  ASSERT_FALSE(crashed.ok()) << "kill_after_ops too large to interrupt";
  // The crash left a resumable checkpoint behind.
  ASSERT_TRUE(LoadCheckpointFile(ck_path).ok());
}

TEST(CheckpointFormatTest, KnownAnswerBytes) {
  // PCKP v1 is an on-disk format: a checkpoint written by an earlier
  // build must keep loading. Both digests were recorded before the
  // checkpoint became the climb's own record; any change to the field
  // order or encoding moves them.
  const std::string sample = SerializeToString(SampleCheckpoint());
  EXPECT_EQ(Xxh64::Hash(sample.data(), sample.size()),
            0x8564c5998324cba1ULL);

  // The last file a 3-iteration fit writes: the loop top of the second
  // restart's final iteration, with the first restart's best record.
  Fixture fixture = MakeFixture("known_answer_ck");
  const std::string ck_path = TestTempPath("known_answer.pckp");
  std::remove(ck_path.c_str());
  ProclusParams params = BaseParams();
  params.max_iterations = 3;
  params.checkpoint.path = ck_path;
  params.checkpoint.every_iterations = 1;
  ASSERT_TRUE(RunProclus(fixture.data.dataset, params).ok());
  std::ifstream in(ck_path, std::ios::binary);
  const std::string written((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  ASSERT_FALSE(written.empty());
  EXPECT_EQ(Xxh64::Hash(written.data(), written.size()),
            0x89183a422d9728a6ULL);
}

TEST(CheckpointResumeTest, ValidateRejectsZeroSavePeriod) {
  Fixture fixture = MakeFixture("zero_period");
  ProclusParams params = BaseParams();
  params.checkpoint.path = TestTempPath("zero_period.pckp");
  params.checkpoint.every_iterations = 0;
  auto result = RunProclus(fixture.data.dataset, params);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(CheckpointResumeTest, MismatchedConfigurationIsRejected) {
  Fixture fixture = MakeFixture("mismatch_cfg");
  const std::string ck_path = TestTempPath("mismatch.pckp");
  std::remove(ck_path.c_str());
  MemorySource memory(fixture.data.dataset);
  RunUntilKilled(memory, BaseParams(), ck_path, 25);

  // Same checkpoint, different seed: the fingerprint must refuse it.
  ProclusParams other = BaseParams();
  other.seed = 6;
  other.checkpoint.path = ck_path;
  auto resumed = RunProclusOnSource(memory, other);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(resumed.status().message().find("different run configuration"),
            std::string::npos);
}

TEST(CheckpointResumeTest, FingerprintIsPinnedForOlderCheckpoints) {
  // The configuration fingerprint is part of the checkpoint format: a
  // checkpoint written by an earlier build resumes only if this build
  // computes the same digest for the same configuration. The value was
  // recorded by the build that still had the ProclusParams::sketch
  // toggle, which the fingerprint never covered, so checkpoints written
  // before its removal stay resumable.
  Fixture fixture = MakeFixture("pinned_fp");
  const std::string ck_path = TestTempPath("pinned_fp.pckp");
  std::remove(ck_path.c_str());
  ProclusParams params = BaseParams();
  params.max_iterations = 3;
  params.checkpoint.path = ck_path;
  params.checkpoint.every_iterations = 1;
  ASSERT_TRUE(RunProclus(fixture.data.dataset, params).ok());
  auto ck = LoadCheckpointFile(ck_path);
  ASSERT_TRUE(ck.ok()) << ck.status().ToString();
  EXPECT_EQ(ck->fingerprint, 0xf03c3b414a3c9e23ULL);
}

TEST(CheckpointResumeTest, CorruptCheckpointFileIsAnError) {
  Fixture fixture = MakeFixture("corrupt_ck");
  const std::string ck_path = TestTempPath("corrupt.pckp");
  std::remove(ck_path.c_str());
  MemorySource memory(fixture.data.dataset);
  RunUntilKilled(memory, BaseParams(), ck_path, 25);

  // Flip one byte in the middle of the checkpoint.
  {
    std::fstream f(ck_path,
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    f.seekg(0, std::ios::end);
    const std::streamoff mid = f.tellg() / 2;
    f.seekg(mid);
    char byte = 0;
    f.get(byte);
    f.seekp(mid);
    f.put(static_cast<char>(byte ^ 0x01));
  }
  ProclusParams params = BaseParams();
  params.checkpoint.path = ck_path;
  auto resumed = RunProclusOnSource(memory, params);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kDataLoss);
}

TEST(CheckpointResumeTest, UntrustedNumDimsSizesNoAllocation) {
  // num_dims comes from the file. A dimension set over 2^40 dimensions
  // would take 128 GiB, so loading must build none; the resume's
  // consistency check is what refuses the file.
  Fixture fixture = MakeFixture("huge_dims");
  const std::string ck_path = TestTempPath("huge_dims.pckp");
  std::remove(ck_path.c_str());
  MemorySource memory(fixture.data.dataset);
  // 100 operations end in the sixth iteration, after the save at the top
  // of it, so the climb record holds dimension sets.
  RunUntilKilled(memory, BaseParams(), ck_path, 100);
  std::string bytes;
  {
    std::ifstream in(ck_path, std::ios::binary);
    bytes.assign((std::istreambuf_iterator<char>(in)),
                 std::istreambuf_iterator<char>());
  }
  // num_dims follows the magic, the version and the fingerprint.
  const uint64_t huge = uint64_t{1} << 40;
  std::memcpy(bytes.data() + 16, &huge, sizeof(huge));
  const uint64_t trailer = Xxh64::Hash(bytes.data(), bytes.size() - 8);
  std::memcpy(bytes.data() + bytes.size() - 8, &trailer, sizeof(trailer));
  {
    std::ofstream out(ck_path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  std::istringstream in(bytes);
  auto loaded = LoadCheckpoint(in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_dims, huge);
  ASSERT_EQ(loaded->climb.dims.size(), 3u);
  size_t total_dims = 0;
  for (const auto& list : loaded->climb.dims) total_dims += list.size();
  EXPECT_EQ(total_dims, 9u);

  ProclusParams params = BaseParams();
  params.checkpoint.path = ck_path;
  auto resumed = RunProclusOnSource(memory, params);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kCorruption);
}

TEST(CheckpointResumeTest, UnreachableClimbStatesAreCorruption) {
  // The trailer only proves the bytes are intact. Each file below is
  // intact but holds a state no climb reaches; resuming it must fail with
  // Corruption rather than run into the climb's invariant checks.
  Fixture fixture = MakeFixture("forged_ck");
  const std::string ck_path = TestTempPath("forged.pckp");
  std::remove(ck_path.c_str());
  ProclusParams params = BaseParams();
  params.max_iterations = 3;
  params.checkpoint.path = ck_path;
  params.checkpoint.every_iterations = 1;
  ASSERT_TRUE(RunProclus(fixture.data.dataset, params).ok());
  // The last save: the second restart, two iterations in, both records
  // filled.
  auto real = LoadCheckpointFile(ck_path);
  ASSERT_TRUE(real.ok()) << real.status().ToString();
  ASSERT_EQ(real->restart, 1u);
  ASSERT_EQ(real->climb.iterations, 2u);
  ASSERT_FALSE(real->best.slots.empty());

  struct Forgery {
    const char* name;
    void (*edit)(ProclusCheckpoint&);
  };
  const Forgery forgeries[] = {
      {"NaN climb objective",
       [](ProclusCheckpoint& ck) {
         ck.climb.objective = std::numeric_limits<double>::quiet_NaN();
       }},
      {"NaN best objective",
       [](ProclusCheckpoint& ck) {
         ck.best.objective = std::numeric_limits<double>::quiet_NaN();
       }},
      {"no best after a completed restart",
       [](ProclusCheckpoint& ck) { ck.best = ClimbRecord{}; }},
      {"scored climb without medoids",
       [](ProclusCheckpoint& ck) {
         ck.climb = ClimbRecord{};
         ck.climb.objective = 1.0;
         ck.bad.clear();
         ck.since_improvement = 0;
       }},
      {"climb at its iteration cap",
       [](ProclusCheckpoint& ck) { ck.climb.iterations = 3; }},
      {"no-improvement count at its cap",
       [](ProclusCheckpoint& ck) { ck.since_improvement = 40; }},
      {"repeated medoid",
       [](ProclusCheckpoint& ck) { ck.current[1] = ck.current[0]; }},
  };
  for (const Forgery& forgery : forgeries) {
    SCOPED_TRACE(forgery.name);
    ProclusCheckpoint forged = *real;
    forgery.edit(forged);
    ASSERT_TRUE(SaveCheckpointFile(forged, ck_path).ok());
    auto resumed = RunProclus(fixture.data.dataset, params);
    ASSERT_FALSE(resumed.ok());
    EXPECT_EQ(resumed.status().code(), StatusCode::kCorruption)
        << resumed.status().ToString();
  }
}

TEST(CheckpointResumeTest, MissingCheckpointStartsFresh) {
  Fixture fixture = MakeFixture("fresh_ck");
  MemorySource memory(fixture.data.dataset);
  auto baseline = RunProclusOnSource(memory, BaseParams());
  ASSERT_TRUE(baseline.ok());

  const std::string ck_path = TestTempPath("fresh.pckp");
  std::remove(ck_path.c_str());
  ProclusParams params = BaseParams();
  params.checkpoint.path = ck_path;
  auto checkpointed = RunProclusOnSource(memory, params);
  ASSERT_TRUE(checkpointed.ok());
  ExpectSameResult(*checkpointed, *baseline);
}

TEST(CheckpointResumeTest, ResumedRunMatchesUninterrupted) {
  Fixture fixture = MakeFixture("resume_matrix");
  auto disk = DiskSource::Open(fixture.disk_path);
  ASSERT_TRUE(disk.ok());
  MemorySource memory(fixture.data.dataset);
  const PointSource* sources[] = {&memory, &*disk};
  const char* source_names[] = {"memory", "disk"};

  for (size_t s = 0; s < 2; ++s) {
    SCOPED_TRACE(source_names[s]);
    const ProclusParams params = BaseParams();
    auto baseline = RunProclusOnSource(*sources[s], params);
    ASSERT_TRUE(baseline.ok());

    const std::string ck_path =
        TestTempPath("resume_" + std::to_string(s) + ".pckp");
    std::remove(ck_path.c_str());
    RunUntilKilled(*sources[s], params, ck_path, 31);

    // Resume on the healthy source: the tail replays bit-identically.
    ProclusParams resume_params = params;
    resume_params.checkpoint.path = ck_path;
    resume_params.checkpoint.every_iterations = 5;
    auto resumed = RunProclusOnSource(*sources[s], resume_params);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    ExpectSameResult(*resumed, *baseline);
  }
}

TEST(CheckpointResumeTest, ResumeIsThreadAndEngineAgnostic) {
  Fixture fixture = MakeFixture("agnostic_ck");
  MemorySource memory(fixture.data.dataset);
  auto disk = DiskSource::Open(fixture.disk_path);
  ASSERT_TRUE(disk.ok());
  auto sharded = ShardedSource::FromDataset(fixture.data.dataset, 4, 256);
  ASSERT_TRUE(sharded.ok());

  ProclusParams params = BaseParams();  // threads=1, in memory.
  auto baseline = RunProclusOnSource(memory, params);
  ASSERT_TRUE(baseline.ok());

  // Interrupt a single-threaded in-memory run.
  const std::string ck_path = TestTempPath("agnostic.pckp");
  std::remove(ck_path.c_str());
  RunUntilKilled(memory, params, ck_path, 31);
  std::string ck_bytes;
  {
    std::ifstream in(ck_path, std::ios::binary);
    ck_bytes.assign((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    ASSERT_FALSE(ck_bytes.empty());
  }

  // Resume under other thread counts and on the other scan engines (the
  // disk read loop, the per-shard executor); the checkpoint records
  // neither (both are bit-identity-preserving execution details), so
  // each resume must reproduce the baseline.
  struct Variant {
    size_t threads;
    const PointSource* source;
    const char* name;
  };
  const Variant variants[] = {{2, &memory, "memory"},
                              {7, &memory, "memory"},
                              {16, &memory, "memory"},
                              {1, &*disk, "disk"},
                              {3, &*sharded, "sharded"}};
  for (const Variant& variant : variants) {
    const std::string tag =
        std::to_string(variant.threads) + "t_" + variant.name;
    SCOPED_TRACE(tag);
    // Each resume consumes (and then overwrites) its own copy of the
    // interrupted checkpoint.
    const std::string copy_path = ck_path + "." + tag;
    {
      std::ofstream out(copy_path, std::ios::binary | std::ios::trunc);
      out << ck_bytes;
    }
    ProclusParams resume_params = BaseParams();
    resume_params.num_threads = variant.threads;
    resume_params.checkpoint.path = copy_path;
    resume_params.checkpoint.every_iterations = 5;
    auto resumed = RunProclusOnSource(*variant.source, resume_params);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    ExpectSameResult(*resumed, *baseline);
  }
}

TEST(CheckpointResumeTest, StaleCheckpointAfterCompletionIsHarmless) {
  Fixture fixture = MakeFixture("stale_ck");
  MemorySource memory(fixture.data.dataset);
  const std::string ck_path = TestTempPath("stale.pckp");
  std::remove(ck_path.c_str());

  ProclusParams params = BaseParams();
  params.checkpoint.path = ck_path;
  params.checkpoint.every_iterations = 5;
  auto first = RunProclusOnSource(memory, params);
  ASSERT_TRUE(first.ok());

  // The completed run leaves its last periodic checkpoint behind.
  // Re-running with the same path resumes from it, deterministically
  // replays the tail, and lands on the same result.
  auto second = RunProclusOnSource(memory, params);
  ASSERT_TRUE(second.ok());
  ExpectSameResult(*second, *first);
}

}  // namespace
}  // namespace proclus
