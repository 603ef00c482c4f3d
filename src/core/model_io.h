// Persistence for fitted models and mid-run checkpoints.
//
// Models: a small, versioned, human-readable text format holding everything
// ClassifyPoints needs (medoid coordinates, dimension subsets, spheres of
// influence, objective) — deliberately NOT the training labels, which belong
// to the training data, can be large, and are reproducible via
// ClassifyPoints on the training set.
//
// Checkpoints: a little-endian binary format ("PCKP", version 1) capturing
// the full mid-climb state of a PROCLUS run — restart index, iteration
// counters, current/best medoid sets, objective, labels, dimension sets,
// candidate pool, and the complete RNG state — terminated by an XXH64
// integrity trailer over everything before it. A fingerprint field binds
// the checkpoint to the run configuration (parameters + data shape) that
// wrote it. Writes are atomic (tmp file + rename), so a crash mid-write
// leaves the previous checkpoint intact; truncated or bit-flipped files
// fail the trailer check and are rejected with a Status, never consumed.

#ifndef PROCLUS_CORE_MODEL_IO_H_
#define PROCLUS_CORE_MODEL_IO_H_

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/model.h"

namespace proclus {

/// Writes `model` (without labels) to a stream.
Status SaveModel(const ProjectedClustering& model, std::ostream& out);

/// Writes `model` to the file at `path`.
Status SaveModelFile(const ProjectedClustering& model,
                     const std::string& path);

/// Reads a model previously written with SaveModel. The result has empty
/// `labels` (re-derive them with ClassifyPoints if needed).
Result<ProjectedClustering> LoadModel(std::istream& in);

/// Reads a model from the file at `path`.
Result<ProjectedClustering> LoadModelFile(const std::string& path);

/// The best medoid set one hill climb has found: its objective, its
/// positions in the candidate pool, its dimension sets (sorted index lists
/// over a `num_dims`-dimensional space), its labels, and the iteration and
/// improvement counts behind it. The dimension sets stay index lists, not
/// DimensionSet bitsets, so loading a checkpoint allocates nothing sized
/// by the file's `num_dims` before a resume has checked it against d.
struct ClimbRecord {
  double objective = std::numeric_limits<double>::infinity();
  std::vector<size_t> slots;
  std::vector<std::vector<uint32_t>> dims;
  std::vector<int> labels;
  uint64_t iterations = 0;
  uint64_t improvements = 0;
};

/// The resumable state of a PROCLUS fit. The hill climb keeps its state
/// between iterations in this form, and a checkpoint is that state as it
/// stood at the top of an iteration: resuming assigns it back.
struct ProclusCheckpoint {
  /// Binds the checkpoint to the (parameters, data shape) that wrote it.
  uint64_t fingerprint = 0;
  /// Dimensionality d of the data (capacity of every dimension set).
  uint64_t num_dims = 0;
  /// Index of the restart in progress.
  uint64_t restart = 0;
  /// Full RNG state at the capture point.
  RngState rng;
  /// Global point indices of the candidate medoid pool (phase 1 output).
  std::vector<size_t> candidates;
  /// Medoid set under evaluation (positions in the candidate pool).
  std::vector<size_t> current;
  /// Best of the restart in progress.
  ClimbRecord climb;
  /// Bad medoids of climb.slots (cluster indices).
  std::vector<size_t> bad;
  /// Iterations since the restart in progress last improved.
  uint64_t since_improvement = 0;
  /// Best of the completed restarts; its counts are their totals.
  ClimbRecord best;
};

/// Serializes `checkpoint` (binary "PCKP" v1 + XXH64 trailer) to a stream.
Status SaveCheckpoint(const ProclusCheckpoint& checkpoint, std::ostream& out);

/// Atomically replaces the file at `path` with `checkpoint`: the bytes are
/// written to `path + ".tmp"` and renamed over `path`, so a crash mid-write
/// never destroys the previous checkpoint.
Status SaveCheckpointFile(const ProclusCheckpoint& checkpoint,
                          const std::string& path);

/// Reads a checkpoint written by SaveCheckpoint. Truncated input, a bad
/// magic/version, or an XXH64 trailer mismatch yield Corruption/DataLoss —
/// a damaged checkpoint is never partially consumed.
Result<ProclusCheckpoint> LoadCheckpoint(std::istream& in);

/// Reads a checkpoint from the file at `path`. A missing/unopenable file
/// yields NotFound (callers treat that as "start fresh").
Result<ProclusCheckpoint> LoadCheckpointFile(const std::string& path);

}  // namespace proclus

#endif  // PROCLUS_CORE_MODEL_IO_H_
