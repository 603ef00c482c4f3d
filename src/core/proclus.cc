#include "core/proclus.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>
#include <string>
#include <utility>

#include "common/hash.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/consumers.h"
#include "core/find_dimensions.h"
#include "core/greedy.h"
#include "core/model_io.h"
#include "distance/metric.h"
#include "distance/segmental.h"

namespace proclus {

Status ProclusParams::Validate(size_t num_points, size_t dims) const {
  if (num_clusters == 0)
    return Status::InvalidArgument("num_clusters must be >= 1");
  if (num_points < num_clusters)
    return Status::InvalidArgument("fewer points than clusters");
  if (dims < 2) return Status::InvalidArgument("need at least 2 dimensions");
  if (!std::isfinite(avg_dims))
    return Status::InvalidArgument("avg_dims must be finite");
  if (avg_dims < 2.0)
    return Status::InvalidArgument("avg_dims must be >= 2");
  if (avg_dims > static_cast<double>(dims))
    return Status::InvalidArgument("avg_dims exceeds space dimensionality");
  size_t total = static_cast<size_t>(
      std::llround(avg_dims * static_cast<double>(num_clusters)));
  if (total > num_clusters * dims)
    return Status::InvalidArgument("k*l exceeds k*d dimension slots");
  if (sample_factor == 0)
    return Status::InvalidArgument("sample_factor must be >= 1");
  if (candidate_factor == 0)
    return Status::InvalidArgument("candidate_factor must be >= 1");
  if (!std::isfinite(min_deviation))
    return Status::InvalidArgument("min_deviation must be finite");
  if (min_deviation <= 0.0 || min_deviation > 1.0)
    return Status::InvalidArgument("min_deviation must be in (0, 1]");
  if (max_iterations == 0)
    return Status::InvalidArgument("max_iterations must be >= 1");
  if (max_no_improve == 0)
    return Status::InvalidArgument("max_no_improve must be >= 1");
  if (num_restarts == 0)
    return Status::InvalidArgument("num_restarts must be >= 1");
  if (block_rows == 0)
    return Status::InvalidArgument("block_rows must be >= 1");
  if (!checkpoint.path.empty() && checkpoint.every_iterations == 0)
    return Status::InvalidArgument(
        "checkpoint.every_iterations must be >= 1 when a checkpoint path "
        "is set");
  return Status::OK();
}

namespace internal {

std::vector<size_t> FindBadMedoids(const std::vector<int>& labels, size_t k,
                                   double min_deviation) {
  std::vector<size_t> count(k, 0);
  size_t n = labels.size();
  for (int label : labels) {
    if (label == kOutlierLabel) continue;
    PROCLUS_CHECK(label >= 0 && static_cast<size_t>(label) < k);
    ++count[static_cast<size_t>(label)];
  }
  const double threshold =
      (static_cast<double>(n) / static_cast<double>(k)) * min_deviation;
  std::vector<size_t> bad;
  size_t smallest = 0;
  for (size_t i = 1; i < k; ++i)
    if (count[i] < count[smallest]) smallest = i;
  bad.push_back(smallest);
  for (size_t i = 0; i < k; ++i) {
    if (i == smallest) continue;
    if (static_cast<double>(count[i]) < threshold) bad.push_back(i);
  }
  return bad;
}

}  // namespace internal

namespace {

// Reused buffers of ReplaceBadMedoids: the free-slot list is rebuilt
// every iteration but never reallocated once it reaches capacity.
struct MedoidScratch {
  std::vector<uint8_t> used;       // One mark per candidate-pool slot.
  std::vector<size_t> free_slots;  // Unused slots, ascending before shuffle.
};

// Replaces the clusters listed in `bad` within `medoids` (positions into
// the candidate pool) by random unused candidates. The shuffle draws
// depend only on the free-slot COUNT (pool size minus k), never on the
// slot values, so two calls from identical Rng states advance the stream
// identically whatever the medoid sets are.
void ReplaceBadMedoids(size_t pool_size, const std::vector<size_t>& bad,
                       std::vector<size_t>* medoid_slots, Rng& rng,
                       MedoidScratch& scratch) {
  scratch.used.assign(pool_size, 0);
  for (size_t slot : *medoid_slots) scratch.used[slot] = 1;
  scratch.free_slots.clear();
  for (size_t slot = 0; slot < pool_size; ++slot)
    if (!scratch.used[slot]) scratch.free_slots.push_back(slot);
  rng.Shuffle(scratch.free_slots);
  size_t next = 0;
  for (size_t cluster : bad) {
    if (next >= scratch.free_slots.size()) break;  // Pool exhausted.
    (*medoid_slots)[cluster] = scratch.free_slots[next++];
  }
}

// Copies the k x d coordinate matrix of the medoids at `slots` within the
// candidate coordinate matrix into `out`, reallocating only when the
// shape changes.
void SlotsToCoords(const Matrix& candidate_coords,
                   const std::vector<size_t>& slots, Matrix* out) {
  if (out->rows() != slots.size() ||
      out->cols() != candidate_coords.cols() ||
      out->data().size() != slots.size() * candidate_coords.cols()) {
    *out = Matrix(slots.size(), candidate_coords.cols());
  }
  for (size_t i = 0; i < slots.size(); ++i) {
    auto src = candidate_coords.row(slots[i]);
    std::copy(src.begin(), src.end(), out->row(i).begin());
  }
}

// Long-lived consumers and buffers shared by every restart of the fused
// climb, so steady-state iterations allocate nothing. The refinement
// reuses `assign` and `deviation` as well.
struct FusedScratch {
  LocalityStatsConsumer locality;
  AssignConsumer assign;
  DeviationConsumer deviation;
  Matrix medoid_coords;  // Coordinates of the current medoid set.
  Matrix spec_coords;    // Union coordinates of the speculative sets.
  MedoidScratch medoids;
  // Locality rows and distance columns shared across scans and restarts:
  // hill climbing replaces ~1 of k medoids per iteration, so most of each
  // scan's locality rows and assignment distances (or at least their
  // per-point full-space distances) were already computed by an earlier
  // scan. Keyed by candidate slot id, which never changes within a run.
  MedoidDistanceCache dist_cache;
  std::vector<size_t> next_a;      // Next set if this iteration improves.
  std::vector<size_t> next_b;      // Next set if it does not.
  std::vector<size_t> union_slots;
};

constexpr size_t kNoVariant = static_cast<size_t>(-1);

// No source checks its values, so a NaN or infinite coordinate first
// shows as a non-finite objective. The climb would take a NaN objective
// for "no improvement" on every iteration.
Status NonFiniteObjective() {
  return Status::InvalidArgument(
      "the objective is not finite: the data hold a non-finite "
      "coordinate, or their differences overflow");
}

// One hill-climbing restart on the fused scan engine: two physical scans
// per iteration.
//
//   Scan 1  assignment + per-cluster centroid accumulation
//   Scan 2  deviation evaluation + locality statistics of the NEXT
//           medoid set
//
// The paper's loop (Figure 2) reads the data four times per iteration:
// the locality statistics of the next iteration's medoids and the
// centroids of the current labels each take a dedicated pass. Fusing the
// locality scan works because the medoid replacement depends only on the
// assignment: before the evaluation scan runs, both possible next medoid
// sets — the one chosen if this iteration improves the objective and the
// one chosen if it does not — are already known, so the scan computes
// locality statistics for both (sharing per-point distances over the
// union of their medoids) and the loop keeps whichever branch
// materializes.
// The two replacement draws use identical Rng sequences (see
// ReplaceBadMedoids), so the random stream — and therefore every result —
// stays bit-identical to the paper's one-draw-per-iteration loop, as
// transcribed by the test oracle (tests/reference_proclus.h).
//
// `st` holds the restart's loop-top state: `current`, the `climb` record
// (best of this restart so far), its `bad` medoids and the no-improvement
// count. Callers seed `current` (fresh start) or assign a checkpoint
// (resume) before the climb. The locality statistics X are deliberately
// not part of it: they are regenerated by a bootstrap scan of `current`,
// bit-identical to the fused variant extraction that produced them
// mid-run. With a checkpoint path set, `st` is saved, RNG state stamped,
// at the top of every every_iterations-th iteration and on a loop-top
// cancellation.
Status FusedClimb(const PointSource& source, const ProclusParams& params,
                  const Matrix& candidate_coords, ProclusCheckpoint& st,
                  Rng& rng, const ScanExecutor& executor, FusedScratch& s,
                  RunStats& stats) {
  const size_t k = params.num_clusters;
  const size_t pool = candidate_coords.rows();
  std::vector<size_t>& current = st.current;
  ClimbRecord& out = st.climb;
  std::vector<size_t>& bad = st.bad;  // Bad medoids of the best set so far.
  uint64_t& since_improvement = st.since_improvement;
  const std::string& path = params.checkpoint.path;
  auto save = [&]() -> Status {
    st.rng = rng.SaveState();
    return SaveCheckpointFile(st, path);
  };

  // Bootstrap: the locality statistics of the initial medoid set are the
  // only input the first iteration needs that no earlier scan produced.
  // On resume this regenerates the X a mid-run iteration would have
  // extracted from the fused evaluation scan — bit-identically, since
  // variant extraction equals a dedicated scan of the same medoid set.
  SlotsToCoords(candidate_coords, current, &s.medoid_coords);
  {
    std::vector<std::vector<size_t>> variant_rows(1);
    variant_rows[0].resize(k);
    std::iota(variant_rows[0].begin(), variant_rows[0].end(), size_t{0});
    PROCLUS_RETURN_IF_ERROR(s.locality.Bind(
        &s.medoid_coords, std::move(variant_rows),
        std::span<const size_t>(current), &s.dist_cache));
  }
  PROCLUS_RETURN_IF_ERROR(executor.Run(source, {&s.locality}));
  ++stats.bootstrap_scans;
  Matrix X = s.locality.TakeStats();

  while (out.iterations < params.max_iterations &&
         since_improvement < params.max_no_improve) {
    if (params.cancel.active()) {
      stats.cancel_checks += 1;
      Status cancelled = params.cancel.Check();
      if (!cancelled.ok()) {
        // Cancel-to-checkpoint: persist the exact loop-top state (RNG
        // included) so a resumed run replays the remaining iterations
        // bit-identically.
        if (!path.empty()) PROCLUS_RETURN_IF_ERROR(save());
        return cancelled;
      }
    }
    if (!path.empty() &&
        out.iterations % params.checkpoint.every_iterations == 0)
      PROCLUS_RETURN_IF_ERROR(save());
    ++out.iterations;
    auto dims = FindDimensions(X, params.avg_dims);
    PROCLUS_RETURN_IF_ERROR(dims.status());

    // Scan 1: assignment fused with centroid accumulation. Only the
    // (slot, D_i) distance columns no earlier scan left in the cache are
    // scored.
    PROCLUS_RETURN_IF_ERROR(s.assign.Bind(
        &s.medoid_coords, &*dims, params.segmental_normalization,
        /*accumulate_centroids=*/true, std::span<const size_t>(current),
        &s.dist_cache));
    PROCLUS_RETURN_IF_ERROR(executor.Run(source, {&s.assign}));
    ++stats.iterative_scans;

    // Draw both speculative next medoid sets. Branch A materializes when
    // this iteration improves the objective (base = current set, bad
    // medoids from the fresh labels); branch B when it does not (base =
    // best set so far, its stored bad medoids). The main rng advances
    // through branch A's draw; branch B uses a copy that ends in the
    // identical state.
    std::vector<size_t> bad_a =
        internal::FindBadMedoids(s.assign.labels(), k, params.min_deviation);
    s.next_a = current;
    const bool have_b = !out.slots.empty();
    Rng rng_b = rng;
    ReplaceBadMedoids(pool, bad_a, &s.next_a, rng, s.medoids);
    const bool exhausted_a = s.next_a == current;
    bool exhausted_b = false;
    if (have_b) {
      s.next_b = out.slots;
      ReplaceBadMedoids(pool, bad, &s.next_b, rng_b, s.medoids);
      exhausted_b = s.next_b == out.slots;
    }

    // A branch's locality statistics are only worth computing when the
    // loop would actually continue with that branch.
    const bool last_iteration = out.iterations == params.max_iterations;
    const bool need_a = !last_iteration && !exhausted_a;
    const bool need_b = have_b && !last_iteration && !exhausted_b &&
                        since_improvement + 1 < params.max_no_improve;

    // Scan 2: deviation evaluation, fused with the speculative locality
    // statistics whenever a next iteration is possible.
    PROCLUS_RETURN_IF_ERROR(s.deviation.Bind(s.assign));
    size_t variant_a = kNoVariant;
    size_t variant_b = kNoVariant;
    if (need_a || need_b) {
      s.union_slots.clear();
      std::vector<std::vector<size_t>> variant_rows;
      if (need_a) {
        s.union_slots.assign(s.next_a.begin(), s.next_a.end());
        std::vector<size_t> rows(k);
        std::iota(rows.begin(), rows.end(), size_t{0});
        variant_rows.push_back(std::move(rows));
        variant_a = 0;
      }
      // In a non-improving iteration current == best, so both branches
      // draw the same replacements and the speculative sets coincide —
      // the common case on long plateaus. The consumer accumulates each
      // (slot, delta) row once however many variants share it, so
      // branch B costs no second accumulation.
      if (need_b) {
        std::vector<size_t> rows(k);
        for (size_t i = 0; i < k; ++i) {
          const size_t slot = s.next_b[i];
          size_t pos = 0;
          while (pos < s.union_slots.size() && s.union_slots[pos] != slot)
            ++pos;
          if (pos == s.union_slots.size()) s.union_slots.push_back(slot);
          rows[i] = pos;
        }
        variant_b = variant_rows.size();
        variant_rows.push_back(std::move(rows));
      }
      SlotsToCoords(candidate_coords, s.union_slots, &s.spec_coords);
      PROCLUS_RETURN_IF_ERROR(s.locality.Bind(
          &s.spec_coords, std::move(variant_rows),
          std::span<const size_t>(s.union_slots), &s.dist_cache));
      PROCLUS_RETURN_IF_ERROR(
          executor.Run(source, {&s.deviation, &s.locality}));
    } else {
      PROCLUS_RETURN_IF_ERROR(executor.Run(source, {&s.deviation}));
    }
    ++stats.iterative_scans;
    const double objective = s.deviation.objective();
    if (!std::isfinite(objective)) return NonFiniteObjective();

    const bool improved = objective < out.objective;
    if (improved) {
      out.objective = objective;
      out.slots = current;
      out.dims.resize(k);
      for (size_t i = 0; i < k; ++i) out.dims[i] = (*dims)[i].ToVector();
      out.labels = s.assign.labels();
      bad = std::move(bad_a);
      ++out.improvements;
      since_improvement = 0;
    } else {
      ++since_improvement;
    }
    // invariant: the first iteration always improves on the infinite
    // starting objective, so a non-improving iteration has a stored best
    // set and branch B was drawn.
    PROCLUS_CHECK(improved || have_b);
    const bool exhausted = improved ? exhausted_a : exhausted_b;
    if (exhausted) break;  // Candidate pool exhausted.
    current = improved ? s.next_a : s.next_b;
    if (last_iteration || since_improvement >= params.max_no_improve) break;
    // The loop continues: the locality statistics of `current` came out
    // of the evaluation scan above.
    const size_t variant = improved ? variant_a : variant_b;
    // invariant: need_a/need_b cover exactly the continue conditions
    // checked right above, so the surviving branch was computed.
    PROCLUS_CHECK(variant != kNoVariant);
    X = s.locality.TakeStats(variant);
    SlotsToCoords(candidate_coords, current, &s.medoid_coords);
  }
  return Status::OK();
}

// Configuration fingerprint a checkpoint is bound to: every parameter
// that influences the numerical result, plus the data shape. num_threads
// is deliberately EXCLUDED — results are proven bit-identical across
// thread counts (see tests/core_engine_test.cc), so a checkpoint written
// under one thread count may be resumed under another. The retired
// classic-engine and sketch-screen toggles were excluded the same way,
// so removing them left the digest unchanged: checkpoints written while
// they existed stay resumable (pinned in
// tests/checkpoint_resume_test.cc).
uint64_t ParamsFingerprint(const ProclusParams& p, size_t n, size_t d) {
  Xxh64 h(/*seed=*/0x50434c5350524f43ULL);  // "PCLSPROC"
  auto put_u64 = [&h](uint64_t v) { h.Update(&v, sizeof(v)); };
  auto put_f64 = [&h](double v) { h.Update(&v, sizeof(v)); };
  put_u64(p.num_clusters);
  put_f64(p.avg_dims);
  put_u64(p.sample_factor);
  put_u64(p.candidate_factor);
  put_f64(p.min_deviation);
  put_u64(p.max_no_improve);
  put_u64(p.max_iterations);
  put_u64(p.num_restarts);
  put_u64(0);  // The retired greedy-metric choice; always Manhattan.
  put_u64(p.seed);
  put_u64(p.block_rows);
  put_u64((p.refine ? 1u : 0u) | (p.detect_outliers ? 2u : 0u) |
          (p.segmental_normalization ? 4u : 0u) |
          (p.two_step_init ? 8u : 0u));
  put_u64(n);
  put_u64(d);
  return h.Digest();
}

// Semantic validation of a fingerprint-matched checkpoint: every index
// must be in range and every per-cluster vector the right length, so a
// forged or stale file can never drive an out-of-bounds access. The
// integrity trailer already rules out accidental corruption; this rules
// out a checkpoint that is internally inconsistent with the run shape.
Status ValidateCheckpoint(const ProclusCheckpoint& ck,
                          const ProclusParams& params, size_t n, size_t d) {
  const size_t k = params.num_clusters;
  auto bad = [](const std::string& what) {
    return Status::Corruption("checkpoint is inconsistent: " + what);
  };
  if (ck.num_dims != d) return bad("dimensionality mismatch");
  if (ck.restart >= params.num_restarts) return bad("restart out of range");
  if (ck.candidates.size() < k || ck.candidates.size() > n)
    return bad("candidate pool size out of range");
  for (uint64_t c : ck.candidates)
    if (c >= n) return bad("candidate index out of range");
  const size_t pool = ck.candidates.size();
  auto check_slots = [&](const std::vector<size_t>& slots,
                         const std::string& name) -> Status {
    if (slots.size() != k) return bad(name + " has wrong length");
    for (size_t i = 0; i < k; ++i) {
      if (slots[i] >= pool) return bad(name + " index out of range");
      for (size_t j = 0; j < i; ++j)
        if (slots[i] == slots[j]) return bad(name + " repeats a medoid");
    }
    return Status::OK();
  };
  PROCLUS_RETURN_IF_ERROR(check_slots(ck.current, "current"));
  // A record is blank (no medoids, infinite objective) until its climb's
  // first iteration fills it with a finite objective. The climb relies on
  // that: its first iteration must improve on a blank record, and a
  // filled one must be beatable.
  auto check_record = [&](const ClimbRecord& record,
                          const std::string& name) -> Status {
    if (record.slots.empty()) {
      if (record.objective != std::numeric_limits<double>::infinity() ||
          !record.dims.empty() || !record.labels.empty())
        return bad(name + " has no medoids but is not blank");
      return Status::OK();
    }
    if (!std::isfinite(record.objective))
      return bad(name + " objective is not finite");
    PROCLUS_RETURN_IF_ERROR(check_slots(record.slots, name + " slots"));
    if (record.dims.size() != k)
      return bad(name + " dims count does not match medoids");
    for (const auto& list : record.dims) {
      if (list.size() < 2 || list.size() > d)
        return bad(name + " dims entry has invalid size");
      for (size_t i = 0; i < list.size(); ++i) {
        if (list[i] >= d) return bad(name + " dimension out of range");
        if (i > 0 && list[i] <= list[i - 1])
          return bad(name + " dims entry is not strictly sorted");
      }
    }
    if (record.labels.size() != n)
      return bad(name + " labels have wrong length");
    for (int label : record.labels)
      if (label != kOutlierLabel &&
          (label < 0 || static_cast<size_t>(label) >= k))
        return bad(name + " label out of range");
    return Status::OK();
  };
  PROCLUS_RETURN_IF_ERROR(check_record(ck.climb, "climb"));
  PROCLUS_RETURN_IF_ERROR(check_record(ck.best, "best"));
  if (ck.bad.size() > k) return bad("bad medoids have wrong length");
  for (size_t c : ck.bad)
    if (c >= k) return bad("bad medoid index out of range");
  // Saves happen inside the climb loop, where both counts are below
  // their caps, and the restarts before `restart` each left a best set.
  if (ck.climb.iterations >= params.max_iterations)
    return bad("climb iterations out of range");
  if (ck.since_improvement >= params.max_no_improve)
    return bad("since_improvement out of range");
  if (ck.climb.slots.empty() && ck.climb.iterations != 0)
    return bad("iterations recorded without a best set");
  if (ck.restart > 0 && ck.best.slots.empty())
    return bad("completed restarts recorded without a best set");
  return Status::OK();
}

}  // namespace

Status ValidateClustering(const ProjectedClustering& model,
                          const ProclusParams& params, size_t n) {
  auto bad = [](const std::string& what) {
    return Status::InvalidArgument("invalid clustering: " + what);
  };
  const size_t k = params.num_clusters;
  if (model.num_clusters() != k)
    return bad(std::to_string(model.num_clusters()) + " medoids for k = " +
               std::to_string(k));
  const size_t d = model.medoid_coords.cols();
  PROCLUS_RETURN_IF_ERROR(ValidateModelShape(model, d));
  size_t total_dims = 0;
  for (const DimensionSet& dims : model.dimensions) {
    if (dims.capacity() != d) return bad("dimension set over another space");
    if (dims.size() < 2) return bad("a medoid has fewer than 2 dimensions");
    total_dims += dims.size();
  }
  const size_t want_dims = static_cast<size_t>(
      std::llround(params.avg_dims * static_cast<double>(k)));
  if (total_dims != want_dims)
    return bad(std::to_string(total_dims) + " dimensions in total, not " +
               std::to_string(want_dims));
  for (size_t i = 0; i < k; ++i) {
    if (model.medoids[i] >= n) return bad("medoid index out of range");
    for (size_t j = 0; j < i; ++j)
      if (model.medoids[i] == model.medoids[j])
        return bad("duplicate medoid");
  }
  if (model.labels.size() != n)
    return bad(std::to_string(model.labels.size()) + " labels for " +
               std::to_string(n) + " points");
  for (int label : model.labels)
    if (label < kOutlierLabel || label >= static_cast<int>(k))
      return bad("label " + std::to_string(label) + " out of range");
  if (!std::isfinite(model.objective)) return bad("objective is not finite");
  if (model.stats.rows_visited != n * model.stats.scans_issued)
    return bad("rows visited is not n times the scans issued");
  return Status::OK();
}

Result<ProjectedClustering> RunProclusOnSource(const PointSource& source,
                                               const ProclusParams& params) {
  PROCLUS_RETURN_IF_ERROR(params.Validate(source.size(), source.dims()));
  Rng rng(params.seed);
  const size_t k = params.num_clusters;
  const size_t n = source.size();
  const size_t d = source.dims();
  RunStats stats;
  ScanOptions scan_options{params.num_threads, params.block_rows, &stats,
                           params.retry};
  scan_options.cancel = params.cancel;
  scan_options.shard_soft_deadline = params.shard_soft_deadline;
  scan_options.max_hedges_per_shard = params.max_hedges_per_shard;
  if (params.cancel.active()) {
    stats.cancel_checks += 1;
    PROCLUS_RETURN_IF_ERROR(params.cancel.Check());
  }
  Timer total_timer;
  Timer phase_timer;

  // ----- Resume -----
  // The fit's resumable state. A compatible checkpoint replaces phase 1
  // and the completed prefix of the restart loop. The fingerprint binds
  // it to this exact configuration and data shape; a mismatch is an error
  // (resuming a different run would silently produce wrong results),
  // while a missing file just starts fresh.
  ProclusCheckpoint state;
  state.fingerprint = ParamsFingerprint(params, n, d);
  state.num_dims = d;
  bool resuming = false;
  if (!params.checkpoint.path.empty()) {
    auto loaded = LoadCheckpointFile(params.checkpoint.path);
    if (loaded.ok()) {
      if (loaded->fingerprint != state.fingerprint)
        return Status::InvalidArgument(
            "checkpoint '" + params.checkpoint.path +
            "' was written by a different run configuration");
      PROCLUS_RETURN_IF_ERROR(ValidateCheckpoint(*loaded, params, n, d));
      state = *std::move(loaded);
      rng.RestoreState(state.rng);
      resuming = true;
    } else if (loaded.status().code() != StatusCode::kNotFound) {
      return loaded.status();
    }
  }

  // ----- Phase 1: Initialization -----
  // Sample A*k points, then reduce to B*k medoid candidates by greedy
  // farthest-first (or take a plain random candidate set in the
  // ablation). Only these few points are ever fetched by position. A
  // resumed run reuses the checkpointed candidate pool — the restored
  // RNG state already reflects the draws this phase made.
  std::vector<size_t>& candidates = state.candidates;  // Global indices.
  // draws: invariant — the init path is selected by run config, and a
  // resumed run restores the RNG state whose position already includes
  // this phase's draws (see the note above), so stream position is
  // path-consistent.
  if (!resuming) {
    const size_t sample_size = std::min(n, params.sample_factor * k);
    const size_t candidate_size =
        std::max(k, std::min(sample_size, params.candidate_factor * k));
    if (params.two_step_init) {
      std::vector<size_t> sample =
          rng.SampleWithoutReplacement(n, sample_size);
      auto sample_coords = FetchWithRetry(source, sample, params.retry,
                                          &stats, params.cancel);
      PROCLUS_RETURN_IF_ERROR(sample_coords.status());
      Dataset sample_dataset(std::move(sample_coords).value());
      std::vector<size_t> local(sample.size());
      std::iota(local.begin(), local.end(), size_t{0});
      std::vector<size_t> picked =
          GreedyPick(sample_dataset, local, candidate_size,
                     MetricKind::kManhattan, rng);
      candidates.reserve(picked.size());
      for (size_t local_index : picked)
        candidates.push_back(sample[local_index]);
    } else {
      candidates = rng.SampleWithoutReplacement(n, candidate_size);
    }
  }
  // invariant: candidate_size was clamped to >= k, both sampling paths
  // return exactly candidate_size indices, and ValidateCheckpoint
  // enforces the same bound on a resumed pool.
  PROCLUS_CHECK(candidates.size() >= k);
  auto candidate_coords_result =
      FetchWithRetry(source, candidates, params.retry, &stats,
                     params.cancel);
  PROCLUS_RETURN_IF_ERROR(candidate_coords_result.status());
  const Matrix& candidate_coords = *candidate_coords_result;
  stats.init_scans = stats.scans_issued;
  stats.init_seconds = phase_timer.ElapsedSeconds();

  // ----- Phase 2: Iterative (hill climbing with restarts) -----
  phase_timer.Reset();
  const uint64_t scans_before_climb = stats.scans_issued;
  ScanExecutor executor(scan_options);
  FusedScratch fused;

  for (; state.restart < params.num_restarts; ++state.restart) {
    // draws: invariant — the resumed restart skips the draw precisely
    // because the checkpointed RNG state already consumed it before the
    // snapshot; fresh restarts draw it here. Stream position matches in
    // both cases.
    if (!resuming) {
      state.current = rng.SampleWithoutReplacement(candidates.size(), k);
      state.bad.clear();
      state.since_improvement = 0;
    }
    resuming = false;
    PROCLUS_RETURN_IF_ERROR(FusedClimb(source, params, candidate_coords,
                                       state, rng, executor, fused, stats));
    // The finished climb leaves the state blank for the next restart (and
    // its labels are freed before the refinement); the best record keeps
    // the completed restarts' totals.
    ClimbRecord climb = std::exchange(state.climb, ClimbRecord{});
    const uint64_t iterations = state.best.iterations + climb.iterations;
    const uint64_t improvements = state.best.improvements + climb.improvements;
    if (climb.objective < state.best.objective) state.best = std::move(climb);
    state.best.iterations = iterations;
    state.best.improvements = improvements;
  }
  ClimbRecord& best = state.best;
  // invariant: num_restarts >= 1 (validated) and every restart runs at
  // least one hill-climbing iteration, which always records a best set.
  PROCLUS_CHECK(!best.slots.empty());
  stats.locality_cache_hits = fused.dist_cache.hits;
  stats.locality_cache_misses = fused.dist_cache.misses;
  stats.locality_row_hits = fused.dist_cache.row_hits;
  stats.locality_row_misses = fused.dist_cache.row_misses;
  stats.assign_column_hits = fused.dist_cache.assign_hits;
  stats.assign_column_misses = fused.dist_cache.assign_misses;
  stats.iterative_scans =
      stats.scans_issued - scans_before_climb - stats.bootstrap_scans;
  stats.iterative_seconds = phase_timer.ElapsedSeconds();

  ProjectedClustering result;
  result.iterations = best.iterations;
  result.improvements = best.improvements;
  result.medoids.reserve(k);
  for (size_t slot : best.slots) result.medoids.push_back(candidates[slot]);
  Matrix medoid_coords;
  SlotsToCoords(candidate_coords, best.slots, &medoid_coords);
  result.medoid_coords = medoid_coords;

  if (!params.refine) {
    for (const auto& list : best.dims) result.dimensions.emplace_back(d, list);
    result.labels = std::move(best.labels);
    result.objective = best.objective;
    stats.total_seconds = total_timer.ElapsedSeconds();
    result.stats = stats;
    // invariant: every fit satisfies the paper's output invariants.
    PROCLUS_DCHECK(ValidateClustering(result, params, n).ok());
    return result;
  }

  // ----- Phase 3: Refinement -----
  // Recompute dimensions from the best clusters (not localities), then
  // reassign once more, detecting outliers by spheres of influence. The
  // centroid accumulation rides the reassignment scan, so refinement
  // reads the data three times where the paper's passes read it four.
  phase_timer.Reset();
  const uint64_t scans_before_refine = stats.scans_issued;
  // The best labels are read by this one scan. Its consumer, with its
  // per-block label groups, and the labels go before the reassignment
  // scan allocates its own.
  Matrix cluster_stats_matrix;
  {
    ClusterStatsConsumer cluster_stats;
    PROCLUS_RETURN_IF_ERROR(
        cluster_stats.Bind(&medoid_coords, &best.labels));
    PROCLUS_RETURN_IF_ERROR(executor.Run(source, {&cluster_stats}));
    cluster_stats_matrix = cluster_stats.TakeStats();
  }
  std::vector<int>().swap(best.labels);
  auto refined_dims = FindDimensions(cluster_stats_matrix, params.avg_dims);
  PROCLUS_RETURN_IF_ERROR(refined_dims.status());

  std::vector<std::vector<uint32_t>> dim_lists(k);
  for (size_t i = 0; i < k; ++i) dim_lists[i] = (*refined_dims)[i].ToVector();
  auto restricted_dist = [&](std::span<const double> a,
                             std::span<const double> b,
                             const std::vector<uint32_t>& dims) {
    return params.segmental_normalization
               ? ManhattanSegmentalDistance(a, b, dims)
               : RestrictedManhattanDistance(a, b, dims);
  };
  std::vector<double> spheres(k, std::numeric_limits<double>::infinity());
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = 0; j < k; ++j) {
      if (j == i) continue;
      double dist = restricted_dist(medoid_coords.row(i),
                                    medoid_coords.row(j), dim_lists[i]);
      if (dist < spheres[i]) spheres[i] = dist;
    }
  }
  result.spheres = std::move(spheres);
  result.dimensions = std::move(refined_dims).value();

  // The climb's two evaluation consumers run the refinement's Figure 6
  // too, so their per-block buffers (labels, argmin scratch, label
  // groups) are not allocated a second time.
  AssignConsumer& refine = fused.assign;
  PROCLUS_RETURN_IF_ERROR(refine.Bind(
      &medoid_coords, &result.dimensions, params.segmental_normalization,
      /*accumulate_centroids=*/true,
      params.detect_outliers ? &result.spheres : nullptr));
  PROCLUS_RETURN_IF_ERROR(executor.Run(source, {&refine}));
  DeviationConsumer& deviation = fused.deviation;
  PROCLUS_RETURN_IF_ERROR(deviation.Bind(refine));
  PROCLUS_RETURN_IF_ERROR(executor.Run(source, {&deviation}));
  result.objective = deviation.objective();
  if (!std::isfinite(result.objective)) return NonFiniteObjective();
  result.labels = refine.TakeLabels();
  stats.refine_scans = stats.scans_issued - scans_before_refine;
  stats.refine_seconds = phase_timer.ElapsedSeconds();
  stats.total_seconds = total_timer.ElapsedSeconds();
  result.stats = stats;
  // invariant: every fit satisfies the paper's output invariants.
  PROCLUS_DCHECK(ValidateClustering(result, params, n).ok());
  return result;
}

Result<ProjectedClustering> RunProclus(const Dataset& dataset,
                                       const ProclusParams& params) {
  MemorySource source(dataset);
  return RunProclusOnSource(source, params);
}

}  // namespace proclus
