#include "data/fault_source.h"

#include <algorithm>
#include <string>

#include "common/cancel.h"
#include "common/parallel.h"
#include "common/rng.h"

namespace proclus {

namespace {

// Distinct stream per operation: SplitMix64 seeded by a mix of the plan
// seed and the operation index. The golden-ratio multiplier decorrelates
// consecutive indices; the constant offset keeps op 0 away from the raw
// seed.
uint64_t OpStreamSeed(uint64_t seed, uint64_t op) {
  return seed ^ (op * 0x9e3779b97f4a7c15ULL + 0x2545f4914f6cdd1dULL);
}

double ToUnit(uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

}  // namespace

FaultInjectingPointSource::Decision FaultInjectingPointSource::Decide(
    uint64_t op) const {
  SplitMix64 gen(OpStreamSeed(plan_.seed, op));
  Decision out;
  const double u = ToUnit(gen.Next());
  if (u < plan_.fail_rate) {
    out.kind = FaultKind::kFail;
  } else if (u < plan_.fail_rate + plan_.corrupt_rate) {
    out.kind = FaultKind::kCorrupt;
  } else if (u < plan_.fail_rate + plan_.corrupt_rate +
                     plan_.short_read_rate) {
    out.kind = FaultKind::kShortRead;
  }
  out.position = gen.Next();
  out.delayed = ToUnit(gen.Next()) < plan_.delay_rate;
  // Stall/hang draws come last so enabling them never perturbs an
  // existing fail/corrupt/delay schedule for the same seed.
  out.stalled = ToUnit(gen.Next()) < plan_.stall_rate;
  out.hung = ToUnit(gen.Next()) < plan_.hang_rate;
  return out;
}

FaultInjectingPointSource::Decision FaultInjectingPointSource::Admit(
    uint64_t op, const CancelContext& ctx) const {
  Decision d = Decide(op);
  if (d.delayed && plan_.delay.count() > 0) {
    counters_.delays.Add(1);
    // Best-effort interruptible: an interrupted delay ends early and the
    // caller's next cancellation check aborts the operation.
    (void)InterruptibleSleep(plan_.delay, ctx);
  }
  if ((d.kind != FaultKind::kNone || d.hung) &&
      consecutive_.load(std::memory_order_relaxed) >=
          plan_.max_consecutive) {
    // A run of max_consecutive injected faults forces the next operation
    // through, so bounded retry (and bounded hedging) always converges.
    d.kind = FaultKind::kNone;
    d.hung = false;
  }
  return d;
}

void FaultInjectingPointSource::NoteClean() const {
  const uint64_t run = consecutive_.exchange(0, std::memory_order_relaxed);
  if (run > 0) counters_.absorbed.Add(run);
}

Status FaultInjectingPointSource::ScanBlocks(const ScanSpec& spec,
                                             const BlockVisitor& visit) const {
  const size_t block_rows = spec.block_rows;
  const uint64_t op = counters_.ops.FetchAdd(1);
  if (plan_.kill_after_ops > 0 && op >= plan_.kill_after_ops) {
    counters_.scan_faults.Add(1);
    return Status::IOError("injected permanent failure (kill) at operation " +
                           std::to_string(op));
  }
  const Decision d = Admit(op, spec.cancel);

  // Slow-storage injection, served before any read so a soft per-shard
  // deadline (stall watchdog) fires while the operation is visibly "in
  // flight". A hang aborts the operation with the context's status; an
  // outlived stall lets it proceed.
  if (d.hung) {
    counters_.hangs.Add(1);
    consecutive_.fetch_add(1, std::memory_order_relaxed);
    return HangUntilCancelled(spec.cancel);
  }
  if (d.stalled && plan_.stall.count() > 0) {
    counters_.stalls.Add(1);
    PROCLUS_RETURN_IF_ERROR(InterruptibleSleep(plan_.stall, spec.cancel));
  }

  const IoCounters inner_before = inner_->io();
  if (d.kind == FaultKind::kNone) {
    Status status = inner_->Scan(spec, visit);
    if (status.ok()) {
      NoteClean();
      RecordScan(inner_->size(),
                 inner_->io().bytes_read - inner_before.bytes_read);
    }
    return status;
  }

  const size_t n = inner_->size();
  const size_t cols = inner_->dims();
  const size_t num_blocks = BlockCount(n, block_rows);
  const size_t fail_block =
      num_blocks == 0 ? 0 : static_cast<size_t>(d.position % num_blocks);
  // The inner scan is driven to completion but blocks at and after the
  // fault position are withheld from the caller; the inner source's
  // counters keep the wasted physical reads truthful.
  bool tripped = false;
  Status inner_status = inner_->Scan(
      spec,
      [&](size_t first, std::span<const double> data, size_t rows) {
        if (tripped) return;
        const size_t block = first / block_rows;
        if (block == fail_block) {
          if (d.kind == FaultKind::kShortRead) {
            const size_t keep = rows / 2;
            if (keep > 0)
              visit(first, data.first(keep * cols), keep);
          }
          tripped = true;
          return;
        }
        visit(first, data, rows);
      });
  // A genuine inner failure outranks the injected one.
  if (!inner_status.ok()) return inner_status;

  consecutive_.fetch_add(1, std::memory_order_relaxed);
  counters_.scan_faults.Add(1);
  const uint64_t fail_offset =
      static_cast<uint64_t>(fail_block) * block_rows * cols *
      sizeof(double);
  switch (d.kind) {
    case FaultKind::kCorrupt:
      counters_.corruptions.Add(1);
      return Status::DataLoss(
          "injected checksum mismatch in scan block " +
          std::to_string(fail_block) + " (payload byte offset " +
          std::to_string(fail_offset) + ", operation " +
          std::to_string(op) + ")");
    case FaultKind::kShortRead:
      counters_.short_reads.Add(1);
      return Status::IOError(
          "injected short read in scan block " +
          std::to_string(fail_block) + " (payload byte offset " +
          std::to_string(fail_offset) + ", operation " +
          std::to_string(op) + ")");
    case FaultKind::kFail:
    default:
      return Status::IOError(
          "injected transient failure in scan block " +
          std::to_string(fail_block) + " (payload byte offset " +
          std::to_string(fail_offset) + ", operation " +
          std::to_string(op) + ")");
  }
}

Result<Matrix> FaultInjectingPointSource::Fetch(
    std::span<const size_t> indices) const {
  const uint64_t op = counters_.ops.FetchAdd(1);
  if (plan_.kill_after_ops > 0 && op >= plan_.kill_after_ops) {
    counters_.fetch_faults.Add(1);
    return Status::IOError("injected permanent failure (kill) at operation " +
                           std::to_string(op));
  }
  // Fetch operations carry no cancellation context (Fetch keeps its
  // narrow signature), so delays stay uninterruptible and stall/hang
  // draws are ignored here — slow-storage injection is a Scan-side model.
  const Decision d = Admit(op, CancelContext{});
  if (d.kind != FaultKind::kNone) {
    consecutive_.fetch_add(1, std::memory_order_relaxed);
    counters_.fetch_faults.Add(1);
    if (d.kind == FaultKind::kCorrupt) {
      counters_.corruptions.Add(1);
      return Status::DataLoss("injected checksum mismatch fetching " +
                              std::to_string(indices.size()) +
                              " points (operation " + std::to_string(op) +
                              ")");
    }
    return Status::IOError("injected transient failure fetching " +
                           std::to_string(indices.size()) +
                           " points (operation " + std::to_string(op) + ")");
  }
  const IoCounters inner_before = inner_->io();
  Result<Matrix> result = inner_->Fetch(indices);
  if (result.ok()) {
    NoteClean();
    RecordFetch(indices.size(),
                inner_->io().bytes_read - inner_before.bytes_read);
  }
  return result;
}

}  // namespace proclus
