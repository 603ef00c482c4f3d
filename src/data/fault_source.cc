#include "data/fault_source.h"

#include <string>

#include "common/cancel.h"
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
  // The position draw once chose which block of a multi-block scan
  // failed; it is still drawn, so every seed keeps its schedule.
  (void)gen.Next();
  out.delayed = ToUnit(gen.Next()) < plan_.delay_rate;
  // Stall/hang draws come last so enabling them never perturbs an
  // existing fail/corrupt/delay schedule for the same seed.
  out.stalled = ToUnit(gen.Next()) < plan_.stall_rate;
  out.hung = ToUnit(gen.Next()) < plan_.hang_rate;
  return out;
}

FaultInjectingPointSource::Decision FaultInjectingPointSource::Admit(
    uint64_t op, uint64_t read, const CancelContext& ctx) const {
  Decision d = Decide(op);
  if (d.delayed && plan_.delay.count() > 0) {
    counters_.delays.Add(1);
    // Best-effort interruptible: an interrupted delay ends early and the
    // caller's next cancellation check aborts the operation.
    (void)InterruptibleSleep(plan_.delay, ctx);
  }
  if (d.kind != FaultKind::kNone || d.hung) {
    MutexLock lock(mu_);
    uint64_t& run = runs_[read];
    if (run >= plan_.max_consecutive) {
      // A run of max_consecutive injected faults on this read forces its
      // next attempt through, so bounded retry (and bounded hedging)
      // always converges, whatever other reads do meanwhile.
      d.kind = FaultKind::kNone;
      d.hung = false;
    } else {
      run += 1;
    }
  }
  return d;
}

void FaultInjectingPointSource::NoteClean(uint64_t read) const {
  MutexLock lock(mu_);
  const auto it = runs_.find(read);
  if (it == runs_.end()) return;
  counters_.absorbed.Add(it->second);
  runs_.erase(it);
}

Status FaultInjectingPointSource::ScanBlocks(const ScanSpec& spec,
                                             const BlockVisitor& visit) const {
  const uint64_t op = counters_.ops.FetchAdd(1);
  if (plan_.kill_after_ops > 0 && op >= plan_.kill_after_ops) {
    counters_.scan_faults.Add(1);
    return Status::IOError("injected permanent failure (kill) at operation " +
                           std::to_string(op));
  }
  const uint64_t read = spec.first_row;
  const Decision d = Admit(op, read, spec.cancel);

  // Slow-storage injection, served before any read so a soft deadline
  // (the executor's stall watchdog) fires while the operation is visibly
  // "in flight". A hang aborts the operation with the context's status;
  // an outlived stall lets it proceed.
  if (d.hung) {
    counters_.hangs.Add(1);
    return HangUntilCancelled(spec.cancel);
  }
  if (d.stalled && plan_.stall.count() > 0) {
    counters_.stalls.Add(1);
    PROCLUS_RETURN_IF_ERROR(InterruptibleSleep(plan_.stall, spec.cancel));
  }

  const uint64_t bytes_before = ThreadScanBytesRead();
  const size_t rows = spec.end_row - spec.first_row;
  if (d.kind == FaultKind::kNone) {
    Status status = inner_->Scan(spec, visit);
    if (status.ok()) {
      NoteClean(read);
      RecordScan(rows, ThreadScanBytesRead() - bytes_before);
    }
    return status;
  }

  // The inner read runs, so the inner source's counters keep the wasted
  // physical read truthful, but its block is withheld from the caller; a
  // short read hands over the first half of it.
  const size_t cols = inner_->dims();
  Status inner_status = inner_->Scan(
      spec, [&](size_t first, std::span<const double> data, size_t count) {
        const size_t keep = count / 2;
        if (d.kind == FaultKind::kShortRead && keep > 0)
          visit(first, data.first(keep * cols), keep);
      });
  // A genuine inner failure outranks the injected one.
  if (!inner_status.ok()) return inner_status;

  counters_.scan_faults.Add(1);
  const std::string where =
      " at row " + std::to_string(spec.first_row) + " (payload byte offset " +
      std::to_string(static_cast<uint64_t>(spec.first_row) * cols *
                     sizeof(double)) +
      ", operation " + std::to_string(op) + ")";
  switch (d.kind) {
    case FaultKind::kCorrupt:
      counters_.corruptions.Add(1);
      return Status::DataLoss("injected checksum mismatch" + where);
    case FaultKind::kShortRead:
      counters_.short_reads.Add(1);
      return Status::IOError("injected short read" + where);
    case FaultKind::kFail:
    default:
      return Status::IOError("injected transient failure" + where);
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
  const Decision d = Admit(op, kFetchRead, CancelContext{});
  if (d.kind != FaultKind::kNone) {
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
    NoteClean(kFetchRead);
    RecordFetch(indices.size(),
                inner_->io().bytes_read - inner_before.bytes_read);
  }
  return result;
}

}  // namespace proclus
