// Span recorder and the tracing PointSource decorator.

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "bench.h"

namespace perfbench {

namespace {

int64_t SteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

TraceRecorder::TraceRecorder() : epoch_ns_(SteadyNs()) {}

int64_t TraceRecorder::Now() const { return SteadyNs() - epoch_ns_; }

void TraceRecorder::Record(const Span& span) {
  proclus::MutexLock lock(mu_);
  spans_.push_back(span);
}

std::vector<Span> TraceRecorder::Spans() const {
  proclus::MutexLock lock(mu_);
  return spans_;
}

proclus::Result<proclus::Matrix> TracingSource::Fetch(
    std::span<const size_t> indices) const {
  Span span;
  span.name = "fetch";
  span.id = recorder_->NewId();
  span.op = recorder_->op();
  span.parent = span.op;
  span.shard = shard_;
  span.rows = indices.size();
  const proclus::IoCounters before = inner_->io();
  span.start_ns = recorder_->Now();
  proclus::Result<proclus::Matrix> result = inner_->Fetch(indices);
  span.end_ns = recorder_->Now();
  span.bytes = inner_->io().bytes_read - before.bytes_read;
  recorder_->Record(span);
  if (result.ok()) RecordFetch(indices.size(), span.bytes);
  return result;
}

proclus::Status TracingSource::ScanBlocks(
    const proclus::ScanSpec& spec, const proclus::BlockVisitor& visit) const {
  Span scan;
  scan.name = "scan";
  scan.id = recorder_->NewId();
  scan.op = recorder_->op();
  scan.parent = scan.op;
  scan.shard = shard_;
  const proclus::IoCounters before = inner_->io();
  scan.start_ns = recorder_->Now();
  // The previous delivery's end; a block's wait runs from there to its
  // arrival, which is the read and verify time prefetch did not hide.
  int64_t mark = scan.start_ns;
  // A decorator forwards the caller's whole scan, as the fault-injection
  // decorator does; the executor above it owns retry and consumers.
  proclus::Status status = inner_->Scan(  // lint:allow(raw-scan)
      spec, [&](size_t first, std::span<const double> data, size_t rows) {
        Span wait;
        wait.name = "block.wait";
        wait.id = recorder_->NewId();
        wait.parent = scan.id;
        wait.op = scan.op;
        wait.shard = shard_;
        wait.rows = rows;
        wait.start_ns = mark;
        wait.end_ns = recorder_->Now();
        visit(first, data, rows);
        Span consume = wait;
        consume.name = "block.consume";
        consume.id = recorder_->NewId();
        consume.start_ns = wait.end_ns;
        consume.end_ns = recorder_->Now();
        mark = consume.end_ns;
        recorder_->Record(wait);
        recorder_->Record(consume);
        scan.rows += rows;
      });
  scan.end_ns = recorder_->Now();
  scan.bytes = inner_->io().bytes_read - before.bytes_read;
  recorder_->Record(scan);
  if (status.ok()) RecordScan(inner_->size(), scan.bytes);
  return status;
}

OpTrace SummarizeOp(const std::vector<Span>& spans, const Span& op_span,
                    size_t num_shards) {
  OpTrace out;
  out.op_s = op_span.seconds();
  std::vector<std::pair<int64_t, int64_t>> intervals;
  std::vector<std::vector<const Span*>> by_shard(num_shards);
  for (const Span& span : spans) {
    if (span.op != op_span.id) continue;
    const std::string name = span.name;
    if (name == "block.wait") {
      out.wait_s += span.seconds();
    } else if (name == "block.consume") {
      out.consume_s += span.seconds();
    } else if (name == "fetch") {
      out.fetch_s += span.seconds();
    } else if (name == "scan") {
      out.scans += 1;
      intervals.emplace_back(std::max(span.start_ns, op_span.start_ns),
                             std::min(span.end_ns, op_span.end_ns));
      if (span.shard >= 0 && static_cast<size_t>(span.shard) < num_shards)
        by_shard[static_cast<size_t>(span.shard)].push_back(&span);
    }
  }
  // Union of the scan spans and the gaps between them (serial time).
  std::sort(intervals.begin(), intervals.end());
  int64_t cursor = op_span.start_ns;
  int64_t union_ns = 0;
  int64_t gap_ns = 0;
  for (const auto& [start, end] : intervals) {
    if (end <= start) continue;
    if (start > cursor) {
      gap_ns += start - cursor;
      cursor = start;
    }
    if (end > cursor) {
      union_ns += end - cursor;
      cursor = end;
    }
  }
  if (op_span.end_ns > cursor) gap_ns += op_span.end_ns - cursor;
  out.scan_union_s = static_cast<double>(union_ns) * 1e-9;
  out.serial_s = static_cast<double>(gap_ns) * 1e-9;
  out.residual_s = out.op_s - out.serial_s - out.scan_union_s;

  // Whole-set scans are issued one at a time, so the j-th scan of every
  // shard within the op belongs to the j-th whole-set scan.
  if (num_shards > 1) {
    size_t scans = SIZE_MAX;
    for (auto& list : by_shard) {
      std::sort(list.begin(), list.end(), [](const Span* a, const Span* b) {
        return a->start_ns < b->start_ns;
      });
      scans = std::min(scans, list.size());
    }
    for (size_t j = 0; j < scans; ++j) {
      double slowest = 0.0;
      double fastest = 1e300;
      for (const auto& list : by_shard) {
        slowest = std::max(slowest, list[j]->seconds());
        fastest = std::min(fastest, list[j]->seconds());
      }
      if (fastest > 0.0) out.shard_skew.push_back(slowest / fastest);
    }
  }
  return out;
}

bool WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fputs("[\n", file);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(file,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,\"op\":%llu,"
                 "\"start_ns\":%lld,\"end_ns\":%lld,\"rows\":%llu,"
                 "\"bytes\":%llu,\"shard\":%d}%s\n",
                 s.name, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.op),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.rows),
                 static_cast<unsigned long long>(s.bytes), s.shard,
                 i + 1 < spans.size() ? "," : "");
  }
  std::fputs("]\n", file);
  return std::fclose(file) == 0;
}

}  // namespace perfbench
