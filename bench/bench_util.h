// Shared helpers for the paper-reproduction benchmark harness: the Case 1
// and Case 2 input configurations of Section 4.2, simple flag parsing, and
// result printing.

#ifndef PROCLUS_BENCH_BENCH_UTIL_H_
#define PROCLUS_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/proclus.h"
#include "eval/confusion.h"
#include "eval/report.h"
#include "gen/synthetic.h"

namespace proclus::bench {

/// Command-line options shared by every harness binary.
struct BenchOptions {
  /// Scale factor on N: 1.0 reproduces the paper's N = 100,000; --quick
  /// sets 0.1 for a fast smoke run.
  double scale = 1.0;
  /// Generator / algorithm seed. The default draws cluster sizes with the
  /// same moderate balance as the paper's input files (15k-26k points per
  /// cluster); heavily skewed exponential draws make the piercing problem
  /// strictly harder than the paper's inputs (see EXPERIMENTS.md).
  uint64_t seed = 22;
  /// Seed for the clustering algorithms (independent of the data seed so
  /// the same input file can be re-clustered with different randomness).
  uint64_t algo_seed = 1;
  /// Extra repetitions for timing stability.
  size_t repetitions = 1;
  /// Emit results as a JSON document instead of the human-readable
  /// report (enables machine-diffable baselines such as
  /// BENCH_scan_engine.json).
  bool json = false;

  /// Number of points after scaling.
  size_t Points(size_t paper_n = 100000) const {
    size_t n = static_cast<size_t>(static_cast<double>(paper_n) * scale);
    return n < 1000 ? 1000 : n;
  }
};

/// Parses --quick, --scale=X, --seed=N, --reps=N, --json; ignores unknown
/// flags. --json switches PrintKV/PrintHeader into JSON capture mode (see
/// FinishJson).
BenchOptions ParseOptions(int argc, char** argv);

/// Paper Case 1 input: N=100k (scaled), d=20, k=5, every cluster in a
/// 7-dimensional subspace, 5% outliers.
GeneratorParams Case1Params(const BenchOptions& options);

/// Paper Case 2 input: N=100k (scaled), d=20, k=5, cluster dimensions
/// {7, 3, 2, 6, 2} (two 2-d, one 3-d, one 6-d, one 7-d), 5% outliers.
GeneratorParams Case2Params(const BenchOptions& options);

/// PROCLUS parameters the harness uses for a given k and l.
ProclusParams DefaultProclus(size_t k, double l, uint64_t seed);

/// Runs PROCLUS, pairs output clusters to input clusters by maximal
/// agreement, and reorders labels/dimensions so output cluster i
/// corresponds to input cluster match[i] where possible. Returns the
/// reordered clustering (cluster order follows the paper's convention of
/// arbitrary numbering, so we keep PROCLUS's own order and report the
/// matching).
struct HarnessRun {
  ProjectedClustering clustering;
  ConfusionMatrix confusion;
  std::vector<int> match;  // output cluster -> input cluster (-1 if none).
  double seconds = 0.0;
};
HarnessRun RunProclusHarness(const SyntheticData& data,
                             const ProclusParams& params);

/// Prints a "key = value" line in a stable format. In JSON mode the pair
/// is captured into the current section instead.
void PrintKV(const std::string& key, const std::string& value);
void PrintKV(const std::string& key, double value);

/// Prints a section header. In JSON mode this starts a new section.
void PrintHeader(const std::string& title);

/// Whether --json capture mode is active. Harnesses use this to skip
/// free-form table/printf output that has no JSON representation.
bool JsonOutput();

/// Enables/disables JSON capture (ParseOptions calls this for --json).
void SetJsonOutput(bool enabled);

/// Prints "<key> median", "<key> min" and "<key> max" of repeated
/// timings (`seconds` must be non-empty).
void PrintSpread(const std::string& key, std::vector<double> seconds);

/// Prints the kernel clone in use (KernelIsa) and the data-movement
/// counters of a run under `prefix`.
void PrintRunStats(const std::string& prefix, const RunStats& stats);

/// Prints a rendered table; in JSON mode the header row is captured under
/// "<name> columns" and each data row under "<name> row" as arrays.
void PrintTable(const std::string& name, const TableWriter& table);

/// In JSON mode, writes the captured document
///   {"binary": <name>, "host": {hardware_concurrency, affinity_cpus,
///    kernel_isa, page_size_bytes}, "sections": [{"title": ...,
///    "values": [[k, v]...]}]}
/// to stdout and clears the capture buffer; otherwise a no-op. Call once
/// at the end of main.
void FinishJson(const std::string& binary);

}  // namespace proclus::bench

#endif  // PROCLUS_BENCH_BENCH_UTIL_H_
