// Output checks: fingerprints, fit and classify invariants, and the
// RunStats identities, all read from outside the library.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <set>
#include <sstream>

#include "bench.h"
#include "common/hash.h"

namespace perfbench {

namespace {

// Reads the sketch counters through a requires-check, so the driver keeps
// compiling (and reports the sketch metrics as absent) if RunStats drops
// them.
template <typename Stats>
std::optional<SketchCounts> SketchCountsOf(const Stats& stats) {
  if constexpr (requires {
                  stats.sketch_rows_screened;
                  stats.sketch_rows_pruned;
                  stats.sketch_exact_verifications;
                }) {
    return SketchCounts{stats.sketch_rows_screened, stats.sketch_rows_pruned,
                        stats.sketch_exact_verifications};
  } else {
    return std::nullopt;
  }
}

}  // namespace

std::optional<SketchCounts> SketchOf(const proclus::RunStats& stats) {
  return SketchCountsOf(stats);
}

std::string Fingerprint::ToString() const {
  char head[80];
  std::snprintf(head, sizeof(head), "%016" PRIx64 " %016" PRIx64 " %" PRIu64,
                objective_bits, labels_hash, iterations);
  return std::string(head) + " " + medoids + " " + dimensions;
}

Fingerprint FingerprintOf(const proclus::ProjectedClustering& model,
                          const std::vector<int>& labels) {
  Fingerprint fp;
  std::memcpy(&fp.objective_bits, &model.objective, sizeof(double));
  fp.labels_hash =
      proclus::Xxh64::Hash(labels.data(), labels.size() * sizeof(int));
  fp.iterations = model.iterations;
  for (size_t i = 0; i < model.medoids.size(); ++i) {
    if (i > 0) fp.medoids += ',';
    fp.medoids += std::to_string(model.medoids[i]);
  }
  for (size_t i = 0; i < model.dimensions.size(); ++i) {
    if (i > 0) fp.dimensions += '/';
    const std::vector<uint32_t> dims = model.dimensions[i].ToVector();
    for (size_t j = 0; j < dims.size(); ++j) {
      if (j > 0) fp.dimensions += '.';
      fp.dimensions += std::to_string(dims[j]);
    }
  }
  return fp;
}

std::string FingerprintBook::Key(const std::string& data_tag, size_t rows,
                                 uint64_t seed, uint64_t algo_seed) {
  return data_tag + "/" + std::to_string(rows) + "/" + std::to_string(seed) +
         "/" + std::to_string(algo_seed);
}

bool FingerprintBook::Load(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) return true;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key, objective, labels;
    Fingerprint fp;
    if (!(fields >> key >> objective >> labels >> fp.iterations >>
          fp.medoids >> fp.dimensions)) {
      *error = path + ":" + std::to_string(line_no) + ": malformed line";
      return false;
    }
    fp.objective_bits = std::strtoull(objective.c_str(), nullptr, 16);
    fp.labels_hash = std::strtoull(labels.c_str(), nullptr, 16);
    book_[key] = fp;
  }
  return true;
}

bool FingerprintBook::Save(const std::string& path) const {
  const std::string tmp = path + "." + std::to_string(getpid()) + ".tmp";
  {
    std::ofstream out(tmp);
    if (!out) return false;
    out << "# key (data/rows/seed/algorithm seed), objective bits, "
           "XXH64 of labels, iterations, medoids, dimension sets\n";
    for (const auto& [key, fp] : book_)
      out << key << ' ' << fp.ToString() << '\n';
    if (!out.good()) return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

const Fingerprint* FingerprintBook::Find(const std::string& key) const {
  auto it = book_.find(key);
  return it == book_.end() ? nullptr : &it->second;
}

std::string CheckLabels(const std::vector<int>& labels, size_t rows,
                        size_t k) {
  if (labels.size() != rows)
    return "labels: " + std::to_string(labels.size()) + " for " +
           std::to_string(rows) + " rows";
  for (int label : labels)
    if (label < proclus::kOutlierLabel || label >= static_cast<int>(k))
      return "label " + std::to_string(label) + " outside [-1, k)";
  return "";
}

std::string CheckFit(const proclus::ProjectedClustering& model, size_t rows,
                     size_t k, double l) {
  std::string labels = CheckLabels(model.labels, rows, k);
  if (!labels.empty()) return labels;
  if (model.medoids.size() != k || model.dimensions.size() != k ||
      model.medoid_coords.rows() != k)
    return "model does not have k clusters";
  std::set<size_t> distinct(model.medoids.begin(), model.medoids.end());
  if (distinct.size() != k || *distinct.rbegin() >= rows)
    return "medoids not distinct rows";
  size_t total = 0;
  for (const proclus::DimensionSet& dims : model.dimensions) {
    if (dims.size() < 2) return "cluster with fewer than 2 dimensions";
    total += dims.size();
  }
  if (total != static_cast<size_t>(std::llround(static_cast<double>(k) * l)))
    return "dimension total " + std::to_string(total) + " != round(k*l)";
  if (!std::isfinite(model.objective)) return "objective not finite";
  return "";
}

std::string CheckStats(const proclus::RunStats& stats, size_t rows,
                       size_t dims, bool disk) {
  if (stats.rows_visited != rows * stats.scans_issued)
    return "rows_visited != N * scans";
  const uint64_t bytes = disk ? stats.rows_visited * dims * sizeof(double) : 0;
  if (stats.bytes_read != bytes)
    return "bytes_read " + std::to_string(stats.bytes_read) + " != " +
           std::to_string(bytes);
  if (auto sketch = SketchOf(stats);
      sketch && sketch->screened != sketch->pruned + sketch->verified)
    return "sketch screened != pruned + verifications";
  if (stats.retries != 0 || stats.failed_scans != 0)
    return "retries or failed scans on a fault-free run";
  return "";
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  return values[std::max<size_t>(rank, 1) - 1];
}

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
