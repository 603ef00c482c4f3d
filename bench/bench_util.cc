#include "bench_util.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#if defined(__linux__)
#include <sched.h>
#endif
#endif

#include "common/timer.h"
#include "distance/batch.h"
#include "eval/matching.h"

namespace proclus::bench {

namespace {

// --json capture state: PrintHeader starts a section, PrintKV appends a
// [key, value] pair to the last section, FinishJson renders the document.
struct JsonSection {
  std::string title;
  // (key, rendered value) — the value string is already valid JSON.
  std::vector<std::pair<std::string, std::string>> values;
};

bool json_output = false;
std::vector<JsonSection> json_sections;

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonAdd(const std::string& key, std::string rendered) {
  if (json_sections.empty()) json_sections.push_back({"", {}});
  json_sections.back().values.emplace_back(key, std::move(rendered));
}

}  // namespace

BenchOptions ParseOptions(int argc, char** argv) {
  BenchOptions options;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--quick") == 0) {
      options.scale = 0.1;
    } else if (std::strncmp(arg, "--scale=", 8) == 0) {
      options.scale = std::atof(arg + 8);
      if (options.scale <= 0.0) options.scale = 1.0;
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      options.seed = static_cast<uint64_t>(std::atoll(arg + 7));
    } else if (std::strncmp(arg, "--algo-seed=", 12) == 0) {
      options.algo_seed = static_cast<uint64_t>(std::atoll(arg + 12));
    } else if (std::strncmp(arg, "--reps=", 7) == 0) {
      options.repetitions = static_cast<size_t>(std::atoll(arg + 7));
      if (options.repetitions == 0) options.repetitions = 1;
    } else if (std::strcmp(arg, "--json") == 0) {
      options.json = true;
    }
  }
  SetJsonOutput(options.json);
  return options;
}

GeneratorParams Case1Params(const BenchOptions& options) {
  GeneratorParams params;
  params.num_points = options.Points();
  params.space_dims = 20;
  params.num_clusters = 5;
  params.cluster_dim_counts = {7, 7, 7, 7, 7};
  params.outlier_fraction = 0.05;
  params.seed = options.seed;
  return params;
}

GeneratorParams Case2Params(const BenchOptions& options) {
  GeneratorParams params;
  params.num_points = options.Points();
  params.space_dims = 20;
  params.num_clusters = 5;
  // The paper's second file: two 2-d clusters, one 3-d, one 6-d, one 7-d
  // (average l = 4).
  params.cluster_dim_counts = {7, 3, 2, 6, 2};
  params.outlier_fraction = 0.05;
  params.seed = options.seed;
  return params;
}

ProclusParams DefaultProclus(size_t k, double l, uint64_t seed) {
  ProclusParams params;
  params.num_clusters = k;
  params.avg_dims = l;
  params.seed = seed;
  return params;
}

HarnessRun RunProclusHarness(const SyntheticData& data,
                             const ProclusParams& params) {
  Timer timer;
  auto result = RunProclus(data.dataset, params);
  double seconds = timer.ElapsedSeconds();
  if (!result.ok()) {
    std::fprintf(stderr, "PROCLUS failed: %s\n",
                 result.status().ToString().c_str());
    std::exit(1);
  }
  auto confusion = ConfusionMatrix::Build(
      result->labels, params.num_clusters, data.truth.labels,
      data.truth.num_clusters());
  if (!confusion.ok()) {
    std::fprintf(stderr, "confusion failed: %s\n",
                 confusion.status().ToString().c_str());
    std::exit(1);
  }
  std::vector<int> match = MatchClusters(*confusion);
  return HarnessRun{std::move(result).value(), std::move(confusion).value(),
                    std::move(match), seconds};
}

void PrintKV(const std::string& key, const std::string& value) {
  if (json_output) {
    JsonAdd(key, "\"" + JsonEscape(value) + "\"");
    return;
  }
  std::printf("%-32s = %s\n", key.c_str(), value.c_str());
}

void PrintKV(const std::string& key, double value) {
  if (json_output) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    JsonAdd(key, buffer);
    return;
  }
  std::printf("%-32s = %.4f\n", key.c_str(), value);
}

void PrintHeader(const std::string& title) {
  if (json_output) {
    json_sections.push_back({title, {}});
    return;
  }
  std::printf("\n==== %s ====\n", title.c_str());
}

bool JsonOutput() { return json_output; }

void SetJsonOutput(bool enabled) { json_output = enabled; }

void PrintSpread(const std::string& key, std::vector<double> seconds) {
  std::sort(seconds.begin(), seconds.end());
  const size_t n = seconds.size();
  const double median = n % 2 == 1
                            ? seconds[n / 2]
                            : 0.5 * (seconds[n / 2 - 1] + seconds[n / 2]);
  PrintKV(key + " median", median);
  PrintKV(key + " min", seconds.front());
  PrintKV(key + " max", seconds.back());
}

void PrintRunStats(const std::string& prefix, const RunStats& stats) {
  PrintKV(prefix + " kernel isa", KernelIsa());
  PrintKV(prefix + " scans", static_cast<double>(stats.scans_issued));
  PrintKV(prefix + " rows visited",
          static_cast<double>(stats.rows_visited));
  PrintKV(prefix + " bytes read", static_cast<double>(stats.bytes_read));
  PrintKV(prefix + " distance evals",
          static_cast<double>(stats.distance_evals));
  PrintKV(prefix + " kernel batches",
          static_cast<double>(stats.kernel_batches));
  PrintKV(prefix + " kernel rows",
          static_cast<double>(stats.kernel_rows));
  PrintKV(prefix + " tile reuse hits",
          static_cast<double>(stats.tile_reuse_hits));
  PrintKV(prefix + " locality cache hits",
          static_cast<double>(stats.locality_cache_hits));
  PrintKV(prefix + " locality cache misses",
          static_cast<double>(stats.locality_cache_misses));
  PrintKV(prefix + " assign column hits",
          static_cast<double>(stats.assign_column_hits));
  PrintKV(prefix + " assign column misses",
          static_cast<double>(stats.assign_column_misses));
  PrintKV(prefix + " locality row hits",
          static_cast<double>(stats.locality_row_hits));
  PrintKV(prefix + " locality row misses",
          static_cast<double>(stats.locality_row_misses));
  PrintKV(prefix + " bootstrap scans",
          static_cast<double>(stats.bootstrap_scans));
  PrintKV(prefix + " iterative scans",
          static_cast<double>(stats.iterative_scans));
  PrintKV(prefix + " refine scans",
          static_cast<double>(stats.refine_scans));
  PrintKV(prefix + " retries", static_cast<double>(stats.retries));
  PrintKV(prefix + " failed scans",
          static_cast<double>(stats.failed_scans));
  PrintKV(prefix + " wasted rows",
          static_cast<double>(stats.wasted_rows));
  PrintKV(prefix + " cancel checks",
          static_cast<double>(stats.cancel_checks));
  PrintKV(prefix + " cancelled scans",
          static_cast<double>(stats.cancelled_scans));
  PrintKV(prefix + " hedged scans",
          static_cast<double>(stats.hedged_scans));
  PrintKV(prefix + " deadline misses",
          static_cast<double>(stats.deadline_misses));
  // Per-shard counters (sharded scans only): one table row per shard, in
  // shard order, so the JSON baseline records how the work, the retries,
  // and the watchdog hedges distributed across the shard set.
  if (!stats.shard_io.empty()) {
    TableWriter table({"shard", "scans", "rows", "bytes", "retries",
                       "hedges"});
    for (size_t s = 0; s < stats.shard_io.size(); ++s) {
      const RunStats::ShardIo& io = stats.shard_io[s];
      table.AddRow({std::to_string(s), std::to_string(io.scans),
                    std::to_string(io.rows), std::to_string(io.bytes),
                    std::to_string(io.retries),
                    std::to_string(io.hedges)});
    }
    PrintTable(prefix + " shard io", table);
  }
}

void PrintTable(const std::string& name, const TableWriter& table) {
  if (!json_output) {
    std::printf("%s", table.ToString().c_str());
    return;
  }
  auto render_row = [](const std::vector<std::string>& cells) {
    std::string out = "[";
    for (size_t i = 0; i < cells.size(); ++i) {
      if (i > 0) out += ", ";
      out += "\"" + JsonEscape(cells[i]) + "\"";
    }
    out += "]";
    return out;
  };
  JsonAdd(name + " columns", render_row(table.headers()));
  for (const std::vector<std::string>& row : table.rows())
    JsonAdd(name + " row", render_row(row));
}

void FinishJson(const std::string& binary) {
  if (!json_output) return;
  // Host metadata, so a committed baseline records what machine shaped
  // its timings and which kernel clone ran (counters are
  // machine-independent; seconds are not). affinity_cpus is the number
  // of CPUs the process may run on: `taskset -c 2` makes it 1 while
  // hardware_concurrency still counts every CPU of the host. 0 where the
  // platform cannot tell.
  long page_size = 0;
#if defined(_SC_PAGESIZE)
  page_size = sysconf(_SC_PAGESIZE);
#endif
  int affinity_cpus = 0;
#if defined(__linux__)
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  if (sched_getaffinity(0, sizeof(cpus), &cpus) == 0)
    affinity_cpus = CPU_COUNT(&cpus);
#endif
  std::printf("{\"binary\": \"%s\", \"host\": "
              "{\"hardware_concurrency\": %u, \"affinity_cpus\": %d, "
              "\"kernel_isa\": \"%s\", \"page_size_bytes\": %ld}, "
              "\"sections\": [",
              JsonEscape(binary).c_str(),
              std::thread::hardware_concurrency(), affinity_cpus,
              KernelIsa(), page_size);
  for (size_t s = 0; s < json_sections.size(); ++s) {
    const JsonSection& section = json_sections[s];
    std::printf("%s\n  {\"title\": \"%s\", \"values\": [",
                s == 0 ? "" : ",", JsonEscape(section.title).c_str());
    for (size_t i = 0; i < section.values.size(); ++i) {
      std::printf("%s\n    [\"%s\", %s]", i == 0 ? "" : ",",
                  JsonEscape(section.values[i].first).c_str(),
                  section.values[i].second.c_str());
    }
    std::printf("]}");
  }
  std::printf("\n]}\n");
  json_sections.clear();
}

}  // namespace proclus::bench
