// proclus_cli — command-line front end for the library.
//
//   proclus_cli generate --out data.csv [--n 10000] [--d 20] [--k 5]
//                        [--cluster-dims 7] [--outliers 0.05]
//                        [--rotation 0] [--seed 42] [--truth truth.csv]
//   proclus_cli fit      --input data.csv --k 5 --l 4
//                        [--model out.model] [--labels labels.csv]
//                        [--zscore] [--seed 1] [--threads 1]
//   proclus_cli classify --model fit.model --input new.csv
//                        [--labels labels.csv] [--no-outliers]
//   proclus_cli evaluate --labels labels.csv --truth truth.csv
//
// Label files are single-column CSVs of integers (-1 = outlier).

#include <cerrno>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "core/classify.h"
#include "core/model_io.h"
#include "core/proclus.h"
#include "data/csv.h"
#include "data/normalize.h"
#include "eval/confusion.h"
#include "eval/matching.h"
#include "eval/metrics.h"
#include "eval/summary.h"
#include "gen/synthetic.h"

namespace {

using namespace proclus;

// ---- tiny flag parser: --name value pairs plus boolean --name flags ----

class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        std::fprintf(stderr, "unexpected argument '%s'\n", arg.c_str());
        ok_ = false;
        return;
      }
      std::string name = arg.substr(2);
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        values_[name] = argv[++i];
      } else {
        values_[name] = "";  // Boolean flag.
      }
    }
  }

  bool ok() const { return ok_; }
  bool Has(const std::string& name) const { return values_.count(name); }
  std::string Get(const std::string& name,
                  const std::string& fallback = "") const {
    auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
  }
  // Numeric flags parse strictly. An absent flag yields `fallback`; a
  // negative, non-numeric or partly numeric value also yields `fallback`
  // and records an InvalidArgument naming the flag, which error() reports
  // so the command can refuse to run.
  uint64_t GetCount(const std::string& name, uint64_t fallback) const {
    if (!Has(name)) return fallback;
    const std::string text = Get(name);
    char* end = nullptr;
    errno = 0;
    const unsigned long long value =
        std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0])) ||
        *end != '\0' || errno == ERANGE)
      return Reject(name, text, "a non-negative integer", fallback);
    return value;
  }
  double GetNumber(const std::string& name, double fallback) const {
    if (!Has(name)) return fallback;
    const std::string text = Get(name);
    char* end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (text.empty() || *end != '\0' || !std::isfinite(value) ||
        std::signbit(value))
      return Reject(name, text, "a non-negative number", fallback);
    return value;
  }
  /// The first malformed numeric flag, or OK.
  const Status& error() const { return error_; }

 private:
  template <typename T>
  T Reject(const std::string& name, const std::string& text,
           const char* expected, T fallback) const {
    if (error_.ok())
      error_ = Status::InvalidArgument("--" + name + " expects " + expected +
                                       ", got '" + text + "'");
    return fallback;
  }

  std::map<std::string, std::string> values_;
  bool ok_ = true;
  mutable Status error_;
};

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

Status WriteLabels(const std::vector<int>& labels,
                   const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot write '" + path + "'");
  out << "cluster\n";
  for (int label : labels) out << label << '\n';
  if (!out) return Status::IOError("label write failed");
  return Status::OK();
}

Result<std::vector<int>> ReadLabels(const std::string& path) {
  auto csv = ReadCsvFile(path);
  PROCLUS_RETURN_IF_ERROR(csv.status());
  if (csv->dims() != 1)
    return Status::InvalidArgument("label file must have one column");
  std::vector<int> labels(csv->size());
  for (size_t i = 0; i < csv->size(); ++i)
    labels[i] = static_cast<int>(csv->at(i, 0));
  return labels;
}

// ---- subcommands ----

int CmdGenerate(const Flags& flags) {
  std::string out_path = flags.Get("out");
  if (out_path.empty()) {
    std::fprintf(stderr, "generate: --out is required\n");
    return 2;
  }
  GeneratorParams params;
  params.num_points = flags.GetCount("n", 10000);
  params.space_dims = flags.GetCount("d", 20);
  params.num_clusters = flags.GetCount("k", 5);
  params.outlier_fraction = flags.GetNumber("outliers", 0.05);
  params.rotation_max_degrees = flags.GetNumber("rotation", 0.0);
  params.seed = flags.GetCount("seed", 42);
  const size_t cluster_dims = flags.GetCount("cluster-dims", 5);
  const double poisson_mean = flags.GetNumber("poisson", 5.0);
  if (!flags.error().ok()) return Fail(flags.error());
  if (flags.Has("cluster-dims"))
    params.cluster_dim_counts.assign(params.num_clusters, cluster_dims);
  else
    params.poisson_mean = poisson_mean;
  auto data = GenerateSynthetic(params);
  if (!data.ok()) return Fail(data.status());
  if (Status status = WriteCsvFile(data->dataset, out_path); !status.ok())
    return Fail(status);
  std::printf("wrote %zu x %zu points to %s\n", data->dataset.size(),
              data->dataset.dims(), out_path.c_str());
  if (flags.Has("truth")) {
    if (Status status = WriteLabels(data->truth.labels, flags.Get("truth"));
        !status.ok())
      return Fail(status);
    std::printf("wrote ground-truth labels to %s\n",
                flags.Get("truth").c_str());
    for (size_t i = 0; i < data->truth.num_clusters(); ++i)
      std::printf("  true cluster %zu dims: {%s}\n", i + 1,
                  data->truth.cluster_dims[i].ToListString(1).c_str());
  }
  return 0;
}

int CmdFit(const Flags& flags) {
  std::string input = flags.Get("input");
  if (input.empty() || !flags.Has("k") || !flags.Has("l")) {
    std::fprintf(stderr, "fit: --input, --k and --l are required\n");
    return 2;
  }
  ProclusParams params;
  params.num_clusters = flags.GetCount("k", 5);
  params.avg_dims = flags.GetNumber("l", 4.0);
  params.seed = flags.GetCount("seed", 1);
  params.num_threads = flags.GetCount("threads", 1);
  if (!flags.error().ok()) return Fail(flags.error());
  auto dataset = ReadCsvFile(input);
  if (!dataset.ok()) return Fail(dataset.status());
  Dataset working = *dataset;
  if (flags.Has("zscore")) {
    auto transform = ZScoreTransform(working);
    if (!transform.ok()) return Fail(transform.status());
    transform->Apply(&working);
  }
  auto model = RunProclus(working, params);
  if (!model.ok()) return Fail(model.status());

  auto summary = SummarizeClustering(working, *model);
  if (summary.ok())
    std::printf("%s", RenderSummary(*summary, dataset->dim_names()).c_str());

  if (flags.Has("model")) {
    if (Status status = SaveModelFile(*model, flags.Get("model"));
        !status.ok())
      return Fail(status);
    std::printf("model saved to %s\n", flags.Get("model").c_str());
  }
  if (flags.Has("labels")) {
    if (Status status = WriteLabels(model->labels, flags.Get("labels"));
        !status.ok())
      return Fail(status);
    std::printf("labels written to %s\n", flags.Get("labels").c_str());
  }
  return 0;
}

int CmdClassify(const Flags& flags) {
  std::string model_path = flags.Get("model");
  std::string input = flags.Get("input");
  if (model_path.empty() || input.empty()) {
    std::fprintf(stderr, "classify: --model and --input are required\n");
    return 2;
  }
  auto model = LoadModelFile(model_path);
  if (!model.ok()) return Fail(model.status());
  auto dataset = ReadCsvFile(input);
  if (!dataset.ok()) return Fail(dataset.status());
  ClassifyOptions options;
  options.detect_outliers = !flags.Has("no-outliers");
  auto labels = ClassifyPoints(*model, *dataset, options);
  if (!labels.ok()) return Fail(labels.status());
  size_t outliers = 0;
  std::vector<size_t> sizes(model->num_clusters(), 0);
  for (int label : *labels) {
    if (label == kOutlierLabel)
      ++outliers;
    else
      ++sizes[static_cast<size_t>(label)];
  }
  for (size_t i = 0; i < sizes.size(); ++i)
    std::printf("cluster %zu: %zu points\n", i + 1, sizes[i]);
  std::printf("outliers: %zu\n", outliers);
  if (flags.Has("labels")) {
    if (Status status = WriteLabels(*labels, flags.Get("labels"));
        !status.ok())
      return Fail(status);
    std::printf("labels written to %s\n", flags.Get("labels").c_str());
  }
  return 0;
}

int CmdEvaluate(const Flags& flags) {
  if (!flags.Has("labels") || !flags.Has("truth")) {
    std::fprintf(stderr, "evaluate: --labels and --truth are required\n");
    return 2;
  }
  auto predicted = ReadLabels(flags.Get("labels"));
  if (!predicted.ok()) return Fail(predicted.status());
  auto truth = ReadLabels(flags.Get("truth"));
  if (!truth.ok()) return Fail(truth.status());
  if (predicted->size() != truth->size()) {
    std::fprintf(stderr, "evaluate: label counts differ (%zu vs %zu)\n",
                 predicted->size(), truth->size());
    return 1;
  }
  int max_predicted = 0, max_truth = 0;
  for (int label : *predicted) max_predicted = std::max(max_predicted, label);
  for (int label : *truth) max_truth = std::max(max_truth, label);
  auto confusion = ConfusionMatrix::Build(
      *predicted, static_cast<size_t>(max_predicted) + 1, *truth,
      static_cast<size_t>(max_truth) + 1);
  if (!confusion.ok()) return Fail(confusion.status());
  std::printf("points           %zu\n", predicted->size());
  std::printf("ARI              %.4f\n",
              AdjustedRandIndex(*predicted, *truth));
  std::printf("matched accuracy %.4f\n", MatchedAccuracy(*confusion));
  std::printf("dominant accuracy %.4f\n", confusion->DominantAccuracy());
  OutlierScore outliers = ScoreOutliers(*predicted, *truth);
  std::printf("outlier P/R/F1   %.4f / %.4f / %.4f\n", outliers.precision,
              outliers.recall, outliers.f1);
  return 0;
}

void Usage() {
  std::fprintf(stderr,
               "usage: proclus_cli <generate|fit|classify|evaluate> "
               "[--flag value ...]\n"
               "see the header of tools/proclus_cli.cc for flags\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 2;
  }
  Flags flags(argc, argv, 2);
  if (!flags.ok()) {
    Usage();
    return 2;
  }
  std::string command = argv[1];
  if (command == "generate") return CmdGenerate(flags);
  if (command == "fit") return CmdFit(flags);
  if (command == "classify") return CmdClassify(flags);
  if (command == "evaluate") return CmdEvaluate(flags);
  Usage();
  return 2;
}
