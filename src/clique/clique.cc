#include "clique/clique.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/check.h"
#include "gen/ground_truth.h"

namespace proclus {

Status CliqueParams::Validate() const {
  if (xi < 2 || xi > 255)
    return Status::InvalidArgument("xi must be in [2, 255]");
  if (!std::isfinite(tau_percent))
    return Status::InvalidArgument("tau_percent must be finite");
  if (tau_percent <= 0.0 || tau_percent > 100.0)
    return Status::InvalidArgument("tau_percent must be in (0, 100]");
  if (report_mode == CliqueReportMode::kTargetDim && target_dim == 0)
    return Status::InvalidArgument("target_dim required for kTargetDim");
  if (max_candidates_per_level == 0)
    return Status::InvalidArgument("max_candidates_per_level must be > 0");
  return Status::OK();
}

namespace {

// Selects the subspaces whose components become output clusters.
std::vector<const DenseLevel::value_type*> SelectSubspaces(
    const MinerResult& mined, const CliqueParams& params) {
  std::vector<const DenseLevel::value_type*> selected;
  const size_t min_level = params.skip_one_dimensional ? 2 : 1;
  switch (params.report_mode) {
    case CliqueReportMode::kMaxLevel: {
      size_t level = mined.MaxLevel();
      if (level >= min_level)
        for (const auto& entry : mined.levels[level - 1])
          selected.push_back(&entry);
      break;
    }
    case CliqueReportMode::kAll: {
      for (size_t level = min_level; level <= mined.levels.size(); ++level)
        for (const auto& entry : mined.levels[level - 1])
          selected.push_back(&entry);
      break;
    }
    case CliqueReportMode::kTargetDim: {
      size_t level = params.target_dim;
      if (level >= min_level && level <= mined.levels.size())
        for (const auto& entry : mined.levels[level - 1])
          selected.push_back(&entry);
      break;
    }
    case CliqueReportMode::kMaximal: {
      // A subspace is maximal if it is not a strict subset of any other
      // subspace holding dense units.
      auto is_subset = [](const Subspace& a, const Subspace& b) {
        if (a.size() >= b.size()) return false;
        size_t bi = 0;
        for (uint32_t dim : a) {
          while (bi < b.size() && b[bi] < dim) ++bi;
          if (bi == b.size() || b[bi] != dim) return false;
          ++bi;
        }
        return true;
      };
      for (size_t level = min_level; level <= mined.levels.size(); ++level) {
        for (const auto& entry : mined.levels[level - 1]) {
          bool maximal = true;
          for (size_t higher = level + 1;
               higher <= mined.levels.size() && maximal; ++higher) {
            for (const auto& candidate : mined.levels[higher - 1]) {
              if (is_subset(entry.first, candidate.first)) {
                maximal = false;
                break;
              }
            }
          }
          if (maximal) selected.push_back(&entry);
        }
      }
      break;
    }
  }
  return selected;
}

}  // namespace

Result<CliqueResult> RunClique(const Dataset& dataset,
                               const CliqueParams& params,
                               const std::vector<int>* truth_labels) {
  MemorySource source(dataset);
  return RunCliqueOnSource(source, params, truth_labels);
}

Result<CliqueResult> RunCliqueOnSource(const PointSource& source,
                                       const CliqueParams& params,
                                       const std::vector<int>* truth_labels) {
  PROCLUS_RETURN_IF_ERROR(params.Validate());
  if (truth_labels && truth_labels->size() != source.size())
    return Status::InvalidArgument("truth label count != source size");
  auto grid = Grid::BuildFromSource(source, params.xi);
  PROCLUS_RETURN_IF_ERROR(grid.status());
  auto quantized = grid->QuantizeSource(source);
  PROCLUS_RETURN_IF_ERROR(quantized.status());
  const std::vector<uint8_t>& cells = *quantized;
  const size_t n = source.size();
  const size_t d = source.dims();
  MinerParams miner_params;
  miner_params.xi = params.xi;
  miner_params.tau_percent = params.tau_percent;
  miner_params.max_level = params.max_level;
  miner_params.max_candidates_per_level = params.max_candidates_per_level;
  miner_params.mdl_prune = params.mdl_prune;
  auto mined_result =
      MineDenseUnits(cells, n, d, miner_params);
  PROCLUS_RETURN_IF_ERROR(mined_result.status());
  const MinerResult& mined = *mined_result;

  CliqueResult result;
  result.threshold = mined.threshold;
  result.max_level = mined.MaxLevel();
  result.truncated = mined.truncated;

  // Number of ground-truth clusters (for label_counts sizing).
  size_t truth_k = 0;
  if (truth_labels) {
    for (int label : *truth_labels)
      if (label != kOutlierLabel)
        truth_k = std::max(truth_k, static_cast<size_t>(label) + 1);
  }

  // Build output clusters per selected subspace, and a per-subspace
  // cell-key -> output-cluster index for the point pass.
  std::vector<const DenseLevel::value_type*> selected =
      SelectSubspaces(mined, params);
  struct SubspaceLookup {
    const Subspace* subspace;
    std::unordered_map<uint64_t, size_t> cell_to_cluster;  // global index
  };
  std::vector<SubspaceLookup> lookups;
  for (const auto* entry : selected) {
    std::vector<UnitCluster> components =
        ConnectedComponents(entry->first, entry->second, params.xi);
    SubspaceLookup lookup;
    lookup.subspace = &entry->first;
    for (auto& component : components) {
      size_t index = result.clusters.size();
      for (uint64_t key : component.cells)
        lookup.cell_to_cluster.emplace(key, index);
      CliqueCluster cluster;
      cluster.subspace = component.subspace;
      cluster.cells = std::move(component.cells);
      cluster.regions = std::move(component.regions);
      if (truth_labels) cluster.label_counts.assign(truth_k + 1, 0);
      result.clusters.push_back(std::move(cluster));
    }
    lookups.push_back(std::move(lookup));
  }

  // Point pass: membership counts, coverage, overlap.
  size_t covered = 0;
  size_t covered_cluster_points = 0;
  size_t total_cluster_points = 0;
  size_t membership_total = 0;
  for (size_t p = 0; p < n; ++p) {
    const uint8_t* row = cells.data() + p * d;
    bool in_any = false;
    for (const auto& lookup : lookups) {
      uint64_t key = 0;
      for (uint32_t dim : *lookup.subspace)
        key = key * params.xi + row[dim];
      auto it = lookup.cell_to_cluster.find(key);
      if (it == lookup.cell_to_cluster.end()) continue;
      in_any = true;
      ++membership_total;
      CliqueCluster& cluster = result.clusters[it->second];
      ++cluster.point_count;
      if (truth_labels) {
        int label = (*truth_labels)[p];
        size_t slot = label == kOutlierLabel ? truth_k
                                             : static_cast<size_t>(label);
        ++cluster.label_counts[slot];
      }
    }
    if (in_any) ++covered;
    if (truth_labels && (*truth_labels)[p] != kOutlierLabel) {
      ++total_cluster_points;
      if (in_any) ++covered_cluster_points;
    }
  }
  result.covered_points = covered;
  result.overlap = covered > 0 ? static_cast<double>(membership_total) /
                                     static_cast<double>(covered)
                               : 0.0;
  if (truth_labels && total_cluster_points > 0) {
    result.cluster_point_coverage =
        static_cast<double>(covered_cluster_points) /
        static_cast<double>(total_cluster_points);
  }
  return result;
}

}  // namespace proclus
