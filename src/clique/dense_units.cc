#include "clique/dense_units.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/logging.h"

namespace proclus {

namespace {

// Computes the cell key of point `p` in subspace `s` from the quantized
// matrix.
inline uint64_t PointCellKey(const std::vector<uint8_t>& cells, size_t dims,
                             size_t p, const Subspace& s, size_t xi) {
  uint64_t key = 0;
  const uint8_t* row = cells.data() + p * dims;
  for (uint32_t dim : s) key = key * xi + row[dim];
  return key;
}

// Candidate generation for one joinable subspace pair. Joins cells of s1
// and s2 that agree on the shared prefix, prunes candidates with a
// non-dense (k-1)-projection, and inserts survivors (count 0) into *out.
// Returns the number of candidates added; respects `budget`.
size_t GenerateCandidates(const DenseCellMap& cells1,
                          const DenseCellMap& cells2, const Subspace& joined,
                          const DenseLevel& prev, size_t xi, size_t budget,
                          DenseCellMap* out) {
  // Group both unit sets by prefix key (all intervals except the last).
  auto group_by_prefix = [xi](const DenseCellMap& cells) {
    std::unordered_map<uint64_t, std::vector<uint8_t>> groups;
    for (const auto& [key, count] : cells) {
      groups[key / xi].push_back(static_cast<uint8_t>(key % xi));
    }
    return groups;
  };
  auto g1 = group_by_prefix(cells1);
  auto g2 = group_by_prefix(cells2);

  // Projections to verify (the two parents are dense by construction:
  // dropping joined's last dim yields s1's cell, dropping the second-to-
  // last yields s2's). Verify the other k-2 projections.
  const size_t level = joined.size();
  std::vector<std::pair<Subspace, size_t>> checks;  // (projection, dropped)
  for (size_t drop = 0; drop + 2 < level; ++drop) {
    Subspace proj;
    proj.reserve(level - 1);
    for (size_t i = 0; i < level; ++i)
      if (i != drop) proj.push_back(joined[i]);
    checks.emplace_back(std::move(proj), drop);
  }
  std::vector<const DenseCellMap*> check_maps;
  check_maps.reserve(checks.size());
  for (auto& [proj, drop] : checks) {
    auto it = prev.find(proj);
    if (it == prev.end()) return 0;  // Some projection subspace is empty.
    check_maps.push_back(&it->second);
  }

  size_t added = 0;
  std::vector<uint8_t> intervals(level);
  for (const auto& [prefix, lasts1] : g1) {
    auto it2 = g2.find(prefix);
    if (it2 == g2.end()) continue;
    // Decode prefix intervals once.
    std::vector<uint8_t> prefix_intervals =
        DecodeCell(prefix, level - 2, xi);
    for (uint8_t a : lasts1) {
      for (uint8_t b : it2->second) {
        if (added >= budget) return added;
        uint64_t key = (prefix * xi + a) * xi + b;
        if (out->count(key)) continue;
        // Monotonicity pruning on the remaining projections.
        bool pruned = false;
        if (!checks.empty()) {
          std::copy(prefix_intervals.begin(), prefix_intervals.end(),
                    intervals.begin());
          intervals[level - 2] = a;
          intervals[level - 1] = b;
          for (size_t c = 0; c < checks.size(); ++c) {
            size_t drop = checks[c].second;
            uint64_t proj_key = 0;
            for (size_t i = 0; i < level; ++i)
              if (i != drop) proj_key = proj_key * xi + intervals[i];
            if (!check_maps[c]->count(proj_key)) {
              pruned = true;
              break;
            }
          }
        }
        if (pruned) continue;
        out->emplace(key, 0);
        ++added;
      }
    }
  }
  return added;
}

// Prunes the low-coverage suffix of `level` per the MDL criterion.
void MdlPruneLevel(DenseLevel* level) {
  if (level->size() < 2) return;
  struct Entry {
    size_t coverage;
    const Subspace* subspace;
  };
  std::vector<Entry> entries;
  entries.reserve(level->size());
  for (const auto& [subspace, units] : *level) {
    size_t coverage = 0;
    for (const auto& [key, count] : units) coverage += count;
    entries.push_back({coverage, &subspace});
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) {
              if (a.coverage != b.coverage) return a.coverage > b.coverage;
              return *a.subspace < *b.subspace;
            });
  std::vector<size_t> coverages(entries.size());
  for (size_t i = 0; i < entries.size(); ++i)
    coverages[i] = entries[i].coverage;
  size_t keep = MdlCutPoint(coverages);
  // Significance guard: the MDL code length rewards splitting even a
  // hairline gap when the values within each side are nearly constant
  // (e.g. every 2-d subspace fully dense at a permissive tau). Pruning is
  // only meant to discard genuinely low-coverage subspaces, so never cut
  // inside the band within a factor of the level's best coverage.
  const double band = 0.35 * static_cast<double>(coverages.front());
  while (keep < coverages.size() &&
         static_cast<double>(coverages[keep]) >= band)
    ++keep;
  if (GetLogLevel() <= LogLevel::kDebug) {
    std::string dist;
    for (size_t i = 0; i < coverages.size(); ++i) {
      if (i == keep) dist += " ||CUT|| ";
      dist += std::to_string(coverages[i]) + " ";
      if (i > 40) {
        dist += "...";
        break;
      }
    }
    PROCLUS_LOG(Debug) << "MDL level=" << level->begin()->first.size()
                       << " n=" << coverages.size() << " keep=" << keep
                       << " [" << dist << "]";
  }
  for (size_t i = keep; i < entries.size(); ++i)
    level->erase(*entries[i].subspace);
}

}  // namespace

size_t MdlCutPoint(const std::vector<size_t>& coverages_desc) {
  const size_t n = coverages_desc.size();
  if (n < 2) return n;
  // Prefix sums for O(1) means.
  std::vector<double> prefix(n + 1, 0.0);
  for (size_t i = 0; i < n; ++i)
    prefix[i + 1] = prefix[i] + static_cast<double>(coverages_desc[i]);
  auto code_length = [&](size_t cut) {
    // Selected = [0, cut), pruned = [cut, n). cut >= 1.
    double cl = 0.0;
    double mu_i = std::ceil(prefix[cut] / static_cast<double>(cut));
    cl += std::log2(mu_i + 1.0);
    for (size_t j = 0; j < cut; ++j)
      cl += std::log2(
          std::fabs(static_cast<double>(coverages_desc[j]) - mu_i) + 1.0);
    if (cut < n) {
      double mu_p =
          std::ceil((prefix[n] - prefix[cut]) / static_cast<double>(n - cut));
      cl += std::log2(mu_p + 1.0);
      for (size_t j = cut; j < n; ++j)
        cl += std::log2(
            std::fabs(static_cast<double>(coverages_desc[j]) - mu_p) + 1.0);
    }
    return cl;
  };
  size_t best_cut = n;
  double best_cl = code_length(n);
  for (size_t cut = 1; cut < n; ++cut) {
    double cl = code_length(cut);
    if (cl < best_cl) {  // Strict: ties keep more subspaces.
      best_cl = cl;
      best_cut = cut;
    }
  }
  return best_cut;
}

Result<MinerResult> MineDenseUnits(const std::vector<uint8_t>& cells,
                                   size_t num_points, size_t dims,
                                   const MinerParams& params) {
  if (params.xi < 2 || params.xi > 255)
    return Status::InvalidArgument("xi must be in [2, 255]");
  if (!std::isfinite(params.tau_percent))
    return Status::InvalidArgument("tau_percent must be finite");
  if (params.tau_percent <= 0.0 || params.tau_percent > 100.0)
    return Status::InvalidArgument("tau_percent must be in (0, 100]");
  if (num_points == 0) return Status::InvalidArgument("no points");
  if (cells.size() != num_points * dims)
    return Status::InvalidArgument("cell matrix shape mismatch");

  MinerResult result;
  result.threshold = std::max<size_t>(
      1, static_cast<size_t>(std::ceil(params.tau_percent / 100.0 *
                                       static_cast<double>(num_points))));
  size_t max_level = std::min(dims, MaxEncodableLevel(params.xi));
  if (params.max_level > 0) max_level = std::min(max_level, params.max_level);

  const size_t xi = params.xi;

  // ----- Level 1: histogram per dimension. -----
  DenseLevel level1;
  {
    std::vector<std::vector<uint32_t>> hist(dims,
                                            std::vector<uint32_t>(xi, 0));
    for (size_t p = 0; p < num_points; ++p) {
      const uint8_t* row = cells.data() + p * dims;
      for (size_t j = 0; j < dims; ++j) ++hist[j][row[j]];
    }
    for (size_t j = 0; j < dims; ++j) {
      DenseCellMap dense;
      for (size_t interval = 0; interval < xi; ++interval) {
        if (hist[j][interval] >= result.threshold)
          dense.emplace(interval, hist[j][interval]);
      }
      if (!dense.empty())
        level1.emplace(Subspace{static_cast<uint32_t>(j)}, std::move(dense));
    }
  }
  result.levels.push_back(std::move(level1));

  // ----- Levels 2..max: join, prune, count. -----
  while (result.levels.size() < max_level) {
    const DenseLevel& prev = result.levels.back();
    if (prev.empty()) break;
    DenseLevel candidates;
    size_t budget = params.max_candidates_per_level;
    size_t total_candidates = 0;
    for (auto it1 = prev.begin(); it1 != prev.end(); ++it1) {
      auto it2 = it1;
      for (++it2; it2 != prev.end(); ++it2) {
        Subspace joined;
        if (!TryJoinSubspaces(it1->first, it2->first, &joined)) {
          // Subspaces are sorted lexicographically, so once the prefix of
          // it2 diverges from it1 no later subspace can join either.
          // (Prefix equality is a prefix of the lexicographic order.)
          bool prefix_matches = true;
          for (size_t i = 0; i + 1 < it1->first.size(); ++i) {
            if (it1->first[i] != it2->first[i]) {
              prefix_matches = false;
              break;
            }
          }
          if (!prefix_matches) break;
          continue;
        }
        DenseCellMap cand;
        size_t added = GenerateCandidates(
            it1->second, it2->second, joined, prev, xi,
            budget - std::min(budget, total_candidates), &cand);
        total_candidates += added;
        if (!cand.empty()) candidates.emplace(std::move(joined),
                                              std::move(cand));
        if (total_candidates >= budget) {
          result.truncated = true;
          break;
        }
      }
      if (total_candidates >= budget) break;
    }
    if (result.truncated) {
      PROCLUS_LOG(Warning)
          << "CLIQUE candidate cap hit at level " << result.levels.size() + 1
          << " (" << total_candidates << " candidates); results truncated";
    }
    if (candidates.empty()) break;

    // Counting pass: one scan of the data per subspace with candidates.
    DenseLevel next;
    for (auto& [subspace, cand] : candidates) {
      for (size_t p = 0; p < num_points; ++p) {
        uint64_t key = PointCellKey(cells, dims, p, subspace, xi);
        auto it = cand.find(key);
        if (it != cand.end()) ++it->second;
      }
      DenseCellMap dense;
      for (const auto& [key, count] : cand)
        if (count >= result.threshold) dense.emplace(key, count);
      if (!dense.empty()) next.emplace(subspace, std::move(dense));
    }
    if (next.empty()) break;
    // MDL selectivity pruning before this level seeds the next one.
    if (params.mdl_prune) MdlPruneLevel(&next);
    result.levels.push_back(std::move(next));
  }
  return result;
}

}  // namespace proclus
