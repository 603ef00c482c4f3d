// Bottom-up dense unit mining (the core of CLIQUE).
//
// Level 1 scans each dimension's interval histogram. Level k candidates
// are produced by the apriori join of level k-1 dense units — two units in
// subspaces sharing their first k-2 dimensions, with equal intervals on
// those dimensions — followed by monotonicity pruning (every (k-1)-
// dimensional projection of a dense unit must itself be dense) and a
// counting pass over the data.

#ifndef PROCLUS_CLIQUE_DENSE_UNITS_H_
#define PROCLUS_CLIQUE_DENSE_UNITS_H_

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "clique/subspace.h"

namespace proclus {

/// Dense units of one subspace: cell key -> point count.
using DenseCellMap = std::unordered_map<uint64_t, uint32_t>;

/// Dense units of all subspaces at one level.
using DenseLevel = std::map<Subspace, DenseCellMap>;

/// Configuration of the miner.
struct MinerParams {
  /// Intervals per dimension.
  size_t xi = 10;
  /// Density threshold as a percentage of N: a unit is dense when its
  /// point count >= ceil(tau_percent/100 * N) (paper values: 0.1 - 0.8).
  double tau_percent = 0.5;
  /// Stop after this level (0 = no limit beyond what keys can encode).
  size_t max_level = 0;
  /// Safety cap on candidate units per level; when exceeded, excess
  /// candidates are dropped deterministically and `truncated` is set.
  size_t max_candidates_per_level = 4000000;
  /// Apply CLIQUE's MDL-based subspace selectivity pruning after each
  /// level: subspaces are sorted by coverage (points in their dense
  /// units) and the low-coverage suffix minimizing the MDL code length is
  /// discarded before the next level's candidates are generated. This is
  /// what keeps the original algorithm tractable; it can prune subspaces
  /// that would have extended to genuinely dense higher subspaces.
  bool mdl_prune = false;
};

/// Outcome of the mining pass.
struct MinerResult {
  /// levels[L-1] holds the dense units of all L-dimensional subspaces.
  std::vector<DenseLevel> levels;
  /// Point-count threshold actually applied.
  size_t threshold = 0;
  /// True when the candidate cap was hit at some level.
  bool truncated = false;

  /// Highest level with at least one dense unit (0 when none).
  size_t MaxLevel() const {
    for (size_t level = levels.size(); level-- > 0;)
      if (!levels[level].empty()) return level + 1;
    return 0;
  }
};

/// Mines dense units from the quantized point matrix `cells` (n x d,
/// row-major interval indices produced by Grid::QuantizeSource).
Result<MinerResult> MineDenseUnits(const std::vector<uint8_t>& cells,
                                   size_t num_points, size_t dims,
                                   const MinerParams& params);

/// MDL cut of CLIQUE's subspace pruning: given per-subspace coverages
/// sorted in DECREASING order, returns how many subspaces to keep (the
/// prefix whose selected/pruned split minimizes the two-part code length
/// CL(i) = log2(mu_I) + sum_selected log2(|x - mu_I| + 1) + log2(mu_P) +
/// sum_pruned log2(|x - mu_P| + 1), with ceil-ed means; ties keep more).
/// Exposed for testing.
size_t MdlCutPoint(const std::vector<size_t>& coverages_desc);

}  // namespace proclus

#endif  // PROCLUS_CLIQUE_DENSE_UNITS_H_
