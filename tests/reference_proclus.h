// Reference PROCLUS: the test oracle for the production fit.
//
// A single-threaded, in-memory transcription of the paper's Figures 2–6,
// written for reading rather than speed. It reads the Dataset matrix
// directly and shares no code with the scan engine it checks: no
// executor, consumers, batch kernels, caches or point sources. From the
// library it reuses only Rng (the seeded stream), GreedyPick (Figure 3)
// and FindDimensions (Figure 4), each pinned by its own hand-computed
// unit tests.
//
// Every data pass is a scalar loop. A distance accumulates |p_j - m_j|
// over ascending dimensions j. Every aggregate (locality statistics,
// cluster statistics, centroids, deviations) is a sum of per-block
// partials of `block_rows` consecutive rows, each partial starting from
// zero and the partials added in ascending block order. That is the
// production engine's determinism contract (DESIGN.md §7), so the
// reference reproduces the production fit bit for bit, not within a
// tolerance.
//
// Its data passes are exposed too, so hand-computed tests can pin the
// paper's statistics, assignment and objective on tiny data sets. They
// cut the rows into blocks of ProclusParams's default block_rows.

#ifndef PROCLUS_TESTS_REFERENCE_PROCLUS_H_
#define PROCLUS_TESTS_REFERENCE_PROCLUS_H_

#include <cstddef>
#include <vector>

#include "common/dimension_set.h"
#include "common/matrix.h"
#include "common/status.h"
#include "core/model.h"
#include "core/proclus.h"
#include "data/dataset.h"

namespace proclus::reference {

/// Runs PROCLUS on `dataset` with the algorithmic fields of `params`: k,
/// l, A, B, min_deviation, the climb limits, restarts, the init metric,
/// the seed, block_rows and the four ablation switches. The execution
/// fields (threads, retry, checkpoint, cancellation, hedging) cannot
/// change a result and are ignored. Invalid parameters yield
/// InvalidArgument. The returned model carries labels, medoids, medoid
/// coordinates, dimensions, spheres, objective, iterations and
/// improvements; its `stats` stay zero.
Result<ProjectedClustering> Proclus(const Dataset& dataset,
                                    const ProclusParams& params);

/// Figure 4's input in the iterative phase: X(i, j) is the average
/// |p_j - m_ij| over the locality of medoid i (the points within the
/// full-space segmental distance from m_i to its nearest other medoid;
/// the medoid itself included). `medoids` are point indices.
Matrix LocalityStats(const Dataset& dataset,
                     const std::vector<size_t>& medoids);

/// The refinement's input of FindDimensions: X(i, j) is the average
/// |p_j - m_ij| over the points labeled i. Outliers are skipped, and
/// rows of empty clusters stay zero.
Matrix ClusterStats(const Dataset& dataset,
                    const std::vector<size_t>& medoids,
                    const std::vector<int>& labels);

/// Figure 5: each point goes to the medoid at the smallest Manhattan
/// segmental distance on that medoid's dimensions (the plain restricted
/// Manhattan sum when `segmental_normalization` is false); ties go to the
/// lower index.
std::vector<int> Assign(const Dataset& dataset,
                        const std::vector<size_t>& medoids,
                        const std::vector<DimensionSet>& dims,
                        bool segmental_normalization = true);

/// Figure 6: the size-weighted average, over non-empty clusters, of the
/// mean per-dimension distance of a cluster's points to its centroid on
/// the cluster's dimensions. Outlier labels are ignored; 0 when no point
/// is clustered.
double Evaluate(const Dataset& dataset, const std::vector<int>& labels,
                const std::vector<DimensionSet>& dims);

}  // namespace proclus::reference

#endif  // PROCLUS_TESTS_REFERENCE_PROCLUS_H_
