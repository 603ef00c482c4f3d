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

#ifndef PROCLUS_TESTS_REFERENCE_PROCLUS_H_
#define PROCLUS_TESTS_REFERENCE_PROCLUS_H_

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

}  // namespace proclus::reference

#endif  // PROCLUS_TESTS_REFERENCE_PROCLUS_H_
