// Deterministic block-parallel execution.
//
// The PROCLUS passes (locality statistics, assignment, evaluation) are
// sums or per-point maps over the data. To parallelize them without
// losing bit-for-bit determinism — floating-point addition is not
// associative, so naive per-thread accumulation depends on the thread
// schedule — work is split into fixed-size blocks, each block produces an
// independent partial result, and partials are merged sequentially in
// block order. The result is identical for any thread count, including 1.
//
// Execution rides the process-wide persistent ThreadPool
// (common/thread_pool.h): `num_threads` names the number of logical
// workers (and thus the static block→worker mapping), not a number of
// threads spawned per call.

#ifndef PROCLUS_COMMON_PARALLEL_H_
#define PROCLUS_COMMON_PARALLEL_H_

#include <cstddef>

#include "common/check.h"
#include "common/function_ref.h"

namespace proclus {

/// Default number of rows per block: large enough to amortize dispatch,
/// small enough to balance load.
inline constexpr size_t kDefaultBlockRows = 8192;

/// Number of blocks covering `total` items in blocks of `block_size`.
/// Exact for every block size: rounding up with `total + block_size - 1`
/// would wrap for block sizes near SIZE_MAX and report zero blocks.
inline size_t BlockCount(size_t total, size_t block_size) {
  PROCLUS_DCHECK(block_size > 0);
  return total / block_size + (total % block_size != 0);
}

/// Runs `process(block_index, first_item, item_count)` for every block of
/// `block_size` items covering [0, total), using up to `num_threads`
/// logical workers (1 = fully sequential, 0 treated as 1). Blocks are
/// distributed statically (round-robin by block index), so each block is
/// always processed by a deterministic, schedule-independent code path.
/// The caller typically writes partial results into a pre-sized vector
/// indexed by block_index and merges them afterwards in block order.
void ParallelBlocks(size_t total, size_t block_size, size_t num_threads,
                    FunctionRef<void(size_t block_index, size_t first_item,
                                     size_t item_count)>
                        process);

}  // namespace proclus

#endif  // PROCLUS_COMMON_PARALLEL_H_
