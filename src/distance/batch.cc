#include "distance/batch.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

// Contraction must be off wherever the kernels are compiled: the v3 and
// v4 clones have FMA, and GCC's default for C++ (-ffp-contract=fast)
// would fuse `acc + diff * diff` into one rounding instead of two,
// changing result bits. src/CMakeLists.txt passes the flag and this
// define together, so a build that drops one fails here rather than in
// the tests of an FMA host.
#if !defined(PROCLUS_FP_CONTRACT_OFF)
#error "distance/batch.cc needs -ffp-contract=off (see src/CMakeLists.txt)"
#endif

// PROCLUS_KERNEL compiles a kernel three times — x86-64-v4 (AVX-512),
// x86-64-v3 (AVX2) and the baseline — and an ifunc resolver binds the
// widest clone the CPU supports at load time. The loops vectorize across
// points only, so every clone adds the same terms in the same order.
// Calls from one clone to another kernel stay within the same ISA, and
// PROCLUS_KERNEL_HELPER forces every helper into each clone that calls
// it: a helper left out of line would exist for the baseline ISA only.
//
// It expands to nothing (the baseline loops only) where clones cannot
// work or are unverified:
//   * under ThreadSanitizer: GCC 12's ifunc resolvers run before the TSan
//     runtime is up and crash the program before main; TSan then checks
//     the baseline build of the same source;
//   * off x86-64 ELF, which has no ifunc;
//   * without target_clones, and under Clang, whose arch= level clones
//     this project does not build or test.
#if defined(__SANITIZE_THREAD__)
#define PROCLUS_KERNEL_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PROCLUS_KERNEL_TSAN 1
#endif
#endif

#if defined(__x86_64__) && defined(__ELF__) && defined(__GNUC__) && \
    !defined(__clang__) && !defined(PROCLUS_KERNEL_TSAN) && \
    defined(__has_attribute)
#if __has_attribute(target_clones)
#define PROCLUS_KERNEL_CLONES 1
#endif
#endif

#if defined(PROCLUS_KERNEL_CLONES)
#define PROCLUS_KERNEL \
  __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", "default")))
#else
#define PROCLUS_KERNEL
#endif
#define PROCLUS_KERNEL_HELPER [[gnu::always_inline]] inline

namespace proclus {

namespace {

// Eight doubles in one 64-byte vector: one lane per row of a row group.
// Each clone lowers the type to its own width (one zmm register, two ymm
// or four xmm). Helpers take these by pointer only: a 64-byte vector
// passed by value has a different ABI in the baseline clone (-Wpsabi).
typedef double Lanes __attribute__((vector_size(64)));
typedef uint64_t LaneBits __attribute__((vector_size(64)));
constexpr size_t kLanes = 8;

// Loads columns [0, 8) of the eight rows at row_ptr (row stride `stride`
// doubles) and transposes them in registers, so col[c] lane l holds
// row l's column c. Three shuffle stages swap 1-, 2- and 4-lane blocks.
PROCLUS_KERNEL_HELPER
void LoadTransposed8x8(const double* row_ptr, size_t stride, Lanes* col) {
  Lanes r[kLanes];
  for (size_t i = 0; i < kLanes; ++i)
    __builtin_memcpy(&r[i], row_ptr + i * stride, sizeof(Lanes));
  // t[2p] = rows 2p, 2p+1 interleaved at even columns; t[2p+1] at odd.
  Lanes t[kLanes];
  for (size_t i = 0; i < kLanes; i += 2) {
    t[i] = __builtin_shufflevector(r[i], r[i + 1], 0, 8, 2, 10, 4, 12, 6, 14);
    t[i + 1] =
        __builtin_shufflevector(r[i], r[i + 1], 1, 9, 3, 11, 5, 13, 7, 15);
  }
  // s[q] = rows 0-3 (q < 4) or 4-7 of columns q % 4 and q % 4 + 4.
  Lanes s[kLanes];
  for (size_t i = 0; i < kLanes; i += 4) {
    s[i] = __builtin_shufflevector(t[i], t[i + 2], 0, 1, 8, 9, 4, 5, 12, 13);
    s[i + 2] =
        __builtin_shufflevector(t[i], t[i + 2], 2, 3, 10, 11, 6, 7, 14, 15);
    s[i + 1] =
        __builtin_shufflevector(t[i + 1], t[i + 3], 0, 1, 8, 9, 4, 5, 12, 13);
    s[i + 3] =
        __builtin_shufflevector(t[i + 1], t[i + 3], 2, 3, 10, 11, 6, 7, 14, 15);
  }
  for (size_t c = 0; c < 4; ++c) {
    col[c] =
        __builtin_shufflevector(s[c], s[c + 4], 0, 1, 2, 3, 8, 9, 10, 11);
    col[c + 4] =
        __builtin_shufflevector(s[c], s[c + 4], 4, 5, 6, 7, 12, 13, 14, 15);
  }
}

// Scores R references (points rows m .. m + R - 1) against the eight rows
// at `group`, the rows from r0 on: outs[m + a][r0 + l] = ManhattanDistance
// (row l, reference a). Lane l of acc[a] starts at +0.0 and adds
// |x_j - ref_j| for ascending j — the scalar loop's order — whether j
// falls in a transposed 8 x 8 block or in the columns after the last one.
// Clearing the sign bit is std::fabs exactly, NaN included. The eight
// rows at `next` are prefetched block by block as this group's are
// loaded: eight row streams at a stride of d doubles outrun the hardware
// prefetchers once d is large (d = 200 rows span four pages per group).
template <size_t R>
PROCLUS_KERNEL_HELPER
void ManhattanRowGroup(const double* group, const double* next, size_t d,
                       const Matrix& points, size_t m, double* const* outs,
                       size_t r0) {
  const LaneBits abs_mask = ~LaneBits{} >> 1;
  const double* ref[R];
  for (size_t a = 0; a < R; ++a) ref[a] = points.row(m + a).data();
  Lanes acc[R] = {};
  size_t j0 = 0;
  for (; j0 + kLanes <= d; j0 += kLanes) {
    for (size_t i = 0; i < kLanes; ++i) __builtin_prefetch(next + i * d + j0);
    Lanes col[kLanes];
    LoadTransposed8x8(group + j0, d, col);
    for (size_t c = 0; c < kLanes; ++c)
      for (size_t a = 0; a < R; ++a)
        acc[a] += (Lanes)((LaneBits)(col[c] - ref[a][j0 + c]) & abs_mask);
  }
  for (size_t j = j0; j < d; ++j) {
    const Lanes col = {group[j],         group[d + j],     group[2 * d + j],
                       group[3 * d + j], group[4 * d + j], group[5 * d + j],
                       group[6 * d + j], group[7 * d + j]};
    for (size_t a = 0; a < R; ++a)
      acc[a] += (Lanes)((LaneBits)(col - ref[a][j]) & abs_mask);
  }
  for (size_t a = 0; a < R; ++a)
    __builtin_memcpy(outs[m + a] + r0, &acc[a], sizeof(Lanes));
}

// Columns one pass of a walk adds per row: up to four groups of eight,
// so l columns take ceil(l / 32) passes over the walk's run of rows.
constexpr size_t kWalkGroups = 4;

// Adds a run of rows, `run` (row offsets into `block`, ascending), to G x
// 8 register accumulators: lane l of group g sums column ids[8g + l] of
// each row, starting from that column's entry of `acc_row` and storing it
// back at the end. Lanes past `count` (the last group's padding) read a
// repeated listed column and are dropped. With kContiguous the columns
// ids[0 .. count) are consecutive, so each full group is one 64-byte load
// (rows need not be 64-byte aligned: memcpy); the lanes of a partial
// group, and every group of a listed walk, are loaded one by one, so no
// load reaches past a row's last column. With kAbsDeviation each row adds
// `diff < 0 ? -diff : diff` for diff = x - ref: the sign bit of diff
// flipped where diff < 0, which is the scalar loop's negation, so -0.0
// and NaN terms keep their sign. The trip counts depend on the run and
// the columns only, never on a value.
template <size_t G, bool kContiguous, bool kAbsDeviation>
PROCLUS_KERNEL_HELPER
void WalkRun(const double* block, size_t d, const uint32_t* run, size_t n,
             const uint32_t* ids, size_t count, const double* ref,
             double* acc_row) {
  const LaneBits sign = ~(~LaneBits{} >> 1);
  // Groups before the last are always full; the last one is full when
  // count is a multiple of eight.
  const bool last_full = count == G * kLanes;
  Lanes acc[G];
  Lanes center[G];
  for (size_t g = 0; g < G; ++g) {
    double start[kLanes];
    double ref_lanes[kLanes];
    for (size_t l = 0; l < kLanes; ++l) {
      const size_t x = g * kLanes + l;
      start[l] = x < count ? acc_row[ids[x]] : 0.0;
      ref_lanes[l] = kAbsDeviation ? ref[ids[x]] : 0.0;
    }
    __builtin_memcpy(&acc[g], start, sizeof(Lanes));
    __builtin_memcpy(&center[g], ref_lanes, sizeof(Lanes));
  }
  for (size_t p = 0; p < n; ++p) {
    const double* row = block + size_t{run[p]} * d;
    for (size_t g = 0; g < G; ++g) {
      const uint32_t* c = ids + g * kLanes;
      Lanes v;
      if (kContiguous && (g + 1 < G || last_full)) {
        __builtin_memcpy(&v, row + c[0], sizeof(Lanes));
      } else {
        v = Lanes{row[c[0]], row[c[1]], row[c[2]], row[c[3]],
                  row[c[4]], row[c[5]], row[c[6]], row[c[7]]};
      }
      if constexpr (kAbsDeviation) {
        const Lanes diff = v - center[g];
        v = (Lanes)((LaneBits)diff ^ ((LaneBits)(diff < 0) & sign));
      }
      acc[g] += v;
    }
  }
  for (size_t g = 0; g < G; ++g) {
    double sums[kLanes];
    __builtin_memcpy(sums, &acc[g], sizeof(Lanes));
    for (size_t l = 0; l < kLanes && g * kLanes + l < count; ++l)
      acc_row[ids[g * kLanes + l]] = sums[l];
  }
}

// Walks one run of rows over columns [0, size) (kContiguous) or over the
// listed columns list[0 .. size), in passes of up to kWalkGroups groups:
// acc_row[j] += row[j] (with kAbsDeviation, |row[j] - ref[j]|) for each
// walked column j and each row of the run in turn. `ref` is read only
// with kAbsDeviation, `list` only without kContiguous.
template <bool kContiguous, bool kAbsDeviation>
PROCLUS_KERNEL_HELPER
void WalkColumns(const double* block, size_t d, const uint32_t* run,
                 size_t n, const uint32_t* list, size_t size,
                 const double* ref, double* acc_row) {
  if (n == 0) return;
  for (size_t first = 0; first < size; first += kWalkGroups * kLanes) {
    const size_t count = std::min(size - first, kWalkGroups * kLanes);
    const size_t num_groups = (count + kLanes - 1) / kLanes;
    uint32_t ids[kWalkGroups * kLanes];
    for (size_t x = 0; x < num_groups * kLanes; ++x) {
      const size_t at = first + std::min(x, count - 1);
      ids[x] = kContiguous ? static_cast<uint32_t>(at) : list[at];
    }
    switch (num_groups) {
      case 1:
        WalkRun<1, kContiguous, kAbsDeviation>(block, d, run, n, ids, count,
                                               ref, acc_row);
        break;
      case 2:
        WalkRun<2, kContiguous, kAbsDeviation>(block, d, run, n, ids, count,
                                               ref, acc_row);
        break;
      case 3:
        WalkRun<3, kContiguous, kAbsDeviation>(block, d, run, n, ids, count,
                                               ref, acc_row);
        break;
      default:
        WalkRun<4, kContiguous, kAbsDeviation>(block, d, run, n, ids, count,
                                               ref, acc_row);
        break;
    }
  }
}

// The labeled kernels' walk: label by label, each label's run of rows in
// `groups` (GroupRowsByLabel) over its own list dim_lists[i], or over all
// d columns when `dim_lists` is empty. sums holds one row of d per label;
// `refs` is read only with kAbsDeviation.
template <bool kAbsDeviation>
PROCLUS_KERNEL_HELPER
void LabeledRuns(const double* block, size_t d,
                 std::span<const std::vector<uint32_t>> dim_lists,
                 const KernelScratch& groups, const Matrix* refs,
                 double* sums) {
  const size_t k = groups.run_start.size() - 1;
  for (size_t i = 0; i < k; ++i) {
    const uint32_t* run = groups.run_rows.data() + groups.run_start[i];
    const size_t n = groups.run_start[i + 1] - groups.run_start[i];
    const double* ref = nullptr;
    if constexpr (kAbsDeviation) ref = refs->row(i).data();
    if (dim_lists.empty()) {
      WalkColumns</*kContiguous=*/true, kAbsDeviation>(
          block, d, run, n, nullptr, d, ref, sums + i * d);
    } else {
      WalkColumns</*kContiguous=*/false, kAbsDeviation>(
          block, d, run, n, dim_lists[i].data(), dim_lists[i].size(), ref,
          sums + i * d);
    }
  }
}

// Leading dimension of the gathered sub-tile. kKernelRowTile is a power
// of two, so unpadded columns would sit exactly 8 KiB apart and every
// column's write/read stream would map onto the same L1 cache sets; the
// eight doubles of slack stagger consecutive columns across sets, which
// measures ~6x faster gathers on the power-of-two block sizes the scan
// engine uses.
constexpr size_t kTileLd = kKernelRowTile + 8;

// Gathers rows [r0, r0 + n) of the selected columns (all dims_total
// columns when ids == nullptr) into the column-major sub-tile:
// tile[j * kTileLd + r] = src[(r0 + r) * dims_total + ids[j]].
PROCLUS_KERNEL_HELPER
void GatherSubTile(const double* src, size_t dims_total, const uint32_t* ids,
                   size_t nd, size_t r0, size_t n, double* __restrict__ tile) {
  const double* base = src + r0 * dims_total;
  if (ids == nullptr) {
    for (size_t r = 0; r < n; ++r) {
      const double* row = base + r * dims_total;
      for (size_t j = 0; j < nd; ++j) tile[j * kTileLd + r] = row[j];
    }
  } else {
    for (size_t r = 0; r < n; ++r) {
      const double* row = base + r * dims_total;
      for (size_t j = 0; j < nd; ++j) tile[j * kTileLd + r] = row[ids[j]];
    }
  }
}

// The fold functors mirror the scalar kernels' inner statements exactly —
// same expression shape, same operation order — so each accumulated term
// is the identical double.

// distance/segmental.h writes `diff < 0 ? -diff : diff`, which preserves
// the sign of a -0.0 difference where std::fabs would not; mirror it so
// the terms (not just the sums) are identical.
struct SegmentalFold {
  double operator()(double acc, double value, double ref) const {
    double diff = value - ref;
    return acc + (diff < 0 ? -diff : diff);
  }
};

struct SquareFold {
  double operator()(double acc, double value, double ref) const {
    double diff = value - ref;
    return acc + diff * diff;
  }
};

// Folds one reference over a gathered sub-tile: out[r] starts at 0 and
// accumulates dimension-by-dimension in ascending order — the scalar
// loop's order per point — while the r-loop bodies stay independent and
// contiguous, so they vectorize.
template <typename Fold>
PROCLUS_KERNEL_HELPER
void AccumulateOne(const double* __restrict__ tile, size_t n, size_t nd,
                   const double* ref, const uint32_t* ids,
                   double* __restrict__ out, Fold fold) {
  for (size_t r = 0; r < n; ++r) out[r] = 0.0;
  for (size_t j = 0; j < nd; ++j) {
    const double refv = ids == nullptr ? ref[j] : ref[ids[j]];
    const double* __restrict__ col = tile + j * kTileLd;
    for (size_t r = 0; r < n; ++r) out[r] = fold(out[r], col[r], refv);
  }
}

// Folds two references over the sub-tile in one pass so each column load
// feeds both accumulator streams — the accumulate loop is load/store
// bound, so halving the column traffic is what pushes the batched path
// past the (ILP-saturated) scalar loop. Per reference the fold order is
// unchanged, so results match AccumulateOne bit-for-bit.
template <typename Fold>
PROCLUS_KERNEL_HELPER
void AccumulatePair(const double* __restrict__ tile, size_t n, size_t nd,
                    const double* ref0, const double* ref1,
                    const uint32_t* ids, double* __restrict__ out0,
                    double* __restrict__ out1, Fold fold) {
  for (size_t r = 0; r < n; ++r) {
    out0[r] = 0.0;
    out1[r] = 0.0;
  }
  for (size_t j = 0; j < nd; ++j) {
    const double ref0v = ids == nullptr ? ref0[j] : ref0[ids[j]];
    const double ref1v = ids == nullptr ? ref1[j] : ref1[ids[j]];
    const double* __restrict__ col = tile + j * kTileLd;
    for (size_t r = 0; r < n; ++r) {
      const double value = col[r];
      out0[r] = fold(out0[r], value, ref0v);
      out1[r] = fold(out1[r], value, ref1v);
    }
  }
}

// Strict < with references visited in ascending index order reproduces
// the scalar argmin loops' lower-index tie-breaking per point. Written
// as selects rather than a branch: the comparison outcome is
// data-dependent (close to random while the argmin is unsettled), so a
// branch would mispredict constantly, and selects let the loop vectorize
// into min + blend.
PROCLUS_KERNEL_HELPER
void ArgminUpdate(const double* __restrict__ dist, size_t n, int index,
                  double* __restrict__ best, int* __restrict__ labels) {
  for (size_t r = 0; r < n; ++r) {
    const bool better = dist[r] < best[r];
    best[r] = better ? dist[r] : best[r];
    labels[r] = better ? index : labels[r];
  }
}

// The first two references initialize best/labels outright — the scalar
// loop's first iterations always beat the infinity sentinel, so folding
// them into plain stores drops the sentinel-fill pass and the first
// compare pass without changing any outcome (strict < keeps the tie on
// index0, like the scalar loop).
PROCLUS_KERNEL_HELPER
void ArgminInitPair(const double* __restrict__ dist0,
                    const double* __restrict__ dist1, size_t n, int index0,
                    int index1, double* __restrict__ best,
                    int* __restrict__ labels) {
  for (size_t r = 0; r < n; ++r) {
    const bool better = dist1[r] < dist0[r];
    best[r] = better ? dist1[r] : dist0[r];
    labels[r] = better ? index1 : index0;
  }
}

PROCLUS_KERNEL_HELPER
void ArgminInitOne(const double* __restrict__ dist, size_t n, int index,
                   double* __restrict__ best, int* __restrict__ labels) {
  for (size_t r = 0; r < n; ++r) {
    best[r] = dist[r];
    labels[r] = index;
  }
}

}  // namespace

PROCLUS_KERNEL
void SegmentalDistanceBatch(std::span<const double> block, size_t rows,
                            size_t dims_total, const Matrix& refs,
                            std::span<const size_t> ref_rows,
                            std::span<const std::vector<uint32_t>> dim_lists,
                            bool normalize, KernelScratch& scratch,
                            std::span<double* const> outs) {
  PROCLUS_DCHECK(block.size() == rows * dims_total);
  PROCLUS_DCHECK(outs.size() == ref_rows.size());
  ++scratch.batches;
  scratch.rows_scored += rows * ref_rows.size();
  size_t nd_max = 0;
  for (size_t m : ref_rows) nd_max = std::max(nd_max, dim_lists[m].size());
  scratch.tile.resize(nd_max * kTileLd);
  double* tile = scratch.tile.data();
  for (size_t r0 = 0; r0 < rows; r0 += kKernelRowTile) {
    const size_t n = std::min(kKernelRowTile, rows - r0);
    for (size_t f = 0; f < ref_rows.size(); ++f) {
      const std::vector<uint32_t>& dims = dim_lists[ref_rows[f]];
      PROCLUS_DCHECK(!dims.empty());
      GatherSubTile(block.data(), dims_total, dims.data(), dims.size(), r0, n,
                    tile);
      double* out = outs[f] + r0;
      AccumulateOne(tile, n, dims.size(), refs.row(ref_rows[f]).data(),
                    dims.data(), out, SegmentalFold{});
      if (normalize) {
        const double denom = static_cast<double>(dims.size());
        for (size_t r = 0; r < n; ++r) out[r] /= denom;
      }
    }
  }
}

PROCLUS_KERNEL
void ManhattanManyBatch(std::span<const double> block, size_t rows,
                        size_t dims_total, const Matrix& points,
                        KernelScratch& scratch,
                        std::span<double* const> outs) {
  PROCLUS_DCHECK(points.cols() == dims_total);
  PROCLUS_DCHECK(outs.size() == points.rows());
  const size_t u = points.rows();
  const size_t d = dims_total;
  ++scratch.batches;
  scratch.rows_scored += rows * u;
  // Counted as in the tiled kernels: each kKernelRowTile rows are read
  // once and folded by u references.
  if (u > 0)
    scratch.tile_hits +=
        (u - 1) * ((rows + kKernelRowTile - 1) / kKernelRowTile);
  double* const* out = outs.data();
  size_t r0 = 0;
  // Up to four references share each transposed row group; more than
  // four re-read the group's rows from L1.
  for (; r0 + kLanes <= rows; r0 += kLanes) {
    const double* group = block.data() + r0 * d;
    // The last full group prefetches itself rather than point past the
    // block.
    const double* next = r0 + 2 * kLanes <= rows ? group + kLanes * d : group;
    for (size_t m = 0; m < u; m += 4) {
      switch (std::min<size_t>(4, u - m)) {
        case 1: ManhattanRowGroup<1>(group, next, d, points, m, out, r0); break;
        case 2: ManhattanRowGroup<2>(group, next, d, points, m, out, r0); break;
        case 3: ManhattanRowGroup<3>(group, next, d, points, m, out, r0); break;
        default:
          ManhattanRowGroup<4>(group, next, d, points, m, out, r0);
          break;
      }
    }
  }
  // Rows after the last full group: the scalar loop itself.
  for (; r0 < rows; ++r0) {
    const double* row = block.data() + r0 * d;
    for (size_t m = 0; m < u; ++m) {
      const double* ref = points.row(m).data();
      double sum = 0.0;
      for (size_t j = 0; j < d; ++j) sum += std::fabs(row[j] - ref[j]);
      out[m][r0] = sum;
    }
  }
}

PROCLUS_KERNEL
void ManhattanManyBatch(std::span<const double> block, size_t rows,
                        size_t dims_total, const Matrix& points,
                        KernelScratch& scratch, double* out) {
  const size_t u = points.rows();
  scratch.outs.resize(u);
  for (size_t m = 0; m < u; ++m) scratch.outs[m] = out + m * rows;
  ManhattanManyBatch(block, rows, dims_total, points, scratch,
                     std::span<double* const>(scratch.outs));
}

PROCLUS_KERNEL
void SquaredEuclideanBatch(std::span<const double> block, size_t rows,
                           size_t dims_total, std::span<const double> point,
                           KernelScratch& scratch, double* out) {
  PROCLUS_DCHECK(point.size() == dims_total);
  ++scratch.batches;
  scratch.rows_scored += rows;
  scratch.tile.resize(dims_total * kTileLd);
  double* tile = scratch.tile.data();
  for (size_t r0 = 0; r0 < rows; r0 += kKernelRowTile) {
    const size_t n = std::min(kKernelRowTile, rows - r0);
    GatherSubTile(block.data(), dims_total, nullptr, dims_total, r0, n, tile);
    AccumulateOne(tile, n, dims_total, point.data(), nullptr, out + r0,
                  SquareFold{});
  }
}

PROCLUS_KERNEL
void SegmentalArgminBatch(std::span<const double> block, size_t rows,
                          size_t dims_total, const Matrix& medoids,
                          std::span<const std::vector<uint32_t>> dim_lists,
                          bool normalize, std::span<const double> spheres,
                          KernelScratch& scratch, int* labels) {
  const size_t k = medoids.rows();
  PROCLUS_DCHECK(dim_lists.size() == k);
  PROCLUS_DCHECK(spheres.empty() || spheres.size() == k);
  ++scratch.batches;
  scratch.rows_scored += rows * k;
  size_t nd_max = 0;
  for (const std::vector<uint32_t>& dims : dim_lists)
    nd_max = std::max(nd_max, dims.size());
  scratch.tile.resize(nd_max * kTileLd);
  scratch.dist.resize(kKernelRowTile);
  scratch.best.assign(rows, std::numeric_limits<double>::infinity());
  if (!spheres.empty()) scratch.inside.assign(rows, 0);
  std::fill(labels, labels + rows, 0);
  double* tile = scratch.tile.data();
  double* dist = scratch.dist.data();
  // Medoids are re-folded per sub-tile (each needs its own gathered
  // dimension list), but the sub-tile's source rows stay cache-resident
  // across all k gathers, so the block still streams from memory once.
  for (size_t r0 = 0; r0 < rows; r0 += kKernelRowTile) {
    const size_t n = std::min(kKernelRowTile, rows - r0);
    double* best = scratch.best.data() + r0;
    int* tile_labels = labels + r0;
    for (size_t i = 0; i < k; ++i) {
      const std::vector<uint32_t>& dims = dim_lists[i];
      PROCLUS_DCHECK(!dims.empty());
      GatherSubTile(block.data(), dims_total, dims.data(), dims.size(), r0, n,
                    tile);
      AccumulateOne(tile, n, dims.size(), medoids.row(i).data(), dims.data(),
                    dist, SegmentalFold{});
      if (normalize) {
        const double denom = static_cast<double>(dims.size());
        for (size_t r = 0; r < n; ++r) dist[r] /= denom;
      }
      if (!spheres.empty()) {
        const double sphere = spheres[i];
        uint8_t* __restrict__ inside = scratch.inside.data() + r0;
        for (size_t r = 0; r < n; ++r)
          inside[r] = static_cast<uint8_t>(inside[r] | (dist[r] <= sphere));
      }
      ArgminUpdate(dist, n, static_cast<int>(i), best, tile_labels);
    }
  }
}

PROCLUS_KERNEL
void ColumnArgminBatch(std::span<const double* const> cols, size_t rows,
                       KernelScratch& scratch, int* labels) {
  scratch.best.assign(rows, std::numeric_limits<double>::infinity());
  std::fill(labels, labels + rows, 0);
  // Sub-tiles keep best/labels cache-resident while every column folds
  // over them, as in SegmentalArgminBatch.
  for (size_t r0 = 0; r0 < rows; r0 += kKernelRowTile) {
    const size_t n = std::min(kKernelRowTile, rows - r0);
    for (size_t i = 0; i < cols.size(); ++i)
      ArgminUpdate(cols[i] + r0, n, static_cast<int>(i),
                   scratch.best.data() + r0, labels + r0);
  }
}

PROCLUS_KERNEL
void SquaredEuclideanArgminBatch(std::span<const double> block, size_t rows,
                                 size_t dims_total,
                                 std::span<const std::vector<double>> centers,
                                 KernelScratch& scratch, int* labels) {
  const size_t k = centers.size();
  ++scratch.batches;
  scratch.rows_scored += rows * k;
  scratch.tile.resize(dims_total * kTileLd);
  scratch.dist.resize(2 * kKernelRowTile);
  scratch.best.resize(rows);
  if (k == 0) {
    std::fill(scratch.best.begin(), scratch.best.end(),
              std::numeric_limits<double>::infinity());
    std::fill(labels, labels + rows, 0);
    return;
  }
  double* tile = scratch.tile.data();
  double* dist0 = scratch.dist.data();
  double* dist1 = dist0 + kKernelRowTile;
  for (size_t r0 = 0; r0 < rows; r0 += kKernelRowTile) {
    const size_t n = std::min(kKernelRowTile, rows - r0);
    GatherSubTile(block.data(), dims_total, nullptr, dims_total, r0, n, tile);
    scratch.tile_hits += k - 1;
    double* best = scratch.best.data() + r0;
    int* tile_labels = labels + r0;
    size_t c;
    if (k == 1) {
      AccumulateOne(tile, n, dims_total, centers[0].data(), nullptr, dist0,
                    SquareFold{});
      ArgminInitOne(dist0, n, 0, best, tile_labels);
      c = 1;
    } else {
      PROCLUS_DCHECK(centers[0].size() == dims_total);
      AccumulatePair(tile, n, dims_total, centers[0].data(),
                     centers[1].data(), nullptr, dist0, dist1, SquareFold{});
      ArgminInitPair(dist0, dist1, n, 0, 1, best, tile_labels);
      c = 2;
    }
    for (; c + 1 < k; c += 2) {
      AccumulatePair(tile, n, dims_total, centers[c].data(),
                     centers[c + 1].data(), nullptr, dist0, dist1,
                     SquareFold{});
      ArgminUpdate(dist0, n, static_cast<int>(c), best, tile_labels);
      ArgminUpdate(dist1, n, static_cast<int>(c + 1), best, tile_labels);
    }
    if (c < k) {
      AccumulateOne(tile, n, dims_total, centers[c].data(), nullptr, dist0,
                    SquareFold{});
      ArgminUpdate(dist0, n, static_cast<int>(c), best, tile_labels);
    }
  }
}

PROCLUS_KERNEL
void LabeledAbsDeviationBatch(std::span<const double> block, size_t rows,
                              size_t dims_total, const int* labels,
                              const Matrix& refs, KernelScratch& scratch,
                              double* sums, size_t* count) {
  const size_t k = refs.rows();
  ++scratch.batches;
  scratch.rows_scored += rows;
  GroupRowsByLabel(labels, rows, k, scratch);
  LabeledRuns</*kAbsDeviation=*/true>(block.data(), dims_total, {}, scratch,
                                      &refs, sums);
  if (count == nullptr) return;
  for (size_t i = 0; i < k; ++i)
    count[i] += scratch.run_start[i + 1] - scratch.run_start[i];
}

PROCLUS_KERNEL
void LocalityAbsDeviationBatch(std::span<const double> block, size_t rows,
                               size_t dims_total, const Matrix& refs,
                               std::span<const size_t> ref_rows,
                               std::span<const double* const> dists,
                               std::span<const double> radii,
                               KernelScratch& scratch, double* sums,
                               size_t* count) {
  const size_t u = ref_rows.size();
  PROCLUS_DCHECK(dists.size() == u && radii.size() == u);
  PROCLUS_DCHECK(refs.cols() == dims_total);
  PROCLUS_CHECK(rows <= std::numeric_limits<uint32_t>::max());
  scratch.run_rows.resize(rows);
  uint32_t* members = scratch.run_rows.data();
  for (size_t a = 0; a < u; ++a) {
    // The rows within the radius, ascending: every row is written at the
    // cursor, which advances past the members only. A NaN distance fails
    // the `<=` and is never inside.
    const double* dist = dists[a];
    const double radius = radii[a];
    size_t n = 0;
    for (size_t r = 0; r < rows; ++r) {
      members[n] = static_cast<uint32_t>(r);
      n += dist[r] <= radius ? 1 : 0;
    }
    WalkColumns</*kContiguous=*/true, /*kAbsDeviation=*/true>(
        block.data(), dims_total, members, n, nullptr, dims_total,
        refs.row(ref_rows[a]).data(), sums + a * dims_total);
    count[a] += n;
  }
}

PROCLUS_KERNEL
void DivideColumnsBatch(std::span<double* const> cols, size_t rows,
                        double denom) {
  for (double* col : cols)
    for (size_t r = 0; r < rows; ++r) col[r] /= denom;
}

PROCLUS_KERNEL
void LabeledSumBatch(std::span<const double> block, size_t rows,
                     size_t dims_total, const int* labels, size_t num_labels,
                     double* sums, size_t* count) {
  for (size_t r = 0; r < rows; ++r) {
    const int label = labels[r];
    if (label < 0) continue;  // Outliers belong to no cluster.
    const size_t i = static_cast<size_t>(label);
    // invariant: labels come from an assignment scan, which only emits
    // negative outlier labels or cluster indices in [0, num_labels).
    PROCLUS_CHECK(i < num_labels);
    const double* __restrict__ point = block.data() + r * dims_total;
    double* __restrict__ acc = sums + i * dims_total;
    for (size_t j = 0; j < dims_total; ++j) acc[j] += point[j];
    ++count[i];
  }
}

PROCLUS_KERNEL
void GroupRowsByLabel(const int* labels, size_t rows, size_t num_labels,
                      KernelScratch& scratch) {
  PROCLUS_CHECK(rows <= std::numeric_limits<uint32_t>::max());
  std::vector<uint32_t>& start = scratch.run_start;
  start.assign(num_labels + 1, 0);
  for (size_t r = 0; r < rows; ++r) {
    const int label = labels[r];
    if (label < 0) continue;  // Outliers belong to no cluster.
    // invariant: labels come from an assignment scan, which only emits
    // negative outlier labels or cluster indices in [0, num_labels).
    PROCLUS_CHECK(static_cast<size_t>(label) < num_labels);
    ++start[static_cast<size_t>(label) + 1];
  }
  for (size_t i = 0; i < num_labels; ++i) start[i + 1] += start[i];
  scratch.run_rows.resize(start[num_labels]);
  // start[i] serves as label i's cursor and ends at its run's end, the
  // next run's start; one shift restores the run starts.
  for (size_t r = 0; r < rows; ++r) {
    const int label = labels[r];
    if (label < 0) continue;
    scratch.run_rows[start[static_cast<size_t>(label)]++] =
        static_cast<uint32_t>(r);
  }
  for (size_t i = num_labels; i > 0; --i) start[i] = start[i - 1];
  start[0] = 0;
}

PROCLUS_KERNEL
void RestrictedLabeledSumBatch(
    std::span<const double> block, size_t dims_total,
    std::span<const std::vector<uint32_t>> dim_lists,
    const KernelScratch& groups, double* sums, size_t* count) {
  PROCLUS_CHECK(groups.run_start.size() == dim_lists.size() + 1);
  LabeledRuns</*kAbsDeviation=*/false>(block.data(), dims_total, dim_lists,
                                       groups, nullptr, sums);
  for (size_t i = 0; i < dim_lists.size(); ++i)
    count[i] += groups.run_start[i + 1] - groups.run_start[i];
}

PROCLUS_KERNEL
void RestrictedLabeledAbsDeviationBatch(
    std::span<const double> block, size_t rows, size_t dims_total,
    const Matrix& refs, std::span<const std::vector<uint32_t>> dim_lists,
    const KernelScratch& groups, KernelScratch& scratch, double* sums) {
  PROCLUS_DCHECK(refs.rows() == dim_lists.size());
  PROCLUS_DCHECK(refs.cols() == dims_total);
  ++scratch.batches;
  scratch.rows_scored += rows;
  PROCLUS_CHECK(groups.run_start.size() == dim_lists.size() + 1);
  LabeledRuns</*kAbsDeviation=*/true>(block.data(), dims_total, dim_lists,
                                      groups, &refs, sums);
}

const char* KernelIsa() {
#if defined(PROCLUS_KERNEL_CLONES)
  // The resolver's order: the first level the CPU supports wins.
  __builtin_cpu_init();
  if (__builtin_cpu_supports("x86-64-v4")) return "x86-64-v4";
  if (__builtin_cpu_supports("x86-64-v3")) return "x86-64-v3";
#endif
  return "baseline";
}

}  // namespace proclus
