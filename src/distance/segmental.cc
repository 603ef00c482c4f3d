#include "distance/segmental.h"

namespace proclus {

double ManhattanSegmentalDistance(std::span<const double> a,
                                  std::span<const double> b,
                                  const DimensionSet& dims) {
  PROCLUS_DCHECK(a.size() == b.size());
  // Walk the bitset directly instead of materializing ToVector(): the
  // iteration order (ascending) and accumulation match the span overload
  // exactly, so the two paths are bit-identical — this one just never
  // allocates. Hot loops should still pre-materialize the index list once
  // and call the span overload; tools/lint.py enforces that inside
  // src/core and src/distance loops.
  double sum = 0.0;
  size_t count = 0;
  dims.ForEach([&](uint32_t d) {
    PROCLUS_DCHECK(d < a.size());
    double diff = a[d] - b[d];
    sum += diff < 0 ? -diff : diff;
    ++count;
  });
  PROCLUS_DCHECK(count > 0);
  return sum / static_cast<double>(count);
}

}  // namespace proclus
