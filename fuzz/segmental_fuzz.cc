// Segmental distance harness: structured fuzzing of dimension subsets
// against matrix extents. The builders guarantee every subset index is
// within the dataset's dimensionality, so under ASan any out-of-bounds read
// inside the distance kernels is the kernel's fault, not the input's.
// Checked algebra: both overloads agree, distances are symmetric,
// non-negative, finite, zero on identical points, and the segmental
// normalization equals the restricted Manhattan sum divided by |D|.

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"
#include "distance/segmental.h"
#include "fuzz/structured.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  proclus::fuzz::ByteSource src(data, size);
  proclus::Dataset ds =
      proclus::fuzz::BuildDataset(src, /*allow_nonfinite=*/false);
  if (ds.empty()) return 0;

  const size_t a = static_cast<size_t>(src.TakeInt(0, ds.size() - 1));
  const size_t b = static_cast<size_t>(src.TakeInt(0, ds.size() - 1));
  proclus::DimensionSet dims =
      proclus::fuzz::BuildDimensionSet(src, ds.dims());
  if (dims.empty()) dims.Add(0);
  const std::vector<uint32_t> list = dims.ToVector();
  const std::span<const uint32_t> span(list);

  const auto pa = ds.point(a);
  const auto pb = ds.point(b);
  const double seg = proclus::ManhattanSegmentalDistance(pa, pb, span);
  PROCLUS_CHECK(std::isfinite(seg));
  PROCLUS_CHECK(seg >= 0.0);
  PROCLUS_CHECK(seg == proclus::ManhattanSegmentalDistance(pa, pb, dims));
  PROCLUS_CHECK(seg == proclus::ManhattanSegmentalDistance(pb, pa, span));
  PROCLUS_CHECK(proclus::ManhattanSegmentalDistance(pa, pa, span) == 0.0);

  const double manhattan =
      proclus::RestrictedManhattanDistance(pa, pb, span);
  PROCLUS_CHECK(seg == manhattan / static_cast<double>(list.size()));
  return 0;
}
