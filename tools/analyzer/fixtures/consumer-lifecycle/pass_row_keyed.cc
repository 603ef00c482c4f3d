// fixture-path: src/core/fixture_consumer_row_keyed.cc
// Row-range-keyed writes are as legal as block-keyed ones, and local
// (non-member) state is never the rule's business.
#include "src/data/engine.h"

class RowHistConsumer : public ScanConsumer {
 public:
  void Prepare(std::size_t blocks, std::size_t dims) override;
  void ConsumeBlock(std::size_t block_index, std::size_t first_row,
                    std::span<const double> data,
                    std::size_t rows) override {
    double local_max = 0.0;
    for (std::size_t r = 0; r < rows; ++r) {
      if (data[r] > local_max) local_max = data[r];
      hist_[first_row + r] = data[r];
    }
    maxima_[block_index] = local_max;
  }
  void Merge() override;

 private:
  std::vector<double> hist_;
  std::vector<double> maxima_;
};
