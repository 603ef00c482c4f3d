// fixture-path: src/core/fixture_consumer_keyed.cc
// The contract in full: every ConsumeBlock write keyed by block_index (or a row range derived from first_row), and the
// only retained pointer into the block span lives in a per-block slot.
#include "src/data/engine.h"

class BlockSumConsumer : public ScanConsumer {
 public:
  void Prepare(std::size_t blocks, std::size_t dims) override {
    partial_.assign(blocks, 0.0);
    scratch_.assign(blocks, nullptr);
  }
  void ConsumeBlock(std::size_t block_index, std::size_t first_row,
                    std::span<const double> data,
                    std::size_t rows) override {
    double acc = 0.0;
    for (std::size_t r = 0; r < rows; ++r) acc += data[r];
    partial_[block_index] = acc;
    scratch_[block_index] = data.data();
  }
  void Merge() override {
    total_ = 0.0;
    for (double p : partial_) total_ += p;
  }

 private:
  std::vector<double> partial_;
  std::vector<const double*> scratch_;
  double total_ = 0.0;
};
