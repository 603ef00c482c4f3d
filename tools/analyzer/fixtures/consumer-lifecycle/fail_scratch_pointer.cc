// fixture-path: src/core/fixture_consumer_dangle.cc
// A pointer into the block's scratch span stored in a slot NOT keyed by
// block_index: the span dies when this call returns, so the pointer
// dangles by the time Merge() reads it.
#include "src/data/engine.h"

class DanglingConsumer : public ScanConsumer {
 public:
  void Prepare(std::size_t blocks, std::size_t dims) override {}
  void ConsumeBlock(std::size_t block_index, std::size_t first_row,
                    std::span<const double> data,
                    std::size_t rows) override {
    views_[first_row] = data.data();  // expect: consumer-lifecycle
    first_ = &data[0];  // expect: consumer-lifecycle
  }
  void Merge() override {}

 private:
  std::map<std::size_t, const double*> views_;
  const double* first_ = nullptr;
};
