// fixture-path: src/core/fixture_consumer_racy.cc
// An unkeyed member write from ConsumeBlock: blocks run concurrently, so
// this races AND commits state outside Merge() — both halves of the
// commit-on-Merge contract broken in one line.
#include "src/data/engine.h"

class RacyConsumer : public ScanConsumer {
 public:
  void Prepare(std::size_t blocks, std::size_t dims) override {}
  void ConsumeBlock(std::size_t block_index, std::size_t first_row,
                    std::span<const double> data,
                    std::size_t rows) override {
    total_ += static_cast<double>(rows);  // expect: consumer-lifecycle
    blocks_seen_++;  // expect: consumer-lifecycle
  }
  void Merge() override {}

 private:
  double total_ = 0.0;
  std::size_t blocks_seen_ = 0;
};
