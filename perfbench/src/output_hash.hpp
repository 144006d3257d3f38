// FNV-1a digest over the deterministic outputs of one simulation run.
//
// A speed-only change to the simulator must leave every simulated statistic
// identical, so each benchmark run folds its outputs into one 64-bit value
// and compares it with the reference recorded for that workload and seed.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

class OutputHash {
 public:
  void add(std::uint64_t v);
  std::uint64_t value() const { return h_; }
  /// Sixteen lower-case hex digits.
  std::string hex() const;

 private:
  std::uint64_t h_{0xcbf29ce484222325ULL};
};

}  // namespace perfbench
