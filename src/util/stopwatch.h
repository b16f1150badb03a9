// Wall-clock stopwatch for measuring *host* time (build diagnostics, test
// timeouts). Simulated cluster time is tracked separately by sim::SimClock.
#pragma once

#include <chrono>

namespace yafim {

class Stopwatch {
 public:
  Stopwatch() : start_(clock::now()) {}

  void reset() { start_ = clock::now(); }

  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

}  // namespace yafim
