#pragma once
// Wall-clock stopwatch for *host* timing (micro-benchmarks, progress logs).
// Simulated experiment time never flows through this class — it lives in
// device::Device / fl::SimClock as plain double seconds.

#include <chrono>

namespace fedsched::common {

class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void reset() noexcept { start_ = Clock::now(); }

  [[nodiscard]] double seconds() const noexcept {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace fedsched::common
