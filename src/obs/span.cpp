#include "obs/span.hpp"

#include <chrono>

namespace pwx::obs {

double monotonic_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace pwx::obs
