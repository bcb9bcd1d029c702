#include "cpu/topology.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace pwx::cpu {

MachineSpec haswell_ep_2690v3() {
  MachineSpec spec;
  spec.name = "2x Intel Xeon E5-2690 v3 (Haswell-EP)";
  spec.sockets = 2;
  spec.cores_per_socket = 12;
  spec.base_frequency_ghz = 2.6;
  spec.reference_clock_ghz = 2.5;
  spec.l1d_kib = 32;
  spec.l2_kib = 256;
  spec.l3_mib_per_socket = 30;
  spec.issue_width = 4;
  return spec;
}

std::vector<std::size_t> active_cores_per_socket(const MachineSpec& spec,
                                                 std::size_t threads) {
  PWX_REQUIRE(threads <= spec.total_cores(), "thread count ", threads,
              " exceeds core count ", spec.total_cores());
  std::vector<std::size_t> per_socket(spec.sockets, 0);
  std::size_t remaining = threads;
  for (std::size_t s = 0; s < spec.sockets && remaining > 0; ++s) {
    const std::size_t here = std::min(remaining, spec.cores_per_socket);
    per_socket[s] = here;
    remaining -= here;
  }
  return per_socket;
}

}  // namespace pwx::cpu
