// Machine model of the paper's experimental platform.
//
// The reference system is a dual-socket Intel Xeon E5-2690 v3 (Haswell-EP,
// 12 cores per socket, 24 total), Hyper-Threading and Turbo Boost disabled.
// The topology drives thread placement (compact pinning: fill socket 0
// first), per-socket power aggregation, and the core-count-dependent parts of
// the ground-truth power generator.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace pwx::cpu {

/// Static description of one machine.
struct MachineSpec {
  std::string name;
  std::size_t sockets = 2;
  std::size_t cores_per_socket = 12;
  double base_frequency_ghz = 2.6;   ///< nominal P1 frequency
  double reference_clock_ghz = 2.5;  ///< TSC / REF_CYC rate (100 MHz * bus ratio)
  std::size_t l1d_kib = 32;
  std::size_t l2_kib = 256;
  std::size_t l3_mib_per_socket = 30;
  int issue_width = 4;  ///< pipeline width (uops issued/retired per cycle)

  std::size_t total_cores() const { return sockets * cores_per_socket; }
};

/// The paper's platform: dual-socket E5-2690 v3, HT and Turbo off.
MachineSpec haswell_ep_2690v3();

/// Number of active cores on each socket for `threads` total threads under
/// compact pinning: socket 0 fills before socket 1 (OMP_PLACES=cores, close).
std::vector<std::size_t> active_cores_per_socket(const MachineSpec& spec,
                                                 std::size_t threads);

}  // namespace pwx::cpu
