#include "report.hpp"

#include <omp.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "core/dense_kernels.hpp"

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (const double v : values) {
    sum += v;
  }
  return sum / static_cast<double>(values.size());
}

Tail tail_percentile(std::vector<double> values, std::size_t min_beyond,
                     double max_percentile) {
  Tail tail;
  tail.jobs = values.size();
  const std::size_t n = values.size();
  if (n == 0) {
    return tail;
  }
  std::sort(values.begin(), values.end());
  if (n <= min_beyond) {
    tail.value = values.back();
    tail.percentile = 100.0;
    return tail;
  }
  // Nearest-rank percentile: the value at 1-based rank r is the 100*r/n-th.
  const auto capped = static_cast<std::size_t>(
      std::ceil(max_percentile / 100.0 * static_cast<double>(n)));
  const std::size_t rank = std::min(capped, n - min_beyond);
  tail.defined = true;
  tail.value = values[rank - 1];
  tail.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  tail.beyond = static_cast<std::size_t>(
      values.end() - std::upper_bound(values.begin(), values.end(), tail.value));
  return tail;
}

double percentile(std::vector<double> values, double pct) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

bool Checks::record(std::string_view name, bool ok, std::string_view detail) {
  auto it = tallies_.find(name);
  if (it == tallies_.end()) {
    it = tallies_.emplace(std::string(name), Tally{}).first;
  }
  Tally& tally = it->second;
  ++tally.attempted;
  ++attempted_;
  if (!ok) {
    ++tally.failed;
    ++failed_;
    if (tally.first_failure.empty()) {
      tally.first_failure = detail.empty() ? "failed" : std::string(detail);
    }
  }
  return ok;
}

double Checks::error_rate() const {
  return attempted_ == 0 ? 0.0
                         : static_cast<double>(failed_) / static_cast<double>(attempted_);
}

void Checks::print(std::ostream& out) const {
  for (const auto& [name, tally] : tallies_) {
    out << "check " << name << ": " << (tally.attempted - tally.failed) << "/"
        << tally.attempted << " passed";
    if (tally.failed > 0) {
      out << " -- FAILED: " << tally.first_failure;
    }
    out << "\n";
  }
}

Fnv& Fnv::add(std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (value >> (8 * i)) & 0xffU;
    hash_ *= 0x100000001b3ULL;
  }
  return *this;
}

Fnv& Fnv::add(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  return add(bits);
}

Fnv& Fnv::add(std::string_view text) {
  for (const char c : text) {
    hash_ ^= static_cast<unsigned char>(c);
    hash_ *= 0x100000001b3ULL;
  }
  return add(static_cast<std::uint64_t>(text.size()));
}

std::string hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

double peak_rss_mb() {
  // VmHWM, not getrusage: ru_maxrss survives execve, so it would report the
  // launcher's peak whenever that exceeds this process's own.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Size of the cache at `level` as the kernel reports it for CPU 0.
std::string cache_size(int level) {
  for (int index = 0; index < 8; ++index) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index) + "/";
    std::ifstream level_file(dir + "level");
    std::ifstream type_file(dir + "type");
    int found = 0;
    std::string type;
    if (!(level_file >> found) || !(type_file >> type)) {
      break;
    }
    if (found == level && type != "Instruction") {
      std::ifstream size_file(dir + "size");
      std::string size;
      size_file >> size;
      return size;
    }
  }
  return "unknown";
}

const char* proc_bind_name(omp_proc_bind_t bind) {
  switch (bind) {
    case omp_proc_bind_false: return "false";
    case omp_proc_bind_true: return "true";
    case omp_proc_bind_master: return "primary";
    case omp_proc_bind_close: return "close";
    case omp_proc_bind_spread: return "spread";
  }
  return "unknown";
}

}  // namespace

void print_provenance(std::ostream& out, std::string_view workload,
                      std::uint64_t seed, std::string_view commit) {
  out << "# perfbench workload=" << workload << " seed=" << seed << "\n"
      << "# nproc=" << sysconf(_SC_NPROCESSORS_ONLN) << " cpu=\"" << cpu_model()
      << "\" l2=" << cache_size(2) << " l3=" << cache_size(3) << "\n"
      << "# build=" << PERFBENCH_BUILD_TYPE << " compiler=\"" << PERFBENCH_COMPILER
      << "\" flags=\"" << PERFBENCH_CXX_FLAGS << "\"\n"
      << "# omp_threads=" << omp_get_max_threads()
      << " omp_proc_bind=" << proc_bind_name(omp_get_proc_bind()) << " batch_kernel="
      << pwx::core::batch_kernel_name(pwx::core::active_batch_kernel())
      << " commit=" << commit << "\n";
}

std::string result_json(bool correct, std::size_t attempted, std::size_t failed,
                        const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out.precision(17);
  out << R"({"correct": )" << (correct ? "true" : "false")
      << R"(, "attempted": )" << attempted << R"(, "failed": )" << failed
      << R"(, "metrics": {)";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i == 0 ? "" : ", ") << '"' << metrics[i].name << R"(": {"value": )"
        << metrics[i].value << R"(, "unit": ")" << metrics[i].unit << R"("})";
  }
  out << "}}";
  return out.str();
}

void print_layer_table(std::ostream& out, std::string_view workload,
                       const std::vector<std::pair<std::string, double>>& rows) {
  double total = 0.0;
  for (const auto& row : rows) {
    total += row.second;
  }
  char line[128];
  out << "\nper-layer self time, " << workload << " (per traced job)\n";
  std::snprintf(line, sizeof line, "%-26s | %10s | %8s\n", "layer", "ms", "% of job");
  out << line;
  for (const auto& [name, ms] : rows) {
    std::snprintf(line, sizeof line, "%-26s | %10.3f | %7.2f%%\n", name.c_str(), ms,
                  total > 0.0 ? 100.0 * ms / total : 0.0);
    out << line;
  }
  std::snprintf(line, sizeof line, "%-26s | %10.3f | %7.2f%%\n", "total", total,
                total > 0.0 ? 100.0 : 0.0);
  out << line;
}

}  // namespace perfbench
