// Job statistics, output checks and the result's provenance header.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

double median(std::vector<double> values);

/// Arithmetic mean (0 for no values).
double mean(const std::vector<double>& values);

/// The tail a run reports: the highest percentile, up to `max_percentile`,
/// with at least `min_beyond` jobs strictly beyond it. The cap keeps one
/// meaning for the metric while job counts change from run to run. Runs with
/// fewer than min_beyond+1 jobs have no such percentile and report their
/// slowest job.
struct Tail {
  bool defined = false;
  double value = 0.0;
  double percentile = 0.0;  ///< nearest-rank percentile of `value`, in %
  std::size_t beyond = 0;   ///< jobs strictly beyond `value`
  std::size_t jobs = 0;
};
Tail tail_percentile(std::vector<double> values, std::size_t min_beyond = 10,
                     double max_percentile = 90.0);

/// Nearest-rank percentile (0 for no values).
double percentile(std::vector<double> values, double pct);

/// Output checks. Every job, and every end-of-run comparison against a
/// reference computed in the same run, is one attempted operation; it fails
/// when its check fails. Deliberately faulted inputs (the fleet's NaN lanes)
/// are part of an operation's expected output, never failures.
class Checks {
public:
  /// Count one operation under check `name`; returns `ok`.
  bool record(std::string_view name, bool ok, std::string_view detail = {});

  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }
  double error_rate() const;
  bool all_passed() const { return failed_ == 0 && attempted_ > 0; }

  /// One line per check: passed/attempted, and the first failure's detail.
  void print(std::ostream& out) const;

private:
  struct Tally {
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::string first_failure;
  };
  std::map<std::string, Tally, std::less<>> tallies_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// Streaming FNV-1a over the bit patterns of what it is fed.
class Fnv {
public:
  Fnv& add(std::uint64_t value);
  Fnv& add(double value);
  Fnv& add(std::string_view text);
  std::uint64_t value() const { return hash_; }

private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::string hex64(std::uint64_t value);

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

/// Header naming where and how a result was produced, so that numbers from
/// different machines or builds are never compared.
void print_provenance(std::ostream& out, std::string_view workload,
                      std::uint64_t seed, std::string_view commit);

/// One metric of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The result line: one JSON object, values with all their digits.
std::string result_json(bool correct, std::size_t attempted, std::size_t failed,
                        const std::vector<Metric>& metrics);

/// The traced run's table, "layer | ms | % of job", rows as given.
void print_layer_table(std::ostream& out, std::string_view workload,
                       const std::vector<std::pair<std::string, double>>& rows);

}  // namespace perfbench
