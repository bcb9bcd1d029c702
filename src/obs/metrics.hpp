// Low-overhead process-wide metrics for the pwx pipeline.
//
// The paper's whole data path is instrumentation (counters feeding traces
// feeding models); this module gives the *pipeline itself* the same
// treatment. A MetricRegistry holds three metric kinds:
//
//   * Counter   — monotonically increasing count (runs attempted, estimates
//                 emitted, retries, ...),
//   * Gauge     — last-written value (health state, fleet totals, per-node
//                 staleness),
//   * Histogram — fixed-bucket distribution with count/sum and
//                 bucket-interpolated p50/p95/p99 (per-run wall time,
//                 per-fold duration, per-step selection latency).
//
// Hot-path operations (Counter::add, Gauge::set, Histogram::observe) are
// lock-free relaxed atomics; registration (name -> handle) takes a mutex and
// is meant to happen once per site via a static-local handle. Telemetry is
// globally disabled by default: every hot-path operation first reads one
// relaxed atomic flag and returns — a disabled registry costs one predictable
// branch per site, so the fault-free pipeline stays bit-identical and within
// the perf budget. Snapshots iterate metrics in name order, independent of
// registration order and thread interleaving, so exports are deterministic.
//
// Naming scheme (see DESIGN.md "Observability"): dot-separated
// `<stage>.<noun>[_<unit>]`, e.g. "campaign.runs_attempted",
// "selection.step_seconds". Exporters map names into their target alphabet
// (Prometheus: dots -> underscores, "pwx_" prefix, "_total" counter suffix).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace pwx::obs {

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// Global telemetry switch. Disabled (the default) makes every metric
/// operation a single branch; instruments never need their own gating.
/// Inline so hot paths pay one relaxed load, not a function call.
inline bool enabled() { return detail::g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on);

/// Monotonic counter.
class Counter {
public:
  void add(std::uint64_t n = 1) {
    if (enabled()) {
      add_unguarded(n);
    }
  }
  /// Increment without the enabled() gate — for hot paths that hoist one
  /// enabled() check over several instrument operations.
  void add_unguarded(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-value gauge.
class Gauge {
public:
  void set(double v) {
    if (enabled()) {
      set_unguarded(v);
    }
  }
  /// Store without the enabled() gate (see Counter::add_unguarded).
  void set_unguarded(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

private:
  std::atomic<double> value_{0.0};
};

/// One trace exemplar attached to a histogram bucket: the most recent
/// observation that happened inside a sampled trace, so a slow p99 bucket
/// links back to a concrete causal trace (see obs/trace.hpp).
struct HistogramExemplar {
  std::size_t bucket = 0;        ///< bucket index (bounds index; last = +Inf)
  double value = 0.0;            ///< the observed value
  std::uint64_t trace_id = 0;    ///< TraceId active at observe time
};

/// Point-in-time copy of one histogram, with quantile interpolation.
struct HistogramSnapshot {
  std::vector<double> bounds;          ///< upper bounds, ascending; implicit +Inf last
  std::vector<std::uint64_t> counts;   ///< per-bucket counts, bounds.size() + 1 entries
  std::uint64_t count = 0;             ///< total observations
  double sum = 0.0;                    ///< sum of observed values
  /// Buckets that have an exemplar, ascending by bucket; empty when no
  /// observation ever ran under a sampled trace (exports omit it then).
  std::vector<HistogramExemplar> exemplars;

  /// Bucket-interpolated quantile (Prometheus histogram_quantile semantics:
  /// linear within the bucket, lower bound 0, the +Inf bucket collapses to
  /// the largest finite bound). Returns 0 when empty. `q` in [0,1].
  double quantile(double q) const;
};

/// Fixed-bucket histogram. Bucket bounds are set at registration and never
/// change; observe() is lock-free.
class Histogram {
public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double value);
  HistogramSnapshot snapshot() const;
  void reset();

  const std::vector<double>& bounds() const { return bounds_; }

  /// Default bounds for durations in seconds: 1us .. ~100s, a decade split
  /// into {1, 2.5, 5} steps — wide enough for per-sample latencies and
  /// whole-campaign phases alike.
  static std::vector<double> default_time_bounds();

private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;  ///< bounds_.size() + 1
  // Per-bucket last-wins exemplar (trace id 0 = none). Written only when an
  // observation runs inside a sampled trace, so the common case is free.
  std::vector<std::atomic<std::uint64_t>> exemplar_trace_;
  std::vector<std::atomic<double>> exemplar_value_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

enum class MetricKind { Counter, Gauge, Histogram };

/// One metric in a snapshot.
struct MetricValue {
  std::string name;
  std::string help;
  MetricKind kind = MetricKind::Counter;
  std::uint64_t counter = 0;        ///< kind == Counter
  double gauge = 0.0;               ///< kind == Gauge
  HistogramSnapshot histogram;      ///< kind == Histogram
};

/// Deterministic point-in-time copy of a registry (name-sorted).
struct MetricsSnapshot {
  std::vector<MetricValue> values;

  /// Lookup by exact name; nullptr when absent.
  const MetricValue* find(std::string_view name) const;

  /// Snapshot restricted to metrics whose name starts with `prefix`
  /// (e.g. "serve." for the self-healing lifecycle counters). Order is
  /// preserved, so the result stays name-sorted and deterministic.
  MetricsSnapshot filtered(std::string_view prefix) const;
};

/// Thread-safe name -> metric registry. Handles returned by counter()/
/// gauge()/histogram() are stable for the registry's lifetime, so call sites
/// cache them in static locals and pay only the metric's own atomic cost.
class MetricRegistry {
public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// Get-or-create. A name registers exactly one kind; re-registering the
  /// same name with a different kind throws pwx::InvalidArgument. `help` is
  /// kept from the first registration that provides one.
  Counter& counter(std::string_view name, std::string_view help = {});
  Gauge& gauge(std::string_view name, std::string_view help = {});
  Histogram& histogram(std::string_view name, std::vector<double> bounds = {},
                       std::string_view help = {});

  /// Name-sorted copy of every registered metric's current value.
  MetricsSnapshot snapshot() const;

  /// Zero all values; registrations (and handles) survive. For tests and
  /// between monitoring epochs.
  void reset_values();

  std::size_t size() const;

private:
  struct Entry {
    MetricKind kind;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  /// Get-or-create under mutex_: a new entry is inserted with its
  /// instrument already built (histograms from `bounds`), so no caller can
  /// see an entry without one.
  Entry& entry(std::string_view name, MetricKind kind, std::string_view help,
               std::vector<double> bounds = {});

  mutable std::mutex mutex_;
  std::map<std::string, Entry, std::less<>> metrics_;
};

/// The process-wide registry every pwx instrument reports into.
MetricRegistry& registry();

}  // namespace pwx::obs
