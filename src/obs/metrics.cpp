#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "obs/trace.hpp"

namespace pwx::obs {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

namespace {
const char* kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::Counter: return "counter";
    case MetricKind::Gauge: return "gauge";
    case MetricKind::Histogram: return "histogram";
  }
  return "?";
}
}  // namespace

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

double HistogramSnapshot::quantile(double q) const {
  if (count == 0) {
    return 0.0;
  }
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(count);
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    cumulative += counts[b];
    if (static_cast<double>(cumulative) >= rank && counts[b] > 0) {
      // The +Inf bucket has no width to interpolate in; report the largest
      // finite bound (or the sum/count mean when there are no finite bounds).
      if (b >= bounds.size()) {
        return bounds.empty() ? sum / static_cast<double>(count) : bounds.back();
      }
      const double lo = b == 0 ? 0.0 : bounds[b - 1];
      const double hi = bounds[b];
      const auto below = static_cast<double>(cumulative - counts[b]);
      const double fraction =
          (rank - below) / static_cast<double>(counts[b]);
      return lo + (hi - lo) * std::clamp(fraction, 0.0, 1.0);
    }
  }
  return bounds.empty() ? sum / static_cast<double>(count) : bounds.back();
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (bounds_.empty()) {
    bounds_ = default_time_bounds();
  }
  PWX_REQUIRE(std::is_sorted(bounds_.begin(), bounds_.end()),
              "histogram bounds must be ascending");
  PWX_REQUIRE(std::adjacent_find(bounds_.begin(), bounds_.end()) == bounds_.end(),
              "histogram bounds must be distinct");
  for (double b : bounds_) {
    PWX_REQUIRE(std::isfinite(b), "histogram bounds must be finite");
  }
  buckets_ = std::vector<std::atomic<std::uint64_t>>(bounds_.size() + 1);
  exemplar_trace_ = std::vector<std::atomic<std::uint64_t>>(bounds_.size() + 1);
  exemplar_value_ = std::vector<std::atomic<double>>(bounds_.size() + 1);
}

void Histogram::observe(double value) {
  if (!enabled() || !std::isfinite(value)) {
    return;
  }
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const auto bucket = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  // Exemplar: when this observation ran inside a sampled trace, remember
  // which one (last-wins per bucket). One thread-local read when tracing is
  // active, one branch when it is not.
  if (tracing_active()) {
    const std::uint64_t trace_id = current_trace_id();
    if (trace_id != 0) {
      exemplar_value_[bucket].store(value, std::memory_order_relaxed);
      exemplar_trace_[bucket].store(trace_id, std::memory_order_release);
    }
  }
  count_.fetch_add(1, std::memory_order_relaxed);
  // fetch_add on atomic<double> needs a CAS loop pre-C++20-on-libstdc++;
  // spell it out for portability.
  double sum = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(sum, sum + value, std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  snap.bounds = bounds_;
  snap.counts.reserve(buckets_.size());
  for (const auto& bucket : buckets_) {
    snap.counts.push_back(bucket.load(std::memory_order_relaxed));
  }
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum = sum_.load(std::memory_order_relaxed);
  for (std::size_t b = 0; b < exemplar_trace_.size(); ++b) {
    const std::uint64_t trace_id =
        exemplar_trace_[b].load(std::memory_order_acquire);
    if (trace_id != 0) {
      snap.exemplars.push_back(HistogramExemplar{
          b, exemplar_value_[b].load(std::memory_order_relaxed), trace_id});
    }
  }
  return snap;
}

void Histogram::reset() {
  for (auto& bucket : buckets_) {
    bucket.store(0, std::memory_order_relaxed);
  }
  for (std::size_t b = 0; b < exemplar_trace_.size(); ++b) {
    exemplar_trace_[b].store(0, std::memory_order_relaxed);
    exemplar_value_[b].store(0.0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

std::vector<double> Histogram::default_time_bounds() {
  std::vector<double> bounds;
  for (double decade = 1e-6; decade < 200.0; decade *= 10.0) {
    bounds.push_back(decade);
    bounds.push_back(decade * 2.5);
    bounds.push_back(decade * 5.0);
  }
  return bounds;
}

const MetricValue* MetricsSnapshot::find(std::string_view name) const {
  for (const MetricValue& value : values) {
    if (value.name == name) {
      return &value;
    }
  }
  return nullptr;
}

MetricsSnapshot MetricsSnapshot::filtered(std::string_view prefix) const {
  MetricsSnapshot out;
  for (const MetricValue& value : values) {
    if (value.name.size() >= prefix.size() &&
        std::string_view(value.name).substr(0, prefix.size()) == prefix) {
      out.values.push_back(value);
    }
  }
  return out;
}

MetricRegistry::Entry& MetricRegistry::entry(std::string_view name, MetricKind kind,
                                             std::string_view help,
                                             std::vector<double> bounds) {
  PWX_REQUIRE(!name.empty(), "metric name must not be empty");
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    Entry fresh;
    fresh.kind = kind;
    fresh.help = std::string(help);
    switch (kind) {
      case MetricKind::Counter: fresh.counter = std::make_unique<Counter>(); break;
      case MetricKind::Gauge: fresh.gauge = std::make_unique<Gauge>(); break;
      case MetricKind::Histogram:
        fresh.histogram = std::make_unique<Histogram>(std::move(bounds));
        break;
    }
    it = metrics_.emplace(std::string(name), std::move(fresh)).first;
  } else {
    PWX_REQUIRE(it->second.kind == kind, "metric '", std::string(name),
                "' already registered as ", kind_name(it->second.kind),
                ", requested as ", kind_name(kind));
    if (it->second.help.empty() && !help.empty()) {
      it->second.help = std::string(help);
    }
  }
  return it->second;
}

Counter& MetricRegistry::counter(std::string_view name, std::string_view help) {
  return *entry(name, MetricKind::Counter, help).counter;
}

Gauge& MetricRegistry::gauge(std::string_view name, std::string_view help) {
  return *entry(name, MetricKind::Gauge, help).gauge;
}

Histogram& MetricRegistry::histogram(std::string_view name,
                                     std::vector<double> bounds,
                                     std::string_view help) {
  return *entry(name, MetricKind::Histogram, help, std::move(bounds)).histogram;
}

MetricsSnapshot MetricRegistry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snap;
  snap.values.reserve(metrics_.size());
  // std::map iterates in name order — the determinism contract.
  for (const auto& [name, entry] : metrics_) {
    MetricValue value;
    value.name = name;
    value.help = entry.help;
    value.kind = entry.kind;
    switch (entry.kind) {
      case MetricKind::Counter: value.counter = entry.counter->value(); break;
      case MetricKind::Gauge: value.gauge = entry.gauge->value(); break;
      case MetricKind::Histogram: value.histogram = entry.histogram->snapshot(); break;
    }
    snap.values.push_back(std::move(value));
  }
  return snap;
}

void MetricRegistry::reset_values() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, entry] : metrics_) {
    switch (entry.kind) {
      case MetricKind::Counter: entry.counter->reset(); break;
      case MetricKind::Gauge: entry.gauge->reset(); break;
      case MetricKind::Histogram: entry.histogram->reset(); break;
    }
  }
}

std::size_t MetricRegistry::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return metrics_.size();
}

MetricRegistry& registry() {
  static MetricRegistry instance;  // NOLINT: intentional process lifetime
  return instance;
}

}  // namespace pwx::obs
