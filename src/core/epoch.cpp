#include "core/epoch.hpp"

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"

namespace pwx::core {

namespace {

struct EpochMetrics {
  obs::Counter& publishes;
  obs::Counter& stale_rejected;
  obs::Gauge& generation;
};

EpochMetrics& epoch_metrics() {
  static EpochMetrics m{
      obs::registry().counter("epoch.publishes", "model publications (hot swaps)"),
      obs::registry().counter("epoch.stale_rejected",
                              "guarded publishes rejected as stale"),
      obs::registry().gauge("epoch.generation", "latest published model generation"),
  };
  return m;
}

}  // namespace

LayoutEpoch::LayoutEpoch(PowerModel model) { publish(std::move(model)); }

std::shared_ptr<const PublishedModel> LayoutEpoch::current() const {
  std::lock_guard lock(mutex_);
  return current_;
}

std::uint64_t LayoutEpoch::publish_locked(PowerModel model) {
  PWX_SPAN("epoch.publish");
  const std::uint64_t next = generation_.load(std::memory_order_relaxed) + 1;
  current_ = std::make_shared<const PublishedModel>(std::move(model), next);
  // Release-store last: a reader that observes the new generation will find
  // the matching publication behind current().
  generation_.store(next, std::memory_order_release);
  obs::span_attr("generation", next);
  if (obs::enabled()) {
    EpochMetrics& m = epoch_metrics();
    m.publishes.add_unguarded(1);
    m.generation.set_unguarded(static_cast<double>(next));
  }
  return next;
}

std::uint64_t LayoutEpoch::publish(PowerModel model) {
  std::lock_guard lock(mutex_);
  return publish_locked(std::move(model));
}

std::optional<std::uint64_t> LayoutEpoch::try_publish(
    PowerModel model, std::uint64_t expected_generation) {
  std::lock_guard lock(mutex_);
  if (generation_.load(std::memory_order_relaxed) != expected_generation) {
    epoch_metrics().stale_rejected.add();
    return std::nullopt;
  }
  return publish_locked(std::move(model));
}

}  // namespace pwx::core
