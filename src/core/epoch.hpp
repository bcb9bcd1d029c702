// Epoch-based model hot-swap.
//
// A server that retrains online (src/serve, pwx-ingestd --refresh) must let
// its live OnlineEstimator adopt a newly trained model without a restart and
// without a lock on the estimate path. LayoutEpoch is the RCU-style
// publication point: every trained model is compiled once into an immutable
// PublishedModel (model + ModelLayout + monotone generation) held by
// shared_ptr, and readers follow a two-level protocol:
//
//   1. Fast path, every estimate: one acquire load of generation() compared
//      against the generation cached next to the reader's shared_ptr.
//      Unchanged -> evaluate on the cached publication; no lock, no
//      reference-count traffic.
//   2. Slow path, once per swap per reader: re-acquire current() under the
//      epoch mutex and rebuild any layout-dependent scratch state.
//
// Readers therefore never observe a torn model (the publication is immutable
// and reference-counted) and pay for a swap only when one actually happened.
// publish() is totally ordered by the epoch mutex; try_publish() adds a
// compare-and-swap generation guard so a slow retrainer can never overwrite
// a publication it has not seen (the stale-publish fault of
// fault::FaultKind::StaleLayoutPublish exercises exactly this guard).
// FleetEstimator and FleetTree do not bind to an epoch: each serves the one
// model it was constructed with.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>

#include "core/dense.hpp"
#include "core/model.hpp"

namespace pwx::core {

/// One immutable publication: the trained model, its compiled serving
/// layout, and the monotone generation number. Never mutated after
/// construction — readers share it by shared_ptr.
struct PublishedModel {
  PublishedModel(PowerModel model_in, std::uint64_t generation_in)
      : model(std::move(model_in)), layout(model), generation(generation_in) {}

  PowerModel model;
  ModelLayout layout;
  std::uint64_t generation = 0;
};

/// The swap point between the retraining pipeline and live estimators.
/// Thread-safe; one instance is shared by every reader of one model stream.
class LayoutEpoch {
public:
  /// Publishes `model` as generation 1.
  explicit LayoutEpoch(PowerModel model);

  /// Generation of the latest publication (monotone, starts at 1). One
  /// acquire load — the per-estimate fast-path check.
  std::uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  /// Number of hot swaps so far (generation() - 1).
  std::uint64_t swap_count() const { return generation() - 1; }

  /// The current publication. Shared ownership: the returned publication
  /// stays fully usable after any number of later swaps.
  std::shared_ptr<const PublishedModel> current() const;

  /// Publish unconditionally; returns the new generation.
  std::uint64_t publish(PowerModel model);

  /// Guarded publish: succeeds only while the current generation still
  /// equals `expected_generation` — the compare-and-swap that keeps a stale
  /// retrainer (one that fit against an already-replaced incumbent) from
  /// clobbering a newer publication. Returns the new generation, or nullopt
  /// when the expectation no longer holds (nothing is published then).
  std::optional<std::uint64_t> try_publish(PowerModel model,
                                           std::uint64_t expected_generation);

private:
  std::uint64_t publish_locked(PowerModel model);

  mutable std::mutex mutex_;
  std::shared_ptr<const PublishedModel> current_;  ///< under mutex_
  /// Published *after* current_ under the mutex; readers that see a new
  /// generation then acquire the matching publication via current().
  std::atomic<std::uint64_t> generation_{0};
};

}  // namespace pwx::core
