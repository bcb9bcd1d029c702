// Structured causal tracing: the one store PWX_SPAN sites record into.
//
// Every sampled span gets a TraceId/SpanId/parent linkage, monotonic
// start/end timestamps, and free-form attributes, and is recorded as a
// SpanRecord into a lock-free single-producer ring buffer owned by its
// thread. A collector (tools/pwx-ingestd --trace-out, pwx-monitor
// --trace, the tests) drains the rings and hands the records to the
// exporters in obs/trace_export.hpp (Chrome trace-event JSON for Perfetto,
// span JSONL, the latency-attribution table).
//
// Design points:
//
//   * Off path: one inline branch. When no Tracer session is active and no
//     flight recorder is armed, tracing_active() is a single relaxed atomic
//     load and obs::Span does nothing else. Starting a session never
//     requires re-instrumenting a site.
//   * Sampling: the decision is made once per *trace* (at the root span) —
//     1-in-N roots by a deterministic counter — and children inherit it, so
//     a sampled trace is always complete and an unsampled one is free except
//     for the parent-stack bookkeeping.
//   * Deterministic IDs: trace and span ids come from a seeded splitmix64
//     sequence over an atomic counter. Single-threaded sections therefore
//     produce byte-identical id streams for a given seed, which is what lets
//     tests golden the exporters. The clock is injectable for the same
//     reason.
//   * Rings are bounded. A full ring drops the *newest* span and counts it
//     (TracerStats::spans_dropped); the collector can also see per-session
//     totals of started/sampled traces, so overflow is always accounted.
//
// The flight recorder (obs/flight.hpp) taps completed spans at end_span time
// when armed, independent of any collector, so a post-mortem dump always has
// the most recent spans even if nobody was draining.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace pwx::obs {

/// One span attribute (stringly typed; numeric helpers format on write).
struct SpanAttr {
  std::string key;
  std::string value;
};

/// One completed span as drained from a thread ring.
struct SpanRecord {
  std::uint64_t trace_id = 0;   ///< shared by every span of one causal trace
  std::uint64_t span_id = 0;    ///< unique per span
  std::uint64_t parent_id = 0;  ///< 0 = root span of its trace
  std::string name;             ///< the PWX_SPAN site name
  double start_s = 0.0;         ///< tracer-clock start timestamp
  double end_s = 0.0;           ///< tracer-clock end timestamp
  std::uint32_t thread = 0;     ///< dense per-session thread index
  std::vector<SpanAttr> attrs;

  double duration_s() const { return end_s - start_s; }
};

/// Tracer session parameters.
struct TracerConfig {
  /// Per-thread ring capacity in spans (rounded up to a power of two).
  std::size_t ring_capacity = 2048;
  /// Record 1-in-N root spans (and their whole subtree). 1 = everything.
  std::uint64_t sample_every = 1;
  /// Seed of the deterministic trace/span id sequence.
  std::uint64_t id_seed = 0;
  /// Span timestamp clock; defaults to obs::monotonic_s. Injected by tests
  /// so span trees are golden-able.
  std::function<double()> clock;
};

/// Session counters (drained spans are counted by the rings themselves).
struct TracerStats {
  std::uint64_t traces_started = 0;  ///< root spans seen while active
  std::uint64_t traces_sampled = 0;  ///< root spans that passed sampling
  std::uint64_t spans_recorded = 0;  ///< spans pushed into rings
  std::uint64_t spans_dropped = 0;   ///< spans lost to full rings
};

namespace detail {
extern std::atomic<bool> g_tracing;
}  // namespace detail

/// True while a Tracer session is active — the one-branch gate every span
/// site checks before doing any structured-tracing work.
inline bool tracing_active() {
  return detail::g_tracing.load(std::memory_order_relaxed);
}

/// Process-wide tracing collector. start()/stop() bracket a session; spans
/// recorded by any thread between them are drained with drain(). Thread-safe:
/// producers are lock-free, drain/stats take the lane-registry mutex.
class Tracer {
public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Begin a session (idempotent: an active session is stopped first, its
  /// undrained spans discarded). Resets ids, sampling, and stats.
  void start(TracerConfig config = {});

  /// End the session: tracing_active() turns false, rings stay drainable
  /// until the next start().
  void stop();

  bool active() const { return tracing_active(); }

  /// Move all completed spans out of every thread ring, in per-thread FIFO
  /// order (threads in registration order). Callable during or after a
  /// session.
  std::vector<SpanRecord> drain();

  TracerStats stats() const;

  /// The session clock (monotonic_s when none was injected).
  double now() const;

  const TracerConfig& config() const { return config_; }

private:
  friend struct TracerAccess;

  TracerConfig config_;
  std::uint64_t session_ = 0;
};

/// The process-wide tracer (sibling of obs::registry()).
Tracer& tracer();

/// TraceId of the current thread's innermost *sampled* span, 0 when none.
/// This is what histogram exemplars attach (obs::Histogram::observe_exemplar)
/// so a slow latency bucket links back to a concrete trace.
std::uint64_t current_trace_id();

/// SpanId of the current thread's innermost sampled span, 0 when none.
std::uint64_t current_span_id();

/// Attach an attribute to the current thread's innermost sampled span.
/// No-ops (one branch) when tracing is off or the trace is unsampled.
void span_attr(std::string_view key, std::string_view value);
void span_attr(std::string_view key, double value);
void span_attr(std::string_view key, std::uint64_t value);

/// Fixed-width lower-case hex rendering of a trace/span id ("00c0ffee...").
std::string format_span_id(std::uint64_t id);

namespace trace_detail {
/// Called by obs::Span when tracing_active(). Pushes a parent-stack frame
/// (allocating ids and the sampling decision at the root) and returns true —
/// the caller must balance with end_span(). Returns false when tracing shut
/// down between the caller's check and the call.
bool begin_span(std::string_view name);
/// Pop the frame begin_span pushed; emits the SpanRecord when sampled.
void end_span();
/// Registered by the flight recorder (obs/flight.hpp) while armed: called
/// with every completed sampled span. nullptr disarms. While a tap is set,
/// tracing_active() stays true even without a Tracer session, so the flight
/// ring keeps filling with no collector attached.
void set_flight_tap(void (*tap)(const SpanRecord&));
}  // namespace trace_detail

}  // namespace pwx::obs
