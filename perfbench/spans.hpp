// Span recording for the traced run, kept in the benchmark's own code: every
// span wraps a call into one of the library's public functions, so layers are
// timed from outside the library.
//
// Spans stay in memory (one buffer per OpenMP thread, no locks) and are
// written out when the benchmark ends. A layer's self time is a span's
// duration minus the part of it that its children cover; summed over a job's
// spans, self times give the job's thread time: its wall time plus the time
// extra threads spent inside its parallel sections.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Monotonic clock in nanoseconds.
std::int64_t now_ns();

struct SpanRecord {
  std::string_view name;  ///< a string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t id = -1;
  std::int64_t parent = -1;  ///< -1 for a root span
  int thread = 0;
};

class SpanRecorder {
public:
  /// Parent value meaning "the innermost span open on the calling thread".
  static constexpr std::int64_t kCurrent = -2;

  /// A disabled recorder records nothing; enable() sizes one buffer per
  /// thread that may record.
  void enable(int threads);
  bool enabled() const { return !buffers_.empty(); }

  /// Open a span on the calling OpenMP thread; returns its id (-1 when
  /// disabled).
  std::int64_t open(std::string_view name, std::int64_t parent = kCurrent);
  void close(std::int64_t id);

  /// Record a finished span on `thread`'s buffer. Only call this while no
  /// parallel region is recording.
  std::int64_t add(std::string_view name, std::int64_t start_ns,
                   std::int64_t end_ns, std::int64_t parent, int thread);
  /// Set the end of a span opened with open() or add().
  void set_end(std::int64_t id, std::int64_t end_ns);

  /// Every recorded span, thread by thread.
  std::vector<SpanRecord> records() const;

  /// Write the spans as a Chrome/Perfetto trace-event JSON array.
  void write_json(std::ostream& out) const;

private:
  struct Buffer {
    std::vector<SpanRecord> spans;
    std::vector<std::int64_t> open;  ///< stack of open span ids
  };
  SpanRecord& at(std::int64_t id);
  std::vector<Buffer> buffers_;
};

/// RAII span: opens on construction, closes on destruction.
class Span {
public:
  Span(SpanRecorder* recorder, std::string_view name,
       std::int64_t parent = SpanRecorder::kCurrent)
      : recorder_(recorder != nullptr && recorder->enabled() ? recorder : nullptr),
        id_(recorder_ != nullptr ? recorder_->open(name, parent) : -1) {}
  ~Span() {
    if (recorder_ != nullptr) {
      recorder_->close(id_);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::int64_t id() const { return id_; }

private:
  SpanRecorder* recorder_;
  std::int64_t id_;
};

/// Self time of every span, in records() order: its duration minus the
/// length of the union of its children's intervals (clipped to the span).
std::vector<std::int64_t> self_times_ns(const std::vector<SpanRecord>& spans);

/// Self time summed per span name, in milliseconds.
std::map<std::string, double> self_ms_by_name(const std::vector<SpanRecord>& spans);

}  // namespace perfbench
