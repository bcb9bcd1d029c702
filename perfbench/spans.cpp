#include "spans.hpp"

#include <omp.h>

#include <algorithm>
#include <chrono>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

// A span id packs its thread and its index in that thread's buffer.
constexpr int kIndexBits = 40;

std::int64_t pack(int thread, std::size_t index) {
  return (static_cast<std::int64_t>(thread) << kIndexBits) |
         static_cast<std::int64_t>(index);
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SpanRecorder::enable(int threads) {
  buffers_.assign(static_cast<std::size_t>(std::max(threads, 1)), Buffer{});
}

SpanRecord& SpanRecorder::at(std::int64_t id) {
  const auto thread = static_cast<std::size_t>(id >> kIndexBits);
  const auto index = static_cast<std::size_t>(id & ((std::int64_t{1} << kIndexBits) - 1));
  return buffers_.at(thread).spans.at(index);
}

std::int64_t SpanRecorder::open(std::string_view name, std::int64_t parent) {
  if (!enabled()) {
    return -1;
  }
  const int thread = omp_get_thread_num();
  Buffer& buffer = buffers_.at(static_cast<std::size_t>(thread));
  if (parent == kCurrent) {
    parent = buffer.open.empty() ? -1 : buffer.open.back();
  }
  const std::int64_t id = pack(thread, buffer.spans.size());
  buffer.spans.push_back(SpanRecord{name, now_ns(), 0, id, parent, thread});
  buffer.open.push_back(id);
  return id;
}

void SpanRecorder::close(std::int64_t id) {
  if (!enabled() || id < 0) {
    return;
  }
  const std::int64_t end = now_ns();
  // Span objects are scoped, so the span closing is the innermost open one.
  buffers_.at(static_cast<std::size_t>(id >> kIndexBits)).open.pop_back();
  at(id).end_ns = end;
}

std::int64_t SpanRecorder::add(std::string_view name, std::int64_t start_ns,
                               std::int64_t end_ns, std::int64_t parent, int thread) {
  if (!enabled()) {
    return -1;
  }
  Buffer& buffer = buffers_.at(static_cast<std::size_t>(thread));
  const std::int64_t id = pack(thread, buffer.spans.size());
  buffer.spans.push_back(SpanRecord{name, start_ns, end_ns, id, parent, thread});
  return id;
}

void SpanRecorder::set_end(std::int64_t id, std::int64_t end_ns) {
  if (enabled() && id >= 0) {
    at(id).end_ns = end_ns;
  }
}

std::vector<SpanRecord> SpanRecorder::records() const {
  std::vector<SpanRecord> all;
  for (const Buffer& buffer : buffers_) {
    all.insert(all.end(), buffer.spans.begin(), buffer.spans.end());
  }
  return all;
}

void SpanRecorder::write_json(std::ostream& out) const {
  const std::vector<SpanRecord> all = records();
  const std::int64_t origin = all.empty() ? 0 : std::min_element(
      all.begin(), all.end(), [](const SpanRecord& a, const SpanRecord& b) {
        return a.start_ns < b.start_ns;
      })->start_ns;
  out << "[";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    out << (i == 0 ? "\n" : ",\n") << R"({"name":")" << s.name
        << R"(","ph":"X","pid":1,"tid":)" << s.thread
        << R"(,"ts":)" << static_cast<double>(s.start_ns - origin) / 1e3
        << R"(,"dur":)" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
        << R"(,"args":{"id":)" << s.id << R"(,"parent":)" << s.parent << "}}";
  }
  out << "\n]\n";
}

std::vector<std::int64_t> self_times_ns(const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::int64_t, std::size_t> index_of;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    index_of.emplace(spans[i].id, i);
  }
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size());
  for (const SpanRecord& s : spans) {
    const auto parent = index_of.find(s.parent);
    if (parent != index_of.end()) {
      children[parent->second].emplace_back(s.start_ns, s.end_ns);
    }
  }

  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t begin = spans[i].start_ns;
    const std::int64_t end = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Length of the union of the children's intervals inside [begin, end).
    std::int64_t covered = 0;
    std::int64_t reach = begin;
    for (const auto& [kid_begin, kid_end] : kids) {
      const std::int64_t from = std::max(kid_begin, reach);
      const std::int64_t to = std::min(kid_end, end);
      if (to > from) {
        covered += to - from;
        reach = to;
      }
    }
    self[i] = (end - begin) - covered;
  }
  return self;
}

std::map<std::string, double> self_ms_by_name(const std::vector<SpanRecord>& spans) {
  const std::vector<std::int64_t> self = self_times_ns(spans);
  std::map<std::string, double> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    by_name[std::string(spans[i].name)] += static_cast<double>(self[i]) / 1e6;
  }
  return by_name;
}

}  // namespace perfbench
