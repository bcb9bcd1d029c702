#include "host/faulty_source.hpp"

#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "core/robust_source.hpp"

namespace pwx::host {

using core::kCounterWrap;
using fault::FaultKind;

namespace {
/// Site key of every fault decision this source draws.
constexpr std::string_view kSite = "counter_source";
}  // namespace

FaultyCounterSource::FaultyCounterSource(core::CounterSource& inner,
                                         fault::FaultPlan plan)
    : inner_(inner), injector_(std::move(plan)) {}

std::vector<pmc::Preset> FaultyCounterSource::available_events() const {
  return inner_.available_events();
}

void FaultyCounterSource::note(FaultKind kind) {
  injected_[std::string(fault_kind_name(kind))] += 1;
}

void FaultyCounterSource::start(const std::vector<pmc::Preset>& events) {
  const std::uint64_t attempt = start_attempts_++;
  if (injector_.fires(FaultKind::StartFailure, kSite, attempt)) {
    note(FaultKind::StartFailure);
    throw Error("injected transient start failure (attempt " +
                    std::to_string(attempt) + ")",
                ErrorCode::Unavailable);
  }
  inner_.start(events);
  read_index_ = 0;
  previous_.reset();
  pending_duplicate_ = false;
}

void FaultyCounterSource::corrupt(core::CounterSample& sample, std::uint64_t index) {
  const auto pick = [&](FaultKind kind) -> double* {
    if (sample.counts.empty()) {
      return nullptr;
    }
    const std::size_t target = static_cast<std::size_t>(
        injector_.draw(kind, kSite, index) * static_cast<double>(sample.counts.size()));
    auto it = sample.counts.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(
                         std::min(target, sample.counts.size() - 1)));
    return &it->second;
  };

  if (previous_.has_value() && !sample.counts.empty() &&
      injector_.fires(FaultKind::StuckCounter, kSite, index)) {
    // One counter repeats the previous interval's reading.
    const std::size_t target = static_cast<std::size_t>(
        injector_.draw(FaultKind::StuckCounter, kSite, index) *
        static_cast<double>(sample.counts.size()));
    auto it = sample.counts.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(
                         std::min(target, sample.counts.size() - 1)));
    const auto prev = previous_->counts.find(it->first);
    if (prev != previous_->counts.end()) {
      it->second = prev->second;
      note(FaultKind::StuckCounter);
    }
  }
  if (injector_.fires(FaultKind::OverflowWrap, kSite, index)) {
    if (double* value = pick(FaultKind::OverflowWrap)) {
      *value -= kCounterWrap;
      note(FaultKind::OverflowWrap);
    }
  }
  if (injector_.fires(FaultKind::NanDelta, kSite, index)) {
    if (double* value = pick(FaultKind::NanDelta)) {
      *value = std::numeric_limits<double>::quiet_NaN();
      note(FaultKind::NanDelta);
    }
  }
  if (injector_.fires(FaultKind::NegativeDelta, kSite, index)) {
    if (double* value = pick(FaultKind::NegativeDelta)) {
      *value = -std::abs(*value) * 0.01 - 1.0;
      note(FaultKind::NegativeDelta);
    }
  }
  // Sensor-channel faults: the voltage readout stands in for the power rail.
  if (injector_.fires(FaultKind::PowerDropout, kSite, index)) {
    sample.voltage = 0.0;
    note(FaultKind::PowerDropout);
  }
  if (injector_.fires(FaultKind::PowerSpike, kSite, index)) {
    sample.voltage *= injector_.magnitude(FaultKind::PowerSpike);
    note(FaultKind::PowerSpike);
  }
}

std::optional<core::CounterSample> FaultyCounterSource::read() {
  if (pending_duplicate_ && previous_.has_value()) {
    pending_duplicate_ = false;
    return previous_;
  }
  for (;;) {
    const std::uint64_t index = read_index_++;
    if (injector_.fires(FaultKind::ReadFailure, kSite, index)) {
      note(FaultKind::ReadFailure);
      throw Error("injected transient read failure", ErrorCode::Unavailable);
    }
    std::optional<core::CounterSample> sample = inner_.read();
    if (!sample.has_value()) {
      return std::nullopt;
    }
    if (injector_.fires(FaultKind::DropSample, kSite, index)) {
      note(FaultKind::DropSample);
      continue;  // the sample is lost; deliver the next one
    }
    corrupt(*sample, index);
    if (injector_.fires(FaultKind::DuplicateSample, kSite, index)) {
      note(FaultKind::DuplicateSample);
      pending_duplicate_ = true;
    }
    previous_ = sample;
    return sample;
  }
}

}  // namespace pwx::host
