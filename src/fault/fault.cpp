#include "fault/fault.hpp"

#include "common/error.hpp"
#include "common/rng.hpp"

namespace pwx::fault {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv1a(std::uint64_t hash, std::string_view bytes) {
  for (const char c : bytes) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= kFnvPrime;
  }
  return hash;
}

std::uint64_t fnv1a_u64(std::uint64_t hash, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xFF;
    hash *= kFnvPrime;
  }
  return hash;
}

/// Uniform [0,1) from a decision key. `salt` decouples fires() from draw().
double key_uniform(std::uint64_t seed, FaultKind kind, std::string_view site,
                   std::uint64_t index, std::uint64_t salt) {
  std::uint64_t h = fnv1a(kFnvOffset, site);
  h = fnv1a_u64(h, seed);
  h = fnv1a_u64(h, static_cast<std::uint64_t>(kind));
  h = fnv1a_u64(h, index);
  h = fnv1a_u64(h, salt);
  // One splitmix64 step for avalanche, then map the top 53 bits to [0,1).
  const std::uint64_t mixed = splitmix64(h);
  return static_cast<double>(mixed >> 11) * 0x1.0p-53;
}

}  // namespace

std::string_view fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::DropSample: return "drop_sample";
    case FaultKind::DuplicateSample: return "duplicate_sample";
    case FaultKind::StuckCounter: return "stuck_counter";
    case FaultKind::OverflowWrap: return "overflow_wrap";
    case FaultKind::NanDelta: return "nan_delta";
    case FaultKind::NegativeDelta: return "negative_delta";
    case FaultKind::StartFailure: return "start_failure";
    case FaultKind::ReadFailure: return "read_failure";
    case FaultKind::TruncateRun: return "truncate_run";
    case FaultKind::TruncateTrace: return "truncate_trace";
    case FaultKind::CorruptTraceByte: return "corrupt_trace_byte";
    case FaultKind::PowerDropout: return "power_dropout";
    case FaultKind::PowerSpike: return "power_spike";
    case FaultKind::StaleLayoutPublish: return "stale_layout_publish";
    case FaultKind::TruncatedCandidate: return "truncated_candidate";
    case FaultKind::ValidationTimeout: return "validation_timeout";
  }
  return "unknown";
}

FaultPlan FaultPlan::single(FaultKind kind, double probability, std::uint64_t seed,
                            double magnitude) {
  PWX_REQUIRE(probability >= 0.0 && probability <= 1.0,
              "fault probability must be in [0,1], got ", probability);
  FaultPlan plan;
  plan.seed = seed;
  plan.specs.push_back({kind, probability, magnitude});
  return plan;
}

FaultPlan FaultPlan::escalating(std::uint64_t seed, double intensity) {
  PWX_REQUIRE(intensity >= 0.0, "fault intensity must be non-negative");
  const auto p = [&](double base) { return std::min(1.0, base * intensity); };
  FaultPlan plan;
  plan.seed = seed;
  // Per-interval counter faults (many opportunities per run -> low base).
  plan.specs.push_back({FaultKind::DropSample, p(0.01), 1.0});
  plan.specs.push_back({FaultKind::DuplicateSample, p(0.01), 1.0});
  plan.specs.push_back({FaultKind::StuckCounter, p(0.01), 1.0});
  plan.specs.push_back({FaultKind::OverflowWrap, p(0.005), 1.0});
  plan.specs.push_back({FaultKind::NanDelta, p(0.005), 1.0});
  plan.specs.push_back({FaultKind::NegativeDelta, p(0.005), 1.0});
  // Per-run faults.
  plan.specs.push_back({FaultKind::TruncateRun, p(0.02), 0.5});
  plan.specs.push_back({FaultKind::TruncateTrace, p(0.01), 0.5});
  plan.specs.push_back({FaultKind::CorruptTraceByte, p(0.01), 1.0});
  // Sensor faults (per interval).
  plan.specs.push_back({FaultKind::PowerDropout, p(0.008), 1.0});
  plan.specs.push_back({FaultKind::PowerSpike, p(0.008), 8.0});
  // Source-lifecycle faults (per start/read attempt).
  plan.specs.push_back({FaultKind::StartFailure, p(0.2), 1.0});
  plan.specs.push_back({FaultKind::ReadFailure, p(0.05), 1.0});
  // Model-refresh faults (per refresh attempt).
  plan.specs.push_back({FaultKind::StaleLayoutPublish, p(0.05), 1.0});
  plan.specs.push_back({FaultKind::TruncatedCandidate, p(0.05), 1.0});
  plan.specs.push_back({FaultKind::ValidationTimeout, p(0.05), 1.0});
  return plan;
}

double FaultPlan::armed_probability(FaultKind kind) const {
  double best = 0.0;
  for (const FaultSpec& spec : specs) {
    if (spec.kind == kind && spec.probability > best) {
      best = spec.probability;
    }
  }
  return best;
}

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {
  for (const FaultSpec& spec : plan_.specs) {
    PWX_REQUIRE(spec.probability >= 0.0 && spec.probability <= 1.0,
                "fault probability must be in [0,1], got ", spec.probability, " for ",
                fault_kind_name(spec.kind));
  }
}

const FaultSpec* FaultInjector::find_spec(FaultKind kind) const {
  for (const FaultSpec& spec : plan_.specs) {
    if (spec.kind == kind) {
      return &spec;
    }
  }
  return nullptr;
}

bool FaultInjector::fires(FaultKind kind, std::string_view site,
                          std::uint64_t index) const {
  const FaultSpec* spec = find_spec(kind);
  if (spec == nullptr || spec->probability <= 0.0) {
    return false;
  }
  return key_uniform(plan_.seed, kind, site, index, /*salt=*/0) < spec->probability;
}

double FaultInjector::draw(FaultKind kind, std::string_view site,
                           std::uint64_t index) const {
  return key_uniform(plan_.seed, kind, site, index, /*salt=*/1);
}

double FaultInjector::magnitude(FaultKind kind) const {
  const FaultSpec* spec = find_spec(kind);
  return spec != nullptr ? spec->magnitude : 1.0;
}

}  // namespace pwx::fault
