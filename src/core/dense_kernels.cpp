// SampleBatch, the portable scalar kernel, and runtime kernel dispatch.
//
// This translation unit is compiled for the project's default target (no
// -mavx2), so the scalar kernel runs on any x86-64 and — crucially — can
// never be FMA-contracted into different rounding than ModelLayout::predict
// (the build also pins -ffp-contract=off on both kernel TUs). The AVX2
// kernel lives in dense_kernels_avx2.cpp, compiled per-file with
// -mavx2 -mfma and selected here at runtime.
#include "core/dense_kernels.hpp"

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "common/error.hpp"

namespace pwx::core {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

std::size_t round_up_lanes(std::size_t n) {
  return (n + kBatchLaneWidth - 1) / kBatchLaneWidth * kBatchLaneWidth;
}

/// If `e` is a normal power of two whose reciprocal is also normal, write
/// the exact reciprocal to `inv` and return true. For such values
/// c/e == c·(1/e) bit-for-bit: the reciprocal is exact, and division and
/// multiplication are both single correctly-rounded operations on the same
/// exact mathematical value (including overflow and subnormal results).
bool exact_reciprocal(double e, double& inv) {
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(e);
  const std::uint64_t mantissa = bits & 0xFFFFFFFFFFFFFull;
  const std::uint64_t exponent = (bits >> 52) & 0x7FF;
  if (mantissa != 0 || exponent < 1 || exponent > 2045) {
    return false;  // not a power of two, subnormal, zero, inf, or NaN
  }
  inv = std::bit_cast<double>(((2046 - exponent) << 52) |
                              (bits & 0x8000000000000000ull));
  return true;
}

}  // namespace

void SampleBatch::reset(const ModelLayout& layout, std::size_t capacity_hint) {
  if (columns_.size() != layout.slots()) {
    columns_.resize(layout.slots());
  }
  clear();
  const std::size_t lanes = round_up_lanes(capacity_hint);
  if (lanes > 0) {
    elapsed_.reserve(lanes);
    inv_elapsed_.reserve(lanes);
    frequency_.reserve(lanes);
    voltage_.reserve(lanes);
    lane_valid_.reserve(lanes);
    for (std::vector<double>& column : columns_) {
      column.reserve(lanes);
    }
  }
}

void SampleBatch::clear() {
  size_ = 0;
  elapsed_pow2_ = true;
  elapsed_.clear();
  inv_elapsed_.clear();
  frequency_.clear();
  voltage_.clear();
  lane_valid_.clear();
  for (std::vector<double>& column : columns_) {
    column.clear();
  }
}

std::size_t SampleBatch::grow_lane(double elapsed_s, double frequency_ghz,
                                   double voltage) {
  if (size_ == elapsed_.size()) {
    // Extend by one whole block, pre-filled with benign padding (meta 1.0,
    // counts 0.0): kernels can always evaluate full blocks without FP traps
    // or NaN spill from the tail.
    const std::size_t lanes = size_ + kBatchLaneWidth;
    elapsed_.resize(lanes, 1.0);
    inv_elapsed_.resize(lanes, 1.0);
    frequency_.resize(lanes, 1.0);
    voltage_.resize(lanes, 1.0);
    lane_valid_.resize(lanes, 1);
    for (std::vector<double>& column : columns_) {
      column.resize(lanes, 0.0);
    }
  }
  const std::size_t lane = size_++;
  elapsed_[lane] = elapsed_s;
  frequency_[lane] = frequency_ghz;
  voltage_[lane] = voltage;
  double inv = 1.0;
  if (!exact_reciprocal(elapsed_s, inv)) {
    elapsed_pow2_ = false;
  }
  inv_elapsed_[lane] = inv;
  // The meta half of try_predict's input predicate; finish_lane_counts ANDs
  // in the count half once the columns are written.
  const bool meta_ok = std::isfinite(elapsed_s) && elapsed_s > 0.0 &&
                       std::isfinite(frequency_ghz) && frequency_ghz > 0.0 &&
                       std::isfinite(voltage) && voltage > 0.0;
  lane_valid_[lane] = meta_ok ? 1 : 0;
  return lane;
}

void SampleBatch::finish_lane_counts(std::size_t lane) {
  bool ok = lane_valid_[lane] != 0;
  for (const std::vector<double>& column : columns_) {
    const double c = column[lane];
    ok = ok && std::isfinite(c) && c >= 0.0;
  }
  lane_valid_[lane] = ok ? 1 : 0;
}

std::size_t SampleBatch::append(const DenseSample& sample) {
  const std::size_t lane =
      grow_lane(sample.elapsed_s, sample.frequency_ghz, sample.voltage);
  if (sample.counts.size() != columns_.size()) {
    // Wrong slot count: poison the lane so the validity scan rejects it,
    // exactly as scalar try_predict rejects the wrong-sized sample.
    for (std::vector<double>& column : columns_) {
      column[lane] = kNaN;
    }
    lane_valid_[lane] = 0;
    return lane;
  }
  for (std::size_t s = 0; s < columns_.size(); ++s) {
    columns_[s][lane] = sample.counts[s];
  }
  finish_lane_counts(lane);
  return lane;
}

namespace detail {

void predict_lanes_scalar(const BatchArgs& args) {
  for (std::size_t k = 0; k < args.lanes; ++k) {
    const double e = args.elapsed[k];
    const double f = args.frequency[k];
    const double v = args.voltage[k];
    // Operation-for-operation replay of ModelLayout::predict — every lane
    // is bit-identical to the scalar path on the same sample.
    const double v2f = v * v * f;
    double acc = args.intercept;
    for (std::size_t s = 0; s < args.slots; ++s) {
      // counts·(1/elapsed) is bit-identical to counts/elapsed when the
      // batch proved every elapsed a power of two (see BatchArgs).
      const double rate = args.inv_elapsed != nullptr
                              ? args.columns[s][k] * args.inv_elapsed[k]
                              : args.columns[s][k] / e;
      const double per = args.per_cycle ? rate / (f * 1e9) : rate / 1e9;
      acc += args.coef[s] * (per * v2f);
    }
    acc += args.dyn_coef * v2f;
    acc += args.static_coef * v;
    // try_predict's verdict: input validity was captured at append time
    // (lane_valid), so only the output check remains here.
    args.valid[k] = (args.lane_valid[k] != 0 && std::isfinite(acc)) ? 1 : 0;
    if (args.clamp) {
      // Exactly std::clamp's comparison order (the vector kernel mirrors
      // it with compare+blend, which preserves -0.0 and NaN bit-for-bit
      // where max/min instructions would not).
      acc = acc < args.clamp_min ? args.clamp_min
            : args.clamp_max < acc ? args.clamp_max
                                   : acc;
    }
    args.out[k] = acc;
  }
}

}  // namespace detail

namespace {

/// -1 = automatic dispatch; otherwise the forced BatchKernel value.
std::atomic<int> g_forced_kernel{-1};

bool avx2_compiled_in() {
#ifdef PWX_HAVE_AVX2_KERNEL
  return true;
#else
  return false;
#endif
}

bool cpu_has_avx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

BatchKernel detect_kernel() {
  const char* force = std::getenv("PWX_FORCE_SCALAR");
  if (force != nullptr && force[0] != '\0' &&
      !(force[0] == '0' && force[1] == '\0')) {
    return BatchKernel::Scalar;
  }
  if (avx2_compiled_in() && cpu_has_avx2()) {
    return BatchKernel::Avx2;
  }
  return BatchKernel::Scalar;
}

void run_kernel(const detail::BatchArgs& args) {
  switch (active_batch_kernel()) {
#ifdef PWX_HAVE_AVX2_KERNEL
    case BatchKernel::Avx2:
      detail::predict_lanes_avx2(args);
      return;
#endif
    default:
      detail::predict_lanes_scalar(args);
      return;
  }
}

struct ClampRange {
  double min = 0.0;
  double max = 0.0;
};

void predict_batch_impl(const ModelLayout& layout, const SampleBatch& batch,
                        std::span<double> out, std::span<std::uint8_t> valid,
                        const ClampRange* clamp = nullptr) {
  PWX_REQUIRE(batch.slots() == layout.slots(), "batch is bound to ",
              batch.slots(), " slots, layout has ", layout.slots());
  PWX_REQUIRE(out.size() >= batch.size(), "output span has ", out.size(),
              " entries for ", batch.size(), " lanes");
  PWX_REQUIRE(valid.size() >= batch.size(), "validity span has ", valid.size(),
              " entries for ", batch.size(), " lanes");
  if (batch.empty()) {
    return;
  }
  thread_local std::vector<const double*> columns;
  columns.resize(layout.slots());
  for (std::size_t s = 0; s < layout.slots(); ++s) {
    columns[s] = batch.count_lanes(s);
  }
  detail::BatchArgs args;
  args.elapsed = batch.elapsed_lanes();
  args.inv_elapsed =
      batch.elapsed_reciprocal_exact() ? batch.inv_elapsed_lanes() : nullptr;
  args.frequency = batch.frequency_lanes();
  args.voltage = batch.voltage_lanes();
  args.lane_valid = batch.valid_lanes();
  args.columns = columns.data();
  args.coef = layout.coefficients().data();
  args.slots = layout.slots();
  args.lanes = batch.size();
  args.intercept = layout.intercept();
  args.dyn_coef = layout.dyn_coef();
  args.static_coef = layout.static_coef();
  args.per_cycle = layout.per_cycle();
  if (clamp != nullptr) {
    args.clamp = true;
    args.clamp_min = clamp->min;
    args.clamp_max = clamp->max;
  }
  args.out = out.data();
  args.valid = valid.data();
  run_kernel(args);
}

}  // namespace

std::string_view batch_kernel_name(BatchKernel kernel) {
  switch (kernel) {
    case BatchKernel::Avx2:
      return "avx2";
    default:
      return "scalar";
  }
}

bool batch_kernel_available(BatchKernel kernel) {
  switch (kernel) {
    case BatchKernel::Scalar:
      return true;
    case BatchKernel::Avx2:
      return avx2_compiled_in() && cpu_has_avx2();
  }
  return false;
}

BatchKernel active_batch_kernel() {
  const int forced = g_forced_kernel.load(std::memory_order_relaxed);
  if (forced >= 0) {
    return static_cast<BatchKernel>(forced);
  }
  // Environment + cpuid are stable for the process lifetime: detect once.
  static const BatchKernel detected = detect_kernel();
  return detected;
}

void force_batch_kernel(std::optional<BatchKernel> kernel) {
  if (!kernel.has_value()) {
    g_forced_kernel.store(-1, std::memory_order_relaxed);
    return;
  }
  PWX_REQUIRE(batch_kernel_available(*kernel), "batch kernel '",
              std::string(batch_kernel_name(*kernel)),
              "' is unavailable on this machine");
  g_forced_kernel.store(static_cast<int>(*kernel), std::memory_order_relaxed);
}

void predict_batch_guarded(const ModelLayout& layout, const SampleBatch& batch,
                           std::span<double> out,
                           std::span<std::uint8_t> valid) {
  predict_batch_impl(layout, batch, out, valid);
}

void predict_batch_clamped(const ModelLayout& layout, const SampleBatch& batch,
                           double min_watts, double max_watts,
                           std::span<double> out,
                           std::span<std::uint8_t> valid) {
  const ClampRange clamp{min_watts, max_watts};
  predict_batch_impl(layout, batch, out, valid, &clamp);
}

}  // namespace pwx::core
