// SIMD-batched Equation-1 evaluation: SoA sample batches and the
// lane-per-sample predict kernels.
//
// The scalar serving path (ModelLayout::predict) evaluates one DenseSample
// at a time. A SampleBatch turns N samples into columns — one lane per
// sample, counts stored column-major per slot — so a vector kernel can
// evaluate kBatchLaneWidth samples per instruction by vectorizing *across*
// samples. Because every lane replays the scalar path's operation order
// exactly (rate = counts/elapsed, per-cycle normalization, x = rate·V²f,
// coefficient accumulation in column order, no FMA contraction in the
// accumulate), each lane's result is bit-identical to layout.predict() on
// that sample — which is what lets the batched path slot under every
// digest-pinned consumer (online and fleet estimation) without moving a bit.
//
// Dispatch: predict_batch_guarded and predict_batch_clamped pick the
// widest kernel the CPU supports at runtime (cpuid via
// __builtin_cpu_supports), the scalar kernel is compiled unconditionally
// for every target, PWX_FORCE_SCALAR=1 in the environment pins the scalar
// kernel (read once), and force_batch_kernel() lets one test process
// compare both arms. See DESIGN.md "Batched SIMD estimation".
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "core/dense.hpp"

namespace pwx::core {

/// Lane width of the widest batched kernel (AVX2: 4 doubles). Batches are
/// always padded to a multiple of this with benign lanes, so kernels never
/// need a scalar remainder loop.
inline constexpr std::size_t kBatchLaneWidth = 4;

/// Structure-of-arrays batch of dense samples: elapsed/frequency/voltage
/// lanes plus one contiguous column of counts per layout slot. Append-only
/// between clear() calls; every column is kept padded to kBatchLaneWidth
/// with benign values (meta = 1.0, counts = 0.0), so vector kernels always
/// process whole blocks. Reusable: clear()/reset() keep the allocated
/// capacity, which is what makes per-shard scratch batches allocation-free
/// in steady state.
class SampleBatch {
public:
  SampleBatch() = default;

  /// Bind the batch to a layout's slot count and drop all lanes. Capacity
  /// (rounded up to the lane width) is reserved up front when given.
  void reset(const ModelLayout& layout, std::size_t capacity_hint = 0);

  /// Drop all lanes; the slot binding and lane capacity are kept.
  void clear();

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t slots() const { return columns_.size(); }
  /// size() rounded up to the lane width — the lane count kernels process.
  std::size_t padded_size() const { return elapsed_.size(); }

  /// Append one dense sample — the one way into a batch; map-keyed samples
  /// are converted with ModelLayout::to_dense_guarded first. Guarded: a
  /// sample whose count vector does not match the batch's slot count
  /// becomes an all-NaN lane, which the validity scan rejects exactly like
  /// scalar try_predict rejects the wrong-sized sample. Returns the lane
  /// index.
  std::size_t append(const DenseSample& sample);

  // Column base pointers for the kernels (padded_size() lanes each).
  const double* elapsed_lanes() const { return elapsed_.data(); }
  const double* frequency_lanes() const { return frequency_.data(); }
  const double* voltage_lanes() const { return voltage_.data(); }
  const double* count_lanes(std::size_t slot) const {
    return columns_[slot].data();
  }
  /// True when every live lane's elapsed is a normal power of two, so
  /// inv_elapsed_lanes() holds its exact reciprocal and the kernels may
  /// compute counts·(1/elapsed) instead of counts/elapsed: both are single
  /// correctly-rounded IEEE operations on the same exact value, so the
  /// result bits are identical — division strength-reduced, not
  /// approximated. Holds for power-of-two sampling intervals
  /// (0.25 s, 0.5 s, 1 s, ...).
  bool elapsed_reciprocal_exact() const { return size_ > 0 && elapsed_pow2_; }
  const double* inv_elapsed_lanes() const { return inv_elapsed_.data(); }
  /// Per-lane *input* validity, maintained at append time: 1 when the
  /// lane's elapsed/frequency/voltage are finite and positive and every
  /// count is finite and non-negative — the input half of try_predict's
  /// predicate. Kernels AND this with isfinite(prediction) to produce the
  /// full guarded verdict, so the hot loop carries no range compares.
  /// Padding lanes are valid (benign 1.0/0.0 fill).
  const std::uint8_t* valid_lanes() const { return lane_valid_.data(); }

private:
  /// Make room for one more lane (pad-extending every column) and return
  /// its index with meta lanes set; counts stay at the benign 0.0 fill.
  std::size_t grow_lane(double elapsed_s, double frequency_ghz, double voltage);

  /// AND the counts just written to `lane` into lane_valid_[lane].
  void finish_lane_counts(std::size_t lane);

  std::size_t size_ = 0;
  bool elapsed_pow2_ = true;  ///< all live elapsed lanes have exact reciprocals
  std::vector<double> elapsed_;
  std::vector<double> inv_elapsed_;  ///< exact 1/elapsed (1.0 when inexact)
  std::vector<double> frequency_;
  std::vector<double> voltage_;
  std::vector<std::uint8_t> lane_valid_;      ///< input-validity bytes
  std::vector<std::vector<double>> columns_;  ///< counts, one column per slot
};

/// The kernels batch predictions can dispatch to.
enum class BatchKernel : std::uint8_t {
  Scalar = 0,  ///< portable lane loop, compiled for every target
  Avx2 = 1,    ///< 4 lanes per instruction (x86 AVX2; FMA never used in the
               ///< accumulate, so lanes match the scalar rounding exactly)
};

std::string_view batch_kernel_name(BatchKernel kernel);

/// Whether `kernel` was compiled in and the CPU can run it.
bool batch_kernel_available(BatchKernel kernel);

/// The kernel batch predictions currently dispatch to: a forced kernel if one
/// is set, else the widest available unless PWX_FORCE_SCALAR pins scalar.
BatchKernel active_batch_kernel();

/// Test hook: pin dispatch to one kernel (overrides PWX_FORCE_SCALAR);
/// nullopt restores automatic dispatch. Throws when the kernel is
/// unavailable on this machine/build.
void force_batch_kernel(std::optional<BatchKernel> kernel);

/// Equation-1 evaluation over all lanes of `batch` with the guarded
/// validity verdict: out[k] is bit-identical to layout.predict() on the
/// k-th appended sample, whichever kernel dispatch selects, and valid[k] !=
/// 0 exactly when layout.try_predict() would accept the lane (finite
/// positive elapsed/frequency/voltage, finite non-negative counts, finite
/// output). When invalid, out[k] is still written but carries no meaning.
/// Both spans need batch.size() entries; the batch must be bound to a
/// layout with the same slot count.
void predict_batch_guarded(const ModelLayout& layout, const SampleBatch& batch,
                           std::span<double> out, std::span<std::uint8_t> valid);

/// predict_batch_guarded with the guard clamp fused into the kernel store:
/// valid lanes hold clamp(prediction, min_watts, max_watts); invalid lanes
/// are still written but carry no meaning. Because clamping is idempotent,
/// folding these pre-clamped values through the guarded state machine gives
/// the same outputs as folding the raw predictions — which lets the batch
/// fold skip a second full pass over `out` when no smoothing or telemetry
/// needs the unclamped value.
void predict_batch_clamped(const ModelLayout& layout, const SampleBatch& batch,
                           double min_watts, double max_watts,
                           std::span<double> out, std::span<std::uint8_t> valid);

namespace detail {

/// Flattened kernel arguments: one pointer set shared by every kernel TU so
/// the AVX2 translation unit needs no class definitions, only this POD.
struct BatchArgs {
  const double* elapsed = nullptr;
  /// Exact per-lane reciprocals of `elapsed`, or null. When set, kernels
  /// compute rate = counts · inv_elapsed — bit-identical to the division
  /// (elapsed is a power of two in every lane) at a fraction of the cost.
  const double* inv_elapsed = nullptr;
  const double* frequency = nullptr;
  const double* voltage = nullptr;
  /// Per-lane input validity from SampleBatch::valid_lanes(); kernels AND
  /// it with isfinite(prediction) into `valid`.
  const std::uint8_t* lane_valid = nullptr;
  const double* const* columns = nullptr;  ///< slot-count column base pointers
  const double* coef = nullptr;
  std::size_t slots = 0;
  std::size_t lanes = 0;  ///< live lanes (size(), not padded)
  double intercept = 0.0;
  double dyn_coef = 0.0;
  double static_coef = 0.0;
  bool per_cycle = false;
  bool clamp = false;  ///< clamp stored outputs to [clamp_min, clamp_max]
  double clamp_min = 0.0;
  double clamp_max = 0.0;
  double* out = nullptr;          ///< lanes entries
  std::uint8_t* valid = nullptr;  ///< lanes entries
};

void predict_lanes_scalar(const BatchArgs& args);
void predict_lanes_avx2(const BatchArgs& args);  ///< only when compiled in

}  // namespace detail

}  // namespace pwx::core
