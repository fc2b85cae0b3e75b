// NEON (AArch64) implementation of the kernel table. NEON is baseline on
// AArch64, so this file needs no special flags — it simply compiles to a
// stub elsewhere. The same bit-identity discipline as the AVX2 variant
// applies: comparisons are exact IEEE predicates (FCMGT/FCMLT, NaN
// compares false), counts are integers, and the KDE kernels vectorise
// only subtract/divide/multiply (per-lane identical to scalar) while
// erf/exp and the accumulation stay scalar and in sample order.

#include "util/kernels/kernels_impl.h"

#if defined(__aarch64__)

#include <arm_neon.h>

#include <array>
#include <cmath>
#include <cstdint>

namespace doppler::kernels::internal {

namespace {

constexpr double kInvSqrt2 = 0.7071067811865476;

constexpr std::array<std::uint32_t, 16> MakeExpand4() {
  std::array<std::uint32_t, 16> table{};
  for (unsigned mask = 0; mask < 16; ++mask) {
    std::uint32_t bytes = 0;
    for (unsigned b = 0; b < 4; ++b) {
      if ((mask >> b) & 1u) bytes |= std::uint32_t{1} << (8 * b);
    }
    table[mask] = bytes;
  }
  return table;
}
constexpr std::array<std::uint32_t, 16> kExpand4 = MakeExpand4();

template <bool Above>
uint64x2_t Compare(float64x2_t v, float64x2_t limit) {
  return Above ? vcgtq_f64(v, limit) : vcltq_f64(v, limit);
}

template <bool Above>
std::size_t CountCmp(const double* values, std::size_t n, double limit) {
  const float64x2_t bound = vdupq_n_f64(limit);
  // Comparison lanes are all-ones (== -1) on a hit; subtracting them
  // accumulates the hit count per lane without a branch.
  uint64x2_t lanes = vdupq_n_u64(0);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    lanes = vsubq_u64(lanes, Compare<Above>(vld1q_f64(values + i), bound));
  }
  std::size_t count = static_cast<std::size_t>(vgetq_lane_u64(lanes, 0) +
                                               vgetq_lane_u64(lanes, 1));
  for (; i < n; ++i) {
    count += Above ? values[i] > limit : values[i] < limit;
  }
  return count;
}

template <bool Above>
std::size_t MarkCmp(const double* values, std::size_t n, double limit,
                    unsigned char* marks) {
  const float64x2_t bound = vdupq_n_f64(limit);
  std::size_t newly = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    unsigned mask = 0;
    for (unsigned j = 0; j < 8; j += 2) {
      const uint64x2_t cmp =
          Compare<Above>(vld1q_f64(values + i + j), bound);
      mask |= static_cast<unsigned>(vgetq_lane_u64(cmp, 0) & 1u) << j;
      mask |= static_cast<unsigned>(vgetq_lane_u64(cmp, 1) & 1u) << (j + 1);
    }
    if (mask == 0) continue;
    std::uint64_t current;
    __builtin_memcpy(&current, marks + i, sizeof(current));
    const std::uint64_t wanted =
        static_cast<std::uint64_t>(kExpand4[mask & 15u]) |
        (static_cast<std::uint64_t>(kExpand4[mask >> 4]) << 32);
    const std::uint64_t fresh = wanted & ~current;
    if (fresh == 0) continue;
    current |= fresh;
    __builtin_memcpy(marks + i, &current, sizeof(current));
    newly += static_cast<std::size_t>(__builtin_popcountll(fresh));
  }
  for (; i < n; ++i) {
    const bool hit = Above ? values[i] > limit : values[i] < limit;
    if (hit && !marks[i]) {
      marks[i] = 1;
      ++newly;
    }
  }
  return newly;
}

double KdeCdfSum(const double* sample, std::size_t n, double x,
                 double bandwidth) {
  const float64x2_t query = vdupq_n_f64(x);
  const float64x2_t bw = vdupq_n_f64(bandwidth);
  double sum = 0.0;
  std::size_t i = 0;
  double z[2];
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(z, vdivq_f64(vsubq_f64(query, vld1q_f64(sample + i)), bw));
    sum += 0.5 * (1.0 + std::erf(z[0] * kInvSqrt2));
    sum += 0.5 * (1.0 + std::erf(z[1] * kInvSqrt2));
  }
  for (; i < n; ++i) {
    const double zi = (x - sample[i]) / bandwidth;
    sum += 0.5 * (1.0 + std::erf(zi * kInvSqrt2));
  }
  return sum;
}

double KdeDensitySum(const double* sample, std::size_t n, double x,
                     double bandwidth) {
  const float64x2_t query = vdupq_n_f64(x);
  const float64x2_t bw = vdupq_n_f64(bandwidth);
  const float64x2_t minus_half = vdupq_n_f64(-0.5);
  double sum = 0.0;
  std::size_t i = 0;
  double t[2];
  for (; i + 2 <= n; i += 2) {
    const float64x2_t z =
        vdivq_f64(vsubq_f64(query, vld1q_f64(sample + i)), bw);
    vst1q_f64(t, vmulq_f64(vmulq_f64(minus_half, z), z));
    sum += std::exp(t[0]);
    sum += std::exp(t[1]);
  }
  for (; i < n; ++i) {
    const double zi = (x - sample[i]) / bandwidth;
    sum += std::exp(-0.5 * zi * zi);
  }
  return sum;
}

constexpr KernelOps kNeonOps = {
    "neon",
    CountCmp<true>,
    CountCmp<false>,
    MarkCmp<true>,
    MarkCmp<false>,
    KdeCdfSum,
    KdeDensitySum,
};

}  // namespace

const KernelOps* NeonOps() { return &kNeonOps; }

}  // namespace doppler::kernels::internal

#else  // !defined(__aarch64__)

namespace doppler::kernels::internal {

const KernelOps* NeonOps() { return nullptr; }

}  // namespace doppler::kernels::internal

#endif  // defined(__aarch64__)
