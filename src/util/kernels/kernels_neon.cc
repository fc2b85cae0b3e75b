// NEON (AArch64) implementation of the kernel table. NEON is baseline on
// AArch64, so this file needs no special flags — it simply compiles to a
// stub elsewhere. The same bit-identity discipline as the AVX2 variant
// applies: comparisons are exact IEEE predicates (FCMGT/FCMLT, NaN
// compares false) and marks and counts are integers.

#include "util/kernels/kernels_impl.h"

#if defined(__aarch64__)

#include <arm_neon.h>

#include <array>
#include <cstdint>

namespace doppler::kernels::internal {

namespace {

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

constexpr KernelOps kNeonOps = {
    "neon",
    MarkCmp<true>,
    MarkCmp<false>,
};

}  // namespace

const KernelOps* NeonOps() { return &kNeonOps; }

}  // namespace doppler::kernels::internal

#else  // !defined(__aarch64__)

namespace doppler::kernels::internal {

const KernelOps* NeonOps() { return nullptr; }

}  // namespace doppler::kernels::internal

#endif  // defined(__aarch64__)
