// AVX2 implementation of the kernel table. This translation unit — and
// only this one — is compiled with -mavx2 -mpopcnt (src/CMakeLists.txt
// attaches the flags per-file), so the rest of the binary stays runnable
// on baseline x86-64; the dispatcher only hands this table out after
// __builtin_cpu_supports("avx2") confirms the running CPU.
//
// Bit-identity notes (the contract in util/kernels/kernels.h):
//  - The counting kernels combine exact IEEE comparisons (VCMPPD with the
//    ordered-quiet predicates, so NaN compares false exactly like the
//    scalar `>`/`<`) with integer popcounts — lane width cannot change a
//    count.
//  - The KDE kernels vectorise only the per-sample subtract / divide /
//    multiply (VSUBPD/VDIVPD/VMULPD are per-lane identical to their
//    scalar counterparts); erf/exp and the accumulation stay scalar and
//    in sample order, so the sums match the scalar reference bit for bit.
//    No FMA is involved (the file is not built with -mfma), so the
//    compiler cannot contract the arithmetic into differently-rounded
//    forms.

#include "util/kernels/kernels_impl.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <array>
#include <cmath>
#include <cstdint>

namespace doppler::kernels::internal {

namespace {

constexpr double kInvSqrt2 = 0.7071067811865476;

// 4-bit comparison mask -> 4 bytes of 0/1, little-endian: byte b is 1 iff
// mask bit b is set. The masked scan's throttled-row scratch stores one
// 0/1 byte per row, so expanding the VMOVMSKPD bits to bytes lets eight
// marks merge with one 64-bit OR.
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

template <int Predicate>
std::size_t CountCmp(const double* values, std::size_t n, double limit) {
  const __m256d bound = _mm256_set1_pd(limit);
  std::size_t count = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d x = _mm256_loadu_pd(values + i);
    const __m256d mask = _mm256_cmp_pd(x, bound, Predicate);
    count += static_cast<std::size_t>(
        __builtin_popcount(static_cast<unsigned>(_mm256_movemask_pd(mask))));
  }
  for (; i < n; ++i) {
    count += Predicate == _CMP_GT_OQ ? values[i] > limit : values[i] < limit;
  }
  return count;
}

template <int Predicate>
std::size_t MarkCmp(const double* values, std::size_t n, double limit,
                    unsigned char* marks) {
  const __m256d bound = _mm256_set1_pd(limit);
  std::size_t newly = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d lo = _mm256_loadu_pd(values + i);
    const __m256d hi = _mm256_loadu_pd(values + i + 4);
    const unsigned mask =
        static_cast<unsigned>(_mm256_movemask_pd(
            _mm256_cmp_pd(lo, bound, Predicate))) |
        (static_cast<unsigned>(_mm256_movemask_pd(
             _mm256_cmp_pd(hi, bound, Predicate)))
         << 4);
    if (mask == 0) continue;
    std::uint64_t current;
    __builtin_memcpy(&current, marks + i, sizeof(current));
    const std::uint64_t wanted =
        static_cast<std::uint64_t>(kExpand4[mask & 15u]) |
        (static_cast<std::uint64_t>(kExpand4[mask >> 4]) << 32);
    // Marks are 0/1 bytes, so the raw word doubles as its own "already
    // marked" byte mask.
    const std::uint64_t fresh = wanted & ~current;
    if (fresh == 0) continue;
    current |= fresh;
    __builtin_memcpy(marks + i, &current, sizeof(current));
    newly += static_cast<std::size_t>(__builtin_popcountll(fresh));
  }
  for (; i < n; ++i) {
    const bool hit =
        Predicate == _CMP_GT_OQ ? values[i] > limit : values[i] < limit;
    if (hit && !marks[i]) {
      marks[i] = 1;
      ++newly;
    }
  }
  return newly;
}

double KdeCdfSum(const double* sample, std::size_t n, double x,
                 double bandwidth) {
  const __m256d query = _mm256_set1_pd(x);
  const __m256d bw = _mm256_set1_pd(bandwidth);
  double sum = 0.0;
  std::size_t i = 0;
  alignas(32) double z[4];
  for (; i + 4 <= n; i += 4) {
    _mm256_store_pd(
        z, _mm256_div_pd(_mm256_sub_pd(query, _mm256_loadu_pd(sample + i)),
                         bw));
    // erf and the accumulation stay scalar, in sample order — the lanes
    // above hold exactly the z each scalar iteration would have computed.
    sum += 0.5 * (1.0 + std::erf(z[0] * kInvSqrt2));
    sum += 0.5 * (1.0 + std::erf(z[1] * kInvSqrt2));
    sum += 0.5 * (1.0 + std::erf(z[2] * kInvSqrt2));
    sum += 0.5 * (1.0 + std::erf(z[3] * kInvSqrt2));
  }
  for (; i < n; ++i) {
    const double zi = (x - sample[i]) / bandwidth;
    sum += 0.5 * (1.0 + std::erf(zi * kInvSqrt2));
  }
  return sum;
}

double KdeDensitySum(const double* sample, std::size_t n, double x,
                     double bandwidth) {
  const __m256d query = _mm256_set1_pd(x);
  const __m256d bw = _mm256_set1_pd(bandwidth);
  const __m256d minus_half = _mm256_set1_pd(-0.5);
  double sum = 0.0;
  std::size_t i = 0;
  alignas(32) double t[4];
  for (; i + 4 <= n; i += 4) {
    const __m256d z =
        _mm256_div_pd(_mm256_sub_pd(query, _mm256_loadu_pd(sample + i)), bw);
    // Same association as the scalar reference's -0.5 * z * z:
    // (-0.5 * z) * z.
    _mm256_store_pd(t, _mm256_mul_pd(_mm256_mul_pd(minus_half, z), z));
    sum += std::exp(t[0]);
    sum += std::exp(t[1]);
    sum += std::exp(t[2]);
    sum += std::exp(t[3]);
  }
  for (; i < n; ++i) {
    const double zi = (x - sample[i]) / bandwidth;
    sum += std::exp(-0.5 * zi * zi);
  }
  return sum;
}

constexpr KernelOps kAvx2Ops = {
    "avx2",
    CountCmp<_CMP_GT_OQ>,
    CountCmp<_CMP_LT_OQ>,
    MarkCmp<_CMP_GT_OQ>,
    MarkCmp<_CMP_LT_OQ>,
    KdeCdfSum,
    KdeDensitySum,
};

}  // namespace

const KernelOps* Avx2Ops() { return &kAvx2Ops; }

}  // namespace doppler::kernels::internal

#else  // !defined(__AVX2__)

namespace doppler::kernels::internal {

const KernelOps* Avx2Ops() { return nullptr; }

}  // namespace doppler::kernels::internal

#endif  // defined(__AVX2__)
