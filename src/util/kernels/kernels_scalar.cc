// Scalar reference implementation of the kernel table — the oracle every
// SIMD variant is held bit-identical to (tests/kernel_test.cc), and the
// fallback the dispatcher selects when no vector unit is available or
// DOPPLER_KERNEL=scalar forces it. The loops are written exactly like the
// hot path they were hoisted out of (core/throttling.cc), so routing a
// caller through the table on a scalar-only host changes nothing but the
// call.

#include "util/kernels/kernels_impl.h"

namespace doppler::kernels::internal {

namespace {

std::size_t MarkAbove(const double* values, std::size_t n, double limit,
                      unsigned char* marks) {
  std::size_t newly = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!marks[i] && values[i] > limit) {
      marks[i] = 1;
      ++newly;
    }
  }
  return newly;
}

std::size_t MarkBelow(const double* values, std::size_t n, double limit,
                      unsigned char* marks) {
  std::size_t newly = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!marks[i] && values[i] < limit) {
      marks[i] = 1;
      ++newly;
    }
  }
  return newly;
}

constexpr KernelOps kScalarOps = {"scalar", MarkAbove, MarkBelow};

}  // namespace

const KernelOps& ScalarOps() { return kScalarOps; }

}  // namespace doppler::kernels::internal
