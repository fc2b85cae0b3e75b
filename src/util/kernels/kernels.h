#ifndef DOPPLER_UTIL_KERNELS_KERNELS_H_
#define DOPPLER_UTIL_KERNELS_KERNELS_H_

#include <cstddef>
#include <string>

namespace doppler::kernels {

/// SIMD kernel layer for the Eq. 1 scan (DESIGN.md §15).
///
/// The inner loop every Eq. 1 evaluation spends its time in — the masked
/// early-exit union scan over a demand column — is implemented once per
/// instruction set behind this function-pointer table. The implementation
/// is selected once per process (cpuid-style feature detection,
/// overridable with DOPPLER_KERNEL=scalar|avx2|neon) and every call site
/// reads the table through ActiveKernels().
///
/// Correctness contract: every operation is BIT-IDENTICAL across
/// implementations. The mark kernels are exact integer arithmetic over
/// exact IEEE comparisons (a comparison is a predicate, not an
/// approximation, so lane width cannot change a mark or a count). The
/// differential harness in tests/kernel_test.cc holds every variant to
/// exact equality against the scalar reference. Kernels use unaligned
/// vector loads, so they accept any pointer.
struct KernelOps {
  /// Implementation name ("scalar", "avx2", "neon") — surfaced by the
  /// dispatch log line and the kernel.dispatch_isa gauge.
  const char* name;

  /// Masked early-exit union scan step: marks[i] <- 1 for every i with
  /// values[i] strictly above/below `limit`, returning how many marks were
  /// NEWLY set. `marks` bytes must be 0 or 1 (the columnar scan's
  /// throttled-row scratch); rows already marked are never re-counted, so
  /// summing the return values across columns yields the union cardinality.
  /// NaNs compare false, exactly like the scalar `v > limit` /
  /// `v < limit`.
  std::size_t (*mark_above)(const double* values, std::size_t n, double limit,
                            unsigned char* marks);
  std::size_t (*mark_below)(const double* values, std::size_t n, double limit,
                            unsigned char* marks);
};

/// The instruction-set variants a build may carry. Values are stable: the
/// kernel.dispatch_isa gauge exports them numerically.
enum class KernelIsa { kScalar = 0, kAvx2 = 1, kNeon = 2 };

/// The table for one variant, or nullptr when the variant was not compiled
/// into this binary or the running CPU lacks the feature (checked via
/// cpuid). kScalar never returns nullptr.
const KernelOps* KernelOpsFor(KernelIsa isa);

/// Parses a DOPPLER_KERNEL value ("scalar" | "avx2" | "neon"); returns
/// false on anything else.
bool ParseKernelIsa(const std::string& name, KernelIsa* isa);

/// Resolves the table an override string selects: nullptr/empty picks the
/// best variant the CPU supports; a recognised name picks that variant,
/// falling back to scalar (with a warning log) when it is unavailable; an
/// unrecognised name warns and picks the best. Pure apart from logging —
/// the differential harness sweeps it over every override value.
const KernelOps& SelectKernels(const char* override_name);

/// The process-wide table: resolved from DOPPLER_KERNEL + feature
/// detection on first use, then a relaxed atomic read. The first
/// resolution publishes the choice as the `kernel.dispatch_isa` gauge and
/// an info log line naming the selected path.
const KernelOps& ActiveKernels();

/// Swaps the process-wide table for a scope (tests and benchmarks that
/// compare variants end-to-end). Restores the previous table — including
/// the not-yet-resolved state — on destruction. Takes the same override
/// strings as DOPPLER_KERNEL.
class ScopedKernelOverride {
 public:
  explicit ScopedKernelOverride(const KernelOps* ops);
  explicit ScopedKernelOverride(KernelIsa isa)
      : ScopedKernelOverride(KernelOpsFor(isa)) {}
  ~ScopedKernelOverride();

  ScopedKernelOverride(const ScopedKernelOverride&) = delete;
  ScopedKernelOverride& operator=(const ScopedKernelOverride&) = delete;

 private:
  const KernelOps* previous_;
};

}  // namespace doppler::kernels

#endif  // DOPPLER_UTIL_KERNELS_KERNELS_H_
