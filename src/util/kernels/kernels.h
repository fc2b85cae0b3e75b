#ifndef DOPPLER_UTIL_KERNELS_KERNELS_H_
#define DOPPLER_UTIL_KERNELS_KERNELS_H_

#include <cstddef>
#include <string>

namespace doppler::kernels {

/// SIMD kernel layer for the Eq. 1 scan (DESIGN.md §15).
///
/// The three inner loops the assessment engine spends its time in —
/// exceedance counting over a demand column, the masked early-exit union
/// scan, and Gaussian-kernel evaluation — are implemented once per
/// instruction set behind this function-pointer table. The implementation
/// is selected once per process (cpuid-style feature detection,
/// overridable with DOPPLER_KERNEL=scalar|avx2|neon) and every call site
/// reads the table through ActiveKernels().
///
/// Correctness contract: every operation is BIT-IDENTICAL across
/// implementations. The counting kernels are exact integer arithmetic
/// over exact IEEE comparisons (a comparison is a predicate, not an
/// approximation, so lane width cannot change a count), and the KDE
/// kernels perform the same IEEE operations in the same order as the
/// scalar reference (vectorised subtract/divide/multiply are per-lane
/// identical to their scalar counterparts; the transcendental and the
/// accumulation stay scalar and in sample order). The property tests and
/// the differential harness in tests/kernel_test.cc hold every variant to
/// exact equality against the scalar reference.
///
/// Alignment contract: kernels use unaligned vector loads, so they accept
/// any pointer — but the hot callers allocate their operands cache-line
/// aligned (util/aligned.h) so the loads never straddle a line.
struct KernelOps {
  /// Implementation name ("scalar", "avx2", "neon") — surfaced by the
  /// dispatch log line and the kernel.dispatch_isa gauge.
  const char* name;

  /// (a) Branch-free exceedance counting: the number of values strictly
  /// above / below `limit` — the single-dimension throttled-row count.
  /// NaNs compare false, exactly like the scalar `v > limit` /
  /// `v < limit`.
  std::size_t (*count_above)(const double* values, std::size_t n,
                             double limit);
  std::size_t (*count_below)(const double* values, std::size_t n,
                             double limit);

  /// (b) Masked early-exit union scan step: marks[i] <- 1 for every i with
  /// values[i] strictly above/below `limit`, returning how many marks were
  /// NEWLY set. `marks` bytes must be 0 or 1 (the columnar scan's
  /// throttled-row scratch); rows already marked are never re-counted, so
  /// summing the return values across columns yields the union cardinality.
  std::size_t (*mark_above)(const double* values, std::size_t n, double limit,
                            unsigned char* marks);
  std::size_t (*mark_below)(const double* values, std::size_t n, double limit,
                            unsigned char* marks);

  /// (c) Batched Gaussian-kernel evaluation over one sample array.
  /// kde_cdf_sum returns sum_i 0.5 * (1 + erf(((x - s_i) / bandwidth) *
  /// (1/sqrt 2))); kde_density_sum returns sum_i exp(-0.5 * z_i * z_i)
  /// with z_i = (x - s_i) / bandwidth. Callers apply the 1/n (and
  /// normal-constant) scaling. Accumulation is in sample order in every
  /// implementation, so results are bit-identical across them.
  double (*kde_cdf_sum)(const double* sample, std::size_t n, double x,
                        double bandwidth);
  double (*kde_density_sum)(const double* sample, std::size_t n, double x,
                            double bandwidth);
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
