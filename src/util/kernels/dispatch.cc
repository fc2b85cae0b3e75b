// Runtime dispatch shim for the kernel table (util/kernels/kernels.h).
// The table is resolved exactly once per process: DOPPLER_KERNEL (if set)
// names the variant, cpuid-style feature detection gates what the CPU can
// actually run, and the result is published through a relaxed atomic that
// every hot call site reads. Tests and benchmarks swap the table with
// ScopedKernelOverride instead of mutating the environment.

#include <atomic>
#include <cstdlib>

#include "obs/metrics.h"
#include "util/kernels/kernels_impl.h"
#include "util/logging.h"

namespace doppler::kernels {

namespace {

bool CpuHasAvx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

const KernelOps* ResolveFromEnvironment() {
  const char* override_name = std::getenv("DOPPLER_KERNEL");
  const KernelOps& ops = SelectKernels(override_name);
  KernelIsa isa = KernelIsa::kScalar;
  if (&ops == internal::Avx2Ops()) isa = KernelIsa::kAvx2;
  if (&ops == internal::NeonOps()) isa = KernelIsa::kNeon;
  obs::DefaultMetrics()
      .GetGauge("kernel.dispatch_isa")
      ->Set(static_cast<double>(isa));
  DOPPLER_LOG(kInfo) << "kernel dispatch selected '" << ops.name << "' path"
                     << (override_name != nullptr ? " (DOPPLER_KERNEL set)"
                                                  : "");
  return &ops;
}

// nullptr until first use; ScopedKernelOverride saves/restores the raw
// value, so an override installed before first resolution leaves the
// "unresolved" state behind when it unwinds.
std::atomic<const KernelOps*> g_active{nullptr};

}  // namespace

const KernelOps* KernelOpsFor(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kScalar:
      return &internal::ScalarOps();
    case KernelIsa::kAvx2:
      return CpuHasAvx2() ? internal::Avx2Ops() : nullptr;
    case KernelIsa::kNeon:
      return internal::NeonOps();
  }
  return nullptr;
}

bool ParseKernelIsa(const std::string& name, KernelIsa* isa) {
  if (name == "scalar") {
    *isa = KernelIsa::kScalar;
    return true;
  }
  if (name == "avx2") {
    *isa = KernelIsa::kAvx2;
    return true;
  }
  if (name == "neon") {
    *isa = KernelIsa::kNeon;
    return true;
  }
  return false;
}

const KernelOps& SelectKernels(const char* override_name) {
  // Best the hardware supports, used both for the default and as the
  // fallback target for unrecognised overrides.
  const KernelOps* best = KernelOpsFor(KernelIsa::kAvx2);
  if (best == nullptr) best = KernelOpsFor(KernelIsa::kNeon);
  if (best == nullptr) best = &internal::ScalarOps();

  if (override_name == nullptr || override_name[0] == '\0') return *best;

  KernelIsa isa;
  if (!ParseKernelIsa(override_name, &isa)) {
    DOPPLER_LOG(kWarning) << "DOPPLER_KERNEL='" << override_name
                          << "' is not a known variant "
                             "(scalar|avx2|neon); using '"
                          << best->name << "'";
    return *best;
  }
  const KernelOps* requested = KernelOpsFor(isa);
  if (requested == nullptr) {
    DOPPLER_LOG(kWarning) << "DOPPLER_KERNEL='" << override_name
                          << "' is unavailable on this CPU/build; "
                             "falling back to scalar";
    return internal::ScalarOps();
  }
  return *requested;
}

const KernelOps& ActiveKernels() {
  const KernelOps* ops = g_active.load(std::memory_order_relaxed);
  if (ops == nullptr) {
    // Several threads may race the first resolution; ResolveFromEnvironment
    // is idempotent and every racer computes the same table, so losing the
    // exchange only means a duplicate log line.
    ops = ResolveFromEnvironment();
    const KernelOps* expected = nullptr;
    if (!g_active.compare_exchange_strong(expected, ops,
                                          std::memory_order_relaxed)) {
      ops = expected;
    }
  }
  return *ops;
}

ScopedKernelOverride::ScopedKernelOverride(const KernelOps* ops)
    : previous_(g_active.load(std::memory_order_relaxed)) {
  g_active.store(ops != nullptr ? ops : &internal::ScalarOps(),
                 std::memory_order_relaxed);
}

ScopedKernelOverride::~ScopedKernelOverride() {
  g_active.store(previous_, std::memory_order_relaxed);
}

}  // namespace doppler::kernels
