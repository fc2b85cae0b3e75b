#ifndef DOPPLER_CATALOG_COMPILED_CATALOG_H_
#define DOPPLER_CATALOG_COMPILED_CATALOG_H_

#include <array>
#include <cstddef>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/file_layout.h"
#include "catalog/premium_disk.h"
#include "catalog/pricing.h"
#include "catalog/resource.h"
#include "catalog/sku.h"
#include "catalog/target.h"
#include "util/statusor.h"

namespace doppler::catalog {

/// One pre-scored candidate of a compiled deployment view: the SKU record
/// (borrowed from the snapshot's catalog copy), its monthly bill through
/// the snapshot's pricing service, and its capacity vector — everything
/// the curve builder used to re-derive per request, per bootstrap
/// resample.
struct CompiledEntry {
  const Sku* sku = nullptr;
  /// Memoized pricing.MonthlyCost(*sku). Usage-billed (serverless) SKUs
  /// still re-price per trace; every provisioned SKU reads this field.
  double monthly_price = 0.0;
  /// Memoized sku->Capacities().
  ResourceVector capacities;
};

/// A borrowed, zero-copy slice of one deployment's compiled candidates —
/// the std::span-style view the engine passes around instead of freshly
/// sorted `std::vector<Sku>` copies. Views stay valid for the lifetime of
/// the CompiledCatalog they came from.
class CompiledView {
 public:
  CompiledView() = default;
  CompiledView(const CompiledEntry* data, std::size_t size,
               const TargetSpec* target = nullptr)
      : data_(data), size_(size), target_(target) {}

  const CompiledEntry* begin() const { return data_; }
  const CompiledEntry* end() const { return data_ + size_; }
  const CompiledEntry& operator[](std::size_t i) const { return data_[i]; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// The target spec the snapshot behind this view was compiled for
  /// (nullptr only for hand-built views); the curve builder reads its
  /// per-trace repricing hook.
  const TargetSpec* target() const { return target_; }

 private:
  const CompiledEntry* data_ = nullptr;
  std::size_t size_ = 0;
  const TargetSpec* target_ = nullptr;
};

/// One deployment's candidate set, pre-sorted cheapest-first (monthly
/// price, ties by id — the exact order the price-performance curve ends
/// in).
class CompiledDeployment {
 public:
  CompiledView view() const {
    return CompiledView(entries_.data(), entries_.size(), target_);
  }
  const std::vector<CompiledEntry>& entries() const { return entries_; }
  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

 private:
  friend class CompiledCatalog;

  std::vector<CompiledEntry> entries_;
  /// Back-pointer to the owning snapshot's target spec, stamped into every
  /// view handed out.
  const TargetSpec* target_ = nullptr;
};

/// An immutable, serving-oriented snapshot of the SKU search space
/// (paper §4 treats it as static per assessment window): per-deployment
/// candidate sets pre-sorted cheapest-first with memoized monthly prices
/// and capacity vectors, plus the premium-disk limit ladder (paper
/// Table 2) precomputed for the MI file-layout filter. Built once at
/// pipeline creation; every per-request consumer reads borrowed views, so
/// the hot path performs no catalog copies and no sorts.
///
/// Thread-safety: the snapshot is immutable after Compile and safe to read
/// concurrently from any number of assessment workers.
class CompiledCatalog {
 public:
  /// Compiles `catalog` (copied into the snapshot, so the snapshot is
  /// self-contained) against `pricing`, which is BORROWED and must outlive
  /// the snapshot — usage-based (serverless) pricing is resolved per trace
  /// through it. `target` (BORROWED; built-in specs have static storage)
  /// selects the deployment target whose storage-tier table and per-trace
  /// repricing hook the snapshot carries; nullptr compiles for the Azure
  /// DB/MI spec, which reproduces the pre-registry behaviour exactly.
  static CompiledCatalog Compile(SkuCatalog catalog,
                                 const PricingService* pricing,
                                 const TargetSpec* target = nullptr);

  /// Convenience: compiles `target`'s own catalog (spec builder) against
  /// `pricing`.
  static CompiledCatalog CompileTarget(const TargetSpec& target,
                                       const PricingService* pricing);

  CompiledCatalog(CompiledCatalog&&) = default;
  CompiledCatalog& operator=(CompiledCatalog&&) = default;
  CompiledCatalog(const CompiledCatalog&) = delete;
  CompiledCatalog& operator=(const CompiledCatalog&) = delete;

  /// The deployment's compiled candidate set (empty when the catalog
  /// carries no SKU for it).
  const CompiledDeployment& ForDeployment(Deployment deployment) const {
    return deployments_[static_cast<std::size_t>(static_cast<int>(deployment))];
  }

  /// The snapshot's own copy of the source catalog (for id lookups and
  /// reporting paths that want raw SKUs).
  const SkuCatalog& catalog() const { return catalog_; }

  /// The borrowed billing interface the snapshot was compiled against.
  const PricingService& pricing() const { return *pricing_; }

  /// The target spec the snapshot was compiled for (never null; defaults
  /// to the Azure DB/MI spec).
  const TargetSpec& target() const { return *target_; }

  /// The target's storage tier ladder (Azure premium disks / AWS gp3-io2
  /// volumes), snapshotted at compile time.
  const std::vector<PremiumDiskTier>& disk_tiers() const { return disk_tiers_; }

  /// Smallest snapshotted tier holding `file_size_gib` — the compiled
  /// counterpart of catalog::TierForFileSize, same failure modes.
  StatusOr<PremiumDiskTier> DiskTierForFileSize(double file_size_gib) const;

  /// Per-file tier resolution + limit summation over the snapshot's disk
  /// table — the compiled counterpart of catalog::ComputeLayoutLimits.
  StatusOr<LayoutLimits> LayoutLimitsFor(const FileLayout& layout) const;

 private:
  CompiledCatalog() = default;

  static constexpr std::size_t kNumDeployments = 3;

  SkuCatalog catalog_;
  const PricingService* pricing_ = nullptr;
  const TargetSpec* target_ = nullptr;
  std::array<CompiledDeployment, kNumDeployments> deployments_;
  std::vector<PremiumDiskTier> disk_tiers_;
};

}  // namespace doppler::catalog

#endif  // DOPPLER_CATALOG_COMPILED_CATALOG_H_
