#include "catalog/compiled_catalog.h"

#include <algorithm>
#include <string>

#include "obs/metrics.h"

namespace doppler::catalog {

CompiledCatalog CompiledCatalog::Compile(SkuCatalog catalog,
                                         const PricingService* pricing,
                                         const TargetSpec* target) {
  static obs::Counter* const kTargetsCompiled =
      obs::DefaultMetrics().GetCounter("catalog.targets_compiled");
  kTargetsCompiled->Increment();

  if (target == nullptr) target = &AzureDbTargetSpec();
  CompiledCatalog compiled;
  compiled.catalog_ = std::move(catalog);
  compiled.pricing_ = pricing;
  compiled.target_ = target;
  compiled.disk_tiers_ = target->storage_tiers();

  for (const Sku& sku : compiled.catalog_.skus()) {
    const auto slot = static_cast<std::size_t>(static_cast<int>(sku.deployment));
    CompiledEntry entry;
    entry.sku = &sku;
    entry.monthly_price = pricing->MonthlyCost(sku);
    entry.capacities = sku.Capacities();
    compiled.deployments_[slot].entries_.push_back(entry);
  }

  for (CompiledDeployment& deployment : compiled.deployments_) {
    deployment.target_ = target;
    // Cheapest-first by the BILLED monthly price (ties by id): exactly the
    // order PricePerformanceCurve::Build used to re-establish per request,
    // so a curve built over a compiled view needs no re-sort.
    std::sort(deployment.entries_.begin(), deployment.entries_.end(),
              [](const CompiledEntry& a, const CompiledEntry& b) {
                if (a.monthly_price != b.monthly_price) {
                  return a.monthly_price < b.monthly_price;
                }
                return a.sku->id < b.sku->id;
              });
  }
  return compiled;
}

CompiledCatalog CompiledCatalog::CompileTarget(const TargetSpec& target,
                                               const PricingService* pricing) {
  return Compile(target.build_catalog(), pricing, &target);
}

StatusOr<PremiumDiskTier> CompiledCatalog::DiskTierForFileSize(
    double file_size_gib) const {
  if (file_size_gib <= 0.0) {
    return OutOfRangeError("file size must be positive");
  }
  for (const PremiumDiskTier& tier : disk_tiers_) {
    if (file_size_gib <= tier.max_size_gib) return tier;
  }
  return OutOfRangeError("file of " + std::to_string(file_size_gib) +
                         " GiB exceeds the largest premium disk (8 TiB)");
}

StatusOr<LayoutLimits> CompiledCatalog::LayoutLimitsFor(
    const FileLayout& layout) const {
  if (layout.files.empty()) {
    return InvalidArgumentError("file layout has no files");
  }
  LayoutLimits limits;
  limits.tiers.reserve(layout.files.size());
  for (const DatabaseFile& file : layout.files) {
    StatusOr<PremiumDiskTier> tier = DiskTierForFileSize(file.size_gib);
    if (!tier.ok()) return tier.status();
    limits.total_iops += tier->iops;
    limits.total_throughput_mibps += tier->throughput_mibps;
    limits.total_size_gib += file.size_gib;
    limits.tiers.push_back(*std::move(tier));
  }
  return limits;
}

}  // namespace doppler::catalog
