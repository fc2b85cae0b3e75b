#ifndef DOPPLER_DMA_SHIPPED_MODELS_H_
#define DOPPLER_DMA_SHIPPED_MODELS_H_

#include <cstdint>

#include "catalog/sku.h"
#include "catalog/target.h"
#include "core/profiler.h"
#include "util/statusor.h"

namespace doppler::dma {

/// The synthetic training fleet every default group model is fitted on.
/// `doppler fit-profiles` defaults to the same pair, so its output with
/// default flags is the shipped model.
inline constexpr int kDefaultTrainingCustomers = 120;
inline constexpr std::uint64_t kDefaultTrainingSeed = 11;

/// The default group model for `deployment` on target `spec`: the result of
/// FitGroupModelOffline(spec.build_catalog(), DefaultPricing,
/// NonParametricEstimator, deployment, kDefaultTrainingCustomers,
/// kDefaultTrainingSeed). Paper §4 fits the profiles offline and ships them
/// as static input; likewise the built-in registry entries (azure-db for DB
/// and MI, aws-rds for DB) answer from constants compiled into the library
/// (shipped_models.inc), which golden_report_test pins bit-identical to
/// that fit. Any other spec or deployment is fitted on the call, including
/// a spec that reuses a built-in id: only the registry's own entry (pointer
/// identity) is known to build the catalog the constants were fitted on.
StatusOr<core::GroupModel> DefaultGroupModel(const catalog::TargetSpec& spec,
                                             catalog::Deployment deployment);

}  // namespace doppler::dma

#endif  // DOPPLER_DMA_SHIPPED_MODELS_H_
