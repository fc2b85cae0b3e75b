#ifndef DOPPLER_DMA_STATIC_INPUTS_H_
#define DOPPLER_DMA_STATIC_INPUTS_H_

#include <string>

#include "catalog/catalog.h"
#include "catalog/file_layout.h"
#include "core/profiler.h"
#include "util/csv.h"
#include "util/statusor.h"

namespace doppler::dma {

/// Persistence for the DMA tool's static inputs (paper §4: "relevant SKU
/// resource limits and customer profiles ... are calculated offline and
/// saved in the application as static input"). Both artefacts round-trip
/// through CSV so the offline fitting job and the shipped appliance can
/// exchange them as plain files.

/// Group-model <-> CSV. Columns: group_id, count, mean_probability,
/// std_probability; the global mean rides in a pseudo-row with
/// group_id = -1. Probabilities are written in shortest round-trip form,
/// so a saved model loads bit-identical to the one saved.
CsvTable GroupModelToCsv(const core::GroupModel& model);
StatusOr<core::GroupModel> GroupModelFromCsv(const CsvTable& table);
Status SaveGroupModel(const core::GroupModel& model, const std::string& path);
StatusOr<core::GroupModel> LoadGroupModel(const std::string& path);

/// MI file layout <-> CSV (columns: name, size_gib) — the input a
/// customer hands the MI premium-disk Step 1/2 (paper §3.2).
CsvTable LayoutToCsv(const catalog::FileLayout& layout);
StatusOr<catalog::FileLayout> LayoutFromCsv(const CsvTable& table);
StatusOr<catalog::FileLayout> LoadLayout(const std::string& path);

/// SKU-catalog <-> CSV (resource limits + pricing, one row per SKU).
CsvTable CatalogToCsv(const catalog::SkuCatalog& skus);
StatusOr<catalog::SkuCatalog> CatalogFromCsv(const CsvTable& table);
Status SaveCatalog(const catalog::SkuCatalog& skus, const std::string& path);
StatusOr<catalog::SkuCatalog> LoadCatalog(const std::string& path);

}  // namespace doppler::dma

#endif  // DOPPLER_DMA_STATIC_INPUTS_H_
