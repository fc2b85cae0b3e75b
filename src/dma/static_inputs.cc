#include "dma/static_inputs.h"

#include <charconv>
#include <cmath>
#include <limits>

#include "util/string_util.h"

namespace doppler::dma {

namespace {

// Static inputs are limits, prices and probabilities: finite numbers.
StatusOr<double> ParseNumber(const std::string& text) {
  const ParsedCell cell = ParseCell(text);
  if (cell.cls == CellClass::kMalformed) {
    return InvalidArgumentError("not a number: '" + text + "'");
  }
  if (cell.cls == CellClass::kNonFinite) {
    return InvalidArgumentError("not a finite number: '" + text + "'");
  }
  return cell.value;
}

// The shortest text that parses back to exactly `value`, so a saved group
// model loads bit-identical to the fitted one.
std::string RoundTripDouble(double value) {
  char buffer[32];
  const std::to_chars_result result =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

StatusOr<int> ParseInt(const std::string& text) {
  DOPPLER_ASSIGN_OR_RETURN(double value, ParseNumber(text));
  if (value != std::trunc(value) ||
      value < std::numeric_limits<int>::min() ||
      value > std::numeric_limits<int>::max()) {
    return InvalidArgumentError("not an int: '" + text + "'");
  }
  return static_cast<int>(value);
}

template <typename Enum>
StatusOr<Enum> ParseEnum(const std::string& text,
                         std::initializer_list<Enum> values,
                         const char* (*name)(Enum)) {
  for (Enum value : values) {
    if (text == name(value)) return value;
  }
  return InvalidArgumentError("unknown enum value '" + text + "'");
}

}  // namespace

CsvTable GroupModelToCsv(const core::GroupModel& model) {
  CsvTable table({"group_id", "count", "mean_probability",
                  "std_probability"});
  // The global mean travels as a pseudo-row keyed -1.
  (void)table.AddRow({"-1", "0", RoundTripDouble(model.global_mean()), "0"});
  for (const core::GroupStats& stats : model.AllGroups()) {
    (void)table.AddRow({std::to_string(stats.group_id),
                        std::to_string(stats.count),
                        RoundTripDouble(stats.mean_probability),
                        RoundTripDouble(stats.std_probability)});
  }
  return table;
}

StatusOr<core::GroupModel> GroupModelFromCsv(const CsvTable& table) {
  DOPPLER_ASSIGN_OR_RETURN(std::size_t id_col, table.ColumnIndex("group_id"));
  DOPPLER_ASSIGN_OR_RETURN(std::size_t count_col, table.ColumnIndex("count"));
  DOPPLER_ASSIGN_OR_RETURN(std::size_t mean_col,
                           table.ColumnIndex("mean_probability"));
  DOPPLER_ASSIGN_OR_RETURN(std::size_t std_col,
                           table.ColumnIndex("std_probability"));

  double global_mean = 0.0;
  std::vector<core::GroupStats> stats;
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    DOPPLER_ASSIGN_OR_RETURN(int group_id, ParseInt(table.row(r)[id_col]));
    DOPPLER_ASSIGN_OR_RETURN(double mean, ParseNumber(table.row(r)[mean_col]));
    if (group_id < 0) {
      global_mean = mean;
      continue;
    }
    core::GroupStats group;
    group.group_id = group_id;
    DOPPLER_ASSIGN_OR_RETURN(group.count, ParseInt(table.row(r)[count_col]));
    group.mean_probability = mean;
    DOPPLER_ASSIGN_OR_RETURN(group.std_probability,
                             ParseNumber(table.row(r)[std_col]));
    stats.push_back(group);
  }
  return core::GroupModel::FromStats(std::move(stats), global_mean);
}

Status SaveGroupModel(const core::GroupModel& model, const std::string& path) {
  return GroupModelToCsv(model).WriteFile(path);
}

StatusOr<core::GroupModel> LoadGroupModel(const std::string& path) {
  DOPPLER_ASSIGN_OR_RETURN(CsvTable table, CsvTable::ReadFile(path));
  return GroupModelFromCsv(table);
}

CsvTable LayoutToCsv(const catalog::FileLayout& layout) {
  CsvTable table({"name", "size_gib"});
  for (const catalog::DatabaseFile& file : layout.files) {
    (void)table.AddRow({file.name, FormatDouble(file.size_gib, 6)});
  }
  return table;
}

StatusOr<catalog::FileLayout> LayoutFromCsv(const CsvTable& table) {
  DOPPLER_ASSIGN_OR_RETURN(std::size_t name_col, table.ColumnIndex("name"));
  DOPPLER_ASSIGN_OR_RETURN(std::size_t size_col,
                           table.ColumnIndex("size_gib"));
  catalog::FileLayout layout;
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    catalog::DatabaseFile file;
    file.name = table.row(r)[name_col];
    DOPPLER_ASSIGN_OR_RETURN(file.size_gib,
                             ParseNumber(table.row(r)[size_col]));
    if (file.size_gib <= 0.0) {
      return InvalidArgumentError("file '" + file.name +
                                  "' has non-positive size");
    }
    layout.files.push_back(std::move(file));
  }
  if (layout.files.empty()) {
    return InvalidArgumentError("layout CSV carries no files");
  }
  return layout;
}

StatusOr<catalog::FileLayout> LoadLayout(const std::string& path) {
  DOPPLER_ASSIGN_OR_RETURN(CsvTable table, CsvTable::ReadFile(path));
  return LayoutFromCsv(table);
}

CsvTable CatalogToCsv(const catalog::SkuCatalog& skus) {
  CsvTable table({"id", "deployment", "tier", "hardware", "vcores",
                  "max_memory_gb", "max_data_gb", "max_iops",
                  "max_log_rate_mbps", "min_io_latency_ms", "max_workers",
                  "price_per_hour", "serverless", "min_vcores",
                  "price_per_vcore_hour"});
  for (const catalog::Sku& sku : skus.skus()) {
    (void)table.AddRow(
        {sku.id, catalog::DeploymentName(sku.deployment),
         catalog::ServiceTierName(sku.tier),
         catalog::HardwareGenName(sku.hardware), std::to_string(sku.vcores),
         FormatDouble(sku.max_memory_gb, 6), FormatDouble(sku.max_data_gb, 6),
         FormatDouble(sku.max_iops, 6),
         FormatDouble(sku.max_log_rate_mbps, 6),
         FormatDouble(sku.min_io_latency_ms, 6),
         FormatDouble(sku.max_workers, 6),
         FormatDouble(sku.price_per_hour, 6),
         sku.serverless ? "1" : "0", FormatDouble(sku.min_vcores, 6),
         FormatDouble(sku.price_per_vcore_hour, 6)});
  }
  return table;
}

StatusOr<catalog::SkuCatalog> CatalogFromCsv(const CsvTable& table) {
  auto column = [&](const char* name) { return table.ColumnIndex(name); };
  DOPPLER_ASSIGN_OR_RETURN(std::size_t id_col, column("id"));
  DOPPLER_ASSIGN_OR_RETURN(std::size_t deployment_col, column("deployment"));
  DOPPLER_ASSIGN_OR_RETURN(std::size_t tier_col, column("tier"));
  DOPPLER_ASSIGN_OR_RETURN(std::size_t hardware_col, column("hardware"));
  DOPPLER_ASSIGN_OR_RETURN(std::size_t vcores_col, column("vcores"));
  DOPPLER_ASSIGN_OR_RETURN(std::size_t memory_col, column("max_memory_gb"));
  DOPPLER_ASSIGN_OR_RETURN(std::size_t data_col, column("max_data_gb"));
  DOPPLER_ASSIGN_OR_RETURN(std::size_t iops_col, column("max_iops"));
  DOPPLER_ASSIGN_OR_RETURN(std::size_t log_col, column("max_log_rate_mbps"));
  DOPPLER_ASSIGN_OR_RETURN(std::size_t latency_col,
                           column("min_io_latency_ms"));
  DOPPLER_ASSIGN_OR_RETURN(std::size_t workers_col, column("max_workers"));
  DOPPLER_ASSIGN_OR_RETURN(std::size_t price_col, column("price_per_hour"));
  DOPPLER_ASSIGN_OR_RETURN(std::size_t serverless_col, column("serverless"));
  DOPPLER_ASSIGN_OR_RETURN(std::size_t min_vcores_col, column("min_vcores"));
  DOPPLER_ASSIGN_OR_RETURN(std::size_t vcore_rate_col,
                           column("price_per_vcore_hour"));

  catalog::SkuCatalog skus;
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    const std::vector<std::string>& row = table.row(r);
    catalog::Sku sku;
    sku.id = row[id_col];
    DOPPLER_ASSIGN_OR_RETURN(
        sku.deployment,
        ParseEnum(row[deployment_col],
                  {catalog::Deployment::kSqlDb, catalog::Deployment::kSqlMi,
                   catalog::Deployment::kSqlVm},
                  catalog::DeploymentName));
    DOPPLER_ASSIGN_OR_RETURN(
        sku.tier, ParseEnum(row[tier_col],
                            {catalog::ServiceTier::kGeneralPurpose,
                             catalog::ServiceTier::kBusinessCritical,
                             catalog::ServiceTier::kHyperscale},
                            catalog::ServiceTierName));
    DOPPLER_ASSIGN_OR_RETURN(
        sku.hardware,
        ParseEnum(row[hardware_col],
                  {catalog::HardwareGen::kGen5,
                   catalog::HardwareGen::kPremiumSeries,
                   catalog::HardwareGen::kPremiumSeriesMemoryOptimized},
                  catalog::HardwareGenName));
    DOPPLER_ASSIGN_OR_RETURN(sku.vcores, ParseInt(row[vcores_col]));
    DOPPLER_ASSIGN_OR_RETURN(sku.max_memory_gb, ParseNumber(row[memory_col]));
    DOPPLER_ASSIGN_OR_RETURN(sku.max_data_gb, ParseNumber(row[data_col]));
    DOPPLER_ASSIGN_OR_RETURN(sku.max_iops, ParseNumber(row[iops_col]));
    DOPPLER_ASSIGN_OR_RETURN(sku.max_log_rate_mbps,
                             ParseNumber(row[log_col]));
    DOPPLER_ASSIGN_OR_RETURN(sku.min_io_latency_ms,
                             ParseNumber(row[latency_col]));
    DOPPLER_ASSIGN_OR_RETURN(sku.max_workers, ParseNumber(row[workers_col]));
    DOPPLER_ASSIGN_OR_RETURN(sku.price_per_hour, ParseNumber(row[price_col]));
    sku.serverless = row[serverless_col] == "1";
    DOPPLER_ASSIGN_OR_RETURN(sku.min_vcores,
                             ParseNumber(row[min_vcores_col]));
    DOPPLER_ASSIGN_OR_RETURN(sku.price_per_vcore_hour,
                             ParseNumber(row[vcore_rate_col]));
    skus.Add(std::move(sku));
  }
  if (skus.empty()) {
    return InvalidArgumentError("catalog CSV carries no SKUs");
  }
  return skus;
}

Status SaveCatalog(const catalog::SkuCatalog& skus, const std::string& path) {
  return CatalogToCsv(skus).WriteFile(path);
}

StatusOr<catalog::SkuCatalog> LoadCatalog(const std::string& path) {
  DOPPLER_ASSIGN_OR_RETURN(CsvTable table, CsvTable::ReadFile(path));
  return CatalogFromCsv(table);
}

}  // namespace doppler::dma
