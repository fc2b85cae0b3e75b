#include "telemetry/perf_trace.h"

#include <algorithm>

namespace doppler::telemetry {

Status PerfTrace::SetSeries(catalog::ResourceDim dim,
                            std::vector<double> values) {
  const bool first = PresentDims().empty();
  if (!first && values.size() != num_samples_) {
    return InvalidArgumentError(
        "series for '" + std::string(catalog::ResourceDimName(dim)) +
        "' has " + std::to_string(values.size()) + " samples; trace has " +
        std::to_string(num_samples_));
  }
  if (first) num_samples_ = values.size();
  series_[Index(dim)] = std::move(values);
  present_[Index(dim)] = true;
  return OkStatus();
}

const std::vector<double>& PerfTrace::Values(catalog::ResourceDim dim) const {
  static const std::vector<double>* const kEmpty = new std::vector<double>();
  if (!Has(dim)) return *kEmpty;
  return series_[Index(dim)];
}

std::vector<catalog::ResourceDim> PerfTrace::PresentDims() const {
  std::vector<catalog::ResourceDim> dims;
  for (catalog::ResourceDim dim : catalog::kAllResourceDims) {
    if (Has(dim)) dims.push_back(dim);
  }
  return dims;
}

catalog::ResourceVector PerfTrace::DemandAt(std::size_t i) const {
  catalog::ResourceVector demand;
  for (catalog::ResourceDim dim : catalog::kAllResourceDims) {
    if (Has(dim) && i < series_[Index(dim)].size()) {
      demand.Set(dim, series_[Index(dim)][i]);
    }
  }
  return demand;
}

DemandColumns PerfTrace::Columns(
    const std::vector<catalog::ResourceDim>& dims) const {
  DemandColumns view;
  view.num_rows = num_samples_;
  for (catalog::ResourceDim dim : dims) {
    if (!Has(dim)) continue;
    view.columns[view.num_columns] = series_[Index(dim)].data();
    view.dims[view.num_columns] = dim;
    ++view.num_columns;
  }
  return view;
}

PerfTrace PerfTrace::Select(const std::vector<std::size_t>& indices) const {
  PerfTrace out(interval_seconds_);
  out.set_id(id_);
  for (catalog::ResourceDim dim : PresentDims()) {
    const std::vector<double>& source = Values(dim);
    std::vector<double> picked;
    picked.reserve(indices.size());
    for (std::size_t i : indices) {
      if (i < source.size()) picked.push_back(source[i]);
    }
    // All present dims share one length, so AddRow-style mismatch cannot
    // occur here; ignore the always-OK status.
    (void)out.SetSeries(dim, std::move(picked));
  }
  return out;
}

PerfTrace PerfTrace::Window(std::size_t start, std::size_t count) const {
  start = std::min(start, num_samples_);
  count = std::min(count, num_samples_ - start);
  std::vector<std::size_t> indices(count);
  for (std::size_t i = 0; i < count; ++i) indices[i] = start + i;
  return Select(indices);
}

}  // namespace doppler::telemetry
