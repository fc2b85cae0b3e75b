#include "exec/fleet_assessor.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace doppler::exec {

FleetAssessor::FleetAssessor(const dma::SkuRecommendationPipeline* pipeline,
                             int jobs)
    : pipeline_(pipeline), jobs_(jobs < 1 ? 1 : jobs) {}

void FleetAssessor::ForEachSlot(
    std::size_t n, const std::function<void(std::size_t)>& slot) const {
  DOPPLER_TRACE_SPAN("exec.fleet_assess");
  static obs::Counter* const kFleetRequests =
      obs::DefaultMetrics().GetCounter("exec.fleet_requests");
  kFleetRequests->Increment(n);

  std::atomic<std::size_t> next{0};
  std::mutex failure_mu;
  std::exception_ptr failure;  // The first slot exception; guarded.
  const auto claim_slots = [&] {
    try {
      for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
           i < n; i = next.fetch_add(1, std::memory_order_relaxed)) {
        slot(i);
      }
    } catch (...) {
      next.store(n, std::memory_order_relaxed);  // Claim nothing more.
      const std::lock_guard<std::mutex> lock(failure_mu);
      if (failure == nullptr) failure = std::current_exception();
    }
  };
  {
    // jthreads join on scope exit, so no thread outlives `slot`.
    std::vector<std::jthread> helpers;
    const std::size_t threads = std::min(n, static_cast<std::size_t>(jobs_));
    for (std::size_t t = 1; t < threads; ++t) {
      try {
        helpers.emplace_back(claim_slots);
      } catch (const std::system_error&) {
        break;  // The threads already running claim the rest.
      }
    }
    claim_slots();
  }
  if (failure != nullptr) std::rethrow_exception(failure);
}

std::vector<StatusOr<dma::AssessmentOutcome>> FleetAssessor::AssessAll(
    const std::vector<dma::AssessmentRequest>& requests) const {
  return AssessAll(requests, dma::kAllStages);
}

std::vector<StatusOr<dma::AssessmentOutcome>> FleetAssessor::AssessAll(
    const std::vector<dma::AssessmentRequest>& requests,
    dma::StageMask stages) const {
  std::vector<StatusOr<dma::AssessmentOutcome>> results(
      requests.size(), InternalError("request not assessed"));
  ForEachSlot(requests.size(), [&](std::size_t i) {
    results[i] = pipeline_->AssessStages(requests[i], stages);
  });
  return results;
}

}  // namespace doppler::exec
