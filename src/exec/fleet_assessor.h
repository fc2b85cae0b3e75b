#ifndef DOPPLER_EXEC_FLEET_ASSESSOR_H_
#define DOPPLER_EXEC_FLEET_ASSESSOR_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "dma/pipeline.h"
#include "util/statusor.h"

namespace doppler::exec {

/// The system's one level of parallelism (paper §4: DMA assesses whole
/// estates, one SKU recommendation per database server). A batch is a row
/// of slots; ForEachSlot runs up to `jobs` workers, and each worker claims
/// the next unclaimed slot and does all of that slot's work — in
/// `doppler assess-batch`, read, gate, assess and render one trace — before
/// it claims another. Each slot writes only its own caller-owned result,
/// so the results are in slot order and byte-identical to a serial run:
/// `jobs` changes wall-clock only.
///
/// Nothing fans out below the workers: the pipeline scores SKUs serially
/// unless its caller sets SkuRecommendationPipeline::Config::num_threads.
class FleetAssessor {
 public:
  /// Borrows `pipeline` (must outlive the assessor). `jobs < 1` counts as
  /// one job. The assessor holds no threads between calls.
  FleetAssessor(const dma::SkuRecommendationPipeline* pipeline, int jobs);

  /// Runs `slot(i)` once for every i in [0, n) on min(jobs, n) threads,
  /// the calling thread being one of them, and returns when every slot
  /// has run. Each thread claims the next unclaimed index, so slots of
  /// uneven cost balance across the threads. No thread starts when
  /// min(jobs, n) <= 1; a thread the OS refuses to start leaves its
  /// share to the threads that did. If a slot throws, the threads claim
  /// no more slots, and the first exception is rethrown here once every
  /// thread has stopped.
  void ForEachSlot(std::size_t n,
                   const std::function<void(std::size_t)>& slot) const;

  /// Assesses every request; result i corresponds to requests[i]. Per-
  /// request failures are carried as error slots, never thrown across the
  /// batch: one bad trace does not sink the fleet.
  std::vector<StatusOr<dma::AssessmentOutcome>> AssessAll(
      const std::vector<dma::AssessmentRequest>& requests) const;

  /// Same fan-out, but runs only the masked pipeline stages per request
  /// (dma::StageMask): a backtest sweep can stop after the recommend
  /// stage, a quality audit after the quality stage, without paying for
  /// the rest of the monolith.
  std::vector<StatusOr<dma::AssessmentOutcome>> AssessAll(
      const std::vector<dma::AssessmentRequest>& requests,
      dma::StageMask stages) const;

  int jobs() const { return jobs_; }

 private:
  const dma::SkuRecommendationPipeline* pipeline_;
  int jobs_;
};

}  // namespace doppler::exec

#endif  // DOPPLER_EXEC_FLEET_ASSESSOR_H_
