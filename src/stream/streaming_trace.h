#ifndef DOPPLER_STREAM_STREAMING_TRACE_H_
#define DOPPLER_STREAM_STREAMING_TRACE_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "catalog/resource.h"
#include "telemetry/perf_trace.h"
#include "util/statusor.h"

namespace doppler::stream {

/// A sliding window over one customer's telemetry stream (DESIGN.md §13):
/// the newest `capacity` rows of an unbounded sequence, stored as a ring
/// of per-dimension columns. Rows are keyed by a monotone sequence number
/// assigned at append time; the live window is the half-open seq range
/// [first_seq, next_seq), and seq s lives in ring slot s % capacity.
///
/// The ring is the whole streaming state: it holds no derived caches, and
/// every statistic the monitor reads (Mean) is recomputed from the live
/// rows on demand.
///
/// Not internally synchronized: the owner (stream::CustomerWindow)
/// serialises mutation and concurrent reads behind its own lock.
class StreamingTrace {
 public:
  /// A window over `dims` (deduplicated, kept in enum order) holding at
  /// most `capacity` rows. `capacity` must be >= 1.
  StreamingTrace(const std::vector<catalog::ResourceDim>& dims,
                 std::size_t capacity,
                 std::int64_t interval_seconds = telemetry::kDmaIntervalSeconds);

  const std::string& id() const { return id_; }
  void set_id(std::string id) { id_ = std::move(id); }

  /// Window dimensions, in enum order.
  const std::vector<catalog::ResourceDim>& dims() const { return dims_; }
  bool Has(catalog::ResourceDim dim) const { return present_[Index(dim)]; }

  std::size_t capacity() const { return capacity_; }
  /// Live rows: next_seq() - first_seq().
  std::size_t size() const {
    return static_cast<std::size_t>(next_seq_ - first_seq_);
  }
  bool empty() const { return next_seq_ == first_seq_; }
  bool full() const { return size() == capacity_; }

  /// Oldest live sequence number (== next_seq() when empty).
  std::uint64_t first_seq() const { return first_seq_; }
  /// Sequence number the next Append will assign.
  std::uint64_t next_seq() const { return next_seq_; }

  std::int64_t interval_seconds() const { return interval_seconds_; }

  /// Ring slot of a sequence number.
  std::size_t SlotOf(std::uint64_t seq) const {
    return static_cast<std::size_t>(seq % capacity_);
  }

  /// Appends one row (values aligned with dims()) and returns its seq.
  /// Fails when the window is full — the caller evicts first.
  StatusOr<std::uint64_t> Append(const std::vector<double>& row);

  /// Evicts the oldest row. Fails when empty.
  Status PopFront();

  /// Value of `dim` at live sequence number `seq` (unchecked: seq must be
  /// in [first_seq, next_seq) and dim present).
  double ValueAt(catalog::ResourceDim dim, std::uint64_t seq) const {
    return ring_[Index(dim)][SlotOf(seq)];
  }

  /// Materialises the live window as a PerfTrace in seq order — row i of
  /// the result is seq first_seq()+i — carrying the trace id and cadence.
  /// This is the frozen snapshot assessments and the differential harness
  /// consume; by construction its row order equals window order, so
  /// window-relative row index = seq - first_seq().
  telemetry::PerfTrace Materialize() const;

  /// Mean of `dim` over the live rows, computed by stats::Mean over the
  /// values in seq order — bit-identical to TraceStatsCache::Mean over
  /// Materialize(). 0 when the window is empty or lacks `dim`.
  double Mean(catalog::ResourceDim dim) const;

 private:
  static constexpr std::size_t Index(catalog::ResourceDim dim) {
    return static_cast<std::size_t>(static_cast<int>(dim));
  }

  /// The live values of a present dimension, in seq order.
  std::vector<double> Column(catalog::ResourceDim dim) const;

  std::string id_;
  std::vector<catalog::ResourceDim> dims_;
  std::array<bool, catalog::kNumResourceDims> present_{};
  std::size_t capacity_;
  std::int64_t interval_seconds_;
  std::uint64_t first_seq_ = 0;
  std::uint64_t next_seq_ = 0;
  /// One capacity-sized column per present dimension.
  std::array<std::vector<double>, catalog::kNumResourceDims> ring_;
};

}  // namespace doppler::stream

#endif  // DOPPLER_STREAM_STREAMING_TRACE_H_
