#ifndef DOPPLER_EXEC_THREAD_POOL_H_
#define DOPPLER_EXEC_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace doppler::exec {

/// Fixed-size worker pool with one shared bounded FIFO queue — deliberately
/// work-stealing-free so scheduling stays easy to reason about (and so the
/// determinism contract in DESIGN.md §7 is trivially upheld: tasks never
/// migrate, results are written to caller-owned slots by index).
///
/// Overflow policy: when the queue is full the submitting thread runs the
/// task inline ("caller runs"), and a thread blocked in ParallelFor keeps
/// draining queued tasks while it waits. Together these make nested use
/// safe: a worker that fans out sub-tasks can never deadlock — overflow
/// work runs on the submitter, queued work runs on whichever blocked
/// thread picks it up first.
///
/// Instrumentation: `exec.queue_depth` (gauge, current queued tasks) and
/// `exec.task_latency` (histogram, submit-to-completion seconds) in
/// obs::DefaultMetrics(); `exec.tasks_executed` counts completions and
/// `exec.tasks_inline` the caller-runs overflows.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to >= 1). `queue_capacity`
  /// bounds the backlog; submissions beyond it run on the caller.
  explicit ThreadPool(int num_threads, std::size_t queue_capacity = 256);

  /// Drains the queue and joins every worker.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues `task` and returns a future that becomes ready when it has
  /// run. When the queue is full, the task runs synchronously on the
  /// calling thread (the future is ready on return).
  std::future<void> Submit(std::function<void()> task);

  /// Admission-control variant: enqueues `task` only if the queue has
  /// room, and returns false — WITHOUT running or retaining the task —
  /// when it is full or the pool is shutting down. Never blocks and never
  /// runs the task on the caller, which is what a load-shedding server
  /// needs (the caller-runs overflow of Submit would turn overload into
  /// unbounded admission latency instead of a fast reject).
  bool TrySubmit(std::function<void()> task);

  /// Applies `fn(begin, end)` over [0, n) split into roughly
  /// 2x-threads chunks, the calling thread working alongside the pool
  /// (running its own chunk first, then draining queued tasks while it
  /// waits), and blocks until every chunk completed. Chunk boundaries
  /// depend only on `n` and the pool size — never on scheduling — so
  /// callers that write results by index get identical output at any
  /// thread count. The curve build (PricePerformanceCurve::Build) fans its
  /// per-candidate Eq. 1 scans out through here; any state the workers
  /// share must keep both results AND counter charges
  /// schedule-independent to uphold the DESIGN.md §7 determinism contract.
  void ParallelFor(std::size_t n,
                   const std::function<void(std::size_t, std::size_t)>& fn);

  /// Tasks currently waiting in the queue (diagnostic; racy by nature).
  std::size_t QueueDepth() const;

  /// std::thread::hardware_concurrency with a >= 1 floor.
  static int HardwareConcurrency();

 private:
  struct QueuedTask {
    std::packaged_task<void()> work;
    std::int64_t enqueue_ns = 0;
  };

  void WorkerLoop();
  bool RunOneQueuedTask();
  static void RunTask(QueuedTask task, bool inline_run);

  mutable std::mutex mu_;
  std::condition_variable task_ready_;
  std::deque<QueuedTask> queue_;
  std::size_t queue_capacity_;
  bool shutting_down_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace doppler::exec

#endif  // DOPPLER_EXEC_THREAD_POOL_H_
