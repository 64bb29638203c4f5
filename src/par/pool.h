// Shared worker-pool utility under the campaign grids and the city engine.
// A pool owns `jobs - 1` helper threads; the calling thread always
// participates as worker 0, so `jobs == 1` degenerates to inline execution
// with no threads spawned and no synchronization.
//
// One dispatch shape: ParallelEach(n, fn) runs fn(worker, i) with indices
// claimed dynamically from an atomic counter — the right shape for
// irregular work like campaign cells, where callers index results by `i`
// so ordering never depends on scheduling. ParallelEachUntil adds a
// graceful drain.
//
// Both calls are barriers: they return only after every index has been
// processed, and the completion handshake establishes a happens-before edge
// from all worker writes to the caller.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace cnv::par {

// Number of hardware threads, always >= 1.
int HardwareJobs();

// Resolves a user-facing `--jobs` value: 0 means "use the hardware", anything
// else is clamped to >= 1.
int ResolveJobs(int jobs);

class WorkerPool {
 public:
  // jobs == 0 selects HardwareJobs(). The pool spawns jobs - 1 threads.
  explicit WorkerPool(int jobs = 0);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int jobs() const { return jobs_; }

  // Runs fn(worker, i) for every i in [0, n); indices are claimed dynamically.
  void ParallelEach(std::size_t n,
                    const std::function<void(int, std::size_t)>& fn);

  // ParallelEach with a graceful drain: once *stop becomes true, workers
  // finish the indices they already claimed and stop claiming new ones. The
  // call still barriers; indices beyond the drain point are simply never
  // dispatched. `stop == nullptr` behaves exactly like ParallelEach.
  void ParallelEachUntil(std::size_t n,
                         const std::function<void(int, std::size_t)>& fn,
                         const std::atomic<bool>* stop);

  // Cumulative wall-clock seconds each worker spent inside task bodies.
  // Telemetry only (worker-utilization gauges); never feeds a deterministic
  // output.
  std::vector<double> BusySeconds() const;

 private:
  void WorkerMain(int worker);
  // Dispatches body(worker) on all workers (including the caller) and waits.
  void RunOnAll(const std::function<void(int)>& body);
  // Runs body(worker) and accrues its wall time to busy_[worker].
  void RunTimed(int worker, const std::function<void(int)>& body);

  int jobs_ = 1;
  std::vector<std::thread> threads_;
  std::vector<double> busy_;  // one slot per worker; owner-thread writes only

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::uint64_t generation_ = 0;  // bumped per dispatched task
  int pending_ = 0;               // helpers still running the current task
  bool stopping_ = false;
  std::function<void(int)> task_;

  std::atomic<std::size_t> next_index_{0};  // for ParallelEach
};

}  // namespace cnv::par
