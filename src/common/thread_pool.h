// Fixed-size worker pool used to fan injection runs out across host cores.
//
// Each injection run is an independent simulation, so the pool only needs
// fire-and-wait semantics: submit N jobs, wait for all. Results are written
// into caller-owned slots (one per job) to avoid synchronization on the
// result path.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace gfi {

class ThreadPool {
 public:
  /// Creates `num_threads` workers; 0 means std::thread::hardware_concurrency.
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a job. Safe to call from any thread.
  void submit(std::function<void()> job);

  /// Blocks until every submitted job has finished executing. If any job
  /// threw, the first captured exception is rethrown here (the remaining
  /// jobs of the batch still ran to completion).
  void wait_idle();

  /// Runs fn(i) for i in [0, count) across the pool and waits for completion.
  /// Rethrows the first exception any fn(i) threw, after the batch drains.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn);

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::size_t in_flight_ = 0;
  std::exception_ptr first_exception_;  ///< first throw since last wait_idle
  bool shutting_down_ = false;
};

}  // namespace gfi
