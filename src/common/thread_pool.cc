#include "common/thread_pool.h"

#include <utility>

namespace gfi {

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::thread::hardware_concurrency();
    if (num_threads == 0) num_threads = 4;
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push(std::move(job));
    ++in_flight_;
  }
  work_available_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
  if (first_exception_) {
    // Surface the failure on the submitting thread (one rethrow per batch;
    // later exceptions from the same batch were already dropped).
    std::exception_ptr exception = std::exchange(first_exception_, nullptr);
    lock.unlock();
    std::rethrow_exception(exception);
  }
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  for (std::size_t i = 0; i < count; ++i) {
    submit([&fn, i] { fn(i); });
  }
  wait_idle();
}

void ThreadPool::worker_loop() {
  while (true) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(
          lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutting down
      job = std::move(queue_.front());
      queue_.pop();
    }
    // A job that throws must not escape: it would std::terminate the worker
    // thread AND skip the in_flight_ decrement, deadlocking wait_idle().
    // The first exception of a batch is kept and rethrown from wait_idle().
    std::exception_ptr exception;
    try {
      job();
    } catch (...) {
      exception = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (exception && !first_exception_) {
        first_exception_ = std::move(exception);
      }
      if (--in_flight_ == 0) all_done_.notify_all();
    }
  }
}

}  // namespace gfi
