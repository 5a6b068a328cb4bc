#include "common/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace gfi {

std::size_t worker_count(std::size_t workers) {
  if (workers == 0) workers = std::thread::hardware_concurrency();
  return workers == 0 ? 4 : workers;
}

void parallel_for(
    std::size_t workers, std::size_t count,
    const std::function<void(std::size_t worker, std::size_t i)>& fn) {
  std::atomic<std::size_t> next{0};
  std::mutex mutex;
  std::exception_ptr first_exception;
  auto work = [&](std::size_t worker) {
    while (true) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      // A throw must not end the worker: the batch drains first.
      try {
        fn(worker, i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex);
        if (!first_exception) first_exception = std::current_exception();
      }
    }
  };
  const std::size_t used = std::min(worker_count(workers), count);
  std::vector<std::thread> threads;
  threads.reserve(used);
  for (std::size_t worker = 1; worker < used; ++worker) {
    threads.emplace_back(work, worker);
  }
  work(0);
  for (std::thread& thread : threads) thread.join();
  if (first_exception) std::rethrow_exception(first_exception);
}

}  // namespace gfi
