// Fans independent jobs out across host threads: every injection run is an
// independent simulation, so the workers share nothing but the counter they
// take indices from. Results are written into caller-owned slots (one per
// index), and each worker may own state of its own, indexed by its worker
// id, that needs no lock.
#pragma once

#include <cstddef>
#include <functional>

namespace gfi {

/// `workers` resolved: 0 means std::thread::hardware_concurrency (4 when
/// that is unknown).
[[nodiscard]] std::size_t worker_count(std::size_t workers);

/// Runs fn(worker, i) for every i in [0, count), indices taken in order
/// from one shared counter. The calling thread is worker 0, beside
/// min(worker_count(workers), count) - 1 threads spawned for the call and
/// joined before it returns, so one worker runs every index in order on
/// the calling thread and starts no thread. If any fn(worker, i) throws,
/// the rest of the batch still runs, and the first exception is rethrown
/// once every thread has joined.
void parallel_for(
    std::size_t workers, std::size_t count,
    const std::function<void(std::size_t worker, std::size_t i)>& fn);

}  // namespace gfi
