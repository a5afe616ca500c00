// A small reusable worker pool for the fleet engine and the parallel
// statistics paths.
//
// Design goals, in order: deterministic results (the pool never decides
// *what* work produces — callers partition work into index-addressed units
// whose outputs land in caller-owned slots), low overhead for coarse tasks
// (one condition-variable wake per task batch, not per task), and zero
// dependencies beyond std::thread. This is deliberately not a work-stealing
// scheduler: fleet shards and STL cycle-subseries are coarse, uniform-ish
// units where an atomic ticket counter load-balances fine.
#pragma once

#include <atomic>
#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "core/thread_annotations.h"

namespace nbv6::engine {

/// Lanes for a lane-count knob (FleetConfig::threads, the bench binaries'
/// --threads): `threads` <= 0 selects std::thread::hardware_concurrency()
/// (min 1), anything else is taken as given.
int resolve_lanes(int threads);

class ThreadPool {
 public:
  /// resolve_lanes(threads) workers.
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int size() const { return static_cast<int>(workers_.size()); }

  /// Enqueue one task. Tasks must not throw (the pool calls std::terminate
  /// via noexcept propagation otherwise) and must not block on the pool's
  /// own queue (no nested parallel_for from inside a task).
  void submit(std::function<void()> task);

  /// Run fn(i) for every i in [0, count) across the pool, blocking the
  /// caller until all iterations finish. Iterations are claimed dynamically
  /// via an atomic ticket, so skewed per-index costs (a heavy-streamer
  /// residence next to a vacant one) still balance. The calling thread
  /// participates, so a pool of size 1 plus the caller runs two lanes.
  /// Exception-safe: if fn throws on any lane (worker or caller), ticket
  /// hand-out stops, every lane drains, and the first exception is rethrown
  /// on the caller after the batch completes — the pool stays usable.
  /// Iterations already claimed when the throw lands still run.
  void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  core::Mutex mutex_;
  std::deque<std::function<void()>> queue_ NBV6_GUARDED_BY(mutex_);
  core::CondVar cv_;
  bool stop_ NBV6_GUARDED_BY(mutex_) = false;
};

}  // namespace nbv6::engine
