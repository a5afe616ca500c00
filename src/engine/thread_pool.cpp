#include "engine/thread_pool.h"

#include <algorithm>
#include <exception>
#include <memory>

namespace nbv6::engine {

int resolve_lanes(int threads) {
  if (threads > 0) return threads;
  return std::max(static_cast<int>(std::thread::hardware_concurrency()), 1);
}

ThreadPool::ThreadPool(int threads) {
  threads = resolve_lanes(threads);
  workers_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    core::MutexLock lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    core::MutexLock lock(mutex_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      core::MutexLock lock(mutex_);
      while (!stop_ && queue_.empty()) cv_.wait(lock);
      if (queue_.empty()) return;  // stop_ with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  if (count == 1) {
    fn(0);
    return;
  }

  // One batch state shared by every lane; lanes drain the ticket counter.
  struct Batch {
    std::atomic<std::size_t> next{0};
    std::atomic<int> lanes_done{0};
    core::Mutex m;
    core::CondVar done;
    std::exception_ptr error NBV6_GUARDED_BY(m);  ///< first throw, any lane
  };
  auto batch = std::make_shared<Batch>();

  // Record a lane's throw (first one wins) and stop handing out tickets so
  // the remaining lanes drain quickly instead of finishing the batch.
  auto capture = [batch, count](std::exception_ptr e) {
    {
      core::MutexLock lock(batch->m);
      if (!batch->error) batch->error = std::move(e);
    }
    batch->next.store(count, std::memory_order_relaxed);
  };

  auto lane = [batch, count, &fn] {
    for (;;) {
      std::size_t i = batch->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) break;
      fn(i);
    }
  };

  // The caller is one lane; pool workers add up to count-1 more. Worker
  // lanes must never let an exception reach worker_loop (an unwound pool
  // thread would terminate the process); they capture it for the caller to
  // rethrow instead.
  const int extra = static_cast<int>(
      std::min<std::size_t>(workers_.size(), count - 1));
  for (int w = 0; w < extra; ++w) {
    submit([batch, lane, capture] {
      try {
        lane();
      } catch (...) {
        capture(std::current_exception());
      }
      {
        core::MutexLock lock(batch->m);
        batch->lanes_done.fetch_add(1, std::memory_order_relaxed);
      }
      batch->done.notify_one();
    });
  }
  // Run the caller's lane, but never unwind past the wait: the submitted
  // tasks reference `fn` and caller-owned state, so they must all drain
  // before this frame can die — even when fn throws.
  try {
    lane();
  } catch (...) {
    capture(std::current_exception());
  }

  // Wait for the extra lanes; each increments lanes_done exactly once.
  std::exception_ptr error;
  {
    core::MutexLock lock(batch->m);
    while (batch->lanes_done.load() != extra) batch->done.wait(lock);
    // All lanes have drained: the pool is reusable and batch state is
    // stable. Copy the error out while the lock shows the analysis the
    // guarded read is safe.
    error = batch->error;
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace nbv6::engine
