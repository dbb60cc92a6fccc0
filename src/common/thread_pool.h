// qsyn/common/thread_pool.h
//
// Minimal reusable worker pool for data-parallel sweeps.
//
// The pool owns `threads - 1` long-lived workers; the calling thread joins
// every round as worker 0, so a pool of size 1 spawns no threads and runs
// everything inline (identical to not having a pool at all). Rounds are
// dispatched through an atomic task counter, so uneven task costs balance
// dynamically. The first exception thrown by any task is captured and
// rethrown on the calling thread after the round drains; once an error is
// recorded, workers abandon the round's remaining tasks.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace qsyn {

/// Fixed-size pool of worker threads executing indexed task batches.
class ThreadPool {
 public:
  /// A round's body: invoked once per task index with the index of the
  /// worker running it (0 = calling thread, 1..size()-1 = pool workers).
  using Task = std::function<void(std::size_t task, std::size_t worker)>;

  /// `threads` = total parallelism including the caller; 0 picks
  /// default_thread_count().
  explicit ThreadPool(std::size_t threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  ~ThreadPool();

  /// Total parallelism (callers + workers); always >= 1.
  [[nodiscard]] std::size_t size() const { return workers_.size() + 1; }

  /// Runs fn(task, worker) for every task in [0, tasks), blocking until all
  /// complete. Rethrows the first task exception. Not reentrant. A round of
  /// one task runs inline on the caller, as worker 0.
  void run(std::size_t tasks, const Task& fn);

  /// Thread count from the QSYN_THREADS environment variable when set to a
  /// positive integer, otherwise std::thread::hardware_concurrency()
  /// (minimum 1).
  [[nodiscard]] static std::size_t default_thread_count();

 private:
  void worker_loop(std::size_t worker);
  void drain_tasks(std::size_t worker);

  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable round_start_;
  std::condition_variable round_done_;
  std::uint64_t round_ = 0;  // bumped per run(); workers wake on change
  bool stopping_ = false;
  std::size_t tasks_ = 0;
  const Task* fn_ = nullptr;
  std::atomic<std::size_t> next_task_{0};
  std::size_t workers_active_ = 0;  // workers still draining this round
  std::atomic<bool> has_error_{false};
  std::exception_ptr first_error_;
};

}  // namespace qsyn
