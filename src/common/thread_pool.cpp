#include "common/thread_pool.h"

#include <cstdlib>

#include "common/env.h"
#include "common/error.h"

namespace qsyn {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = default_thread_count();
  QSYN_CHECK(threads <= 1024, "unreasonable thread count");
  workers_.reserve(threads - 1);
  try {
    for (std::size_t w = 1; w < threads; ++w) {
      workers_.emplace_back([this, w] { worker_loop(w); });
    }
  } catch (...) {
    // A failed spawn (resource exhaustion) must not leave joinable threads
    // behind — the destructor does not run for a half-built object.
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    round_start_.notify_all();
    for (std::thread& worker : workers_) worker.join();
    throw;
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  round_start_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::run(std::size_t tasks, const Task& fn) {
  if (tasks == 0) return;
  // A lone task has nothing to overlap with: run it on the caller and skip
  // the wake-up round trip (worker 0 is the caller in every round).
  if (workers_.empty() || tasks == 1) {
    for (std::size_t t = 0; t < tasks; ++t) fn(t, 0);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    QSYN_CHECK(fn_ == nullptr, "ThreadPool::run is not reentrant");
    fn_ = &fn;
    tasks_ = tasks;
    next_task_.store(0, std::memory_order_relaxed);
    has_error_.store(false, std::memory_order_relaxed);
    first_error_ = nullptr;
    workers_active_ = workers_.size();
    ++round_;
  }
  round_start_.notify_all();
  drain_tasks(0);
  std::unique_lock<std::mutex> lock(mutex_);
  round_done_.wait(lock, [this] { return workers_active_ == 0; });
  fn_ = nullptr;
  if (first_error_ != nullptr) {
    std::exception_ptr error = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(error);
  }
}

void ThreadPool::worker_loop(std::size_t worker) {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      round_start_.wait(lock,
                        [this, seen] { return stopping_ || round_ != seen; });
      if (stopping_) return;
      seen = round_;
    }
    drain_tasks(worker);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--workers_active_ == 0) round_done_.notify_one();
    }
  }
}

void ThreadPool::drain_tasks(std::size_t worker) {
  // fn_ and tasks_ are written under mutex_ before the round starts and read
  // only after the worker synchronizes on that mutex (or, for the caller,
  // on the same thread), so plain reads are safe here.
  const Task& fn = *fn_;
  const std::size_t tasks = tasks_;
  for (;;) {
    if (has_error_.load(std::memory_order_relaxed)) return;
    const std::size_t task = next_task_.fetch_add(1, std::memory_order_relaxed);
    if (task >= tasks) return;
    try {
      fn(task, worker);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (first_error_ == nullptr) first_error_ = std::current_exception();
      has_error_.store(true, std::memory_order_relaxed);
    }
  }
}

std::size_t ThreadPool::default_thread_count() {
  // Strict parse: "8abc" used to half-apply as 8 threads via strtoul; now
  // it warns once and falls through to the hardware count.
  if (const auto parsed = parse_env_size_t("QSYN_THREADS", 1, 1024)) {
    return *parsed;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace qsyn
