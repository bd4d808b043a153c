#include "parallel/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdio>

namespace mbf {
namespace {

// Identifies the pool (and worker slot) owning the current thread, so
// submit() can push to the worker's own queue.
thread_local ThreadPool* tlsPool = nullptr;
thread_local std::size_t tlsWorkerIndex = 0;

std::atomic<bool> warnedTaskException{false};

// A task that throws must not take down its worker thread (std::thread
// would call std::terminate). parallelFor already captures and rethrows
// its body's exceptions on the calling thread; this is the containment
// of last resort for raw submit() tasks, which have no thread to report
// to — the exception is dropped with a one-time warning.
void runContained(const ThreadPool::Task& task) {
  try {
    task();
  } catch (...) {
    if (!warnedTaskException.exchange(true, std::memory_order_relaxed)) {
      std::fprintf(stderr,
                   "[mbf] warning: exception escaped a thread-pool task; "
                   "submit() tasks must catch their own errors\n");
    }
  }
}

}  // namespace

ThreadPool::ThreadPool(int workers) {
  const int n = std::max(1, workers);
  queues_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back(
        [this, i] { workerLoop(static_cast<std::size_t>(i)); });
  }
}

ThreadPool::~ThreadPool() {
  {
    // Under sleepMutex_: a worker between its wait-predicate check and
    // its sleep would otherwise miss this wakeup and never join.
    std::lock_guard<std::mutex> lock(sleepMutex_);
    stop_.store(true, std::memory_order_release);
  }
  wake_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::submit(Task task) {
  std::size_t target;
  if (tlsPool == this) {
    target = tlsWorkerIndex;
    {
      std::lock_guard<std::mutex> lock(queues_[target]->mutex);
      queues_[target]->tasks.push_front(std::move(task));
    }
  } else {
    target = nextQueue_.fetch_add(1, std::memory_order_relaxed) %
             queues_.size();
    std::lock_guard<std::mutex> lock(queues_[target]->mutex);
    queues_[target]->tasks.push_back(std::move(task));
  }
  {
    // Same lost-wakeup guard as the destructor: a sleeping worker must
    // observe the new pending count either before or after its sleep.
    std::lock_guard<std::mutex> lock(sleepMutex_);
    pending_.fetch_add(1, std::memory_order_release);
  }
  wake_.notify_one();
}

bool ThreadPool::popOwn(std::size_t index, Task& out) {
  WorkerQueue& q = *queues_[index];
  std::lock_guard<std::mutex> lock(q.mutex);
  if (q.tasks.empty()) return false;
  out = std::move(q.tasks.front());
  q.tasks.pop_front();
  return true;
}

bool ThreadPool::stealAny(std::size_t skip, Task& out) {
  const std::size_t n = queues_.size();
  for (std::size_t off = 0; off < n; ++off) {
    const std::size_t victim = (skip + 1 + off) % n;
    WorkerQueue& q = *queues_[victim];
    std::lock_guard<std::mutex> lock(q.mutex);
    if (q.tasks.empty()) continue;
    out = std::move(q.tasks.back());
    q.tasks.pop_back();
    return true;
  }
  return false;
}

bool ThreadPool::tryRunOne() {
  Task task;
  bool got = false;
  if (tlsPool == this) {
    got = popOwn(tlsWorkerIndex, task);
  }
  if (!got) got = stealAny(queues_.size() - 1, task);
  if (!got) return false;
  pending_.fetch_sub(1, std::memory_order_release);
  runContained(task);
  return true;
}

void ThreadPool::workerLoop(std::size_t index) {
  tlsPool = this;
  tlsWorkerIndex = index;
  while (true) {
    Task task;
    if (popOwn(index, task) || stealAny(index, task)) {
      pending_.fetch_sub(1, std::memory_order_release);
      runContained(task);
      continue;
    }
    std::unique_lock<std::mutex> lock(sleepMutex_);
    wake_.wait(lock, [this] {
      return stop_.load(std::memory_order_acquire) ||
             pending_.load(std::memory_order_acquire) > 0;
    });
    if (stop_.load(std::memory_order_acquire) &&
        pending_.load(std::memory_order_acquire) == 0) {
      return;
    }
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(
      static_cast<int>(std::thread::hardware_concurrency()));
  return pool;
}

int ThreadPool::resolveThreads(int requested) {
  if (requested < 0) return 1;
  if (requested == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
  }
  return requested;
}

}  // namespace mbf
