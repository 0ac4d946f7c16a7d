// Persistent work-stealing thread pool: the execution layer every parallel
// codec data path runs on.
//
// The previous design spawned and joined fresh std::threads on every
// threaded encode call; with the SIMD kernels a stripe encodes in
// hundreds of microseconds, so thread creation dominated. This pool starts
// its workers once and parks them on a condition variable between calls.
//
// Structure: one deque per worker, guarded by a per-deque mutex. submit()
// distributes tasks round-robin; a worker pops its own deque LIFO (the task
// it queued last is the one whose data is hottest) and steals FIFO from the
// other deques when its own runs dry (the oldest task is the one least
// likely to contend with its owner). parallel_for() layers dynamic
// self-balancing on top: runners claim iteration indices from a shared
// atomic counter, so a slow slice never leaves the other runners idle.
//
// The calling thread always participates as a runner, which makes nested
// parallel_for calls deadlock-free (a caller that finds no free worker
// simply executes everything itself) and makes a zero-worker pool a valid
// serial executor.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

namespace galloper::rt {

class ThreadPool {
 public:
  using Task = std::function<void()>;

  // Starts `workers` persistent worker threads (0 is valid: every
  // parallel_for then runs entirely on the calling thread).
  explicit ThreadPool(size_t workers);

  // Drains already-submitted tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t workers() const { return threads_.size(); }

  // Enqueues a task for asynchronous execution (round-robin over the worker
  // deques). Fire-and-forget; parallel_for is the synchronizing wrapper the
  // codec paths use.
  void submit(Task task);

  // The process-wide pool shared by every CodecEngine. Sized by
  // default_threads() on first use and kept alive for the process lifetime.
  static ThreadPool& global();

  // GALLOPER_THREADS when set to a positive integer, else
  // std::thread::hardware_concurrency() (min 1).
  static size_t default_threads();

 private:
  struct Deque;

  bool try_run_one(size_t self);
  void worker_loop(size_t self);

  std::vector<std::unique_ptr<Deque>> deques_;
  std::vector<std::thread> threads_;

  struct Sync;
  std::unique_ptr<Sync> sync_;
};

// Runs body(i) for every i in [0, count) using up to `parallelism` runners
// (the caller plus at most parallelism-1 pool workers). Blocks until every
// index has executed. Indices are claimed dynamically, so unequal iteration
// costs self-balance. The first exception thrown by any body is rethrown in
// the caller after all indices finish. parallelism <= 1, count <= 1 or a
// zero-worker pool degrade to a plain serial loop — bit-identical results
// either way, since every index runs exactly once.
void parallel_for(ThreadPool& pool, size_t count, size_t parallelism,
                  const std::function<void(size_t)>& body);

}  // namespace galloper::rt
