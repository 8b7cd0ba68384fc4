#include "common/thread_pool.h"

#include <algorithm>

#include "common/env.h"

namespace kgnet::common {

namespace {

/// True while this thread is executing chunks — on a pool worker for
/// its whole life, on a caller thread for the duration of its own
/// ParallelFor. A nested ParallelFor runs inline instead of deadlocking
/// on the pool (or the non-recursive job mutex) it is already inside.
/// kgnet-lint: thread_local-ok — per-thread re-entrancy flag by design;
/// it must NOT be shared (a process-wide flag would serialize unrelated
/// callers and a false value on a worker would self-deadlock; see the
/// nested-inlining test in tests/test_thread_pool.cc).
thread_local bool t_in_parallel = false;

int HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int DefaultThreads() {
  // Resolved once (first num_threads() call) and cached, so an invalid
  // value warns once.
  return static_cast<int>(EnvInt("KGNET_NUM_THREADS", 1,
                                 ThreadPool::kMaxThreads, HardwareThreads()));
}

/// 0 = not yet resolved from the environment.
std::atomic<int> g_num_threads{0};

}  // namespace

ThreadPool& ThreadPool::Instance() {
  static ThreadPool pool;
  return pool;
}

int ThreadPool::num_threads() {
  int n = g_num_threads.load(std::memory_order_relaxed);
  if (n == 0) {
    n = DefaultThreads();
    g_num_threads.store(n, std::memory_order_relaxed);
  }
  return n;
}

void ThreadPool::SetNumThreads(int n) {
  g_num_threads.store(std::max(1, n), std::memory_order_relaxed);
}

ThreadPool::~ThreadPool() {
  // Move the handles out under the lock; joining must happen unlocked
  // (a worker's final loop iteration still takes mu_) and the threads
  // never touch the vector itself.
  std::vector<std::thread> workers;
  {
    MutexLock lk(&mu_);
    stop_ = true;
    workers.swap(workers_);
  }
  wake_cv_.NotifyAll();
  for (std::thread& t : workers) t.join();
}

void ThreadPool::EnsureWorkersLocked(size_t target) {
  while (workers_.size() < target)
    workers_.emplace_back(&ThreadPool::WorkerLoop, this);
}

void ThreadPool::RunChunks() {
  // Lock-free by design (declared KGNET_NO_THREAD_SAFETY_ANALYSIS): the
  // job descriptor fields are stable for the whole job. Workers read
  // them after observing the epoch_ bump under mu_ in WorkerLoop (which
  // orders them after the caller's writes), and the caller does not
  // return from ParallelFor — let alone publish a new job — before
  // every claimed chunk finished.
  for (;;) {
    const size_t c = next_chunk_.fetch_add(1, std::memory_order_relaxed);
    if (c >= job_chunks_) return;
    const size_t b = job_begin_ + c * job_grain_;
    const size_t e = std::min(job_end_, b + job_grain_);
    try {
      (*job_fn_)(b, e);
    } catch (...) {
      MutexLock lk(&mu_);
      if (!error_) error_ = std::current_exception();
    }
  }
}

void ThreadPool::WorkerLoop() {
  t_in_parallel = true;
  uint64_t seen_epoch = 0;
  mu_.Lock();
  for (;;) {
    while (!stop_ && epoch_ == seen_epoch) wake_cv_.Wait(mu_);
    if (stop_) break;
    seen_epoch = epoch_;
    // Admit at most max_participants_ workers per job (SetNumThreads
    // governs concurrency even when earlier jobs spawned more workers),
    // and none once the job's caller already observed completion — a
    // late worker must not touch job state a next job may be rewriting.
    if (!job_open_ || participants_ >= max_participants_) continue;
    ++participants_;
    ++busy_;
    mu_.Unlock();
    RunChunks();
    mu_.Lock();
    --busy_;
    if (busy_ == 0) done_cv_.NotifyAll();
  }
  mu_.Unlock();
}

void ThreadPool::ParallelFor(size_t begin, size_t end, size_t grain,
                             const std::function<void(size_t, size_t)>& fn) {
  if (begin >= end) return;
  if (grain == 0) grain = 1;
  const size_t chunks = (end - begin + grain - 1) / grain;
  const int threads = num_threads();
  if (threads <= 1 || chunks <= 1 || t_in_parallel) {
    // Inline path: identical chunk bounds, sequential execution, and the
    // same exception semantics as the pooled path — every chunk runs,
    // the first exception is rethrown afterwards. (Aborting mid-range
    // here would make side effects diverge by thread count.)
    std::exception_ptr first_error;
    for (size_t c = 0; c < chunks; ++c) {
      const size_t b = begin + c * grain;
      try {
        fn(b, std::min(end, b + grain));
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
    if (first_error) std::rethrow_exception(first_error);
    return;
  }

  MutexLock job_lock(&job_mutex_);
  const size_t helpers =
      std::min<size_t>(static_cast<size_t>(threads), chunks) - 1;
  {
    MutexLock lk(&mu_);
    EnsureWorkersLocked(helpers);
    job_begin_ = begin;
    job_end_ = end;
    job_grain_ = grain;
    job_chunks_ = chunks;
    job_fn_ = &fn;
    next_chunk_.store(0, std::memory_order_relaxed);
    error_ = nullptr;
    participants_ = 0;
    max_participants_ = static_cast<int>(helpers);
    job_open_ = true;
    ++epoch_;
  }
  wake_cv_.NotifyAll();
  t_in_parallel = true;  // chunks re-entering the pool must run inline
  RunChunks();           // the calling thread participates
  t_in_parallel = false;
  std::exception_ptr err;
  {
    MutexLock lk(&mu_);
    while (busy_ != 0) done_cv_.Wait(mu_);
    // Same lock hold as the final busy_ == 0 observation: no worker can
    // be admitted between the check and the close.
    job_open_ = false;
    job_fn_ = nullptr;
    err = error_;
    error_ = nullptr;
  }
  if (err) std::rethrow_exception(err);
}

}  // namespace kgnet::common
