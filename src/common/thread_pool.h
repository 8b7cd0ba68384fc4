// A lazily-started shared worker pool with one primitive: ParallelFor.
//
// Every parallel hot path in the tree (dense GEMM tiles, SpMM row
// ranges, the N-Triples parse phase, batched link scoring) runs on this
// one pool, so the process never oversubscribes the machine no matter
// how many layers go parallel at once. Index compaction and SPARQL query
// execution are serial and never use it. Thread count comes from the
// KGNET_NUM_THREADS environment variable (docs/SERVING.md "Settings"),
// or SetNumThreads(), defaulting to hardware_concurrency().
//
// Determinism contract: ParallelFor(begin, end, grain, fn) always cuts
// [begin, end) into the same chunks — chunk i covers
// [begin + i*grain, min(end, begin + (i+1)*grain)) — regardless of the
// thread count; only *which thread* runs a chunk varies. Callers whose
// numeric results depend on work partitioning (per-partition partial
// buffers reduced in order, per-chunk error slots) can therefore key
// their state off the chunk bounds and stay bitwise-identical for any
// KGNET_NUM_THREADS.
#ifndef KGNET_COMMON_THREAD_POOL_H_
#define KGNET_COMMON_THREAD_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"

namespace kgnet::common {

/// The process-wide worker pool. Workers start lazily on the first
/// parallel ParallelFor call and idle between jobs; with one configured
/// thread (or a single chunk) ParallelFor runs inline and the pool never
/// starts.
class ThreadPool {
 public:
  /// The shared pool instance.
  static ThreadPool& Instance();

  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Largest KGNET_NUM_THREADS value accepted (docs/SERVING.md
  /// "Settings"); anything else falls back to hardware_concurrency.
  static constexpr int kMaxThreads = 1024;

  /// Threads ParallelFor may use, resolved once from KGNET_NUM_THREADS
  /// (falling back to hardware_concurrency, minimum 1) and overridable
  /// via SetNumThreads. Counts the calling thread: n means the caller
  /// plus n-1 pool workers.
  static int num_threads();

  /// Overrides the thread count (clamped to >= 1) for subsequent
  /// ParallelFor calls. Benchmarks and determinism tests use this to
  /// sweep thread counts inside one process.
  static void SetNumThreads(int n);

  /// Invokes fn(chunk_begin, chunk_end) for every grain-sized chunk of
  /// [begin, end), across the pool. Blocks until every chunk ran. The
  /// calling thread participates, so the work uses at most num_threads()
  /// threads. Chunk bounds are a pure function of (begin, end, grain) —
  /// see the determinism contract above. An empty range is a no-op; a
  /// grain of 0 acts as 1. If a chunk throws, the first exception is
  /// rethrown here after all claimed chunks finished; the pool stays
  /// usable. Concurrent ParallelFor calls from different threads are
  /// serialized; a nested call from inside a chunk runs inline on the
  /// worker (same chunk bounds, sequential).
  void ParallelFor(size_t begin, size_t end, size_t grain,
                   const std::function<void(size_t, size_t)>& fn);

 private:
  ThreadPool() = default;

  void WorkerLoop();
  /// Claims and runs chunks of the current job until none remain.
  /// Analysis opt-out: reads the job_* descriptor fields lock-free —
  /// see the protocol comment on the definition.
  void RunChunks() KGNET_NO_THREAD_SAFETY_ANALYSIS;
  /// Spawns workers until `target` exist.
  void EnsureWorkersLocked(size_t target) KGNET_REQUIRES(mu_);

  Mutex job_mutex_;  // serializes ParallelFor calls across threads

  Mutex mu_;  // guards everything below
  CondVar wake_cv_;
  CondVar done_cv_;
  std::vector<std::thread> workers_ KGNET_GUARDED_BY(mu_);
  bool stop_ KGNET_GUARDED_BY(mu_) = false;
  /// Bumped once per job; workers wake on change.
  uint64_t epoch_ KGNET_GUARDED_BY(mu_) = 0;
  /// False once the job's ParallelFor returned.
  bool job_open_ KGNET_GUARDED_BY(mu_) = false;
  int busy_ KGNET_GUARDED_BY(mu_) = 0;          // workers running chunks
  int participants_ KGNET_GUARDED_BY(mu_) = 0;  // admitted to current job
  int max_participants_ KGNET_GUARDED_BY(mu_) = 0;
  // Current job descriptor. Written under mu_ by ParallelFor before the
  // epoch_ bump publishes the job; workers read it lock-free in
  // RunChunks, made safe by the job protocol (a worker only reaches
  // RunChunks after observing the new epoch_ under mu_, which orders
  // the descriptor writes before its reads, and ParallelFor does not
  // return — let alone rewrite the descriptor — until busy_ drops to 0
  // and job_open_ closes under the same lock). The GUARDED_BY mirrors
  // the writer side; the one lock-free reader is RunChunks, which is
  // KGNET_NO_THREAD_SAFETY_ANALYSIS with this comment as its warrant.
  size_t job_begin_ KGNET_GUARDED_BY(mu_) = 0;
  size_t job_end_ KGNET_GUARDED_BY(mu_) = 0;
  size_t job_grain_ KGNET_GUARDED_BY(mu_) = 1;
  size_t job_chunks_ KGNET_GUARDED_BY(mu_) = 0;
  const std::function<void(size_t, size_t)>* job_fn_ KGNET_GUARDED_BY(mu_) =
      nullptr;
  /// Chunk-claim ticket counter: genuinely lock-free (atomic), shared by
  /// every participant of the current job.
  std::atomic<size_t> next_chunk_{0};
  std::exception_ptr error_ KGNET_GUARDED_BY(mu_);
};

/// Convenience wrapper: ThreadPool::Instance().ParallelFor(...).
inline void ParallelFor(size_t begin, size_t end, size_t grain,
                        const std::function<void(size_t, size_t)>& fn) {
  ThreadPool::Instance().ParallelFor(begin, end, grain, fn);
}

}  // namespace kgnet::common

#endif  // KGNET_COMMON_THREAD_POOL_H_
