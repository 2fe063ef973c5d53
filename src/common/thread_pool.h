#ifndef GROUPSA_COMMON_THREAD_POOL_H_
#define GROUPSA_COMMON_THREAD_POOL_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/debug_mutex.h"

namespace groupsa::parallel {

// The widest pool this process may start: a fixed ceiling, not a setting.
// ThreadPool's constructor checks it before it starts a thread, and it is
// the largest value GROUPSA_THREADS and the tools' --threads accept
// (--workers stops a few below it; see serve::kMaxServeWorkers).
constexpr int kMaxThreads = 256;

// Parses a pool width as GROUPSA_THREADS spells it: a whole decimal number
// in [1, kMaxThreads] (ParseWholeInt, common/string_util.h). Anything else
// ("4x", "abc", "-2", "0", "257") is malformed and leaves *out alone.
bool ParseThreadCount(const std::string& text, int* out);

// Fixed-size thread pool underlying ParallelFor. The pool is deliberately
// simple (single shared queue, no work stealing): every parallel region in
// the library is a blocking ParallelFor whose chunks self-schedule off one
// atomic counter, so a stealing scheduler would buy nothing.
//
// Determinism contract: ParallelFor partitions [begin, end) into fixed
// `grain`-sized chunks and guarantees each index is processed exactly once.
// Which thread runs a chunk is unspecified, so callers that need value
// determinism must make chunk results independent of the executing thread
// (per-chunk RNG streams, per-chunk output slots) and reduce the per-chunk
// results in chunk order on the calling thread. Every parallel code path in
// tensor/, core/ and eval/ follows this contract, which is what makes
// results bit-identical at any thread count.
class ThreadPool {
 public:
  // Spawns `num_threads - 1` workers (the calling thread always participates
  // in ParallelFor, so a pool of size 1 runs everything inline and spawns
  // nothing). CHECK-fails, before spawning any, when num_threads exceeds
  // kMaxThreads.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Total execution width including the calling thread.
  int size() const { return num_threads_; }

  // Runs fn(chunk_begin, chunk_end) over [begin, end) split into chunks of
  // at most `grain` indices. Blocks until every chunk has run. The calling
  // thread participates. Nested calls from inside a worker run the whole
  // range inline (serially), which both bounds oversubscription and makes
  // nested submission deadlock-free. The first exception thrown by `fn` is
  // rethrown on the calling thread once all chunks have finished.
  void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                   const std::function<void(int64_t, int64_t)>& fn);

  // Runs `task` asynchronously on a spawned pool worker. Unlike ParallelFor
  // the caller neither participates nor waits, so the pool must have at
  // least one spawned worker (size >= 2) — posting to a width-1 pool is a
  // programmer error (the task could never run). A long-lived task (a
  // serving worker loop) occupies its worker until it returns; tasks still
  // queued at destruction run to completion before the workers join, so a
  // posted task is never silently dropped. Exceptions must not escape
  // `task` (they would terminate the worker thread's process).
  void Post(std::function<void()> task);

  // True when the current thread is one of this process's pool workers.
  static bool OnWorkerThread();

 private:
  void WorkerLoop();
  void Enqueue(std::function<void()> task);

  const int num_threads_;
  // Spawned in the constructor, joined in the destructor; never touched in
  // between, so no guard is needed.
  std::vector<std::thread> workers_ GROUPSA_NOT_GUARDED("ctor/dtor only");
  DebugMutex mu_{"parallel.pool"};
  std::deque<std::function<void()>> queue_ GROUPSA_GUARDED_BY(mu_);
  DebugCondVar cv_;
  bool stop_ GROUPSA_GUARDED_BY(mu_) = false;
};

// ---------------- Global pool ----------------

// The process-wide pool used by tensor kernels, the trainer and the
// evaluator. Sized on first use from the GROUPSA_THREADS environment
// variable, read through ParseThreadCount: a value it rejects CHECK-fails
// naming the variable. Unset (or empty) means 1 (serial), so that library
// behavior is opt-in identical to the historical single-threaded code
// paths.
ThreadPool* GlobalPool();

// Resizes the global pool. Must not be called while a parallel region is in
// flight (callers: CLI flag parsing, bench drivers, config application,
// tests between phases).
void SetGlobalThreads(int num_threads);

// Width of the global pool.
int GlobalThreads();

// ParallelFor on the global pool; runs inline when the pool width is 1 or
// the range fits in one grain.
void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& fn);

}  // namespace groupsa::parallel

#endif  // GROUPSA_COMMON_THREAD_POOL_H_
