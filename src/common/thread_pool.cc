#include "common/thread_pool.h"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>

#include "common/macros.h"
#include "common/string_util.h"

namespace groupsa::parallel {
namespace {

thread_local bool tls_on_worker_thread = false;

// Shared state of one blocking ParallelFor region. Chunks self-schedule off
// `next`; the region is done when every enlisted runner (workers + caller)
// has drained the counter and decremented `pending`.
struct ForState {
  std::atomic<int64_t> next{0};
  int64_t end GROUPSA_NOT_GUARDED("set before helpers start") = 0;
  int64_t grain GROUPSA_NOT_GUARDED("set before helpers start") = 1;
  const std::function<void(int64_t, int64_t)>* fn
      GROUPSA_NOT_GUARDED("set before helpers start") = nullptr;

  DebugMutex mu{"parallel.for_state"};
  DebugCondVar done_cv;
  int pending GROUPSA_GUARDED_BY(mu) = 0;   // helper tasks not yet finished
  std::exception_ptr error GROUPSA_GUARDED_BY(mu);  // first thrown by fn

  void RunChunks() {
    for (;;) {
      const int64_t chunk_begin = next.fetch_add(grain);
      if (chunk_begin >= end) return;
      const int64_t chunk_end = std::min(end, chunk_begin + grain);
      try {
        (*fn)(chunk_begin, chunk_end);
      } catch (...) {
        std::lock_guard<DebugMutex> lock(mu);
        if (!error) error = std::current_exception();
      }
    }
  }
};

}  // namespace

bool ParseThreadCount(const std::string& text, int* out) {
  return ParseWholeInt(text, 1, kMaxThreads, out);
}

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(num_threads < 1 ? 1 : num_threads) {
  // The message is built only when the check fails.
  GROUPSA_CHECK(num_threads_ <= kMaxThreads,
                StrFormat("ThreadPool width %d exceeds kMaxThreads (%d)",
                          num_threads_, kMaxThreads)
                    .c_str());
  workers_.reserve(num_threads_ - 1);
  for (int i = 0; i < num_threads_ - 1; ++i)
    workers_.emplace_back([this] { WorkerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<DebugMutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

bool ThreadPool::OnWorkerThread() { return tls_on_worker_thread; }

void ThreadPool::WorkerLoop() {
  tls_on_worker_thread = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<DebugMutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::Enqueue(std::function<void()> task) {
  {
    std::lock_guard<DebugMutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::Post(std::function<void()> task) {
  GROUPSA_CHECK(num_threads_ > 1,
                "ThreadPool::Post on a width-1 pool: no spawned worker could "
                "ever run the task");
  Enqueue(std::move(task));
}

void ThreadPool::ParallelFor(int64_t begin, int64_t end, int64_t grain,
                             const std::function<void(int64_t, int64_t)>& fn) {
  if (end <= begin) return;
  if (grain < 1) grain = 1;
  // Serial fast paths: width-1 pool, range fits in one chunk, or a nested
  // call from a worker (running inline keeps workers from blocking on each
  // other, which is what makes nested submission deadlock-free).
  if (num_threads_ <= 1 || end - begin <= grain || OnWorkerThread()) {
    fn(begin, end);
    return;
  }

  auto state = std::make_shared<ForState>();
  state->next.store(begin);
  state->end = end;
  state->grain = grain;
  state->fn = &fn;

  const int64_t num_chunks = (end - begin + grain - 1) / grain;
  // The caller takes one lane; helpers cover the rest, capped by chunks.
  const int helpers = static_cast<int>(
      std::min<int64_t>(workers_.size(), num_chunks - 1));
  {
    // Uncontended (no helper is queued yet), but pending is guarded state.
    std::lock_guard<DebugMutex> lock(state->mu);
    state->pending = helpers;
  }
  for (int i = 0; i < helpers; ++i) {
    Enqueue([state] {
      state->RunChunks();
      std::lock_guard<DebugMutex> lock(state->mu);
      if (--state->pending == 0) state->done_cv.notify_all();
    });
  }

  state->RunChunks();
  std::unique_lock<DebugMutex> lock(state->mu);
  state->done_cv.wait(lock, [&state] { return state->pending == 0; });
  if (state->error) std::rethrow_exception(state->error);
}

// ---------------- Global pool ----------------

namespace {

std::unique_ptr<ThreadPool>& GlobalPoolSlot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}

DebugMutex& GlobalPoolMutex() {
  static DebugMutex mu{"parallel.global_pool"};
  return mu;
}

int DefaultThreads() {
  const char* env = std::getenv("GROUPSA_THREADS");
  if (env == nullptr || env[0] == '\0') return 1;
  int n = 1;
  const bool ok = ParseThreadCount(env, &n);
  GROUPSA_CHECK(ok,
                StrFormat("GROUPSA_THREADS must be a whole number in [1, %d], "
                          "got '%s'",
                          kMaxThreads, env)
                    .c_str());
  return n;
}

}  // namespace

ThreadPool* GlobalPool() {
  std::lock_guard<DebugMutex> lock(GlobalPoolMutex());
  std::unique_ptr<ThreadPool>& pool = GlobalPoolSlot();
  if (!pool) pool = std::make_unique<ThreadPool>(DefaultThreads());
  return pool.get();
}

void SetGlobalThreads(int num_threads) {
  GROUPSA_CHECK(!ThreadPool::OnWorkerThread(),
                "SetGlobalThreads called from inside a parallel region");
  std::lock_guard<DebugMutex> lock(GlobalPoolMutex());
  std::unique_ptr<ThreadPool>& pool = GlobalPoolSlot();
  if (pool && pool->size() == std::max(1, num_threads)) return;
  pool = std::make_unique<ThreadPool>(num_threads);
}

int GlobalThreads() { return GlobalPool()->size(); }

void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& fn) {
  GlobalPool()->ParallelFor(begin, end, grain, fn);
}

}  // namespace groupsa::parallel
