#ifndef GROUPSA_COMMON_DEBUG_MUTEX_H_
#define GROUPSA_COMMON_DEBUG_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/macros.h"

namespace groupsa {

// ---------------------------------------------------------------------------
// DebugMutex — the repo's only sanctioned mutex (DESIGN.md §14).
//
// In debug and sanitizer builds every acquisition feeds a lock-order
// deadlock detector (lockdep below): a per-thread held-lock stack plus one
// global acquisition-order graph over lock *classes* (the name passed at
// construction — every Slot mutex is one class, every queue mutex another).
// Acquiring B while holding A records the edge A -> B; the first acquisition
// that would close a cycle in that graph — the classic two-thread A/B B/A
// inversion, in either thread, even when the timing never actually
// deadlocks — aborts with both conflicting stacks: the acquiring thread's
// current held stack and the recorded stack that created the reverse path.
// Same-class nesting (two Slot mutexes at once) and same-instance recursion
// are reported too: both are deadlocks waiting for the right interleaving.
//
// In release builds (NDEBUG, unless GROUPSA_DEBUG_MUTEX_FORCE is defined —
// the sanitizer CI trees force it on) all of this compiles away: DebugMutex
// is exactly a std::mutex behind inline forwarders, with no extra members —
// static_assert'd in debug_mutex.cc and parity-gated by the `locks` CI
// lane running perfbench's serving workload against a release build.
//
// try_lock deliberately skips the order check: acquiring out of order via a
// try lock is the standard deadlock-*avoidance* idiom (back off on failure),
// so only the recursion check applies there.
//
// The detector itself synchronizes with a plain std::mutex — this file is
// the one place the naked-mutex lint rule allows one, precisely so nothing
// else in src/ can bypass the detector.
// ---------------------------------------------------------------------------

#if !defined(NDEBUG) || defined(GROUPSA_DEBUG_MUTEX_FORCE)
#define GROUPSA_DEBUG_MUTEX_ENABLED 1
#else
#define GROUPSA_DEBUG_MUTEX_ENABLED 0
#endif

namespace lockdep {

// How an acquisition participates in the order graph.
enum class AcquireKind {
  kExclusive,  // lock(): recursion check + order check + edge record
  kShared,     // lock_shared(): same ordering rules as exclusive
  kTry,        // try_lock() success: recursion check only, no order check
};

// Detector entry points, called by DebugMutex/DebugSharedMutex in debug
// builds. `instance` identifies the object (recursion check), `name` its
// class (order graph). OnAcquire runs BEFORE the native lock is taken, so a
// would-be deadlock reports instead of hanging the process.
void OnAcquire(const void* instance, const char* name, AcquireKind kind);
void OnRelease(const void* instance);

// True when the detector is compiled in (debug / forced builds).
constexpr bool Enabled() { return GROUPSA_DEBUG_MUTEX_ENABLED != 0; }

// ---- Introspection & test hooks (no-ops / empty when disabled). ----

// Lock-class names this thread currently holds, in acquisition order.
std::vector<std::string> HeldLockNames();

struct GraphStats {
  int classes = 0;  // distinct lock-class names seen
  int edges = 0;    // distinct acquired-before edges recorded
};
GraphStats Stats();

// When set, a detected violation calls `handler(report)` and resumes
// instead of aborting; pass nullptr to restore the abort. Test-only.
void SetFailureHandlerForTest(std::function<void(const std::string&)> handler);

// Clears the order graph and class registry. Test-only; the caller must be
// the only thread touching locks.
void ResetGraphForTest();

}  // namespace lockdep

// Drop-in std::mutex replacement. Satisfies Lockable, so std::lock_guard,
// std::unique_lock and std::scoped_lock all work unchanged; waiting uses
// DebugCondVar below (std::condition_variable requires a bare std::mutex).
class GROUPSA_CAPABILITY("mutex") DebugMutex {
 public:
  // The name is the lock *class* for the order graph and for every report;
  // it must be a string literal (the detector keeps the pointer). Style:
  // "<subsystem>.<role>", e.g. "serve.queue".
  DebugMutex() : DebugMutex("unnamed") {}
  explicit DebugMutex(const char* name)
#if GROUPSA_DEBUG_MUTEX_ENABLED
      : name_(name)
#endif
  {
    (void)name;
  }
  DebugMutex(const DebugMutex&) = delete;
  DebugMutex& operator=(const DebugMutex&) = delete;

  void lock() GROUPSA_ACQUIRE() {
#if GROUPSA_DEBUG_MUTEX_ENABLED
    lockdep::OnAcquire(this, name_, lockdep::AcquireKind::kExclusive);
#endif
    mu_.lock();
  }

  void unlock() GROUPSA_RELEASE() {
    mu_.unlock();
#if GROUPSA_DEBUG_MUTEX_ENABLED
    lockdep::OnRelease(this);
#endif
  }

  bool try_lock() GROUPSA_TRY_ACQUIRE(true) {
#if GROUPSA_DEBUG_MUTEX_ENABLED
    lockdep::OnAcquire(this, name_, lockdep::AcquireKind::kTry);
    if (mu_.try_lock()) return true;
    lockdep::OnRelease(this);
    return false;
#else
    return mu_.try_lock();
#endif
  }

  // The wrapped mutex, for DebugCondVar's adopt-and-wait (and nothing else:
  // locking through native() bypasses the detector).
  std::mutex& native() { return mu_; }

  const char* name() const {
#if GROUPSA_DEBUG_MUTEX_ENABLED
    return name_;
#else
    return "";
#endif
  }

 private:
  std::mutex mu_;
#if GROUPSA_DEBUG_MUTEX_ENABLED
  const char* name_;
#endif
};

// Drop-in std::shared_mutex replacement (the inference engine's
// representation cache is reader-heavy). Shared acquisitions follow the same
// ordering rules as exclusive ones: a shared/exclusive inversion between two
// threads deadlocks just as hard.
class GROUPSA_CAPABILITY("shared_mutex") DebugSharedMutex {
 public:
  DebugSharedMutex() : DebugSharedMutex("unnamed") {}
  explicit DebugSharedMutex(const char* name)
#if GROUPSA_DEBUG_MUTEX_ENABLED
      : name_(name)
#endif
  {
    (void)name;
  }
  DebugSharedMutex(const DebugSharedMutex&) = delete;
  DebugSharedMutex& operator=(const DebugSharedMutex&) = delete;

  void lock() GROUPSA_ACQUIRE() {
#if GROUPSA_DEBUG_MUTEX_ENABLED
    lockdep::OnAcquire(this, name_, lockdep::AcquireKind::kExclusive);
#endif
    mu_.lock();
  }
  void unlock() GROUPSA_RELEASE() {
    mu_.unlock();
#if GROUPSA_DEBUG_MUTEX_ENABLED
    lockdep::OnRelease(this);
#endif
  }
  bool try_lock() GROUPSA_TRY_ACQUIRE(true) {
#if GROUPSA_DEBUG_MUTEX_ENABLED
    lockdep::OnAcquire(this, name_, lockdep::AcquireKind::kTry);
    if (mu_.try_lock()) return true;
    lockdep::OnRelease(this);
    return false;
#else
    return mu_.try_lock();
#endif
  }

  void lock_shared() GROUPSA_ACQUIRE_SHARED() {
#if GROUPSA_DEBUG_MUTEX_ENABLED
    lockdep::OnAcquire(this, name_, lockdep::AcquireKind::kShared);
#endif
    mu_.lock_shared();
  }
  void unlock_shared() GROUPSA_RELEASE_SHARED() {
    mu_.unlock_shared();
#if GROUPSA_DEBUG_MUTEX_ENABLED
    lockdep::OnRelease(this);
#endif
  }

  const char* name() const {
#if GROUPSA_DEBUG_MUTEX_ENABLED
    return name_;
#else
    return "";
#endif
  }

 private:
  std::shared_mutex mu_;
#if GROUPSA_DEBUG_MUTEX_ENABLED
  const char* name_;
#endif
};

// Condition variable over DebugMutex. std::condition_variable only waits on
// std::unique_lock<std::mutex>, so each wait adopts the wrapped native
// mutex for the duration of the block and releases the adoption before
// returning — the unique_lock<DebugMutex> the caller holds stays the owner
// throughout. The held-lock stack deliberately keeps the mutex across the
// wait: the blocked thread acquires nothing while parked, and on wake it
// holds the mutex again, so the lexical scope the annotations describe is
// exactly what the detector sees.
class DebugCondVar {
 public:
  DebugCondVar() = default;
  DebugCondVar(const DebugCondVar&) = delete;
  DebugCondVar& operator=(const DebugCondVar&) = delete;

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

  void wait(std::unique_lock<DebugMutex>& lock) {
    std::unique_lock<std::mutex> native(lock.mutex()->native(),
                                        std::adopt_lock);
    cv_.wait(native);
    native.release();
  }

  template <typename Predicate>
  void wait(std::unique_lock<DebugMutex>& lock, Predicate pred) {
    while (!pred()) wait(lock);
  }

  template <typename Rep, typename Period>
  std::cv_status wait_for(std::unique_lock<DebugMutex>& lock,
                          const std::chrono::duration<Rep, Period>& dur) {
    std::unique_lock<std::mutex> native(lock.mutex()->native(),
                                        std::adopt_lock);
    const std::cv_status status = cv_.wait_for(native, dur);
    native.release();
    return status;
  }

 private:
  std::condition_variable cv_;
};

}  // namespace groupsa

#endif  // GROUPSA_COMMON_DEBUG_MUTEX_H_
