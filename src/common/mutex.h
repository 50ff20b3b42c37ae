// Annotated mutex + RAII guard used for all shared mutable state in ara.
//
// std::mutex / std::lock_guard carry no thread-safety attributes under
// libstdc++, so Clang's capability analysis cannot see their acquire /
// release semantics — ARA_GUARDED_BY members locked through a bare
// std::lock_guard would warn on every (correct) access. ara::common::Mutex
// is a zero-overhead wrapper that exposes those semantics to the analysis;
// MutexLock is the only sanctioned way to take it (ara_analyze's no-naked-lock
// rule bans direct .lock()/.unlock() calls everywhere else).
#pragma once

#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.h"

namespace ara::common {

/// Exclusive capability. Same cost as std::mutex; adds the annotations the
/// analysis needs. Prefer MutexLock over calling lock()/unlock() directly.
class ARA_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  // The wrapper is the one place allowed to touch the raw lock interface —
  // everything else goes through MutexLock (enforced by ara_analyze).
  void lock() ARA_ACQUIRE() { m_.lock(); }      // ara-lint: allow(no-naked-lock)
  void unlock() ARA_RELEASE() { m_.unlock(); }  // ara-lint: allow(no-naked-lock)
  bool try_lock() ARA_TRY_ACQUIRE(true) {
    return m_.try_lock();  // ara-lint: allow(no-naked-lock)
  }

 private:
  std::mutex m_;
};

/// RAII guard over Mutex, visible to the capability analysis as a scoped
/// capability: the guarded members are accessible exactly within the
/// guard's lexical scope.
class ARA_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ARA_ACQUIRE(mu) : mu_(mu) {
    mu_.lock();  // ara-lint: allow(no-naked-lock)
  }
  ~MutexLock() ARA_RELEASE() {
    mu_.unlock();  // ara-lint: allow(no-naked-lock)
  }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable paired with common::Mutex. wait() takes the Mutex
/// itself (which the caller must hold via a live MutexLock in the same
/// scope): condition_variable_any unlocks/relocks it internally, so the
/// RAII guard's invariant — locked for the guard's lexical scope — holds
/// again by the time wait() returns.
class CondVar {
 public:
  /// Blocks until notified; spurious wakeups possible, so callers loop on
  /// their predicate. Precondition: `mu` is held by this thread.
  void wait(Mutex& mu) ARA_REQUIRES(mu) { cv_.wait(mu); }
  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace ara::common
