/**
 * @file
 * Annotated synchronization primitives.
 *
 * libstdc++'s std::mutex / std::lock_guard carry no thread-safety
 * attributes, so Clang's analysis cannot see through them. These thin
 * wrappers re-export the standard primitives with the capability
 * annotations attached (the Abseil/V8 idiom), at zero runtime cost:
 *
 *  - Mutex / MutexLock / CondVar: a real std::mutex with
 *    MCLOCK_ACQUIRE/RELEASE annotations and an RAII scoped lock the
 *    analysis understands. CondVar::wait requires the mutex held and
 *    keeps it held across the wait (internally it adopts the native
 *    handle, so there is no double-lock and no extra state).
 *
 *  - ThreadRole: a *zero-cost* capability modelling single-owner
 *    thread confinement — state owned by exactly one thread at a time,
 *    with ownership handed off only at a join or under a lock (shard
 *    worker state, the sharded coordinator's merge state, per-host
 *    stats sinks). It has no lock() — nothing to contend on — only
 *    assertHeld(), which owner-side code calls (an empty inline
 *    function) to declare "I am the owning thread here". Members
 *    marked MCLOCK_GUARDED_BY(role) are then writable from functions
 *    that assert the role and a compile error under -Wthread-safety
 *    from functions that do not, which is exactly the property the
 *    deterministic replay contract needs: worker-side code paths
 *    cannot silently grow an access to coordinator-only state.
 */

#ifndef MCLOCK_BASE_SYNC_HH_
#define MCLOCK_BASE_SYNC_HH_

#include <condition_variable>
#include <mutex>

#include "base/thread_annotations.hh"

namespace mclock {
namespace base {

/** std::mutex with capability annotations the analysis can track. */
class MCLOCK_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void lock() MCLOCK_ACQUIRE() { mu_.lock(); }
    void unlock() MCLOCK_RELEASE() { mu_.unlock(); }
    bool tryLock() MCLOCK_TRY_ACQUIRE(true) { return mu_.try_lock(); }

    /** Native handle for CondVar (callers should never need this). */
    std::mutex &native() { return mu_; }

  private:
    std::mutex mu_;
};

/** RAII scoped lock over Mutex (std::lock_guard, annotated). */
class MCLOCK_SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex &mu) MCLOCK_ACQUIRE(mu) : mu_(mu)
    {
        mu_.lock();
    }

    ~MutexLock() MCLOCK_RELEASE() { mu_.unlock(); }

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

  private:
    Mutex &mu_;
};

/**
 * Condition variable paired with Mutex. wait() must be called with the
 * mutex held (enforced statically) and returns with it held; spurious
 * wakeups are possible as usual, so always wait in a predicate loop:
 *
 *     MutexLock lock(mu_);
 *     while (!condition)
 *         cv_.wait(mu_);
 */
class CondVar
{
  public:
    CondVar() = default;
    CondVar(const CondVar &) = delete;
    CondVar &operator=(const CondVar &) = delete;

    void
    wait(Mutex &mu) MCLOCK_REQUIRES(mu)
    {
        // Adopt the already-held native mutex for the duration of the
        // wait, then release the unique_lock without unlocking: from
        // the caller's (and the analysis') point of view the capability
        // is held across the whole call.
        std::unique_lock<std::mutex> native(mu.native(), std::adopt_lock);
        cv_.wait(native);
        native.release();
    }

    void notifyOne() { cv_.notify_one(); }
    void notifyAll() { cv_.notify_all(); }

  private:
    std::condition_variable cv_;
};

/**
 * Zero-cost capability for single-owner thread confinement (see file
 * comment). The owning code asserts it; there is nothing to lock.
 */
class MCLOCK_CAPABILITY("role") ThreadRole
{
  public:
    ThreadRole() = default;

    /**
     * Declare that the calling thread is the role's owner here. Pure
     * annotation — compiles to nothing — but unlocks guarded members
     * for the remainder of the calling scope under -Wthread-safety.
     */
    void assertHeld() const MCLOCK_ASSERT_CAPABILITY(this) {}
};

}  // namespace base
}  // namespace mclock

#endif  // MCLOCK_BASE_SYNC_HH_
