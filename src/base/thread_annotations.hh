/**
 * @file
 * Clang Thread Safety Analysis annotation macros.
 *
 * The concurrency surface of this tree (harness thread pool, shard
 * worker threads, memcg charge maps, stats ring buffers) is guarded by
 * two disciplines: real mutexes (the harness pool) and single-owner
 * thread confinement handed off at joins and shard claims (everything
 * else). Both are *statically checkable* with Clang's
 * -Wthread-safety: mutex-protected members carry MCLOCK_GUARDED_BY and
 * their locking functions MCLOCK_ACQUIRE/RELEASE/REQUIRES; confined
 * members are guarded by a zero-cost ThreadRole capability
 * (base/sync.hh) that owner-side code asserts and non-owner code —
 * e.g. shard worker paths — cannot, so touching coordinator-only merge
 * state from a worker function fails the build.
 *
 * Every macro expands to nothing on non-Clang compilers (and the
 * analysis itself only runs under -Wthread-safety; see the
 * MCLOCK_THREAD_SAFETY CMake option, which adds
 * -Wthread-safety -Werror=thread-safety). Annotations therefore cost
 * nothing at runtime on any compiler.
 *
 * Naming follows the modern capability-based attribute spelling
 * (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html).
 */

#ifndef MCLOCK_BASE_THREAD_ANNOTATIONS_HH_
#define MCLOCK_BASE_THREAD_ANNOTATIONS_HH_

#if defined(__clang__)
#define MCLOCK_TS_ATTR_(x) __attribute__((x))
#else
#define MCLOCK_TS_ATTR_(x)  // no-op outside Clang
#endif

/** Marks a class as a capability (a mutex, or a ThreadRole). */
#define MCLOCK_CAPABILITY(x) MCLOCK_TS_ATTR_(capability(x))

/** Marks an RAII class that acquires in its ctor, releases in its dtor. */
#define MCLOCK_SCOPED_CAPABILITY MCLOCK_TS_ATTR_(scoped_lockable)

/** Member is protected by the given capability. */
#define MCLOCK_GUARDED_BY(x) MCLOCK_TS_ATTR_(guarded_by(x))

/** Pointee (not the pointer) is protected by the given capability. */
#define MCLOCK_PT_GUARDED_BY(x) MCLOCK_TS_ATTR_(pt_guarded_by(x))

/** Function requires the capabilities held on entry (and exit). */
#define MCLOCK_REQUIRES(...) \
    MCLOCK_TS_ATTR_(requires_capability(__VA_ARGS__))

/** Function acquires the capability and holds it on return. */
#define MCLOCK_ACQUIRE(...) \
    MCLOCK_TS_ATTR_(acquire_capability(__VA_ARGS__))

/** Function releases the capability (held on entry). */
#define MCLOCK_RELEASE(...) \
    MCLOCK_TS_ATTR_(release_capability(__VA_ARGS__))

/** Function acquires the capability iff it returns the given value. */
#define MCLOCK_TRY_ACQUIRE(...) \
    MCLOCK_TS_ATTR_(try_acquire_capability(__VA_ARGS__))

/** Caller must NOT hold the capability (non-reentrant acquire). */
#define MCLOCK_EXCLUDES(...) MCLOCK_TS_ATTR_(locks_excluded(__VA_ARGS__))

/**
 * Function asserts the capability is held by construction (e.g. the
 * single owner thread between hand-off barriers) without acquiring
 * anything. Zero runtime cost; downstream guarded accesses in the
 * calling scope become legal.
 */
#define MCLOCK_ASSERT_CAPABILITY(x) MCLOCK_TS_ATTR_(assert_capability(x))

/** Function returns a reference to the given capability. */
#define MCLOCK_RETURN_CAPABILITY(x) MCLOCK_TS_ATTR_(lock_returned(x))

/** Escape hatch: disable the analysis for one function. */
#define MCLOCK_NO_THREAD_SAFETY_ANALYSIS \
    MCLOCK_TS_ATTR_(no_thread_safety_analysis)

#endif  // MCLOCK_BASE_THREAD_ANNOTATIONS_HH_
