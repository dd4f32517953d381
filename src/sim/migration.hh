/**
 * @file
 * Page migration engine: the migrate_pages() analogue, run as a
 * transaction (NOMAD-style).
 *
 * A migration proceeds through three phases once a destination frame is
 * reserved: copy the contents (costed by tier bandwidths), shoot down
 * stale TLB entries, and remap the page onto the new frame (freeing the
 * source frame and invalidating stale LLC lines). Any phase can fail —
 * a device error or a racing write during the copy, a shootdown
 * timeout, the destination frame raced away before the remap — in which
 * case the transaction aborts and rolls back: the reserved frame is
 * released and the page stays mapped on its source frame, untouched.
 * Whether a phase fails is decided by the (optional, deterministic)
 * FaultInjector; with injection disabled every transaction commits and
 * the engine behaves exactly like the old single-shot migrate().
 *
 * Nimble-style two-sided page exchange runs as one transaction too.
 */

#ifndef MCLOCK_SIM_MIGRATION_HH_
#define MCLOCK_SIM_MIGRATION_HH_

#include <cstdint>

#include "base/types.hh"
#include "mem/memory_config.hh"
#include "sim/fault_injector.hh"

namespace mclock {

class CacheModel;
class Page;

#ifdef MCLOCK_DEBUG_VM
namespace debug {
class VmChecker;
}  // namespace debug
#endif

namespace sim {

class MemorySystem;

/** Why a migration transaction did not commit. */
enum class MigrateOutcome : std::uint8_t {
    Success,   ///< transaction committed
    SameNode,  ///< no-op: the page already sits on the destination node
    Busy,      ///< page locked or unevictable; never entered a transaction
    NoFrame,   ///< destination had no free frame to reserve
    Aborted,   ///< a phase failed (injected); rolled back cleanly
};

/**
 * Result of one migration/exchange transaction. [[nodiscard]]: the
 * outcome decides whether the caller's page actually moved — a dropped
 * result means list placement and retry/rollback handling are skipped.
 */
struct [[nodiscard]] MigrateResult
{
    MigrateOutcome outcome = MigrateOutcome::Success;
    /** The failing phase when outcome == Aborted. */
    FaultPhase phase = FaultPhase::None;
    /** Injected failure will recur on retry (page poisoned). */
    bool persistent = false;

    bool ok() const { return outcome == MigrateOutcome::Success; }
};

/**
 * Executes page migrations and accounts for their cost. It keeps no
 * event counts: the Simulator wrappers count every outcome in vmstat.
 */
class MigrationEngine
{
  public:
    /** @param faults may be null (no injection; always commits). */
    MigrationEngine(MemorySystem &mem, const MemoryConfig &cfg,
                    CacheModel *llc, FaultInjector *faults = nullptr);

    /**
     * Migrate @p page to node @p dst as a transaction.
     *
     * On success @p cost holds the simulated time the migration
     * consumed; on an abort it holds the partial work burned before the
     * failing phase (both charged by the caller, inline or background
     * depending on context). The page's LRU membership is untouched —
     * the Simulator places a committed page, and on an abort the page
     * is still resident on its source node, isolated for its caller.
     * A migration to the page's own node is a no-op (SameNode),
     * reported before the locked/unevictable check so a locked page
     * headed nowhere is not a counted failure.
     */
    MigrateResult migrate(Page *page, NodeId dst, SimTime &cost);

    /**
     * Two-sided exchange of the frames of @p a and @p b (Nimble's
     * optimized exchange: one of the copies rides the other's buffer, so
     * the cost is less than two independent migrations). Runs as one
     * transaction keyed on @p a; an abort leaves both pages in place.
     */
    MigrateResult exchange(Page *a, Page *b, SimTime &cost);

#ifdef MCLOCK_DEBUG_VM
    /**
     * Attach the DEBUG_VM checker: each committing transaction then
     * reports its copy/shootdown/remap phases and its commit (with the
     * pre-move tier ranks) for isolation, locked-remap, and
     * poisoned-promote validation.
     */
    void setChecker(debug::VmChecker *checker) { checker_ = checker; }
#endif

  private:
    /** Injector verdict for the next transaction (None when absent). */
    FaultDecision decideFault(const Page *keyPage, TierRank dstTier);

    /** The partial cost an abort in @p phase burned. */
    SimTime abortCost(FaultPhase phase, SimTime copyCost) const;

    MemorySystem &mem_;
    const MemoryConfig &cfg_;
    CacheModel *llc_;      ///< may be null (cache model disabled)
    FaultInjector *faults_;  ///< may be null (no injection)
#ifdef MCLOCK_DEBUG_VM
    debug::VmChecker *checker_ = nullptr;
#endif
};

}  // namespace sim
}  // namespace mclock

#endif  // MCLOCK_SIM_MIGRATION_HH_
