#include "sim/migration.hh"

#include "base/logging.hh"
#include "mem/cache.hh"
#include "sim/memory_system.hh"
#include "vm/page.hh"

#ifdef MCLOCK_DEBUG_VM
#include "debug/vm_checker.hh"
#define MCLOCK_VM_HOOK(call) \
    do { \
        if (checker_) \
            checker_->call; \
    } while (0)
#else
#define MCLOCK_VM_HOOK(call) \
    do { \
    } while (0)
#endif

namespace mclock {
namespace sim {

MigrationEngine::MigrationEngine(MemorySystem &mem, const MemoryConfig &cfg,
                                 CacheModel *llc, FaultInjector *faults)
    : mem_(mem), cfg_(cfg), llc_(llc), faults_(faults)
{
}

FaultDecision
MigrationEngine::decideFault(const Page *keyPage, TierRank dstTier)
{
    if (!faults_ || !faults_->enabled())
        return {};
    return faults_->nextTransaction(keyPage->vpn(), dstTier);
}

SimTime
MigrationEngine::abortCost(FaultPhase phase, SimTime fullCost) const
{
    // The work burned grows with how far the transaction got: a copy
    // fault hits mid-copy, a shootdown timeout after the copy, a remap
    // race after the shootdown completed too.
    switch (phase) {
      case FaultPhase::Copy:      return fullCost / 2;
      case FaultPhase::Shootdown: return fullCost * 3 / 4;
      case FaultPhase::Remap:     return fullCost;
      case FaultPhase::None:      break;
    }
    return 0;
}

MigrateResult
MigrationEngine::migrate(Page *page, NodeId dst, SimTime &cost)
{
    MCLOCK_ASSERT(page->resident());
    cost = 0;
    // A migration to the page's own node is a no-op, reported before
    // the busy check: a locked page headed nowhere is not a failure.
    if (dst == page->node())
        return {MigrateOutcome::SameNode, FaultPhase::None, false};
    if (page->locked() || page->unevictable())
        return {MigrateOutcome::Busy, FaultPhase::None, false};
    Node &src = mem_.node(page->node());
    Node &dstNode = mem_.node(dst);

    // Begin: reserve the destination frame.
    Paddr newPaddr;
    if (!dstNode.allocFrame(newPaddr))
        return {MigrateOutcome::NoFrame, FaultPhase::None, false};

    const SimTime fullCost =
        cfg_.pageMigrationCost(src.tier(), dstNode.tier());
    const FaultDecision fd = decideFault(page, dstNode.tier());
    if (fd.injected()) {
        // Abort: release the reserved frame. The page never left its
        // source frame, so the mapping needs no repair; post-copy
        // aborts additionally discard the copied contents (rollback).
        dstNode.freeFrame(newPaddr);
        cost = abortCost(fd.failPhase, fullCost);
        return {MigrateOutcome::Aborted, fd.failPhase, fd.persistent};
    }

    // Commit: copy, shoot down, remap.
    MCLOCK_VM_HOOK(onMigrationPhase(page, FaultPhase::Copy, dst));
    MCLOCK_VM_HOOK(onMigrationPhase(page, FaultPhase::Shootdown, dst));
    MCLOCK_VM_HOOK(onMigrationPhase(page, FaultPhase::Remap, dst));
    const Paddr oldPaddr = page->paddr();
    cost = fullCost;
    if (llc_)
        llc_->invalidatePage(oldPaddr);
    src.freeFrame(oldPaddr);
    page->placeOn(dst, newPaddr);
    MCLOCK_VM_HOOK(onMigrationCommit(page, src.tier(), dstNode.tier()));
    // Migration transfers contents; the new frame starts clean wrt the
    // PTE dirty bit but the page remains logically dirty if it was.
    page->setPteDirty(false);
    return {MigrateOutcome::Success, FaultPhase::None, false};
}

MigrateResult
MigrationEngine::exchange(Page *a, Page *b, SimTime &cost)
{
    MCLOCK_ASSERT(a->resident() && b->resident());
    cost = 0;
    if (a->locked() || b->locked() || a->unevictable() ||
        b->unevictable())
        return {MigrateOutcome::Busy, FaultPhase::None, false};
    if (a->node() == b->node())
        return {MigrateOutcome::SameNode, FaultPhase::None, false};

    Node &na = mem_.node(a->node());
    Node &nb = mem_.node(b->node());

    // Nimble's two-sided exchange overlaps the copies; cost is ~1.7x a
    // single migration rather than 2x.
    const SimTime one = cfg_.pageMigrationCost(na.tier(), nb.tier());
    const SimTime other = cfg_.pageMigrationCost(nb.tier(), na.tier());
    const SimTime fullCost = (one + other) * 85 / 100;

    // One transaction covers both sides: an exchange commits or rolls
    // back atomically (no frame was reserved, so an abort only
    // discards the staged copies).
    const FaultDecision fd = decideFault(a, nb.tier());
    if (fd.injected()) {
        cost = abortCost(fd.failPhase, fullCost);
        return {MigrateOutcome::Aborted, fd.failPhase, fd.persistent};
    }

    MCLOCK_VM_HOOK(onMigrationPhase(a, FaultPhase::Copy, nb.id()));
    MCLOCK_VM_HOOK(onMigrationPhase(b, FaultPhase::Copy, na.id()));
    MCLOCK_VM_HOOK(onMigrationPhase(a, FaultPhase::Shootdown, nb.id()));
    MCLOCK_VM_HOOK(onMigrationPhase(b, FaultPhase::Shootdown, na.id()));
    MCLOCK_VM_HOOK(onMigrationPhase(a, FaultPhase::Remap, nb.id()));
    MCLOCK_VM_HOOK(onMigrationPhase(b, FaultPhase::Remap, na.id()));
    const Paddr pa = a->paddr();
    const Paddr pb = b->paddr();
    if (llc_) {
        llc_->invalidatePage(pa);
        llc_->invalidatePage(pb);
    }
    a->placeOn(nb.id(), pb);
    b->placeOn(na.id(), pa);
    MCLOCK_VM_HOOK(onExchangeCommit(a, na.tier(), b, nb.tier()));
    a->setPteDirty(false);
    b->setPteDirty(false);
    cost = fullCost;
    return {MigrateOutcome::Success, FaultPhase::None, false};
}

}  // namespace sim
}  // namespace mclock
