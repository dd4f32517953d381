#include "core/kpromoted.hh"

#include "base/logging.hh"
#include "core/multiclock.hh"
#include "pfra/lru_lists.hh"
#include "sim/memory_system.hh"
#include "sim/metrics.hh"
#include "sim/node.hh"
#include "sim/simulator.hh"
#include "vm/page.hh"

namespace mclock {
namespace core {

Kpromoted::Kpromoted(MultiClockPolicy &policy, sim::Simulator &sim,
                     NodeId node)
    : policy_(policy), sim_(sim), nodeId_(node)
{
}

void
Kpromoted::run(SimTime now)
{
    (void)now;
    sim::Node &node = sim_.memory().node(nodeId_);
    const std::size_t nrScan = policy_.nrScan_;

    sim_.vmstat().add(stats::VmItem::KpromotedWake, nodeId_);
    sim_.trace().record(stats::TraceEventType::KpromotedWake, nodeId_,
                        node.lists().promoteSize(true),
                        node.lists().promoteSize(false));

    // Selection: advance page states from reference-bit evidence.
    std::uint64_t scanned = 0;
    for (bool anon : {true, false}) {
        scanned += scanInactive(node, anon, nrScan);
        scanned += scanActive(node, anon, nrScan);
    }
    sim_.chargeScan(scanned);

    // Promotion: migrate everything selected, in this same run (the
    // migration volume is bounded by the selection/scan budget).
    sim_.metrics().beginPromotionRound();
    std::uint64_t promotedNow = 0;
    for (bool anon : {true, false}) {
        const std::size_t budget =
            node.lists().promoteSize(anon);  // all selected pages
        const std::size_t cap =
            MultiClockPolicy::kPromoteBudget > promotedNow
                ? MultiClockPolicy::kPromoteBudget - promotedNow
                : 0;
        promotedNow += shrinkPromoteList(node, anon, budget,
                                         /*underPressure=*/false, cap);
    }
}

std::uint64_t
Kpromoted::scanInactive(sim::Node &node, bool anon, std::size_t nrScan)
{
    auto &lists = node.lists();
    auto &inactive = lists.list(pfra::NodeLists::inactiveKind(anon));
    const std::size_t budget = std::min(nrScan, inactive.size());
    for (std::size_t i = 0; i < budget; ++i) {
        Page *pg = inactive.back();
        if (pg->testAndClearPteReferenced()) {
            if (pg->referenced()) {
                // Transition (6): inactive referenced -> active.
                pg->setReferenced(false);
                lists.moveTo(pg, pfra::NodeLists::activeKind(anon));
                continue;
            }
            // Transition (2): inactive unreferenced -> referenced.
            pg->setReferenced(true);
        } else if (pg->referenced()) {
            // Transition (1): decay back to unreferenced.
            pg->setReferenced(false);
        }
        // CLOCK hand: rotate the scanned page to the list head so the
        // next run examines the following pages.
        lists.rotateToFront(pg);
    }
    lists.statAdd(stats::VmItem::PgscanInactive, budget);
    return budget;
}

std::uint64_t
Kpromoted::scanActive(sim::Node &node, bool anon, std::size_t nrScan)
{
    auto &lists = node.lists();
    auto &active = lists.list(pfra::NodeLists::activeKind(anon));
    const std::size_t budget = std::min(nrScan, active.size());
    for (std::size_t i = 0; i < budget; ++i) {
        Page *pg = active.back();
        if (pg->testAndClearPteReferenced()) {
            if (pg->referenced()) {
                // Transition (10): referenced again while active and
                // referenced -> PagePromote, onto the promote list.
                pg->setPromoteFlag(true);
                lists.moveTo(pg, pfra::NodeLists::promoteKind(anon));
                continue;
            }
            // Transitions (7)/(8): active unreferenced -> referenced.
            pg->setReferenced(true);
        } else if (pg->referenced()) {
            pg->setReferenced(false);
        }
        lists.rotateToFront(pg);
    }
    lists.statAdd(stats::VmItem::PgscanActive, budget);
    return budget;
}

std::uint64_t
Kpromoted::shrinkPromoteList(sim::Node &node, bool anon, std::size_t budget,
                             bool underPressure,
                             std::size_t maxPromotions)
{
    auto &mem = sim_.memory();
    auto &lists = node.lists();
    auto &promote = lists.list(pfra::NodeLists::promoteKind(anon));
    const std::size_t toScan = std::min(budget, promote.size());
    std::uint64_t promotedNow = 0;
    // Once the higher tier has no cold pages left to demote, stop
    // forcing room: promoting into a uniformly warm tier is churn.
    bool demotionExhausted = false;

    TierRank up;
    const bool hasHigher = mem.higherTier(node.tier(), up);

    if (hasHigher && sim_.promotionThrottled(node.id())) {
        // Graceful degradation: this node's promotions keep aborting
        // (injected migration faults); leave the promote list parked
        // until the cooldown expires instead of churning pages through
        // doomed transactions.
        return 0;
    }

    for (std::size_t i = 0; i < toScan; ++i) {
        Page *pg = promote.back();
        const bool wasReferenced =
            pg->testAndClearPteReferenced() || pg->referenced();

        if (!wasReferenced && !underPressure) {
            // Transition (11): cooled off, back to active unreferenced.
            pg->setReferenced(false);
            pg->setPromoteFlag(false);
            lists.moveTo(pg, pfra::NodeLists::activeKind(anon));
            continue;
        }

        if (!hasHigher) {
            // Top tier: nothing to promote into; recycle to active.
            pg->setReferenced(false);
            pg->setPromoteFlag(false);
            lists.moveTo(pg, pfra::NodeLists::activeKind(anon));
            continue;
        }

        if (promotedNow >= maxPromotions) {
            // Promotion budget exhausted: stay selected for the next
            // run (rotate so the scan can visit the remaining pages).
            lists.rotateToFront(pg);
            continue;
        }

        if (!sim_.tenantPromoteAllowed(pg, up)) {
            // Tenant quota/cap deferral: park like budget exhaustion.
            // Crucially, do NOT fall into the demote-and-retry path —
            // an out-of-quota tenant must not force demotions of other
            // tenants' upper-tier pages.
            lists.rotateToFront(pg);
            continue;
        }

        // Transition (13): migrate to the higher tier.
        lists.remove(pg);
        bool ok = sim_.promotePage(pg, sim::Simulator::ChargeMode::Background);
        if (!ok && !underPressure && !demotionExhausted) {
            // The higher tier is under memory pressure: promotions
            // result in immediate demotions there, then retry. Demote
            // roughly one-for-one with the remaining promotion budget;
            // if nothing on the higher tier is cold enough, stop
            // promoting rather than churn warm pages.
            const std::size_t want = maxPromotions == ~0ull
                ? 64
                : std::max<std::size_t>(1, maxPromotions - promotedNow);
            if (policy_.demoteFromTier(up, want) == 0)
                demotionExhausted = true;
            ok = sim_.promotePage(pg, sim::Simulator::ChargeMode::Background);
        }
        if (ok) {
            // The Simulator placed it on the upper tier's active list.
            ++promotedNow;
        } else {
            // Not migratable (e.g. locked, or no space even after
            // reclaim): fall back to the active list here.
            pg->setPromoteFlag(false);
            pg->setReferenced(false);
            lists.add(pg, pfra::NodeLists::activeKind(anon));
        }
    }
    lists.statAdd(stats::VmItem::PgscanPromote, toScan);
    sim_.chargeScan(toScan);
    return promotedNow;
}

}  // namespace core
}  // namespace mclock
