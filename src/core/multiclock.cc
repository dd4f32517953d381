#include "core/multiclock.hh"

#include <vector>

#include "core/kpromoted.hh"
#include "pfra/vmscan.hh"
#include "sim/simulator.hh"
#include "vm/page.hh"

namespace mclock {
namespace core {

MultiClockPolicy::MultiClockPolicy(const policies::PolicyOptions &opts)
    : scanInterval_(opts.scanInterval), nrScan_(opts.nrScan)
{
}

MultiClockPolicy::~MultiClockPolicy() = default;

void
MultiClockPolicy::attach(sim::Simulator &sim)
{
    TieringPolicy::attach(sim);
    auto &mem = sim.memory();
    // One kpromoted instance per node (the pressure handler reuses its
    // scan passes everywhere); the daemon thread is registered only for
    // nodes that have a higher tier to promote into.
    kpromoted_.clear();
    for (std::size_t i = 0; i < mem.numNodes(); ++i) {
        const NodeId id = static_cast<NodeId>(i);
        kpromoted_.push_back(std::make_unique<Kpromoted>(*this, sim, id));
        TierRank up;
        if (mem.higherTier(mem.node(id).tier(), up)) {
            Kpromoted *kp = kpromoted_.back().get();
            sim.daemons().add("kpromoted/" + std::to_string(id),
                              scanInterval_,
                              [kp](SimTime now) { kp->run(now); });
        }
    }
}

void
MultiClockPolicy::onSupervisedAccess(Page *page)
{
    // Extended mark_page_accessed() (paper §IV, Fig. 4).
    if (!page->onLru() || page->unevictable())
        return;
    if (!page->referenced()) {
        page->setReferenced(true);
        return;
    }
    auto &lists = sim_->memory().node(page->node()).lists();
    if (isInactiveList(page->list())) {
        // Activate: inactive referenced -> active (transition 6).
        page->setReferenced(false);
        lists.moveTo(page, pfra::NodeLists::activeKind(page->isAnon()));
        return;
    }
    if (isActiveList(page->list())) {
        // Transition (10): active + referenced + referenced again ->
        // PagePromote, move to the promote list.
        page->setPromoteFlag(true);
        lists.moveTo(page, pfra::NodeLists::promoteKind(page->isAnon()));
        return;
    }
    // Promote list: transition (12) — accessed again, stays put.
}

pfra::PageFilter
MultiClockPolicy::lowProtectionFilter(TierRank tier) const
{
    // Empty on tenant-free hosts so the common path never pays the
    // std::function dispatch (and stays bit-identical to pre-memcg).
    if (!sim_->memcg().active())
        return {};
    const MemCgroupManager &mc = sim_->memcg();
    return [&mc, tier](const Page &pg) {
        return mc.lowProtected(pg.memcg(), tier);
    };
}

void
MultiClockPolicy::handlePressure(sim::Node &node)
{
    Kpromoted &kp = *kpromoted_[static_cast<std::size_t>(node.id())];

    // Step 1: promote-list pages first attempt to migrate up; failures
    // (locked pages, top tier) land on the active list.
    for (bool anon : {true, false}) {
        kp.shrinkPromoteList(node, anon, node.lists().promoteSize(anon),
                             /*underPressure=*/true);
    }

    // Step 2: rebalance the active:inactive ratio.
    for (bool anon : {true, false}) {
        const auto stats = pfra::balanceActiveInactive(
            node.lists(), anon, kPressureBudget, node.inactiveRatio());
        sim_->chargeScan(stats.scanned);
    }

    // Step 3: demote unreferenced inactive-tail pages one tier down; on
    // the lowest tier, write back to block storage instead. Tenants at
    // or below their memcg "low" floor are spared on the first pass.
    const pfra::PageFilter spare = lowProtectionFilter(node.tier());
    std::size_t remaining = kPressureBudget;
    while (!node.aboveHigh() && remaining > 0 &&
           reclaimPass(node, remaining, spare)) {
    }
}

std::size_t
MultiClockPolicy::demoteFromTier(TierRank tier, std::size_t target)
{
    auto &mem = sim_->memory();
    // A page is demotion-worthy only if it has been idle for at least
    // two scan windows; pages merely un-referenced within the current
    // window are often streaming data that returns next iteration.
    const SimTime idleFloor = scanInterval_ * 2;
    const SimTime now = sim_->now();
    const pfra::PageFilter spare = lowProtectionFilter(tier);
    std::size_t demoted = 0;
    for (NodeId id : mem.tier(tier)) {
        sim::Node &node = mem.node(id);
        for (bool anon : {false, true}) {
            if (demoted >= target)
                return demoted;
            std::vector<Page *> victims;
            auto stats = pfra::collectInactiveCandidates(
                node.lists(), anon, (target - demoted) * 2, victims,
                spare);
            if (victims.empty() && spare && stats.rotated > 0) {
                stats.merge(pfra::collectInactiveCandidates(
                    node.lists(), anon, (target - demoted) * 2,
                    victims));
            }
            sim_->chargeScan(stats.scanned);
            for (Page *pg : victims) {
                const bool idle =
                    pg->lastAccess() + idleFloor <= now;
                if (idle && demoted < target &&
                    sim_->demotePage(
                        pg, sim::Simulator::ChargeMode::Background)) {
                    ++demoted;
                } else {
                    // Still warm, out of budget, or no space below:
                    // put it back.
                    node.lists().add(
                        pg, pfra::NodeLists::inactiveKind(anon));
                }
            }
        }
    }
    return demoted;
}

policies::FeatureRow
MultiClockPolicy::features() const
{
    policies::FeatureRow row;
    row.tiering = "MULTI-CLOCK";
    row.tracking = "Reference Bit";
    row.promotion = "Recency+Frequency";
    row.demotion = "Recency";
    row.numaAware = "Yes";
    row.spaceOverhead = "No";
    row.generality = "All";
    row.evaluation = "PM";
    row.usability = "None";
    row.keyInsight = "Low overhead Recency/Frequency";
    return row;
}

}  // namespace core
}  // namespace mclock
