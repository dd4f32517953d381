#include "policies/autotiering.hh"

#include <algorithm>

#include "base/logging.hh"
#include "pfra/lru_lists.hh"
#include "sim/simulator.hh"
#include "vm/page.hh"

namespace mclock {
namespace policies {

AutoTieringPolicy::AutoTieringPolicy(AutoTieringMode mode,
                                     const PolicyOptions &opts)
    : mode_(mode), scanInterval_(opts.scanInterval),
      poisonPagesPerSec_(opts.poisonPagesPerSec)
{
}

void
AutoTieringPolicy::attach(sim::Simulator &sim)
{
    TieringPolicy::attach(sim);
    sim.daemons().add("at_scan", scanInterval_,
                      [this](SimTime now) { scanTick(now); });
}

void
AutoTieringPolicy::scanTick(SimTime now)
{
    auto &space = sim_->space();
    const PageNum limit = space.vpnLimit();
    if (limit == 0)
        return;

    sim_->vmstat().add(stats::VmItem::KpromotedWake);
    sim_->trace().record(stats::TraceEventType::KpromotedWake,
                         kInvalidNode, cursor_, 0);

    auto &mem = sim_->memory();
    std::size_t poisoned = 0;
    std::size_t visited = 0;
    std::size_t demoted = 0;
    // AutoNUMA unmaps a bounded chunk per pass: the poisoning rate
    // times the pass period. Even at its most aggressive it covers the
    // footprint over many passes, never all of it at once.
    const std::size_t rateChunk = std::max<std::size_t>(
        16, static_cast<std::size_t>(poisonPagesPerSec_ *
                                     static_cast<double>(scanInterval_) /
                                     1e9));
    const std::size_t chunk = std::min<std::size_t>(
        rateChunk,
        std::max<std::size_t>(64, static_cast<std::size_t>(limit) / 16));
    // A hot page hint-faults about once per full poisoning pass; use
    // that as the recency unit for the victim-coldness horizon.
    passPeriod_ = scanInterval_ *
                  std::max<SimTime>(1, (limit + chunk - 1) / chunk);
    // Visit each page at most once per pass (one wrap of the space),
    // so the history vector shifts exactly once per profiling pass.
    const std::size_t maxVisit = static_cast<std::size_t>(limit);

    while (poisoned < chunk && visited < maxVisit) {
        if (cursor_ >= limit)
            cursor_ = 0;
        Page *pg = space.lookup(cursor_++);
        ++visited;
        if (!pg || !pg->resident() || pg->unevictable())
            continue;

        // History maintenance: one shift per profiling visit, recording
        // whether the page hint-faulted since the previous visit.
        pg->shiftHistory(pg->hintFaultedSinceScan());
        pg->setHintFaultedSinceScan(false);

        // OPM's progressive demotion: zero-history upper-tier pages
        // (anything with a tier below them) are demoted when their tier
        // lacks headroom.
        TierRank below;
        if (opm() && demoted < kDemoteBudget &&
            pg->historyBits() == 0 && pg->onLru() &&
            mem.lowerTier(sim_->pageTier(pg), below)) {
            sim::Node &node = mem.node(pg->node());
            if (node.freeFrames() <= node.watermarks().high) {
                if (demoteColdPage(pg)) {
                    ++demoted;
                    continue;
                }
            }
        }

        if (!pg->hintPoisoned()) {
            pg->setHintPoisoned(true);
            ++poisoned;
        }
    }
    // PTE manipulation cost for the pass (change_prot_numa).
    sim_->chargeScan(visited);
    sim_->vmstat().add(stats::VmItem::NumaPteUpdates, kInvalidNode,
                       poisoned);
    (void)now;
}

void
AutoTieringPolicy::onHintFault(Page *page)
{
    const SimTime now = sim_->now();
    lastHintFault_[page->vpn()] = now;
    page->setHintFaultedSinceScan(true);
    if (!page->onLru() || page->locked())
        return;
    auto &mem = sim_->memory();
    // Pages on the top tier have nowhere to promote into; everything
    // below targets its adjacent faster tier.
    TierRank up;
    if (!mem.higherTier(sim_->pageTier(page), up))
        return;

    auto &srcLists = mem.node(page->node()).lists();

    // Promotion to the best node, synchronously in the fault handler.
    // Conservative path: only when the upper tier has genuinely free
    // frames (above the reserve).
    const NodeId dst = mem.pickNodeWithSpace(up, /*respectMin=*/true);
    if (dst != kInvalidNode) {
        srcLists.remove(page);
        if (sim_->migratePage(page, dst,
                              sim::Simulator::ChargeMode::FaultPath)) {
            sim_->vmstat().add(stats::VmItem::NumaPagesMigrated, dst);
            return;
        }
        srcLists.add(page, pfra::NodeLists::inactiveKind(page->isAnon()));
        return;
    }

    if (mode_ == AutoTieringMode::AutoNuma)
        return;  // AutoNUMA-tiering never displaces upper-tier pages

    // Upper tier full: exchange with a victim that looks colder. With
    // only sparse hint-fault recency to judge by, this is where CPM goes
    // wrong under churny workloads.
    Page *victim = pickColdVictim(page->isAnon(), now, up);
    if (!victim)
        return;
    auto &victimLists = mem.node(victim->node()).lists();
    srcLists.remove(page);
    victimLists.remove(victim);
    if (!sim_->exchangePages(page, victim,
                             sim::Simulator::ChargeMode::FaultPath)) {
        srcLists.add(page, pfra::NodeLists::inactiveKind(page->isAnon()));
        victimLists.add(victim,
                        pfra::NodeLists::inactiveKind(victim->isAnon()));
    }
}

SimTime
AutoTieringPolicy::coldHorizon() const
{
    // At least one full profiling pass without a fault, and never
    // shorter than three profiling intervals.
    return std::max(scanInterval_ * 3, passPeriod_);
}

SimTime
AutoTieringPolicy::lastHintFault(const Page *page) const
{
    const auto it = lastHintFault_.find(page->vpn());
    return it == lastHintFault_.end() ? 0 : it->second;
}

void
AutoTieringPolicy::onPageFreed(Page *page)
{
    lastHintFault_.erase(page->vpn());
    TieringPolicy::onPageFreed(page);
}

Page *
AutoTieringPolicy::pickColdVictim(bool anon, SimTime now, TierRank tier)
{
    auto &mem = sim_->memory();
    for (NodeId id : mem.tier(tier)) {
        auto &lists = mem.node(id).lists();
        for (LruListKind kind : {pfra::NodeLists::inactiveKind(anon),
                                 pfra::NodeLists::activeKind(anon)}) {
            auto &list = lists.list(kind);
            const std::size_t sample =
                std::min(kVictimSample, list.size());
            for (std::size_t i = 0; i < sample; ++i) {
                Page *pg = list.back();
                lists.rotateToFront(pg);
                if (pg->locked() || pg->unevictable())
                    continue;
                if (opm()) {
                    // OPM judges coldness by the history vector.
                    if (pg->historyBits() == 0)
                        return pg;
                } else {
                    // CPM: no hint fault within the recency horizon.
                    if (now - lastHintFault(pg) >= coldHorizon()) {
                        return pg;
                    }
                }
            }
        }
    }
    return nullptr;
}

bool
AutoTieringPolicy::demoteColdPage(Page *page)
{
    auto &lists = sim_->memory().node(page->node()).lists();
    lists.remove(page);
    if (sim_->demotePage(page, sim::Simulator::ChargeMode::Background))
        return true;
    lists.add(page, pfra::NodeLists::inactiveKind(page->isAnon()));
    return false;
}

void
AutoTieringPolicy::handlePressure(sim::Node &node)
{
    TierRank below;
    if (opm() && sim_->memory().lowerTier(node.tier(), below)) {
        // Demote history-cold pages until the watermark recovers.
        auto &lists = node.lists();
        std::size_t budget = kDemoteBudget;
        for (bool anon : {true, false}) {
            auto &inactive =
                lists.list(pfra::NodeLists::inactiveKind(anon));
            std::size_t scan = std::min(budget, inactive.size());
            while (scan-- > 0 && !node.aboveHigh()) {
                Page *pg = inactive.back();
                if (pg->historyBits() == 0 && !pg->locked() &&
                    !pg->unevictable()) {
                    if (demoteColdPage(pg))
                        continue;
                }
                lists.rotateToFront(pg);
            }
        }
        return;
    }
    // CPM performs no proactive demotion; both fall back to last-resort
    // eviction on the lowest tier.
    TieringPolicy::handlePressure(node);
}

FeatureRow
AutoTieringPolicy::features() const
{
    FeatureRow row;
    switch (mode_) {
      case AutoTieringMode::AutoNuma:
        row.tiering = "AutoNUMA-Tiering";
        break;
      case AutoTieringMode::Cpm:
        row.tiering = "AutoTiering-CPM";
        break;
      case AutoTieringMode::Opm:
        row.tiering = "AutoTiering-OPM";
        break;
    }
    row.tracking = "Software Page Fault";
    row.promotion = "Recency";
    row.demotion = opm() ? "Frequency" : "N/A";
    row.numaAware = "Yes";
    row.spaceOverhead = "Yes";
    row.generality = "All";
    row.evaluation = "PM";
    row.usability = "Config. NUMA Paths";
    row.keyInsight = mode_ == AutoTieringMode::AutoNuma
                         ? "NUMA balancing"
                         : "Maintain N-bit history for demotion";
    return row;
}

}  // namespace policies
}  // namespace mclock
