#include "policies/policy.hh"

#include <algorithm>
#include <vector>

#include "base/logging.hh"
#include "pfra/vmscan.hh"
#include "sim/simulator.hh"
#include "vm/page.hh"

namespace mclock {
namespace policies {

void
TieringPolicy::attach(sim::Simulator &sim)
{
    sim_ = &sim;
}

NodeId
TieringPolicy::selectAllocationNode(Page &page)
{
    (void)page;
    auto &mem = sim_->memory();
    // Highest-performing tier with room above the reserve wins; this is
    // where pages are "born in" under tiered allocation.
    for (TierRank rank : mem.tierOrder()) {
        const NodeId id = mem.pickNodeWithSpace(rank, /*respectMin=*/true);
        if (id != kInvalidNode)
            return id;
    }
    // All tiers below their min watermark: dip into reserves bottom-up.
    const auto &order = mem.tierOrder();
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
        const NodeId id = mem.pickNodeWithSpace(*it, /*respectMin=*/false);
        if (id != kInvalidNode)
            return id;
    }
    return kInvalidNode;
}

void
TieringPolicy::onPageAllocated(Page *page)
{
    // New pages start in the inactive-unreferenced state (Fig. 4).
    MCLOCK_ASSERT(page->resident());
    auto &lists = sim_->memory().node(page->node()).lists();
    if (page->unevictable()) {
        lists.add(page, LruListKind::Unevictable);
        return;
    }
    page->setReferenced(false);
    page->setPromoteFlag(false);
    lists.add(page, pfra::NodeLists::inactiveKind(page->isAnon()));
}

void
TieringPolicy::onPageFreed(Page *page)
{
    if (page->onLru())
        sim_->memory().node(page->node()).lists().remove(page);
}

void
TieringPolicy::onMemoryAccess(Page *page, AccessContext &ctx)
{
    (void)page;
    (void)ctx;
}

void
TieringPolicy::onSupervisedAccess(Page *page)
{
    // Vanilla mark_page_accessed(): first touch sets PG_referenced, a
    // second touch activates the page.
    if (!page->onLru() || page->unevictable())
        return;
    if (!page->referenced()) {
        page->setReferenced(true);
        return;
    }
    if (isInactiveList(page->list())) {
        page->setReferenced(false);
        auto &lists = sim_->memory().node(page->node()).lists();
        lists.moveTo(page, pfra::NodeLists::activeKind(page->isAnon()));
    }
    // Already active: PG_referenced stays set.
}

void
TieringPolicy::onHintFault(Page *page)
{
    (void)page;
}

void
TieringPolicy::handlePressure(sim::Node &node)
{
    // Default: last-resort eviction on the lowest tier only. Tiering
    // policies override this with their demotion mechanisms.
    if (node.tier() != sim_->memory().tierOrder().back())
        return;
    std::size_t guard = 0;
    while (!node.aboveHigh() && guard++ < 64) {
        if (evictToStorage(node, 64) == 0)
            break;
    }
}

std::size_t
TieringPolicy::evictToStorage(sim::Node &node, std::size_t target)
{
    auto &lists = node.lists();
    std::size_t freed = 0;
    // Kernel order: prefer file-backed pages (cheap to drop) over anon.
    for (bool anon : {false, true}) {
        if (freed >= target)
            break;
        pfra::ScanStats balance = pfra::balanceActiveInactive(
            lists, anon, target * 2, node.inactiveRatio());
        sim_->chargeScan(balance.scanned);
        std::vector<Page *> victims;
        pfra::ScanStats scan = pfra::collectInactiveCandidates(
            lists, anon, target - freed, victims);
        sim_->chargeScan(scan.scanned);
        for (Page *pg : victims) {
            sim_->evictPage(pg);
            ++freed;
        }
    }
    return freed;
}

bool
TieringPolicy::reclaimPass(sim::Node &node, std::size_t &remaining,
                           const pfra::PageFilter &spare)
{
    TierRank down;
    const bool hasLower = sim_->memory().lowerTier(node.tier(), down);
    bool reclaimed = false;
    // Kernel order: file-backed pages first, then anon.
    for (bool anon : {false, true}) {
        const std::size_t chunk = std::min<std::size_t>(remaining, 64);
        if (chunk == 0)
            break;
        std::vector<Page *> victims;
        auto stats = pfra::collectInactiveCandidates(
            node.lists(), anon, chunk, victims, spare);
        if (victims.empty() && spare && stats.rotated > 0) {
            // Only spared pages at the tail: the filter is a soft
            // floor, so it yields rather than stalling reclaim.
            stats.merge(pfra::collectInactiveCandidates(
                node.lists(), anon, chunk, victims));
        }
        sim_->chargeScan(stats.scanned);
        remaining -= std::min<std::size_t>(
            remaining, stats.scanned ? stats.scanned : 1);
        for (Page *pg : victims) {
            reclaimed = true;
            if (!hasLower ||
                !sim_->demotePage(pg,
                                  sim::Simulator::ChargeMode::Background))
                sim_->evictPage(pg);
        }
    }
    return reclaimed;
}

}  // namespace policies
}  // namespace mclock
