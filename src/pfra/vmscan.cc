#include "pfra/vmscan.hh"

namespace mclock {
namespace pfra {

bool
testAndClearReferenced(Page *page)
{
    bool referenced = page->testAndClearPteReferenced();
    if (page->referenced()) {
        referenced = true;
        page->setReferenced(false);
    }
    return referenced;
}

ScanStats
shrinkActiveList(NodeLists &lists, bool anon, std::size_t nrScan)
{
    ScanStats stats;
    auto &active = lists.list(NodeLists::activeKind(anon));
    const std::size_t budget = std::min(nrScan, active.size());
    for (std::size_t i = 0; i < budget; ++i) {
        Page *page = active.back();
        if (!page)
            break;
        ++stats.scanned;
        if (testAndClearReferenced(page)) {
            lists.rotateToFront(page);
            ++stats.rotated;
        } else {
            page->setReferenced(false);
            lists.moveTo(page, NodeLists::inactiveKind(anon));
            ++stats.deactivated;
        }
    }
    lists.statAdd(::mclock::stats::VmItem::PgscanActive, stats.scanned);
    return stats;
}

ScanStats
balanceActiveInactive(NodeLists &lists, bool anon, std::size_t nrScan,
                      unsigned ratio)
{
    ScanStats stats;
    std::size_t budget = nrScan;
    while (budget > 0 &&
           lists.activeSize(anon) > lists.inactiveSize(anon) * ratio) {
        const std::size_t chunk = std::min<std::size_t>(budget, 32);
        ScanStats pass = shrinkActiveList(lists, anon, chunk);
        stats.merge(pass);
        if (pass.scanned == 0)
            break;
        budget -= pass.scanned;
    }
    return stats;
}

ScanStats
collectInactiveCandidates(NodeLists &lists, bool anon, std::size_t nrScan,
                          std::vector<Page *> &out,
                          const PageFilter &spare)
{
    ScanStats stats;
    auto &inactive = lists.list(NodeLists::inactiveKind(anon));
    const std::size_t budget = std::min(nrScan, inactive.size());
    for (std::size_t i = 0; i < budget; ++i) {
        Page *page = inactive.back();
        if (!page)
            break;
        ++stats.scanned;
        if (page->unevictable() || page->locked() ||
            (spare && spare(*page))) {
            lists.rotateToFront(page);
            ++stats.rotated;
            continue;
        }
        if (page->testAndClearPteReferenced()) {
            // CLOCK second chance: first re-reference marks the page,
            // a second one (seen via PG_referenced) activates it.
            if (page->referenced()) {
                page->setReferenced(false);
                lists.moveTo(page, NodeLists::activeKind(anon));
                ++stats.activated;
            } else {
                page->setReferenced(true);
                lists.rotateToFront(page);
                ++stats.rotated;
            }
            continue;
        }
        // Not referenced since the last scan: reclaim candidate.
        page->setReferenced(false);
        lists.remove(page);
        out.push_back(page);
    }
    lists.statAdd(::mclock::stats::VmItem::PgscanInactive, stats.scanned);
    return stats;
}

}  // namespace pfra
}  // namespace mclock
