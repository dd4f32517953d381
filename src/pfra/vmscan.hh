/**
 * @file
 * Shared CLOCK-scanning primitives (the simulated mm/vmscan.c).
 *
 * Policies compose these building blocks: balancing the active/inactive
 * ratio, giving referenced pages a second chance, and collecting
 * demotion/eviction candidates from the tail of the inactive list.
 */

#ifndef MCLOCK_PFRA_VMSCAN_HH_
#define MCLOCK_PFRA_VMSCAN_HH_

#include <cstdint>
#include <functional>
#include <vector>

#include "pfra/lru_lists.hh"
#include "vm/page.hh"

namespace mclock {
namespace pfra {

/**
 * Optional page filter for candidate collection: return true to spare
 * the page (it rotates to the list head instead of being isolated).
 * Used for memcg soft "low" protection; an empty filter spares nothing.
 */
using PageFilter = std::function<bool(const Page &)>;

/** Accounting for one scanning pass; drives simulated scan cost. */
struct ScanStats
{
    std::uint64_t scanned = 0;      ///< pages examined (cost accrues)
    std::uint64_t rotated = 0;      ///< referenced pages given 2nd chance
    std::uint64_t deactivated = 0;  ///< active -> inactive moves
    std::uint64_t activated = 0;    ///< inactive -> active moves

    void
    merge(const ScanStats &o)
    {
        scanned += o.scanned;
        rotated += o.rotated;
        deactivated += o.deactivated;
        activated += o.activated;
    }
};

/**
 * Consume a page's referenced evidence: the PTE accessed bit (cleared by
 * the rmap walk) or the software PG_referenced flag (also cleared).
 *
 * @return true if the page was referenced since the last scan
 */
bool testAndClearReferenced(Page *page);

/**
 * shrink_active_list: scan up to @p nrScan pages from the tail of the
 * active list. Referenced pages rotate to the head of the active list;
 * unreferenced pages are deactivated to the head of the inactive list
 * with PG_referenced cleared.
 */
ScanStats shrinkActiveList(NodeLists &lists, bool anon,
                           std::size_t nrScan);

/**
 * Balance the lists: deactivate from the active list only while
 * active > inactive * ratio, scanning at most @p nrScan pages.
 */
ScanStats balanceActiveInactive(NodeLists &lists, bool anon,
                                std::size_t nrScan, unsigned ratio);

/**
 * shrink_inactive_list candidate collection: scan up to @p nrScan pages
 * from the tail of the inactive list. Pages referenced since the last
 * scan advance per CLOCK (unreferenced->referenced stays inactive,
 * referenced->activated). Unreferenced, unlocked pages are isolated
 * (taken off the LRU) and returned for the caller to demote or evict.
 * Pages @p spare approves of rotate untouched (memcg low protection);
 * callers re-run without the filter when a protected-only list would
 * otherwise stall reclaim entirely.
 */
ScanStats collectInactiveCandidates(NodeLists &lists, bool anon,
                                    std::size_t nrScan,
                                    std::vector<Page *> &out,
                                    const PageFilter &spare = {});

}  // namespace pfra
}  // namespace mclock

#endif  // MCLOCK_PFRA_VMSCAN_HH_
