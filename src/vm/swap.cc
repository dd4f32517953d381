#include "vm/swap.hh"

#include "base/logging.hh"

namespace mclock {

void
SwapDevice::pageOut(Page *page)
{
    if (!page->isAnon())
        return;  // file-backed pages write back to their file
    MCLOCK_ASSERT(hasSpace());
    const bool fresh = slots_.insert(page).second;
    // A page swapped out twice without an intervening page-in would
    // leak its first slot's accounting (double-release on the other
    // side); trap the corruption at the point it happens.
    MCLOCK_ASSERT(fresh);
    (void)fresh;
}

void
SwapDevice::pageIn(Page *page)
{
    if (!page->isAnon())
        return;
    // erase() returns how many slots were actually freed (0 or 1); a
    // page-in of a page that held no slot must not count as one, or
    // the slot-conservation identity (harness/invariants.cc) drifts.
    slotFrees_ += slots_.erase(page);
}

void
SwapDevice::releaseSlot(Page *page)
{
    if (!page->isAnon())
        return;
    // Counting erased slots (not calls) makes double-release visible:
    // usedSlots() == pswpout - slotFrees() - slotReleases() holds only
    // if every slot is freed exactly once.
    releases_ += slots_.erase(page);
}

}  // namespace mclock
