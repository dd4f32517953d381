/**
 * @file
 * Block-storage backend for last-resort eviction.
 *
 * When the lowest tier is under pressure and a page cannot be migrated
 * further down, the PFRA writes it back to block storage: file-backed
 * pages to their file, anonymous pages to the swap area. This model
 * tracks slot occupancy; the simulator charges the device latency and
 * counts the traffic (pswpout, pswpin, pgwriteback) in vmstat.
 */

#ifndef MCLOCK_VM_SWAP_HH_
#define MCLOCK_VM_SWAP_HH_

#include <cstdint>
#include <unordered_set>

#include "base/types.hh"
#include "vm/page.hh"

namespace mclock {

/** Swap area + writeback device model. */
class SwapDevice
{
  public:
    /** @param capacityPages 0 means unlimited. */
    explicit SwapDevice(std::size_t capacityPages = 0)
        : capacity_(capacityPages)
    {}

    /** True if another anonymous page can be swapped out. */
    bool
    hasSpace() const
    {
        return capacity_ == 0 || slots_.size() < capacity_;
    }

    /**
     * Record that @p page's contents left memory. File-backed pages do
     * not consume swap slots (they go back to their file).
     */
    void pageOut(Page *page);

    /** Record that @p page's contents were read back in. */
    void pageIn(Page *page);

    /**
     * Free @p page's swap slot without reading it back (the region was
     * unmapped and the contents discarded). Unlike pageIn(), this is
     * not device traffic and does not count as a page-in.
     */
    void releaseSlot(Page *page);

    std::size_t usedSlots() const { return slots_.size(); }

    /**
     * Slots freed by anonymous page-ins (slots actually erased). With
     * slotReleases() this closes the slot-conservation identity the
     * invariant sweep checks: every swap-out (pswpout) still holds its
     * slot, was paged back in, or was released — exactly once.
     */
    std::uint64_t slotFrees() const { return slotFrees_; }

    /** Slots freed by releaseSlot (unmap/teardown, no device read). */
    std::uint64_t slotReleases() const { return releases_; }

  private:
    std::size_t capacity_;
    std::unordered_set<const Page *> slots_;
    std::uint64_t slotFrees_ = 0;
    std::uint64_t releases_ = 0;
};

}  // namespace mclock

#endif  // MCLOCK_VM_SWAP_HH_
