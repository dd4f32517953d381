/**
 * @file
 * Set-associative last-level-cache model used as an access filter.
 *
 * The simulator models the entire on-chip cache hierarchy as a single
 * set-associative cache in front of memory. Its purpose is behavioural:
 * accesses that hit on-chip are invisible to the OS (no PTE accessed-bit
 * update on a TLB hit without a page walk) and do not benefit from page
 * placement, so a tiering policy should not be rewarded for promoting a
 * page whose lines are cache-resident. Lookups are tag-only; no data is
 * stored.
 *
 * Hot-path layout: the model is on the critical path of every simulated
 * access, so the per-set state is stored structure-of-arrays — one
 * contiguous tag array, one recency word and one dirty bitmask per set.
 * The recency word is the set's exact LRU order: nibble r holds the way
 * at rank r, rank 0 being the most recently used. A hit on the rank-0
 * line is one compare and leaves the word unchanged; any other hit or
 * fill moves its way to rank 0. On a miss the victim is the first
 * invalid way, else the way at the last rank, so choosing it is a read.
 *
 * Exactness: the order equals that of unique, ever-growing per-access
 * LRU stamps (the victim being the smallest stamp), without the stamps.
 * An invalidated way keeps its rank, but invalid ways are always chosen
 * before the last rank, so that rank is only read once every way has
 * been refilled (and so re-ranked) since.
 *
 * The tag scan is branchless (a full-width compare mask instead of an
 * early-exit loop, whose data-dependent branch mispredicts on nearly
 * every lookup) and uses AVX2 when the host CPU has it: an all-scalar
 * scan made the GAPBS PageRank benchmark about 1.4x slower.
 */

#ifndef MCLOCK_MEM_CACHE_HH_
#define MCLOCK_MEM_CACHE_HH_

#include <cstdint>
#include <vector>

#include "base/types.hh"
#include "mem/memory_config.hh"

namespace mclock {

/** Result of a cache lookup. */
struct CacheResult
{
    bool hit;              ///< line present in the cache
    bool writebackDirty;   ///< a dirty victim was evicted (miss only)
};

/** Tag-only set-associative cache with per-set LRU replacement. */
class CacheModel
{
  public:
    explicit CacheModel(const CacheConfig &cfg);

    /**
     * Access the line containing physical address @p pa.
     * Allocates on miss (write-allocate); marks the line dirty on stores.
     *
     * @p lineMask when non-null, the per-page residency filter of the
     * page containing @p pa (see invalidatePage): the accessed line's
     * bit is set before the lookup, keeping the filter conservative.
     */
    CacheResult access(Paddr pa, bool isWrite,
                       std::uint64_t *lineMask = nullptr);

    /**
     * Invalidate every line belonging to the 4 KiB page at @p pageBase.
     * Called when a page migrates (its physical address changes) so stale
     * lines do not keep serving hits for the old location.
     *
     * @p lineMask when non-null, a conservative per-page filter: bit i
     * set means line i of the page MAY be cached (set on every access
     * to that line), bit clear means it definitely is not, so its set
     * scan is skipped. The mask is zeroed on return. Exactness: lines
     * enter the cache only through access(), which sets the bit first.
     */
    void invalidatePage(Paddr pageBase,
                        std::uint64_t *lineMask = nullptr);

    void reset();

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t writebacks() const { return writebacks_; }
    std::size_t numSets() const { return numSets_; }
    unsigned ways() const { return ways_; }

  private:
    static constexpr std::uint64_t kInvalidTag = ~0ull;
    /**
     * Way r at rank r. Nibbles at ranks >= ways_ hold values >= ways_,
     * so they never match a way and never move.
     */
    static constexpr std::uint64_t kIdentityOrder = 0xfedcba9876543210ull;

    std::size_t
    setOf(Paddr pa) const
    {
        return (pa >> lineShift_) & (numSets_ - 1);
    }

    std::uint64_t tagOf(Paddr pa) const { return pa >> lineShift_; }

    /** Invalidate @p tag in @p set if present. */
    void invalidateLine(std::size_t set, std::uint64_t tag);

    unsigned lineShift_;
    std::size_t numSets_;
    unsigned ways_;
    /**
     * Page masks are only usable when a page spans at most 64 lines
     * (one bit each); for smaller line sizes both access() and
     * invalidatePage() ignore the mask and stay exact via full scans.
     */
    bool pageMaskable_;
    // AVX2 tag scan (see cache.cc); false when the host CPU lacks AVX2
    // or the way count doesn't tile into vectors.
    bool simdScan_ = false;
    // Structure-of-arrays per-line state, set-major.
    std::vector<std::uint64_t> tags_;   ///< numSets_ * ways_
    std::vector<std::uint64_t> order_;  ///< per-set recency word
    std::vector<std::uint16_t> dirty_;  ///< per-set dirty bitmask (way i
                                        ///< dirty <=> bit i set)
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t writebacks_ = 0;
};

}  // namespace mclock

#endif  // MCLOCK_MEM_CACHE_HH_
