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
 * access, so each set is one 64-byte tag row of sixteen 32-bit lanes
 * plus one recency word and one dirty bitmask. A tag is the line
 * address without its set bits, so a lane's 32 bits name the line
 * exactly; tagOf() asserts that, and the simulator refuses a machine
 * whose top physical line would not fit. Lanes at or above the way
 * count hold a pad sentinel that neither matches nor counts as invalid,
 * so one path serves 1 to 16 ways. laneMask() compares all 16 lanes in
 * baseline SSE2, with no CPU dispatch; a miss alone asks for invalids.
 *
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
 */

#ifndef MCLOCK_MEM_CACHE_HH_
#define MCLOCK_MEM_CACHE_HH_

#include <cstdint>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "base/logging.hh"
#include "base/types.hh"
#include "mem/memory_config.hh"

namespace mclock {

namespace detail {

/** Lanes per tag row: the recency word and dirty mask hold 16 ways. */
constexpr unsigned kTagLanes = 16;

/** Bit l set <=> @p lanes[l] == @p tag, one lane at a time. */
inline unsigned
laneMaskScalar(const std::uint32_t *lanes, std::uint32_t tag)
{
    unsigned mask = 0;
    for (unsigned l = 0; l < kTagLanes; ++l)
        mask |= static_cast<unsigned>(lanes[l] == tag) << l;
    return mask;
}

/** laneMaskScalar() of a 16-byte-aligned row, in SSE2 where built. */
inline unsigned
laneMask(const std::uint32_t *lanes, std::uint32_t tag)
{
#if defined(__SSE2__)
    // Each 32-bit compare yields 0 or -1; signed packs keep both, so
    // byte l of the packed vector is lane l's result.
    const __m128i *row = reinterpret_cast<const __m128i *>(lanes);
    const __m128i t = _mm_set1_epi32(static_cast<int>(tag));
    const __m128i lo = _mm_packs_epi32(
        _mm_cmpeq_epi32(_mm_load_si128(row), t),
        _mm_cmpeq_epi32(_mm_load_si128(row + 1), t));
    const __m128i hi = _mm_packs_epi32(
        _mm_cmpeq_epi32(_mm_load_si128(row + 2), t),
        _mm_cmpeq_epi32(_mm_load_si128(row + 3), t));
    return static_cast<unsigned>(
        _mm_movemask_epi8(_mm_packs_epi16(lo, hi)));
#else
    return laneMaskScalar(lanes, tag);
#endif
}

}  // namespace detail

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

    /** Whether the line of @p pa has a tag below the sentinels. */
    bool tagFits(Paddr pa) const { return (pa >> tagShift_) < kPadTag; }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t writebacks() const { return writebacks_; }
    std::size_t numSets() const { return numSets_; }
    unsigned ways() const { return ways_; }

  private:
    static constexpr std::uint32_t kInvalidTag = ~0u;
    /** Lanes >= ways_: never a tag, never invalid. */
    static constexpr std::uint32_t kPadTag = ~0u - 1;
    /**
     * Way r at rank r. Nibbles at ranks >= ways_ hold values >= ways_,
     * so they never match a way and never move.
     */
    static constexpr std::uint64_t kIdentityOrder = 0xfedcba9876543210ull;

    struct alignas(64) TagRow { std::uint32_t lane[detail::kTagLanes]; };

    std::size_t
    setOf(Paddr pa) const
    {
        return (pa >> lineShift_) & (numSets_ - 1);
    }

    std::uint32_t
    tagOf(Paddr pa) const
    {
        MCLOCK_ASSERT(tagFits(pa));
        return static_cast<std::uint32_t>(pa >> tagShift_);
    }

    /** Invalidate @p tag in @p set if present. */
    void invalidateLine(std::size_t set, std::uint32_t tag);

    unsigned lineShift_;
    std::size_t numSets_;
    unsigned tagShift_;  ///< lineShift_ + log2(numSets_)
    unsigned ways_;
    /**
     * Page masks are only usable when a page spans at most 64 lines
     * (one bit each); for smaller line sizes both access() and
     * invalidatePage() ignore the mask and stay exact via full scans.
     */
    bool pageMaskable_;
    // Per-set state, set-major.
    std::vector<TagRow> tags_;
    std::vector<std::uint64_t> order_;  ///< per-set recency word
    std::vector<std::uint16_t> dirty_;  ///< per-set dirty bitmask (way i
                                        ///< dirty <=> bit i set)
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t writebacks_ = 0;
};

}  // namespace mclock

#endif  // MCLOCK_MEM_CACHE_HH_
