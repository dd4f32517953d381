#include "mem/cache.hh"

#include <algorithm>
#include <bit>

namespace mclock {

namespace {

unsigned
log2Exact(std::size_t v)
{
    MCLOCK_ASSERT(v > 0 && (v & (v - 1)) == 0);
    return static_cast<unsigned>(std::countr_zero(v));
}

/**
 * Move @p way to rank 0 of the recency word @p order. The ways more
 * recent than it move from rank r to r + 1; the rest keep their rank.
 */
inline std::uint64_t
touch(std::uint64_t order, unsigned way)
{
    constexpr std::uint64_t kOnes = 0x1111111111111111ull;
    // Lowest zero nibble of order ^ way: the way's rank (SWAR zero
    // test; a borrow can only flag nibbles above the first zero).
    const std::uint64_t x = order ^ (kOnes * way);
    const std::uint64_t zero = (x - kOnes) & ~x & (kOnes << 3);
    const unsigned shift =
        static_cast<unsigned>(std::countr_zero(zero)) - 3;  // 4 * rank
    const std::uint64_t above = order & (~0ull << shift << 4);
    const std::uint64_t below = order & ((std::uint64_t{1} << shift) - 1);
    return above | below << 4 | way;
}

}  // namespace

CacheModel::CacheModel(const CacheConfig &cfg)
    : numSets_(cfg.sizeBytes / (kLineBytes * cfg.ways)),
      tagShift_(kLineShift + log2Exact(numSets_)),
      ways_(cfg.ways),
      tags_(numSets_)
{
    // dirty_ is a 16-bit mask and the recency word has 16 nibbles.
    MCLOCK_ASSERT(ways_ >= 1 && ways_ <= detail::kTagLanes);
    reset();
}

CacheResult
CacheModel::access(Paddr pa, bool isWrite)
{
    const std::size_t set = setOf(pa);
    const std::uint32_t tag = tagOf(pa);
    TagRow &row = tags_[set];
    std::uint64_t &order = order_[set];
    std::uint16_t &dirty = dirty_[set];

    // Fast path: the set's most recent line is already at rank 0.
    const unsigned mru = static_cast<unsigned>(order & 0xf);
    if (row.lane[mru] == tag) {
        dirty |= static_cast<std::uint16_t>(
            static_cast<unsigned>(isWrite) << mru);
        ++hits_;
        return {true, false};
    }

    // Branchless membership: one full-row compare instead of an
    // early-exit loop, whose data-dependent exit mispredicts.
    const unsigned match = detail::laneMask(row.lane, tag);
    if (match) {
        const unsigned w = static_cast<unsigned>(std::countr_zero(match));
        order = touch(order, w);
        dirty |= static_cast<std::uint16_t>(
            static_cast<unsigned>(isWrite) << w);
        ++hits_;
        return {true, false};
    }

    // Miss: the first invalid way, else the least recently used one.
    const unsigned invalid = detail::laneMask(row.lane, kInvalidTag);
    const unsigned victim =
        invalid ? static_cast<unsigned>(std::countr_zero(invalid))
                : static_cast<unsigned>(order >> (4 * (ways_ - 1))) & 0xf;
    ++misses_;
    const std::uint16_t victimBit =
        static_cast<std::uint16_t>(1u << victim);
    const bool writeback = invalid == 0 && (dirty & victimBit) != 0;
    if (writeback)
        ++writebacks_;
    row.lane[victim] = tag;
    order = touch(order, victim);
    if (isWrite)
        dirty |= victimBit;
    else
        dirty = static_cast<std::uint16_t>(dirty & ~victimBit);
    return {false, writeback};
}

void
CacheModel::invalidatePage(Paddr pageBase)
{
    // The page's lines fall in runs of consecutive sets (one run when
    // the cache has 64 sets or more), and the lines of a run share a
    // tag: each run is one row compare per set against a fixed tag.
    constexpr std::size_t kLines = kPageSize / kLineBytes;
    const std::size_t run = std::min(kLines, numSets_);
    const Paddr start = pageBase & ~static_cast<Paddr>(kPageSize - 1);
    for (Paddr pa = start; pa < start + kPageSize; pa += run * kLineBytes) {
        const std::uint32_t tag = tagOf(pa);
        TagRow *row = &tags_[setOf(pa)];
        std::uint16_t *dirty = &dirty_[setOf(pa)];
        for (std::size_t i = 0; i < run; ++i) {
            const unsigned match = detail::laneMask(row[i].lane, tag);
            if (match) {
                const unsigned w =
                    static_cast<unsigned>(std::countr_zero(match));
                row[i].lane[w] = kInvalidTag;
                dirty[i] = static_cast<std::uint16_t>(dirty[i] & ~(1u << w));
            }
        }
    }
}

void
CacheModel::reset()
{
    for (TagRow &row : tags_) {
        for (unsigned l = 0; l < detail::kTagLanes; ++l)
            row.lane[l] = l < ways_ ? kInvalidTag : kPadTag;
    }
    order_.assign(numSets_, kIdentityOrder);
    dirty_.assign(numSets_, 0);
    hits_ = misses_ = writebacks_ = 0;
}

}  // namespace mclock
