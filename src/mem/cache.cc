#include "mem/cache.hh"

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
    : lineShift_(log2Exact(cfg.lineBytes)),
      numSets_(cfg.sizeBytes / (static_cast<std::size_t>(cfg.lineBytes) *
                                cfg.ways)),
      tagShift_(lineShift_ + log2Exact(numSets_)),
      ways_(cfg.ways),
      pageMaskable_(lineShift_ + 6 >= kPageShift),
      tags_(numSets_)
{
    // dirty_ is a 16-bit mask and the recency word has 16 nibbles.
    MCLOCK_ASSERT(ways_ >= 1 && ways_ <= detail::kTagLanes);
    reset();
}

CacheResult
CacheModel::access(Paddr pa, bool isWrite, std::uint64_t *lineMask)
{
    if (lineMask && pageMaskable_) {
        *lineMask |= std::uint64_t{1}
            << ((pa & (kPageSize - 1)) >> lineShift_);
    }
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
CacheModel::invalidateLine(std::size_t set, std::uint32_t tag)
{
    const unsigned match = detail::laneMask(tags_[set].lane, tag);
    if (match) {
        const unsigned w = static_cast<unsigned>(std::countr_zero(match));
        tags_[set].lane[w] = kInvalidTag;
        dirty_[set] = static_cast<std::uint16_t>(dirty_[set] & ~(1u << w));
    }
}

void
CacheModel::invalidatePage(Paddr pageBase, std::uint64_t *lineMask)
{
    const Paddr start = pageBase & ~static_cast<Paddr>(kPageSize - 1);
    const Paddr lineBytes = Paddr{1} << lineShift_;
    if (lineMask && pageMaskable_) {
        // Only lines whose mask bit is set can be cached; everything
        // else never went through access() at this physical address.
        std::uint64_t mask = *lineMask;
        *lineMask = 0;
        while (mask != 0) {
            const unsigned i = static_cast<unsigned>(
                std::countr_zero(mask));
            mask &= mask - 1;
            const Paddr pa = start + static_cast<Paddr>(i) * lineBytes;
            invalidateLine(setOf(pa), tagOf(pa));
        }
        return;
    }
    for (Paddr pa = start; pa < start + kPageSize; pa += lineBytes)
        invalidateLine(setOf(pa), tagOf(pa));
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
