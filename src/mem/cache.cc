#include "mem/cache.hh"

#include <bit>

#include "base/logging.hh"

// The tag scan below is pure integer work, so its SIMD implementation
// is bit-for-bit identical to the scalar one. The AVX2 variant is
// compiled unconditionally via the target attribute (no -mavx2 build
// flag, so the rest of the object stays baseline x86-64) and selected
// once at construction with a runtime CPU check; non-x86 builds and
// way counts that are not a multiple of 4 use the scalar loop.
#if defined(__x86_64__) && defined(__GNUC__)
#define MCLOCK_CACHE_AVX2 1
#include <immintrin.h>
#endif

namespace mclock {

namespace {

unsigned
log2Exact(std::size_t v)
{
    MCLOCK_ASSERT(v > 0 && (v & (v - 1)) == 0);
    return static_cast<unsigned>(std::countr_zero(v));
}

#ifdef MCLOCK_CACHE_AVX2

/** Membership + validity masks over @p ways tags (ways % 4 == 0). */
__attribute__((target("avx2"))) inline void
scanTagsAvx2(const std::uint64_t *tags, std::uint64_t tag,
             unsigned ways, unsigned *match, unsigned *invalid)
{
    const __m256i vtag = _mm256_set1_epi64x(static_cast<long long>(tag));
    const __m256i vinv = _mm256_set1_epi64x(-1);  // kInvalidTag
    unsigned m = 0;
    unsigned iv = 0;
    for (unsigned w = 0; w < ways; w += 4) {
        const __m256i t = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(tags + w));
        m |= static_cast<unsigned>(_mm256_movemask_pd(
                 _mm256_castsi256_pd(_mm256_cmpeq_epi64(t, vtag))))
             << w;
        iv |= static_cast<unsigned>(_mm256_movemask_pd(
                  _mm256_castsi256_pd(_mm256_cmpeq_epi64(t, vinv))))
              << w;
    }
    *match = m;
    *invalid = iv;
}

#endif  // MCLOCK_CACHE_AVX2

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
      ways_(cfg.ways)
{
    MCLOCK_ASSERT(numSets_ > 0 && (numSets_ & (numSets_ - 1)) == 0);
    // dirty_ is a 16-bit mask and the recency word has 16 nibbles.
    MCLOCK_ASSERT(ways_ >= 1 && ways_ <= 16);
    pageMaskable_ = lineShift_ + 6 >= kPageShift;
#ifdef MCLOCK_CACHE_AVX2
    simdScan_ = ways_ % 4 == 0 && __builtin_cpu_supports("avx2");
#endif
    tags_.assign(numSets_ * ways_, kInvalidTag);
    order_.assign(numSets_, kIdentityOrder);
    dirty_.assign(numSets_, 0);
}

CacheResult
CacheModel::access(Paddr pa, bool isWrite, std::uint64_t *lineMask)
{
    if (lineMask && pageMaskable_) {
        *lineMask |= std::uint64_t{1}
            << ((pa & (kPageSize - 1)) >> lineShift_);
    }
    const std::size_t set = setOf(pa);
    const std::uint64_t tag = tagOf(pa);
    std::uint64_t *tags = &tags_[set * ways_];
    std::uint64_t &order = order_[set];
    std::uint16_t &dirty = dirty_[set];

    // Fast path: the set's most recent line is already at rank 0.
    const unsigned mru = static_cast<unsigned>(order & 0xf);
    if (tags[mru] == tag) {
        dirty |= static_cast<std::uint16_t>(
            static_cast<unsigned>(isWrite) << mru);
        ++hits_;
        return {true, false};
    }

    // Branchless membership + validity masks: full-width compare scans
    // instead of early-exit loops, whose data-dependent exit branches
    // mispredict on nearly every access.
    unsigned match = 0;
    unsigned invalid = 0;
#ifdef MCLOCK_CACHE_AVX2
    if (simdScan_) {
        scanTagsAvx2(tags, tag, ways_, &match, &invalid);
    } else
#endif
    {
        for (unsigned w = 0; w < ways_; ++w) {
            match |= static_cast<unsigned>(tags[w] == tag) << w;
            invalid |=
                static_cast<unsigned>(tags[w] == kInvalidTag) << w;
        }
    }

    if (match) {
        const unsigned w = static_cast<unsigned>(std::countr_zero(match));
        order = touch(order, w);
        dirty |= static_cast<std::uint16_t>(
            static_cast<unsigned>(isWrite) << w);
        ++hits_;
        return {true, false};
    }

    // Miss: the first invalid way, else the least recently used one.
    const unsigned victim =
        invalid ? static_cast<unsigned>(std::countr_zero(invalid))
                : static_cast<unsigned>(order >> (4 * (ways_ - 1))) & 0xf;
    ++misses_;
    const std::uint16_t victimBit =
        static_cast<std::uint16_t>(1u << victim);
    const bool writeback = invalid == 0 && (dirty & victimBit) != 0;
    if (writeback)
        ++writebacks_;
    tags[victim] = tag;
    order = touch(order, victim);
    if (isWrite)
        dirty |= victimBit;
    else
        dirty = static_cast<std::uint16_t>(dirty & ~victimBit);
    return {false, writeback};
}

void
CacheModel::invalidateLine(std::size_t set, std::uint64_t tag)
{
    const std::size_t base = set * ways_;
    for (unsigned w = 0; w < ways_; ++w) {
        if (tags_[base + w] == tag) {
            tags_[base + w] = kInvalidTag;
            dirty_[set] = static_cast<std::uint16_t>(
                dirty_[set] & ~(1u << w));
            break;
        }
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
    tags_.assign(tags_.size(), kInvalidTag);
    order_.assign(order_.size(), kIdentityOrder);
    dirty_.assign(dirty_.size(), 0);
    hits_ = misses_ = writebacks_ = 0;
}

}  // namespace mclock
