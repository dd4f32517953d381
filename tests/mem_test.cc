/**
 * @file
 * Unit tests for the mem module: timing model, LLC, DRAM cache.
 */

#include <gtest/gtest.h>

#include <vector>

#include "base/rng.hh"
#include "base/units.hh"
#include "mem/cache.hh"
#include "mem/dram_cache.hh"
#include "mem/memory_config.hh"

namespace mclock {
namespace {

// --- MemoryConfig -----------------------------------------------------------

TEST(MemoryConfigTest, DefaultLatencyOrdering)
{
    MemoryConfig cfg;
    ASSERT_EQ(cfg.numTiers(), 2u);
    EXPECT_STREQ(cfg.tierName(TierKind::Dram), "DRAM");
    EXPECT_STREQ(cfg.tierName(TierKind::Pmem), "PMEM");
    EXPECT_LT(cfg.timing(TierKind::Dram).loadLatency,
              cfg.timing(TierKind::Pmem).loadLatency);
    EXPECT_LT(cfg.timing(TierKind::Dram).storeLatency,
              cfg.timing(TierKind::Pmem).storeLatency);
    EXPECT_GT(cfg.timing(TierKind::Dram).writeBandwidth,
              cfg.timing(TierKind::Pmem).writeBandwidth);
}

TEST(MemoryConfigTest, CopyLatencyUsesBottleneckBandwidth)
{
    MemoryConfig cfg;
    // DRAM -> PM copy is limited by PM write bandwidth (2.3 GB/s).
    const SimTime toPm =
        cfg.copyLatency(TierKind::Dram, TierKind::Pmem, 4096);
    EXPECT_NEAR(static_cast<double>(toPm), 4096.0 / 2.3, 2.0);
    // PM -> DRAM copy is limited by PM read bandwidth (6.6 GB/s).
    const SimTime toDram =
        cfg.copyLatency(TierKind::Pmem, TierKind::Dram, 4096);
    EXPECT_NEAR(static_cast<double>(toDram), 4096.0 / 6.6, 2.0);
    EXPECT_LT(toDram, toPm);
}

TEST(MemoryConfigTest, TwoTierCopyLatencyPinned)
{
    // Regression pin: the N-tier table must not change the default
    // two-tier copy costs (golden runs depend on these numbers).
    MemoryConfig cfg;
    EXPECT_EQ(cfg.copyLatency(TierKind::Dram, TierKind::Pmem, 4096),
              static_cast<SimTime>(4096.0 / 2.3));
    EXPECT_EQ(cfg.copyLatency(TierKind::Pmem, TierKind::Dram, 4096),
              static_cast<SimTime>(4096.0 / 6.6));
    EXPECT_EQ(cfg.copyLatency(TierKind::Dram, TierKind::Dram, 4096),
              static_cast<SimTime>(4096.0 / 12.0));
}

TEST(MemoryConfigTest, ThreeTierBandwidthMatrix)
{
    MemoryConfig cfg;
    cfg.tiers = {
        {"DRAM", {80_ns, 80_ns, 12.0, 12.0}},
        {"CXL", {200_ns, 180_ns, 9.0, 9.0}},
        {"PMEM", {300_ns, 200_ns, 6.6, 2.3}},
    };
    ASSERT_EQ(cfg.numTiers(), 3u);
    // Each pair takes min(src read BW, dst write BW).
    EXPECT_EQ(cfg.copyLatency(0, 1, 4096),
              static_cast<SimTime>(4096.0 / 9.0));   // CXL write
    EXPECT_EQ(cfg.copyLatency(1, 0, 4096),
              static_cast<SimTime>(4096.0 / 9.0));   // CXL read
    EXPECT_EQ(cfg.copyLatency(1, 2, 4096),
              static_cast<SimTime>(4096.0 / 2.3));   // PM write
    EXPECT_EQ(cfg.copyLatency(2, 1, 4096),
              static_cast<SimTime>(4096.0 / 6.6));   // PM read
    EXPECT_EQ(cfg.copyLatency(0, 2, 4096),
              static_cast<SimTime>(4096.0 / 2.3));
    // Migration costs follow the matrix plus the fixed overhead.
    EXPECT_EQ(cfg.pageMigrationCost(2, 1),
              cfg.migrationFixedCost +
                  cfg.copyLatency(2, 1, kPageSize));
}

TEST(MemoryConfigTest, MigrationCostIncludesFixedOverhead)
{
    MemoryConfig cfg;
    const SimTime cost =
        cfg.pageMigrationCost(TierKind::Pmem, TierKind::Dram);
    EXPECT_GT(cost, cfg.migrationFixedCost);
    EXPECT_EQ(cost, cfg.migrationFixedCost +
                        cfg.copyLatency(TierKind::Pmem, TierKind::Dram,
                                        kPageSize));
}

TEST(MemoryConfigTest, TimingSelection)
{
    MemoryConfig cfg;
    EXPECT_EQ(cfg.timing(TierKind::Dram).loadLatency,
              cfg.tier(TierKind::Dram).timing.loadLatency);
    EXPECT_EQ(cfg.timing(TierKind::Pmem).loadLatency,
              cfg.tier(TierKind::Pmem).timing.loadLatency);
}

// --- CacheModel --------------------------------------------------------------

CacheConfig
smallCache()
{
    CacheConfig cfg;
    cfg.sizeBytes = 4096;  // 64 lines
    cfg.ways = 4;          // 16 sets
    return cfg;
}

TEST(CacheModelTest, MissThenHit)
{
    CacheModel cache(smallCache());
    EXPECT_FALSE(cache.access(0x1000, false).hit);
    EXPECT_TRUE(cache.access(0x1000, false).hit);
    EXPECT_TRUE(cache.access(0x1038, false).hit);  // same 64 B line
    EXPECT_FALSE(cache.access(0x1040, false).hit); // next line
    EXPECT_EQ(cache.hits(), 2u);
    EXPECT_EQ(cache.misses(), 2u);
}

TEST(CacheModelTest, LruEvictionWithinSet)
{
    CacheModel cache(smallCache());
    const std::size_t sets = cache.numSets();
    // Fill one set: addresses with identical set index, distinct tags.
    const Paddr stride = sets * 64;
    for (unsigned w = 0; w < 4; ++w)
        EXPECT_FALSE(cache.access(w * stride, false).hit);
    for (unsigned w = 0; w < 4; ++w)
        EXPECT_TRUE(cache.access(w * stride, false).hit);
    // A fifth tag evicts the LRU line (tag 0)...
    EXPECT_FALSE(cache.access(4 * stride, false).hit);
    EXPECT_FALSE(cache.access(0, false).hit);
    // ...while more recently used lines survive. (Line 2 was re-touched
    // after line 1, so line 1 got evicted by the tag-0 refill above.)
    EXPECT_TRUE(cache.access(3 * stride, false).hit);
}

TEST(CacheModelTest, DirtyWritebackOnEviction)
{
    CacheModel cache(smallCache());
    const std::size_t sets = cache.numSets();
    const Paddr stride = sets * 64;
    cache.access(0, true);  // dirty line
    for (unsigned w = 1; w <= 4; ++w)
        cache.access(w * stride, false);
    EXPECT_EQ(cache.writebacks(), 1u);
}

TEST(CacheModelTest, InvalidatePageDropsLines)
{
    CacheModel cache(smallCache());
    cache.access(0x2000, false);
    cache.access(0x2040, false);
    cache.invalidatePage(0x2000);
    EXPECT_FALSE(cache.access(0x2000, false).hit);
    EXPECT_FALSE(cache.access(0x2040, false).hit);
}

TEST(CacheModelTest, ResetClearsEverything)
{
    CacheModel cache(smallCache());
    cache.access(0x3000, true);
    cache.reset();
    EXPECT_EQ(cache.hits() + cache.misses(), 0u);
    EXPECT_FALSE(cache.access(0x3000, false).hit);
}

TEST(CacheModelTest, TagBeyondThirtyTwoBitsDies)
{
    CacheModel cache(smallCache());  // tag = pa >> 10
    EXPECT_TRUE(cache.tagFits((Paddr{1} << 42) - 3 * 1024));
    EXPECT_FALSE(cache.tagFits((Paddr{1} << 42) - 2 * 1024));
    EXPECT_DEATH(cache.access(Paddr{1} << 50, false), "tagFits");
}

/**
 * The SSE2 lane mask (where built) against the portable scalar loop,
 * on rows shaped as the model keeps them: lanes at or above the way
 * count hold the pad sentinel, the rest hold tags, invalid sentinels
 * and values at the signed and unsigned boundaries.
 */
TEST(CacheModelTest, LaneMaskMatchesScalarLoop)
{
    constexpr std::uint32_t kInvalid = ~0u, kPad = ~0u - 1;
    const std::uint32_t edges[] = {0, 1, 0x7fffffff, 0x80000000,
                                   0xfffffffd, kPad, kInvalid};
    Rng rng(7);
    alignas(64) std::uint32_t row[detail::kTagLanes];
    auto draw = [&] {
        return rng.nextBool(0.5) ? edges[rng.nextRange(std::size(edges))]
                                 : static_cast<std::uint32_t>(rng.next64());
    };
    for (unsigned ways = 1; ways <= detail::kTagLanes; ++ways) {
        SCOPED_TRACE(::testing::Message() << "ways " << ways);
        for (int trial = 0; trial < 2000; ++trial) {
            for (unsigned l = 0; l < detail::kTagLanes; ++l)
                row[l] = l < ways ? draw() : kPad;
            for (std::uint32_t tag :
                 {row[rng.nextRange(ways)], draw(), kInvalid, kPad}) {
                const unsigned want = detail::laneMaskScalar(row, tag);
                ASSERT_EQ(detail::laneMask(row, tag), want);
                if (tag != kPad) {
                    ASSERT_EQ(want >> ways, 0u);
                }
            }
        }
    }
}

/**
 * The LLC model before its recency word: per-set 32-bit LRU stamps from
 * a per-set clock, victim = first invalid way, else the first way with
 * the smallest stamp (scalar argmin). Kept to pin the current model.
 */
class StampArgminCache
{
  public:
    explicit StampArgminCache(const CacheConfig &cfg)
        : ways_(cfg.ways), sets_(cfg.sizeBytes / (kLineBytes * cfg.ways)),
          tags_(sets_ * ways_, kInvalid),
          use_(sets_ * ways_, 0), dirty_(sets_ * ways_, false),
          clock_(sets_, 0)
    {
    }

    CacheResult
    access(Paddr pa, bool isWrite)
    {
        const std::uint64_t tag = pa / kLineBytes;
        const std::size_t set = tag & (sets_ - 1);
        const std::size_t base = set * ways_;
        const std::uint32_t stamp = ++clock_[set];
        for (unsigned w = 0; w < ways_; ++w) {
            if (tags_[base + w] == tag) {
                use_[base + w] = stamp;
                dirty_[base + w] = dirty_[base + w] || isWrite;
                ++hits;
                return {true, false};
            }
        }
        unsigned victim = 0;
        bool invalid = false;
        for (unsigned w = 0; w < ways_ && !invalid; ++w) {
            if (tags_[base + w] == kInvalid) {
                victim = w;
                invalid = true;
            } else if (use_[base + w] < use_[base + victim]) {
                victim = w;
            }
        }
        ++misses;
        const bool writeback = !invalid && dirty_[base + victim];
        writebacks += writeback;
        tags_[base + victim] = tag;
        use_[base + victim] = stamp;
        dirty_[base + victim] = isWrite;
        return {false, writeback};
    }

    void
    invalidatePage(Paddr pageBase)
    {
        for (Paddr pa = pageBase; pa < pageBase + kPageSize;
             pa += kLineBytes) {
            const std::uint64_t tag = pa / kLineBytes;
            const std::size_t base = (tag & (sets_ - 1)) * ways_;
            for (unsigned w = 0; w < ways_; ++w) {
                if (tags_[base + w] == tag) {
                    tags_[base + w] = kInvalid;
                    use_[base + w] = 0;
                    dirty_[base + w] = false;
                }
            }
        }
    }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t writebacks = 0;

  private:
    static constexpr std::uint64_t kInvalid = ~0ull;
    unsigned ways_;
    std::size_t sets_;
    std::vector<std::uint64_t> tags_;
    std::vector<std::uint32_t> use_;
    std::vector<bool> dirty_;
    std::vector<std::uint32_t> clock_;
};

enum class CacheTrace { Random, Streamed, PageClustered };

TEST(CacheModelTest, MatchesStampArgminReference)
{
    // 16 sets take a page in four runs, 64 in one, 256 in a quarter
    // of the sets (CacheModel::invalidatePage).
    for (std::size_t sets : {16u, 64u, 256u}) {
        for (unsigned ways : {1u, 2u, 3u, 4u, 8u, 12u, 16u}) {
            for (CacheTrace trace : {CacheTrace::Random, CacheTrace::Streamed,
                                     CacheTrace::PageClustered}) {
                SCOPED_TRACE(::testing::Message()
                             << "sets " << sets << " ways " << ways
                             << " trace " << static_cast<int>(trace));
                CacheConfig cfg;
                cfg.ways = ways;
                cfg.sizeBytes = sets * ways * kLineBytes;
                CacheModel cache(cfg);
                StampArgminCache ref(cfg);
                // The footprint is 4x the cache: hits, misses and
                // evictions of every rank all occur.
                const Paddr span = 4 * cfg.sizeBytes;
                Rng rng(sets * 997 + ways * 31 +
                        static_cast<unsigned>(trace));
                Paddr cursor = 0;
                for (int i = 0; i < 100000; ++i) {
                    Paddr pa = 0;
                    switch (trace) {
                      case CacheTrace::Random:
                        pa = rng.nextRange(span);
                        break;
                      case CacheTrace::Streamed:
                        pa = cursor;
                        cursor = (cursor + 4) % span;
                        break;
                      case CacheTrace::PageClustered:
                        // Bursts of 8 accesses to one page.
                        if (i % 8 == 0)
                            cursor = rng.nextRange(span) & ~(kPageSize - 1);
                        pa = cursor + rng.nextRange(kPageSize);
                        break;
                    }
                    if (rng.nextBool(0.02)) {
                        const Paddr page = pa & ~(kPageSize - 1);
                        cache.invalidatePage(page);
                        ref.invalidatePage(page);
                        continue;
                    }
                    const bool isWrite = rng.nextBool(0.3);
                    const CacheResult got = cache.access(pa, isWrite);
                    const CacheResult want = ref.access(pa, isWrite);
                    ASSERT_EQ(got.hit, want.hit) << "access " << i;
                    ASSERT_EQ(got.writebackDirty, want.writebackDirty)
                        << "access " << i;
                }
                EXPECT_EQ(cache.hits(), ref.hits);
                EXPECT_EQ(cache.misses(), ref.misses);
                EXPECT_EQ(cache.writebacks(), ref.writebacks);
                EXPECT_GT(cache.writebacks(), 0u);
            }
        }
    }
}

// --- DramCache -----------------------------------------------------------------

TEST(DramCacheTest, HitServedAtDramLatency)
{
    MemoryConfig cfg;
    DramCache cache(1_MiB, cfg);
    const auto miss = cache.access(0x100, false);
    EXPECT_FALSE(miss.hit);
    EXPECT_GE(miss.latency, cfg.timing(TierKind::Pmem).loadLatency);
    const auto hit = cache.access(0x100, false);
    EXPECT_TRUE(hit.hit);
    EXPECT_EQ(hit.latency, cfg.timing(TierKind::Dram).loadLatency);
}

TEST(DramCacheTest, DirectMappedConflict)
{
    MemoryConfig cfg;
    DramCache cache(64_KiB, cfg);  // 1024 entries
    const Paddr conflictStride = 64_KiB;
    EXPECT_FALSE(cache.access(0, false).hit);
    EXPECT_FALSE(cache.access(conflictStride, false).hit);
    // The second access evicted the first (same index, different tag).
    EXPECT_FALSE(cache.access(0, false).hit);
}

TEST(DramCacheTest, DirtyEvictionPaysWriteback)
{
    MemoryConfig cfg;
    DramCache cache(64_KiB, cfg);
    cache.access(0, true);  // dirty fill
    const auto evicting = cache.access(64_KiB, false);
    EXPECT_FALSE(evicting.hit);
    EXPECT_EQ(cache.writebacks(), 1u);
    // Clean conflict miss costs less than the dirty one.
    DramCache clean(64_KiB, cfg);
    clean.access(0, false);
    const auto cleanEvict = clean.access(64_KiB, false);
    EXPECT_LT(cleanEvict.latency, evicting.latency);
}

TEST(DramCacheTest, HitRate)
{
    MemoryConfig cfg;
    DramCache cache(1_MiB, cfg);
    cache.access(0, false);
    cache.access(0, false);
    cache.access(0, false);
    cache.access(0, false);
    EXPECT_DOUBLE_EQ(cache.hitRate(), 0.75);
}


TEST(DramCacheTest, MissPaysTagProbePlusPmAccess)
{
    MemoryConfig cfg;
    DramCache cache(1_MiB, cfg);
    const auto miss = cache.access(0x40, false);
    EXPECT_FALSE(miss.hit);
    // 2LM misses serialize the DRAM tag probe before the PM access.
    EXPECT_GE(miss.latency,
              cfg.timing(TierKind::Dram).loadLatency +
                  cfg.timing(TierKind::Pmem).loadLatency);
}

}  // namespace
}  // namespace mclock
