/**
 * @file
 * Unit tests for the base module: RNG, intrusive list, stats, CSV,
 * slab arena, flat map.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <vector>

#include "base/arena.hh"
#include "base/csv.hh"
#include "base/hash.hh"
#include "base/intrusive_list.hh"
#include "base/parallel.hh"
#include "base/rng.hh"
#include "base/types.hh"
#include "base/units.hh"

namespace mclock {
namespace {

// --- Types / units ---------------------------------------------------------

TEST(TypesTest, PageArithmetic)
{
    EXPECT_EQ(kPageSize, 4096u);
    EXPECT_EQ(pageNumOf(0), 0u);
    EXPECT_EQ(pageNumOf(4095), 0u);
    EXPECT_EQ(pageNumOf(4096), 1u);
    EXPECT_EQ(pageBaseOf(4097), 4096u);
    EXPECT_EQ(pageBaseOf(8191), 4096u);
}

TEST(UnitsTest, SizeLiterals)
{
    EXPECT_EQ(1_KiB, 1024u);
    EXPECT_EQ(2_MiB, 2u * 1024 * 1024);
    EXPECT_EQ(1_GiB, 1024u * 1024 * 1024);
}

TEST(UnitsTest, TimeLiterals)
{
    EXPECT_EQ(1_us, 1000u);
    EXPECT_EQ(1_ms, 1000000u);
    EXPECT_EQ(2_s, 2000000000u);
}

TEST(TypesTest, TierRankAliases)
{
    // The legacy two-tier names are fixed ranks in the ordered topology.
    EXPECT_EQ(TierKind::Dram, 0);
    EXPECT_EQ(TierKind::Pmem, 1);
    EXPECT_LT(TierKind::Dram, TierKind::Pmem);
}

// --- Rng ------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next64(), b.next64());
}

TEST(RngTest, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next64() == b.next64())
            ++same;
    }
    EXPECT_LT(same, 2);
}

/** The next four draws of @p rng: equal for equal states. */
std::vector<std::uint64_t>
nextDraws(Rng rng)
{
    return {rng.next64(), rng.next64(), rng.next64(), rng.next64()};
}

TEST(RngTest, AdvanceMatchesSingleSteps)
{
    const std::vector<std::uint64_t> jumps = {
        0, 1, 2, 255, 256, 257, 1000, 123457, 6291456 + 17};
    for (std::uint64_t seed : {1u, 42u, 0xdeadbeefu}) {
        Rng stepped(seed);
        std::uint64_t at = 0;
        for (std::uint64_t n : jumps) {
            SCOPED_TRACE(::testing::Message()
                         << "seed " << seed << " n " << n);
            for (; at < n; ++at)
                stepped.next64();
            Rng jumped(seed);
            jumped.advance(n);
            EXPECT_EQ(nextDraws(jumped), nextDraws(stepped));
        }
    }
    // Jumps too long to step compose: a then b lands where a + b does.
    const std::uint64_t a = (1ull << 40) - 3, b = (1ull << 40) + 12345;
    Rng twice(9), once(9);
    twice.advance(a);
    twice.advance(b);
    once.advance(a + b);
    EXPECT_EQ(nextDraws(twice), nextDraws(once));
    Rng next = once;
    next.advance(1);
    once.next64();
    EXPECT_EQ(nextDraws(next), nextDraws(once));
}

TEST(RngTest, RangeIsBounded)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.nextRange(17), 17u);
}

TEST(RngTest, RangeCoversAllValues)
{
    Rng rng(7);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.nextRange(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, DoubleInUnitInterval)
{
    Rng rng(9);
    for (int i = 0; i < 10000; ++i) {
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(RngTest, BernoulliFrequency)
{
    Rng rng(11);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        if (rng.nextBool(0.3))
            ++hits;
    }
    const double rate = static_cast<double>(hits) / n;
    EXPECT_NEAR(rate, 0.3, 0.01);
}

TEST(RngTest, ForkIsIndependent)
{
    Rng a(5);
    Rng child = a.fork();
    // The child stream must not equal the parent's continuation.
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.next64() == child.next64())
            ++same;
    }
    EXPECT_LT(same, 2);
}

// --- Parallel parts --------------------------------------------------------

TEST(ParallelTest, PartRangesTileTheItemsInOrder)
{
    for (std::size_t items : {0u, 1u, 5u, 4096u, 4099u}) {
        for (unsigned parts : {1u, 2u, 3u, 4u, 7u, 16u}) {
            std::size_t next = 0;
            for (unsigned p = 0; p < parts; ++p) {
                const base::PartRange r = base::partRange(items, parts, p);
                EXPECT_EQ(r.begin, next);
                EXPECT_LE(r.end - r.begin, items / parts + 1);
                next = r.end;
            }
            EXPECT_EQ(next, items);
        }
    }
}

TEST(ParallelTest, PartCountStaysSerialBelowTheFloor)
{
    EXPECT_EQ(base::partCount(0), 1u);
    EXPECT_EQ(base::partCount(2 * base::kMinItemsPerPart - 1), 1u);
    EXPECT_LE(base::partCount(std::size_t{1} << 40, 3), 3u);
    EXPECT_EQ(base::partCount(std::size_t{1} << 40, 0), 1u);
}

TEST(ParallelTest, RunPartsRunsEveryPartOnce)
{
    std::vector<unsigned> runs(9, 0);
    base::runParts(9, [&runs](unsigned p) { ++runs[p]; });
    EXPECT_EQ(runs, std::vector<unsigned>(9, 1));
}

TEST(ParallelTest, RunChunksRunsEveryChunkOnceAndTilesTheItems)
{
    constexpr std::size_t kChunk = 64;
    for (std::size_t items : {0u, 1u, 64u, 65u, 1000u, 4096u}) {
        for (unsigned parts : {1u, 2u, 3u, 4u, 16u}) {
            SCOPED_TRACE(::testing::Message()
                         << items << " items, " << parts << " threads");
            const std::size_t chunks = (items + kChunk - 1) / kChunk;
            // Each chunk writes only its own slot, and each thread only
            // its own cursor, so no lock is needed.
            std::vector<base::PartRange> seen(chunks, {0, 0});
            std::vector<std::atomic<unsigned>> runs(chunks);
            std::vector<std::size_t> cursor(parts, 0);
            base::runChunks(items, kChunk, parts,
                            [&](unsigned p, base::PartRange r) {
                                ASSERT_LT(p, std::min<std::size_t>(
                                                 parts, chunks));
                                EXPECT_EQ(r.begin % kChunk, 0u);
                                // Each thread's claims ascend.
                                EXPECT_GE(r.begin, cursor[p]);
                                cursor[p] = r.end;
                                runs[r.begin / kChunk].fetch_add(1);
                                seen[r.begin / kChunk] = r;
                            });
            std::size_t next = 0;
            for (std::size_t c = 0; c < chunks; ++c) {
                EXPECT_EQ(runs[c].load(), 1u) << "chunk " << c;
                EXPECT_EQ(seen[c].begin, next) << "chunk " << c;
                EXPECT_EQ(seen[c].end, std::min(items, next + kChunk));
                next = seen[c].end;
            }
            EXPECT_EQ(next, items);
        }
    }
}

// --- FNV-1a ----------------------------------------------------------------

/** FNV-1a over @p v's eight bytes, one step per byte, no folding. */
std::uint64_t
fnvEightSteps(std::uint64_t v)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (int i = 0; i < 8; ++i)
        h = (h ^ ((v >> (i * 8)) & 0xff)) * 0x100000001b3ull;
    return h;
}

TEST(Fnv1aTest, WordFoldMatchesEightByteSteps)
{
    // Every value below 2^24: the folded path (v < 2^16), the switch
    // to the full path at 2^16, and a full byte above it.
    for (std::uint64_t v = 0; v < (1ull << 24); ++v) {
        if (Fnv1a().word(v).value() != fnvEightSteps(v))
            FAIL() << "v = " << v;
    }
    // 10^7 random values, spread evenly over the 64 bit widths (the
    // top bit of width w is set, so each value has exactly w bits).
    Rng rng(17);
    for (int i = 0; i < 10'000'000; ++i) {
        const int width = 1 + i % 64;
        const std::uint64_t v =
            rng.next64() >> (64 - width) | 1ull << (width - 1);
        if (Fnv1a().word(v).value() != fnvEightSteps(v))
            FAIL() << "v = " << v;
    }
    // The fold is exact mid-stream too, not only from the seed state.
    Fnv1a bytes;
    for (std::uint64_t w : {1ull << 40, 5ull}) {
        for (int i = 0; i < 8; ++i)
            bytes.byte(static_cast<std::uint8_t>(w >> (i * 8)));
    }
    EXPECT_EQ(Fnv1a().word(1ull << 40).word(5).value(), bytes.value());
}

// --- Intrusive list --------------------------------------------------------

struct ListItem
{
    ListItem() = default;
    explicit ListItem(int v) : value(v) {}
    int value = 0;
    ListHook hook;
};

using ItemList = IntrusiveList<ListItem, &ListItem::hook>;

TEST(IntrusiveListTest, StartsEmpty)
{
    ItemList list;
    EXPECT_TRUE(list.empty());
    EXPECT_EQ(list.size(), 0u);
    EXPECT_EQ(list.front(), nullptr);
    EXPECT_EQ(list.back(), nullptr);
    EXPECT_EQ(list.popFront(), nullptr);
}

TEST(IntrusiveListTest, PushFrontOrdering)
{
    ItemList list;
    ListItem a{1}, b{2}, c{3};
    list.pushFront(&a);
    list.pushFront(&b);
    list.pushFront(&c);
    EXPECT_EQ(list.size(), 3u);
    EXPECT_EQ(list.front(), &c);
    EXPECT_EQ(list.back(), &a);
}

TEST(IntrusiveListTest, PushBackOrdering)
{
    ItemList list;
    ListItem a{1}, b{2};
    list.pushBack(&a);
    list.pushBack(&b);
    EXPECT_EQ(list.front(), &a);
    EXPECT_EQ(list.back(), &b);
}

TEST(IntrusiveListTest, EraseMiddle)
{
    ItemList list;
    ListItem a, b, c;
    list.pushBack(&a);
    list.pushBack(&b);
    list.pushBack(&c);
    list.erase(&b);
    EXPECT_EQ(list.size(), 2u);
    EXPECT_EQ(list.front(), &a);
    EXPECT_EQ(list.back(), &c);
    EXPECT_FALSE(b.hook.linked());
}

TEST(IntrusiveListTest, PopBackReturnsTail)
{
    ItemList list;
    ListItem a, b;
    list.pushBack(&a);
    list.pushBack(&b);
    EXPECT_EQ(list.popBack(), &b);
    EXPECT_EQ(list.popBack(), &a);
    EXPECT_TRUE(list.empty());
}

TEST(IntrusiveListTest, RotateBackToFront)
{
    ItemList list;
    ListItem a, b, c;
    list.pushBack(&a);
    list.pushBack(&b);
    list.pushBack(&c);
    list.rotateBackToFront();
    EXPECT_EQ(list.front(), &c);
    EXPECT_EQ(list.back(), &b);
    EXPECT_EQ(list.size(), 3u);
}

TEST(IntrusiveListTest, IterationVisitsAllInOrder)
{
    ItemList list;
    ListItem items[5];
    for (int i = 0; i < 5; ++i) {
        items[i].value = i;
        list.pushBack(&items[i]);
    }
    std::vector<int> seen;
    for (ListItem *it : list)
        seen.push_back(it->value);
    EXPECT_EQ(seen, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(IntrusiveListTest, ReinsertAfterErase)
{
    ItemList list;
    ListItem a;
    list.pushBack(&a);
    list.erase(&a);
    list.pushFront(&a);
    EXPECT_EQ(list.size(), 1u);
    EXPECT_EQ(list.front(), &a);
}

// --- CsvWriter ----------------------------------------------------------------

TEST(CsvWriterTest, PlainRow)
{
    CsvWriter csv;
    csv.writeRow(std::vector<std::string>{"a", "b", "c"});
    EXPECT_EQ(csv.str(), "a,b,c\n");
}

TEST(CsvWriterTest, EscapesSpecialCharacters)
{
    CsvWriter csv;
    csv.writeRow(std::vector<std::string>{"a,b", "q\"q", "line\nbreak"});
    EXPECT_EQ(csv.str(), "\"a,b\",\"q\"\"q\",\"line\nbreak\"\n");
}

// --- SlabArena --------------------------------------------------------------

/** Arena element with observable construction/destruction. */
struct ArenaProbe
{
    static inline int liveProbes = 0;
    std::uint64_t value;

    explicit ArenaProbe(std::uint64_t v) : value(v) { ++liveProbes; }
    ~ArenaProbe() { --liveProbes; }
};

TEST(SlabArenaTest, CreateForwardsArgsAndCountsLive)
{
    SlabArena<ArenaProbe> arena(8);
    ASSERT_EQ(ArenaProbe::liveProbes, 0);
    ArenaProbe *a = arena.create(7u);
    ArenaProbe *b = arena.create(11u);
    EXPECT_EQ(a->value, 7u);
    EXPECT_EQ(b->value, 11u);
    EXPECT_EQ(arena.liveObjects(), 2u);
    EXPECT_EQ(ArenaProbe::liveProbes, 2);
    arena.destroy(a);
    arena.destroy(b);
    EXPECT_EQ(arena.liveObjects(), 0u);
    EXPECT_EQ(ArenaProbe::liveProbes, 0);
}

TEST(SlabArenaTest, AddressesStableAcrossChunkGrowth)
{
    // Tiny chunks force many growths; earlier objects must not move.
    SlabArena<std::uint64_t> arena(4);
    std::vector<std::uint64_t *> ptrs;
    for (std::uint64_t i = 0; i < 100; ++i)
        ptrs.push_back(arena.create(i));
    EXPECT_EQ(arena.numChunks(), 25u);
    EXPECT_EQ(arena.capacity(), 100u);
    std::set<std::uint64_t *> unique(ptrs.begin(), ptrs.end());
    EXPECT_EQ(unique.size(), ptrs.size());
    for (std::uint64_t i = 0; i < 100; ++i)
        EXPECT_EQ(*ptrs[i], i);
}

TEST(SlabArenaTest, SequentialCreationsAreContiguous)
{
    // The point of the arena: pages created back to back sit next to
    // each other, not wherever the heap scattered them.
    SlabArena<std::uint64_t> arena(64);
    std::uint64_t *first = arena.create(0u);
    for (std::uint64_t i = 1; i < 64; ++i)
        EXPECT_EQ(arena.create(i), first + i);
}

TEST(SlabArenaTest, RecyclingIsLifo)
{
    SlabArena<std::uint64_t> arena(8);
    std::uint64_t *a = arena.create(1u);
    std::uint64_t *b = arena.create(2u);
    arena.destroy(a);
    arena.destroy(b);
    // Most recently destroyed slot comes back first.
    EXPECT_EQ(arena.create(3u), b);
    EXPECT_EQ(arena.create(4u), a);
    EXPECT_EQ(arena.capacity(), 8u);  // no new chunk was needed
}

TEST(SlabArenaTest, ChurnPropertyAgainstLiveSet)
{
    // Random create/destroy churn: every live object keeps its value
    // and its address, capacity only grows, live count always matches.
    SlabArena<std::uint64_t> arena(16);
    Rng rng(123);
    std::vector<std::pair<std::uint64_t *, std::uint64_t>> live;
    std::uint64_t nextValue = 0;
    for (int step = 0; step < 5000; ++step) {
        if (live.empty() || rng.nextBool(0.6)) {
            const std::uint64_t v = nextValue++;
            live.emplace_back(arena.create(v), v);
        } else {
            const std::size_t i = static_cast<std::size_t>(
                rng.nextRange(live.size()));
            EXPECT_EQ(*live[i].first, live[i].second);
            arena.destroy(live[i].first);
            live[i] = live.back();
            live.pop_back();
        }
        ASSERT_EQ(arena.liveObjects(), live.size());
        ASSERT_GE(arena.capacity(), live.size());
    }
    for (const auto &[ptr, v] : live)
        EXPECT_EQ(*ptr, v);
}

}  // namespace
}  // namespace mclock
